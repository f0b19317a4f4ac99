"""Integer simplicial homology: sparse elimination to the Smith normal form.

Each boundary map is held as sparse columns.  Entries of +-1 are eliminated
first, each adding a 1 to the Smith diagonal; the block that has no unit
entry left is reduced on the same columns, by pivots of least absolute
value, which yields the torsion (after Dumas, Heckenbach, Saunders and
Welker, 2003).  Entries are arbitrary-precision Python integers, so
everything is exact.

The maps are reduced from the top, d_dim first, with clearing (the "twist"
of Chen and Kerber, Persistent homology computation with a twist, 2011):
an n-face that was the row of a unit pivot of d_{n+1} gets no column in
d_n.  This is exact over Z.  Let c_1, ..., c_k be the pivot columns of
d_{n+1}, each as it was when pivoted, with unit pivot rows r_1, ..., r_k.
Only column operations touch a live column, so each c_i is an integer
vector in im d_{n+1} and d_n(c_i) = 0.  Once row r_i is cleared every later
column is 0 there, so the c_i restricted to the rows r_1, ..., r_k form a
unit-triangular matrix, and C_n = span(c_i) + span(e_s : s not a pivot row)
is a unimodular direct sum.  Hence d_n has the same image lattice as its
restriction to the uncleared faces: the same rank and the same nonzero
Smith invariants.  Rows of the block left without a unit entry are never
cleared, and its row operations come after every c_i is fixed.

d_1 is never reduced.  On the edges that d_2 left uncleared it is the
incidence matrix of a graph, which is totally unimodular: H_0 has no
torsion, and the rank is vertices less components, the number of merges a
union-find makes over those edges.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .complexes import SimplicialComplex, _Frozen


class IntegerMatrix(_Frozen):
    """An immutable integer matrix, row-major; the shape and every entry must be ``int``."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Tuple[Tuple[int, ...], ...]):
        for name, v in (("rows", rows), ("cols", cols)):
            if type(v) is not int:
                raise TypeError(f"matrix {name} is not an int: {v!r}")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match the declared dimensions")
        entries = tuple(tuple(r) for r in entries)
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                if type(v) is not int:
                    raise TypeError(f"matrix entry ({i}, {j}) is not an int: {v!r}")
        self._set(rows=rows, cols=cols, entries=entries)


def _boundary_columns(faces) -> list:
    """The boundary of each face mask as a sparse column {sub-face mask: +-1}.

    Bits are cleared lowest first, the last vertex first: the k-th lowest bit
    of an n-vertex face is the vertex at position n-1-k, of sign (-1)^(n-1-k).
    """
    columns = []
    for face in faces:
        column, rest, sign = {}, face, 1 if face.bit_count() % 2 else -1
        while rest:
            low = rest & -rest
            column[face ^ low] = sign
            rest, sign = rest ^ low, -sign
        columns.append(column)
    return columns


def boundary_matrices(k: SimplicialComplex) -> List[IntegerMatrix]:
    """The boundary maps [d_1, ..., d_dim]; d_n sends n-faces to (n-1)-faces.

    Faces index rows and columns in lexicographic order; signs alternate
    along the canonical vertex order, so d_{n-1} d_n = 0.
    """
    graded = k._by_dimension()
    out = []
    for n in range(1, len(graded)):
        below = {f: i for i, f in enumerate(graded[n - 1])}
        here = graded[n]
        rows = [[0] * len(here) for _ in below]
        for j, column in enumerate(_boundary_columns(here)):
            for sub, sign in column.items():
                rows[below[sub]][j] = sign
        out.append(IntegerMatrix(len(below), len(here), tuple(map(tuple, rows))))
    return out


def smith_normal_form(m: IntegerMatrix) -> Tuple[int, ...]:
    """The positive diagonal d_1 | d_2 | ... | d_r of the Smith normal form, by ``_reduce``."""
    columns = [{i: row[j] for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)]
    rank, torsion = _reduce(columns)
    return (1,) * (rank - len(torsion)) + torsion


class HomologyProfile(_Frozen):
    """Betti numbers and torsion coefficients per dimension, up to the complex dimension."""

    __slots__ = _fields = ("betti", "torsion")

    def __init__(self, betti: Tuple[int, ...], torsion: Tuple[Tuple[int, ...], ...]):
        if len(betti) != len(torsion):
            raise ValueError("betti and torsion must cover the same dimensions")
        self._set(betti=betti, torsion=torsion)

    def as_report(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }

    def matches(self, other: "HomologyProfile") -> bool:
        """Equality in every dimension, padding the shorter profile with zeros."""
        n = max(len(self.betti), len(other.betti))
        return (
            self.betti + (0,) * (n - len(self.betti))
            == other.betti + (0,) * (n - len(other.betti))
            and self.torsion + ((),) * (n - len(self.torsion))
            == other.torsion + ((),) * (n - len(other.torsion))
        )


def _reduce(columns: list, cleared: Optional[set] = None) -> Tuple[int, Tuple[int, ...]]:
    """Rank and torsion of a sparse integer matrix, given by its columns.

    A unit entry v = +-1 at (r, j) is a pivot: adding multiples of column j
    clears row r from every other column, and row r then clears column j,
    so the matrix is equivalent to [v] plus the matrix without row r and
    column j.  Of the unit entries of a column, the one whose row is in the
    fewest columns is taken.  Columns that still have no unit entry after a
    pass are retried once some pivot has changed them.  On what is left the
    pivot p is an entry of least absolute value: column operations reduce
    its row to remainders and, once the row is p alone, row operations its
    column.  With no remainder, |p| splits off; else a smaller pivot exists.
    Gcd/lcm exchanges then make the split-off values a divisibility chain.
    The columns are consumed, and the row of every pivot of the first, unit
    stage is added to ``cleared`` when it is given.
    """
    rows = {}  # row -> the columns with a nonzero entry in that row
    for j, col in enumerate(columns):
        for r in col:
            rows.setdefault(r, set()).add(j)
    pivots = 0
    todo = range(len(columns))
    while todo:
        stuck = []
        for j in todo:
            col = columns[j]
            r = None
            for s, v in col.items():
                if v == 1 or v == -1:
                    count = len(rows[s])
                    if r is None or count < fewest:
                        r, fewest = s, count
                        if count == 1:  # row r holds column j only
                            break
            if r is None:
                if col:
                    stuck.append(j)
                continue
            if cleared is not None:
                cleared.add(r)
            sign = col[r]
            for i in rows.pop(r):
                if i == j:
                    continue
                other = columns[i]
                q = other[r] * sign
                for s, v in col.items():
                    w = other.get(s, 0) - q * v
                    if w:
                        if s not in other:
                            rows[s].add(i)
                        other[s] = w
                    else:
                        del other[s]
                        if s != r:
                            rows[s].discard(i)
            for s in col:
                if s != r:
                    rows[s].discard(j)
            columns[j] = {}
            pivots += 1
        if len(stuck) == len(todo):
            break
        todo = stuck
    diagonal = []
    live = todo  # the last pass pivoted nothing, so these are the nonzero columns
    while live:
        j = min(live, key=lambda i: min(map(abs, columns[i].values())))
        col = columns[j]
        r, p = min(col.items(), key=lambda e: abs(e[1]))
        for i in rows[r] - {j}:
            other = columns[i]
            q = (2 * other[r] + p) // (2 * p)  # the nearest quotient: remainders of at most |p| / 2
            for s, v in col.items():
                w = other.get(s, 0) - q * v
                if w:
                    if s not in other:
                        rows[s].add(i)
                    other[s] = w
                else:
                    del other[s]
                    rows[s].discard(i)
        if len(rows[r]) == 1:  # row r holds column j only: row operations change column j alone
            for s in [s for s in col if s != r]:
                col[s] -= (2 * col[s] + p) // (2 * p) * p
                if not col[s]:
                    del col[s]
                    rows[s].discard(j)
            if len(col) == 1:
                diagonal.append(abs(p))
                columns[j] = {}
                del rows[r]
        live = [i for i in live if columns[i]]
    changed = True
    while changed:
        changed = False
        for i in range(len(diagonal) - 1):
            x, y = diagonal[i], diagonal[i + 1]
            if y % x:
                diagonal[i], diagonal[i + 1] = math.gcd(x, y), math.lcm(x, y)
                changed = True
    return pivots + len(diagonal), tuple(d for d in diagonal if d > 1)


def _merges(edges) -> int:
    """How many edge masks join two components; each merge makes one root a key of ``parent``."""
    parent = {}
    for edge in edges:
        a, b = (edge & -edge).bit_length(), edge.bit_length()  # positions: single-bit keys collide
        while a in parent:  # path halving: point a at its grandparent and step there
            parent[a] = a = parent.get(parent[a], parent[a])
        while b in parent:
            parent[b] = b = parent.get(parent[b], parent[b])
        if a != b:
            parent[a] = b
    return len(parent)


def homology(k: SimplicialComplex) -> HomologyProfile:
    """Integer homology: betti_n and the torsion coefficients of dimension n.

    betti_n = #n-faces - rank d_n - rank d_{n+1}; torsion_n is the part of
    the Smith diagonal of d_{n+1} exceeding 1.  The maps are reduced from
    d_dim down, and d_n gets no column for an n-face that was a unit pivot
    row of d_{n+1}; rank d_1 is counted by a union-find over the edges left
    (see the module docstring).  The empty complex gets the empty profile.
    """
    graded = k._by_dimension()
    dim = len(graded) - 1
    ranks = [0] * (dim + 2)
    torsion = [()] * (dim + 1)
    cleared = set()
    for n in range(dim, 1, -1):
        faces = [f for f in graded[n] if f not in cleared]
        cleared = set()
        ranks[n], torsion[n - 1] = _reduce(_boundary_columns(faces), cleared)
    if dim >= 1:
        ranks[1] = _merges(e for e in graded[1] if e not in cleared)
    betti = tuple(len(graded[n]) - ranks[n] - ranks[n + 1] for n in range(dim + 1))
    return HomologyProfile(betti, tuple(torsion))


def same_homology(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """True iff the profiles agree in every dimension (padding with zeros)."""
    return homology(a).matches(homology(b))
