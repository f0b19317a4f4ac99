"""Independent oracles and small-structure enumerators for the test suite.

Everything here deliberately recomputes results along a different path from
the library (rational elimination instead of Smith reduction, exhaustive
search instead of constructive choice, subset filtering instead of DFS), so
agreement is meaningful.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from hypothesis import strategies as st

import relcomplex as rc
from relcomplex.errors import (
    CycleDetectedError,
    EmptyComplexError,
    EmptyFiberError,
    EmptyResultError,
    InvalidTopologyError,
    NotCoveredError,
    NotFreeError,
    ParseError,
    UniverseMismatchError,
    UnknownVertexError,
)
from relcomplex.formats import Document

# ---------------------------------------------------------------------------
# exact linear algebra oracles


def rational_rank(entries) -> int:
    """Rank over Q by Gaussian elimination with Fractions."""
    a = [[Fraction(v) for v in row] for row in entries]
    rank = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def gf_rank(entries, p: int) -> int:
    """Rank over the prime field GF(p)."""
    a = [[v % p for v in row] for row in entries]
    rank = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def det_int(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def gcd_of_k_minors(entries, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            minor = [[entries[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, det_int(minor))
            if g == 1:
                return 1
    return g


def matrix_from_rows(rows) -> rc.IntegerMatrix:
    """The IntegerMatrix of a list of rows."""
    return rc.IntegerMatrix(len(rows), len(rows[0]) if rows else 0, tuple(map(tuple, rows)))


def is_zero(m: rc.IntegerMatrix) -> bool:
    return all(v == 0 for row in m.entries for v in row)


def matrix_product(a: rc.IntegerMatrix, b: rc.IntegerMatrix) -> rc.IntegerMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions must agree")
    bt = list(zip(*b.entries)) if b.entries else []
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries
    )
    return rc.IntegerMatrix(a.rows, b.cols, rows)


def dense_smith_normal_form(m: rc.IntegerMatrix) -> tuple:
    """The positive diagonal d_1 | d_2 | ... | d_r of the Smith normal form, on dense rows.

    The reference for the library's sparse engine, so it shares none of its
    code: it works on a copy of the rows; pivots are chosen with smallest
    nonzero absolute value to keep intermediate entries small.  The matrix is
    first diagonalized by exact row/column reduction, then the diagonal is
    normalized into a divisibility chain by repeated gcd/lcm exchanges (which
    preserve the equivalence class).
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    diag = []
    t = 0
    while True:
        piv = None
        piv_abs = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                v = row[j]
                if v and (piv is None or abs(v) < piv_abs):
                    piv = (i, j)
                    piv_abs = abs(v)
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        if piv[1] != t:
            for row in a:
                row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            moved = False
            for i in range(t + 1, nr):
                v = a[i][t]
                if v:
                    q = v // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        # remainder is a smaller pivot candidate
                        a[t], a[i] = a[i], a[t]
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, nc):
                v = a[t][j]
                if v:
                    q = v // p
                    if q:
                        for i in range(nr):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                        break
            if not moved:
                break
        diag.append(a[t][t])
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = math.gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return tuple(diag)


def dense_homology(k: rc.SimplicialComplex) -> rc.HomologyProfile:
    """Homology from the full Smith diagonal of every dense boundary matrix."""
    if k.is_empty:
        return rc.HomologyProfile((), ())
    dim = k.dimension()
    counts = [len(k.n_faces(n)) for n in range(dim + 1)]
    diagonals = [dense_smith_normal_form(b) for b in rc.boundary_matrices(k)]
    ranks = [0] + [len(d) for d in diagonals] + [0]
    betti = tuple(counts[n] - ranks[n] - ranks[n + 1] for n in range(dim + 1))
    torsion = tuple(
        tuple(d for d in diagonals[n] if d > 1) if n < dim else ()
        for n in range(dim + 1)
    )
    return rc.HomologyProfile(betti, torsion)


def tuple_boundary_columns(faces) -> list:
    """The boundary of each index tuple, all of n vertices, as a sparse column {(n-1)-face: +-1}.

    The tuple engine's column builder: ``combinations`` drops the last
    position first, so the signs (-1)^pos run backwards.
    """
    n = len(faces[0]) if faces else 0
    signs = tuple(-1 if pos % 2 else 1 for pos in reversed(range(n)))
    return [dict(zip(itertools.combinations(face, n - 1), signs)) for face in faces]


def oracle_betti(k: rc.SimplicialComplex) -> tuple:
    """Betti numbers from scratch: own boundary matrices, ranks over Q."""
    if k.is_empty:
        return ()
    dim = k.dimension()
    graded = [sorted(f for f in k.faces if len(f) == n + 1) for n in range(dim + 1)]
    ranks = [0] * (dim + 2)
    for n in range(1, dim + 1):
        index = {f: i for i, f in enumerate(graded[n - 1])}
        mat = [[0] * len(graded[n]) for _ in graded[n - 1]]
        for j, face in enumerate(graded[n]):
            for pos in range(len(face)):
                mat[index[face[:pos] + face[pos + 1 :]]][j] = -1 if pos % 2 else 1
        ranks[n] = rational_rank(mat)
    return tuple(
        len(graded[n]) - ranks[n] - ranks[n + 1] for n in range(dim + 1)
    )


# ---------------------------------------------------------------------------
# complex oracles


def scan_facets(k: rc.SimplicialComplex) -> tuple:
    """Inclusion-maximal faces, testing each face against every other face."""
    maximal = []
    for face in k.faces:
        fs = set(face)
        if not any(fs < set(g) for g in k.faces):
            maximal.append(face)
    return tuple(sorted(maximal))


# ---------------------------------------------------------------------------
# combinatorial oracles


def brute_force_morphism_exists(rel: rc.Relation, rel2: rc.Relation) -> bool:
    """Exhaustive search over every assignment Y -> Z for the morphism law."""
    ys = list(rel.y_universe)
    zs = list(rel2.y_universe)
    for values in itertools.product(zs, repeat=len(ys)):
        f = dict(zip(ys, values))
        if all((x, f[y]) in rel2.pairs for x, y in rel.pairs):
            return True
    return False


def scan_find_morphism(rel: rc.Relation, rel2: rc.Relation):
    """``find_morphism`` as a set scan: for each y, the least z (by label
    order) whose support holds S_y as a Python set.  Errors come in the
    library's order: a universe mismatch, then an uncovered ``rel``, then an
    uncovered ``rel2``."""
    if rel.x_universe != rel2.x_universe:
        raise UniverseMismatchError()
    for r in (rel, rel2):
        for y in r.y_universe:
            if not r.support(y):
                raise NotCoveredError(y)
    supports2 = [(z, set(rel2.support(z))) for z in rel2.y_universe]
    assignment = {}
    for y in rel.y_universe:
        sy = set(rel.support(y))
        z = next((z for z, sz in supports2 if sy <= sz), None)
        if z is None:
            return None
        assignment[y] = z
    return assignment


def label_span(label_sets) -> frozenset:
    """Every nonempty subset of each label set, as sorted label tuples: the
    face set of the union of the full simplices on them."""
    return frozenset(
        sub
        for s in label_sets
        for n in range(1, len(s) + 1)
        for sub in itertools.combinations(sorted(s), n)
    )


def naive_chain_faces(p: rc.Poset) -> set:
    """All nonempty chains by filtering every subset of the elements."""
    labels = list(p.labels())
    out = set()
    for r in range(1, len(labels) + 1):
        found = len(out)
        for subset in itertools.combinations(labels, r):
            if all(
                p.leq(a, b) or p.leq(b, a)
                for a, b in itertools.combinations(subset, 2)
            ):
                out.add(tuple(sorted(subset)))
        if len(out) == found:  # a chain of r + 1 elements holds one of r
            break
    return out


def is_downward_closed(label_faces) -> bool:
    faces = set(label_faces)
    for face in faces:
        for r in range(1, len(face)):
            for sub in itertools.combinations(face, r):
                if tuple(sub) not in faces:
                    return False
    return True


def pairwise_topology(points, opens) -> frozenset:
    """The opens of a finite topology as masks, checking every pair of opens.

    The quadratic reference for ``FiniteTopology``: it builds the mask set in
    the same order and raises :class:`InvalidTopologyError` with the message
    of the first pair, in the set's iteration order, whose union or
    intersection is missing.
    """
    if not isinstance(points, rc.Universe):
        points = rc.Universe(points)
    n = len(points)
    whole = (1 << n) - 1
    masks = set()
    for o in opens:
        mask = 0
        for lab in o:
            mask |= 1 << points.index(lab)
        masks.add(mask)
    masks.add(0)
    if whole not in masks:
        raise InvalidTopologyError("the whole point set must be open")
    for a in masks:
        for b in masks:
            if a | b not in masks:
                raise InvalidTopologyError("open sets must be closed under union")
            if a & b not in masks:
                raise InvalidTopologyError(
                    "open sets must be closed under intersection"
                )
    return frozenset(masks)


def reference_poset_from_pairs(elements, pairs) -> rc.Poset:
    """A reference for ``poset_from_pairs`` through the validating ``Poset``.

    Reachability is a breadth-first search from each element over the
    generating pairs.  The first i < j, by index, that reach each other are
    reported as a cycle of two shortest paths, i to j and j back to i, each
    search taking the lower next index first.
    """
    universe = rc.Universe(elements)
    n = len(universe)
    succ = [set() for _ in range(n)]
    for a, b in pairs:
        succ[universe.index(a)].add(universe.index(b))

    def path(src, dst):
        prev = {src: None}
        queue = [src]
        while queue:
            cur = queue.pop(0)
            if cur == dst:
                out = []
                while cur is not None:
                    out.append(cur)
                    cur = prev[cur]
                return out[::-1]
            for nxt in sorted(succ[cur]):
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        return None

    for i, j in itertools.combinations(range(n), 2):
        there, back = path(i, j), path(j, i)
        if there and back:
            raise CycleDetectedError(tuple(universe.label(v) for v in there[:-1] + back))
    up = [sum(1 << j for j in range(n) if path(i, j)) for i in range(n)]
    return rc.Poset(universe, tuple(up))


def pairwise_product_poset(p: rc.Poset, q: rc.Poset) -> rc.Poset:
    """A reference for ``product_poset``: the closure of every label pair
    ``((a,b), (a2,b2))`` with a <= a2 and b <= b2, each tested by ``leq``."""
    labels = [rc.pair_label(a, b) for a in p.labels() for b in q.labels()]
    pairs = [
        (rc.pair_label(a, b), rc.pair_label(a2, b2))
        for a in p.labels()
        for a2 in p.labels()
        if p.leq(a, a2)
        for b in q.labels()
        for b2 in q.labels()
        if q.leq(b, b2)
    ]
    return rc.poset_from_pairs(labels, pairs)


def rescan_minimal_open(t: rc.FiniteTopology, index: int) -> int:
    """The intersection of every open of ``t`` that holds point ``index``."""
    mask = (1 << len(t.points)) - 1
    for o in t.opens:
        if o >> index & 1:
            mask &= o
    return mask


_POSET_CACHE: dict = {}


def all_posets(labels) -> list:
    """Every partial order on the given (sorted) labels.

    An order assigns each unordered pair one of three states (<, >, or
    incomparable), so candidates are filtered from 3^C(n,2) assignments by a
    transitivity check; antisymmetry holds by construction.
    """
    labels = tuple(labels)
    assert list(labels) == sorted(labels)
    if labels in _POSET_CACHE:
        return _POSET_CACHE[labels]
    n = len(labels)
    universe = rc.Universe(labels)
    positions = list(itertools.combinations(range(n), 2))
    out = []
    for states in itertools.product((0, 1, 2), repeat=len(positions)):
        up = [1 << i for i in range(n)]
        for (i, j), s in zip(positions, states):
            if s == 1:
                up[i] |= 1 << j
            elif s == 2:
                up[j] |= 1 << i
        ok = True
        for i in range(n):
            acc = up[i]
            m = up[i]
            while m:
                j = (m & -m).bit_length() - 1
                acc |= up[j]
                m &= m - 1
            if acc != up[i]:
                ok = False
                break
        if ok:
            out.append(rc.Poset(universe, tuple(up)))
    _POSET_CACHE[labels] = out
    return out


def all_up_set_masks(p: rc.Poset) -> list:
    """Every upward-closed subset of a poset, as bitmasks over its elements."""
    n = len(p)
    out = []
    for mask in range(1 << n):
        m = mask
        ok = True
        while m:
            i = (m & -m).bit_length() - 1
            if p.up[i] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def is_up_set(p: rc.Poset, labels) -> bool:
    """True iff the label set holds the up-set of each of its members."""
    labels = set(labels)
    return all(rc.up_set(p, lab) <= labels for lab in labels)


def mask_labels(p: rc.Poset, mask: int) -> list:
    return [p.elements.label(i) for i in range(len(p)) if mask >> i & 1]


def all_facet_antichains(labels) -> list:
    """Every family of pairwise-incomparable nonempty subsets covering all labels.

    These are exactly the facet lists of the complete complexes on the label
    set, each listed once.
    """
    labels = list(labels)
    universe = set(labels)
    subsets = [
        set(s)
        for r in range(1, len(labels) + 1)
        for s in itertools.combinations(labels, r)
    ]
    results = []

    def extend(i, chosen, union):
        if i == len(subsets):
            if chosen and union == universe:
                results.append([tuple(sorted(s)) for s in chosen])
            return
        extend(i + 1, chosen, union)
        s = subsets[i]
        if all(not (s <= t or t <= s) for t in chosen):
            chosen.append(s)
            extend(i + 1, chosen, union | s)
            chosen.pop()

    extend(0, [], set())
    return results


def all_covered_relations(x_labels, y_labels):
    """Every covered relation between the two label sets (supports per y)."""
    supports = [
        tuple(s)
        for r in range(1, len(x_labels) + 1)
        for s in itertools.combinations(x_labels, r)
    ]
    for combo in itertools.product(supports, repeat=len(y_labels)):
        pairs = [(x, y) for y, sup in zip(y_labels, combo) for x in sup]
        yield rc.Relation(x_labels, y_labels, pairs)


def random_facet_family(rng, labels) -> list:
    """A random facet antichain covering all labels."""
    labels = list(labels)
    picks = [
        frozenset(rng.sample(labels, rng.randint(1, len(labels))))
        for _ in range(rng.randint(1, 5))
    ]
    maximal = [s for s in picks if not any(s < t for t in picks)]
    covered = set().union(*maximal)
    family = {tuple(sorted(s)) for s in maximal}
    family.update((lab,) for lab in labels if lab not in covered)
    return sorted(family)


# ---------------------------------------------------------------------------
# label-route oracles: label pairs through the validating Relation


def label_poset_dowker_complex(p: rc.Poset, strict: bool, side: str) -> rc.SimplicialComplex:
    """``poset_dowker_complex`` by the label route: the order's label pairs,
    through the validating ``Relation``, then ``k_complex`` or ``l_complex``."""
    if side not in ("k", "l"):
        raise ValueError(f"side must be 'k' or 'l', got {side!r}")
    if len(p) == 0:
        raise EmptyComplexError("the Dowker complexes need a nonempty poset")
    pairs = p.strict_pairs() if strict else p.pairs()
    if not pairs:
        raise EmptyResultError()
    rel = rc.Relation(p.elements, p.elements, pairs)
    return rc.k_complex(rel) if side == "k" else rc.l_complex(rel)


def label_membership_relation(points, label_sets) -> rc.Relation:
    """x R s iff x is in s, with each label set named by joining its sorted
    labels with commas, and every pair through the validating ``Relation``."""
    named = {",".join(sorted(s)): s for s in label_sets}
    return rc.Relation(points, named, [(x, name) for name, s in named.items() for x in s])


def component_singleton(p: rc.Poset):
    """The first one-element component of ``connected_components``, or None."""
    return next((c[0] for c in rc.connected_components(p) if len(c) == 1), None)


# ---------------------------------------------------------------------------
# collapse oracles: each step rebuilds a validated complex and scans every face


def _all_proper_cofaces(k: rc.SimplicialComplex, face: tuple) -> list:
    fs = set(face)
    return sorted(g for g in k.faces if fs < set(g))


def rebuild_apply_step(k: rc.SimplicialComplex, step: rc.CollapseStep) -> rc.SimplicialComplex:
    """One elementary collapse, checked against all proper cofaces, as a new complex."""
    try:
        idx = k.universe.face_from_labels(step.free_face)
    except UnknownVertexError:
        raise NotFreeError(step.free_face, None) from None
    if idx not in k.faces:
        raise NotFreeError(step.free_face, None)
    cofaces = _all_proper_cofaces(k, idx)
    if len(cofaces) != 1:
        raise NotFreeError(step.free_face, [k.face_labels(c) for c in cofaces])
    actual = k.face_labels(cofaces[0])
    if actual != step.coface:
        raise NotFreeError(step.free_face, [actual])
    return rc.SimplicialComplex(k.universe, k.faces - {idx, cofaces[0]})


def rebuild_free_coface(k: rc.SimplicialComplex, labels) -> tuple:
    """The only proper coface of a face given by labels, or None."""
    cofaces = _all_proper_cofaces(k, k.universe.face_from_labels(labels))
    return k.face_labels(cofaces[0]) if len(cofaces) == 1 else None


def rebuild_verify_sequence(seq: rc.CollapseSequence) -> rc.SimplicialComplex:
    """Replay by rebuilding the complex after every step."""
    current = seq.initial
    for i, step in enumerate(seq.steps):
        try:
            current = rebuild_apply_step(current, step)
        except NotFreeError as exc:
            raise NotFreeError(exc.face, exc.cofaces, index=i) from None
    return current


def increment_coface_counts(k: rc.SimplicialComplex) -> dict:
    """The codimension-1 coface count of each face mask: every face adds one
    to each of its codimension-1 sub-faces (the greedy engine's first count)."""
    counts = dict.fromkeys(k._faces(), 0)
    for g in k._faces():
        for i in range(g.bit_length()):
            if g >> i & 1 and g != 1 << i:
                counts[g ^ 1 << i] += 1
    return counts


def scan_greedy_collapse(k: rc.SimplicialComplex):
    """Greedy collapse that scans every face for the least free one on each step.

    Counts all proper cofaces (not only codimension 1) and returns
    (core, steps) with the steps as (free labels, coface labels) pairs.
    """
    faces = set(k.faces)
    cofaces = {f: 0 for f in faces}
    for t in faces:
        for r in range(1, len(t)):
            for sub in itertools.combinations(t, r):
                cofaces[sub] += 1
    steps = []
    while True:
        free = [f for f, c in cofaces.items() if c == 1]
        if not free:
            break
        f = min(free, key=lambda s: (-len(s), s))
        fs = set(f)
        c = next(t for t in faces if len(t) == len(f) + 1 and fs < set(t))
        for gone in (f, c):
            faces.remove(gone)
            del cofaces[gone]
            for r in range(1, len(gone)):
                for sub in itertools.combinations(gone, r):
                    if sub in cofaces:
                        cofaces[sub] -= 1
        steps.append((k.face_labels(f), k.face_labels(c)))
    return rc.SimplicialComplex(k.universe, faces), steps


# ---------------------------------------------------------------------------
# report oracle: the report converter that walks every label


def walking_to_jsonable(value):
    """A reference for ``formats.write_report``'s structure that takes no short cut.

    Library types are tested before scalars, and a step's labels are
    emitted as lists that are walked again, one label at a time.  A
    collapse sequence is ``{"steps": [...]}`` on its own and its list of
    steps inside a report.
    """
    if isinstance(value, rc.CollapseSequence):
        return {"steps": _walking_value(value)}
    return _walking_value(value)


def _walking_value(value):
    if isinstance(value, rc.HomologyProfile):
        return value.as_report()
    if isinstance(value, rc.CollapseStep):
        return [[label for label in value.free_face], [label for label in value.coface]]
    if isinstance(value, rc.CollapseSequence):
        return [_walking_value(s) for s in value.steps]
    if isinstance(value, rc.SimplicialComplex):
        return {"facets": [list(labels) for labels in value.facet_labels()]}
    if isinstance(value, rc.Poset):
        return {
            "elements": list(value.labels()),
            "less_than": [list(p) for p in sorted(value.strict_pairs())],
        }
    if isinstance(value, rc.Relation):
        return {
            "xelements": list(value.x_universe),
            "yelements": list(value.y_universe),
            "pairs": [list(p) for p in sorted(value.pairs)],
        }
    if isinstance(value, rc.FiniteTopology):
        return {
            "points": list(value.points),
            "opens": [list(o) for o in value.open_label_sets()],
        }
    if isinstance(value, dict):
        return {str(k): _walking_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walking_value(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def walking_report(value) -> str:
    """Canonical JSON text of ``value`` through ``walking_to_jsonable``."""
    return json.dumps(walking_to_jsonable(value), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# parse oracle: the line parser that strips, splits and checks in steps

# kind -> keyword -> (min arity, max arity or None), a copy of the grammar in
# ``formats``, kept here so that the reference does not read the library's
_LINE_GRAMMAR = {
    "poset": {"element": (1, 1), "le": (2, 2)},
    "relation": {"xelement": (1, 1), "yelement": (1, 1), "pair": (2, 2)},
    "complex": {"facet": (1, None)},
    "space": {"point": (1, 1), "open": (1, None)},
}


def line_parse(text: str) -> Document:
    """A reference for ``formats.parse``: each line is cut at ``#``, stripped
    and split, and each check looks its declarations up by keyword."""
    kind = None
    name = None
    header_line = 1
    records = []
    declared: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if kind is None:
            if keyword not in _LINE_GRAMMAR:
                raise ParseError(
                    lineno, f"expected a header (one of {sorted(_LINE_GRAMMAR)}), got {keyword!r}"
                )
            if len(args) != 1:
                raise ParseError(lineno, f"header needs exactly one name, got {args!r}")
            kind, name, header_line = keyword, args[0], lineno
            rules = _LINE_GRAMMAR[kind]
            continue
        if keyword not in rules:
            raise ParseError(lineno, f"unknown keyword {keyword!r} in a {kind} file")
        lo, hi = rules[keyword]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ParseError(lineno, f"{keyword!r} takes {lo}{'' if hi == lo else '+'} labels")
        if keyword in ("element", "xelement", "yelement", "point"):
            declared.setdefault(keyword, set()).add(args[0])
        elif keyword == "le":
            for lab in args:
                if lab not in declared.get("element", ()):
                    raise ParseError(lineno, f"undeclared element {lab!r}")
        elif keyword == "pair":
            if args[0] not in declared.get("xelement", ()):
                raise ParseError(lineno, f"undeclared x element {args[0]!r}")
            if args[1] not in declared.get("yelement", ()):
                raise ParseError(lineno, f"undeclared y element {args[1]!r}")
        elif keyword == "open":
            for lab in args:
                if lab not in declared.get("point", ()):
                    raise ParseError(lineno, f"undeclared point {lab!r}")
        if keyword in ("facet", "open"):
            if len(set(args)) != len(args):
                raise ParseError(lineno, f"duplicate label in {keyword!r} line")
            args = sorted(args)
        records.append((keyword, *args))
    if kind is None:
        raise ParseError(1, "empty document")
    return Document(kind, name, tuple(records), header_line)


def shuffled_text(doc: Document, rnd) -> str:
    """A text of ``doc`` with its records in an order drawn from ``rnd``:
    the declarations, then the other records, each shuffled with some of its
    records repeated, and the labels of each set line shuffled."""
    declaring = {"element", "xelement", "yelement", "point"}
    lines = [f"{doc.kind} {doc.name}"]
    for first in (True, False):
        group = [list(r) for r in doc.records if (r[0] in declaring) == first]
        group += [list(r) for r in rnd.sample(group, rnd.randint(0, len(group)))]
        rnd.shuffle(group)
        for keyword, *labels in group:
            if keyword in ("facet", "open"):
                rnd.shuffle(labels)
            lines.append(" ".join([keyword, *labels]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# document builders: a value's document, which the format readers turn back into it


def complex_to_document(k: rc.SimplicialComplex, name: str) -> Document:
    records = tuple(("facet", *labels) for labels in k.facet_labels())
    return Document("complex", name, records)


def poset_to_document(p: rc.Poset, name: str) -> Document:
    records = [("element", lab) for lab in p.labels()]
    records.extend(("le", a, b) for a, b in p.cover_pairs())
    return Document("poset", name, tuple(records))


def relation_to_document(r: rc.Relation, name: str) -> Document:
    records = [("xelement", lab) for lab in r.x_universe]
    records.extend(("yelement", lab) for lab in r.y_universe)
    records.extend(("pair", x, y) for x, y in sorted(r.pairs))
    return Document("relation", name, tuple(records))


def topology_to_document(t: rc.FiniteTopology, name: str) -> Document:
    records = [("point", lab) for lab in t.points]
    records.extend(("open", *labels) for labels in t.open_label_sets() if labels)
    return Document("space", name, tuple(records))


# ---------------------------------------------------------------------------
# closed-relation oracles: the complexes the checks answer without


def up_set_closedness_witness(pairs, x_poset: rc.Poset, y_poset: rc.Poset):
    """A reference for ``closedness_witness``: both up-sets rebuilt and sorted for every pair."""
    pairset = set()
    for x, y in pairs:
        x_poset.elements.index(x)
        y_poset.elements.index(y)
        pairset.add((x, y))
    for x, y in sorted(pairset):
        for x2 in sorted(rc.up_set(x_poset, x)):
            for y2 in sorted(rc.up_set(y_poset, y)):
                if (x2, y2) not in pairset:
                    return ((x, y), (x2, y2))
    return None


def relation_poset_preimage_facets(rel: rc.ClosedRelation, side: str) -> dict:
    """A reference for ``preimage_facet_check``: each preimage looked up as a
    face of the relation poset's K-complex, by its labels."""
    at = "xy".index(side)
    base_k = rc.poset_dowker_complex((rel.x_poset, rel.y_poset)[at], False, "k")
    kr = rc.poset_dowker_complex(rc.relation_poset(rel), False, "k")
    facets = []
    for labels in base_k.facet_labels():
        vertices = sorted(rc.pair_label(*pair) for pair in rel.pairs if pair[at] in labels)
        full = bool(vertices) and kr.has_face_labels(vertices)
        facets.append({"facet": list(labels), "vertices": vertices, "full_simplex": full})
    return {"side": side, "all_full": all(f["full_simplex"] for f in facets), "facets": facets}


def order_complex_quillen_hypothesis(rel: rc.ClosedRelation) -> dict:
    """A reference for ``quillen_hypothesis``: every fiber's order complex
    built, its apex read by ``cone_apex``."""
    fibers = []
    for side, p in (("x", rel.x_poset), ("y", rel.y_poset)):
        for element in p.labels():
            sub = rc.fiber(rel, element, side)
            if len(sub) == 0:
                raise EmptyFiberError(element)
            k = rc.order_complex(sub)
            apex = rc.cone_apex(k)
            if apex is not None:
                cert = {"certificate": "cone", "apex": apex}
            elif rc.greedy_collapse(k)[0].is_point:
                cert = {"certificate": "collapsible"}
            else:
                cert = {"certificate": "unknown"}
            fibers.append({"side": side, "element": element, **cert})
    certified = all(f["certificate"] != "unknown" for f in fibers)
    return {"hypothesis": "quillen", "certified": certified, "fibers": fibers}


@st.composite
def posets(draw, max_elements=5, prefix=""):
    """A Hypothesis strategy: a random order on the labels 1..n, each after
    ``prefix``, with n at most ``max_elements``."""
    n = draw(st.integers(1, max_elements))
    labels = [f"{prefix}{i}" for i in range(1, n + 1)]
    perm = draw(st.permutations(labels))
    pairs = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return rc.poset_from_pairs(labels, pairs)


@st.composite
def closed_relations(draw, max_elements=5):
    """A Hypothesis strategy: the up-closure of a nonempty set of pairs
    between two random posets of at most ``max_elements`` elements."""
    x, y = draw(posets(max_elements, "x")), draw(posets(max_elements, "y"))
    gens = draw(st.sets(st.tuples(st.sampled_from(x.labels()), st.sampled_from(y.labels())), min_size=1))
    pairs = {(x2, y2) for a, b in gens for x2 in rc.up_set(x, a) for y2 in rc.up_set(y, b)}
    return rc.ClosedRelation(x, y, sorted(pairs))


# ---------------------------------------------------------------------------
# random generators (callers pass a seeded random.Random)


def random_poset(rng, labels) -> rc.Poset:
    labels = list(labels)
    perm = labels[:]
    rng.shuffle(perm)
    density = rng.uniform(0.15, 0.6)
    pairs = [
        (perm[i], perm[j])
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if rng.random() < density
    ]
    return rc.poset_from_pairs(labels, pairs)


def random_covered_relation(rng, x_labels, y_labels) -> rc.Relation:
    pairs = []
    for y in y_labels:
        support = rng.sample(list(x_labels), rng.randint(1, len(x_labels)))
        pairs.extend((x, y) for x in support)
    return rc.Relation(x_labels, y_labels, pairs)


def random_complex(rng, labels, max_facets=4) -> rc.SimplicialComplex:
    labels = list(labels)
    facets = [
        rng.sample(labels, rng.randint(1, len(labels)))
        for _ in range(rng.randint(1, max_facets))
    ]
    return rc.complex_from_facets(labels, facets)


@st.composite
def complexes(draw, max_vertices=5, max_facets=4):
    """A Hypothesis strategy: facets drawn over a universe of up to ``max_vertices`` labels."""
    n = draw(st.integers(1, max_vertices))
    labels = [str(i) for i in range(1, n + 1)]
    facets = draw(
        st.lists(
            st.sets(st.sampled_from(labels), min_size=1).map(tuple),
            min_size=1,
            max_size=max_facets,
        )
    )
    return rc.complex_from_facets(labels, facets)


# ---------------------------------------------------------------------------
# recurring concrete structures


def circle4_poset() -> rc.Poset:
    """Four-point poset whose chain complex is a 4-cycle (two bottoms, two tops)."""
    return rc.poset_from_pairs("1234", [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")])


def c4xc6_poset() -> rc.Poset:
    """circle4 times two tops over four minimal elements: 24 elements whose
    K-complex has 4 facets of 15 vertices and 121,087 faces."""
    lows, tops = ["m1", "m2", "m3", "m4"], ["t1", "t2"]
    c6 = rc.poset_from_pairs(lows + tops, [(m, t) for m in lows for t in tops])
    return rc.product_poset(circle4_poset(), c6)


def _c4_le(a: str, b: str) -> bool:
    """The order of circle4: 1 and 2 below 3 and 4."""
    return a == b or (a in "12" and b in "34")


# circle4 cubed with flat labels, since ``product_poset`` refuses a pair label
# as a factor label: element "abc" is (a, b, c), each coordinate a circle4 element
C4CUBED = tuple("".join(t) for t in itertools.product("1234", repeat=3))


def c4cubed_pairs() -> list:
    """The covers of circle4 cubed: one coordinate goes up from 1 or 2 to 3 or 4."""
    return [
        (x, x[:i] + b + x[i + 1:])
        for x in C4CUBED for i, a in enumerate(x) if a in "12" for b in "34"
    ]


def c4cubed_poset() -> rc.Poset:
    """circle4 cubed: 64 elements, 8 maximal and 8 minimal, each maximal one over
    27 elements; the poset of tests/data/c4cubed.poset."""
    return rc.poset_from_pairs(C4CUBED, c4cubed_pairs())


def c4cubed_dowker_facets(strict: bool, side: str) -> list:
    """The facets of a Dowker complex of circle4 cubed, from coordinates alone and
    sorted: the down-set of each maximal element (side k) or the up-set of each
    minimal one (side l), less the element itself when ``strict``."""
    ends, le = ("34", _c4_le) if side == "k" else ("12", lambda a, b: _c4_le(b, a))
    return sorted(
        sorted(x for x in C4CUBED if all(map(le, x, m)) and not (strict and x == m))
        for m in C4CUBED if all(c in ends for c in m)
    )


def circle6_poset() -> rc.Poset:
    """Six-point crown whose chain complex is a 6-cycle."""
    return rc.poset_from_pairs(
        "abcdef",
        [("a", "d"), ("a", "e"), ("b", "d"), ("b", "f"), ("c", "e"), ("c", "f")],
    )


CROWN_PAIRS = (
    ("1", "d"),
    ("2", "e"),
    ("3", "b"),
    ("3", "c"),
    ("3", "d"),
    ("3", "e"),
    ("3", "f"),
    ("4", "a"),
    ("4", "d"),
    ("4", "e"),
)


def crown_closed_relation() -> rc.ClosedRelation:
    """The 10-pair closed relation between circle4 and circle6."""
    return rc.ClosedRelation(circle4_poset(), circle6_poset(), CROWN_PAIRS)


def full_complex(universe) -> rc.SimplicialComplex:
    """The complex whose faces are all nonempty subsets of the universe."""
    if not isinstance(universe, rc.Universe):
        universe = rc.Universe(universe)
    if len(universe) == 0:
        raise EmptyComplexError("a full complex needs a nonempty universe")
    return rc.complex_from_facets(universe, [universe.labels])


def boundary_simplex(labels) -> rc.SimplicialComplex:
    labels = list(labels)
    return rc.complex_from_facets(
        labels, itertools.combinations(labels, len(labels) - 1)
    )


def moore_space_3() -> rc.SimplicialComplex:
    """A cone on a 9-gon glued onto a triangle by the degree-3 map: H_1 = Z/3."""
    x = "abc"
    facets = []
    for i in range(9):
        p, q = f"p{i}", f"p{(i + 1) % 9}"
        facets += [("o", p, q), (p, q, x[(i + 1) % 3]), (p, x[i % 3], x[(i + 1) % 3])]
    return rc.complex_from_facets({v for f in facets for v in f}, facets)


def projective_plane() -> rc.SimplicialComplex:
    """The 6-vertex triangulation of the projective plane."""
    facets = [
        "125", "126", "134", "135", "146", "234", "236", "245", "356", "456",
    ]
    return rc.complex_from_facets("123456", [tuple(f) for f in facets])


def suspension(k: rc.SimplicialComplex) -> rc.SimplicialComplex:
    """Two cones on k glued along k: each facet is joined to each of two new apexes."""
    north, south = f"north{len(k.universe)}", f"south{len(k.universe)}"
    facets = k.facet_labels()
    return rc.complex_from_facets(
        k.universe.labels + (north, south),
        [f + (apex,) for f in facets for apex in (north, south)],
    )
