"""Correctness checks computed apart from relcomplex.

Nothing here imports the package under test.  Faces are integer bitmasks
over a label list the caller fixes; every expected value is derived from
the relations and orders the benchmark generated itself, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

import json
from collections import defaultdict

PRIME = 2_147_483_647  # 2^31 - 1: integer Betti numbers equal GF(p) ones unless p is torsion


class CheckError(Exception):
    """An output that contradicts an independently computed value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _no_floats(text):
    raise CheckError(f"report contains a float: {text}")


def canonical_json(out: str):
    """Parse a report and require sorted keys, compact separators, no floats."""
    try:
        value = json.loads(out, parse_float=_no_floats)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    canon = json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
    expect(out == canon, "stdout is not canonical JSON")
    return value


# ---------------------------------------------------------------- faces


def mask_of(labels, index) -> int:
    mask = 0
    for lab in labels:
        try:
            mask |= 1 << index[lab]
        except KeyError:
            raise CheckError(f"unknown label {lab!r}") from None
    return mask


def labels_of(mask: int, labels) -> tuple:
    return tuple(labels[i] for i in range(mask.bit_length()) if mask >> i & 1)


def closure(simplices) -> set:
    """All nonempty faces of the full simplices on the given masks."""
    faces = set()
    for top in set(simplices):
        if top in faces:
            continue
        sub = top
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    return faces


def maximal(faces) -> set:
    """Inclusion-maximal masks of a downward-closed family.

    In a downward-closed family a face is maximal exactly when no face adds
    one vertex to it.
    """
    verts = 0
    for f in faces:
        verts |= f
    result = set()
    for f in faces:
        extra = verts & ~f
        while extra:
            bit = extra & -extra
            if f | bit in faces:
                break
            extra ^= bit
        else:
            result.add(f)
    return result


def euler(faces) -> int:
    return sum(1 if bin(f).count("1") % 2 else -1 for f in faces)


def _rank_mod_p(columns) -> int:
    """Rank over GF(PRIME) of sparse columns {row: value} by column reduction."""
    pivots = {}
    rank = 0
    for col in columns:
        c = {r: v % PRIME for r, v in col.items() if v % PRIME}
        while c:
            low = max(c)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(c[low], PRIME - 2, PRIME)
                pivots[low] = {r: v * inv % PRIME for r, v in c.items()}
                rank += 1
                break
            factor = c[low]
            for r, v in piv.items():
                w = (c.get(r, 0) - factor * v) % PRIME
                if w:
                    c[r] = w
                else:
                    c.pop(r, None)
    return rank


def betti_mod_p(faces) -> list:
    """Betti numbers over GF(PRIME) per dimension 0..dim of a face set."""
    by_dim = defaultdict(list)
    for f in faces:
        by_dim[bin(f).count("1") - 1].append(f)
    if not by_dim:
        return []
    dim = max(by_dim)
    index = {n: {f: i for i, f in enumerate(sorted(by_dim[n]))} for n in range(dim + 1)}
    ranks = [0] * (dim + 2)
    for n in range(1, dim + 1):
        below = index[n - 1]
        columns = []
        for f in by_dim[n]:
            col = {}
            sign = 1
            rest = f
            while rest:
                bit = rest & -rest
                col[below[f ^ bit]] = sign
                sign = -sign
                rest ^= bit
            columns.append(col)
        ranks[n] = _rank_mod_p(columns)
    return [len(by_dim[n]) - ranks[n] - ranks[n + 1] for n in range(dim + 1)]


# ---------------------------------------------------------------- collapses


class Replay:
    """A face set that accepts only elementary collapses.

    ``count[f]`` is the number of proper cofaces of f; a face is free when
    that count is 1, and then its one coface is the face to remove with it.
    """

    def __init__(self, faces):
        self.faces = set(faces)
        self.count = dict.fromkeys(self.faces, 0)
        for g in self.faces:
            sub = (g - 1) & g
            while sub:
                self.count[sub] += 1
                sub = (sub - 1) & g

    def _drop(self, g: int) -> None:
        self.faces.remove(g)
        del self.count[g]
        sub = (g - 1) & g
        while sub:
            self.count[sub] -= 1
            sub = (sub - 1) & g

    def collapse(self, free: int, coface: int, where: str) -> None:
        expect(free in self.faces, f"{where}: free face is not in the complex")
        expect(coface in self.faces, f"{where}: coface is not in the complex")
        expect(
            free & coface == free and bin(coface ^ free).count("1") == 1,
            f"{where}: coface does not add exactly one vertex",
        )
        expect(self.count[free] == 1, f"{where}: face has {self.count[free]} proper cofaces")
        self._drop(coface)
        self._drop(free)

    def free_faces(self) -> list:
        return [f for f, c in self.count.items() if c == 1]


def replay_steps(faces, steps, index) -> Replay:
    """Apply label-list steps [[free, coface], ...]; raise CheckError on a bad one."""
    rep = Replay(faces)
    for i, step in enumerate(steps):
        expect(isinstance(step, list) and len(step) == 2, f"step {i} is malformed")
        rep.collapse(mask_of(step[0], index), mask_of(step[1], index), f"step {i}")
    return rep


def facet_sets(label_lists) -> set:
    return {frozenset(f) for f in label_lists}
