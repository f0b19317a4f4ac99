"""Elementary collapses, verified collapse sequences, and collapsibility certificates.

A face is free when it is properly contained in exactly one other face; in
a downward-closed complex that forces the containment to be of codimension
one.  An elementary collapse removes a free face together with its unique
proper coface, which preserves the homotopy type (hence homology and the
Euler characteristic).

So a face f is free exactly when one vertex v outside f makes f + {v} a
face: a proper coface g of higher codimension would contain f + {v} and
f + {w} for two vertices v, w of g outside f.

The engines work on int masks; ``free_coface``, one question, probes index
tuples.  Over a universe of n vertices, vertex i is bit n - 1 - i.  Each
engine encodes the index tuples of its initial complex once, into a dict
from mask to tuple (``_encoding``), and labels go to bits through one
label-to-bit dict.  Then f + {v} is ``f | bit``, a sub-face is f with one
bit cleared, and ``_cofaces``, the one coface probe, tries each of the
|universe| - dim bits outside f, lowest first, instead of rebuilding the
complex.  Among faces of one size, lexicographic tuple order
is descending mask order: the first vertex where two faces differ is the
highest bit where their masks do, and the face that holds it is the
lexicographically smaller one.  So the greedy heap key, which orders as
(-popcount, -mask), pops the face that (-dimension, tuple) names, and
``collapse_leq_to_strict``, which lists each level of a cone in descending
mask order, emits its pairs in the order the tuples had.

Every step is judged by one replay loop, ``_replay``, on (free, coface)
mask pairs and one mutable mask set: the free face must be present and
``coface`` must be its only codimension-1 coface.  ``verify_sequence``
(and so ``apply_step``) feeds it the steps' labels, turned into masks one
step at a time.  ``greedy_collapse`` keeps the count for every face and
takes free faces from a heap, and ``collapse_leq_to_strict`` lists the
cone of every maximal element.  Each engine replays its pairs on a fresh
copy of the initial masks as a self-check, and only then decodes, through
its entry dict: the end state to index tuples, and each face of a step to
labels, once.  Results are built through the unchecked
``SimplicialComplex._trusted``, on index tuples, since collapsing a free
face keeps a complex downward closed.  Only an error report scans the
whole complex, to list every proper coface of a face that is not free; it
names a mask by its bits, since universe labels are sorted.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .complexes import SimplicialComplex, _require_labels
from .errors import (
    EmptyComplexError,
    NotFreeError,
    SingletonComponentError,
)
from .posets import (
    Poset,
    dual_poset,
    maximal_elements,
    poset_dowker_complex,
    singleton_component_witness,
)


@dataclass(frozen=True)
class CollapseStep:
    """A free face together with its unique proper coface, as label tuples."""

    free_face: tuple
    coface: tuple

    def __post_init__(self):
        _require_labels((*self.free_face, *self.coface))
        free = tuple(sorted(self.free_face))
        coface = tuple(sorted(self.coface))
        object.__setattr__(self, "free_face", free)
        object.__setattr__(self, "coface", coface)
        free_set = set(free)
        if len(free_set) != len(free):
            raise ValueError(f"face {free} repeats a label")
        # a coface that repeats a label has too few distinct labels to hold
        # the free face and one more, so the next check rejects it
        if not free_set < set(coface) or len(coface) != len(free) + 1:
            raise ValueError(
                f"coface {coface} must properly contain {free} with one extra vertex"
            )

    @classmethod
    def _trusted(cls, free_face: tuple, coface: tuple) -> "CollapseStep":
        """A step without checks, for the labels of a replayed mask pair.

        Each mask decodes to a strictly increasing index tuple over a
        universe, whose labels are sorted, so it has sorted and distinct
        labels.
        """
        step = cls.__new__(cls)
        object.__setattr__(step, "free_face", free_face)
        object.__setattr__(step, "coface", coface)
        return step


@dataclass(frozen=True)
class CollapseSequence:
    """An ordered list of collapse steps applied to an initial complex."""

    initial: SimplicialComplex
    steps: Tuple[CollapseStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def _bits(n: int) -> list:
    """The mask bit of each vertex of an n-vertex universe: vertex i is bit n - 1 - i."""
    return [1 << i for i in range(n - 1, -1, -1)]


def _encoding(faces, n: int) -> dict:
    """The mask of each index tuple in ``faces``, mapped to the tuple, in the same order."""
    bits = _bits(n)
    return {sum(map(bits.__getitem__, f)): f for f in faces}


def _cofaces(faces, f: int, full: int) -> list:
    """The codimension-1 cofaces of the mask ``f`` in the mask set ``faces``.

    ``full`` has the bit of every vertex of the universe; each vertex not in
    ``f`` is probed once, so the cost is O(|universe|) whatever the size of
    the complex.
    """
    found = []
    rest = full & ~f
    while rest:
        bit = rest & -rest
        if f | bit in faces:
            found.append(f | bit)
        rest ^= bit
    return found


def _labels(universe, mask: int) -> tuple:
    """The labels of a mask's vertices, in order (error reports only)."""
    n = len(universe)
    return tuple(lab for i, lab in enumerate(universe.labels) if mask >> (n - 1 - i) & 1)


def _replay(universe, faces: set, pairs, steps=None) -> None:
    """Remove each (free, coface) mask pair from ``faces``, in order.

    This is the one test of a step: the free face is in ``faces`` and
    ``coface`` is its only codimension-1 coface there.  The first step that
    fails raises NotFreeError with its index.  A mask of None names a label
    outside the universe.  The error names the free face by the labels of
    ``steps[i]`` when the pairs were read from ``steps``.
    """
    full = (1 << len(universe)) - 1
    for i, (free, coface) in enumerate(pairs):
        found = _cofaces(faces, free, full) if free in faces else None
        if found == [coface]:
            faces.remove(free)
            faces.remove(coface)
            continue
        face = _labels(universe, free) if steps is None else steps[i].free_face
        if found is None:
            raise NotFreeError(face, None, index=i)
        if len(found) != 1:  # every proper coface, by a scan of all faces
            found = [g for g in faces if g & free == free and g != free]
        # universe labels are sorted, so label tuples sort as index tuples do
        raise NotFreeError(face, sorted(_labels(universe, g) for g in found), index=i)


def _mask_or_none(bit, labels) -> Optional[int]:
    """The mask of distinct labels, by their bits in ``bit``; None for a label outside it."""
    try:
        return sum(map(bit.__getitem__, labels))
    except KeyError:
        return None


def _certified(
    initial: SimplicialComplex, decode: dict, pairs: list, final, message: str
) -> CollapseSequence:
    """An engine's self-check, then its result: the labelled sequence of ``pairs``.

    ``decode`` maps the mask of each initial face to its index tuple.  The
    mask pairs are replayed on a fresh copy of its keys, and the index
    tuples of the end state must be the face set ``final``; else
    AssertionError with ``message``.  Each face of a pair is then labelled
    once.
    """
    faces = set(decode)
    _replay(initial.universe, faces, pairs)
    if {decode[m] for m in faces} != final:
        raise AssertionError(message)
    label = initial.universe.labels.__getitem__
    return CollapseSequence(initial, tuple(
        CollapseStep._trusted(tuple(map(label, decode[f])), tuple(map(label, decode[c])))
        for f, c in pairs
    ))


def free_coface(k: SimplicialComplex, face: Iterable[str]) -> Optional[tuple]:
    """The unique proper coface of ``face`` if there is exactly one, else None.

    ``face`` is given by labels and must be a face of ``k``.  Each vertex
    outside it is probed once, as an index tuple, so it costs
    O(|universe| * dim) whatever the size of ``k``.
    """
    f = k.universe.face_from_labels(face)
    if f not in k.faces:
        raise NotFreeError(tuple(face), None)
    others = (tuple(sorted((*f, v))) for v in range(len(k.universe)) if v not in f)
    cofaces = [g for g in others if g in k.faces]
    return k.face_labels(cofaces[0]) if len(cofaces) == 1 else None


def apply_step(k: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove a free face and its coface; the result stays downward closed."""
    try:
        return verify_sequence(CollapseSequence(k, (step,)))
    except NotFreeError as exc:
        raise NotFreeError(exc.face, exc.cofaces) from None


def verify_sequence(seq: CollapseSequence) -> SimplicialComplex:
    """Replay every step, failing with the index of the first invalid one.

    The steps are replayed on one mutable face set, so each costs
    O(|universe|) rather than a rebuild of the complex.
    """
    universe = seq.initial.universe
    n = len(universe)
    decode = _encoding(seq.initial.faces, n)
    bit = dict(zip(universe.labels, _bits(n)))
    faces = set(decode)
    pairs = ((_mask_or_none(bit, s.free_face), _mask_or_none(bit, s.coface)) for s in seq.steps)
    _replay(universe, faces, pairs, seq.steps)
    return SimplicialComplex._trusted(universe, map(decode.__getitem__, faces))


def collapse_leq_to_strict(p: Poset, side: str) -> CollapseSequence:
    """A collapse sequence from the non-strict Dowker complex down to the strict one.

    The faces missing from the strict complex are exactly those containing a
    maximal element y (for the L side, a minimal one, handled by dualizing).
    Those faces form one cone per maximal y over the elements strictly below
    it, so matching each face A+{y} without x0 to A+{y,x0}, where x0 is the
    least element below y, and emitting the pairs in decreasing dimension
    removes the whole cone by elementary collapses.  Maximal elements are
    processed in ascending index order; their face families are disjoint, so
    the interleaving stays legal.  Both complexes and the dual share the
    poset's universe, so the pairs are masks of the initial complex, and
    each level, listed in descending mask order, is in lexicographic order.
    """
    if side not in ("k", "l"):
        raise ValueError(f"side must be 'k' or 'l', got {side!r}")
    witness = singleton_component_witness(p)
    if witness is not None:
        raise SingletonComponentError(witness)
    initial = poset_dowker_complex(p, False, side)
    target = poset_dowker_complex(p, True, side)
    q = p if side == "k" else dual_poset(p)
    bits = _bits(len(q))
    pairs = []
    for y_label in maximal_elements(q):
        y = q.elements.index(y_label)
        below = [bits[i] for i in range(len(q)) if q.up[i] >> y & 1 and i != y]
        x0, others = below[0], below[1:]
        for size in range(len(others), -1, -1):
            cone = (bits[y] + sum(subset) for subset in itertools.combinations(others, size))
            pairs.extend((free, free | x0) for free in sorted(cone, reverse=True))
    return _certified(
        initial, _encoding(initial.faces, len(q)), pairs, target.faces,
        "collapse construction missed the strict complex",
    )


def greedy_collapse(k: SimplicialComplex) -> Tuple[SimplicialComplex, CollapseSequence]:
    """Collapse greedily until no free face remains.

    The free pair chosen at each step is the least by (descending free-face
    dimension, lexicographic face), so the result is deterministic.  A point
    core certifies contractibility; any other core means "unknown", never
    "non-contractible".

    Each face keeps its number of codimension-1 cofaces.  A face is free
    when that number is 1, and numbers only fall, so a face becomes free at
    most once: it is pushed on a heap when it does, and a popped face that
    was removed or is no longer free is skipped.  The heap key is
    -(popcount << n | mask); a mask is below 2**n, so it orders as
    (-popcount, -mask), the order above.
    """
    if k.is_empty:
        raise EmptyComplexError("cannot collapse the empty complex")
    n = len(k.universe)
    decode = _encoding(k.faces, n)
    faces = set(decode)
    counts = dict.fromkeys(faces, 0)
    for g in faces:
        rest = g
        while rest:
            bit = rest & -rest
            rest ^= bit
            if g != bit:  # a vertex has no nonempty sub-face
                counts[g ^ bit] += 1
    heap = [-(f.bit_count() << n | f) for f, c in counts.items() if c == 1]
    heapq.heapify(heap)
    full = (1 << n) - 1
    pairs = []
    while heap:
        f = -heapq.heappop(heap) & full
        if f not in faces or counts[f] != 1:
            continue
        (c,) = _cofaces(faces, f, full)
        for gone in (f, c):
            faces.remove(gone)
            rest = gone
            while rest:
                bit = rest & -rest
                rest ^= bit
                sub = gone ^ bit
                if sub in faces:
                    counts[sub] -= 1
                    if counts[sub] == 1:
                        heapq.heappush(heap, -(sub.bit_count() << n | sub))
        pairs.append((f, c))
    core = SimplicialComplex._trusted(k.universe, map(decode.__getitem__, faces))
    return core, _certified(
        k, decode, pairs, core.faces, "greedy collapse emitted an invalid sequence"
    )
