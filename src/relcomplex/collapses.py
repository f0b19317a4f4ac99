"""Elementary collapses, verified collapse sequences, and collapsibility certificates.

A face is free when it is properly contained in exactly one other face; in
a downward-closed complex that forces the containment to be of codimension
one.  An elementary collapse removes a free face together with its unique
proper coface, which preserves the homotopy type (hence homology and the
Euler characteristic).

So a face f is free exactly when one vertex v outside f makes f + {v} a
face: a proper coface g of higher codimension would contain f + {v} and
f + {w} for two vertices v, w of g outside f.  Every step is judged by one
replay loop, ``_replay``, on (free, coface) pairs of index tuples and one
mutable face set: the free face must be present and ``coface`` must be its
only codimension-1 coface, found by probing the |universe| - dim candidates
f + {v} instead of rebuilding the complex.  ``verify_sequence`` (and so
``apply_step``) feeds it the steps' labels, converted one step at a time.
The engines work on index pairs from start to finish: ``greedy_collapse``
keeps the count for every face and takes free faces from a heap in
(descending dimension, lexicographic face) order, and
``collapse_leq_to_strict`` lists the cone of every maximal element.  Each
replays its pairs on a fresh copy of the initial faces as a self-check, and
only then makes the labels of each step, once.  Results are built through
the unchecked ``SimplicialComplex._trusted``, since collapsing a free face
keeps a complex downward closed.  Only an error report scans the whole
complex, to list every proper coface of a face that is not free.
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
    UnknownVertexError,
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
        """A step without checks, for the labels of an index pair of a replayed step.

        A strictly increasing index tuple over a universe, whose labels are
        sorted, has sorted and distinct labels.
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


def _cofaces(faces, face: tuple, n: int) -> list:
    """The codimension-1 cofaces of ``face`` in ``faces``, in lexicographic order.

    ``n`` is the size of the universe; each vertex not in ``face`` is probed
    once, so the cost is O(n * dim) whatever the size of the complex.
    """
    found = []
    at = 0
    for v in range(n):
        if at < len(face) and face[at] == v:
            at += 1
            continue
        coface = face[:at] + (v,) + face[at:]
        if coface in faces:
            found.append(coface)
    return found


def _proper_cofaces(faces, face: tuple) -> list:
    """Every proper coface of ``face``, by a scan of all faces (error reports only)."""
    fs = set(face)
    return sorted(g for g in faces if fs < set(g))


def _replay(universe, faces: set, pairs, steps=None) -> None:
    """Remove each (free, coface) index pair from ``faces``, in order.

    This is the one test of a step: the free face is in ``faces`` and
    ``coface`` is its only codimension-1 coface there.  The first step that
    fails raises NotFreeError with its index.  A face of None names a label
    outside the universe.  The error names the free face by the labels of
    ``steps[i]`` when the pairs were read from ``steps``.
    """
    n = len(universe)
    for i, (free, coface) in enumerate(pairs):
        found = _cofaces(faces, free, n) if free in faces else None
        if found == [coface]:
            faces.remove(free)
            faces.remove(coface)
            continue
        face = universe.face_labels(free) if steps is None else steps[i].free_face
        if found is None:
            raise NotFreeError(face, None, index=i)
        if len(found) != 1:
            found = _proper_cofaces(faces, free)
        raise NotFreeError(face, [universe.face_labels(c) for c in found], index=i)


def _face_or_none(universe, labels) -> Optional[tuple]:
    try:
        return universe.face_from_labels(labels)
    except UnknownVertexError:
        return None


def _certified(initial: SimplicialComplex, pairs: list, final, message: str) -> CollapseSequence:
    """An engine's self-check, then its result: the labelled sequence of ``pairs``.

    The pairs are replayed on a fresh copy of the initial faces and must end
    on the face set ``final``; else AssertionError with ``message``.
    """
    faces = set(initial.faces)
    _replay(initial.universe, faces, pairs)
    if faces != final:
        raise AssertionError(message)
    labels = initial.universe.face_labels
    return CollapseSequence(
        initial, tuple(CollapseStep._trusted(labels(f), labels(c)) for f, c in pairs)
    )


def free_coface(k: SimplicialComplex, face: Iterable[str]) -> Optional[tuple]:
    """The unique proper coface of ``face`` if there is exactly one, else None.

    ``face`` is given by labels and must be a face of ``k``.
    """
    idx = k.universe.face_from_labels(face)
    if idx not in k.faces:
        raise NotFreeError(tuple(face), None)
    cofaces = _cofaces(k.faces, idx, len(k.universe))
    if len(cofaces) == 1:
        return k.face_labels(cofaces[0])
    return None


def apply_step(k: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove a free face and its coface; the result stays downward closed."""
    try:
        return verify_sequence(CollapseSequence(k, (step,)))
    except NotFreeError as exc:
        raise NotFreeError(exc.face, exc.cofaces) from None


def verify_sequence(seq: CollapseSequence) -> SimplicialComplex:
    """Replay every step, failing with the index of the first invalid one.

    The steps are replayed on one mutable face set, so each costs
    O(|universe| * dim) rather than a rebuild of the complex.
    """
    universe = seq.initial.universe
    faces = set(seq.initial.faces)
    pairs = (
        (_face_or_none(universe, s.free_face), _face_or_none(universe, s.coface))
        for s in seq.steps
    )
    _replay(universe, faces, pairs, seq.steps)
    return SimplicialComplex._trusted(universe, faces)


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
    poset's universe, so the pairs are index tuples of the initial complex.
    """
    if side not in ("k", "l"):
        raise ValueError(f"side must be 'k' or 'l', got {side!r}")
    witness = singleton_component_witness(p)
    if witness is not None:
        raise SingletonComponentError(witness)
    initial = poset_dowker_complex(p, False, side)
    target = poset_dowker_complex(p, True, side)
    q = p if side == "k" else dual_poset(p)
    pairs = []
    for y_label in maximal_elements(q):
        y = q.elements.index(y_label)
        below = [i for i in range(len(q)) if q.up[i] >> y & 1 and i != y]
        x0 = below[0]
        others = below[1:]
        for size in range(len(others), -1, -1):
            level = []
            for subset in itertools.combinations(others, size):
                free = tuple(sorted(subset + (y,)))
                coface = tuple(sorted(subset + (y, x0)))
                level.append((free, coface))
            pairs.extend(sorted(level))
    return _certified(
        initial, pairs, target.faces, "collapse construction missed the strict complex"
    )


def greedy_collapse(k: SimplicialComplex) -> Tuple[SimplicialComplex, CollapseSequence]:
    """Collapse greedily until no free face remains.

    The free pair chosen at each step is the least by (descending free-face
    dimension, lexicographic face), so the result is deterministic.  A point
    core certifies contractibility; any other core means "unknown", never
    "non-contractible".

    Each face keeps its number of codimension-1 cofaces.  A face is free
    when that number is 1, and numbers only fall, so a face becomes free at
    most once: it is pushed on a heap keyed by the order above when it does,
    and a popped face that was removed or is no longer free is skipped.
    """
    if k.is_empty:
        raise EmptyComplexError("cannot collapse the empty complex")
    n = len(k.universe)
    faces = set(k.faces)
    counts = dict.fromkeys(faces, 0)
    for t in faces:
        for sub in itertools.combinations(t, len(t) - 1):
            if sub:
                counts[sub] += 1
    heap = [(-len(f), f) for f, c in counts.items() if c == 1]
    heapq.heapify(heap)
    pairs = []
    while heap:
        _, f = heapq.heappop(heap)
        if f not in faces or counts[f] != 1:
            continue
        (c,) = _cofaces(faces, f, n)
        for gone in (f, c):
            faces.remove(gone)
            for sub in itertools.combinations(gone, len(gone) - 1):
                if sub in faces:
                    counts[sub] -= 1
                    if counts[sub] == 1:
                        heapq.heappush(heap, (-len(sub), sub))
        pairs.append((f, c))
    core = SimplicialComplex._trusted(k.universe, faces)
    return core, _certified(k, pairs, core.faces, "greedy collapse emitted an invalid sequence")
