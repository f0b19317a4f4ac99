"""Elementary collapses, verified collapse sequences, and collapsibility certificates.

A face is free when it is properly contained in exactly one other face; in
a downward-closed complex that forces the containment to be of codimension
one.  An elementary collapse removes a free face together with its unique
proper coface, which preserves the homotopy type (hence homology and the
Euler characteristic).

So a face f is free exactly when one vertex v outside f makes f + {v} a
face: a proper coface g of higher codimension would contain f + {v} and
f + {w} for two vertices v, w of g outside f.

The engines work on the complex's own face masks (see ``complexes``), and
labels go to and from masks through its ``Universe``.  Then f + {v} is
``f | bit``, a sub-face is f with one bit cleared, and ``_cofaces``, the
coface probe, tries each of the |universe| - dim bits outside f instead of
rebuilding the complex.  Among faces of one size descending mask order is
lexicographic, so the greedy heap key, which orders as (-popcount, -mask),
pops the face that (-dimension, tuple) names, and ``collapse_leq_to_strict``
lists each level of a cone in lexicographic order.

Every step is judged by one replay loop, ``_replay``, on (free, coface)
mask pairs and one mutable mask set: the free face must be present and
``coface`` must be its only codimension-1 coface.  ``verify_sequence``
(and so ``apply_step``) feeds it an engine's own mask pairs, or else the
steps' labels, turned into masks one step at a time.  ``greedy_collapse``
keeps the count for every face and takes free faces from a heap, and
``collapse_leq_to_strict`` lists the cone of every maximal element.  Each
engine replays its pairs on a fresh copy of the initial masks as a
self-check, compares the end state with the expected mask set, and returns
a sequence that keeps the mask pairs: the labels of a step's faces are
built on demand, each once, from its prefix's labels
(``Universe._labeller``).  Results are built through the
unchecked ``SimplicialComplex._trusted``, since collapsing a free face keeps
a complex downward closed.  Only an error report scans the whole complex,
to list every proper coface of a face that is not free.

``_coface_counts`` uses that f + {v} is a face exactly when v lies in a facet
holding f (a face lies in a facet; a facet's subsets are faces), so f has
popcount(OR of the facets holding f) - |f| codimension-1 cofaces.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Optional, Tuple

from .complexes import SimplicialComplex, _Frozen, _require_labels
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


class CollapseStep(_Frozen):
    """A free face together with its unique proper coface, as label tuples."""

    __slots__ = _fields = ("free_face", "coface")

    def __init__(self, free_face: tuple, coface: tuple):
        _require_labels((*free_face, *coface))
        free = tuple(sorted(free_face))
        coface = tuple(sorted(coface))
        free_set = set(free)
        if len(free_set) != len(free):
            raise ValueError(f"face {free} repeats a label")
        # a coface that repeats a label has too few distinct labels to hold
        # the free face and one more, so the next check rejects it
        if not free_set < set(coface) or len(coface) != len(free) + 1:
            raise ValueError(
                f"coface {coface} must properly contain {free} with one extra vertex"
            )
        self._set(free_face=free, coface=coface)

    @classmethod
    def _trusted(cls, free_face: tuple, coface: tuple) -> "CollapseStep":
        """A step without checks, for the labels of a replayed mask pair: a mask
        decodes to increasing indices of a universe, whose labels are sorted, so
        to sorted and distinct labels."""
        step = object.__new__(cls)
        step._set(free_face=free_face, coface=coface)
        return step


class CollapseSequence(_Frozen):
    """An ordered list of collapse steps applied to an initial complex.  An engine's
    sequence holds its mask pairs in ``_pairs`` instead, and labels them when
    ``steps`` is first read; one built from steps has ``_pairs`` None."""

    __slots__ = ("initial", "steps", "_pairs")
    _fields = ("initial", "steps")

    def __init__(self, initial: SimplicialComplex, steps: Iterable[CollapseStep]):
        self._set(initial=initial, steps=tuple(steps), _pairs=None)

    def __getattr__(self, name):  # reached only for a name without a value
        if name != "steps" or self._pairs is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        label = self.initial.universe._labeller()
        self._set(steps=tuple(CollapseStep._trusted(label(f), label(c)) for f, c in self._pairs))
        return self.steps


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
        face = universe._labels(free) if steps is None else steps[i].free_face
        if found is None:
            raise NotFreeError(face, None, index=i)
        if len(found) != 1:  # every proper coface, by a scan of all faces
            found = [g for g in faces if g & free == free and g != free]
        # universe labels are sorted, so label tuples sort as index tuples do
        raise NotFreeError(face, sorted(map(universe._labels, found)), index=i)


def _certified(
    initial: SimplicialComplex, pairs: list, final: SimplicialComplex, message: str
) -> CollapseSequence:
    """An engine's self-check, then its result: the sequence of ``pairs``.

    The mask pairs are replayed on a fresh copy of the initial faces, and
    the end state must be the face set of ``final``; else AssertionError
    with ``message``.  No face is labelled until the steps are read.
    """
    faces = set(initial._faces())
    _replay(initial.universe, faces, pairs)
    if faces != final._faces():
        raise AssertionError(message)
    seq = object.__new__(CollapseSequence)
    seq._set(initial=initial, _pairs=pairs)
    return seq


def _coface_counts(k: SimplicialComplex) -> dict:
    """The codimension-1 coface count of each face mask of ``k``: from the facets
    when they are fewer than the largest one's vertices, else by increments."""
    tops, faces = k._tops(), k._faces()
    if tops and len(tops) < max(map(int.bit_count, tops)):
        counts = {}
        for f in faces:
            union = 0
            for top in tops:
                if f & top == f:
                    union |= top
            counts[f] = union.bit_count() - f.bit_count()
        return counts
    counts = dict.fromkeys(faces, 0)
    for g in faces:
        rest = g
        while rest:
            bit = rest & -rest
            rest ^= bit
            if g != bit:  # a vertex has no nonempty sub-face
                counts[g ^ bit] += 1
    return counts


def free_coface(k: SimplicialComplex, face: Iterable[str]) -> Optional[tuple]:
    """The unique proper coface of ``face`` if there is exactly one, else None.

    ``face`` is given by labels and must be a face of ``k``.  Each vertex
    outside it is probed once, so it costs O(|universe|) whatever the size
    of ``k``.
    """
    f, faces = k.universe._mask(face), k._faces()
    if f not in faces:
        k.universe.face_from_labels(face)  # an unknown label raises UnknownVertexError
        raise NotFreeError(tuple(face), None)
    cofaces = _cofaces(faces, f, (1 << len(k.universe)) - 1)
    return k.universe._labels(cofaces[0]) if len(cofaces) == 1 else None


def apply_step(k: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove a free face and its coface; the result stays downward closed."""
    try:
        return verify_sequence(CollapseSequence(k, (step,)))
    except NotFreeError as exc:
        raise NotFreeError(exc.face, exc.cofaces) from None


def verify_sequence(seq: CollapseSequence) -> SimplicialComplex:
    """Replay every step, failing with the index of the first invalid one.

    The steps are replayed on one mutable face set, so each costs
    O(|universe|) rather than a rebuild of the complex.  An engine's
    sequence is replayed on its mask pairs, and no step is labelled.
    """
    universe = seq.initial.universe
    faces = set(seq.initial._faces())
    if seq._pairs is not None:
        _replay(universe, faces, seq._pairs)
    else:
        mask = universe._mask
        _replay(universe, faces, ((mask(s.free_face), mask(s.coface)) for s in seq.steps), seq.steps)
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
    poset's universe, so the pairs are masks of the initial complex, and
    each level, listed in descending mask order, is in lexicographic order.
    """
    if side not in ("k", "l"):
        raise ValueError(f"side must be 'k' or 'l', got {side!r}")
    witness = singleton_component_witness(p)
    if witness is not None:
        raise SingletonComponentError(witness)
    initial = poset_dowker_complex(p, False, side)
    initial._faces()  # too many faces are refused here, before any cone is listed
    target = poset_dowker_complex(p, True, side)
    q = p if side == "k" else dual_poset(p)
    bits = initial.universe._bits()
    pairs = []
    for y_label in maximal_elements(q):
        y = q.elements.index(y_label)
        below = [bits[i] for i in range(len(q)) if q.up[i] >> y & 1 and i != y]
        x0, others = below[0], below[1:]
        for size in range(len(others), -1, -1):
            cone = (bits[y] + sum(subset) for subset in itertools.combinations(others, size))
            pairs.extend((free, free | x0) for free in sorted(cone, reverse=True))
    return _certified(initial, pairs, target, "collapse construction missed the strict complex")


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
    faces = set(k._faces())
    counts = _coface_counts(k)
    heap = [-(f.bit_count() << n | f) for f, c in counts.items() if c == 1]
    heapq.heapify(heap)
    full = (1 << n) - 1
    pairs = []
    while heap:
        f = -heapq.heappop(heap) & full
        if f not in faces or counts[f] != 1:
            continue
        rest = full & ~f  # f has one coface: the first vertex that makes a face
        while (c := f | (rest & -rest)) not in faces:
            rest &= rest - 1
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
    core = SimplicialComplex._trusted(k.universe, faces)
    return core, _certified(k, pairs, core, "greedy collapse emitted an invalid sequence")
