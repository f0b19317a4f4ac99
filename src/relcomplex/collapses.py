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

Every sequence holds its (free, coface) mask pairs, and every step is judged
by one replay loop, ``_replay``, on them and one mutable mask set: the free
face must be present and ``coface`` must be its only codimension-1 coface.
``greedy_collapse`` keeps the count of every live face and takes free faces
from a heap, and ``collapse_leq_to_strict`` lists the cone of every maximal
element.  Each engine builds its sequence from its pairs, unchecked
(``CollapseSequence._new``), replays it on a fresh copy of the initial masks
as a self-check and compares the end state with the expected mask set.  The
labels of its steps are built on demand, each once, from its prefix's labels
(``Universe._labeller``), through ``CollapseStep._new``.  Results are built
through the unchecked ``SimplicialComplex._trusted``, since collapsing a free
face keeps a complex downward closed.  Only an error report scans the whole
complex, to list every proper coface of a face that is not free.

``_coface_counts`` uses that f + {v} is a face exactly when v lies in a facet
holding f (a face lies in a facet; a facet's subsets are faces).  It ORs each
facet into the entry of each of its nonempty submasks, once per facet holding a
face, Σ_F (2^|F| - 1) entries in all; f has popcount(entry) - |f| cofaces f + {v}.
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


class CollapseSequence(_Frozen):
    """An ordered list of collapse steps applied to an initial complex, and their
    (free, coface) mask pairs, None for a face with a label outside the universe.
    An engine's sequence is built from its pairs alone, with ``_steps`` None, and
    labels them when ``steps`` is first read."""

    __slots__ = ("initial", "_steps", "_pairs")
    _fields = ("initial", "steps")

    def __init__(self, initial: SimplicialComplex, steps: Iterable[CollapseStep]):
        steps, mask = tuple(steps), initial.universe._mask
        self._set(initial=initial, _steps=steps, _pairs=[(mask(s.free_face), mask(s.coface)) for s in steps])

    @property
    def steps(self) -> tuple:
        if self._steps is None:  # a mask's labels are sorted and distinct, so each step holds
            label = self.initial.universe._labeller()
            self._set(_steps=tuple(CollapseStep._new(label(f), label(c)) for f, c in self._pairs))
        return self._steps


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


def _replay(seq: CollapseSequence, faces: set) -> None:
    """Remove each (free, coface) mask pair of ``seq`` from ``faces``, in order.

    This is the one test of a step: the free face is in ``faces`` and
    ``coface`` is its only codimension-1 coface there.  The first step that
    fails raises NotFreeError with its index and its free face's labels.  A
    mask of None names a label outside the universe.
    """
    universe = seq.initial.universe
    full = (1 << len(universe)) - 1
    for i, (free, coface) in enumerate(seq._pairs):
        found = _cofaces(faces, free, full) if free in faces else None
        if found == [coface]:
            faces.remove(free)
            faces.remove(coface)
            continue
        face = seq.steps[i].free_face
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
    seq, faces = CollapseSequence._new(initial, None, pairs), set(initial._faces())
    _replay(seq, faces)
    if faces != final._faces():
        raise AssertionError(message)
    return seq


def _coface_counts(k: SimplicialComplex) -> dict:
    """Each face mask's codimension-1 coface count, by the walk of the facets' submasks above."""
    unions = {}
    for top in k._tops():
        sub = top
        while sub:  # every nonempty submask, in descending order
            unions[sub] = unions.get(sub, 0) | top
            sub = (sub - 1) & top
    for f, union in unions.items():
        unions[f] = union.bit_count() - f.bit_count()
    return unions


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

    The mask pairs are replayed on one mutable face set, so each step costs
    O(|universe|) rather than a rebuild of the complex, and no step is labelled
    unless one fails.
    """
    faces = set(seq.initial._faces())
    _replay(seq, faces)
    return SimplicialComplex._trusted(seq.initial.universe, faces)


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
    k._faces()  # too many faces are refused here, before any count
    counts = _coface_counts(k)  # the live faces, each with its coface count
    heap = [-(f.bit_count() << n | f) for f, c in counts.items() if c == 1]
    heapq.heapify(heap)
    full = (1 << n) - 1
    pairs = []
    while heap:
        f = -heapq.heappop(heap) & full
        if counts.get(f) != 1:
            continue
        rest = full & ~f  # f has one coface: the first vertex that makes a face
        while (c := f | (rest & -rest)) not in counts:
            rest &= rest - 1
        for gone in (f, c):
            del counts[gone]
            rest = gone
            while rest:
                bit = rest & -rest
                rest ^= bit
                sub = gone ^ bit
                if sub in counts:
                    counts[sub] -= 1
                    if counts[sub] == 1:
                        heapq.heappush(heap, -(sub.bit_count() << n | sub))
        pairs.append((f, c))
    core = SimplicialComplex._trusted(k.universe, counts.keys())
    return core, _certified(k, pairs, core, "greedy collapse emitted an invalid sequence")
