"""Covered relations between two vertex universes and their Dowker complexes.

A relation R between finite sets X and Y yields two complexes: the
K-complex on X (subsets of X related to a common y) and the L-complex on Y
(subsets of Y related to a common x).  Universes here are always finite;
the subcomplex <-> morphism correspondence implemented below genuinely
needs that, so infinite ground sets are out of scope.

A relation keeps only its supports, one index-set mask (x index i at bit i)
per y in y index order, and derives ``pairs`` from them.  ``Relation(...)``
reads each pair's supports straight off the universes' index dicts and
names the first unknown label in input order, x before y.  Builders whose
supports hold by construction skip even that, through the unchecked
``Relation._new`` (``complexes._Frozen._new``):

- ``transpose``: the supports of each x, by ``_transpose`` of the bit matrix;
- ``canonical_relation`` and ``posets.membership_relation``: each face, or
  nonempty open, is the support of the y its comma-joined labels name.

``k_complex`` and ``l_complex`` span full simplices on the supports, through
``complexes._spanned``.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Dict, Iterable, Optional, Tuple

from .complexes import SimplicialComplex, Universe, VertexMap, _Frozen, _spanned, _walk
from .errors import (
    AmbiguousLabelError,
    EmptyComplexError,
    EmptyRelationError,
    NotCoveredError,
    UniverseMismatchError,
    UnknownVertexError,
)


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _transpose(rows, width: int) -> tuple:
    """The ``width`` masks with bit i of entry j set iff bit j of ``rows[i]`` is."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:  # _bits, inlined: a transpose runs once per L-complex and morphism search
            cols[(row & -row).bit_length() - 1] |= bit
            row &= row - 1
    return tuple(cols)


def _label_pairs(xs, ys, rows) -> list:
    """[x, y] for each bit y of ``rows[x]``, as labels, in index order: universes sort labels."""
    out = []
    for x, row in zip(xs, rows):
        while row:  # _bits, inlined: reports decode every pair
            out.append([x, ys[(row & -row).bit_length() - 1]])
            row &= row - 1
    return out


class Relation(_Frozen):
    """An immutable subset of X x Y over two label universes."""

    __slots__ = ("x_universe", "y_universe", "_supports")
    _fields = ("x_universe", "y_universe", "pairs")

    def __init__(self, x_universe, y_universe, pairs: Iterable[Tuple[str, str]]):
        if not isinstance(x_universe, Universe):
            x_universe = Universe(x_universe)
        if not isinstance(y_universe, Universe):
            y_universe = Universe(y_universe)
        if len(x_universe) == 0 or len(y_universe) == 0:
            raise EmptyRelationError("relation universes must be nonempty")
        xi, yi = x_universe._index, y_universe._index
        supports = [0] * len(y_universe)
        try:
            for x, y in pairs:
                supports[yi[y]] |= 1 << xi[x]
        except KeyError:  # the pair that failed is the first with an unknown label
            raise UnknownVertexError(x if x not in xi else y) from None
        self._set(x_universe=x_universe, y_universe=y_universe, _supports=tuple(supports))

    @property
    def pairs(self) -> frozenset:
        """All (x, y) with x R y, as labels."""
        ys, xs = self.y_universe.labels, self.x_universe.labels
        return frozenset((x, y) for y, x in _label_pairs(ys, xs, self._supports))

    def support(self, y: str) -> tuple:
        """Sorted labels of all x related to ``y`` (possibly empty)."""
        return self.x_universe.face_labels(_bits(self._supports[self.y_universe.index(y)]))

    def _key(self) -> tuple:  # the supports, not the decoded pairs
        return self.x_universe, self.y_universe, self._supports

    def __repr__(self) -> str:
        size = f"{len(self.x_universe)}x{len(self.y_universe)}"
        return f"Relation({size}, {sum(map(int.bit_count, self._supports))} pairs)"


def is_covered(rel: Relation) -> bool:
    """True iff every y is related to at least one x."""
    return all(rel._supports)


def require_covered(rel: Relation) -> None:
    for y, s in zip(rel.y_universe, rel._supports):
        if not s:
            raise NotCoveredError(y)


def transpose(rel: Relation) -> Relation:
    """Swap the roles of X and Y."""
    supports = _transpose(rel._supports, len(rel.x_universe))
    return Relation._new(rel.y_universe, rel.x_universe, supports)


def k_complex(rel: Relation) -> SimplicialComplex:
    """Subsets of X whose members are all related to a common y.

    Equals the union of full simplices on the supports S_y; its universe is
    the whole of X even when some x is related to nothing (such x are simply
    not vertices).  Its facets are the inclusion-maximal distinct supports.
    """
    if not any(rel._supports):
        raise EmptyRelationError()
    return _spanned(rel.x_universe, rel._supports)


def l_complex(rel: Relation) -> SimplicialComplex:
    """Subsets of Y whose members share a related x; the K-complex of the transpose."""
    if not any(rel._supports):
        raise EmptyRelationError()
    return _spanned(rel.y_universe, _transpose(rel._supports, len(rel.x_universe)))


def _membership(x_universe: Universe, faces, what: str) -> Relation:
    """x R s iff x is in s, for the index-set masks s in ``faces``, each
    named by its comma-joined labels; ``what`` names them in errors."""
    labels = x_universe.labels
    for lab in labels:
        if "," in lab:
            raise AmbiguousLabelError(lab, "','", what)
    if not labels:
        raise EmptyRelationError("relation universes must be nonempty")
    named = {",".join(map(labels.__getitem__, _bits(f))): f for f in faces}
    y_universe = Universe(named)
    return Relation._new(x_universe, y_universe, tuple(map(named.__getitem__, y_universe.labels)))


def canonical_relation(t: SimplicialComplex) -> Relation:
    """The membership relation between vertices of ``t`` and its faces.

    Y is the set of faces of ``t`` (labelled by joining vertex labels with
    commas), and x R s iff x is a vertex of s.  Its K-complex is ``t``
    exactly, which makes this the canonical representative of the
    equivalence class of relations attached to ``t``.  Raises
    :class:`AmbiguousLabelError` for a vertex label containing ``,``.
    """
    if t.is_empty:
        raise EmptyComplexError("the canonical relation needs a nonempty complex")
    # the faces as index-set masks: every submask of a mirrored facet, no face mask built
    return _membership(t.universe, _walk(map(t.universe._mirror, t._tops())), "face labels")


def is_morphism(assignment: Dict[str, str], rel: Relation, rel2: Relation) -> bool:
    """True iff x R y always implies x R' assignment(y).

    Equivalently: the support of y is contained in the support of its image.
    """
    if rel.x_universe != rel2.x_universe:
        raise UniverseMismatchError()
    images = []
    for y in rel.y_universe:
        if y not in assignment:
            raise ValueError(f"assignment is not total on Y: missing {y!r}")
        images.append(rel2.y_universe.index(assignment[y]))
    return not any(s & ~rel2._supports[z] for z, s in zip(images, rel._supports))


class RelationMorphism(_Frozen):
    """A map Y -> Z satisfying the morphism law between two relations on one X."""

    __slots__ = ("source", "target", "_assignment")
    _fields = ("source", "target", "assignment")

    def __init__(self, source: Relation, target: Relation, assignment: dict):
        if not is_morphism(assignment, source, target):
            raise ValueError("assignment violates the morphism law")
        self._set(source=source, target=target, _assignment=dict(assignment))

    @property
    def assignment(self) -> dict:
        """A copy of the map Y -> Z: editing it leaves the morphism as it was checked."""
        return dict(self._assignment)

    def _key(self) -> tuple:  # the assignment is not compared
        return self.source, self.target


def induced_l_map(m: RelationMorphism) -> VertexMap:
    """The vertex map L_Y -> L_Z induced by a relation morphism.

    Always simplicial into the target L-complex, by the morphism law.
    """
    return VertexMap(m.source.y_universe, m.target.y_universe, m._assignment)


def find_morphism(rel: Relation, rel2: Relation) -> Optional[Dict[str, str]]:
    """A morphism (Y,R) -> (Z,R') if one exists, else None.

    One exists iff the K-complex of ``rel`` is a subcomplex of the K-complex
    of ``rel2``; in that case each support S_y is a face of K_Z, hence lies
    inside some support S'_z, and we pick the least such z by index, the
    lowest bit of the AND over x in S_y of the masks of the z holding x.
    """
    if rel.x_universe != rel2.x_universe:
        raise UniverseMismatchError()
    require_covered(rel)
    require_covered(rel2)
    holders, zs = _transpose(rel2._supports, len(rel2.x_universe)), rel2.y_universe.labels
    assignment = {}
    for y, s in zip(rel.y_universe, rel._supports):
        common = reduce(and_, map(holders.__getitem__, _bits(s)))
        if not common:
            return None
        assignment[y] = zs[(common & -common).bit_length() - 1]
    return assignment


def are_equivalent(rel: Relation, rel2: Relation) -> bool:
    """True iff there are morphisms both ways; then the K-complexes coincide."""
    return find_morphism(rel, rel2) is not None and find_morphism(rel2, rel) is not None
