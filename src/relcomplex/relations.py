"""Covered relations between two vertex universes and their Dowker complexes.

A relation R between finite sets X and Y yields two complexes: the
K-complex on X (subsets of X related to a common y) and the L-complex on Y
(subsets of Y related to a common x).  Universes here are always finite;
the subcomplex <-> morphism correspondence implemented below genuinely
needs that, so infinite ground sets are out of scope.

``Relation(...)`` checks each pair against the universes' index dicts and
names the first unknown label in input order, x before y.  ``k_complex`` and
``l_complex`` build through the unchecked ``SimplicialComplex._trusted``:
the supports of a checked relation span a union of full simplices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from .complexes import SimplicialComplex, Universe, VertexMap, _closure
from .errors import (
    AmbiguousLabelError,
    EmptyComplexError,
    EmptyRelationError,
    NotCoveredError,
    UniverseMismatchError,
    UnknownVertexError,
)


class Relation:
    """An immutable subset of X x Y over two label universes."""

    __slots__ = ("x_universe", "y_universe", "pairs", "_supports")

    def __init__(self, x_universe, y_universe, pairs: Iterable[Tuple[str, str]]):
        if not isinstance(x_universe, Universe):
            x_universe = Universe(x_universe)
        if not isinstance(y_universe, Universe):
            y_universe = Universe(y_universe)
        if len(x_universe) == 0 or len(y_universe) == 0:
            raise EmptyRelationError("relation universes must be nonempty")
        xi, yi = x_universe._index, y_universe._index
        supports: Dict[str, set] = {y: set() for y in y_universe.labels}
        pairset = set()
        for x, y in pairs:  # the first unknown label, in input order, is reported
            if x not in xi:
                raise UnknownVertexError(x)
            if y not in yi:
                raise UnknownVertexError(y)
            supports[y].add(xi[x])
            pairset.add((x, y))
        self.x_universe = x_universe
        self.y_universe = y_universe
        self.pairs: frozenset = frozenset(pairset)
        self._supports = {y: tuple(sorted(s)) for y, s in supports.items()}

    def support(self, y: str) -> tuple:
        """Sorted labels of all x related to ``y`` (possibly empty)."""
        self.y_universe.index(y)
        return self.x_universe.face_labels(self._supports[y])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and self.x_universe == other.x_universe
            and self.y_universe == other.y_universe
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.x_universe, self.y_universe, self.pairs))

    def __repr__(self) -> str:
        return (
            f"Relation({len(self.x_universe)}x{len(self.y_universe)}, "
            f"{len(self.pairs)} pairs)"
        )


def is_covered(rel: Relation) -> bool:
    """True iff every y is related to at least one x."""
    return all(rel._supports[y] for y in rel.y_universe)


def require_covered(rel: Relation) -> None:
    for y in rel.y_universe:
        if not rel._supports[y]:
            raise NotCoveredError(y)


def transpose(rel: Relation) -> Relation:
    """Swap the roles of X and Y."""
    return Relation(rel.y_universe, rel.x_universe, [(y, x) for x, y in rel.pairs])


def k_complex(rel: Relation) -> SimplicialComplex:
    """Subsets of X whose members are all related to a common y.

    Equals the union of full simplices on the supports S_y; its universe is
    the whole of X even when some x is related to nothing (such x are simply
    not vertices).  Its facets are the inclusion-maximal distinct supports.
    """
    if not rel.pairs:
        raise EmptyRelationError()
    faces, facets = _closure(s for s in rel._supports.values() if s)
    return SimplicialComplex._trusted(rel.x_universe, faces, facets)


def l_complex(rel: Relation) -> SimplicialComplex:
    """Subsets of Y whose members share a related x; the K-complex of the transpose.

    The supports of each x are read off the checked supports of each y, in
    increasing y order, so they come out sorted and no relation is built.
    """
    if not rel.pairs:
        raise EmptyRelationError()
    supports = [[] for _ in rel.x_universe]
    for j, y in enumerate(rel.y_universe):
        for i in rel._supports[y]:
            supports[i].append(j)
    faces, facets = _closure(tuple(s) for s in supports if s)
    return SimplicialComplex._trusted(rel.y_universe, faces, facets)


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
    for lab in t.universe.labels:
        if "," in lab:
            raise AmbiguousLabelError(lab, "','", "face labels")
    pairs = []
    y_labels = []
    for face in sorted(t.faces):
        labels = t.face_labels(face)
        name = ",".join(labels)
        y_labels.append(name)
        pairs.extend((lab, name) for lab in labels)
    return Relation(t.universe, y_labels, pairs)


def is_morphism(assignment: Dict[str, str], rel: Relation, rel2: Relation) -> bool:
    """True iff x R y always implies x R' assignment(y).

    Equivalently: the support of y is contained in the support of its image.
    """
    if rel.x_universe != rel2.x_universe:
        raise UniverseMismatchError()
    for y in rel.y_universe:
        if y not in assignment:
            raise ValueError(f"assignment is not total on Y: missing {y!r}")
        rel2.y_universe.index(assignment[y])
    return all((x, assignment[y]) in rel2.pairs for x, y in rel.pairs)


@dataclass(frozen=True)
class RelationMorphism:
    """A map Y -> Z satisfying the morphism law between two relations on one X."""

    source: Relation
    target: Relation
    assignment: dict = field(compare=False)

    def __post_init__(self):
        if not is_morphism(self.assignment, self.source, self.target):
            raise ValueError("assignment violates the morphism law")


def induced_l_map(m: RelationMorphism) -> VertexMap:
    """The vertex map L_Y -> L_Z induced by a relation morphism.

    Always simplicial into the target L-complex, by the morphism law.
    """
    return VertexMap(m.source.y_universe, m.target.y_universe, m.assignment)


def find_morphism(rel: Relation, rel2: Relation) -> Optional[Dict[str, str]]:
    """A morphism (Y,R) -> (Z,R') if one exists, else None.

    One exists iff the K-complex of ``rel`` is a subcomplex of the K-complex
    of ``rel2``; in that case each support S_y is a face of K_Z, hence lies
    inside some support S'_z, and we pick the least such z by index.
    """
    if rel.x_universe != rel2.x_universe:
        raise UniverseMismatchError()
    require_covered(rel)
    require_covered(rel2)
    supports2 = [(z, set(rel2._supports[z])) for z in rel2.y_universe]
    assignment = {}
    for y in rel.y_universe:
        sy = set(rel._supports[y])
        z = next((z for z, sz in supports2 if sy <= sz), None)
        if z is None:
            return None
        assignment[y] = z
    return assignment


def are_equivalent(rel: Relation, rel2: Relation) -> bool:
    """True iff there are morphisms both ways; then the K-complexes coincide."""
    return find_morphism(rel, rel2) is not None and find_morphism(rel2, rel) is not None
