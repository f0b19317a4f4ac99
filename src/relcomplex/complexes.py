"""Abstract simplicial complexes over interned vertex labels.

Vertices are opaque string labels, interned per universe to dense integer
indices in sorted label order.  A complex keeps only its facet masks, which
every builder sets, and its face masks, its full downward-closed face set,
built on first use unless given, with vertex i at bit n - 1 - i of an
n-vertex universe (a convention only this module knows); every other view is
computed on each call.  Index tuples (strictly increasing) and labels are
views made at the public boundary, by ``Universe``.  Among faces of one size
descending mask order is lexicographic order: the first vertex where two
faces differ is the highest bit where their masks do.  All values are
immutable, since every value class of the package derives from ``_Frozen``,
and all operations are pure, so they can be shared freely across workers.

``SimplicialComplex(...)`` validates a face set of index tuples given from
outside.  Builders whose face set is closed by construction skip the check,
on masks, through ``_spanned`` or ``SimplicialComplex._trusted``, both on
``_Frozen._new``, the one unchecked builder of a value (this ``_trusted`` and
``Poset._trusted`` derive a slot first); ``Universe`` checks their labels:

- ``complex_from_facets``, ``relations.k_complex`` and ``l_complex``, and
  ``posets.poset_dowker_complex``: a union of full simplices, one per facet
  or support, each added with all of its subsets;
- ``apply_simplicial_map``: every subset of an image f(s) is the image of a
  subface of s;
- ``posets.order_complex``: the set of all chains, and a subset of a chain
  is a chain;
- ``collapses.verify_sequence`` (so ``apply_step``) and
  ``greedy_collapse``: each elementary collapse removes a free face and its
  only proper coface, which is maximal, so no remaining face loses a
  subface.

The first four give only their facets, through ``_spanned``, on index-set
masks (index i at bit i), and ``_faces()`` walks their submasks on first use
(``_walk``: the one face walk and the one refusal of too many faces).  The
rest give their faces, through ``_trusted``, whose ``_subfaces`` finds facets.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add, and_, or_
from typing import Collection, Iterable, Mapping, Optional

from .errors import NotSimplicialError, TooManyFacesError, UnknownVertexError

Face = tuple  # strictly increasing tuple of vertex indices

# the most faces a complex, or opens a topology, may be built with (``_walk``, ``posets``)
_MAX_FACES = 1 << 24


def _require_labels(labels) -> None:
    """Raise ValueError for the first label that is not a nonempty string."""
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise ValueError(f"vertex labels must be nonempty strings, got {lab!r}")


class _Frozen:
    """A value that cannot change once built, like a frozen dataclass, and the base
    of every value class of the package: ``_fields`` names its constructor's
    arguments in order, for ``repr`` and for copies and pickles, and ``==`` and
    ``hash`` read ``_key()``, all of them unless a class says otherwise (a class
    whose equality reads a stored form overrides ``_key``).  A constructor, or a lazy
    field that starts as None, sets slots by ``_set``, which returns the value; a value
    that holds by construction is built by ``_new``, given each slot in order."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _new(cls, *stored):
        value = object.__new__(cls)
        for name, item in zip(cls.__slots__, stored, strict=True):
            object.__setattr__(value, name, item)
        return value

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be changed")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Universe(_Frozen):
    """An immutable vertex label set with a label <-> dense index bijection.

    Labels are interned in sorted order, so "least index" tie-breaking is
    independent of declaration order.
    """

    __slots__ = ("labels", "_index", "_bit")
    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        _require_labels(labels)
        labels = tuple(sorted(set(labels)))
        self._set(labels=labels, _index={lab: i for i, lab in enumerate(labels)}, _bit=None)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def label(self, index: int) -> str:
        return self.labels[index]

    def face_from_labels(self, labels: Iterable[str]) -> Face:
        """Canonical face (sorted, de-duplicated index tuple) for a label set."""
        return tuple(sorted({self.index(lab) for lab in labels}))

    def face_labels(self, face: Face) -> tuple:
        return tuple(self.labels[i] for i in face)

    def _bits(self) -> tuple:
        """The mask bit of each index, built on first use: vertex i is bit n - 1 - i."""
        if self._bit is None:
            self._set(_bit=tuple(1 << i for i in range(len(self.labels) - 1, -1, -1)))
        return self._bit

    def _encode(self, face: Face) -> int:
        """The mask of an index tuple."""
        return sum(map(self._bits().__getitem__, face))

    def _mirror(self, mask: int) -> int:
        """Bit i moved to bit n - 1 - i: an index-set mask to its face mask, and back."""
        return int(bin(mask)[:1:-1].ljust(len(self.labels), "0"), 2)

    def _mask(self, labels) -> Optional[int]:
        """The face mask of some labels, repeats allowed; None if one is not in the universe."""
        try:
            return reduce(or_, map(self._bits().__getitem__, map(self._index.__getitem__, labels)), 0)
        except KeyError:
            return None

    def _face(self, mask: int) -> Face:
        """The index tuple of a face mask, its lowest bit (the greatest index) taken first."""
        n, face = len(self.labels), []
        while mask:
            low = mask & -mask
            face.append(n - low.bit_length())
            mask ^= low
        return tuple(reversed(face))

    def _labels(self, mask: int) -> tuple:
        """The labels of a face mask, sorted."""
        return tuple(map(self.labels.__getitem__, self._face(mask)))

    def _walker(self, empty, leaf, join):
        """A memoised value of each face mask, for one call: ``empty`` for 0, ``leaf(label)``
        for a vertex, else ``join`` of the values of ``mask & (mask - 1)`` and of its lowest
        bit.  It neither recurses nor refers to itself: no cycle holds the memo."""
        named = {0: empty, **dict(zip(self._bits(), map(leaf, self.labels)))}

        def value(mask: int):
            if (found := named.get(mask)) is None:
                walk = [mask]
                while (found := named.get(mask := mask & (mask - 1))) is None:
                    walk.append(mask)
                for mask in reversed(walk):
                    found = named[mask] = join(found, named[mask & -mask])
            return found

        return value

    def _labeller(self):
        """``_labels`` for one call, each face's labels memoised (``_walker``)."""
        return self._walker((), lambda label: (label,), add)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __repr__(self) -> str:
        return f"Universe({list(self.labels)!r})"


class SimplicialComplex(_Frozen):
    """A downward-closed set of nonempty faces over a vertex universe.

    The universe may be larger than the vertex set (vertices are the
    0-faces).  Downward closure is validated on construction, so every
    reachable value satisfies it.
    """

    __slots__ = ("universe", "_masks", "_facet_masks")
    _fields = ("universe", "faces")

    def __init__(self, universe: Universe, faces: Iterable[Face]):
        faces = frozenset(tuple(f) for f in faces)
        n = len(universe)
        for face in faces:
            if not face:
                raise ValueError("the empty face is not allowed")
            if any(face[i] >= face[i + 1] for i in range(len(face) - 1)):
                raise ValueError(f"face {face} is not strictly increasing")
            if face[0] < 0 or face[-1] >= n:
                raise ValueError(f"face {face} has vertices outside the universe")
        masks = frozenset(map(universe._encode, faces))
        subs = _subfaces(masks)
        if not subs <= masks:  # the least missing face, by dimension and then lexicographic, and
            # the least face holding it with one more vertex: of faces of one size, the largest mask
            sub = min(subs - masks, key=lambda mask: (mask.bit_count(), -mask))
            face = max(g for g in masks if g & sub == sub and (g ^ sub).bit_count() == 1)
            face, sub = universe._face(face), universe._face(sub)
            raise ValueError(f"face set is not downward closed: {face} present, {sub} missing")
        self._set(universe=universe, _masks=masks, _facet_masks=masks - subs)

    @classmethod
    def _trusted(cls, universe: Universe, masks) -> "SimplicialComplex":
        """A complex over the face ``masks``, unchecked: only for face sets closed by construction."""
        masks = frozenset(masks)
        return cls._new(universe, masks, masks - _subfaces(masks))

    @property
    def faces(self) -> frozenset:
        """Every face as an index tuple, decoded on each call."""
        return frozenset(map(self.universe._face, self._faces()))

    def _faces(self) -> frozenset:
        """The face masks, walked from the facets on first use unless a builder gave them."""
        if self._masks is None:
            self._set(_masks=frozenset(_walk(self._facet_masks)))
        return self._masks

    @property
    def is_empty(self) -> bool:
        return not self._facet_masks

    @property
    def is_point(self) -> bool:
        return len(self._facet_masks) == 1 and min(self._facet_masks).bit_count() == 1

    def _by_dimension(self) -> tuple:
        """The face masks of each dimension 0..dim in descending order."""
        sized = {}
        for face in self._faces():
            sized.setdefault(face.bit_count(), []).append(face)
        return tuple(tuple(sorted(sized[n], reverse=True)) for n in range(1, len(sized) + 1))

    def dimension(self) -> int:
        """Max face dimension, that of the largest facet; -1 for the empty complex."""
        return max(map(int.bit_count, self._tops()), default=0) - 1

    def vertices(self) -> tuple:
        """Sorted indices of the 0-faces, the vertices of the facets."""
        return self.universe._face(reduce(or_, self._tops(), 0))

    def vertex_labels(self) -> tuple:
        return tuple(self.universe.label(i) for i in self.vertices())

    def n_faces(self, n: int) -> tuple:
        """All n-dimensional faces in lexicographic order."""
        sized = sorted([f for f in self._faces() if f.bit_count() == n + 1], reverse=True)
        return tuple(map(self.universe._face, sized))

    def _tops(self) -> Collection[int]:
        """The masks of the inclusion-maximal faces, set by every builder."""
        return self._facet_masks

    def facets(self) -> tuple:
        """Inclusion-maximal faces in lexicographic order."""
        return tuple(sorted(map(self.universe._face, self._tops())))

    def facet_labels(self) -> tuple:
        return tuple(self.universe.face_labels(f) for f in self.facets())

    def face_labels(self, face: Face) -> tuple:
        return self.universe.face_labels(face)

    def label_faces(self) -> frozenset:
        """Faces as sorted label tuples (comparable across universes)."""
        return frozenset(map(self.universe._labels, self._faces()))

    def has_face_labels(self, labels: Iterable[str]) -> bool:
        mask = self.universe._mask(labels)  # None for a label outside the universe
        return bool(mask) and any(mask & top == mask for top in self._tops())

    def euler_characteristic(self) -> int:
        return sum(1 if f.bit_count() % 2 else -1 for f in self._faces())

    def _key(self) -> tuple:  # equal face sets have equal facet sets
        return self.universe, frozenset(self._tops())

    def __repr__(self) -> str:
        shown = f"{len(self.universe)} vertices, {len(self._tops())} facets, dim {self.dimension()}"
        return f"SimplicialComplex({shown})"

    def __reduce__(self):  # rebuilt from the facets, so no face is built
        return complex_from_facets, (self.universe, self.facet_labels())


class VertexMap(_Frozen):
    """A total label assignment between universes, inducing maps of complexes;
    unhashable, since it holds a dict."""

    __slots__ = ("domain", "codomain", "_mapping")
    _fields = ("domain", "codomain", "mapping")

    def __init__(self, domain: Universe, codomain: Universe, mapping: Mapping[str, str]):
        for src, dst in mapping.items():
            if src not in domain:
                raise UnknownVertexError(src)
            if dst not in codomain:
                raise UnknownVertexError(dst)
        self._set(domain=domain, codomain=codomain, _mapping=dict(mapping))

    @property
    def mapping(self) -> dict:
        """A copy of the assignment: editing it leaves the map as it was checked."""
        return dict(self._mapping)

    def __getitem__(self, label: str) -> str:
        return self._mapping[label]

    def __repr__(self) -> str:
        return f"VertexMap({self._mapping!r})"


def _subfaces(masks) -> set:
    """Every nonempty codimension-1 subface of the face ``masks``, one cleared bit each, in
    O(|masks| * dim): the masks are closed exactly when they hold these, and then the rest are
    the facets, since a face f inside a larger face g has the coface f + {v}, for v in g - f."""
    subs = set()
    for face in masks:
        rest = face
        while rest:
            low = rest & -rest
            subs.add(face ^ low)
            rest ^= low
    subs.discard(0)
    return subs


def _walk(tops) -> set:
    """Every nonempty submask of ``tops`` (``_spanned``'s come largest first), stopped past
    ``_MAX_FACES`` by :class:`TooManyFacesError`: before a top whose simplex alone has more,
    so before any face of a simplex that big, or else after the top that takes the count past it."""
    faces = set()
    for top in tops:
        if (size := (1 << top.bit_count()) - 1) > _MAX_FACES:
            raise TooManyFacesError(size, _MAX_FACES)
        sub = top
        while sub:  # every nonempty submask, in descending order
            faces.add(sub)
            sub = (sub - 1) & top
        if len(faces) > _MAX_FACES:
            raise TooManyFacesError(len(faces), _MAX_FACES)
    return faces


def _spanned(universe: Universe, tops) -> SimplicialComplex:
    """The union of the full simplices on the nonempty index-set masks ``tops``, as its facets:
    distinct tops largest first (ties in input order), each kept unless inside a larger kept one."""
    kept, size, larger = [], None, ()
    for top in sorted(dict.fromkeys(filter(None, tops)), key=int.bit_count, reverse=True):
        if top.bit_count() != size:
            size, larger = top.bit_count(), tuple(kept)
        for big in larger:  # distinct tops of one size never nest
            if top & big == top:
                break
        else:
            kept.append(top)
    return SimplicialComplex._new(universe, None, tuple(map(universe._mirror, kept)))


def complex_from_facets(universe, facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Build the downward closure of the given facets.

    ``universe`` may be a :class:`Universe` or an iterable of labels.
    Redundant (non-maximal) input facets are absorbed.
    """
    if not isinstance(universe, Universe):
        universe = Universe(universe)
    tops = [reduce(or_, [1 << universe.index(lab) for lab in facet], 0) for facet in facets]
    if 0 in tops:
        raise ValueError("facets must be nonempty")
    return _spanned(universe, tops)


def is_subcomplex(t: SimplicialComplex, k: SimplicialComplex) -> bool:
    """True iff every face of ``t`` is a face of ``k``: each facet of ``t``, by
    its labels, lies in a facet of ``k``, whatever the two universes."""
    return all(map(k.has_face_labels, map(t.universe._labels, t._tops())))


def apply_simplicial_map(
    f: VertexMap, source: SimplicialComplex, target: SimplicialComplex
) -> SimplicialComplex:
    """Image complex of ``source`` under ``f``, checked to land in ``target``.

    Raises :class:`NotSimplicialError` naming the first face (in canonical
    order) whose image is not a face of ``target``.
    """
    for v in source.vertex_labels():
        if v not in f._mapping:
            raise ValueError(f"map is not total on the source vertices: missing {v!r}")
    image = set()
    for face in itertools.chain.from_iterable(source._by_dimension()):
        labels = source.universe._labels(face)
        img = target.universe._mask(map(f._mapping.__getitem__, labels))
        if img not in target._faces():
            raise NotSimplicialError(labels)
        image.add(img)
    return SimplicialComplex._trusted(target.universe, image)


def are_contiguous(f: VertexMap, g: VertexMap, source: SimplicialComplex, target: SimplicialComplex) -> bool:
    """True iff f(s) and g(s) always span a common face of the target."""
    apply_simplicial_map(f, source, target)
    apply_simplicial_map(g, source, target)
    return all(
        target.universe._mask(v for lab in source.universe._labels(face) for v in (f[lab], g[lab]))
        in target._faces()
        for face in source._faces()
    )


def cone_apex(k: SimplicialComplex) -> Optional[str]:
    """A vertex contained in every facet, or None.

    The existence of an apex certifies that the complex is a cone, hence
    contractible.  Ties are broken by least interned index, the highest bit.
    """
    common = reduce(and_, k._tops() or [0])
    return k.universe.label(len(k.universe) - common.bit_length()) if common else None
