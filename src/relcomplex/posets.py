"""Finite posets as finite T0-spaces, with their order and Dowker complexes.

Orders are stored as per-element bitmasks of the reflexive-transitive
closure, so all derived data (down-sets, components, products) is a few
bit operations.  The order <-> topology dictionary identifies each element
with its minimal open set (its down-set) and each T0 topology with the
order it induces.

``FiniteTopology`` checks a family of opens (with the empty set added, and
the whole point set required) in O(|opens| * n): it takes each minimal open
U_x as the intersection of the opens that contain x, and requires
``o | U_x`` to be open for every open o and point x.  The family is then a
topology, and only then:

- every open O equals the union of U_x over x in O;
- from the empty set, one U_x at a time, every union of U_x's is open, so
  the family is closed under union;
- for opens A and B each z in A & B has U_z inside A & B, so A & B is a
  union of U_z's and the family is closed under intersection;
- conversely a topology holds each U_x and is closed under union.

On a family that fails, the pairwise scan over its opens names the first
pair whose union or intersection is missing.  ``order_to_topology`` is the
one builder that skips the check, through ``FiniteTopology._new``: the
unions of the down-sets are a topology by construction, with the down-sets
as its minimal opens.

``Poset(elements, up)`` checks reflexivity, antisymmetry and transitivity.
Builders whose order holds by construction skip that, through the unchecked
``Poset._trusted``, which derives ``down`` unless given and calls ``_new``:

- ``poset_from_pairs`` (so every parsed poset): a reflexive-transitive
  closure, once no two elements reach each other;
- ``dual_poset``: the transpose of an order, with up and down swapped;
- ``induced_subposet``: the restriction of an order to a subset;
- ``product_poset``: the componentwise order, whose up-set of (i, j) is the
  product of the factors' up-sets of i and j;
- ``topology_to_order``: the specialization order of a T0 space, whose
  down-sets are its minimal opens;
- ``realize_as_poset_k_complex``: each x of a facet below the facet's least
  private vertex, which lies in no other facet and so is maximal.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import and_, or_
from typing import Iterable, Optional, Tuple

from .complexes import _MAX_FACES, SimplicialComplex, Universe, _Frozen, _spanned
from .errors import (
    AmbiguousLabelError,
    CycleDetectedError,
    EmptyComplexError,
    EmptyResultError,
    InvalidTopologyError,
    NotRealizableError,
    NotT0Error,
    TooManyFacesError,
    TooManyOpensError,
    UnknownVertexError,
)
from .relations import Relation, _bits, _membership, _transpose


class Poset(_Frozen):
    """A finite partial order over a label universe.

    ``up[i]`` is the bitmask of elements above (and including) i and
    ``down[i]`` of those below it.  The constructor checks that ``up`` is a
    partial order; see the module docstring for the builders that need not.
    """

    __slots__ = ("elements", "up", "down")
    _fields = ("elements", "up")

    def __init__(self, elements: Universe, up: Tuple[int, ...]):
        n = len(elements)
        if len(up) != n:
            raise ValueError("one up-set mask per element required")
        for i in range(n):
            if not up[i] >> i & 1:
                raise ValueError("order must be reflexive")
            for j in _bits(up[i]):
                if j != i and up[j] >> i & 1:
                    raise ValueError("order must be antisymmetric")
                if up[j] & ~up[i]:
                    raise ValueError("order must be transitive")
        up = tuple(up)
        self._set(elements=elements, up=up, down=_transpose(up, n))

    @classmethod
    def _trusted(cls, elements: Universe, up, down=None) -> "Poset":
        """The partial order ``up``, known by construction; ``down`` is its
        transpose, computed when not given."""
        up = tuple(up)
        return cls._new(elements, up, _transpose(up, len(up)) if down is None else tuple(down))

    def __len__(self) -> int:
        return len(self.elements)

    def labels(self) -> tuple:
        return self.elements.labels

    def leq(self, a: str, b: str) -> bool:
        return bool(self.up[self.elements.index(a)] >> self.elements.index(b) & 1)

    def __repr__(self) -> str:
        strict = sum(map(int.bit_count, self.up)) - len(self)
        return f"Poset({list(self.elements.labels)!r}, {strict} strict pairs)"


def _witness_cycle(universe: Universe, edges, i: int, j: int) -> tuple:
    """A label cycle i -> ... -> j -> ... -> i through the generating edges."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)

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
            for nxt in adj.get(cur, ()):
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        return [src, dst]

    cycle = path(i, j)[:-1] + path(j, i)
    return tuple(universe.label(v) for v in cycle)


def poset_from_pairs(elements: Iterable[str], pairs: Iterable[Tuple[str, str]]) -> Poset:
    """The reflexive-transitive closure of the given generating pairs.

    Raises :class:`CycleDetectedError` (with a witness cycle) when the
    closure would violate antisymmetry.
    """
    universe = Universe(elements)
    n = len(universe)
    up = [1 << i for i in range(n)]
    edges = []
    for a, b in pairs:
        ia, ib = universe.index(a), universe.index(b)
        up[ia] |= 1 << ib
        edges.append((ia, ib))
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise CycleDetectedError(_witness_cycle(universe, edges, i, j))
    return Poset._trusted(universe, up)


def down_set(p: Poset, x: str) -> frozenset:
    """The minimal open set U_x = {y : y <= x}, as labels."""
    return frozenset(p.elements.face_labels(_bits(p.down[p.elements.index(x)])))


def up_set(p: Poset, x: str) -> frozenset:
    """The minimal closed set F_x = {y : x <= y}, as labels."""
    return frozenset(p.elements.face_labels(_bits(p.up[p.elements.index(x)])))


def dual_poset(p: Poset) -> Poset:
    """The same elements with the order reversed."""
    return Poset._trusted(p.elements, p.down, p.up)


def induced_subposet(p: Poset, labels: Iterable[str]) -> Poset:
    """The restriction of the order to a subset of the elements."""
    kept = sorted({p.elements.index(lab) for lab in labels})  # the first unknown label is named
    up = [sum(1 << k for k, j in enumerate(kept) if p.up[i] >> j & 1) for i in kept]
    return Poset._trusted(Universe(p.elements.label(i) for i in kept), up)


def maximal_elements(p: Poset) -> tuple:
    """Sorted labels of the elements with no strict upper bound."""
    return tuple(
        p.elements.label(i) for i in range(len(p)) if p.up[i] == 1 << i
    )


def maximum(p: Poset) -> Optional[str]:
    """The greatest element if it exists, else None."""
    tops = maximal_elements(p)
    if len(tops) == 1 and p.down[p.elements.index(tops[0])] == (1 << len(p)) - 1:
        return tops[0]
    return None


def order_complex(p: Poset) -> SimplicialComplex:
    """The complex of nonempty chains of the order, by its facets, the maximal chains, each
    walked upward through covers from a minimal element.  Raises :class:`TooManyFacesError`
    past ``_MAX_FACES`` of them, counted first; a reader of faces checks ``_chain_count``."""
    if (n := len(p)) == 0:
        raise EmptyComplexError("the order complex needs a nonempty poset")
    strict = [up ^ (1 << i) for i, up in enumerate(p.up)]
    covers, counts = [0] * n, [0] * n  # counts[i]: the maximal chains up from i
    for i in sorted(range(n), key=[*map(int.bit_count, strict)].__getitem__):  # each j above i first
        above, rest = 0, strict[i]
        while rest:  # _bits, inlined here and below: a Quillen check builds many small ones
            above |= strict[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        covers[i] = rest = strict[i] & ~above  # above i, and above nothing else above i
        counts[i] = 0 if rest else 1
        while rest:
            counts[i] += counts[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
    bits, tops = p.elements._bits(), []
    stack = [(i, bits[i]) for i, down in enumerate(p.down) if down == 1 << i]
    if (chains := sum(counts[i] for i, _ in stack)) > _MAX_FACES:
        raise TooManyFacesError(chains, _MAX_FACES)
    while stack:  # a chain and its greatest element i, grown through each cover of i
        i, chain = stack.pop()
        if not (rest := covers[i]):
            tops.append(chain)
        while rest:
            stack.append((j := (rest & -rest).bit_length() - 1, chain | bits[j]))
            rest &= rest - 1
    return SimplicialComplex._new(p.elements, None, tuple(tops))


def _chain_count(p: Poset) -> int:
    """The nonempty chains, the faces of the order complex, by least element: c(i) = 1 +
    the sum of c(j) over j strictly above i, each j counted before i since its up-set is smaller."""
    counts = [0] * len(p)
    for i in sorted(range(len(p)), key=[*map(int.bit_count, p.up)].__getitem__):
        counts[i] = 1 + sum(map(counts.__getitem__, _bits(p.up[i] ^ (1 << i))))
    return sum(counts)


def poset_dowker_complex(p: Poset, strict: bool, side: str) -> SimplicialComplex:
    """The K- or L-complex of the order (or strict order) of a poset.

    The non-strict K-complex is the nerve of the minimal closed sets and
    the non-strict L-complex the nerve of the minimal open sets.  Strict
    complexes of a discrete poset are empty and reported as errors.  K spans
    the down-sets, L the up-sets, each less its own element when strict.
    """
    if side not in ("k", "l"):
        raise ValueError(f"side must be 'k' or 'l', got {side!r}")
    if len(p) == 0:
        raise EmptyComplexError("the Dowker complexes need a nonempty poset")
    masks = p.down if side == "k" else p.up
    if strict:
        masks = [m & ~(1 << i) for i, m in enumerate(masks)]
    if not any(masks):
        raise EmptyResultError()
    return _spanned(p.elements, masks)


def lattice_condition_witness(p: Poset) -> Optional[Tuple[str, str]]:
    """The least (x, y) whose down-set intersection is neither empty nor a down-set.

    None when the lattice condition holds: every U_x intersect U_y is empty
    or some U_z.
    """
    downs = set(p.down)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            inter = p.down[i] & p.down[j]
            if inter and inter not in downs:
                return (p.elements.label(i), p.elements.label(j))
    return None


def realize_as_poset_k_complex(t: SimplicialComplex) -> Poset:
    """A poset whose non-strict K-complex is ``t``, when one exists.

    Requires ``t`` complete over its universe.  Each facet must own a
    private vertex (one appearing in no other facet); the least private
    vertex of each facet becomes maximal over the rest of that facet, which
    yields an order with chains of at most 2 elements whose K-complex is
    exactly ``t``.  Raises :class:`NotRealizableError` with the first facet
    whose vertices are all shared.
    """
    if t.is_empty:
        raise EmptyComplexError("cannot realize the empty complex")
    if len(t.vertices()) != len(t.universe):
        raise ValueError("complex must be complete over its universe")
    facets = t.facets()
    count = Counter(v for s in facets for v in s)
    up = [1 << i for i in range(len(t.universe))]
    for s in facets:
        private = [v for v in s if count[v] == 1]
        if not private:
            raise NotRealizableError(t.universe.face_labels(s))
        top = 1 << min(private)
        for x in s:
            up[x] |= top
    return Poset._trusted(t.universe, up)


def product_poset(p: Poset, q: Poset) -> Poset:
    """The componentwise order on pairs, labelled ``(p,q)``.

    Raises :class:`AmbiguousLabelError` for a factor label containing ``,``,
    ``(`` or ``)`` (see ``_require_pair_labels``).
    """
    _require_pair_labels(p, q)
    universe = Universe(pair_label(a, b) for a in p.labels() for b in q.labels())
    # at[i][j]: the index of (i, j), since pair labels need not sort as pairs
    at = [[universe.index(pair_label(a, b)) for b in q.labels()] for a in p.labels()]
    up = [0] * len(universe)
    for i, p_up in enumerate(p.up):
        for j, q_up in enumerate(q.up):
            up[at[i][j]] = sum(1 << at[i2][j2] for i2 in _bits(p_up) for j2 in _bits(q_up))
    return Poset._trusted(universe, up)


def pair_label(x: str, y: str) -> str:
    return f"({x},{y})"


def _require_pair_labels(p: Poset, q: Poset) -> None:
    """Raise AmbiguousLabelError for the first label of p, then of q, holding ``,``,
    ``(`` or ``)``: ``(a,b,c)`` would name both ``(a, "b,c")`` and ``("a,b", c)``."""
    for lab in p.labels() + q.labels():
        if any(ch in lab for ch in ",()"):
            raise AmbiguousLabelError(lab)


def connected_components(p: Poset) -> tuple:
    """Components of the comparability graph, each a sorted label tuple."""
    comp = [p.up[i] | p.down[i] for i in range(len(p))]
    seen, out = 0, []
    for i in range(len(p)):
        if seen >> i & 1:
            continue
        mask, grown = 0, 1 << i
        while grown != mask:
            mask = grown
            grown = reduce(or_, [comp[j] for j in _bits(mask)])
        seen |= mask
        out.append(tuple(p.elements.label(j) for j in _bits(mask)))
    return tuple(out)  # each found from its least element, so already in order


def singleton_component_witness(p: Poset) -> Optional[str]:
    """The least element comparable to no other, or None."""
    for i in range(len(p)):
        if p.up[i] | p.down[i] == 1 << i:
            return p.elements.label(i)
    return None


class FiniteTopology(_Frozen):
    """A finite space with every open set, and each point's minimal open, stored as masks."""

    __slots__ = ("points", "opens", "_mins")
    _fields = ("points", "opens")

    def __init__(self, points: Universe, opens: Iterable[Iterable[str]]):
        if not isinstance(points, Universe):
            points = Universe(points)
        n = len(points)
        whole = (1 << n) - 1
        bit = {lab: 1 << i for i, lab in enumerate(points.labels)}
        masks = set()
        for o in opens:
            mask = 0
            for lab in o:
                if lab not in bit:
                    raise UnknownVertexError(lab)
                mask |= bit[lab]
            masks.add(mask)
        masks.add(0)
        if whole not in masks:
            raise InvalidTopologyError("the whole point set must be open")
        mins = [reduce(and_, [o for o in masks if o >> i & 1], whole) for i in range(n)]
        if any(not {o | u for o in masks} <= masks for u in set(mins)):
            # name the first pair, in set order, whose union or intersection is missing
            for a, b in product(masks, repeat=2):
                if a | b not in masks:
                    raise InvalidTopologyError("open sets must be closed under union")
                if a & b not in masks:
                    raise InvalidTopologyError("open sets must be closed under intersection")
        self._set(points=points, opens=frozenset(masks), _mins=tuple(mins))

    def open_label_sets(self) -> tuple:
        """All opens as sorted label tuples, smallest first."""
        labels = self.points.labels
        outs = [tuple(labels[i] for i in _bits(mask)) for mask in self.opens]
        return tuple(sorted(outs, key=lambda t: (len(t), t)))

    def t0_witness(self) -> Optional[Tuple[str, str]]:
        mins = self._mins
        for i, j in combinations(range(len(mins)), 2):
            if mins[i] == mins[j]:
                return (self.points.label(i), self.points.label(j))
        return None

    def __reduce__(self):  # the constructor takes label sets, not masks
        return type(self), (self.points, self.open_label_sets())

    def __repr__(self) -> str:
        return f"FiniteTopology({len(self.points)} points, {len(self.opens)} opens)"


def order_to_topology(p: Poset) -> FiniteTopology:
    """The T0 topology generated by the down-sets of the order.  A down-set at
    most doubles the opens: once that could pass ``_MAX_FACES`` they are added
    one at a time, and the first past it raises :class:`TooManyOpensError`."""
    masks = {0}
    for d in p.down:
        if 2 * len(masks) <= _MAX_FACES:
            masks |= {m | d for m in masks}
            continue
        for m in [*masks]:
            masks.add(m | d)
            if len(masks) > _MAX_FACES:
                raise TooManyOpensError(len(masks), _MAX_FACES)
    return FiniteTopology._new(p.elements, frozenset(masks), p.down)


def topology_to_order(t: FiniteTopology) -> Poset:
    """The specialization order x <= y iff x lies in the minimal open of y."""
    witness = t.t0_witness()
    if witness is not None:
        raise NotT0Error(witness)
    return Poset._trusted(t.points, _transpose(t._mins, len(t._mins)), t._mins)


def membership_relation(t: FiniteTopology) -> Relation:
    """The cover of nonempty opens as a relation: a point relates to the opens containing it.

    Opens are labelled by joining their point labels with commas, so the
    L-complex of the result is the nerve of the cover and the K-complex its
    Vietoris counterpart.  Raises :class:`AmbiguousLabelError` for a point
    label containing ``,``.
    """
    return _membership(t.points, filter(None, t.opens), "open-set labels")
