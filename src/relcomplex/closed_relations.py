"""Closed relations between two posets and the theorem checks built on them.

A relation R between posets X and Y is closed when it is an up-set of the
product order.  Two hypothesis checkers live here: the "maximum in every
fiber" condition (under which the two K-complexes must have equal
homology) and the weaker "every fiber's chain complex is contractible"
condition (under which the two order complexes must).  Contractibility is
only ever certified positively (cone apex or greedy collapse to a point);
a failed certificate reports "unknown", never "non-contractible".

Both checks answer from the posets' masks:

- A set V of pairs of R is a face of the relation poset's K-complex exactly
  when some (a, b) in R has a in up(x) and b in up(y) for every (x, y) in V.
  Proof: that complex spans the down-sets of R's pairs, and the order is
  componentwise, so V lies below (a, b) exactly when x <= a and y <= b
  throughout V.
- An element lies in every maximal chain, a facet of the order complex,
  exactly when it is comparable to every other.  Proof: such an element
  extends any chain; one incomparable to some w misses a maximal chain
  through w.  So the least such index is the vertex ``cone_apex`` names.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, Optional, Tuple

from .collapses import greedy_collapse
from .complexes import _Frozen
from .errors import EmptyFiberError, NotClosedError
from .homology import homology
from .posets import (
    Poset, _require_pair_labels, induced_subposet, maximal_elements, maximum,
    order_complex, pair_label, poset_dowker_complex, product_poset,
)
from .relations import _bits


def closedness_witness(
    pairs: Iterable[Tuple[str, str]], x_poset: Poset, y_poset: Poset
) -> Optional[Tuple[Tuple[str, str], Tuple[str, str]]]:
    """A pair (lower, upper) violating up-closure, or None when closed; the
    first label outside its poset, in input order, raises UnknownVertexError."""
    pairset = set()
    for x, y in pairs:
        x_poset.elements.index(x)
        y_poset.elements.index(y)
        pairset.add((x, y))
    # each label's up-set as sorted labels, made once: index order is label order
    x_ups, y_ups = ({lab: p.elements.face_labels(_bits(up)) for lab, up in zip(p.labels(), p.up)}
                    for p in (x_poset, y_poset))
    for x, y in sorted(pairset):
        for x2 in x_ups[x]:
            for y2 in y_ups[y]:
                if (x2, y2) not in pairset:
                    return ((x, y), (x2, y2))
    return None


class ClosedRelation(_Frozen):
    """A validated closed relation between two posets."""

    __slots__ = _fields = ("x_poset", "y_poset", "pairs")

    def __init__(self, x_poset: Poset, y_poset: Poset, pairs: Iterable[Tuple[str, str]]):
        pairs = [(x, y) for x, y in pairs]  # labels are checked in input order
        witness = closedness_witness(pairs, x_poset, y_poset)
        if witness is not None:
            raise NotClosedError(*witness)
        self._set(x_poset=x_poset, y_poset=y_poset, pairs=frozenset(pairs))

    def __repr__(self) -> str:
        return f"ClosedRelation({len(self.pairs)} pairs)"


def fiber(rel: ClosedRelation, element: str, side: str) -> Poset:
    """The subposet of the opposite side related to ``element``."""
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    at = "xy".index(side)  # the element's place in a pair
    posets = (rel.x_poset, rel.y_poset)
    posets[at].elements.index(element)
    members = {pair[1 - at] for pair in rel.pairs if pair[at] == element}
    return induced_subposet(posets[1 - at], members)


def _iter_fibers(rel: ClosedRelation):
    for side, p in (("x", rel.x_poset), ("y", rel.y_poset)):
        for element in p.labels():
            f = fiber(rel, element, side)
            if len(f) == 0:
                raise EmptyFiberError(element)
            yield side, element, f


def weak_hypothesis(rel: ClosedRelation) -> dict:
    """Check that every fiber has a maximum.

    Reports, per fiber, the maximum or the incomparable maximal elements
    witnessing its absence; ``holds`` is the conjunction.
    """
    fibers = []
    holds = True
    for side, element, sub in _iter_fibers(rel):
        top = maximum(sub)
        entry = {"side": side, "element": element, "elements": list(sub.labels()), "maximum": top}
        if top is None:
            entry["maximal"] = list(maximal_elements(sub))
            holds = False
        fibers.append(entry)
    return {"hypothesis": "weak", "holds": holds, "fibers": fibers}


def _certify_contractible(sub: Poset) -> dict:
    """The certificate of a fiber: its first element comparable to every
    other is the apex of its order complex, built only when there is none."""
    whole = (1 << len(sub)) - 1
    for i, (up, down) in enumerate(zip(sub.up, sub.down)):
        if up | down == whole:
            return {"certificate": "cone", "apex": sub.elements.label(i)}
    core, _ = greedy_collapse(order_complex(sub))
    if core.is_point:
        return {"certificate": "collapsible"}
    return {"certificate": "unknown"}


def quillen_hypothesis(rel: ClosedRelation) -> dict:
    """Certify contractibility of every fiber's order complex.

    Certificates are "cone" (a vertex in every facet), "collapsible"
    (greedy collapse reaches a point) or "unknown"; only the first two
    count as certified.
    """
    fibers = [
        {"side": side, "element": element, **_certify_contractible(sub)}
        for side, element, sub in _iter_fibers(rel)
    ]
    certified = all(entry["certificate"] != "unknown" for entry in fibers)
    return {"hypothesis": "quillen", "certified": certified, "fibers": fibers}


def relation_poset(rel: ClosedRelation) -> Poset:
    """The relation itself as a subposet of the product order."""
    labels = [pair_label(x, y) for x, y in rel.pairs]
    return induced_subposet(product_poset(rel.x_poset, rel.y_poset), labels)


def preimage_facet_check(rel: ClosedRelation, side: str) -> dict:
    """Check that each facet of a side's K-complex pulls back to a full simplex.

    For a facet s of the K-complex of the chosen side's poset, the preimage
    under the projection from the relation poset's K-complex is the
    subcomplex spanned by the pairs projecting into s; it is a full simplex
    exactly when that whole vertex set is a face, read from the posets' masks.
    """
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    base_k = poset_dowker_complex(rel.x_poset if side == "x" else rel.y_poset, False, "k")
    return _preimage_facets(rel, side, base_k)


def _preimage_facets(rel, side, base_k) -> dict:
    """``preimage_facet_check`` given the side's K-complex."""
    _require_pair_labels(rel.x_poset, rel.y_poset)
    at = "xy".index(side)  # the side's place in a pair
    here, there = (rel.x_poset, rel.y_poset) if at == 0 else (rel.y_poset, rel.x_poset)
    related = [0] * len(here)  # related[i]: the mask of the elements paired with i
    for pair in rel.pairs:
        related[here.elements.index(pair[at])] |= 1 << there.elements.index(pair[1 - at])
    facets = []
    for face in base_k.facets():
        labels = base_k.face_labels(face)
        vertices = sorted(pair_label(*pair) for pair in rel.pairs if pair[at] in labels)
        own = [i for i in face if related[i]]  # the side's elements of the preimage
        full = False
        if own:  # is some related pair above the whole preimage?
            tops = reduce(and_, [here.up[i] for i in own])
            others = reduce(or_, map(related.__getitem__, own))
            other_tops = reduce(and_, map(there.up.__getitem__, _bits(others)))
            full = any(related[a] & other_tops for a in _bits(tops))
        facets.append({"facet": list(labels), "vertices": vertices, "full_simplex": full})
    return {"side": side, "all_full": all(f["full_simplex"] for f in facets), "facets": facets}


# mode: the hypothesis, the key of its verdict, each side's complex, the report's key prefix
_MODES = {
    "quillen": (quillen_hypothesis, "certified", order_complex, "c"),
    "weak": (weak_hypothesis, "holds", lambda p: poset_dowker_complex(p, False, "k"), "k"),
}


def verify_closed_relation(rel: ClosedRelation, mode: str) -> dict:
    """Run a hypothesis check and, when it holds, the theorem's conclusion.

    Mode "quillen" compares the homology of the two order complexes; mode
    "weak" compares the two K-complexes and additionally checks the facet
    preimages on both sides.  The verdict is "confirmed" when hypothesis
    and conclusion both hold, "hypothesis-not-met" when the hypothesis
    fails, and "theorem-violation" if a certified hypothesis ever came with
    a failing conclusion (which should not happen).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be 'quillen' or 'weak', got {mode!r}")
    check, met, build, prefix = _MODES[mode]
    hyp = check(rel)
    kx, ky = build(rel.x_poset), build(rel.y_poset)
    hx, hy = homology(kx), homology(ky)
    conclusion = hx.matches(hy)
    report = {
        "mode": mode,
        "hypothesis": hyp,
        "hypothesis_met": hyp[met],
        f"{prefix}x_homology": hx.as_report(),
        f"{prefix}y_homology": hy.as_report(),
        "same_homology": conclusion,
    }
    if mode == "weak":
        pre = report["preimages"] = {"x": _preimage_facets(rel, "x", kx), "y": _preimage_facets(rel, "y", ky)}
        conclusion = conclusion and pre["x"]["all_full"] and pre["y"]["all_full"]
    report["verdict"] = (
        "hypothesis-not-met" if not hyp[met] else "confirmed" if conclusion else "theorem-violation"
    )
    return report
