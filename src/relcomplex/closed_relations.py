"""Closed relations between two posets and the theorem checks built on them.

A relation R between posets X and Y is closed when it is an up-set of the
product order.  Two hypothesis checkers live here: the "maximum in every
fiber" condition (under which the two K-complexes must have equal
homology) and the weaker "every fiber's chain complex is contractible"
condition (under which the two order complexes must).  Contractibility is
only ever certified positively (cone apex or greedy collapse to a point);
a failed certificate reports "unknown", never "non-contractible".
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .collapses import greedy_collapse
from .complexes import SimplicialComplex, cone_apex
from .errors import EmptyFiberError, NotClosedError
from .homology import homology
from .posets import (
    Poset,
    induced_subposet,
    maximal_elements,
    maximum,
    order_complex,
    pair_label,
    poset_dowker_complex,
    product_poset,
    up_set,
)


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
    for x, y in sorted(pairset):
        for x2 in sorted(up_set(x_poset, x)):
            for y2 in sorted(up_set(y_poset, y)):
                if (x2, y2) not in pairset:
                    return ((x, y), (x2, y2))
    return None


class ClosedRelation:
    """A validated closed relation between two posets."""

    __slots__ = ("x_poset", "y_poset", "pairs")

    def __init__(self, x_poset: Poset, y_poset: Poset, pairs: Iterable[Tuple[str, str]]):
        pairs = [(x, y) for x, y in pairs]  # labels are checked in input order
        witness = closedness_witness(pairs, x_poset, y_poset)
        if witness is not None:
            raise NotClosedError(*witness)
        self.x_poset = x_poset
        self.y_poset = y_poset
        self.pairs = frozenset(pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClosedRelation)
            and self.x_poset == other.x_poset
            and self.y_poset == other.y_poset
            and self.pairs == other.pairs
        )

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
        entry = {
            "side": side,
            "element": element,
            "elements": sorted(sub.labels()),
            "maximum": top,
        }
        if top is None:
            entry["maximal"] = sorted(maximal_elements(sub))
            holds = False
        fibers.append(entry)
    return {"hypothesis": "weak", "holds": holds, "fibers": fibers}


def _certify_contractible(k: SimplicialComplex) -> dict:
    apex = cone_apex(k)
    if apex is not None:
        return {"certificate": "cone", "apex": apex}
    core, _ = greedy_collapse(k)
    if core.is_point:
        return {"certificate": "collapsible"}
    return {"certificate": "unknown"}


def quillen_hypothesis(rel: ClosedRelation) -> dict:
    """Certify contractibility of every fiber's order complex.

    Certificates are "cone" (a vertex in every facet), "collapsible"
    (greedy collapse reaches a point) or "unknown"; only the first two
    count as certified.
    """
    fibers = []
    certified = True
    for side, element, sub in _iter_fibers(rel):
        entry = {"side": side, "element": element}
        entry.update(_certify_contractible(order_complex(sub)))
        if entry["certificate"] == "unknown":
            certified = False
        fibers.append(entry)
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
    exactly when that whole vertex set is a face.
    """
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    base_k = poset_dowker_complex(rel.x_poset if side == "x" else rel.y_poset, False, "k")
    kr = poset_dowker_complex(relation_poset(rel), False, "k")
    return _preimage_facets(rel, side, base_k, kr)


def _preimage_facets(rel, side, base_k, kr) -> dict:
    """``preimage_facet_check`` given the side's K-complex and the relation poset's."""
    at = 0 if side == "x" else 1
    facets = []
    all_full = True
    for labels in base_k.facet_labels():
        members = set(labels)
        vertices = sorted(pair_label(*pair) for pair in rel.pairs if pair[at] in members)
        full = bool(vertices) and kr.has_face_labels(vertices)
        all_full = all_full and full
        facets.append({"facet": list(labels), "vertices": vertices, "full_simplex": full})
    return {"side": side, "all_full": all_full, "facets": facets}


def verify_closed_relation(rel: ClosedRelation, mode: str) -> dict:
    """Run a hypothesis check and, when it holds, the theorem's conclusion.

    Mode "quillen" compares the homology of the two order complexes; mode
    "weak" compares the two K-complexes and additionally checks the facet
    preimages on both sides.  The verdict is "confirmed" when hypothesis
    and conclusion both hold, "hypothesis-not-met" when the hypothesis
    fails, and "theorem-violation" if a certified hypothesis ever came with
    a failing conclusion (which should not happen).
    """
    if mode == "quillen":
        hyp = quillen_hypothesis(rel)
        met = hyp["certified"]
        hx = homology(order_complex(rel.x_poset))
        hy = homology(order_complex(rel.y_poset))
        equal = hx.matches(hy)
        report = {
            "mode": "quillen",
            "hypothesis": hyp,
            "hypothesis_met": met,
            "cx_homology": hx.as_report(),
            "cy_homology": hy.as_report(),
            "same_homology": equal,
        }
        conclusion = equal
    elif mode == "weak":
        hyp = weak_hypothesis(rel)
        met = hyp["holds"]
        kx = poset_dowker_complex(rel.x_poset, False, "k")
        ky = poset_dowker_complex(rel.y_poset, False, "k")
        kr = poset_dowker_complex(relation_poset(rel), False, "k")
        hx, hy = homology(kx), homology(ky)
        equal = hx.matches(hy)
        pre_x = _preimage_facets(rel, "x", kx, kr)
        pre_y = _preimage_facets(rel, "y", ky, kr)
        report = {
            "mode": "weak",
            "hypothesis": hyp,
            "hypothesis_met": met,
            "kx_homology": hx.as_report(),
            "ky_homology": hy.as_report(),
            "same_homology": equal,
            "preimages": {"x": pre_x, "y": pre_y},
        }
        conclusion = equal and pre_x["all_full"] and pre_y["all_full"]
    else:
        raise ValueError(f"mode must be 'quillen' or 'weak', got {mode!r}")
    if not met:
        report["verdict"] = "hypothesis-not-met"
    elif conclusion:
        report["verdict"] = "confirmed"
    else:
        report["verdict"] = "theorem-violation"
    return report
