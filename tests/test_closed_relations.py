import itertools

import pytest
from hypothesis import given, strategies as st

import relcomplex as rc
from relcomplex import closed_relations, posets
from relcomplex.errors import (
    AmbiguousLabelError,
    DomainError,
    EmptyFiberError,
    NotClosedError,
    UnknownVertexError,
)

import oracles


def full_relation(p, q):
    return [(x, y) for x in p.labels() for y in q.labels()]


def outcome(check, *args):
    """The report of a check, or the type and text of the domain error it raised."""
    try:
        return check(*args)
    except DomainError as exc:
        return type(exc), str(exc)


class TestClosedness:
    def test_crown_relation_is_closed(self, circle4, circle6):
        assert rc.closedness_witness(oracles.CROWN_PAIRS, circle4, circle6) is None

    def test_full_relation_is_closed(self, circle4, circle6):
        assert rc.closedness_witness(full_relation(circle4, circle6), circle4, circle6) is None

    def test_single_low_pair_is_not_closed(self, circle4, circle6):
        assert rc.closedness_witness([("1", "a")], circle4, circle6) is not None
        with pytest.raises(NotClosedError) as exc:
            rc.ClosedRelation(circle4, circle6, [("1", "a")])
        assert exc.value.lower == ("1", "a")

    def test_first_unknown_label_in_input_order(self, circle4, circle6):
        for pairs, label in [
            ([("1", "d"), ("2", "r"), ("3", "p"), ("4", "q")], "r"),
            ([("1", "p"), ("2", "r"), ("3", "q")], "p"),
            ([("1", "q"), ("9", "d")], "q"),
            ([("9", "q"), ("1", "p")], "9"),
        ]:
            with pytest.raises(UnknownVertexError) as exc:
                rc.ClosedRelation(circle4, circle6, pairs)
            assert exc.value.label == label, pairs

    def test_closed_iff_up_set_of_product(self, circle4):
        # cross-check the direct definition against the product-order up-set test
        q = rc.poset_from_pairs("xy", [("x", "y")])
        prod = rc.product_poset(circle4, q)
        pair_sets = [
            [("1", "x"), ("3", "x")],
            [("3", "x"), ("3", "y"), ("4", "x"), ("4", "y")],
            full_relation(circle4, q),
            [("3", "y"), ("4", "y")],
            [("1", "y"), ("3", "y")],
        ]
        for pairs in pair_sets:
            direct = rc.closedness_witness(pairs, circle4, q) is None
            upset = oracles.is_up_set(prod, [rc.pair_label(x, y) for x, y in pairs])
            assert direct == upset

    @given(st.data())
    def test_witness_matches_the_up_set_oracle(self, data):
        x, y = data.draw(oracles.posets(prefix="x")), data.draw(oracles.posets(prefix="y"))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(x.labels()), st.sampled_from(y.labels()))))
        assert rc.closedness_witness(pairs, x, y) == oracles.up_set_closedness_witness(pairs, x, y)


class TestFibers:
    def test_x_fiber_with_maximum(self, crown_relation):
        f = rc.fiber(crown_relation, "1", "x")
        assert sorted(f.labels()) == ["d"]
        assert rc.maximum(f) == "d"

    def test_x_fiber_without_maximum(self, crown_relation):
        f = rc.fiber(crown_relation, "3", "x")
        assert sorted(f.labels()) == ["b", "c", "d", "e", "f"]
        assert rc.maximum(f) is None
        assert rc.maximal_elements(f) == ("d", "e", "f")

    def test_y_fiber_without_maximum(self, crown_relation):
        f = rc.fiber(crown_relation, "d", "y")
        assert sorted(f.labels()) == ["1", "3", "4"]
        assert rc.maximum(f) is None
        assert rc.maximal_elements(f) == ("3", "4")

    def test_bad_side_rejected(self, crown_relation):
        with pytest.raises(ValueError):
            rc.fiber(crown_relation, "1", "z")


class TestWeakHypothesis:
    def test_crown_relation_fails_at_3(self, crown_relation):
        report = rc.weak_hypothesis(crown_relation)
        assert report["holds"] is False
        failing = [f for f in report["fibers"] if f["maximum"] is None]
        assert failing[0]["element"] == "3"
        assert failing[0]["maximal"] == ["d", "e", "f"]

    def test_antitone_map_graph_relation_passes(self):
        # x-chain p < q mapped order-reversingly into the chain u < v < w;
        # the graph relation f(x) <= y is then an up-set of the product
        x = rc.poset_from_pairs("pq", [("p", "q")])
        y = rc.poset_from_pairs("uvw", [("u", "v"), ("v", "w")])
        f = {"p": "v", "q": "u"}
        pairs = [
            (a, b) for a in x.labels() for b in y.labels() if y.leq(f[a], b)
        ]
        rel = rc.ClosedRelation(x, y, pairs)
        assert rc.weak_hypothesis(rel)["holds"] is True
        assert rc.verify_closed_relation(rel, "weak")["verdict"] == "confirmed"

    def test_full_relation_between_posets_with_maxima(self):
        p = rc.poset_from_pairs("12", [("1", "2")])
        q = rc.poset_from_pairs("ab", [("a", "b")])
        rel = rc.ClosedRelation(p, q, full_relation(p, q))
        report = rc.weak_hypothesis(rel)
        assert report["holds"] is True
        assert rc.verify_closed_relation(rel, "weak")["verdict"] == "confirmed"

    def test_empty_fiber_rejected(self, circle4, circle6):
        tops = [("3", "d"), ("3", "e"), ("3", "f"), ("4", "d"), ("4", "e"), ("4", "f")]
        rel = rc.ClosedRelation(circle4, circle6, tops)
        with pytest.raises(EmptyFiberError):
            rc.weak_hypothesis(rel)


class TestQuillenHypothesis:
    def test_crown_relation_all_certified(self, crown_relation):
        report = rc.quillen_hypothesis(crown_relation)
        assert report["certified"] is True
        certs = {(f["side"], f["element"]): f["certificate"] for f in report["fibers"]}
        assert len(certs) == 10
        assert certs[("x", "3")] == "collapsible"
        assert certs[("x", "1")] == "cone"

    def test_fiber_with_maximum_certified_as_cone(self):
        p = rc.poset_from_pairs("12", [("1", "2")])
        q = rc.poset_from_pairs("ab", [("a", "b")])
        rel = rc.ClosedRelation(p, q, full_relation(p, q))
        report = rc.quillen_hypothesis(rel)
        assert all(f["certificate"] == "cone" for f in report["fibers"])

    def test_circle_fiber_reports_unknown(self, circle4, circle6):
        rel = rc.ClosedRelation(circle4, circle6, full_relation(circle4, circle6))
        report = rc.quillen_hypothesis(rel)
        assert report["certified"] is False
        assert all(f["certificate"] == "unknown" for f in report["fibers"])

    def test_maximum_implies_cone_certificate(self, crown_relation):
        # fibers with a maximum must be certified via an apex, not just greedily
        weak = rc.weak_hypothesis(crown_relation)
        quillen = rc.quillen_hypothesis(crown_relation)
        for wf, qf in zip(weak["fibers"], quillen["fibers"]):
            assert (wf["side"], wf["element"]) == (qf["side"], qf["element"])
            if wf["maximum"] is not None:
                assert qf["certificate"] == "cone"


class TestRelationPoset:
    def test_crown_relation_poset(self, crown_relation):
        rp = rc.relation_poset(crown_relation)
        assert len(rp) == 10
        assert rp.leq(rc.pair_label("1", "d"), rc.pair_label("3", "d"))
        assert not rp.leq(rc.pair_label("1", "d"), rc.pair_label("3", "e"))

    def test_full_relation_gives_product(self, circle4):
        q = rc.poset_from_pairs("ab", [("a", "b")])
        rel = rc.ClosedRelation(circle4, q, full_relation(circle4, q))
        assert rc.relation_poset(rel) == rc.product_poset(circle4, q)

    def test_colliding_pair_labels_are_rejected(self):
        p = rc.poset_from_pairs(["a", "a,b"], [])
        q = rc.poset_from_pairs(["b,c", "c"], [])
        rel = rc.ClosedRelation(p, q, [("a", "b,c"), ("a,b", "c")])
        with pytest.raises(AmbiguousLabelError):
            rc.relation_poset(rel)

    def test_single_pair(self, circle4, circle6):
        rel = rc.ClosedRelation(circle4, circle6, [("3", "d")])
        assert rc.relation_poset(rel).labels() == (rc.pair_label("3", "d"),)


class TestPreimageCheck:
    def test_crown_relation_preimages_fail(self, crown_relation):
        report = rc.preimage_facet_check(crown_relation, "x")
        by_facet = {tuple(f["facet"]): f for f in report["facets"]}
        entry = by_facet[("1", "2", "3")]
        assert entry["vertices"] == [
            "(1,d)", "(2,e)", "(3,b)", "(3,c)", "(3,d)", "(3,e)", "(3,f)",
        ]
        assert entry["full_simplex"] is False
        assert report["all_full"] is False

    def test_passing_relation_has_full_preimages(self):
        x = rc.poset_from_pairs("pq", [("p", "q")])
        y = rc.poset_from_pairs("uvw", [("u", "v"), ("v", "w")])
        pairs = [(a, b) for a in "pq" for b in "uvw" if y.leq({"p": "v", "q": "u"}[a], b)]
        rel = rc.ClosedRelation(x, y, pairs)
        for side in ("x", "y"):
            assert rc.preimage_facet_check(rel, side)["all_full"] is True

    def test_single_pair_preimage_is_a_point(self, circle4, circle6):
        rel = rc.ClosedRelation(circle4, circle6, [("3", "d")])
        report = rc.preimage_facet_check(rel, "x")
        for entry in report["facets"]:
            if "3" in entry["facet"]:
                assert entry["vertices"] == ["(3,d)"] and entry["full_simplex"]

    def test_empty_relation_has_no_full_preimage(self, circle4, circle6):
        report = rc.preimage_facet_check(rc.ClosedRelation(circle4, circle6, []), "y")
        assert report["all_full"] is False
        assert [f["vertices"] for f in report["facets"]] == [[], [], []]

    @pytest.mark.parametrize("x_labels, y_labels, bad", [
        (["a", "a,b"], ["b,c", "c"], "a,b"),
        (["a", "b"], ["c", "c)"], "c)"),
        (["(a", "b"], ["c("], "(a"),
    ])
    def test_first_label_that_makes_pair_labels_collide_is_named(self, x_labels, y_labels, bad):
        p = rc.poset_from_pairs(x_labels, [])
        q = rc.poset_from_pairs(y_labels, [])
        rel = rc.ClosedRelation(p, q, full_relation(p, q))
        for side in ("x", "y"):
            with pytest.raises(AmbiguousLabelError) as exc:
                rc.preimage_facet_check(rel, side)
            assert exc.value.label == bad


class TestAgainstComplexOracles:
    """The checks answer from the posets' masks; the oracles build the relation
    poset's K-complex and every fiber's order complex."""

    @given(oracles.closed_relations())
    def test_preimages_and_certificates_match(self, rel):
        for side in ("x", "y"):
            assert rc.preimage_facet_check(rel, side) == oracles.relation_poset_preimage_facets(rel, side)
        assert outcome(rc.quillen_hypothesis, rel) == outcome(oracles.order_complex_quillen_hypothesis, rel)

    def test_weak_verify_spans_only_the_two_side_complexes(self, crown_relation, monkeypatch):
        spanned = []
        real = posets._spanned
        monkeypatch.setattr(posets, "_spanned", lambda universe, tops: spanned.append(universe) or real(universe, tops))
        rc.verify_closed_relation(crown_relation, "weak")
        assert spanned == [crown_relation.x_poset.elements, crown_relation.y_poset.elements]

    def test_no_relation_poset_or_product_is_built(self, crown_relation, monkeypatch):
        def refuse(*args):
            raise AssertionError("a closed-relation check built a relation or product poset")

        monkeypatch.setattr(closed_relations, "relation_poset", refuse)
        monkeypatch.setattr(closed_relations, "product_poset", refuse)
        for mode in ("weak", "quillen"):
            rc.verify_closed_relation(crown_relation, mode)
        for side in ("x", "y"):
            rc.preimage_facet_check(crown_relation, side)

    def test_quillen_builds_only_the_fiber_order_complex_without_an_apex(self, crown_relation, monkeypatch):
        built = []
        real = closed_relations.order_complex
        monkeypatch.setattr(closed_relations, "order_complex", lambda p: built.append(p.labels()) or real(p))
        rc.quillen_hypothesis(crown_relation)
        assert built == [("b", "c", "d", "e", "f")]  # the fiber of 3, certified by collapse


class TestVerify:
    def test_crown_relation_weak_mode(self, crown_relation):
        report = rc.verify_closed_relation(crown_relation, "weak")
        assert report["verdict"] == "hypothesis-not-met"
        assert report["same_homology"] is False
        assert report["kx_homology"] == {"betti": [1, 0, 0], "torsion": [[], [], []]}
        assert report["ky_homology"] == {"betti": [1, 1, 0], "torsion": [[], [], []]}

    def test_crown_relation_quillen_mode(self, crown_relation):
        report = rc.verify_closed_relation(crown_relation, "quillen")
        assert report["hypothesis_met"] is True
        assert report["same_homology"] is True
        assert report["verdict"] == "confirmed"
        assert report["cx_homology"] == {"betti": [1, 1], "torsion": [[], []]}
        assert report["cy_homology"] == {"betti": [1, 1], "torsion": [[], []]}

    def test_bad_mode_rejected(self, crown_relation):
        with pytest.raises(ValueError):
            rc.verify_closed_relation(crown_relation, "strong")


class TestSmallExhaustive:
    def test_weak_hypothesis_implies_conclusion_on_tiny_posets(self):
        # every closed relation with nonempty fibers between 2-element posets
        posets2 = oracles.all_posets(("1", "2"))
        posets2b = oracles.all_posets(("a", "b"))
        checked = 0
        for p, q in itertools.product(posets2, posets2b):
            prod = rc.product_poset(p, q)
            for mask in oracles.all_up_set_masks(prod):
                labels = oracles.mask_labels(prod, mask)
                pairs = [tuple(lab[1:-1].split(",")) for lab in labels]
                if {x for x, _ in pairs} != set(p.labels()):
                    continue
                if {y for _, y in pairs} != set(q.labels()):
                    continue
                rel = rc.ClosedRelation(p, q, pairs)
                if not rc.weak_hypothesis(rel)["holds"]:
                    continue
                report = rc.verify_closed_relation(rel, "weak")
                assert report["verdict"] == "confirmed"
                checked += 1
        assert checked > 0
