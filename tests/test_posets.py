import itertools
import os
import random
import subprocess
import sys
from operator import and_, or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relcomplex as rc
from relcomplex.errors import (
    AmbiguousLabelError,
    CycleDetectedError,
    EmptyRelationError,
    EmptyResultError,
    InvalidTopologyError,
    NotRealizableError,
    NotT0Error,
    TooManyFacesError,
    TooManyOpensError,
    UnknownVertexError,
)
from relcomplex import formats, posets as posets_module
from relcomplex.posets import singleton_component_witness

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"


posets = oracles.posets


# "(a+,x)" sorts before "(a,x)" though "a" sorts before "a+": the pair
# labels of a product do not sort as the pairs do
ODD_LABELS = ["a", "a+", "a0", "b", "!"]


@st.composite
def odd_posets(draw, max_elements=4):
    labels = draw(st.lists(st.sampled_from(ODD_LABELS), min_size=1, max_size=max_elements, unique=True))
    return rc.poset_from_pairs(labels, [
        (a, b) for a, b in itertools.combinations(labels, 2) if draw(st.booleans())
    ])


class TestConstruction:
    def test_circle4(self, circle4):
        assert circle4.leq("1", "3") and circle4.leq("2", "4")
        assert not circle4.leq("3", "1") and not circle4.leq("3", "4")

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetectedError) as exc:
            rc.poset_from_pairs("ab", [("a", "b"), ("b", "a")])
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b"}

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleDetectedError):
            rc.poset_from_pairs("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_transitive_closure_applied(self):
        p = rc.poset_from_pairs("123", [("1", "2"), ("2", "3")])
        assert p.leq("1", "3")

    @given(posets())
    def test_closure_is_a_partial_order(self, p):
        labels = p.labels()
        for a in labels:
            assert p.leq(a, a)
        for a, b in itertools.permutations(labels, 2):
            if p.leq(a, b) and p.leq(b, a):
                pytest.fail("antisymmetry violated")
        for a, b, c in itertools.product(labels, repeat=3):
            if p.leq(a, b) and p.leq(b, c):
                assert p.leq(a, c)


class TestUpDownSets:
    def test_down_set(self, circle4):
        assert rc.down_set(circle4, "3") == {"1", "2", "3"}

    def test_minimal_element(self, circle4):
        assert rc.down_set(circle4, "1") == {"1"}

    def test_maximal_element(self, circle4):
        assert rc.up_set(circle4, "4") == {"4"}

    def test_up_set(self, circle4):
        assert rc.up_set(circle4, "1") == {"1", "3", "4"}


class TestTopologyDictionary:
    def test_antichain_gives_discrete(self):
        t = rc.order_to_topology(rc.poset_from_pairs("12", []))
        assert len(t.opens) == 4

    def test_chain_gives_nested_opens(self):
        t = rc.order_to_topology(rc.poset_from_pairs("12", [("1", "2")]))
        assert t.open_label_sets() == ((), ("1",), ("1", "2"))

    def test_circle4_minimal_opens(self, circle4):
        t = rc.order_to_topology(circle4)
        assert oracles.minimal_open(t, "3") == {"1", "2", "3"}
        assert oracles.minimal_open(t, "1") == {"1"}
        expected = {frozenset(), frozenset("1"), frozenset("2"), frozenset("12"),
                    frozenset("123"), frozenset("124"), frozenset("1234")}
        assert {frozenset(o) for o in t.open_label_sets()} == expected

    def test_sierpinski_to_chain(self):
        t = rc.FiniteTopology(rc.Universe("12"), [frozenset("1"), frozenset("12")])
        p = rc.topology_to_order(t)
        assert "1" != "2" and p.leq("1", "2")

    def test_discrete_to_antichain(self):
        t = rc.FiniteTopology(
            rc.Universe("12"), [frozenset("1"), frozenset("2"), frozenset("12")]
        )
        p = rc.topology_to_order(t)
        assert not p.leq("1", "2") and not p.leq("2", "1")

    def test_indiscrete_not_t0(self):
        t = rc.FiniteTopology(rc.Universe("12"), [frozenset("12")])
        with pytest.raises(NotT0Error) as exc:
            rc.topology_to_order(t)
        assert exc.value.pair == ("1", "2")

    def test_non_topology_rejected(self):
        with pytest.raises(InvalidTopologyError):
            rc.FiniteTopology(rc.Universe("123"), [frozenset("1"), frozenset("2")])
        with pytest.raises(InvalidTopologyError):
            rc.FiniteTopology(
                rc.Universe("123"),
                [frozenset("12"), frozenset("23"), frozenset("123")],
            )

    def test_open_labels_must_be_points(self):
        with pytest.raises(UnknownVertexError, match="^unknown vertex label '3'$") as exc:
            rc.FiniteTopology(rc.Universe("12"), [["1", "2"], ["2", "3"]])
        assert exc.value.label == "3"
        t = rc.FiniteTopology(rc.Universe("12"), [["1", "1"], ["1", "2", "2"]])
        assert t.open_label_sets() == ((), ("1",), ("1", "2"))

    @given(posets())
    def test_round_trip_from_poset(self, p):
        assert rc.topology_to_order(rc.order_to_topology(p)) == p

    @given(posets(max_elements=4))
    def test_round_trip_from_topology(self, p):
        t = rc.order_to_topology(p)
        assert rc.order_to_topology(rc.topology_to_order(t)) == t

    @given(posets(max_elements=6) | odd_posets())
    def test_open_limit_is_the_exact_open_count(self, p):
        # the down-sets, counted over every subset of the elements
        opens = sum(all(d & ~m == 0 for i, d in enumerate(p.down) if m >> i & 1) for m in range(1 << len(p)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(posets_module, "_MAX_FACES", opens)
            assert len(rc.order_to_topology(p).opens) == opens
            mp.setattr(posets_module, "_MAX_FACES", opens - 1)
            with pytest.raises(TooManyOpensError, match="open sets") as exc:
                rc.order_to_topology(p)
        assert (exc.value.opens, exc.value.limit) == (opens, opens - 1)


@st.composite
def open_families(draw, max_points=6):
    """Points and a list of label sets over them, with the whole set among them.

    A raw draw is seldom a topology, so a draw may instead close its sets
    under union and intersection, and then drop one of them: valid families
    and near misses of each kind come up too.
    """
    n = draw(st.integers(0, max_points))
    labels = [str(i) for i in range(1, n + 1)]
    subsets = st.frozensets(st.sampled_from(labels)) if n else st.just(frozenset())
    family = draw(st.lists(subsets, min_size=2, max_size=12)) + [frozenset(labels)]
    mode = draw(st.sampled_from(["raw", "closed", "near miss"]))
    if mode != "raw":
        closed = set(family)
        while True:
            more = {op(a, b) for a in closed for b in closed for op in (or_, and_)}
            if more <= closed:
                break
            closed |= more
        family = draw(st.permutations(sorted(closed, key=sorted)))
        if mode == "near miss":
            del family[draw(st.integers(0, len(family) - 1))]
    return labels, family


class TestTopologyCheck:
    @settings(max_examples=400)
    @given(open_families())
    def test_matches_the_pairwise_check(self, drawn):
        points, family = drawn
        try:
            expected = oracles.pairwise_topology(points, family)
        except InvalidTopologyError as exc:
            with pytest.raises(InvalidTopologyError) as got:
                rc.FiniteTopology(points, family)
            assert str(got.value) == str(exc)
        else:
            t = rc.FiniteTopology(points, family)
            assert t.opens == expected
            assert list(t._mins) == [
                oracles.rescan_minimal_open(t, i) for i in range(len(points))
            ]

    @given(posets(max_elements=6))
    def test_order_topology_is_the_validated_one(self, p):
        t = rc.order_to_topology(p)
        assert t == rc.FiniteTopology(p.elements, t.open_label_sets())
        assert list(t._mins) == [
            oracles.rescan_minimal_open(t, i) for i in range(len(p))
        ]

    def test_twelve_element_antichain(self):
        p = rc.poset_from_pairs([f"a{i:02}" for i in range(12)], [])
        t = rc.order_to_topology(p)
        assert len(t.opens) == 4096
        text = rc.formats.serialize(oracles.topology_to_document(t, "A"))
        assert rc.formats.to_topology(rc.formats.parse(text)) == t
        assert rc.topology_to_order(t) == p


class TestOrderComplex:
    def test_circle4_is_a_four_cycle(self, circle4):
        c = rc.order_complex(circle4)
        assert c.facet_labels() == (("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"))
        assert rc.homology(c).betti == (1, 1)

    def test_chain_gives_full_simplex(self):
        p = rc.poset_from_pairs("123", [("1", "2"), ("2", "3")])
        assert rc.order_complex(p) == oracles.full_complex("123")

    def test_antichain_gives_points(self):
        c = rc.order_complex(rc.poset_from_pairs("123", []))
        assert c.facet_labels() == (("1",), ("2",), ("3",))

    @given(posets())
    def test_matches_subset_filter_oracle(self, p):
        assert oracles.label_faces(rc.order_complex(p)) == frozenset(
            oracles.naive_chain_faces(p)
        )

    @given(posets(max_elements=6) | odd_posets())
    def test_face_limit_is_the_exact_chain_count(self, p):
        # the chains are the faces, which a reader of faces checks against the limit;
        # the maximal chains are the facets, which the order complex checks
        assert posets_module._chain_count(p) == len(oracles.naive_chain_faces(p))
        facets = oracles.maximal_chain_count(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(posets_module, "_MAX_FACES", facets)
            assert len(rc.order_complex(p).facets()) == facets
            mp.setattr(posets_module, "_MAX_FACES", facets - 1)
            with pytest.raises(TooManyFacesError) as exc:
                rc.order_complex(p)
        assert (exc.value.faces, exc.value.limit) == (facets, facets - 1)

    def test_maximal_chains_past_the_limit_are_refused_before_any_is_listed(self):
        # 40 layers of two, each below the next: 2^40 maximal chains, which no
        # listing could reach, and 3^40 - 1 chains
        layers = [(f"a{i:02d}", f"b{i:02d}") for i in range(40)]
        p = rc.poset_from_pairs([e for layer in layers for e in layer], [
            (a, b) for low, high in zip(layers, layers[1:]) for a in low for b in high
        ])
        assert posets_module._chain_count(p) == 3**40 - 1
        with pytest.raises(TooManyFacesError) as exc:
            rc.order_complex(p)
        assert (exc.value.faces, exc.value.limit) == (2**40, 1 << 24)

    @settings(max_examples=200, deadline=2000)
    @given(posets(max_elements=7) | odd_posets())
    def test_matches_every_chain_walked(self, p):
        got, walked = rc.order_complex(p), oracles.walked_order_complex(p)
        assert got == walked and got.facets() == walked.facets() == oracles.scan_facets(got)
        assert got._faces() == walked._faces()


class TestDowkerComplexes:
    def test_circle4_k(self, circle4):
        k = rc.poset_dowker_complex(circle4, False, "k")
        assert k.facet_labels() == (("1", "2", "3"), ("1", "2", "4"))

    def test_circle4_strict_k(self, circle4):
        k = rc.poset_dowker_complex(circle4, True, "k")
        assert k.facet_labels() == (("1", "2"),)

    def test_antichain_strict_is_empty(self):
        p = rc.poset_from_pairs("12", [])
        for side in ("k", "l"):
            with pytest.raises(EmptyResultError):
                rc.poset_dowker_complex(p, True, side)

    def test_bad_side_rejected(self, circle4):
        with pytest.raises(ValueError):
            rc.poset_dowker_complex(circle4, False, "K")

    @given(posets())
    def test_nerve_identification(self, p):
        labels = p.labels()
        down_pairs = [(x, y) for y in labels for x in rc.down_set(p, y)]
        up_pairs = [(x, y) for y in labels for x in rc.up_set(p, y)]
        nerve_opens = rc.l_complex(rc.Relation(p.elements, p.elements, down_pairs))
        nerve_closed = rc.l_complex(rc.Relation(p.elements, p.elements, up_pairs))
        assert rc.poset_dowker_complex(p, False, "l") == nerve_opens
        assert rc.poset_dowker_complex(p, False, "k") == nerve_closed

    @settings(max_examples=100)
    @pytest.mark.parametrize("strict, side", [(False, "k"), (False, "l"), (True, "k"), (True, "l")])
    @given(p=posets(max_elements=6) | odd_posets())
    def test_against_the_label_route(self, strict, side, p):
        def build(make):
            try:
                return make(p, strict, side)
            except EmptyResultError:
                return "empty"

        got = build(rc.poset_dowker_complex)
        assert got == build(oracles.label_poset_dowker_complex)
        if got != "empty":
            assert got.facets() == oracles.scan_facets(got)

    @given(posets())
    def test_chain_complex_sits_inside_both(self, p):
        c = rc.order_complex(p)
        assert rc.is_subcomplex(c, rc.poset_dowker_complex(p, False, "k"))
        assert rc.is_subcomplex(c, rc.poset_dowker_complex(p, False, "l"))


class TestMaximalElements:
    def test_circle4(self, circle4):
        assert rc.maximal_elements(circle4) == ("3", "4")
        assert rc.maximum(circle4) is None

    def test_chain_maximum_gives_full_k(self):
        p = rc.poset_from_pairs("123", [("1", "2"), ("2", "3")])
        assert rc.maximal_elements(p) == ("3",)
        assert rc.maximum(p) == "3"
        assert rc.poset_dowker_complex(p, False, "k") == oracles.full_complex("123")

    def test_antichain(self):
        p = rc.poset_from_pairs("12", [])
        assert rc.maximal_elements(p) == ("1", "2")

    @given(posets())
    def test_maximum_iff_full_k_complex(self, p):
        full = rc.poset_dowker_complex(p, False, "k") == oracles.full_complex(p.elements)
        assert full == (rc.maximum(p) is not None)

    @given(posets())
    def test_each_facet_owns_one_maximal_element(self, p):
        k = rc.poset_dowker_complex(p, False, "k")
        tops = set(rc.maximal_elements(p))
        seen = {}
        for facet in k.facet_labels():
            inside = tops & set(facet)
            assert len(inside) == 1
            seen.setdefault(next(iter(inside)), []).append(facet)
        assert set(seen) == tops
        for facets in seen.values():
            assert len(facets) == 1


class TestLatticeCondition:
    def test_chain(self):
        assert rc.lattice_condition_witness(rc.poset_from_pairs("123", [("1", "2"), ("2", "3")])) is None

    def test_circle4_fails_with_witness(self, circle4):
        assert rc.lattice_condition_witness(circle4) is not None
        assert rc.lattice_condition_witness(circle4) == ("3", "4")
        assert rc.down_set(circle4, "3") & rc.down_set(circle4, "4") == {"1", "2"}

    def test_face_poset_of_a_simplex(self):
        faces = ["1", "2", "3", "12", "13", "23", "123"]
        pairs = [
            (a, b) for a in faces for b in faces if set(a) <= set(b) and a != b
        ]
        p = rc.poset_from_pairs(faces, pairs)
        assert rc.lattice_condition_witness(p) is None

    def test_implies_chain_complex_matches_l(self):
        rng = random.Random(42)
        for _ in range(120):
            p = oracles.random_poset(rng, [str(i) for i in range(1, 6)])
            if rc.lattice_condition_witness(p) is None:
                assert rc.same_homology(
                    rc.order_complex(p), rc.poset_dowker_complex(p, False, "l")
                )


class TestRealize:
    def test_boundary_of_simplex_rejected(self, boundary2):
        with pytest.raises(NotRealizableError) as exc:
            rc.realize_as_poset_k_complex(boundary2)
        assert exc.value.facet == ("a", "b")

    def test_circle4_k_realizes_back(self, circle4):
        k = rc.complex_from_facets("1234", [("1", "2", "3"), ("1", "2", "4")])
        p = rc.realize_as_poset_k_complex(k)
        assert p == circle4
        assert rc.poset_dowker_complex(p, False, "k") == k

    def test_full_simplex(self):
        k = oracles.full_complex("abc")
        p = rc.realize_as_poset_k_complex(k)
        assert rc.poset_dowker_complex(p, False, "k") == k
        assert rc.order_complex(p).dimension() <= 1

    def test_incomplete_complex_rejected(self):
        k = rc.SimplicialComplex(rc.Universe("ab"), [(0,)])
        with pytest.raises(ValueError):
            rc.realize_as_poset_k_complex(k)

    def test_exhaustive_small_realizations(self):
        # every complete complex on <= 4 vertices: realize iff private vertices
        for n in range(1, 5):
            labels = [str(i) for i in range(1, n + 1)]
            subsets = [
                tuple(s)
                for r in range(1, n + 1)
                for s in itertools.combinations(labels, r)
            ]
            for r in range(1, min(len(subsets), 5) + 1):
                for family in itertools.combinations(subsets, r):
                    if any(
                        set(a) < set(b)
                        for a, b in itertools.permutations(family, 2)
                    ):
                        continue
                    if set().union(*map(set, family)) != set(labels):
                        continue
                    t = rc.complex_from_facets(labels, family)
                    private_ok = all(
                        any(
                            all(v not in f2 for f2 in family if f2 != f)
                            for v in f
                        )
                        for f in family
                    )
                    if not private_ok:
                        with pytest.raises(NotRealizableError):
                            rc.realize_as_poset_k_complex(t)
                        continue
                    p = rc.realize_as_poset_k_complex(t)
                    assert rc.poset_dowker_complex(p, False, "k") == t
                    assert rc.order_complex(p).dimension() <= 1


class TestProductAndComponents:
    def test_square_of_chain_is_diamond(self):
        chain = rc.poset_from_pairs("01", [("0", "1")])
        d = rc.product_poset(chain, chain)
        assert len(d) == 4
        assert rc.maximum(d) == "(1,1)"
        assert rc.maximal_elements(rc.dual_poset(d)) == ("(0,0)",)

    def test_product_with_singleton(self, circle4):
        single = rc.poset_from_pairs("s", [])
        prod = rc.product_poset(circle4, single)
        assert len(prod) == 4
        assert sorted(len(rc.down_set(prod, e)) for e in prod.labels()) == sorted(
            len(rc.down_set(circle4, e)) for e in circle4.labels()
        )

    def test_circle4_times_chain(self, circle4):
        chain = rc.poset_from_pairs("01", [("0", "1")])
        prod = rc.product_poset(circle4, chain)
        assert len(prod) == 8
        for a in circle4.labels():
            for b in chain.labels():
                expected = len(rc.down_set(circle4, a)) * len(rc.down_set(chain, b))
                assert len(rc.down_set(prod, rc.pair_label(a, b))) == expected

    def test_labels_that_would_collide_are_rejected(self):
        # (a,b,c) would name both (a, "b,c") and ("a,b", c)
        p = rc.poset_from_pairs(["a", "a,b"], [])
        q = rc.poset_from_pairs(["b,c", "c"], [])
        with pytest.raises(AmbiguousLabelError, match="'a,b'") as exc:
            rc.product_poset(p, q)
        assert exc.value.label == "a,b"
        single = rc.poset_from_pairs(["x"], [])
        for label in ("b,c", "(a", "a)"):
            with pytest.raises(AmbiguousLabelError):
                rc.product_poset(single, rc.poset_from_pairs([label], []))
        # products do not iterate: (P x Q) x R meets its own "(x,x)" labels
        with pytest.raises(AmbiguousLabelError, match=r"'\(x,x\)'"):
            rc.product_poset(rc.product_poset(single, single), single)

    def test_c4cubed_file_is_the_componentwise_cube(self, data_dir):
        # built by hand, since the product of products would nest pair labels
        p = formats.to_poset(formats.parse((data_dir / "c4cubed.poset").read_text(encoding="utf-8")))
        assert p == oracles.c4cubed_poset()
        le = lambda a, b: a == b or (a in "12" and b in "34")
        assert oracles.poset_pairs(p) == frozenset(
            (x, y) for x in oracles.C4CUBED for y in oracles.C4CUBED if all(map(le, x, y))
        )

    def test_components(self, circle4):
        assert rc.connected_components(circle4) == (("1", "2", "3", "4"),)
        assert rc.connected_components(rc.poset_from_pairs("12", [])) == (
            ("1",),
            ("2",),
        )
        p = rc.poset_from_pairs("abc", [("a", "b")])
        assert rc.connected_components(p) == (("a", "b"), ("c",))

    @given(posets(max_elements=6) | odd_posets())
    def test_singleton_witness_is_the_first_singleton_component(self, p):
        assert singleton_component_witness(p) == oracles.component_singleton(p)


class TestMembershipRelation:
    def test_sierpinski_nerve(self):
        t = rc.FiniteTopology(rc.Universe("12"), [frozenset("1"), frozenset("12")])
        rel = rc.membership_relation(t)
        assert rc.is_covered(rel)
        assert rc.l_complex(rel).facet_labels() == (("1", "1,2"),)

    def test_discrete_nerve_is_contractible(self):
        t = rc.FiniteTopology(
            rc.Universe("12"), [frozenset("1"), frozenset("2"), frozenset("12")]
        )
        nerve = rc.l_complex(rc.membership_relation(t))
        assert rc.homology(nerve).betti == (1, 0)

    def test_comma_labels_rejected(self):
        t = rc.FiniteTopology(rc.Universe(["a,b", "c"]), [frozenset(["a,b", "c"])])
        with pytest.raises(AmbiguousLabelError, match="'a,b'"):
            rc.membership_relation(t)

    @given(posets(max_elements=4) | odd_posets(max_elements=3))
    def test_against_the_label_route(self, p):
        t = rc.order_to_topology(p)
        rel = rc.membership_relation(t)
        opens = [o for o in t.open_label_sets() if o]
        assert rel == oracles.label_membership_relation(t.points, opens)
        assert rc.Relation(rel.x_universe, rel.y_universe, rel.pairs) == rel

    def test_no_points(self):
        t = rc.FiniteTopology(rc.Universe([]), [[]])
        with pytest.raises(EmptyRelationError, match="^relation universes must be nonempty$"):
            rc.membership_relation(t)

    @given(posets(max_elements=4))
    def test_nerve_and_vietoris_have_equal_homology(self, p):
        rel = rc.membership_relation(rc.order_to_topology(p))
        assert rc.same_homology(rc.k_complex(rel), rc.l_complex(rel))


class TestScaleInvariants:
    def test_poset_enumerator_against_known_counts(self):
        # labelled partial orders on n elements: 1, 3, 19, 219, 4231
        for n, expected in ((1, 1), (2, 3), (3, 19), (4, 219), (5, 4231)):
            labels = tuple(str(i) for i in range(1, n + 1))
            assert len(oracles.all_posets(labels)) == expected

    def test_k_l_same_homology_exhaustive_small(self):
        for n in range(1, 5):
            for p in oracles.all_posets(tuple(str(i) for i in range(1, n + 1))):
                assert rc.same_homology(
                    rc.poset_dowker_complex(p, False, "k"),
                    rc.poset_dowker_complex(p, False, "l"),
                )

    def test_k_l_same_homology_sampled_medium(self):
        rng = random.Random(5150)
        for trial in range(120):
            n = 5 + trial % 2
            p = oracles.random_poset(rng, [str(i) for i in range(1, n + 1)])
            assert rc.same_homology(
                rc.poset_dowker_complex(p, False, "k"),
                rc.poset_dowker_complex(p, False, "l"),
            )

    def _one_maximal_per_facet(self, p):
        k = rc.poset_dowker_complex(p, False, "k")
        tops = set(rc.maximal_elements(p))
        owner = {}
        for facet in k.facet_labels():
            inside = tops & set(facet)
            assert len(inside) == 1
            owner.setdefault(next(iter(inside)), []).append(facet)
        assert set(owner) == tops
        assert all(len(facets) == 1 for facets in owner.values())

    def test_facet_ownership_exhaustive_small(self):
        for n in range(1, 5):
            for p in oracles.all_posets(tuple(str(i) for i in range(1, n + 1))):
                self._one_maximal_per_facet(p)

    def test_facet_ownership_sampled_medium(self):
        rng = random.Random(6021)
        for trial in range(120):
            n = 5 + trial % 2
            self._one_maximal_per_facet(
                oracles.random_poset(rng, [str(i) for i in range(1, n + 1)])
            )


class TestDualAndSubposet:
    def test_dual_swaps_up_and_down(self, circle4):
        d = rc.dual_poset(circle4)
        assert rc.down_set(d, "1") == rc.up_set(circle4, "1")
        assert rc.dual_poset(d) == circle4

    def test_induced_subposet(self, circle6):
        sub = rc.induced_subposet(circle6, ["a", "d", "f"])
        assert "a" != "d" and sub.leq("a", "d") and not sub.leq("a", "f") and not sub.leq("d", "f")

    def test_is_up_set(self, circle4):
        assert oracles.is_up_set(circle4, ["3", "4"])
        assert oracles.is_up_set(circle4, ["1", "3", "4"])
        assert not oracles.is_up_set(circle4, ["1"])


@st.composite
def pair_lists(draw, max_elements=6):
    """Labels and generating pairs in any direction, so that some close into a cycle."""
    n = draw(st.integers(1, max_elements))
    labels = [str(i) for i in range(1, n + 1)]
    label = st.sampled_from(labels)
    return labels, draw(st.lists(st.tuples(label, label), max_size=3 * n))


def outcome(build, *args):
    """The cycle that ``build`` reports, or the universe, up and down masks it builds."""
    try:
        p = build(*args)
    except CycleDetectedError as exc:
        return "cycle", exc.cycle
    return "poset", p.elements, p.up, p.down


def validated(p: rc.Poset) -> tuple:
    """``p`` as the validating constructor builds it from its up masks."""
    return outcome(rc.Poset, p.elements, p.up)


class TestTrustedBuilders:
    """Builders that skip the validating constructor give what it gives."""

    @settings(max_examples=150)
    @given(pair_lists())
    def test_poset_from_pairs(self, labels_pairs):
        got = outcome(rc.poset_from_pairs, *labels_pairs)
        assert got == outcome(oracles.reference_poset_from_pairs, *labels_pairs)
        if got[0] == "poset":
            assert got == validated(rc.poset_from_pairs(*labels_pairs))

    def test_a_cycle_names_shortest_paths_from_the_first_pair(self):
        # 1 and 2 are the first pair on a cycle; 1 -> 3 -> 2 is shorter than 1 -> 4 -> 5 -> 2
        pairs = [("1", "4"), ("4", "5"), ("5", "2"), ("1", "3"), ("3", "2"), ("2", "1")]
        with pytest.raises(CycleDetectedError) as exc:
            rc.poset_from_pairs("12345", pairs)
        assert exc.value.cycle == ("1", "3", "2", "1")

    @given(posets(max_elements=6))
    def test_dual_poset(self, p):
        d = rc.dual_poset(p)
        assert outcome(rc.dual_poset, p) == outcome(rc.Poset, p.elements, p.down)
        assert outcome(rc.dual_poset, d) == validated(p)

    @given(posets(max_elements=6), st.data())
    def test_induced_subposet(self, p, data):
        kept = data.draw(st.sets(st.sampled_from(p.labels())))
        universe = rc.Universe(kept)
        up = [sum(1 << universe.index(b) for b in kept if p.leq(a, b)) for a in universe.labels]
        assert outcome(rc.induced_subposet, p, kept) == outcome(rc.Poset, universe, tuple(up))

    @given(odd_posets(), odd_posets(max_elements=3))
    def test_product_poset(self, p, q):
        got = outcome(rc.product_poset, p, q)
        assert got == outcome(oracles.pairwise_product_poset, p, q)
        assert got == validated(rc.product_poset(p, q))

    @given(oracles.complexes(max_vertices=6, max_facets=5))
    def test_realize_as_poset_k_complex(self, t):
        t = rc.complex_from_facets(t.vertex_labels(), t.facet_labels())
        try:
            p = rc.realize_as_poset_k_complex(t)
        except NotRealizableError as exc:
            others = [set(f) for f in t.facet_labels() if f != exc.facet]
            assert all(any(v in f for f in others) for v in exc.facet)
            return
        assert outcome(rc.realize_as_poset_k_complex, t) == validated(p)
        assert rc.poset_dowker_complex(p, False, "k") == t

    def test_induced_subposet_names_an_unknown_label(self, circle4):
        with pytest.raises(UnknownVertexError):
            rc.induced_subposet(circle4, ["1", "9"])

    def test_induced_subposet_names_the_first_unknown_label_under_any_hash_seed(self):
        """Labels are checked in input order, in fresh interpreters under two
        hash seeds, so the label named does not follow set iteration order."""
        script = (
            "import relcomplex as rc\n"
            "p = rc.poset_from_pairs('abc', [('a', 'b')])\n"
            "try:\n"
            "    rc.induced_subposet(p, ['a', 'zz', 'yy', 'xx', 'ww'])\n"
            "except rc.errors.UnknownVertexError as exc:\n"
            "    print(exc.label)\n"
        )
        for seed in ("1", "4"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert proc.stdout == "zz\n", seed
