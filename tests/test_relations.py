import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import relcomplex as rc
from relcomplex.errors import (
    AmbiguousLabelError,
    DomainError,
    EmptyRelationError,
    NotCoveredError,
    UniverseMismatchError,
    UnknownVertexError,
)

import oracles


@st.composite
def covered_relations(draw, max_x=4, max_y=4):
    nx = draw(st.integers(1, max_x))
    ny = draw(st.integers(1, max_y))
    xl = [f"x{i}" for i in range(nx)]
    yl = [f"y{i}" for i in range(ny)]
    pairs = []
    for y in yl:
        support = draw(st.sets(st.sampled_from(xl), min_size=1))
        pairs.extend((x, y) for x in support)
    return rc.Relation(xl, yl, pairs)


def leq_relation(p: rc.Poset) -> rc.Relation:
    return rc.Relation(p.elements, p.elements, oracles.poset_pairs(p))


class TestCoverage:
    def test_membership_relation_is_covered(self, boundary2):
        assert rc.is_covered(rc.canonical_relation(boundary2))

    def test_uncovered_y(self):
        r = rc.Relation("1", "uv", [("1", "u")])
        assert not rc.is_covered(r)

    def test_order_relation_is_covered(self, circle4):
        assert rc.is_covered(leq_relation(circle4))


class TestTranspose:
    def test_single_pair(self):
        r = rc.Relation("1", "u", [("1", "u")])
        assert rc.transpose(r).pairs == frozenset({("u", "1")})

    def test_symmetric_relation_fixed(self):
        pairs = [("a", "b"), ("b", "a"), ("a", "a")]
        r = rc.Relation("ab", "ab", pairs)
        assert rc.transpose(r) == r

    def test_order_transposes_to_reversed_order(self, circle4):
        r = leq_relation(circle4)
        assert rc.transpose(r).pairs == frozenset((b, a) for a, b in oracles.poset_pairs(circle4))

    @given(covered_relations())
    def test_involution(self, r):
        assert rc.transpose(rc.transpose(r)) == r


class TestKComplex:
    def test_circle4_facets(self, circle4):
        k = rc.k_complex(leq_relation(circle4))
        assert k.facet_labels() == (("1", "2", "3"), ("1", "2", "4"))
        core, _ = rc.greedy_collapse(k)
        assert core.is_point

    def test_single_pair_point(self):
        k = rc.k_complex(rc.Relation("a", "u", [("a", "u")]))
        assert k.is_point

    def test_circle6_facets(self, circle6):
        k = rc.k_complex(leq_relation(circle6))
        # oracle: enumerate subsets with a common upper bound
        expected = set()
        for labels in itertools.chain.from_iterable(
            itertools.combinations("abcdef", r) for r in (1, 2, 3)
        ):
            if any(all(circle6.leq(x, y) for x in labels) for y in "abcdef"):
                expected.add(labels)
        maximal = {
            s for s in expected if not any(set(s) < set(t) for t in expected)
        }
        assert set(k.facet_labels()) == maximal == {
            ("a", "b", "d"),
            ("a", "c", "e"),
            ("b", "c", "f"),
        }

    def test_empty_relation_rejected(self):
        with pytest.raises(EmptyRelationError):
            rc.k_complex(rc.Relation("a", "u", []))

    @given(covered_relations())
    def test_l_complex_is_k_of_transpose(self, r):
        l = rc.l_complex(r)
        k_of_transpose = rc.k_complex(rc.transpose(r))
        assert l == k_of_transpose
        assert l.facets() == k_of_transpose.facets() == oracles.scan_facets(l)


class TestLComplex:
    def test_empty_relation_rejected(self):
        with pytest.raises(EmptyRelationError):
            rc.l_complex(rc.Relation("a", "u", []))

    def test_circle4_facets(self, circle4):
        l = rc.l_complex(leq_relation(circle4))
        assert l.facet_labels() == (("1", "3", "4"), ("2", "3", "4"))

    def test_single_y_point(self):
        l = rc.l_complex(rc.Relation("abc", "u", [("a", "u"), ("b", "u")]))
        assert l.is_point

    def test_nerve_of_a_cover(self):
        cover = {"A": {"1", "2", "3"}, "B": {"3", "4", "5"}}
        member = rc.Relation(
            "12345", cover.keys(), [(x, u) for u, xs in cover.items() for x in xs]
        )
        nerve = rc.l_complex(member)
        assert nerve.facet_labels() == (("A", "B"),)


class TestSupport:
    def test_circle4_support(self, circle4):
        assert leq_relation(circle4).support("3") == ("1", "2", "3")

    def test_singleton_support(self):
        r = rc.Relation("ab", "uv", [("a", "u"), ("a", "v"), ("b", "v")])
        assert r.support("u") == ("a",)

    def test_full_column(self):
        r = rc.Relation("abc", "u", [(x, "u") for x in "abc"])
        assert r.support("u") == ("a", "b", "c")

    def test_uncovered_support_is_empty(self):
        r = rc.Relation("a", "uv", [("a", "u")])
        assert r.support("v") == ()

    def test_support_is_a_face(self, circle4):
        r = leq_relation(circle4)
        k = rc.k_complex(r)
        for y in r.y_universe:
            assert k.has_face_labels(r.support(y))


class TestCanonicalRelation:
    def test_point(self):
        r = rc.canonical_relation(rc.complex_from_facets("a", [("a",)]))
        assert len(r.y_universe) == 1 and len(r.pairs) == 1

    def test_triangle_boundary(self, boundary2):
        r = rc.canonical_relation(boundary2)
        assert len(r.y_universe) == 6
        assert rc.k_complex(r) == boundary2

    def test_full_simplex(self):
        k = oracles.full_complex("123")
        r = rc.canonical_relation(k)
        assert len(r.y_universe) == 7
        assert rc.k_complex(r) == k

    def test_comma_labels_rejected(self):
        k = rc.complex_from_facets(["a,b"], [("a,b",)])
        with pytest.raises(AmbiguousLabelError, match="'a,b'"):
            rc.canonical_relation(k)

    @given(st.data())
    def test_galois_round_trip(self, data):
        labels = [str(i) for i in range(1, data.draw(st.integers(1, 5)) + 1)]
        facets = data.draw(
            st.lists(
                st.sets(st.sampled_from(labels), min_size=1).map(tuple),
                min_size=1,
                max_size=4,
            )
        )
        t = rc.complex_from_facets(labels, facets)
        assert rc.k_complex(rc.canonical_relation(t)) == t


class TestMorphisms:
    def test_identity_is_morphism(self):
        r = rc.Relation("ab", "uv", [("a", "u"), ("b", "v")])
        assert rc.is_morphism({"u": "u", "v": "v"}, r, r)

    def test_everything_maps_to_full_column(self):
        r = rc.Relation("ab", "uv", [("a", "u"), ("b", "v")])
        star = rc.Relation("ab", "*", [("a", "*"), ("b", "*")])
        assert rc.is_morphism({"u": "*", "v": "*"}, r, star)

    def test_collapsing_incomparable_supports_fails(self):
        r = rc.Relation("12", "uv", [("1", "u"), ("2", "v")])
        r2 = rc.Relation("12", "w", [("1", "w")])
        assert not rc.is_morphism({"u": "w", "v": "w"}, r, r2)

    def test_universe_mismatch_rejected(self):
        r = rc.Relation("ab", "u", [("a", "u")])
        r2 = rc.Relation("xy", "u", [("x", "u")])
        with pytest.raises(UniverseMismatchError):
            rc.is_morphism({"u": "u"}, r, r2)

    def test_partial_assignment_rejected(self):
        r = rc.Relation("ab", "uv", [("a", "u"), ("b", "v")])
        with pytest.raises(ValueError):
            rc.is_morphism({"u": "u"}, r, r)

    def test_morphism_object_validates(self):
        r = rc.Relation("12", "uv", [("1", "u"), ("2", "v")])
        r2 = rc.Relation("12", "w", [("1", "w")])
        with pytest.raises(ValueError):
            rc.RelationMorphism(r, r2, {"u": "w", "v": "w"})


class TestInducedMaps:
    def test_identity_morphism_gives_identity_map(self):
        r = rc.Relation("ab", "uv", [("a", "u"), ("b", "v")])
        m = rc.RelationMorphism(r, r, {"u": "u", "v": "v"})
        vm = rc.induced_l_map(m)
        assert vm.mapping == {"u": "u", "v": "v"}
        l = rc.l_complex(r)
        assert rc.apply_simplicial_map(vm, l, l) == l

    def test_constant_morphism(self):
        r = rc.Relation("ab", "uv", [("a", "u"), ("b", "v"), ("a", "v")])
        star = rc.Relation("ab", "*", [("a", "*"), ("b", "*")])
        m = rc.RelationMorphism(r, star, {"u": "*", "v": "*"})
        image = rc.apply_simplicial_map(
            rc.induced_l_map(m), rc.l_complex(r), rc.l_complex(star)
        )
        assert image.is_point

    @given(covered_relations(max_x=3, max_y=3), st.data())
    def test_parallel_morphisms_are_contiguous(self, r, data):
        target = rc.canonical_relation(rc.k_complex(r))
        fs = []
        ys = list(r.y_universe)
        zs = list(target.y_universe)
        for values in itertools.product(zs, repeat=len(ys)):
            f = dict(zip(ys, values))
            if all((x, f[y]) in target.pairs for x, y in r.pairs):
                fs.append(f)
                if len(fs) == 8:
                    break
        ls, lt = rc.l_complex(r), rc.l_complex(target)
        for fa, fb in itertools.combinations(fs, 2):
            ma = rc.RelationMorphism(r, target, fa)
            mb = rc.RelationMorphism(r, target, fb)
            assert rc.are_contiguous(
                rc.induced_l_map(ma), rc.induced_l_map(mb), ls, lt
            )


@st.composite
def morphism_pairs(draw, max_x=5, max_y=5):
    """Two relations, mostly over one X and covered; the rest exercise each error."""
    xl = [f"x{i}" for i in range(draw(st.integers(1, max_x)))]

    def make(tag, xs):
        ys = [f"{tag}{j}" for j in range(draw(st.integers(1, max_y)))]
        least = draw(st.sampled_from([1, 1, 1, 1, 0]))  # an empty support now and then
        supports = [draw(st.sets(st.sampled_from(xs), min_size=least)) for _ in ys]
        return rc.Relation(xs, ys, [(x, y) for y, s in zip(ys, supports) for x in s])

    other = xl if draw(st.integers(0, 9)) else xl + ["x9"]
    return make("y", xl), make("z", other)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of the domain error it raises."""
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc), str(exc)


class TestFindMorphism:
    def test_self_morphism_exists(self, circle4):
        r = leq_relation(circle4)
        f = rc.find_morphism(r, r)
        assert f is not None and rc.is_morphism(f, r, r)

    def test_edge_into_full_simplex_one_way(self):
        edge = rc.Relation("abc", "e", [("a", "e"), ("b", "e")])
        full = rc.canonical_relation(oracles.full_complex("abc"))
        # x universes must match for the correspondence
        full = rc.Relation("abc", full.y_universe, full.pairs)
        assert rc.find_morphism(edge, full) is not None
        assert rc.find_morphism(full, edge) is None

    def test_refinement_map(self):
        points = "12345"
        coarse = {"A": {"1", "2", "3"}, "B": {"3", "4", "5"}}
        fine = {"C": {"1", "2"}, "D": {"3"}, "E": {"4", "5"}}
        to_rel = lambda cover: rc.Relation(
            points, cover.keys(), [(x, u) for u, xs in cover.items() for x in xs]
        )
        f = rc.find_morphism(to_rel(fine), to_rel(coarse))
        assert f is not None
        for v, u in f.items():
            assert fine[v] <= coarse[u]

    def test_uncovered_input_rejected(self):
        r = rc.Relation("a", "uv", [("a", "u")])
        with pytest.raises(NotCoveredError):
            rc.find_morphism(r, r)

    @given(st.data())
    def test_existence_matches_subcomplex_order(self, data):
        nx = data.draw(st.integers(1, 3))
        xl = [f"x{i}" for i in range(nx)]

        def make(tag):
            ny = data.draw(st.integers(1, 3))
            pairs = []
            for i in range(ny):
                support = data.draw(st.sets(st.sampled_from(xl), min_size=1))
                pairs.extend((x, f"{tag}{i}") for x in support)
            return rc.Relation(xl, [f"{tag}{i}" for i in range(ny)], pairs)
        r, r2 = make("y"), make("z")
        f = rc.find_morphism(r, r2)
        subset = rc.is_subcomplex(rc.k_complex(r), rc.k_complex(r2))
        assert (f is not None) == subset
        if f is not None:
            assert rc.is_morphism(f, r, r2)

    @settings(max_examples=200)
    @given(morphism_pairs())
    def test_against_the_set_scan(self, pair):
        """The same least-z assignment, verdict and first error as the set scan."""
        got = outcome(rc.find_morphism, *pair)
        assert got == outcome(oracles.scan_find_morphism, *pair)
        if isinstance(got, dict):
            assert rc.is_morphism(got, *pair)

    def test_existence_matches_brute_force(self):
        rng = random.Random(20240810)
        for _ in range(60):
            r = oracles.random_covered_relation(rng, "wxyz"[: rng.randint(1, 4)], "AB")
            r2 = oracles.random_covered_relation(rng, r.x_universe.labels, "CDE")
            assert (rc.find_morphism(r, r2) is not None) == \
                oracles.brute_force_morphism_exists(r, r2)


class TestEquivalence:
    def test_relation_equivalent_to_its_canonical_form(self):
        rng = random.Random(7)
        for _ in range(25):
            r = oracles.random_covered_relation(rng, "abcd", "uvw")
            assert rc.are_equivalent(r, rc.canonical_relation(rc.k_complex(r)))

    def test_mutually_refining_covers(self):
        points = "123"
        u = {"A": {"1", "2"}, "B": {"2", "3"}}
        v = {"C": {"1", "2"}, "D": {"2", "3"}, "E": {"2"}}
        to_rel = lambda cover: rc.Relation(
            points, cover.keys(), [(x, s) for s, xs in cover.items() for x in xs]
        )
        assert rc.are_equivalent(to_rel(u), to_rel(v))

    def test_order_not_equivalent_to_star_without_maximum(self, circle4):
        r = leq_relation(circle4)
        star = rc.Relation(r.x_universe, "*", [(x, "*") for x in r.x_universe])
        assert not rc.are_equivalent(r, star)
        # with a maximum adjoined the star relation becomes equivalent
        chain = rc.poset_from_pairs("12", [("1", "2")])
        r2 = leq_relation(chain)
        star2 = rc.Relation(r2.x_universe, "*", [(x, "*") for x in r2.x_universe])
        assert rc.are_equivalent(r2, star2)

    def test_equivalent_relations_share_complexes(self):
        rng = random.Random(11)
        for _ in range(40):
            r = oracles.random_covered_relation(rng, "abc", "uv")
            r2 = oracles.random_covered_relation(rng, "abc", "UVW")
            if rc.are_equivalent(r, r2):
                assert rc.k_complex(r) == rc.k_complex(r2)
                assert rc.same_homology(rc.l_complex(r), rc.l_complex(r2))

    def test_reflexive_symmetric_transitive(self):
        rng = random.Random(13)
        rels = [oracles.random_covered_relation(rng, "abc", "uv") for _ in range(12)]
        for r in rels:
            assert rc.are_equivalent(r, r)
        for r, s in itertools.combinations(rels, 2):
            assert rc.are_equivalent(r, s) == rc.are_equivalent(s, r)
        for r, s, t in itertools.combinations(rels, 3):
            if rc.are_equivalent(r, s) and rc.are_equivalent(s, t):
                assert rc.are_equivalent(r, t)


class TestUnknownLabels:
    """Relation names the first unknown label of its pairs, x before y."""

    def test_first_unknown_label_in_input_order(self):
        for pairs, label in [
            ([("a", "x"), ("c", "w"), ("d", "y")], "c"),
            ([("a", "w"), ("c", "x")], "w"),
            ([("a", "x"), ("b", "a")], "a"),  # an X label is unknown in Y
        ]:
            with pytest.raises(UnknownVertexError) as exc:
                rc.Relation("ab", "xy", pairs)
            assert exc.value.label == label, pairs

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "x"]), st.sampled_from(["x", "y", "w", "a"]))))
    def test_against_a_scan_of_the_pairs(self, pairs):
        unknown = [lab for pair in pairs for lab, known in zip(pair, ("ab", "xy")) if lab not in known]
        if not unknown:
            assert rc.Relation("ab", "xy", pairs).pairs == frozenset(pairs)
            return
        with pytest.raises(UnknownVertexError) as exc:
            rc.Relation("ab", "xy", pairs)
        assert exc.value.label == unknown[0]


@st.composite
def relations(draw, max_x=4, max_y=4):
    """A relation over "x0".."x{n-1}" and "y0".."y{m-1}", not always covered."""
    xl = [f"x{i}" for i in range(draw(st.integers(1, max_x)))]
    yl = [f"y{j}" for j in range(draw(st.integers(1, max_y)))]
    return rc.Relation(xl, yl, draw(st.sets(st.tuples(st.sampled_from(xl), st.sampled_from(yl)))))


def rebuilt(r: rc.Relation) -> rc.Relation:
    """``r`` as the validating constructor builds it from its pairs."""
    return rc.Relation(r.x_universe, r.y_universe, r.pairs)


class TestOneRepresentation:
    """A relation keeps its supports only; the trusted builders give what the
    validating constructor gives on their pairs."""

    @given(relations())
    def test_pairs_round_trip(self, r):
        assert rebuilt(r) == r
        assert rebuilt(rc.transpose(r)) == rc.transpose(r)
        assert rc.transpose(rc.transpose(r)) == r
        assert rc.transpose(r).pairs == frozenset((y, x) for x, y in r.pairs)
        for y in r.y_universe:
            assert r.support(y) == tuple(sorted(x for x, z in r.pairs if z == y))

    @given(oracles.complexes())
    def test_canonical_relation(self, t):
        r = rc.canonical_relation(t)
        assert rebuilt(r) == r
        assert r == oracles.label_membership_relation(t.universe, oracles.label_faces(t))

    def test_canonical_relation_decodes_no_faces(self, monkeypatch):
        t = rc.complex_from_facets("abcde", [("a", "b", "c"), ("c", "d"), ("e",)])

        def no_decoding(universe, mask):
            raise AssertionError("a face mask was decoded")

        monkeypatch.setattr(rc.Universe, "_face", no_decoding)
        r = rc.canonical_relation(t)
        assert r.support("a,b,c") == ("a", "b", "c") and len(r.y_universe) == 10

    @given(relations(), relations(), st.randoms(use_true_random=False))
    def test_eq_and_hash_follow_the_pairs(self, r, s, rng):
        kept = [(x, y) for x, y in s.pairs if x in r.x_universe and y in r.y_universe]
        s = rc.Relation(r.x_universe, r.y_universe, kept)
        assert (r == s) == (r.pairs == s.pairs)
        assert r != s or hash(r) == hash(s)
        shuffled = sorted(r.pairs) * 2
        rng.shuffle(shuffled)
        same = rc.Relation(r.x_universe, r.y_universe, shuffled)
        assert same == r and hash(same) == hash(r)

    def test_universes_count_too(self):
        r = rc.Relation("ab", "y", [("a", "y")])
        assert r != rc.Relation("abc", "y", [("a", "y")])
        assert r != rc.Relation("ab", "yz", [("a", "y")])
        assert repr(r) == "Relation(2x1, 1 pairs)"
