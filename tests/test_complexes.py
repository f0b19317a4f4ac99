import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import relcomplex as rc
from relcomplex import complexes as complexes_module
from relcomplex.errors import EmptyComplexError, NotSimplicialError, TooManyFacesError, UnknownVertexError

import oracles
from conftest import corpus_cases


class TestUniverse:
    def test_interning_is_sorted_bijection(self):
        u = rc.Universe(["b", "a", "c", "a"])
        assert u.labels == ("a", "b", "c")
        assert [u.index(lab) for lab in u.labels] == [0, 1, 2]
        assert [u.label(i) for i in range(3)] == ["a", "b", "c"]

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            rc.Universe([""])
        with pytest.raises(UnknownVertexError):
            rc.Universe("ab").index("z")

    @pytest.mark.parametrize("labels", [["a", 1], [1, 2]])
    def test_non_string_label_is_a_value_error(self, labels):
        with pytest.raises(
            ValueError, match="^vertex labels must be nonempty strings, got 1$"
        ):
            rc.Universe(labels)

    @pytest.mark.parametrize("bad", [["a"], {"a": 1}, {"a"}])
    def test_unhashable_label_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="^vertex labels must be nonempty strings, got "):
            rc.Universe(["b", bad])

    def test_labels_from_a_generator(self):
        assert rc.Universe(lab for lab in "bab").labels == ("a", "b")


class TestConstruction:
    def test_triangle_boundary_from_facets(self):
        k = rc.complex_from_facets("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert len(k.faces) == 6
        assert k.facet_labels() == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_single_point(self):
        k = rc.complex_from_facets("a", [("a",)])
        assert k.faces == frozenset({(0,)})
        assert k.is_point

    def test_redundant_facet_absorbed(self):
        k = rc.complex_from_facets("123", [("1", "2", "3"), ("1", "2")])
        assert k.facet_labels() == (("1", "2", "3"),)

    def test_empty_facet_rejected(self):
        with pytest.raises(ValueError):
            rc.complex_from_facets("ab", [()])

    def test_vertex_outside_universe_rejected(self):
        with pytest.raises(UnknownVertexError):
            rc.complex_from_facets("ab", [("a", "z")])

    def test_not_downward_closed_rejected(self):
        u = rc.Universe("ab")
        with pytest.raises(ValueError):
            rc.SimplicialComplex(u, [(0, 1)])
        with pytest.raises(ValueError):
            rc.SimplicialComplex(u, [(1, 0)])
        with pytest.raises(ValueError):
            rc.SimplicialComplex(u, [(0, 5)])

    def test_a_build_past_the_face_bound_is_refused_first(self):
        # one 25-vertex facet: 2^25 - 1 faces, refused at the first face read
        # without building one; the facet alone is not refused
        labels = [f"v{i:02d}" for i in range(25)]
        k = rc.complex_from_facets(labels, [labels])
        assert k.dimension() == 24
        with pytest.raises(TooManyFacesError) as exc:
            k.faces
        assert (exc.value.faces, exc.value.limit) == (2**25 - 1, 1 << 24)
        assert str(exc.value) == f"the complex would have at least {2**25 - 1} faces, more than the limit of {1 << 24}"

    def test_overlapping_facets_are_counted_once(self):
        # the boundary of the 12-simplex: 13 facets of 4,095 faces each, but
        # 2^13 - 2 faces in all
        labels = [f"v{i:02d}" for i in range(13)]
        facets = [labels[:i] + labels[i + 1:] for i in range(13)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes_module, "_MAX_FACES", 2**13 - 2)
            assert len(rc.complex_from_facets(labels, facets).faces) == 2**13 - 2
            mp.setattr(complexes_module, "_MAX_FACES", 2**13 - 3)
            k = rc.complex_from_facets(labels, facets)
            with pytest.raises(TooManyFacesError):
                k.faces

    @given(oracles.complexes())
    def test_the_limit_is_the_exact_face_count(self, k):
        facets = k.facet_labels()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes_module, "_MAX_FACES", len(k.faces))
            built = rc.complex_from_facets(k.universe, facets + facets)
            assert built == k and built.faces == k.faces
            if facets:
                mp.setattr(complexes_module, "_MAX_FACES", len(k.faces) - 1)
                with pytest.raises(TooManyFacesError):
                    rc.complex_from_facets(k.universe, facets + facets).faces

    def test_empty_complex_representable(self):
        k = rc.SimplicialComplex(rc.Universe("ab"), [])
        assert k.is_empty and k.dimension() == -1

    @given(oracles.complexes())
    def test_constructor_output_downward_closed(self, k):
        assert oracles.is_downward_closed(oracles.label_faces(k))

    @given(oracles.complexes())
    def test_facet_round_trip(self, k):
        assert rc.complex_from_facets(k.universe, k.facet_labels()) == k


class TestClosureCheck:
    """The validating constructor checks closure, and finds the facets, by one subface scan."""

    @settings(max_examples=60, deadline=2000)
    @given(oracles.complexes(max_vertices=6, max_facets=5), st.data())
    def test_rebuilt_or_with_a_face_dropped(self, k, data):
        again = rc.SimplicialComplex(k.universe, k.faces)
        assert again == k and again.facets() == oracles.scan_facets(k)
        inner = sorted(k.faces - set(k.facets()))
        if inner:  # a face with a coface: the least such coface is named
            gone = data.draw(st.sampled_from(inner))
            kept = k.faces - {gone}
            assert not oracles.is_downward_closed(map(k.universe.face_labels, kept))
            coface = min(f for f in kept if set(gone) < set(f) and len(f) == len(gone) + 1)
            with pytest.raises(ValueError) as exc:
                rc.SimplicialComplex(k.universe, kept)
            assert str(exc.value) == f"face set is not downward closed: {coface} present, {gone} missing"

    @pytest.mark.parametrize("faces, named", [
        ([(0, 1, 2), (0, 1), (0, 2), (0,), (1,), (2,)], "(0, 1, 2) present, (1, 2) missing"),
        ([(0, 1, 2), (1, 2)], "(1, 2) present, (1,) missing"),  # by dimension first
        ([(0, 1), (1, 2), (0,), (2,)], "(0, 1) present, (1,) missing"),  # the least of two holders
    ])
    def test_the_least_missing_face_is_named(self, faces, named):
        with pytest.raises(ValueError) as exc:
            rc.SimplicialComplex(rc.Universe("abc"), faces)
        assert str(exc.value) == f"face set is not downward closed: {named}"


class TestUncheckedBuilders:
    """Builders that skip validation give complexes the validating constructor accepts."""

    def test_dowker_and_order_complexes_are_downward_closed(self):
        rng = random.Random(31)
        for _ in range(100):
            xs = "abcdef"[: rng.randint(1, 6)]
            ys = "uvwxyz"[: rng.randint(1, 6)]
            rel = oracles.random_covered_relation(rng, xs, ys)
            p = oracles.random_poset(rng, [str(i) for i in range(1, rng.randint(2, 8))])
            source = oracles.random_complex(rng, xs)
            target = oracles.full_complex(ys)
            f = rc.VertexMap(source.universe, target.universe, {x: rng.choice(ys) for x in xs})
            built = (
                rc.k_complex(rel),
                rc.l_complex(rel),
                rc.order_complex(p),
                source,
                rc.apply_simplicial_map(f, source, target),
            )
            for k in built:
                assert rc.SimplicialComplex(k.universe, k.faces) == k


def _nested_supports(rng, labels, count):
    """Supports drawn from a few bases, with repeats and proper subsets of them."""
    bases = [rng.sample(labels, rng.randint(1, len(labels))) for _ in range(rng.randint(1, 3))]
    out = []
    for _ in range(count):
        base = rng.choice(bases)
        out.append(rng.sample(base, rng.randint(1, len(base))) if rng.random() < 0.5 else base)
    return out


def _assert_derived_data(k):
    """Dimension, per-dimension faces, vertices and facets against plain scans, on ``k``,
    on ``k`` rebuilt from its faces and on its greedy collapse core: the last two are
    built from faces alone, so their facets come from the subface scan."""
    rebuilt = rc.SimplicialComplex(k.universe, k.faces)
    for c in (k, rebuilt) if k.is_empty else (k, rebuilt, rc.greedy_collapse(k)[0]):
        faces = c.faces
        dim = max((len(f) for f in faces), default=0) - 1
        assert c.dimension() == dim
        for n in range(-1, dim + 2):
            assert c.n_faces(n) == tuple(sorted(f for f in faces if len(f) == n + 1))
        assert c.vertices() == tuple(sorted(f[0] for f in faces if len(f) == 1))
    assert k.facets() == rebuilt.facets() == oracles.scan_facets(k)


class TestDerivedDataAgainstScans:
    """facets(), n_faces(), dimension() and vertices() against scans of every face."""

    def test_random_complexes_and_redundant_facets(self):
        rng = random.Random(611)
        for _ in range(300):
            labels = "abcdef"[: rng.randint(1, 6)]
            _assert_derived_data(oracles.random_complex(rng, labels, max_facets=6))
            facets = _nested_supports(rng, labels, rng.randint(1, 8))
            rng.shuffle(facets)
            _assert_derived_data(rc.complex_from_facets(labels, facets))

    def test_dowker_complexes_with_repeated_and_nested_supports(self):
        rng = random.Random(612)
        for _ in range(300):
            xs = list("abcdef"[: rng.randint(1, 6)])
            ys = [f"y{i}" for i in range(rng.randint(1, 7))]
            supports = _nested_supports(rng, xs, len(ys))
            rel = rc.Relation(xs, ys, [(x, y) for y, s in zip(ys, supports) for x in s])
            _assert_derived_data(rc.k_complex(rel))
            _assert_derived_data(rc.l_complex(rel))

    def test_order_complexes(self):
        rng = random.Random(613)
        for _ in range(200):
            p = oracles.random_poset(rng, [str(i) for i in range(1, rng.randint(2, 8))])
            _assert_derived_data(rc.order_complex(p))
            _assert_derived_data(rc.poset_dowker_complex(p, False, "k"))

    def test_collapse_results(self):
        rng = random.Random(614)
        for _ in range(200):
            k = oracles.random_complex(rng, "abcdef"[: rng.randint(2, 6)], max_facets=5)
            core, seq = rc.greedy_collapse(k)
            _assert_derived_data(core)
            prefix = seq.steps[: rng.randint(0, len(seq.steps))]
            _assert_derived_data(rc.verify_sequence(rc.CollapseSequence(k, prefix)))
            if prefix:
                _assert_derived_data(rc.apply_step(k, prefix[0]))

    def test_empty_complex(self):
        k = rc.SimplicialComplex(rc.Universe("ab"), [])
        assert k.facets() == ()
        _assert_derived_data(k)

    def test_builders_that_know_their_facets_set_them(self):
        rel = rc.Relation("abc", "uvw", [("a", "u"), ("a", "v"), ("b", "v"), ("c", "v"), ("a", "w")])
        built = [
            rc.k_complex(rel),
            rc.l_complex(rel),
            rc.complex_from_facets("abc", [("a",), ("c", "a"), ("a", "c"), ("b",)]),
        ]
        # the facet masks are set by the builder and decoded on first use
        assert [sorted(map(k.universe._face, k._facet_masks)) for k in built] == [
            [(0, 1, 2)], [(0, 1, 2)], [(0, 2), (1,)]
        ]
        assert [k.facets() for k in built] == [((0, 1, 2),), ((0, 1, 2),), ((0, 2), (1,))]
        assert rc.cone_apex(built[0]) == "a"
        assert [k._masks for k in built] == [None, None, None]  # no face built


WIDE = [f"v{i:02}" for i in range(70)]


def _crown_70() -> rc.Poset:
    """35 maxima over 35 minima, each maximum over two or three minima."""
    lows, highs = WIDE[:35], WIDE[35:]
    pairs = [(lows[i], highs[i]) for i in range(35)]
    pairs += [(lows[(i + 1) % 35], highs[i]) for i in range(35)]
    pairs += [(lows[(i + 2) % 35], highs[i]) for i in range(0, 35, 5)]
    return rc.poset_from_pairs(WIDE, pairs)


class TestWideUniverses:
    """More than 64 vertices, so the face masks are wider than a machine word."""

    def _check(self, k):
        assert rc.homology(k) == oracles.dense_homology(k)
        assert k.facets() == oracles.scan_facets(k)
        again = rc.SimplicialComplex(k.universe, k.faces)
        assert again == k and hash(again) == hash(k)

    def test_complexes(self):
        rng = random.Random(70)
        # a tetrahedron's boundary on both ends of the universe, so H_2 is not 0
        sphere = [list(f) for f in itertools.combinations(["v00", "v01", "v68", "v69"], 3)]
        for _ in range(6):
            facets = [rng.sample(WIDE, rng.randint(1, 3)) for _ in range(12)]
            self._check(rc.complex_from_facets(WIDE, facets + sphere))

    def test_poset(self):
        p = _crown_70()
        order = rc.order_complex(p)
        assert oracles.label_faces(order) == frozenset(oracles.naive_chain_faces(p))
        self._check(order)
        self._check(rc.poset_dowker_complex(p, False, "k"))

    def test_dowker_complexes_of_relations(self):
        """K over 70 x labels and L over 70 y labels, against the label spans of the pairs."""
        rng = random.Random(71)
        ys = [f"w{j:02}" for j in range(70)]
        pairs = [(x, y) for y in ys for x in rng.sample(WIDE, rng.randint(1, 3))]
        pairs += [("v00", "w69"), ("v69", "w69"), ("v69", "w00")]
        rel = rc.Relation(WIDE, ys, pairs)
        k, l = rc.k_complex(rel), rc.l_complex(rel)
        assert oracles.label_faces(k) == oracles.label_span(map(rel.support, ys))
        assert oracles.label_faces(l) == oracles.label_span(
            {y for x2, y in pairs if x2 == x} for x in WIDE
        )
        self._check(k)
        self._check(l)
        assert rc.canonical_relation(k) == oracles.label_membership_relation(
            k.universe, oracles.label_faces(k)
        )

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("side", ["k", "l"])
    def test_poset_dowker_complexes(self, strict, side):
        p = _crown_70()
        got = rc.poset_dowker_complex(p, strict, side)
        assert got == oracles.label_poset_dowker_complex(p, strict, side)
        reach = rc.down_set if side == "k" else rc.up_set
        assert oracles.label_faces(got) == oracles.label_span(
            reach(p, x) - ({x} if strict else set()) for x in WIDE
        )
        assert got.facets() == oracles.scan_facets(got)

    def test_membership_relation_of_a_chain(self):
        """70 nested opens, the widest holding every point."""
        t = rc.order_to_topology(rc.poset_from_pairs(WIDE, zip(WIDE, WIDE[1:])))
        rel = rc.membership_relation(t)
        opens = [o for o in t.open_label_sets() if o]
        assert len(opens) == 70 and len(opens[-1]) == 70
        assert rel == oracles.label_membership_relation(t.points, opens)


@st.composite
def labelled_complexes(draw):
    """A complex over up to 70 labels, drawn with its faces in shuffled order."""
    labels = WIDE[: draw(st.integers(1, 70))]
    facets = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=6, unique=True),
        min_size=1, max_size=8,
    ))
    k = rc.complex_from_facets(labels, facets)
    return k, draw(st.permutations(sorted(k._faces())))


class TestLabeller:
    """``Universe._labeller`` names every face as ``Universe._labels`` does,
    whatever prefixes it has already named."""

    @given(labelled_complexes())
    def test_every_face_in_descending_size_order(self, case):
        k, _ = case
        label = k.universe._labeller()
        by_size = sorted(k._faces(), key=lambda m: (-m.bit_count(), -m))
        assert [label(m) for m in by_size] == [k.universe._labels(m) for m in by_size]

    @given(labelled_complexes())
    def test_every_face_in_shuffled_order(self, case):
        k, shuffled = case
        label = k.universe._labeller()
        want = [k.universe._labels(m) for m in shuffled]
        assert [label(m) for m in shuffled] == want
        assert [label(m) for m in shuffled] == want  # each one named already


class TestFullComplex:
    def test_point(self):
        assert oracles.full_complex("a").is_point

    def test_three_vertices(self):
        k = oracles.full_complex("123")
        assert len(k.faces) == 7
        assert k.facet_labels() == (("1", "2", "3"),)

    def test_four_vertices(self):
        k = oracles.full_complex("1234")
        assert len(k.faces) == 15
        assert k.dimension() == 3

    def test_empty_universe_rejected(self):
        with pytest.raises(EmptyComplexError):
            oracles.full_complex("")


class TestSubcomplex:
    def test_boundary_inside_full(self, boundary2, full2):
        assert rc.is_subcomplex(boundary2, full2)
        assert not rc.is_subcomplex(full2, boundary2)

    def test_chain_complex_inside_k(self, circle4):
        c = rc.order_complex(circle4)
        k = rc.poset_dowker_complex(circle4, False, "k")
        assert rc.is_subcomplex(c, k)

    def test_different_universes_compared_by_labels(self):
        edge = rc.complex_from_facets("ab", [("a", "b")])
        assert rc.is_subcomplex(edge, oracles.full_complex("abc"))
        assert not rc.is_subcomplex(oracles.full_complex("abc"), edge)

    @pytest.mark.parametrize("k", corpus_cases())
    def test_reflexive(self, k):
        assert rc.is_subcomplex(k, k)

    def test_partial_order_on_corpus(self, corpus):
        for t, k in itertools.product(corpus, repeat=2):
            if rc.is_subcomplex(t, k) and rc.is_subcomplex(k, t):
                assert oracles.label_faces(t) == oracles.label_faces(k)
        for a, b, c in itertools.combinations(corpus, 3):
            if rc.is_subcomplex(a, b) and rc.is_subcomplex(b, c):
                assert rc.is_subcomplex(a, c)


class TestSimplicialMaps:
    def test_identity(self, boundary2):
        ident = rc.VertexMap(boundary2.universe, boundary2.universe, {l: l for l in "abc"})
        assert rc.apply_simplicial_map(ident, boundary2, boundary2) == boundary2

    def test_constant(self, boundary2):
        point = rc.complex_from_facets("p", [("p",)])
        const = rc.VertexMap(boundary2.universe, point.universe, {l: "p" for l in "abc"})
        assert rc.apply_simplicial_map(const, boundary2, point) == point

    def test_fold_onto_edge(self, boundary2):
        edge = rc.complex_from_facets("12", [("1", "2")])
        fold = rc.VertexMap(
            boundary2.universe, edge.universe, {"a": "1", "b": "1", "c": "2"}
        )
        image = rc.apply_simplicial_map(fold, boundary2, edge)
        # oracle: every face of the boundary maps into a face of the edge
        for labels in oracles.label_faces(boundary2):
            assert tuple(sorted({fold[l] for l in labels})) in oracles.label_faces(edge)
        assert image == edge

    def test_non_simplicial_image_reported(self):
        edge = rc.complex_from_facets("ab", [("a", "b")])
        two_points = rc.complex_from_facets("ab", [("a",), ("b",)])
        ident = rc.VertexMap(edge.universe, two_points.universe, {"a": "a", "b": "b"})
        with pytest.raises(NotSimplicialError) as exc:
            rc.apply_simplicial_map(ident, edge, two_points)
        assert exc.value.face == ("a", "b")

    def test_partial_map_rejected(self, boundary2):
        partial = rc.VertexMap(boundary2.universe, boundary2.universe, {"a": "a"})
        with pytest.raises(ValueError):
            rc.apply_simplicial_map(partial, boundary2, boundary2)


class TestContiguity:
    def test_map_contiguous_with_itself(self, boundary2):
        ident = rc.VertexMap(boundary2.universe, boundary2.universe, {l: l for l in "abc"})
        assert rc.are_contiguous(ident, ident, boundary2, boundary2)

    @given(st.dictionaries(st.sampled_from("abc"), st.sampled_from("xyz"), min_size=0))
    def test_any_maps_into_full_complex(self, partial):
        source = oracles.full_complex("abc")
        target = oracles.full_complex("xyz")
        mapping = {l: partial.get(l, "x") for l in "abc"}
        other = {l: "y" for l in "abc"}
        f = rc.VertexMap(source.universe, target.universe, mapping)
        g = rc.VertexMap(source.universe, target.universe, other)
        assert rc.are_contiguous(f, g, source, target)

    def test_reflexive_and_symmetric_over_map_family(self, boundary2):
        u = boundary2.universe
        maps = {
            "id": {"a": "a", "b": "b", "c": "c"},
            "swap": {"a": "b", "b": "a", "c": "c"},
            "rotate": {"a": "b", "b": "c", "c": "a"},
            "squash": {"a": "a", "b": "a", "c": "a"},
        }
        vms = {name: rc.VertexMap(u, u, m) for name, m in maps.items()}
        for f in vms.values():
            assert rc.are_contiguous(f, f, boundary2, boundary2)
        for f, g in itertools.combinations(vms.values(), 2):
            assert rc.are_contiguous(f, g, boundary2, boundary2) == \
                rc.are_contiguous(g, f, boundary2, boundary2)

    def test_swap_on_triangle_boundary_not_contiguous(self, boundary2):
        ident = rc.VertexMap(boundary2.universe, boundary2.universe, {l: l for l in "abc"})
        swap = rc.VertexMap(
            boundary2.universe, boundary2.universe, {"a": "b", "b": "a", "c": "c"}
        )
        # oracle: {a,c} and {b,c} join to the missing 2-face
        assert rc.are_contiguous(ident, swap, boundary2, boundary2) is False
        assert rc.are_contiguous(swap, ident, boundary2, boundary2) is False


class TestConeApex:
    def test_full_simplex_least_apex(self, full2):
        assert rc.cone_apex(full2) == "a"

    def test_boundary_has_none(self, boundary2):
        assert rc.cone_apex(boundary2) is None

    def test_circle4_k_complex(self, circle4):
        k = rc.poset_dowker_complex(circle4, False, "k")
        assert rc.cone_apex(k) == "1"

    @pytest.mark.parametrize("k", corpus_cases())
    def test_apex_implies_greedy_collapse_to_point(self, k):
        if rc.cone_apex(k) is not None:
            core, _ = rc.greedy_collapse(k)
            assert core.is_point

    @given(oracles.complexes(max_vertices=5))
    def test_apex_implies_greedy_collapse_random(self, k):
        if rc.cone_apex(k) is not None:
            core, _ = rc.greedy_collapse(k)
            assert core.is_point


class TestEuler:
    @pytest.mark.parametrize(
        "k, expected",
        [
            (oracles.full_complex("a"), 1),
            (rc.complex_from_facets("abc", [("a", "b"), ("a", "c"), ("b", "c")]), 0),
            (oracles.projective_plane(), 1),
        ],
    )
    def test_euler_characteristic(self, k, expected):
        assert oracles.euler_characteristic(k) == expected
