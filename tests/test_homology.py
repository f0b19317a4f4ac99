import importlib
import random
import re

import pytest
from hypothesis import given, strategies as st

import relcomplex as rc

import oracles
from conftest import corpus_cases


# the package re-exports the function ``homology`` under the module's name
homology_module = importlib.import_module("relcomplex.homology")


def snf_matrix(rows):
    return rc.smith_normal_form(oracles.matrix_from_rows(rows))


class TestBoundaryMatrices:
    def test_single_edge_column(self):
        edge = rc.complex_from_facets("ab", [("a", "b")])
        (d1,) = rc.boundary_matrices(edge)
        assert (d1.rows, d1.cols) == (2, 1)
        assert d1.entries == ((-1,), (1,))

    def test_triangle_boundary_rank(self, boundary2):
        (d1,) = rc.boundary_matrices(boundary2)
        assert (d1.rows, d1.cols) == (3, 3)
        assert oracles.rational_rank(d1.entries) == 2

    def test_point_has_no_matrices(self):
        assert rc.boundary_matrices(oracles.full_complex("a")) == []

    @pytest.mark.parametrize("k", corpus_cases())
    def test_boundary_of_boundary_is_zero(self, k):
        mats = rc.boundary_matrices(k)
        for low, high in zip(mats, mats[1:]):
            assert oracles.is_zero(oracles.matrix_product(low, high))


class TestSmithNormalForm:
    def test_identity(self):
        assert snf_matrix([[1, 0], [0, 1]]) == (1, 1)

    def test_known_two_by_two(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        assert snf_matrix([[2, 4], [6, 8]]) == (2, 4)

    def test_zero_matrix(self):
        assert snf_matrix([[0, 0], [0, 0]]) == ()
        assert rc.smith_normal_form(rc.IntegerMatrix(0, 3, ())) == ()

    def test_idempotent_on_chain_diagonals(self):
        assert snf_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 6]]) == (1, 2, 6)

    def test_divisibility_chain_and_minor_gcds(self):
        rng = random.Random(20250810)
        for _ in range(250):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            diag = snf_matrix(mat)
            assert all(d > 0 for d in diag)
            assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
            assert len(diag) == oracles.rational_rank(mat)
            # product of the first k entries = gcd of k x k minors
            prod = 1
            for k, d in enumerate(diag[:3], start=1):
                prod *= d
                assert prod == oracles.gcd_of_k_minors(mat, k)
            # idempotence: reducing the reduced diagonal changes nothing
            chain = [
                [diag[i] if i == j else 0 for j in range(len(diag))]
                for i in range(len(diag))
            ]
            if chain:
                assert snf_matrix(chain) == diag


class TestHomology:
    def test_point(self):
        assert rc.homology(oracles.full_complex("a")) == rc.HomologyProfile((1,), ((),))

    def test_triangle_boundary_is_a_circle(self, boundary2):
        assert rc.homology(boundary2) == rc.HomologyProfile((1, 1), ((), ()))

    def test_empty_profile(self):
        assert rc.homology(rc.SimplicialComplex(rc.Universe("a"), [])) == \
            rc.HomologyProfile((), ())

    def test_projective_plane_torsion(self):
        rp2 = oracles.projective_plane()
        profile = rc.homology(rp2)
        assert profile == rc.HomologyProfile((1, 0, 0), ((), (2,), ()))
        # independent checks: Betti over Q, and the 2-torsion via field ranks
        assert oracles.oracle_betti(rp2) == (1, 0, 0)
        d1, d2 = rc.boundary_matrices(rp2)
        b1_gf2 = 15 - oracles.gf_rank(d1.entries, 2) - oracles.gf_rank(d2.entries, 2)
        b1_gf3 = 15 - oracles.gf_rank(d1.entries, 3) - oracles.gf_rank(d2.entries, 3)
        b1_q = 15 - oracles.rational_rank(d1.entries) - oracles.rational_rank(d2.entries)
        assert (b1_q, b1_gf3, b1_gf2) == (0, 0, 1)

    def test_sphere_boundaries(self):
        for n, labels in ((1, "abc"), (2, "abcd"), (3, "abcde")):
            profile = rc.homology(oracles.boundary_simplex(labels))
            expected_betti = tuple(
                1 if i in (0, n) else 0 for i in range(n + 1)
            )
            assert profile.betti == expected_betti
            assert all(t == () for t in profile.torsion)

    @pytest.mark.parametrize("k", corpus_cases())
    def test_betti_matches_rational_rank_oracle(self, k):
        assert rc.homology(k).betti == oracles.oracle_betti(k)

    @pytest.mark.parametrize("k", corpus_cases())
    def test_euler_consistency(self, k):
        profile = rc.homology(k)
        assert k.euler_characteristic() == sum(
            (-1) ** n * b for n, b in enumerate(profile.betti)
        )

    def test_relabeling_invariance(self):
        rng = random.Random(4)
        for _ in range(25):
            k = oracles.random_complex(rng, "abcde")
            perm = dict(zip("abcde", rng.sample("ABCDE", 5)))
            relabeled = rc.complex_from_facets(
                [perm[l] for l in "abcde"],
                [tuple(perm[l] for l in facet) for facet in k.facet_labels()],
            )
            assert rc.homology(k) == rc.homology(relabeled)


def random_small_facet_complex(rng):
    """Many small facets on a few vertices, so Betti numbers above 0 are common."""
    labels = "abcdefgh"[: rng.randint(3, 8)]
    facets = [
        rng.sample(labels, rng.randint(1, min(4, len(labels))))
        for _ in range(rng.randint(1, 12))
    ]
    return rc.complex_from_facets(labels, facets)


@st.composite
def small_matrices(draw):
    """Integer matrices of 0 to 8 rows and columns, entries in -9..9.

    Each matrix draws from a few values, so blocks with no unit entry and
    diagonals that are no divisibility chain, such as 2 and 3, are common.
    """
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.sampled_from(sorted(draw(st.sets(st.integers(-9, 9), min_size=1, max_size=4))))
    grid = draw(st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows,
    ))
    return rc.IntegerMatrix(rows, cols, tuple(map(tuple, grid)))


class TestSparseEngine:
    def test_matches_dense_reference_on_random_complexes(self):
        rng = random.Random(20261018)
        for _ in range(300):
            k = random_small_facet_complex(rng)
            assert rc.homology(k) == oracles.dense_homology(k)

    def test_elimination_matches_smith_form_on_random_matrices(self):
        # entries beyond +-1 force fill-in, retried columns and residual blocks
        rng = random.Random(99)
        for _ in range(400):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            mat = [
                [rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
            columns = [
                {i: mat[i][j] for i in range(rows) if mat[i][j]} for j in range(cols)
            ]
            diag = oracles.dense_smith_normal_form(oracles.matrix_from_rows(mat))
            assert homology_module._reduce(columns) == (
                len(diag), tuple(d for d in diag if d > 1)
            )

    @given(small_matrices())
    def test_smith_form_matches_the_dense_reference(self, m):
        assert rc.smith_normal_form(m) == oracles.dense_smith_normal_form(m)

    @pytest.mark.parametrize(
        "build, torsion",
        [(oracles.projective_plane, 2), (oracles.moore_space_3, 3)],
    )
    def test_torsion_comes_from_the_residual_block(self, build, torsion):
        # every boundary entry is +-1, so only the block left without a unit
        # entry can put a factor above 1 on the diagonal
        k = build()
        d2 = rc.boundary_matrices(k)[1]
        columns = homology_module._boundary_columns(k._by_dimension()[2])
        rank, factors = homology_module._reduce(columns)
        assert factors == (torsion,)
        diag = oracles.dense_smith_normal_form(d2)
        assert (rank, factors) == (len(diag), tuple(d for d in diag if d > 1))
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        invariants = [abs(int(f)) for f in invariant_factors(sympy.Matrix(d2.entries), domain=sympy.ZZ)]
        assert (rank, factors) == (len(invariants), tuple(f for f in invariants if f > 1))

    @pytest.mark.parametrize("times", [0, 1, 2])
    @pytest.mark.parametrize(
        "build, torsion",
        [(oracles.projective_plane, 2), (oracles.moore_space_3, 3)],
    )
    def test_homology_builds_no_dense_matrix(self, monkeypatch, build, torsion, times):
        k = build()
        for _ in range(times):
            k = oracles.suspension(k)

        def no_matrix(self, *args):
            raise AssertionError("homology built an IntegerMatrix")

        monkeypatch.setattr(rc.IntegerMatrix, "__init__", no_matrix)
        assert rc.homology(k).torsion[1 + times] == (torsion,)

    @pytest.mark.parametrize("times", [0, 1, 2])
    @pytest.mark.parametrize(
        "build, torsion",
        [(oracles.projective_plane, 2), (oracles.moore_space_3, 3)],
    )
    def test_clearing_is_exact_across_residual_blocks(self, build, torsion, times):
        # suspension moves the torsion up, so a residual block of d_{n+1} sits
        # above a d_n whose columns were cleared
        k = build()
        for _ in range(times):
            k = oracles.suspension(k)
        profile = rc.homology(k)
        assert profile == oracles.dense_homology(k)
        assert profile.betti == (1,) + (0,) * (2 + times)
        assert profile.torsion == tuple(
            (torsion,) if n == 1 + times else () for n in range(3 + times)
        )

    def test_faces_paired_above_get_no_column(self, monkeypatch):
        built = []
        boundary_columns = homology_module._boundary_columns

        def recording_columns(faces):
            columns = boundary_columns(faces)
            built.append(len(columns))
            return columns

        monkeypatch.setattr(homology_module, "_boundary_columns", recording_columns)
        k = oracles.full_complex("abcdef")
        assert rc.homology(k) == rc.HomologyProfile((1, 0, 0, 0, 0, 0), ((),) * 6)
        # d_5 down to d_2; without clearing d_n has a column for every n-face,
        # and d_1 is counted by the union-find, not built
        assert built == [1, 5, 10, 10]

    def test_union_find_sees_only_the_uncleared_edges(self, monkeypatch):
        seen = []
        merges = homology_module._merges

        def recording_merges(edges):
            edges = list(edges)
            seen.append(edges)
            return merges(edges)

        monkeypatch.setattr(homology_module, "_merges", recording_merges)
        k = oracles.full_complex("abcdef")
        rc.homology(k)
        # d_2 clears 10 of the 15 edges; the 5 left form a spanning tree
        assert [len(edges) for edges in seen] == [5]
        assert merges(seen[0]) == 5

    @pytest.mark.parametrize(
        "k, betti",
        [
            (rc.SimplicialComplex(rc.Universe("a"), []), ()),
            (rc.complex_from_facets("abcd", ["a", "b", "c", "d"]), (4,)),
            # two triangles, a path and a point: 4 components, 2 cycles
            (rc.complex_from_facets("abcdefghi", ["ab", "bc", "ac", "de", "ef", "df", "gh", "i"]), (4, 2)),
            # K4 and a separate square
            (rc.complex_from_facets("abcdwxyz", ["ab", "ac", "ad", "bc", "bd", "cd", "wx", "xy", "yz", "wz"]), (2, 4)),
            # a star, a long path and a long cycle, so the union-find follows long chains
            (rc.complex_from_facets(
                [f"v{i}" for i in range(30)],
                [("v0", f"v{i}") for i in range(1, 8)]
                + [(f"v{i}", f"v{i + 1}") for i in range(8, 18)]
                + [(f"v{i}", f"v{i + 1}") for i in range(19, 29)] + [("v19", "v29")],
            ), (3, 1)),
            # an x related to nothing is in the universe but is no vertex
            (rc.k_complex(rc.Relation("abcde", "uvw", [
                ("a", "u"), ("b", "u"), ("b", "v"), ("c", "v"), ("a", "w"), ("c", "w"), ("d", "w"),
            ])), (1, 1, 0)),
        ],
        ids=["empty", "points", "graph", "k4-and-square", "long-chains", "k-with-unrelated-x"],
    )
    def test_rank_d1_matches_dense_reference(self, k, betti):
        profile = rc.homology(k)
        assert profile == oracles.dense_homology(k)
        assert profile == rc.HomologyProfile(betti, ((),) * len(betti))

    def test_disjoint_union_of_rp2_and_moore3(self):
        # two components; Z/2 + Z/3 = Z/6 in the one residual block of d_2
        rp2, moore = oracles.projective_plane(), oracles.moore_space_3()
        k = rc.complex_from_facets(
            rp2.universe.labels + moore.universe.labels,
            rp2.facet_labels() + moore.facet_labels(),
        )
        profile = rc.homology(k)
        assert profile == oracles.dense_homology(k)
        assert profile == rc.HomologyProfile((2, 0, 0), ((), (6,), ()))

    def test_random_graphs_match_dense_reference(self):
        rng = random.Random(1101)
        labels = [f"v{i}" for i in range(12)]
        for _ in range(150):
            edges = [tuple(rng.sample(labels, 2)) for _ in range(rng.randint(1, 16))]
            points = [(lab,) for lab in rng.sample(labels, rng.randint(0, 3))]
            k = rc.complex_from_facets(labels, edges + points)
            assert rc.homology(k) == oracles.dense_homology(k)

    @given(oracles.complexes(max_vertices=7, max_facets=6))
    def test_matches_dense_reference_on_generated_complexes(self, k):
        assert rc.homology(k) == oracles.dense_homology(k)

    def test_field_ranks_see_the_torsion(self):
        k = oracles.moore_space_3()
        d1, d2 = rc.boundary_matrices(k)
        edges = d1.cols
        for p, b1 in ((2, 0), (3, 1), (5, 0)):
            assert edges - oracles.gf_rank(d1.entries, p) - oracles.gf_rank(d2.entries, p) == b1


@st.composite
def same_size_faces(draw):
    """Distinct index tuples of one size over a universe of up to 70 vertices."""
    n = draw(st.integers(1, 70))
    size = draw(st.integers(1, min(n, 6)))
    faces = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=size, max_size=size).map(sorted).map(tuple),
        min_size=1, max_size=20, unique=True,
    ))
    return rc.Universe(f"v{i:02}" for i in range(n)), faces


class TestColumnOrder:
    @given(same_size_faces())
    def test_mask_columns_are_the_tuple_columns_through_the_encoding(self, case):
        # _reduce breaks ties by dict order, so entries must come in the same order
        universe, faces = case
        masks = [universe._encode(f) for f in faces]
        want = oracles.tuple_boundary_columns(faces)
        for got, column in zip(homology_module._boundary_columns(masks), want, strict=True):
            assert list(got.items()) == [(universe._encode(f), v) for f, v in column.items()]


class TestSympyOracle:
    def test_smith_diagonal_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            snf = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
            expected = tuple(
                abs(int(snf[i, i])) for i in range(min(rows, cols)) if snf[i, i] != 0
            )
            assert snf_matrix(mat) == expected

    @pytest.mark.parametrize(
        "build", [oracles.projective_plane, oracles.moore_space_3]
    )
    def test_torsion_matches_sympy(self, build):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        k = build()
        d2 = rc.boundary_matrices(k)[1]
        factors = invariant_factors(sympy.Matrix(d2.entries), domain=sympy.ZZ)
        expected = tuple(abs(int(f)) for f in factors if abs(int(f)) > 1)
        assert rc.homology(k).torsion[1] == expected


class TestSameHomology:
    def test_circle4_k_and_l(self, circle4):
        assert rc.same_homology(
            rc.poset_dowker_complex(circle4, False, "k"),
            rc.poset_dowker_complex(circle4, False, "l"),
        )

    def test_chain_complex_differs_from_k(self, circle4):
        assert not rc.same_homology(
            rc.order_complex(circle4), rc.poset_dowker_complex(circle4, False, "k")
        )

    def test_crown_relation_k_complexes_differ(self, circle4, circle6):
        assert not rc.same_homology(
            rc.poset_dowker_complex(circle4, False, "k"),
            rc.poset_dowker_complex(circle6, False, "k"),
        )

    def test_padding_across_dimensions(self):
        point = oracles.full_complex("a")
        edge = rc.complex_from_facets("ab", [("a", "b")])
        assert rc.same_homology(point, edge)

    def test_dowker_sample(self):
        rng = random.Random(31)
        for _ in range(80):
            r = oracles.random_covered_relation(rng, "abcd", "uvwz")
            assert rc.same_homology(rc.k_complex(r), rc.l_complex(r))


class TestIntegerMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rc.IntegerMatrix(2, 2, ((1, 2),))
        with pytest.raises(ValueError):
            oracles.matrix_product(
                oracles.matrix_from_rows([[1, 2]]),
                oracles.matrix_from_rows([[1, 2]]),
            )

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, False, None])
    def test_entries_must_be_ints(self, bad):
        with pytest.raises(TypeError, match=rf"\(1, 0\).*{re.escape(repr(bad))}"):
            rc.IntegerMatrix(2, 2, ((1, 0), (bad, 1)))

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    @pytest.mark.parametrize("name", ["rows", "cols"])
    def test_shape_must_be_ints(self, name, bad):
        shape = {"rows": 1, "cols": 1, name: bad}
        with pytest.raises(TypeError, match=f"^matrix {name} is not an int: {re.escape(repr(bad))}$"):
            rc.IntegerMatrix(shape["rows"], shape["cols"], ((1,),))

    def test_product(self):
        a = oracles.matrix_from_rows([[1, 2], [3, 4]])
        b = oracles.matrix_from_rows([[0, 1], [1, 0]])
        assert oracles.matrix_product(a, b).entries == ((2, 1), (4, 3))
