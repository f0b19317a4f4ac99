import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

import relcomplex as rc
from relcomplex import cli, collapses, formats
from relcomplex.errors import (
    EmptyComplexError,
    NotFreeError,
    SingletonComponentError,
)

import oracles
from conftest import DATA


@st.composite
def posets_no_singletons(draw, max_elements=5):
    n = draw(st.integers(2, max_elements))
    labels = [str(i) for i in range(1, n + 1)]
    perm = draw(st.permutations(labels))
    pairs = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    p = rc.poset_from_pairs(labels, pairs)
    if any(len(c) == 1 for c in rc.connected_components(p)):
        # connect every stray element below a fixed top
        pairs = list(pairs) + [(lab, perm[-1]) for lab in labels if lab != perm[-1]]
        p = rc.poset_from_pairs(labels, pairs)
    return p


class TestFreeCoface:
    def test_unique_coface_in_full_simplex(self, full2):
        assert rc.free_coface(full2, ("a", "b")) == ("a", "b", "c")

    def test_vertex_with_two_cofaces(self, boundary2):
        assert rc.free_coface(boundary2, ("a",)) is None

    def test_facet_has_no_proper_coface(self, boundary2):
        assert rc.free_coface(boundary2, ("a", "b")) is None

    def test_missing_face_rejected(self, boundary2):
        with pytest.raises(NotFreeError):
            rc.free_coface(boundary2, ("a", "b", "c"))

    @given(oracles.complexes(max_vertices=7, max_facets=5))
    def test_every_face_against_a_scan_of_all_faces(self, k):
        for face in k.label_faces():
            assert rc.free_coface(k, face) == oracles.rebuild_free_coface(k, face)


class TestApplyStep:
    def test_collapse_full_triangle_stepwise(self, full2):
        step1 = rc.CollapseStep(("a", "b"), ("a", "b", "c"))
        k1 = rc.apply_step(full2, step1)
        assert k1.facet_labels() == (("a", "c"), ("b", "c"))
        assert len(k1.faces) == 5
        k2 = rc.apply_step(k1, rc.CollapseStep(("a",), ("a", "c")))
        assert k2.facet_labels() == (("b", "c"),)

    def test_non_free_step_rejected(self, boundary2):
        with pytest.raises(NotFreeError) as exc:
            rc.apply_step(boundary2, rc.CollapseStep(("a",), ("a", "b")))
        assert exc.value.cofaces == (("a", "b"), ("a", "c"))

    def test_wrong_coface_rejected(self, full2):
        with pytest.raises(NotFreeError):
            rc.apply_step(full2, rc.CollapseStep(("a", "b"), ("a", "b", "d")))

    def test_step_validates_shape(self):
        with pytest.raises(ValueError):
            rc.CollapseStep(("a",), ("a",))
        with pytest.raises(ValueError):
            rc.CollapseStep(("a",), ("a", "b", "c"))
        with pytest.raises(ValueError):
            rc.CollapseStep(("a",), ("b", "c"))

    @pytest.mark.parametrize(
        "free, coface, bad",
        [
            ((1.5,), (1.5, 2.5), "1.5"),
            (("a",), ("a", 2), "2"),
            (("",), ("", "b"), "''"),
            (("a",), ("a", None), "None"),
            ((["a"],), (["a"], "b"), r"\['a'\]"),
        ],
    )
    def test_step_labels_must_be_nonempty_strings(self, free, coface, bad):
        with pytest.raises(
            ValueError, match=f"^vertex labels must be nonempty strings, got {bad}$"
        ):
            rc.CollapseStep(free, coface)

    def test_step_rejects_a_repeated_label(self):
        with pytest.raises(ValueError, match=r"face \('2', '2'\) repeats a label"):
            rc.CollapseStep(("2", "2"), ("1", "2", "3"))
        with pytest.raises(ValueError, match="must properly contain"):
            rc.CollapseStep(("1", "2"), ("1", "2", "2"))


class TestVerifySequence:
    def test_empty_sequence_is_identity(self, boundary2):
        seq = rc.CollapseSequence(boundary2, ())
        assert rc.verify_sequence(seq) == boundary2

    def test_full_triangle_to_point(self, full2):
        seq = rc.CollapseSequence(
            full2,
            (
                rc.CollapseStep(("a", "b"), ("a", "b", "c")),
                rc.CollapseStep(("a",), ("a", "c")),
                rc.CollapseStep(("c",), ("b", "c")),
            ),
        )
        final = rc.verify_sequence(seq)
        assert final.is_point and final.facet_labels() == (("b",),)

    def test_repeated_face_fails_with_index(self, full2):
        seq = rc.CollapseSequence(
            full2,
            (
                rc.CollapseStep(("a", "b"), ("a", "b", "c")),
                rc.CollapseStep(("a", "b"), ("a", "b", "c")),
            ),
        )
        with pytest.raises(NotFreeError) as exc:
            rc.verify_sequence(seq)
        assert exc.value.index == 1


class TestOrderCollapse:
    def test_circle4_k_side_steps(self, circle4):
        seq = rc.collapse_leq_to_strict(circle4, "k")
        assert [(s.free_face, s.coface) for s in seq.steps] == [
            (("2", "3"), ("1", "2", "3")),
            (("3",), ("1", "3")),
            (("2", "4"), ("1", "2", "4")),
            (("4",), ("1", "4")),
        ]
        final = rc.verify_sequence(seq)
        assert final == rc.poset_dowker_complex(circle4, True, "k")
        assert final.facet_labels() == (("1", "2"),)

    def test_circle4_l_side(self, circle4):
        seq = rc.collapse_leq_to_strict(circle4, "l")
        assert len(seq.steps) == 4
        final = rc.verify_sequence(seq)
        assert final == rc.poset_dowker_complex(circle4, True, "l")
        assert final.facet_labels() == (("3", "4"),)

    def test_antichain_rejected(self):
        with pytest.raises(SingletonComponentError):
            rc.collapse_leq_to_strict(rc.poset_from_pairs("12", []), "k")

    @given(posets_no_singletons())
    def test_reaches_strict_complex_with_invariants(self, p):
        for side in ("k", "l"):
            seq = rc.collapse_leq_to_strict(p, side)
            current = seq.initial
            euler = current.euler_characteristic()
            for i, step in enumerate(seq.steps):
                current = rc.apply_step(current, step)
                assert len(current.faces) == len(seq.initial.faces) - 2 * (i + 1)
                assert current.euler_characteristic() == euler
            assert current == rc.poset_dowker_complex(p, True, side)
            assert rc.same_homology(seq.initial, current)


class TestGreedyCollapse:
    def test_full_simplices_collapse_to_a_point(self):
        for labels in ("a", "ab", "abc", "abcd", "abcde"):
            core, seq = rc.greedy_collapse(oracles.full_complex(labels))
            assert core.is_point
            assert len(seq.steps) == (2 ** len(labels) - 2) // 2

    def test_boundary_has_no_free_faces(self, boundary2):
        core, seq = rc.greedy_collapse(boundary2)
        assert core == boundary2 and seq.steps == ()

    def test_circle4_k_collapses(self, circle4):
        core, _ = rc.greedy_collapse(rc.poset_dowker_complex(circle4, False, "k"))
        assert core.is_point

    def test_empty_complex_rejected(self):
        with pytest.raises(EmptyComplexError):
            rc.greedy_collapse(rc.SimplicialComplex(rc.Universe("a"), []))

    def test_sequence_replays_to_core(self):
        rng = random.Random(99)
        for _ in range(30):
            k = oracles.random_complex(rng, "abcde")
            core, seq = rc.greedy_collapse(k)
            assert rc.verify_sequence(seq) == core
            assert len(k.faces) - 2 * len(seq.steps) == len(core.faces)
            assert rc.same_homology(k, core)


def _replay(verify, seq):
    """The complex a replay returns, or the NotFreeError it raises, comparably."""
    try:
        return verify(seq)
    except NotFreeError as exc:
        return (exc.face, exc.cofaces, exc.index, str(exc))


def _corrupted(rng, k, steps):
    """Sequences that break at a random step, one per way a step can be wrong."""
    labels = list(k.universe.labels)
    i = rng.randrange(len(steps) + 1)
    prefix = list(steps[:i])
    current = oracles.rebuild_verify_sequence(rc.CollapseSequence(k, tuple(prefix)))
    faces = sorted(current.label_faces(), key=lambda f: (len(f), f))
    out = []
    if prefix:  # a face that an earlier step removed
        out.append(prefix + [prefix[rng.randrange(i)]])
    absent = [
        f for r in range(1, len(labels))
        for f in itertools.combinations(labels, r)
        if f not in current.label_faces()
    ]
    if absent:  # a label set that is not a face
        free = rng.choice(absent)
        extra = rng.choice([v for v in labels if v not in free])
        out.append(prefix + [rc.CollapseStep(free, free + (extra,))])
    stuck = [f for f in faces if oracles.rebuild_free_coface(current, f) is None]
    if stuck:  # a face with no or several proper cofaces
        free = rng.choice(stuck)
        extra = rng.choice([v for v in labels + ["zz"] if v not in free])
        out.append(prefix + [rc.CollapseStep(free, free + (extra,))])
    if i < len(steps):  # the right free face with another coface
        step = steps[i]
        others = [v for v in labels + ["zz"] if v not in step.coface]
        if others:
            wrong = step.free_face + (rng.choice(others),)
            out.append(prefix + [rc.CollapseStep(step.free_face, wrong)])
    out.append(prefix + [rc.CollapseStep(("zz",), ("zz", labels[0]))])  # outside the universe
    tail = list(steps[i + 1:])
    return [bad + tail for bad in out]


class TestAgainstRebuildingOracles:
    """The incremental engine against the rebuild-per-step and scanning references."""

    def test_random_complexes(self):
        rng = random.Random(20261018)
        errors = 0
        for trial in range(300):
            labels = "abcdefg"[: rng.randint(2, 7)]
            k = oracles.random_complex(rng, labels, max_facets=5)
            core, seq = rc.greedy_collapse(k)
            want_core, want_steps = oracles.scan_greedy_collapse(k)
            assert core == want_core
            assert [(s.free_face, s.coface) for s in seq.steps] == want_steps
            assert rc.SimplicialComplex(core.universe, core.faces) == core
            sequences = [list(seq.steps), list(seq.steps[: rng.randint(0, len(seq.steps))])]
            sequences.extend(_corrupted(rng, k, seq.steps))
            for steps in sequences:
                s = rc.CollapseSequence(k, tuple(steps))
                got = _replay(rc.verify_sequence, s)
                assert got == _replay(oracles.rebuild_verify_sequence, s)
                if isinstance(got, rc.SimplicialComplex):
                    assert rc.SimplicialComplex(got.universe, got.faces) == got
                else:
                    errors += 1
            if trial % 10 == 0:  # apply_step and free_coface, one step at a time
                current = k
                for step in rng.choice(sequences):
                    for face in current.label_faces():
                        assert rc.free_coface(current, face) == oracles.rebuild_free_coface(
                            current, face
                        )
                    got = _replay(lambda c: rc.apply_step(c, step), current)
                    assert got == _replay(lambda c: oracles.rebuild_apply_step(c, step), current)
                    if not isinstance(got, rc.SimplicialComplex):
                        break
                    assert rc.SimplicialComplex(got.universe, got.faces) == got
                    current = got
        assert errors > 1000

    def test_poset_collapses(self):
        rng = random.Random(7)
        for _ in range(40):
            p = oracles.random_poset(rng, [str(i) for i in range(1, rng.randint(3, 8))])
            if any(len(c) == 1 for c in rc.connected_components(p)):
                continue
            for side in ("k", "l"):
                seq = rc.collapse_leq_to_strict(p, side)
                assert rc.verify_sequence(seq) == oracles.rebuild_verify_sequence(seq)


def _sabotage(monkeypatch, change):
    """Let ``change`` edit an engine's mask pair list just before its self-check replays it."""
    replay = collapses._replay

    def sabotaged(seq, faces):
        change(seq._pairs)
        return replay(seq, faces)

    monkeypatch.setattr(collapses, "_replay", sabotaged)


def _universe(n):
    """A universe of n labels whose sorted order is the order of their numbers."""
    return rc.Universe(f"v{i:02}" for i in range(n))


def _masks(n, free, coface):
    """An index-tuple pair as an engine's masks, made by the universe's own encoder."""
    universe = _universe(n)
    return tuple(universe._mask(map(universe.label, f)) for f in (free, coface))


class TestSelfChecksCannotVanish:
    """Corrupt the engines' mask pairs: their replay against the expected end must raise."""

    def test_greedy_with_a_dropped_step(self, monkeypatch):
        _sabotage(monkeypatch, lambda pairs: pairs.pop())
        with pytest.raises(AssertionError, match="greedy collapse emitted an invalid sequence"):
            rc.greedy_collapse(oracles.full_complex("abcd"))

    def test_greedy_with_a_step_that_is_not_free(self, monkeypatch):
        # the first pair again: its faces are gone by then
        _sabotage(monkeypatch, lambda pairs: pairs.append(pairs[0]))
        with pytest.raises(NotFreeError) as exc:
            rc.greedy_collapse(oracles.full_complex("abcd"))
        assert exc.value.index == 7 and exc.value.cofaces is None

    def test_greedy_with_a_free_step_past_the_core(self, monkeypatch):
        # a vertex of the point core is in no other face, so it is not free
        pair = _masks(3, (1,), (1, 2))
        _sabotage(monkeypatch, lambda pairs: pairs.append(pair))
        with pytest.raises(NotFreeError) as exc:
            rc.greedy_collapse(oracles.full_complex("abc"))
        assert exc.value.index == 3

    def test_leq_strict_with_a_dropped_step(self, monkeypatch, circle4):
        _sabotage(monkeypatch, lambda pairs: pairs.pop())
        with pytest.raises(AssertionError, match="missed the strict complex"):
            rc.collapse_leq_to_strict(circle4, "k")

    def test_leq_strict_with_a_step_that_is_not_free(self, monkeypatch, circle4):
        # {1} lies in {1,3} and {1,4} of the K-complex, so it has two cofaces
        pair = _masks(4, (0,), (0, 2))
        _sabotage(monkeypatch, lambda pairs: pairs.insert(0, pair))
        with pytest.raises(NotFreeError) as exc:
            rc.collapse_leq_to_strict(circle4, "k")
        assert exc.value.index == 0 and exc.value.face == ("1",)
        assert len(exc.value.cofaces) > 1


def _counts_agree(k):
    assert collapses._coface_counts(k) == oracles.increment_coface_counts(k)


def _c4chain3():
    return formats.to_poset(formats.parse((DATA / "c4chain3.poset").read_text()))


@st.composite
def poset_complexes(draw):
    """K or L of a random poset of 3 to 9 elements."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = oracles.random_poset(rng, [str(i) for i in range(draw(st.integers(3, 9)))])
    strict = draw(st.booleans()) and bool(p.strict_pairs())  # a discrete poset has no strict complex
    return rc.poset_dowker_complex(p, strict, draw(st.sampled_from("kl")))


@st.composite
def cli_shaped_complexes(draw):
    """60 random triangles and 12 tetrahedra over 18 vertices, as the benchmark's greedy inputs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = [f"u{i:02}" for i in range(18)]
    return rc.complex_from_facets(labels, [rng.sample(labels, size) for size in [3] * 60 + [4] * 12])


class TestCofaceCounts:
    """``_coface_counts``, a walk of the facets' submasks, against the increment oracle."""

    @given(poset_complexes())
    def test_poset_complexes(self, k):
        _counts_agree(k)

    def test_k_and_l_of_c4chain3_and_circle4(self):
        for p in (_c4chain3(), oracles.circle4_poset()):
            for side in "kl":
                _counts_agree(rc.poset_dowker_complex(p, False, side))

    @given(cli_shaped_complexes())
    def test_benchmark_shaped_complexes(self, k):
        _counts_agree(k)

    @given(oracles.complexes(max_vertices=7, max_facets=5))
    def test_facets_found_by_the_subface_scan(self, k):
        """A greedy core and a complex rebuilt from faces get their facets from the scan."""
        core, _ = rc.greedy_collapse(k)
        for scanned in (core, rc.SimplicialComplex(k.universe, k.faces)):
            assert scanned.facets() == oracles.scan_facets(scanned)
            _counts_agree(scanned)
        _counts_agree(k)

    @given(st.integers(0, 2**32), st.integers(1, 6))
    def test_wide_universes(self, seed, m):
        """m facets over 70 vertices: a few large ones, and many small ones."""
        rng = random.Random(seed)
        labels = [f"v{i:02}" for i in range(70)]
        big = rc.complex_from_facets(labels, [rng.sample(labels, rng.randint(m + 1, m + 3)) for _ in range(m)])
        small = rc.complex_from_facets(labels, [rng.sample(labels, rng.randint(1, 3)) for _ in range(12 * m)])
        _counts_agree(big)
        _counts_agree(small)

    def test_skeleta(self):
        """Every (d+1)-subset of n vertices is a facet, so each face lies in many facets."""
        for n in range(1, 10):
            labels = [f"s{i}" for i in range(n)]
            for d in range(min(n, 4)):
                k = rc.complex_from_facets(labels, itertools.combinations(labels, d + 1))
                assert len(k._tops()) == math.comb(n, d + 1)
                _counts_agree(k)

    def test_reads_no_face_set(self, monkeypatch):
        """The counts come from ``_tops()`` alone: building or reading the faces raises."""
        ks = [rc.poset_dowker_complex(_c4chain3(), False, "k"), rc.complex_from_facets("abcdef", ["abc", "cde", "aef", "bd"])]
        want = [oracles.increment_coface_counts(k) for k in ks]

        def refuse(self):
            raise AssertionError("a face set was read")

        monkeypatch.setattr(rc.SimplicialComplex, "_faces", refuse)
        assert [collapses._coface_counts(k) for k in ks] == want

    def test_every_face_of_c4xc6_k(self):
        k = rc.poset_dowker_complex(oracles.c4xc6_poset(), False, "k")
        assert len(k._faces()) == 121_087
        _counts_agree(k)


class TestLabelsWithoutDecoding:
    def test_engines_decode_no_face(self, monkeypatch):
        """Both engines name each step face from its prefix, never by a per-face bit walk."""
        p = _c4chain3()
        k = rc.poset_dowker_complex(p, False, "k")
        decoded = []
        face = rc.Universe._face
        monkeypatch.setattr(rc.Universe, "_face", lambda self, mask: decoded.append(mask) or face(self, mask))
        core, seq = rc.greedy_collapse(k)
        steps = [seq.steps] + [rc.collapse_leq_to_strict(p, side).steps for side in "kl"]
        assert decoded == []
        assert core.is_point and [len(s) for s in steps] == [479, 256, 256]


class TestLazySteps:
    """An engine's sequence keeps its mask pairs and labels them on first read,
    yet acts as the frozen value of ``initial`` and ``steps``."""

    @staticmethod
    def _sequences():
        p = _c4chain3()
        k = rc.poset_dowker_complex(p, False, "k")
        return [rc.greedy_collapse(k)[1]] + [rc.collapse_leq_to_strict(p, side) for side in "kl"]

    @staticmethod
    def _labelled(seq) -> bool:
        """Whether the sequence's ``_steps`` slot holds its steps."""
        return seq._steps is not None

    @pytest.mark.parametrize("argv", [
        ("collapse", "greedy", "--complex", "c4chain3_k.complex"),
        ("collapse", "leq-strict", "--poset", "c4chain3.poset", "--side", "k"),
        ("collapse", "leq-strict", "--poset", "c4chain3.poset", "--side", "l"),
    ], ids=" ".join)
    def test_cli_builds_no_step(self, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a CollapseStep was built")

        monkeypatch.setattr(rc.CollapseStep, "__init__", refuse)
        monkeypatch.setattr(rc.CollapseStep, "_new", refuse)
        argv = [str(DATA / a) if a.endswith((".complex", ".poset")) else a for a in argv]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("{")

    def test_steps_are_the_labels_of_the_pairs(self):
        for seq in self._sequences():
            pairs, label = seq._pairs, seq.initial.universe._labels
            assert not self._labelled(seq)
            assert [(s.free_face, s.coface) for s in seq.steps] == [(label(f), label(c)) for f, c in pairs]
            assert seq.steps is seq.steps and isinstance(seq.steps, tuple) and self._labelled(seq)

    def test_equal_to_the_sequence_of_its_steps(self):
        for seq in self._sequences():
            rebuilt = rc.CollapseSequence(seq.initial, seq.steps)
            assert seq == rebuilt and rebuilt == seq and hash(seq) == hash(rebuilt)
        fresh = self._sequences()
        assert hash(fresh[0]) == hash(rc.CollapseSequence(fresh[0].initial, list(fresh[0].steps)))
        assert fresh[1] != fresh[2] and fresh[0] != fresh[0].initial

    def test_verify_replays_the_pairs(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a step was labelled")

        for seq in self._sequences():
            with monkeypatch.context() as m:
                m.setattr(rc.Universe, "_labeller", refuse)
                final = rc.verify_sequence(seq)
            assert not self._labelled(seq)
            assert final == rc.verify_sequence(rc.CollapseSequence(seq.initial, seq.steps))

    def test_frozen(self):
        seq = self._sequences()[0]
        for name in ("steps", "initial", "_pairs", "other"):
            with pytest.raises(AttributeError):
                setattr(seq, name, ())
        with pytest.raises(AttributeError, match="no attribute 'other'"):
            seq.other


@st.composite
def universes_and_faces(draw):
    n = draw(st.integers(1, 70))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=30))
    return n, sorted({tuple(sorted(s)) for s in sets})


class TestMaskEncoding:
    @given(universes_and_faces())
    def test_heap_order_is_dimension_then_lexicographic(self, case):
        n, faces = case
        universe = _universe(n)
        decode = {universe._mask(map(universe.label, f)): f for f in faces}
        assert all(m == sum(1 << (n - 1 - i) for i in f) for m, f in decode.items())
        assert all(universe._face(m) == f for m, f in decode.items())
        by_mask = sorted(decode, key=lambda m: (-m.bit_count(), -m))
        assert [decode[m] for m in by_mask] == sorted(faces, key=lambda f: (-len(f), f))
        # the greedy heap packs that key into one int
        assert sorted(decode, key=lambda m: -(m.bit_count() << n | m)) == by_mask


class TestWideUniverses:
    """More than 64 vertices, so the masks are wider than a machine word."""

    def test_complexes(self):
        rng = random.Random(64)
        labels = [str(i) for i in range(1, 71)]
        for _ in range(4):
            facets = [rng.sample(labels, rng.randint(1, 4)) for _ in range(40)]
            k = rc.complex_from_facets(labels, facets + [["1", "70"], ["2", "70"], ["1", "2"]])
            core, seq = rc.greedy_collapse(k)
            want_core, want_steps = oracles.scan_greedy_collapse(k)
            assert seq.steps and core == want_core and not core.is_point
            assert [(s.free_face, s.coface) for s in seq.steps] == want_steps
            assert rc.verify_sequence(seq) == oracles.rebuild_verify_sequence(seq) == core
            # a step again once its faces are gone, and a vertex of the core
            vertex = rc.CollapseStep(("1",), ("1", "70"))
            for bad in (seq.steps + seq.steps[:1], seq.steps + (vertex,)):
                s = rc.CollapseSequence(k, bad)
                assert _replay(rc.verify_sequence, s) == _replay(oracles.rebuild_verify_sequence, s)

    def test_poset(self):
        # a crown of 35 maxima over 35 minima, each maximum over two or three minima
        lows = [f"a{i:02}" for i in range(35)]
        highs = [f"b{i:02}" for i in range(35)]
        pairs = [(lows[i], highs[i]) for i in range(35)]
        pairs += [(lows[(i + 1) % 35], highs[i]) for i in range(35)]
        pairs += [(lows[(i + 2) % 35], highs[i]) for i in range(0, 35, 5)]
        p = rc.poset_from_pairs(lows + highs, pairs)
        for side in ("k", "l"):
            seq = rc.collapse_leq_to_strict(p, side)
            assert rc.verify_sequence(seq) == oracles.rebuild_verify_sequence(seq)
            assert rc.verify_sequence(seq) == rc.poset_dowker_complex(p, True, side)
            k = seq.initial
            core, greedy = rc.greedy_collapse(k)
            want_core, want_steps = oracles.scan_greedy_collapse(k)
            assert core == want_core
            assert [(s.free_face, s.coface) for s in greedy.steps] == want_steps


class ReplayMachine(RuleBasedStateMachine):
    """Steps of four kinds on one complex, each judged by the engine and by the rebuilding oracles.

    ``current`` is the initial complex after the free steps taken so far.
    Every step is checked twice: alone by ``apply_step`` on ``current``,
    and after those free steps by ``verify_sequence`` on the initial
    complex; either gives the oracles' complex or their error's face,
    cofaces and index.
    """

    @initialize(k=oracles.complexes(max_vertices=6, max_facets=4))
    def start(self, k):
        self.initial = self.current = k
        self.steps = ()

    def _judge(self, step):
        got = _replay(lambda c: rc.apply_step(c, step), self.current)
        assert got == _replay(lambda c: oracles.rebuild_apply_step(c, step), self.current)
        seq = rc.CollapseSequence(self.initial, self.steps + (step,))
        assert _replay(rc.verify_sequence, seq) == _replay(oracles.rebuild_verify_sequence, seq)
        return got

    def _faces(self, free):
        """The faces of ``current`` that are free, or that are not."""
        return [
            f for f in self.current.label_faces()
            if (oracles.rebuild_free_coface(self.current, f) is not None) == free
        ]

    def _outside(self, face):
        return [v for v in self.current.universe.labels if v not in face]

    @precondition(lambda self: self._faces(True))
    @rule(data=st.data())
    def free_step(self, data):
        free = data.draw(st.sampled_from(self._faces(True)))
        step = rc.CollapseStep(free, oracles.rebuild_free_coface(self.current, free))
        self.current = self._judge(step)
        assert isinstance(self.current, rc.SimplicialComplex)
        self.steps += (step,)

    @precondition(lambda self: any(self._outside(f) for f in self._faces(False)))
    @rule(data=st.data())
    def step_that_is_not_free(self, data):
        free = data.draw(st.sampled_from([f for f in self._faces(False) if self._outside(f)]))
        extra = data.draw(st.sampled_from(self._outside(free)))
        got = self._judge(rc.CollapseStep(free, free + (extra,)))
        assert isinstance(got, tuple) and got[0] == free and got[2] is None

    @precondition(lambda self: self._faces(True))
    @rule(data=st.data())
    def wrong_coface(self, data):
        free = data.draw(st.sampled_from(self._faces(True)))
        coface = oracles.rebuild_free_coface(self.current, free)
        others = [v for v in self._outside(free) if v not in coface]
        if not others:
            return
        extra = data.draw(st.sampled_from(others))
        got = self._judge(rc.CollapseStep(free, free + (extra,)))
        assert isinstance(got, tuple) and got[:3] == (free, (coface,), None)

    @rule(data=st.data(), where=st.sampled_from(["free face", "coface"]))
    def unknown_label(self, data, where):
        labels = self.current.universe.labels
        if where == "free face":
            step = rc.CollapseStep(("zz",), (data.draw(st.sampled_from(labels)), "zz"))
        else:
            face = data.draw(st.sampled_from(sorted(self.current.label_faces())))
            step = rc.CollapseStep(face, face + ("zz",))
        got = self._judge(step)
        assert not isinstance(got, rc.SimplicialComplex)


TestReplayMachine = ReplayMachine.TestCase
TestReplayMachine.settings = settings(
    derandomize=True, max_examples=50, stateful_step_count=20, deadline=5000
)
