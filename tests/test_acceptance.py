"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exhaustive enumerations and seeded random sampling follow the stated bounds;
every check requires zero failures at exact (integer) tolerance.
"""

import functools
import itertools
import random
import time

import pytest

import relcomplex as rc
from relcomplex import formats
from relcomplex.cli import main
from relcomplex.errors import NotRealizableError

import oracles
from conftest import DATA, corpus_cases


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {description}")
                raise
            print(f"[criterion {number:2d}] PASS  {description}")

        return wrapper

    return deco


def _check_collapse_sequence(p, side):
    seq = rc.collapse_leq_to_strict(p, side)
    current = seq.initial
    euler = current.euler_characteristic()
    profile = rc.homology(current)
    for i, step in enumerate(seq.steps):
        current = rc.apply_step(current, step)
        assert len(current.faces) == len(seq.initial.faces) - 2 * (i + 1)
        assert current.euler_characteristic() == euler
        assert rc.homology(current).matches(profile)
    assert current == rc.poset_dowker_complex(p, True, side)


@criterion(1, "homology of K and L agrees for covered relations (random + exhaustive)")
def test_criterion_01_dowker_theorem_suite():
    start = time.monotonic()
    checked = 0
    for nx, ny in itertools.product((1, 2, 3), repeat=2):
        xl = [f"x{i}" for i in range(nx)]
        yl = [f"y{i}" for i in range(ny)]
        for rel in oracles.all_covered_relations(xl, yl):
            assert rc.same_homology(rc.k_complex(rel), rc.l_complex(rel))
            checked += 1
    assert checked == sum(
        (2**nx - 1) ** ny for nx, ny in itertools.product((1, 2, 3), repeat=2)
    )
    rng = random.Random(20250801)
    for _ in range(500):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        rel = oracles.random_covered_relation(
            rng, [f"x{i}" for i in range(nx)], [f"y{i}" for i in range(ny)]
        )
        assert rc.same_homology(rc.k_complex(rel), rc.l_complex(rel))
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 941
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(2, "four-point circle poset: chain complex is a circle, K and L collapse")
def test_criterion_02_circle4_exact_values():
    p = oracles.circle4_poset()
    c = rc.order_complex(p)
    assert rc.homology(c).betti == (1, 1)
    assert rc.homology(c).torsion == ((), ())
    k = rc.poset_dowker_complex(p, False, "k")
    l = rc.poset_dowker_complex(p, False, "l")
    assert k.facet_labels() == (("1", "2", "3"), ("1", "2", "4"))
    assert l.facet_labels() == (("1", "3", "4"), ("2", "3", "4"))
    for complex_ in (k, l):
        core, _ = rc.greedy_collapse(complex_)
        assert core.is_point


@criterion(3, "order collapse reaches the strict complex with invariant Euler/homology")
def test_criterion_03_collapse_theorem_suite():
    eligible = []
    for n in range(2, 6):
        labels = tuple(str(i) for i in range(1, n + 1))
        for p in oracles.all_posets(labels):
            if all(len(c) > 1 for c in rc.connected_components(p)):
                eligible.append(p)
    for p in eligible:
        _check_collapse_sequence(p, "k")
        _check_collapse_sequence(p, "l")
    rng = random.Random(20250803)
    done = 0
    while done < 200:
        n = 6 + done % 2
        p = oracles.random_poset(rng, [str(i) for i in range(1, n + 1)])
        if any(len(c) == 1 for c in rc.connected_components(p)):
            continue
        _check_collapse_sequence(p, "k")
        _check_collapse_sequence(p, "l")
        done += 1
    assert len(eligible) > 3000 and done == 200


@criterion(4, "complexes with private facet vertices realize as length-2 posets")
def test_criterion_04_realization_theorem():
    for n in (2, 3, 4):
        labels = [str(i) for i in range(n + 1)]
        with pytest.raises(NotRealizableError):
            rc.realize_as_poset_k_complex(oracles.boundary_simplex(labels))

    def check(labels, family):
        t = rc.complex_from_facets(labels, family)
        private_ok = all(
            any(all(v not in other for other in family if other != facet) for v in facet)
            for facet in family
        )
        if not private_ok:
            with pytest.raises(NotRealizableError):
                rc.realize_as_poset_k_complex(t)
            return 0
        p = rc.realize_as_poset_k_complex(t)
        assert rc.order_complex(p).dimension() <= 1
        assert rc.poset_dowker_complex(p, False, "k") == t
        return 1

    realized = 0
    for n in range(1, 5):
        labels = [str(i) for i in range(1, n + 1)]
        for family in oracles.all_facet_antichains(labels):
            realized += check(labels, family)
    rng = random.Random(20250804)
    for _ in range(300):
        n = rng.choice((5, 6))
        labels = [str(i) for i in range(1, n + 1)]
        realized += check(labels, oracles.random_facet_family(rng, labels))
    assert realized > 100


@criterion(5, "subcomplex order matches morphism existence (constructive vs brute force)")
def test_criterion_05_galois_correspondence():
    for t in corpus_cases():
        assert rc.k_complex(rc.canonical_relation(t)) == t
    rng = random.Random(20250805)
    for trial in range(200):
        nx = rng.randint(1, 4)
        xl = [f"x{i}" for i in range(nx)]
        r = oracles.random_covered_relation(
            rng, xl, [f"y{i}" for i in range(rng.randint(1, 4))]
        )
        r2 = oracles.random_covered_relation(
            rng, xl, [f"z{i}" for i in range(rng.randint(1, 4))]
        )
        found = rc.find_morphism(r, r2)
        assert (found is not None) == oracles.brute_force_morphism_exists(r, r2)
        assert (found is not None) == rc.is_subcomplex(
            rc.k_complex(r), rc.k_complex(r2)
        )
        if found is not None:
            assert rc.is_morphism(found, r, r2)


@criterion(6, "ten-pair crown relation reproduced exactly (hypotheses and homology)")
def test_criterion_06_crown_counterexample():
    x = oracles.circle4_poset()
    y = oracles.circle6_poset()
    assert rc.closedness_witness(oracles.CROWN_PAIRS, x, y) is None
    rel = rc.ClosedRelation(x, y, oracles.CROWN_PAIRS)

    quillen = rc.quillen_hypothesis(rel)
    assert quillen["certified"] is True
    assert len(quillen["fibers"]) == 10
    for side, element in [(f["side"], f["element"]) for f in quillen["fibers"]]:
        sub = rc.fiber(rel, element, side)
        k_fiber = rc.poset_dowker_complex(sub, False, "k")
        core, _ = rc.greedy_collapse(k_fiber)
        assert rc.cone_apex(k_fiber) is not None or core.is_point

    weak = rc.weak_hypothesis(rel)
    assert weak["holds"] is False
    first_witness = next(f for f in weak["fibers"] if f["maximum"] is None)
    assert (first_witness["side"], first_witness["element"]) == ("x", "3")
    assert first_witness["elements"] == ["b", "c", "d", "e", "f"]

    kx = rc.poset_dowker_complex(x, False, "k")
    ky = rc.poset_dowker_complex(y, False, "k")
    assert rc.homology(kx) == rc.HomologyProfile((1, 0, 0), ((), (), ()))
    assert rc.homology(ky) == rc.HomologyProfile((1, 1, 0), ((), (), ()))
    assert not rc.same_homology(kx, ky)
    cx, cy = rc.order_complex(x), rc.order_complex(y)
    assert rc.same_homology(cx, cy)
    assert rc.homology(cx).betti == rc.homology(cy).betti == (1, 1)
    assert rc.verify_closed_relation(rel, "weak")["verdict"] == "hypothesis-not-met"
    assert rc.verify_closed_relation(rel, "quillen")["verdict"] == "confirmed"


@criterion(7, "weak-theorem conclusion holds for every tiny relation passing its hypothesis")
def test_criterion_07_weak_theorem_suite():
    start = time.monotonic()
    xposets = [
        p
        for labs in (("x1",), ("x1", "x2"), ("x1", "x2", "x3"))
        for p in oracles.all_posets(labs)
    ]
    yposets = [
        q
        for labs in (("y1",), ("y1", "y2"), ("y1", "y2", "y3"))
        for q in oracles.all_posets(labs)
    ]
    checked = holding = 0
    for p, q in itertools.product(xposets, yposets):
        prod = rc.product_poset(p, q)
        for mask in oracles.all_up_set_masks(prod):
            labels = oracles.mask_labels(prod, mask)
            pairs = [tuple(lab[1:-1].split(",")) for lab in labels]
            if {x for x, _ in pairs} != set(p.labels()):
                continue
            if {y for _, y in pairs} != set(q.labels()):
                continue
            rel = rc.ClosedRelation(p, q, pairs)
            checked += 1
            if not rc.weak_hypothesis(rel)["holds"]:
                continue
            holding += 1
            report = rc.verify_closed_relation(rel, "weak")
            assert report["same_homology"] is True
            assert report["preimages"]["x"]["all_full"] is True
            assert report["preimages"]["y"]["all_full"] is True
            assert report["verdict"] == "confirmed"
    elapsed = time.monotonic() - start
    assert checked == 8233 and holding == 975
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion(8, "lattice-style intersection condition forces chain complex ~ L")
def test_criterion_08_lattice_condition():
    checked = 0
    for n in range(1, 6):
        labels = tuple(str(i) for i in range(1, n + 1))
        for p in oracles.all_posets(labels):
            if rc.lattice_condition_witness(p) is None:
                assert rc.same_homology(
                    rc.order_complex(p), rc.poset_dowker_complex(p, False, "l")
                )
                checked += 1
    assert checked > 500


@criterion(9, "homology engine: boundary squares to zero, exact Smith reduction")
def test_criterion_09_homology_engine():
    for k in corpus_cases():
        mats = rc.boundary_matrices(k)
        for low, high in zip(mats, mats[1:]):
            assert oracles.is_zero(oracles.matrix_product(low, high))
        profile = rc.homology(k)
        assert k.euler_characteristic() == sum(
            (-1) ** n * b for n, b in enumerate(profile.betti)
        )
    rng = random.Random(20250809)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = rc.smith_normal_form(oracles.matrix_from_rows(mat))
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        prod = 1
        for k_, d in enumerate(diag[:3], start=1):
            prod *= d
            assert prod == oracles.gcd_of_k_minors(mat, k_)
        if len(diag) < 3 and len(diag) < min(rows, cols):
            assert oracles.gcd_of_k_minors(mat, len(diag) + 1) == 0
    rp2 = oracles.projective_plane()
    assert rc.homology(rp2) == rc.HomologyProfile((1, 0, 0), ((), (2,), ()))


@criterion(10, "byte-stable CLI reports and exact text round trips")
def test_criterion_10_determinism(capsys):
    commands = [
        ("dowker", "k", "--relation", str(DATA / "circle4_leq.relation")),
        ("dowker", "l", "--relation", str(DATA / "circle4_leq.relation")),
        ("dowker", "canonical", "--complex", str(DATA / "boundary2.complex")),
        ("dowker", "equivalent", "--a", str(DATA / "circle4_leq.relation"),
         "--b", str(DATA / "circle4_leq.relation")),
        ("poset", "order-complex", "--poset", str(DATA / "circle6.poset")),
        ("poset", "k", "--poset", str(DATA / "circle4.poset")),
        ("poset", "l-strict", "--poset", str(DATA / "circle6.poset")),
        ("poset", "realize", "--complex", str(DATA / "circle4_k.complex")),
        ("poset", "lattice-check", "--poset", str(DATA / "circle4.poset")),
        ("poset", "to-topology", "--poset", str(DATA / "circle4.poset")),
        ("poset", "from-topology", "--space", str(DATA / "sierpinski.space")),
        ("collapse", "leq-strict", "--poset", str(DATA / "circle6.poset"), "--side", "k"),
        ("collapse", "greedy", "--complex", str(DATA / "circle4_k.complex")),
        ("homology", "--complex", str(DATA / "boundary2.complex")),
        ("homology", "same", "--a", str(DATA / "boundary2.complex"),
         "--b", str(DATA / "circle4_k.complex")),
        ("closed", "verify", "--xposet", str(DATA / "circle4.poset"),
         "--yposet", str(DATA / "circle6.poset"),
         "--relation", str(DATA / "crown_pairs.relation"), "--mode", "weak"),
        ("closed", "verify", "--xposet", str(DATA / "circle4.poset"),
         "--yposet", str(DATA / "circle6.poset"),
         "--relation", str(DATA / "crown_pairs.relation"), "--mode", "quillen"),
        ("verify", "dowker", "--relation", str(DATA / "circle4_leq.relation")),
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert main(list(argv)) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
    for path in sorted(DATA.iterdir()):
        text = path.read_text(encoding="utf-8")
        doc = formats.parse(text)
        assert formats.parse(formats.serialize(doc)) == doc
        assert formats.serialize(formats.parse(formats.serialize(doc))) == \
            formats.serialize(doc)
