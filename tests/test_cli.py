import contextlib
import copy
import gc
import io
import itertools
import json
import os
import pickle
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import relcomplex as rc
from relcomplex import cli, complexes, formats
from relcomplex.cli import main

import oracles
from conftest import DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(data_dir, name):
    return str(data_dir / name)


TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"


def resolve(argv):
    """argv of a pinned table with each file name made a path.

    Files in the text formats are in tests/data, which criterion 10 reads as
    such; the steps report is beside this file.
    """
    return [
        str(TESTS / "data" / a) if a.endswith((".complex", ".poset", ".relation", ".space"))
        else str(TESTS / a) if a.endswith(".steps")
        else a
        for a in argv
    ]


class TestDowkerCommands:
    def test_k(self, capsys, data_dir):
        code, out, _ = run(capsys, "dowker", "k", "--relation", path(data_dir, "circle4_leq.relation"))
        assert code == 0
        assert out == '{"facets":[["1","2","3"],["1","2","4"]]}\n'

    def test_l(self, capsys, data_dir):
        code, out, _ = run(capsys, "dowker", "l", "--relation", path(data_dir, "circle4_leq.relation"))
        assert code == 0
        assert out == '{"facets":[["1","3","4"],["2","3","4"]]}\n'

    def test_morphism_to_self(self, capsys, data_dir):
        rel = path(data_dir, "circle4_leq.relation")
        code, out, _ = run(capsys, "dowker", "morphism", "--from", rel, "--to", rel)
        assert code == 0
        report = json.loads(out)
        assert report["exists"] is True
        assert report["assignment"] == {"1": "1", "2": "2", "3": "3", "4": "4"}

    def test_equivalent_to_self(self, capsys, data_dir):
        rel = path(data_dir, "circle4_leq.relation")
        code, out, _ = run(capsys, "dowker", "equivalent", "--a", rel, "--b", rel)
        assert code == 0 and json.loads(out) == {"equivalent": True}

    def test_canonical(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "dowker", "canonical", "--complex", path(data_dir, "boundary2.complex")
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["yelements"]) == 6


class TestPosetCommands:
    def test_order_complex(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "poset", "order-complex", "--poset", path(data_dir, "circle4.poset")
        )
        assert code == 0
        assert out == '{"facets":[["1","3"],["1","4"],["2","3"],["2","4"]]}\n'

    @pytest.mark.parametrize(
        "sub, expected",
        [
            ("k", '{"facets":[["1","2","3"],["1","2","4"]]}\n'),
            ("l", '{"facets":[["1","3","4"],["2","3","4"]]}\n'),
            ("k-strict", '{"facets":[["1","2"]]}\n'),
            ("l-strict", '{"facets":[["3","4"]]}\n'),
        ],
    )
    def test_dowker_complexes(self, capsys, data_dir, sub, expected):
        code, out, _ = run(capsys, "poset", sub, "--poset", path(data_dir, "circle4.poset"))
        assert code == 0 and out == expected

    def test_realize(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "poset", "realize", "--complex", path(data_dir, "circle4_k.complex")
        )
        assert code == 0
        assert json.loads(out) == {
            "elements": ["1", "2", "3", "4"],
            "less_than": [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]],
        }

    def test_realize_rejects_boundary(self, capsys, data_dir):
        code, _, err = run(
            capsys, "poset", "realize", "--complex", path(data_dir, "boundary2.complex")
        )
        assert code == 2 and "private vertex" in err

    def test_lattice_check(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "poset", "lattice-check", "--poset", path(data_dir, "circle4.poset")
        )
        assert code == 0
        assert json.loads(out) == {"lattice_condition": False, "witness": ["3", "4"]}

    def test_topology_round_trip(self, capsys, data_dir, tmp_path):
        code, out, _ = run(
            capsys, "poset", "from-topology", "--space", path(data_dir, "sierpinski.space")
        )
        assert code == 0
        assert json.loads(out) == {"elements": ["1", "2"], "less_than": [["1", "2"]]}
        code, out, _ = run(
            capsys, "poset", "to-topology", "--poset", path(data_dir, "circle4.poset")
        )
        assert code == 0
        assert json.loads(out)["opens"][-1] == ["1", "2", "3", "4"]


class TestCollapseCommands:
    def test_leq_strict(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "collapse", "leq-strict", "--poset", path(data_dir, "circle4.poset"),
            "--side", "k",
        )
        assert code == 0
        assert json.loads(out) == {
            "steps": [
                [["2", "3"], ["1", "2", "3"]],
                [["3"], ["1", "3"]],
                [["2", "4"], ["1", "2", "4"]],
                [["4"], ["1", "4"]],
            ]
        }

    def test_greedy(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "collapse", "greedy", "--complex", path(data_dir, "circle4_k.complex")
        )
        assert code == 0
        report = json.loads(out)
        assert report["core_facets"] == [["4"]]

    def test_verify_replays_emitted_steps(self, capsys, data_dir, tmp_path):
        code, out, _ = run(
            capsys, "collapse", "leq-strict", "--poset", path(data_dir, "circle4.poset"),
            "--side", "k",
        )
        steps_file = tmp_path / "steps.json"
        steps_file.write_text(out)
        code, out, _ = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"),
            "--steps", str(steps_file),
        )
        assert code == 0
        assert out == '{"facets":[["1","2"]]}\n'

    def test_verify_rejects_bad_steps(self, capsys, data_dir, tmp_path):
        steps_file = tmp_path / "steps.json"
        steps_file.write_text('{"steps":[[["1"],["1","3"]],[["1"],["1","3"]]]}')
        code, _, err = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"),
            "--steps", str(steps_file),
        )
        assert code == 2 and "not free" in err

    def test_verify_names_every_proper_coface(self, capsys):
        argv = ("collapse", "verify", "--complex", "tetra_circle.complex",
                "--steps", "tetra_circle_not_free.steps")
        assert run(capsys, *resolve(argv)) == (2, "", (
            "error: step 1: face ('4',) is not free: it has 9 proper cofaces: "
            "[('1', '2', '4'), ('1', '3', '4'), ('1', '4'), ('2', '3', '4'), ('2', '4'), "
            "('3', '4'), ('4', '5'), ('4', '5', '6'), ('4', '6')]\n"
        ))

    def test_verify_names_a_face_of_another_complex(self, capsys):
        """The golden row of these steps on boundary2 pins exit 2 and no stdout; this pins stderr."""
        argv = ("collapse", "verify", "--complex", "boundary2.complex", "--steps", "circle4_k_strict.steps")
        assert (argv, 2, "") in GOLDEN
        assert run(capsys, *resolve(argv)) == (
            2, "", "error: step 0: face ('2', '3') is not free: it is not a face of the complex\n"
        )

    @pytest.mark.parametrize(
        "steps, face",
        [
            # one-character labels must not pass as a face written as a string
            ('{"steps":[["23","123"],["3","13"],["24","124"],["4","14"]]}', '"23"'),
            ('{"steps":[[[1],[1,2]]]}', "[1]"),
        ],
    )
    def test_verify_rejects_faces_that_are_not_label_lists(
        self, capsys, data_dir, tmp_path, steps, face
    ):
        steps_file = tmp_path / "steps.json"
        steps_file.write_text(steps)
        code, out, err = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"),
            "--steps", str(steps_file),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"parse error: line 1: {steps_file}: malformed steps report "
            f"(a face must be a list of label strings, got {face})\n"
        )

    def test_verify_rejects_a_face_that_repeats_a_label(self, capsys, data_dir, tmp_path):
        steps_file = tmp_path / "steps.json"
        steps_file.write_text('{"steps":[[["2","2"],["1","2","3"]]]}')
        code, out, err = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"),
            "--steps", str(steps_file),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"parse error: line 1: {steps_file}: malformed steps report "
            f"(face ('2', '2') repeats a label)\n"
        )

    def test_verify_rejects_an_empty_label(self, capsys, data_dir, tmp_path):
        steps_file = tmp_path / "steps.json"
        steps_file.write_text('{"steps":[[[""],["","1"]]]}')
        code, out, err = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"),
            "--steps", str(steps_file),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"parse error: line 1: {steps_file}: malformed steps report "
            f"(vertex labels must be nonempty strings, got '')\n"
        )

    def test_singleton_component_exit_code(self, capsys, tmp_path):
        poset_file = tmp_path / "anti.poset"
        poset_file.write_text("poset A\nelement x\nelement y\n")
        code, _, err = run(
            capsys, "collapse", "leq-strict", "--poset", str(poset_file), "--side", "l"
        )
        assert code == 2 and "singleton" in err


class TestHomologyCommands:
    def test_profile(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "homology", "--complex", path(data_dir, "boundary2.complex")
        )
        assert code == 0 and out == '{"betti":[1,1],"torsion":[[],[]]}\n'

    def test_same(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "homology", "same",
            "--a", path(data_dir, "boundary2.complex"),
            "--b", path(data_dir, "circle4_k.complex"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["same"] is False
        assert report["a"] == {"betti": [1, 1], "torsion": [[], []]}

    def test_missing_complex_flag(self, capsys):
        code, _, err = run(capsys, "homology")
        assert code == 1 and "complex" in err

    def test_complex_with_a_subcommand_is_a_usage_error(self, capsys, data_dir):
        rp2 = path(data_dir, "rp2.complex")
        code, out, err = run(capsys, "homology", "--complex", rp2, "same", "--a", rp2, "--b", rp2)
        assert (code, out, err) == (1, "", "usage error: homology --complex takes no subcommand\n")


class TestClosedAndVerify:
    def test_closed_verify_weak(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "closed", "verify",
            "--xposet", path(data_dir, "circle4.poset"),
            "--yposet", path(data_dir, "circle6.poset"),
            "--relation", path(data_dir, "crown_pairs.relation"),
            "--mode", "weak",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "hypothesis-not-met"
        assert report["kx_homology"]["betti"] == [1, 0, 0]
        assert report["ky_homology"]["betti"] == [1, 1, 0]

    def test_closed_verify_quillen(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "closed", "verify",
            "--xposet", path(data_dir, "circle4.poset"),
            "--yposet", path(data_dir, "circle6.poset"),
            "--relation", path(data_dir, "crown_pairs.relation"),
            "--mode", "quillen",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "confirmed"

    def test_verify_dowker(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "verify", "dowker", "--relation", path(data_dir, "circle4_leq.relation")
        )
        assert code == 0
        report = json.loads(out)
        assert report["same"] is True
        assert report["k"] == {"betti": [1, 0, 0], "torsion": [[], [], []]}


def _chain1200(tmp_path) -> str:
    """The path of a 1,200-element chain, written to ``tmp_path``."""
    chain = [f"c{i:04d}" for i in range(1200)]
    big = tmp_path / "chain1200.poset"
    big.write_text("poset P\n" + "".join(f"element {c}\n" for c in chain)
                   + "".join(f"le {a} {b}\n" for a, b in zip(chain, chain[1:])))
    return str(big)


def _capped(*argv):
    """The CLI run on ``argv`` in a fresh process with 1 GB of address space (ulimit -v 1000000)."""
    limit = 1_000_000 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "relcomplex.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        preexec_fn=cap, timeout=120,
    )


class TestExitCodes:
    def test_unparseable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.poset"
        bad.write_text("poset P\nelement a\nle a b\n")
        code, _, err = run(capsys, "poset", "k", "--poset", str(bad))
        assert code == 1 and "line 3" in err

    def test_wrong_kind(self, capsys, data_dir):
        code, _, err = run(
            capsys, "poset", "k", "--poset", path(data_dir, "boundary2.complex")
        )
        assert code == 1
        # the header follows a comment, on the file's second line
        assert err.startswith("parse error: line 2: ") and "expected a poset" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "poset", "k", "--poset", "/nonexistent")
        assert code == 1 and "io error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and "usage error" in err

    def test_cycle_is_a_precondition_error(self, capsys, tmp_path):
        bad = tmp_path / "cyc.poset"
        bad.write_text("poset P\nelement a\nelement b\nle a b\nle b a\n")
        code, _, err = run(capsys, "poset", "k", "--poset", str(bad))
        assert code == 2 and "cycle" in err

    def test_colliding_pair_labels_are_a_precondition_error(self, capsys, tmp_path):
        (tmp_path / "x.poset").write_text("poset X\nelement a\nelement a,b\n")
        (tmp_path / "y.poset").write_text("poset Y\nelement b,c\nelement c\n")
        (tmp_path / "r.relation").write_text(
            "relation R\nxelement a\nxelement a,b\nyelement b,c\nyelement c\n"
            "pair a b,c\npair a,b c\n"
        )
        code, out, err = run(
            capsys, "closed", "verify",
            "--xposet", str(tmp_path / "x.poset"),
            "--yposet", str(tmp_path / "y.poset"),
            "--relation", str(tmp_path / "r.relation"),
            "--mode", "weak",
        )
        assert (code, out) == (2, "") and "'a,b'" in err

    def test_an_order_complex_past_the_face_limit_is_a_precondition_error(self, capsys, tmp_path):
        # 2^1200 - 1 chains: counted, not enumerated, and no recursion 1,200 deep
        code, out, err = run(capsys, "poset", "order-complex", "--poset", _chain1200(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: the complex would have at least {2**1200 - 1} faces, more than the limit of {1 << 24}\n"

    def test_a_k_complex_past_the_face_limit_fails_before_building(self, tmp_path):
        # the 1,200 down-sets of a chain span 2^1200 - 1 faces; under 1 GB of
        # address space its K-complex is one facet, and a command that needs
        # the faces is refused before any face is built
        big = _chain1200(tmp_path)
        proc = _capped("poset", "k", "--poset", big)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {"facets": [[f"c{i:04d}" for i in range(1200)]]}
        proc = _capped("collapse", "leq-strict", "--poset", big, "--side", "l")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: the complex would have at least {2**1200 - 1} faces, more than the limit of {1 << 24}\n"

    @pytest.mark.parametrize("name, faces", [("chain1200", 2**1200 - 1), ("c4cubed", 2**27 - 1)])
    def test_a_collapse_past_the_face_limit_lists_no_cone(self, tmp_path, name, faces):
        # the cones of the maximal elements would be listed pair by pair: 2^1199
        # pairs on the chain, and 2^26 per maximal element of c4 cubed
        poset = _chain1200(tmp_path) if name == "chain1200" else str(DATA / "c4cubed.poset")
        proc = _capped("collapse", "leq-strict", "--poset", poset, "--side", "k")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: the complex would have at least {faces} faces, more than the limit of {1 << 24}\n"

    def test_a_greedy_collapse_past_the_face_limit_counts_no_coface(self, tmp_path):
        # the face limit refuses the one 30-vertex facet before its 2^30 - 1
        # submasks are walked for their coface counts
        big = tmp_path / "simplex30.complex"
        big.write_text("complex S\nfacet " + " ".join(f"v{i:02d}" for i in range(30)) + "\n")
        proc = _capped("collapse", "greedy", "--complex", str(big))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: the complex would have at least 1073741823 faces, more than the limit of 16777216\n"

    def test_a_topology_past_the_open_limit_is_a_precondition_error(self, capsys, monkeypatch, tmp_path):
        # an antichain's opens are all 2^12 subsets; the build stops at the first past the limit
        wide = tmp_path / "antichain12.poset"
        wide.write_text("poset P\n" + "".join(f"element e{i:02d}\n" for i in range(12)))
        monkeypatch.setattr("relcomplex.posets._MAX_FACES", 1000)
        assert run(capsys, "poset", "to-topology", "--poset", str(wide)) == (
            2, "", "error: the topology would have at least 1001 open sets, more than the limit of 1000\n"
        )

    def test_comma_in_a_vertex_label_is_a_precondition_error(self, capsys, tmp_path):
        bad = tmp_path / "comma.complex"
        bad.write_text("complex C\nfacet a,b c\n")
        code, out, err = run(capsys, "dowker", "canonical", "--complex", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: label 'a,b' contains ',', so face labels would not be unique\n"

    def test_input_that_is_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.complex"
        bad.write_bytes(b"complex C\nfacet a b\nfacet \xff b\n")
        code, out, err = run(capsys, "homology", "--complex", str(bad))
        assert (code, out) == (1, "")
        assert err == f"parse error: line 3: {bad}: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_steps_that_are_not_utf8(self, capsys, data_dir, tmp_path):
        bad = tmp_path / "latin1.steps"
        bad.write_bytes(b'{"steps":\n[[["\xe9"],["1","\xe9"]]]}\n')
        code, out, err = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"), "--steps", str(bad),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"parse error: line 2: {bad}: byte 0xe9 is not UTF-8")

    def test_steps_nested_too_deeply(self, capsys, data_dir, tmp_path):
        deep = tmp_path / "deep.steps"
        deep.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(
            capsys, "collapse", "verify",
            "--complex", path(data_dir, "circle4_k.complex"), "--steps", str(deep),
        )
        assert (code, out, err) == (1, "", f"parse error: line 1: {deep}: nested too deeply\n")

    @pytest.mark.parametrize(
        "points, opens, err",
        [
            # no open holds both points
            ("12", ["1"], "error: the whole point set must be open\n"),
            # {1} | {2} is missing; every intersection is present
            ("123", ["1", "2", "1 2 3"], "error: open sets must be closed under union\n"),
            # {1,2} & {2,3} is missing; every union is present
            ("123", ["1 2", "2 3", "1 2 3"],
             "error: open sets must be closed under intersection\n"),
            # both {1,2,3} and {2} are missing; union is named
            ("1234", ["1 2", "2 3", "1 2 3 4"], "error: open sets must be closed under union\n"),
        ],
    )
    def test_invalid_space_is_a_precondition_error(self, capsys, tmp_path, points, opens, err):
        bad = tmp_path / "bad.space"
        bad.write_text(
            "space S\n"
            + "".join(f"point {x}\n" for x in points)
            + "".join(f"open {o}\n" for o in opens)
        )
        assert run(capsys, "poset", "from-topology", "--space", str(bad)) == (2, "", err)

    def test_uncovered_morphism_input(self, capsys, tmp_path):
        rel = tmp_path / "u.relation"
        rel.write_text(
            "relation U\nxelement 1\nyelement a\nyelement b\npair 1 a\n"
        )
        code, _, err = run(
            capsys, "dowker", "morphism", "--from", str(rel), "--to", str(rel)
        )
        assert code == 2 and "not covered" in err


# labels for generated documents: few, so every complex stays small, and two
# that hold the characters joined labels reserve
ALPHABET = ["a", "b", "c", "d", "e", "a,b", "(a)"]
# the declaring keywords of each kind; the rest of its grammar uses labels
DECLARE = {"complex": [], "poset": ["element"], "relation": ["xelement", "yelement"], "space": ["point"]}


@st.composite
def document_texts(draw, kind):
    """A well-formed document of ``kind``: its labels declared, each line of the right arity."""
    declared = sorted(draw(st.sets(st.sampled_from(ALPHABET), min_size=1, max_size=5)))
    lines = [f"{kind} D"] + [f"{kw} {lab}" for kw in DECLARE[kind] for lab in declared]
    grammar = formats._GRAMMAR[kind]
    uses = [kw for kw in grammar if kw not in DECLARE[kind]]
    for _ in range(draw(st.integers(0, 8))):
        keyword = draw(st.sampled_from(uses))
        lo, hi = grammar[keyword]  # a fixed arity, or a label set of 1 or more
        size = hi or draw(st.integers(1, min(4, len(declared))))
        labels = draw(st.lists(st.sampled_from(declared), min_size=size, max_size=size,
                               unique=hi is None))
        lines.append(" ".join([keyword, *labels]))
    return "\n".join(lines) + "\n"


def documents(kind):
    """Mostly well-formed documents; some with a line of any text or a byte that is not UTF-8."""
    well_formed = document_texts(kind).map(str.encode)
    return st.one_of(
        well_formed,
        well_formed,
        well_formed,
        st.tuples(document_texts(kind), st.text(max_size=20)).map(lambda t: f"{t[0]}{t[1]}\n".encode()),
        well_formed.map(lambda text: text + b"facet \xff\n"),
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
step_faces = st.lists(st.sampled_from(ALPHABET), max_size=4)
steps_files = st.one_of(
    st.lists(st.lists(step_faces, min_size=2, max_size=2), max_size=6).map(lambda s: {"steps": s}),
    json_values.map(lambda v: {"steps": v}),
    json_values,
).map(json.dumps).map(str.encode) | st.binary(max_size=20)

CIRCLE4_K = b"complex K\nfacet 1 2 3\nfacet 1 2 4\n"
BASE_FILES = {
    "complex": CIRCLE4_K,
    "poset": (DATA / "circle4.poset").read_bytes(),
    "relation": (DATA / "circle4_leq.relation").read_bytes(),
    "space": (DATA / "sierpinski.space").read_bytes(),
    "steps": b'{"steps":[]}',
}
# an option named after no kind -> the kind of file it takes
OPTION_KINDS = {"--from": "relation", "--to": "relation", "--xposet": "poset", "--yposet": "poset"}


def _argv(row, paths, pick):
    """The argv of a ``cli._COMMANDS`` row, each file option given the file of its kind."""
    group, name, options = row[:3]
    argv = [group, name]
    for option in options:
        if option in cli._CHOICES:
            argv += [option, cli._CHOICES[option][pick]]
            continue
        kind = OPTION_KINDS.get(option, option[2:])
        if option in ("--a", "--b"):
            kind = "relation" if group == "dowker" else "complex"
        argv += [option, paths[kind]]
    return argv


class TestNeverTracebacks:
    """main() on generated files ends in exit code 0, 1 or 2 and raises nothing."""

    @settings(max_examples=100)
    @given(
        files=st.fixed_dictionaries(
            {**{kind: documents(kind) for kind in DECLARE}, "steps": steps_files}
        ),
        pick=st.integers(0, 1),
    )
    # the six hostile inputs found by hand, each once a traceback or a wrong verdict
    @example(files={**BASE_FILES, "complex": b"complex C\nfacet a b\nfacet \xff b\n"}, pick=0)
    @example(files={**BASE_FILES, "complex": b"complex C\nfacet a,b c\n"}, pick=0)
    @example(files={**BASE_FILES, "steps": b"[" * 200000 + b"]" * 200000}, pick=0)
    @example(files={
        **BASE_FILES, "steps": b'{"steps":[["23","123"],["3","13"],["24","124"],["4","14"]]}',
    }, pick=0)
    @example(files={**BASE_FILES, "steps": b'{"steps":[[["2","2"],["1","2","3"]]]}'}, pick=0)
    @example(files={**BASE_FILES, "steps": b'{"steps":[[[["1"]],[["1"],"3"]]]}'}, pick=0)
    def test_every_command_ends_in_an_exit_code(self, files, pick):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for kind, data in files.items():
                paths[kind] = os.path.join(tmp, f"in.{kind}")
                Path(paths[kind]).write_bytes(data)
            for row in cli._COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(_argv(row, paths, pick))
                assert code in (0, 1, 2)
                # a report on stdout or a message on stderr, never both
                assert (code == 0) == bool(out.getvalue()) != bool(err.getvalue())


class TestShuffledFiles:
    """A command prints the same bytes on files whose records are shuffled,
    some repeated, as on their canonical texts."""

    @pytest.mark.parametrize("argv", [
        ("dowker", "canonical", "--complex", "rp2.complex"),
        ("dowker", "canonical", "--complex", "escapes.complex"),
        ("poset", "realize", "--complex", "c4chain3_k.complex"),
        ("dowker", "morphism", "--from", "circle4_leq.relation", "--to", "circle4_leq.relation"),
        ("dowker", "morphism", "--from", "crown_pairs.relation", "--to", "circle4_leq.relation"),
        ("dowker", "equivalent", "--a", "circle4_leq.relation", "--b", "circle4_leq.relation"),
        ("collapse", "greedy", "--complex", "moore3.complex"),
        ("collapse", "greedy", "--complex", "escapes.complex"),
        ("verify", "dowker", "--relation", "chain5_chain4.relation"),
    ])
    @settings(max_examples=4, deadline=10000)
    @given(rnd=st.randoms(use_true_random=False))
    def test_same_bytes(self, argv, rnd):
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for side in ("canonical", "shuffled"):
                args = []
                for i, a in enumerate(resolve(argv)):
                    if a.startswith(str(TESTS)):
                        doc = formats.parse(Path(a).read_text(encoding="utf-8"))
                        text = formats.serialize(doc) if side == "canonical" else oracles.shuffled_text(doc, rnd)
                        a = os.path.join(tmp, f"{side}{i}{Path(a).suffix}")
                        Path(a).write_text(text, encoding="utf-8")
                    args.append(a)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(args) == 0
                outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("poset", "k", "--poset", "circle4.poset"),
            ("poset", "to-topology", "--poset", "circle6.poset"),
            ("collapse", "leq-strict", "--poset", "circle6.poset", "--side", "l"),
            ("homology", "--complex", "boundary2.complex"),
            ("dowker", "canonical", "--complex", "circle4_k.complex"),
        ],
    )
    def test_byte_stable_across_runs(self, capsys, data_dir, argv):
        argv = [a if not a.endswith((".poset", ".complex", ".relation")) else path(data_dir, a) for a in argv]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


def pinned(name):
    """A report too long to inline, from tests/golden."""
    return (TESTS / "golden" / name).read_text(encoding="utf-8")


# Stdout and exit code of every command form on files in tests/data.  The
# homology rows were recorded with the dense Smith-normal-form engine, the
# others before the command table replaced the hand-built parser; any engine
# or parser must reproduce these bytes.  The c4chain3 rows, at the size of a
# poset-collapse job, were recorded before the collapse engines read coface
# counts from the facets and labelled faces by prefix, the escapes rows, whose
# labels hold a quote, a backslash and a non-ASCII letter, before reports
# were written as text from mask pairs.  The chain5 x chain4
# row was recorded while the weak check still spanned the relation poset's
# K-complex, there the full simplex on all 20 pairs.  The c4cubed rows, each
# eight facets of 26 or 27 vertices, were exit 2 while building a complex
# built its faces, and are checked against the oracle below.
GOLDEN = [
    (('homology', '--complex', 'boundary2.complex'), 0, '{"betti":[1,1],"torsion":[[],[]]}\n'),
    (('homology', '--complex', 'circle4_k.complex'), 0, '{"betti":[1,0,0],"torsion":[[],[],[]]}\n'),
    (('homology', '--complex', 'moore3.complex'), 0, '{"betti":[1,0,0],"torsion":[[],[3],[]]}\n'),
    (('homology', '--complex', 'rp2.complex'), 0, '{"betti":[1,0,0],"torsion":[[],[2],[]]}\n'),
    (('homology', 'same', '--a', 'boundary2.complex', '--b', 'boundary2.complex'), 0, '{"a":{"betti":[1,1],"torsion":[[],[]]},"b":{"betti":[1,1],"torsion":[[],[]]},"same":true}\n'),
    (('homology', 'same', '--a', 'boundary2.complex', '--b', 'circle4_k.complex'), 0, '{"a":{"betti":[1,1],"torsion":[[],[]]},"b":{"betti":[1,0,0],"torsion":[[],[],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'boundary2.complex', '--b', 'moore3.complex'), 0, '{"a":{"betti":[1,1],"torsion":[[],[]]},"b":{"betti":[1,0,0],"torsion":[[],[3],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'boundary2.complex', '--b', 'rp2.complex'), 0, '{"a":{"betti":[1,1],"torsion":[[],[]]},"b":{"betti":[1,0,0],"torsion":[[],[2],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'circle4_k.complex', '--b', 'boundary2.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[],[]]},"b":{"betti":[1,1],"torsion":[[],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'circle4_k.complex', '--b', 'circle4_k.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[],[]]},"b":{"betti":[1,0,0],"torsion":[[],[],[]]},"same":true}\n'),
    (('homology', 'same', '--a', 'circle4_k.complex', '--b', 'moore3.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[],[]]},"b":{"betti":[1,0,0],"torsion":[[],[3],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'circle4_k.complex', '--b', 'rp2.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[],[]]},"b":{"betti":[1,0,0],"torsion":[[],[2],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'moore3.complex', '--b', 'boundary2.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[3],[]]},"b":{"betti":[1,1],"torsion":[[],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'moore3.complex', '--b', 'circle4_k.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[3],[]]},"b":{"betti":[1,0,0],"torsion":[[],[],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'moore3.complex', '--b', 'moore3.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[3],[]]},"b":{"betti":[1,0,0],"torsion":[[],[3],[]]},"same":true}\n'),
    (('homology', 'same', '--a', 'moore3.complex', '--b', 'rp2.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[3],[]]},"b":{"betti":[1,0,0],"torsion":[[],[2],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'rp2.complex', '--b', 'boundary2.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[2],[]]},"b":{"betti":[1,1],"torsion":[[],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'rp2.complex', '--b', 'circle4_k.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[2],[]]},"b":{"betti":[1,0,0],"torsion":[[],[],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'rp2.complex', '--b', 'moore3.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[2],[]]},"b":{"betti":[1,0,0],"torsion":[[],[3],[]]},"same":false}\n'),
    (('homology', 'same', '--a', 'rp2.complex', '--b', 'rp2.complex'), 0, '{"a":{"betti":[1,0,0],"torsion":[[],[2],[]]},"b":{"betti":[1,0,0],"torsion":[[],[2],[]]},"same":true}\n'),
    (('verify', 'dowker', '--relation', 'circle4_leq.relation'), 0, '{"k":{"betti":[1,0,0],"torsion":[[],[],[]]},"l":{"betti":[1,0,0],"torsion":[[],[],[]]},"same":true}\n'),
    (('verify', 'dowker', '--relation', 'crown_pairs.relation'), 0, '{"k":{"betti":[1,0,0],"torsion":[[],[],[]]},"l":{"betti":[1,0,0,0,0],"torsion":[[],[],[],[],[]]},"same":true}\n'),
    (('dowker', 'k', '--relation', 'circle4_leq.relation'), 0, '{"facets":[["1","2","3"],["1","2","4"]]}\n'),
    (('dowker', 'k', '--relation', 'crown_pairs.relation'), 0, '{"facets":[["1","3","4"],["2","3","4"]]}\n'),
    (('dowker', 'l', '--relation', 'circle4_leq.relation'), 0, '{"facets":[["1","3","4"],["2","3","4"]]}\n'),
    (('dowker', 'l', '--relation', 'crown_pairs.relation'), 0, '{"facets":[["a","d","e"],["b","c","d","e","f"]]}\n'),
    (('dowker', 'morphism', '--from', 'circle4_leq.relation', '--to', 'circle4_leq.relation'), 0, '{"assignment":{"1":"1","2":"2","3":"3","4":"4"},"exists":true}\n'),
    (('dowker', 'morphism', '--from', 'circle4_leq.relation', '--to', 'crown_pairs.relation'), 0, '{"assignment":null,"exists":false}\n'),
    (('dowker', 'morphism', '--from', 'crown_pairs.relation', '--to', 'circle4_leq.relation'), 0, '{"assignment":null,"exists":false}\n'),
    (('dowker', 'morphism', '--from', 'crown_pairs.relation', '--to', 'crown_pairs.relation'), 0, '{"assignment":{"a":"a","b":"b","c":"b","d":"d","e":"e","f":"b"},"exists":true}\n'),
    (('dowker', 'equivalent', '--a', 'circle4_leq.relation', '--b', 'circle4_leq.relation'), 0, '{"equivalent":true}\n'),
    (('dowker', 'equivalent', '--a', 'circle4_leq.relation', '--b', 'crown_pairs.relation'), 0, '{"equivalent":false}\n'),
    (('dowker', 'equivalent', '--a', 'crown_pairs.relation', '--b', 'circle4_leq.relation'), 0, '{"equivalent":false}\n'),
    (('dowker', 'equivalent', '--a', 'crown_pairs.relation', '--b', 'crown_pairs.relation'), 0, '{"equivalent":true}\n'),
    (('dowker', 'canonical', '--complex', 'boundary2.complex'), 0, '{"pairs":[["a","a"],["a","a,b"],["a","a,c"],["b","a,b"],["b","b"],["b","b,c"],["c","a,c"],["c","b,c"],["c","c"]],"xelements":["a","b","c"],"yelements":["a","a,b","a,c","b","b,c","c"]}\n'),
    (('dowker', 'canonical', '--complex', 'circle4_k.complex'), 0, '{"pairs":[["1","1"],["1","1,2"],["1","1,2,3"],["1","1,2,4"],["1","1,3"],["1","1,4"],["2","1,2"],["2","1,2,3"],["2","1,2,4"],["2","2"],["2","2,3"],["2","2,4"],["3","1,2,3"],["3","1,3"],["3","2,3"],["3","3"],["4","1,2,4"],["4","1,4"],["4","2,4"],["4","4"]],"xelements":["1","2","3","4"],"yelements":["1","1,2","1,2,3","1,2,4","1,3","1,4","2","2,3","2,4","3","4"]}\n'),
    (('dowker', 'canonical', '--complex', 'rp2.complex'), 0, '{"pairs":[["1","1"],["1","1,2"],["1","1,2,5"],["1","1,2,6"],["1","1,3"],["1","1,3,4"],["1","1,3,5"],["1","1,4"],["1","1,4,6"],["1","1,5"],["1","1,6"],["2","1,2"],["2","1,2,5"],["2","1,2,6"],["2","2"],["2","2,3"],["2","2,3,4"],["2","2,3,6"],["2","2,4"],["2","2,4,5"],["2","2,5"],["2","2,6"],["3","1,3"],["3","1,3,4"],["3","1,3,5"],["3","2,3"],["3","2,3,4"],["3","2,3,6"],["3","3"],["3","3,4"],["3","3,5"],["3","3,5,6"],["3","3,6"],["4","1,3,4"],["4","1,4"],["4","1,4,6"],["4","2,3,4"],["4","2,4"],["4","2,4,5"],["4","3,4"],["4","4"],["4","4,5"],["4","4,5,6"],["4","4,6"],["5","1,2,5"],["5","1,3,5"],["5","1,5"],["5","2,4,5"],["5","2,5"],["5","3,5"],["5","3,5,6"],["5","4,5"],["5","4,5,6"],["5","5"],["5","5,6"],["6","1,2,6"],["6","1,4,6"],["6","1,6"],["6","2,3,6"],["6","2,6"],["6","3,5,6"],["6","3,6"],["6","4,5,6"],["6","4,6"],["6","5,6"],["6","6"]],"xelements":["1","2","3","4","5","6"],"yelements":["1","1,2","1,2,5","1,2,6","1,3","1,3,4","1,3,5","1,4","1,4,6","1,5","1,6","2","2,3","2,3,4","2,3,6","2,4","2,4,5","2,5","2,6","3","3,4","3,5","3,5,6","3,6","4","4,5","4,5,6","4,6","5","5,6","6"]}\n'),
    (('poset', 'order-complex', '--poset', 'circle4.poset'), 0, '{"facets":[["1","3"],["1","4"],["2","3"],["2","4"]]}\n'),
    (('poset', 'order-complex', '--poset', 'circle6.poset'), 0, '{"facets":[["a","d"],["a","e"],["b","d"],["b","f"],["c","e"],["c","f"]]}\n'),
    (('poset', 'k', '--poset', 'circle4.poset'), 0, '{"facets":[["1","2","3"],["1","2","4"]]}\n'),
    (('poset', 'k', '--poset', 'circle6.poset'), 0, '{"facets":[["a","b","d"],["a","c","e"],["b","c","f"]]}\n'),
    (('poset', 'l', '--poset', 'circle4.poset'), 0, '{"facets":[["1","3","4"],["2","3","4"]]}\n'),
    (('poset', 'l', '--poset', 'circle6.poset'), 0, '{"facets":[["a","d","e"],["b","d","f"],["c","e","f"]]}\n'),
    (('poset', 'k-strict', '--poset', 'circle4.poset'), 0, '{"facets":[["1","2"]]}\n'),
    (('poset', 'k-strict', '--poset', 'circle6.poset'), 0, '{"facets":[["a","b"],["a","c"],["b","c"]]}\n'),
    (('poset', 'l-strict', '--poset', 'circle4.poset'), 0, '{"facets":[["3","4"]]}\n'),
    (('poset', 'l-strict', '--poset', 'circle6.poset'), 0, '{"facets":[["d","e"],["d","f"],["e","f"]]}\n'),
    (('poset', 'k', '--poset', 'c4cubed.poset'), 0, pinned('c4cubed_k.json')),
    (('poset', 'l', '--poset', 'c4cubed.poset'), 0, pinned('c4cubed_l.json')),
    (('poset', 'k-strict', '--poset', 'c4cubed.poset'), 0, pinned('c4cubed_k_strict.json')),
    (('poset', 'l-strict', '--poset', 'c4cubed.poset'), 0, pinned('c4cubed_l_strict.json')),
    (('poset', 'realize', '--complex', 'boundary2.complex'), 2, ''),
    (('poset', 'realize', '--complex', 'circle4_k.complex'), 0, '{"elements":["1","2","3","4"],"less_than":[["1","3"],["1","4"],["2","3"],["2","4"]]}\n'),
    (('poset', 'realize', '--complex', 'moore3.complex'), 2, ''),
    (('poset', 'realize', '--complex', 'rp2.complex'), 2, ''),
    (('poset', 'lattice-check', '--poset', 'circle4.poset'), 0, '{"lattice_condition":false,"witness":["3","4"]}\n'),
    (('poset', 'lattice-check', '--poset', 'circle6.poset'), 0, '{"lattice_condition":true,"witness":null}\n'),
    (('poset', 'to-topology', '--poset', 'circle4.poset'), 0, '{"opens":[[],["1"],["2"],["1","2"],["1","2","3"],["1","2","4"],["1","2","3","4"]],"points":["1","2","3","4"]}\n'),
    (('poset', 'to-topology', '--poset', 'circle6.poset'), 0, '{"opens":[[],["a"],["b"],["c"],["a","b"],["a","c"],["b","c"],["a","b","c"],["a","b","d"],["a","c","e"],["b","c","f"],["a","b","c","d"],["a","b","c","e"],["a","b","c","f"],["a","b","c","d","e"],["a","b","c","d","f"],["a","b","c","e","f"],["a","b","c","d","e","f"]],"points":["a","b","c","d","e","f"]}\n'),
    (('poset', 'from-topology', '--space', 'sierpinski.space'), 0, '{"elements":["1","2"],"less_than":[["1","2"]]}\n'),
    (('collapse', 'leq-strict', '--poset', 'circle4.poset', '--side', 'k'), 0, '{"steps":[[["2","3"],["1","2","3"]],[["3"],["1","3"]],[["2","4"],["1","2","4"]],[["4"],["1","4"]]]}\n'),
    (('collapse', 'leq-strict', '--poset', 'circle4.poset', '--side', 'l'), 0, '{"steps":[[["1","4"],["1","3","4"]],[["1"],["1","3"]],[["2","4"],["2","3","4"]],[["2"],["2","3"]]]}\n'),
    (('collapse', 'leq-strict', '--poset', 'circle6.poset', '--side', 'k'), 0, '{"steps":[[["b","d"],["a","b","d"]],[["d"],["a","d"]],[["c","e"],["a","c","e"]],[["e"],["a","e"]],[["c","f"],["b","c","f"]],[["f"],["b","f"]]]}\n'),
    (('collapse', 'leq-strict', '--poset', 'circle6.poset', '--side', 'l'), 0, '{"steps":[[["a","e"],["a","d","e"]],[["a"],["a","d"]],[["b","f"],["b","d","f"]],[["b"],["b","d"]],[["c","f"],["c","e","f"]],[["c"],["c","e"]]]}\n'),
    (('collapse', 'greedy', '--complex', 'boundary2.complex'), 0, '{"core_facets":[["a","b"],["a","c"],["b","c"]],"steps":[]}\n'),
    (('collapse', 'greedy', '--complex', 'circle4_k.complex'), 0, '{"core_facets":[["4"]],"steps":[[["1","3"],["1","2","3"]],[["1","2"],["1","2","4"]],[["1"],["1","4"]],[["3"],["2","3"]],[["2"],["2","4"]]]}\n'),
    (('collapse', 'greedy', '--complex', 'moore3.complex'), 0, '{"core_facets":[["a","b","p0"],["a","b","p3"],["a","b","p6"],["a","c","p2"],["a","c","p5"],["a","c","p8"],["a","p0","p8"],["a","p2","p3"],["a","p5","p6"],["b","c","p1"],["b","c","p4"],["b","c","p7"],["b","p0","p1"],["b","p3","p4"],["b","p6","p7"],["c","p1","p2"],["c","p4","p5"],["c","p7","p8"],["o","p0","p1"],["o","p0","p8"],["o","p1","p2"],["o","p2","p3"],["o","p3","p4"],["o","p4","p5"],["o","p5","p6"],["o","p6","p7"],["o","p7","p8"]],"steps":[]}\n'),
    (('collapse', 'greedy', '--complex', 'rp2.complex'), 0, '{"core_facets":[["1","2","5"],["1","2","6"],["1","3","4"],["1","3","5"],["1","4","6"],["2","3","4"],["2","3","6"],["2","4","5"],["3","5","6"],["4","5","6"]],"steps":[]}\n'),
    (('collapse', 'greedy', '--complex', 'tetra_circle.complex'), 0, '{"core_facets":[["7","8"],["7","9"],["8","9"]],"steps":[[["1","2","3"],["1","2","3","4"]],[["1","2"],["1","2","4"]],[["1","3"],["1","3","4"]],[["2","3"],["2","3","4"]],[["4","5"],["4","5","6"]],[["1"],["1","4"]],[["10"],["10","9"]],[["2"],["2","4"]],[["3"],["3","4"]],[["4"],["4","6"]],[["5"],["5","6"]],[["6"],["6","7"]]]}\n'),
    (('collapse', 'leq-strict', '--poset', 'c4chain3.poset', '--side', 'k'), 0, pinned('c4chain3_leq_strict_k.json')),
    (('collapse', 'leq-strict', '--poset', 'c4chain3.poset', '--side', 'l'), 0, pinned('c4chain3_leq_strict_l.json')),
    (('collapse', 'greedy', '--complex', 'c4chain3_k.complex'), 0, pinned('c4chain3_k_greedy.json')),
    (('collapse', 'greedy', '--complex', 'escapes.complex'), 0, pinned('escapes_greedy.json')),
    (('collapse', 'leq-strict', '--poset', 'escapes.poset', '--side', 'k'), 0, pinned('escapes_leq_strict_k.json')),
    (('collapse', 'leq-strict', '--poset', 'escapes.poset', '--side', 'l'), 0, pinned('escapes_leq_strict_l.json')),
    (('collapse', 'verify', '--complex', 'circle4_k.complex', '--steps', 'circle4_k_strict.steps'), 0, '{"facets":[["1","2"]]}\n'),
    (('collapse', 'verify', '--complex', 'boundary2.complex', '--steps', 'circle4_k_strict.steps'), 2, ''),
    (('collapse', 'verify', '--complex', 'tetra_circle.complex', '--steps', 'tetra_circle_not_free.steps'), 2, ''),
    (('closed', 'verify', '--xposet', 'circle4.poset', '--yposet', 'circle6.poset', '--relation', 'crown_pairs.relation', '--mode', 'quillen'), 0, '{"cx_homology":{"betti":[1,1],"torsion":[[],[]]},"cy_homology":{"betti":[1,1],"torsion":[[],[]]},"hypothesis":{"certified":true,"fibers":[{"apex":"d","certificate":"cone","element":"1","side":"x"},{"apex":"e","certificate":"cone","element":"2","side":"x"},{"certificate":"collapsible","element":"3","side":"x"},{"apex":"a","certificate":"cone","element":"4","side":"x"},{"apex":"4","certificate":"cone","element":"a","side":"y"},{"apex":"3","certificate":"cone","element":"b","side":"y"},{"apex":"3","certificate":"cone","element":"c","side":"y"},{"apex":"1","certificate":"cone","element":"d","side":"y"},{"apex":"2","certificate":"cone","element":"e","side":"y"},{"apex":"3","certificate":"cone","element":"f","side":"y"}],"hypothesis":"quillen"},"hypothesis_met":true,"mode":"quillen","same_homology":true,"verdict":"confirmed"}\n'),
    (('closed', 'verify', '--xposet', 'circle4.poset', '--yposet', 'circle6.poset', '--relation', 'crown_pairs.relation', '--mode', 'weak'), 0, '{"hypothesis":{"fibers":[{"element":"1","elements":["d"],"maximum":"d","side":"x"},{"element":"2","elements":["e"],"maximum":"e","side":"x"},{"element":"3","elements":["b","c","d","e","f"],"maximal":["d","e","f"],"maximum":null,"side":"x"},{"element":"4","elements":["a","d","e"],"maximal":["d","e"],"maximum":null,"side":"x"},{"element":"a","elements":["4"],"maximum":"4","side":"y"},{"element":"b","elements":["3"],"maximum":"3","side":"y"},{"element":"c","elements":["3"],"maximum":"3","side":"y"},{"element":"d","elements":["1","3","4"],"maximal":["3","4"],"maximum":null,"side":"y"},{"element":"e","elements":["2","3","4"],"maximal":["3","4"],"maximum":null,"side":"y"},{"element":"f","elements":["3"],"maximum":"3","side":"y"}],"holds":false,"hypothesis":"weak"},"hypothesis_met":false,"kx_homology":{"betti":[1,0,0],"torsion":[[],[],[]]},"ky_homology":{"betti":[1,1,0],"torsion":[[],[],[]]},"mode":"weak","preimages":{"x":{"all_full":false,"facets":[{"facet":["1","2","3"],"full_simplex":false,"vertices":["(1,d)","(2,e)","(3,b)","(3,c)","(3,d)","(3,e)","(3,f)"]},{"facet":["1","2","4"],"full_simplex":false,"vertices":["(1,d)","(2,e)","(4,a)","(4,d)","(4,e)"]}],"side":"x"},"y":{"all_full":false,"facets":[{"facet":["a","b","d"],"full_simplex":false,"vertices":["(1,d)","(3,b)","(3,d)","(4,a)","(4,d)"]},{"facet":["a","c","e"],"full_simplex":false,"vertices":["(2,e)","(3,c)","(3,e)","(4,a)","(4,e)"]},{"facet":["b","c","f"],"full_simplex":true,"vertices":["(3,b)","(3,c)","(3,f)"]}],"side":"y"}},"same_homology":false,"verdict":"hypothesis-not-met"}\n'),
    (('closed', 'verify', '--xposet', 'chain5.poset', '--yposet', 'chain4.poset', '--relation', 'chain5_chain4.relation', '--mode', 'weak'), 0, pinned('chain5_chain4_weak.json')),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv, code, out", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_stdout_and_exit_code(self, capsys, argv, code, out):
        assert run(capsys, *resolve(argv))[:2] == (code, out)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("side", ["k", "l"])
    def test_c4cubed_rows_are_the_oracle_facets(self, side, strict):
        name = f"c4cubed_{side}{'_strict' if strict else ''}.json"
        assert json.loads(pinned(name)) == {"facets": oracles.c4cubed_dowker_facets(strict, side)}


class TestFacetsOnly:
    """What reads only the facets builds no face: the one walk over submasks,
    patched to raise, is never reached."""

    @pytest.fixture(autouse=True)
    def no_face_walk(self, monkeypatch):
        def walk(tops):
            raise AssertionError("a face was built")

        monkeypatch.setattr(complexes, "_walk", walk)

    @pytest.mark.parametrize("argv", [
        *(("poset", side, "--poset", name) for side in ("k", "l", "k-strict", "l-strict")
          for name in ("circle6.poset", "c4cubed.poset")),
        *(("dowker", side, "--relation", "crown_pairs.relation") for side in "kl"),
        ("poset", "realize", "--complex", "circle4_k.complex"),
    ], ids=" ".join)
    def test_commands_that_print_facets_or_read_them(self, capsys, argv):
        code, out = next(row[1:] for row in GOLDEN if row[0] == argv)
        assert run(capsys, *resolve(argv)) == (code, out, "")

    def test_facet_readers(self):
        p = oracles.c4cubed_poset()
        k, strict = rc.poset_dowker_complex(p, False, "k"), rc.poset_dowker_complex(p, True, "k")
        assert rc.cone_apex(k) == rc.cone_apex(strict) == "111"
        assert rc.is_subcomplex(strict, k) and not rc.is_subcomplex(k, strict)
        edge = rc.complex_from_facets(["111", "333", "zzz"], [["111", "333"]])  # another universe
        assert rc.is_subcomplex(edge, k) and not rc.is_subcomplex(k, edge)
        assert k.has_face_labels(["333", "111"]) and not k.has_face_labels(["333", "444"])
        assert not k.has_face_labels(["zzz"]) and not k.has_face_labels([])
        again = rc.poset_dowker_complex(p, False, "k")
        assert again == k and hash(again) == hash(k) and k != strict
        assert (k.dimension(), len(k.vertices()), k.is_empty, k.is_point) == (26, 64, False, False)
        assert [repr(k), repr(strict)] == [
            "SimplicialComplex(64 vertices, 8 facets, dim 26)", "SimplicialComplex(64 vertices, 8 facets, dim 25)"
        ]
        for c in (k, strict):  # rebuilt from the facets
            assert copy.copy(c) == copy.deepcopy(c) == pickle.loads(pickle.dumps(c)) == c


# A relation whose labels circle6 lacks: the first unknown one in sorted
# pair order is named, whatever the hash seed.
UNKNOWN_LABELS = (
    ('closed', 'verify', '--xposet', 'circle4.poset', '--yposet', 'circle6.poset',
     '--relation', 'unknown_labels.relation', '--mode', 'weak'),
    2, '', "error: unknown vertex label 'p'\n",
)

# Runs each argv of the JSON list in argv[1] through main and prints the
# exit code, stdout and stderr of each, as JSON.
FRESH_RUNNER = """
import contextlib, io, json, sys
from relcomplex.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


class TestNoReferenceCycles:
    @pytest.mark.parametrize("argv", [
        ("collapse", "greedy", "--complex", "c4chain3_k.complex"),
        ("collapse", "leq-strict", "--poset", "c4chain3.poset", "--side", "k"),
        ("collapse", "leq-strict", "--poset", "c4chain3.poset", "--side", "l"),
        ("poset", "order-complex", "--poset", "c4chain3.poset"),
        ("closed", "verify", "--xposet", "circle4.poset", "--yposet", "circle6.poset",
         "--relation", "crown_pairs.relation", "--mode", "quillen"),
    ], ids=" ".join)
    def test_a_collapse_job_leaves_nothing_to_the_cyclic_collector(self, capsys, argv):
        """Reference counting frees all a job made, memos included: a cycle
        would hold every label tuple until the cyclic collector ran.  A first
        run builds the command's parser, whose help formatter argparse leaves
        in a cycle, once per process."""
        assert main(resolve(argv)) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(resolve(argv)) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHashSeed:
    def test_closed_verify_names_the_first_unknown_label(self, capsys):
        argv, *expected = UNKNOWN_LABELS
        assert list(run(capsys, *resolve(argv))) == expected

    def test_golden_rows_in_fresh_interpreters(self):
        """Each row gives the same exit code, stdout and stderr under two
        hash seeds, so no output depends on set or dict iteration order."""
        rows = GOLDEN + [UNKNOWN_LABELS[:3]]
        argvs = json.dumps([resolve(argv) for argv, _, _ in rows])
        runs = []
        for seed in ("1", "4"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-c", FRESH_RUNNER, argvs],
                env=env, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout))
            assert len(runs[-1]) == len(rows)
        for (argv, code, out), first, second in zip(rows, *runs):
            assert first == second, argv
            assert first[:2] == [code, out], argv


# --help at every level and the usage errors: argv, exit code, stdout and
# stderr as lists of lines, recorded at a terminal width of 80 columns.
# argparse words its help and errors differently from one Python minor
# version to the next; these were recorded with Python 3.11.
USAGE = json.loads((Path(__file__).parent / "golden_usage.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse wording is version-specific")
class TestGoldenUsage:
    @pytest.mark.parametrize("row", USAGE, ids=[" ".join(r["argv"]) for r in USAGE])
    def test_help_and_usage_errors(self, capsys, monkeypatch, row):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(resolve(row["argv"]))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out.split("\n"), captured.err.split("\n")) == (
            row["code"], row["stdout"], row["stderr"]
        )


def readme_command_lines():
    """The argv of each command in README's "Command line" block.

    Lines split with a backslash are joined, comments dropped, and a token
    such as ``k|l`` gives one command per alternative.
    """
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            commands += [list(argv) for argv in itertools.product(*(t.split("|") for t in tokens))]
    return commands


README_COMMANDS = readme_command_lines()


class TestReadmeCommandLine:
    @pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a[1:3]) for a in README_COMMANDS])
    def test_each_line_parses(self, capsys, argv):
        assert argv[0] == "relcomplex"
        with pytest.raises(SystemExit) as exc:
            main(argv[1:] + ["--help"])
        assert exc.value.code == 0

    def test_every_command_is_documented(self):
        documented = {tuple(argv[1:3]) for argv in README_COMMANDS}
        table = {(group, name) for group, name, *_ in cli._COMMANDS}
        assert table | {("homology", "--complex")} <= documented


def calls(handler):
    """What a handler calls: its code and, for one made by ``cli._on_file``,
    the kind, function name and extra arguments it closes over."""
    return handler.__code__, tuple(cell.cell_contents for cell in handler.__closure__ or ())


def parse(parser, argv):
    """The namespace, usage error or exit (after help on stdout) that
    ``parser`` gives argv."""
    try:
        args = vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code
    return "namespace", {**args, "handler": calls(args["handler"])}


def command_argv(options):
    """Each option with a valid value: its first choice, or a file name that
    is never opened, since only parsing happens here."""
    return [word for option in options for word in (option, cli._CHOICES.get(option, ("F",))[0])]


def argv_forms(group, name, options):
    """argv of one table row: complete, with each required option dropped,
    with each choice invalid, with an unknown trailing option, and -h."""
    complete = command_argv(options)
    forms = [complete]
    forms += [command_argv(o for o in options if o != dropped) for dropped in options]
    forms += [
        command_argv(o for o in options if o != bad) + [bad, "x"] for bad in options if bad in cli._CHOICES
    ]
    forms += [complete + ["--bogus"], ["-h"]]
    return [[group, name, *form] for form in forms]


ROWS = [(group, name, options) for group, name, options, *_ in cli._COMMANDS]


def matcher_forms(group, name, options):
    """argv of one row that the matcher might misread: ``argv_forms``, then the
    first option as ``--option=value``, abbreviated and repeated, the options
    reversed, the first value ``-``, ``-1`` or empty, a trailing ``--``, and
    ``-h`` at each position."""
    complete = [group, name, *command_argv(options)]
    first, value = complete[2:4]
    pairs = [complete[i:i + 2] for i in range(2, len(complete), 2)]
    forms = argv_forms(group, name, options) + [
        [group, name, f"{first}={value}", *complete[4:]],
        [group, name, first[:-1], *complete[3:]],
        complete + [first, value],
        [group, name, *(word for pair in reversed(pairs) for word in pair)],
        complete + ["--"],
    ]
    forms += [[*complete[:3], bad, *complete[4:]] for bad in ("-", "-1", "")]
    forms += [complete[:i] + ["-h"] + complete[i:] for i in range(len(complete) + 1)]
    return forms


class TestMatcher:
    """``cli._match`` reads argv as the parser does, or leaves it to the parser."""

    @pytest.mark.parametrize("group, name, options", ROWS, ids=[f"{g} {n}" for g, n, _ in ROWS])
    def test_none_or_the_parsers_namespace(self, group, name, options):
        matched = []
        for argv in matcher_forms(group, name, options):
            args = cli._match(argv)
            if args is not None:
                matched.append(argv)
                expected = parse(cli._build_parser(), argv)
                assert ("namespace", {**vars(args), "handler": calls(args.handler)}) == expected, argv
        complete = [group, name, *command_argv(options)]
        pairs = [complete[i:i + 2] for i in range(2, len(complete), 2)]
        reordered = complete[:2] + [word for pair in reversed(pairs) for word in pair]
        assert matched == [complete, reordered, [*complete[:3], "", *complete[4:]]]

    @pytest.mark.parametrize("group, name, options", ROWS, ids=[f"{g} {n}" for g, n, _ in ROWS])
    def test_the_options_of_another_command_are_a_usage_error(self, group, name, options):
        for other in sorted({tuple(row[2]) for row in ROWS} - {tuple(options)}):
            argv = [group, name, *command_argv(other)]
            assert cli._match(argv) is None, argv
            assert parse(cli._build_parser(), argv)[0] == "usage error", argv

    @pytest.mark.parametrize("group, name, options", ROWS, ids=[f"{g} {n}" for g, n, _ in ROWS])
    def test_canonical_argv_needs_no_parser(self, capsys, monkeypatch, tmp_path, group, name, options):
        def refuse():
            raise AssertionError("the parser was built")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        monkeypatch.chdir(tmp_path)  # the handler opens the file F, which is not there
        assert run(capsys, group, name, *command_argv(options)) == (
            1, "", "io error: [Errno 2] No such file or directory: 'F'\n"
        )


def test_fresh_process_matches_in_process(capsys, monkeypatch, data_dir):
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in (
        ["verify", "dowker", "--relation", path(data_dir, "circle4_leq.relation")],
        ["collapse", "greedy", "--help"],
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "relcomplex.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (code, out), argv


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main`` on a pinned table's argv."""
    try:
        code = main(resolve(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCachedParsers:
    """The parser is built once per process, and later calls give the bytes
    that the first one gave."""

    @pytest.mark.parametrize("row", USAGE, ids=[" ".join(r["argv"]) for r in USAGE])
    def test_each_usage_row_twice(self, capsys, monkeypatch, row):
        monkeypatch.setenv("COLUMNS", "80")
        cli._build_parser.cache_clear()
        first = outcome(capsys, row["argv"])
        assert outcome(capsys, ["verify", "dowker", "--relation", "circle4_leq.relation"])[0] == 0
        assert outcome(capsys, ["dowker", "k"])[0] == 1
        assert outcome(capsys, row["argv"]) == first

    @pytest.mark.parametrize("argv", [
        ["--help"], ["poset", "--help"], ["homology", "--help"], ["closed", "verify", "--help"],
    ])
    def test_help_is_laid_out_at_the_current_width(self, capsys, monkeypatch, argv):
        cli._build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "80")
        wide = outcome(capsys, argv)
        monkeypatch.setenv("COLUMNS", "40")
        narrow = outcome(capsys, argv)
        cli._build_parser.cache_clear()
        assert narrow == outcome(capsys, argv)
        assert narrow != wide

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()
