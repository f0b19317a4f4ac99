import json

import pytest

from relcomplex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(data_dir, name):
    return str(data_dir / name)


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
        assert code == 1 and "expected a poset" in err

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

    def test_uncovered_morphism_input(self, capsys, tmp_path):
        rel = tmp_path / "u.relation"
        rel.write_text(
            "relation U\nxelement 1\nyelement a\nyelement b\npair 1 a\n"
        )
        code, _, err = run(
            capsys, "dowker", "morphism", "--from", str(rel), "--to", str(rel)
        )
        assert code == 2 and "not covered" in err


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


# Stdout and exit code of the homology commands on every applicable file in
# tests/data, recorded with the dense Smith-normal-form engine.  Any engine
# must reproduce these bytes.
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
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv, code, out", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_stdout_and_exit_code(self, capsys, data_dir, argv, code, out):
        argv = [path(data_dir, a) if a.endswith((".complex", ".relation")) else a for a in argv]
        assert run(capsys, *argv)[:2] == (code, out)
