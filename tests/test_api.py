"""The public surface: every export is documented, every name looked up at run time resolves,
and the package imports nothing outside the standard library.

The CLI calls some package functions by name (``cli._COMMANDS``), and the
benchmark wraps functions by module and name (``bench/spans.py``), so a
rename that the imports do not catch would only show at run time.
"""

import ast
import copy
import importlib
import importlib.util
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relcomplex as rc
from relcomplex import cli

ROOT = Path(__file__).resolve().parent.parent


def _library_api_names() -> set:
    """The backticked names in the README's "Library API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([\w.]+)`", section))


def _resolve(name: str):
    parts = name.split(".")
    value = rc
    for part in parts[1:] if parts[0] == "relcomplex" else parts:
        value = getattr(value, part)
    return value


def _bench_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_is_in_the_readme_library_api():
    assert sorted(set(rc.__all__) - _library_api_names()) == []


def test_every_readme_library_api_name_resolves():
    for name in sorted(_library_api_names()):
        _resolve(name)


def test_benchmark_span_functions_resolve():
    spans = _bench_spans()
    for module, names in spans.FUNCTIONS.values():
        mod = importlib.import_module(f"relcomplex.{module}")
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"
    for method in spans.METHODS.values():
        assert callable(getattr(rc.SimplicialComplex, method))


def test_cli_string_handlers_resolve():
    names = [handler for _, _, _, handler, *_ in cli._COMMANDS if isinstance(handler, str)]
    assert names
    for name in names:
        assert callable(getattr(rc, name)), name


def test_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "relcomplex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "relcomplex", (
                    f"{path.name} imports {name}"
                )


def test_readme_module_map_line_counts():
    """The README module map's line counts, and its ``src/`` total, match the files."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(relcomplex(?:\.\w+)?)` +\| +(\d+) \|", section, re.MULTILINE))
    package = ROOT / "src" / "relcomplex"
    counts = {
        "relcomplex" + ("" if path.stem == "__init__" else f".{path.stem}"):
            path.read_text(encoding="utf-8").count("\n")
        for path in package.glob("*.py")
    }
    assert {name: int(n) for name, n in rows.items()} == counts
    total = re.search(r"`src/` has ([\d,]+) lines in all\.", section).group(1)
    assert int(total.replace(",", "")) == sum(counts.values())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh process: the CLI's import adds neither module to what the interpreter loaded."""
    code = (
        "import sys; before = set(sys.modules); import relcomplex.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _value_classes():
    """(build, repr) for each value class that was a frozen dataclass; ``build()``
    makes a new value equal to the last one each time it is called."""
    k = rc.complex_from_facets("abc", [("a", "b", "c")])
    r = rc.Relation(["1"], ["u", "v"], [("1", "u"), ("1", "v")])
    step = "CollapseStep(free_face=('a', 'b'), coface=('a', 'b', 'c'))"
    return {
        "CollapseStep": (lambda: rc.CollapseStep(("b", "a"), ("c", "a", "b")), step),
        "CollapseSequence": (
            lambda: rc.CollapseSequence(k, [rc.CollapseStep(("a", "b"), ("a", "b", "c"))]),
            f"CollapseSequence(initial={k!r}, steps=({step},))",
        ),
        "IntegerMatrix": (lambda: rc.IntegerMatrix(1, 2, [[1, -1]]), "IntegerMatrix(rows=1, cols=2, entries=((1, -1),))"),
        "HomologyProfile": (
            lambda: rc.HomologyProfile((1, 0), ((), (2,))), "HomologyProfile(betti=(1, 0), torsion=((), (2,)))"
        ),
        "RelationMorphism": (
            lambda: rc.RelationMorphism(r, r, {"u": "u", "v": "v"}),
            f"RelationMorphism(source={r!r}, target={r!r}, assignment={{'u': 'u', 'v': 'v'}})",
        ),
    }


VALUE_CLASSES = _value_classes()


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_classes_compare_hash_show_and_stay_frozen(name):
    build, shown = VALUE_CLASSES[name]
    value = build()
    assert type(value) is getattr(rc, name)
    assert value == build() and hash(value) == hash(build()) and repr(value) == shown
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
    assert value != object() and value.__eq__(object()) is NotImplemented
    field = shown[len(name) + 1:].split("=", 1)[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = None


def test_a_morphism_compares_without_its_assignment():
    r = rc.Relation(["1"], ["u", "v"], [("1", "u"), ("1", "v")])
    swapped = rc.RelationMorphism(r, r, {"u": "v", "v": "u"})
    assert swapped == rc.RelationMorphism(r, r, {"u": "u", "v": "v"})
    assert hash(swapped) == hash(rc.RelationMorphism(r, r, {"u": "u", "v": "v"}))
