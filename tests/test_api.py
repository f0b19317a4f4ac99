"""The public surface: every export is documented, every name looked up at run time resolves,
and the package imports nothing outside the standard library.

The CLI calls some package functions by name (``cli._COMMANDS``), and the
benchmark wraps functions by module and name (``bench/spans.py``), so a
rename that the imports do not catch would only show at run time.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

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
