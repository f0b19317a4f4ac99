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
from relcomplex.complexes import _Frozen

import oracles

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


def test_only_complexes_reads_the_stored_forms_of_a_complex():
    """Every complex holds its facet masks once built, and its face masks on first
    ``_faces()``: another module reads them through ``_tops()`` and ``_faces()``."""
    for path in sorted((ROOT / "src" / "relcomplex").glob("*.py")):
        if path.name != "complexes.py":
            found = re.findall(r"\._(?:facet_)?masks\b", path.read_text(encoding="utf-8"))
            assert not found, f"{path.name} reads {found}"


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
    """(build, repr) for each value class of the package; ``build()`` makes a new
    value equal to the last one each time it is called."""
    k = rc.complex_from_facets("abc", [("a", "b", "c")])
    r = rc.Relation(["1"], ["u", "v"], [("1", "u"), ("1", "v")])
    step = "CollapseStep(free_face=('a', 'b'), coface=('a', 'b', 'c'))"

    def chain():
        return rc.poset_from_pairs("ba", [("a", "b")])

    return {
        "Universe": (lambda: rc.Universe(["c", "a", "b", "a"]), "Universe(['a', 'b', 'c'])"),
        "SimplicialComplex": (
            lambda: rc.SimplicialComplex(rc.Universe("abc"), [(0,), (1,), (0, 1)]),
            "SimplicialComplex(3 vertices, 1 facets, dim 1)",
        ),
        "VertexMap": (
            lambda: rc.VertexMap(rc.Universe("ab"), rc.Universe("xy"), {"b": "x", "a": "y"}),
            "VertexMap({'b': 'x', 'a': 'y'})",
        ),
        "Relation": (lambda: rc.Relation(["1", "2"], ["u"], [("2", "u"), ("1", "u")]), "Relation(2x1, 2 pairs)"),
        "Poset": (chain, "Poset(['a', 'b'], 1 strict pairs)"),
        "FiniteTopology": (lambda: rc.FiniteTopology("ab", [["b", "a"], ["a"]]), "FiniteTopology(2 points, 3 opens)"),
        "ClosedRelation": (
            lambda: rc.ClosedRelation(chain(), chain(), [("b", "a"), ("a", "b"), ("b", "b")]),
            "ClosedRelation(3 pairs)",
        ),
        "Document": (
            lambda: rc.formats.parse("poset p\nelement b\nelement a\nle a b\nelement b\n"),
            "Document(kind='poset', name='p', records=(('element', 'a'), ('element', 'b'), "
            "('le', 'a', 'b')), header_line=1)",
        ),
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


def _variants():
    """For each value class, one value per field that equality reads, differing
    from ``VALUE_CLASSES``' value in that field; then, for the fields that
    equality ignores, a value differing only there."""
    k = rc.complex_from_facets("abc", [("a", "b", "c")])
    step = rc.CollapseStep(("a", "b"), ("a", "b", "c"))
    r = rc.Relation(["1"], ["u", "v"], [("1", "u"), ("1", "v")])
    u = rc.Relation(["1"], ["u"], [("1", "u")])
    chain = rc.poset_from_pairs("ba", [("a", "b")])
    closed = [("b", "a"), ("a", "b"), ("b", "b")]
    records = [("element", "a"), ("element", "b"), ("le", "a", "b")]
    unequal = {
        "Universe": {"labels": rc.Universe("abd")},
        "SimplicialComplex": {
            "universe": rc.SimplicialComplex(rc.Universe("abd"), [(0,), (1,), (0, 1)]),
            "faces": rc.SimplicialComplex(rc.Universe("abc"), [(0,), (1,), (2,)]),
        },
        "VertexMap": {
            "domain": rc.VertexMap(rc.Universe("ac"), rc.Universe("xy"), {"c": "x", "a": "y"}),
            "codomain": rc.VertexMap(rc.Universe("ab"), rc.Universe("xyz"), {"b": "x", "a": "y"}),
            "mapping": rc.VertexMap(rc.Universe("ab"), rc.Universe("xy"), {"b": "y", "a": "x"}),
        },
        "Relation": {
            "x_universe": rc.Relation(["1", "3"], ["u"], [("3", "u"), ("1", "u")]),  # the same supports
            "y_universe": rc.Relation(["1", "2"], ["w"], [("2", "w"), ("1", "w")]),
            "pairs": rc.Relation(["1", "2"], ["u"], [("1", "u")]),
        },
        "Poset": {"elements": rc.poset_from_pairs("abc", [("a", "b")]), "up": rc.poset_from_pairs("ab", [])},
        "FiniteTopology": {
            "points": rc.FiniteTopology("abc", [["a", "b", "c"], ["a"]]),
            "opens": rc.FiniteTopology("ab", [["a", "b"], ["b"]]),
        },
        "ClosedRelation": {
            "x_poset": rc.ClosedRelation(rc.poset_from_pairs("ab", []), chain, closed),
            "y_poset": rc.ClosedRelation(chain, rc.poset_from_pairs("abc", [("a", "b")]), closed),
            "pairs": rc.ClosedRelation(chain, chain, [("b", "b")]),
        },
        "Document": {  # a kind has its own keywords, so the records differ too
            "kind": rc.formats.Document("space", "p", [("point", "a"), ("point", "b")]),
            "name": rc.formats.Document("poset", "q", records),
            "records": rc.formats.Document("poset", "p", records[:2]),
        },
        "CollapseStep": {
            "free_face": rc.CollapseStep(("a", "c"), ("a", "b", "c")),
            "coface": rc.CollapseStep(("a", "b"), ("a", "b", "d")),
        },
        "CollapseSequence": {
            "initial": rc.CollapseSequence(rc.complex_from_facets("abcd", [("a", "b", "c"), ("d",)]), [step]),
            "steps": rc.CollapseSequence(k, []),
        },
        "IntegerMatrix": {
            "rows": rc.IntegerMatrix(2, 2, [[1, -1], [0, 0]]),
            "cols": rc.IntegerMatrix(1, 3, [[1, -1, 0]]),
            "entries": rc.IntegerMatrix(1, 2, [[1, 1]]),
        },
        "HomologyProfile": {
            "betti": rc.HomologyProfile((2, 0), ((), (2,))),
            "torsion": rc.HomologyProfile((1, 0), ((), (3,))),
        },
        "RelationMorphism": {
            "source": rc.RelationMorphism(u, r, {"u": "v"}),
            "target": rc.RelationMorphism(r, u, {"u": "u", "v": "u"}),
        },
    }
    equal = {
        "Document": {"header_line": rc.formats.Document("poset", "p", records[::-1], header_line=3)},
        "RelationMorphism": {"assignment": rc.RelationMorphism(r, r, {"u": "v", "v": "u"})},
    }
    return unequal, equal


UNEQUAL_VARIANTS, EQUAL_VARIANTS = _variants()


def _package_classes():
    """Every class defined in a module of the package, but the exceptions."""
    for path in sorted((ROOT / "src" / "relcomplex").glob("*.py")):
        module = importlib.import_module("relcomplex" if path.stem == "__init__" else f"relcomplex.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and not issubclass(value, Exception):
                yield value


def test_value_class_table_names_every_value_class():
    frozen = {cls.__name__ for cls in _package_classes() if issubclass(cls, _Frozen) and cls is not _Frozen}
    assert frozen == set(VALUE_CLASSES)


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_classes_compare_hash_show_and_stay_frozen(name):
    build, shown = VALUE_CLASSES[name]
    value = build()
    assert type(value).__name__ == name and isinstance(value, _Frozen)
    assert value == build() and repr(value) == shown
    if name == "VertexMap":  # it holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(build())
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
    assert repr(copy.deepcopy(value)) == shown
    assert value != object() and value.__eq__(object()) is NotImplemented
    slots = {slot for cls in type(value).__mro__ for slot in getattr(cls, "__slots__", ())}
    for field in sorted(slots) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == build() and repr(value) == shown


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_values_are_equal_exactly_where_the_compared_fields_are(name):
    value = VALUE_CLASSES[name][0]()
    unequal, equal = UNEQUAL_VARIANTS[name], EQUAL_VARIANTS.get(name, {})
    assert sorted([*unequal, *equal]) == sorted(type(value)._fields)
    for field, other in unequal.items():
        assert type(other) is type(value) and getattr(other, field) != getattr(value, field), field
        assert value != other and other != value and not value == other, field
    for field, other in equal.items():
        assert getattr(other, field) != getattr(value, field), field
        assert value == other and hash(value) == hash(other), field


def _stored(value) -> list:
    """Every slot of ``value``, in ``__slots__`` order, read through its descriptor,
    which raises AttributeError for a slot left unset and bypasses any ``__getattr__``."""
    cls = type(value)
    return [vars(cls)[slot].__get__(value, cls) for slot in cls.__slots__]


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_new_sets_every_slot_in_order(name):
    value = VALUE_CLASSES[name][0]()
    cls = type(value)
    stored = _stored(value)
    assert cls._new(*(getattr(value, slot) for slot in cls.__slots__)) == value
    assert cls._new(*stored) == value and _stored(cls._new(*stored)) == stored
    with pytest.raises(ValueError):
        cls._new(*stored[:-1])
    with pytest.raises(ValueError):
        cls._new(*stored, None)


def _engines():
    """name -> a call of a public builder or engine, made afresh on each call."""
    p = oracles.circle4_poset()
    k = rc.poset_dowker_complex(p, False, "k")
    r = rc.Relation(p.elements, p.elements, p.pairs())
    closed = rc.ClosedRelation(p, p, [(x, y) for x in p.labels() for y in p.labels()])
    step = rc.CollapseStep(("1", "3"), ("1", "2", "3"))
    m = rc.VertexMap(k.universe, k.universe, {v: "1" for v in k.universe})
    return {
        "parse": lambda: rc.formats.parse("poset p\nelement b\nelement a\nle a b\n"),
        "poset_from_pairs": lambda: rc.poset_from_pairs("ba", [("a", "b")]),
        "dual_poset": lambda: rc.dual_poset(p),
        "induced_subposet": lambda: rc.induced_subposet(p, "134"),
        "product_poset": lambda: rc.product_poset(p, p),
        "order_to_topology": lambda: rc.order_to_topology(p),
        "topology_to_order": lambda: rc.topology_to_order(rc.order_to_topology(p)),
        "realize_as_poset_k_complex": lambda: rc.realize_as_poset_k_complex(k),
        "membership_relation": lambda: rc.membership_relation(rc.order_to_topology(p)),
        "transpose": lambda: rc.transpose(r),
        "canonical_relation": lambda: rc.canonical_relation(k),
        "k_complex": lambda: rc.k_complex(r),
        "l_complex": lambda: rc.l_complex(r),
        "complex_from_facets": lambda: rc.complex_from_facets("abc", [("a", "b"), ("c",)]),
        "poset_dowker_complex": lambda: rc.poset_dowker_complex(p, True, "l"),
        "order_complex": lambda: rc.order_complex(p),
        "apply_simplicial_map": lambda: rc.apply_simplicial_map(m, k, k),
        "greedy_collapse": lambda: rc.greedy_collapse(k),
        "collapse_leq_to_strict": lambda: rc.collapse_leq_to_strict(p, "l"),
        "verify_sequence": lambda: rc.verify_sequence(rc.collapse_leq_to_strict(p, "k")),
        "apply_step": lambda: rc.apply_step(rc.complex_from_facets("123", [("1", "2", "3")]), step),
        "homology": lambda: rc.homology(k),
        "boundary_matrices": lambda: rc.boundary_matrices(k),
        "induced_l_map": lambda: rc.induced_l_map(rc.RelationMorphism(r, r, {y: y for y in r.y_universe})),
        "fiber": lambda: rc.fiber(closed, "1", "x"),
        "relation_poset": lambda: rc.relation_poset(closed),
    }


ENGINES = _engines()


def _values(result):
    """The values of the package in a result, through tuples and lists."""
    if isinstance(result, _Frozen):
        yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _values(item)


@pytest.mark.parametrize("name", [*VALUE_CLASSES, *ENGINES])
def test_every_slot_is_set_when_a_value_is_returned(name):
    """Right after a public constructor or an engine returns, before any other read."""
    values = list(_values(ENGINES[name]() if name in ENGINES else VALUE_CLASSES[name][0]()))
    assert values, name
    for value in values:
        assert len(_stored(value)) == len(type(value).__slots__)


def test_only_complexes_fills_a_slot():
    """``_Frozen._set`` and ``_Frozen._new`` are the only ways to fill a slot: no other
    module makes a bare instance or sets an attribute past ``_Frozen.__setattr__``."""
    for path in sorted((ROOT / "src" / "relcomplex").glob("*.py")):
        if path.name != "complexes.py":
            found = re.findall(r"__new__|object\.__setattr__", path.read_text(encoding="utf-8"))
            assert not found, f"{path.name} names {found}"


def test_every_slotted_class_is_frozen_and_only_frozen_defines_equality():
    for cls in _package_classes():
        if "__slots__" in vars(cls):
            assert issubclass(cls, _Frozen), cls.__name__
        if cls is not _Frozen:
            assert not {"__eq__", "__hash__"} & set(vars(cls)), cls.__name__


def test_a_morphism_compares_without_its_assignment():
    r = rc.Relation(["1"], ["u", "v"], [("1", "u"), ("1", "v")])
    swapped = rc.RelationMorphism(r, r, {"u": "v", "v": "u"})
    assert swapped == rc.RelationMorphism(r, r, {"u": "u", "v": "v"})
    assert hash(swapped) == hash(rc.RelationMorphism(r, r, {"u": "u", "v": "v"}))


def test_a_checked_map_keeps_its_own_copy_of_the_callers_dict():
    r = rc.Relation(["1"], ["u", "v"], [("1", "u")])
    assignment = {"u": "u", "v": "v"}
    m = rc.RelationMorphism(r, r, assignment)
    vm = rc.VertexMap(r.y_universe, r.y_universe, assignment)
    assignment["u"] = "v"  # sends u, related to 1, to v, related to nothing
    assert not rc.is_morphism(assignment, r, r)
    assert m.assignment == vm.mapping == {"u": "u", "v": "v"}


def test_a_checked_map_hands_out_copies_that_cannot_change_it():
    r = rc.Relation(["1"], ["u", "v"], [("1", "u")])
    m = rc.RelationMorphism(r, r, {"u": "u", "v": "v"})
    vm = rc.VertexMap(r.y_universe, r.y_universe, {"u": "u", "v": "v"})
    m.assignment["u"] = "v"  # would send u, related to 1, to v, related to nothing
    vm.mapping["zz"] = "q"  # a label in neither universe
    assert rc.is_morphism(m.assignment, r, r) and m.assignment == {"u": "u", "v": "v"}
    assert vm.mapping == {"u": "u", "v": "v"} and repr(vm) == "VertexMap({'u': 'u', 'v': 'v'})"
    with pytest.raises(KeyError):
        vm["zz"]
