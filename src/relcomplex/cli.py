"""Command line interface: reads the text formats, prints canonical JSON.

Exit codes: 0 = computed, result on stdout; 1 = usage/parse error;
2 = a mathematical precondition was violated (uncovered relation,
singleton component, unrealizable complex, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import relcomplex

from . import formats
from .collapses import (
    CollapseSequence,
    CollapseStep,
    collapse_leq_to_strict,
    greedy_collapse,
    verify_sequence,
)
from .closed_relations import ClosedRelation, verify_closed_relation
from .errors import DomainError, ParseError
from .homology import homology
from .posets import lattice_condition_witness
from .relations import are_equivalent, find_morphism, k_complex, l_complex


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# input kind -> name of its converter in formats, looked up at call time so
# that a converter replaced there (for tracing, say) is the one called
_CONVERTERS = {
    "poset": "to_poset",
    "relation": "to_relation",
    "complex": "to_complex",
    "space": "to_topology",
}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            bad = exc.object[exc.start]
            raise ParseError(line, f"{path}: byte 0x{bad:02x} is not UTF-8 ({exc.reason})") from None


def _load(kind: str, path: str):
    doc = formats.parse(_read(path))
    if doc.kind != kind:
        raise ParseError(doc.header_line, f"{path}: expected a {kind} file, found {doc.kind}")
    return getattr(formats, _CONVERTERS[kind])(doc)


def _step_face(value) -> tuple:
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise TypeError(f"a face must be a list of label strings, got {json.dumps(value)}")
    return tuple(value)


def _load_steps(path: str):
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{path}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(1, f"{path}: nested too deeply") from None
    try:
        return [CollapseStep(_step_face(free), _step_face(coface)) for free, coface in data["steps"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"{path}: malformed steps report ({exc})") from None


def _on_file(kind: str, function: str, *extra):
    """The handler that calls the package's ``function`` on the --<kind> file."""

    def handler(args):
        return getattr(relcomplex, function)(_load(kind, getattr(args, kind)), *extra)

    return handler


def _cmd_dowker_morphism(args):
    src = _load("relation", getattr(args, "from"))
    dst = _load("relation", args.to)
    assignment = find_morphism(src, dst)
    return {"exists": assignment is not None, "assignment": assignment}


def _cmd_dowker_equivalent(args):
    return {"equivalent": are_equivalent(_load("relation", args.a), _load("relation", args.b))}


def _cmd_poset_lattice_check(args):
    witness = lattice_condition_witness(_load("poset", args.poset))
    return {
        "lattice_condition": witness is None,
        "witness": None if witness is None else list(witness),
    }


def _cmd_collapse_leq_strict(args):
    return collapse_leq_to_strict(_load("poset", args.poset), args.side)


def _cmd_collapse_greedy(args):
    core, seq = greedy_collapse(_load("complex", args.complex))
    return {
        "core_facets": [list(labels) for labels in core.facet_labels()],
        "steps": seq,
    }


def _cmd_collapse_verify(args):
    initial = _load("complex", args.complex)
    steps = _load_steps(args.steps)
    return verify_sequence(CollapseSequence(initial, tuple(steps)))


def _cmd_homology(args):
    if args.complex is None:
        raise _UsageError("homology requires --complex")
    return homology(_load("complex", args.complex))


def _cmd_homology_same(args):
    if args.complex is not None:
        raise _UsageError("homology --complex takes no subcommand")
    a = homology(_load("complex", args.a))
    b = homology(_load("complex", args.b))
    return {"same": a.matches(b), "a": a, "b": b}


def _cmd_closed_verify(args):
    rel = ClosedRelation(
        _load("poset", args.xposet),
        _load("poset", args.yposet),
        sorted(_load("relation", args.relation).pairs),
    )
    return verify_closed_relation(rel, args.mode)


def _cmd_verify_dowker(args):
    rel = _load("relation", args.relation)
    k = homology(k_complex(rel))
    l = homology(l_complex(rel))
    return {"k": k, "l": l, "same": k.matches(l)}


# group -> its help line, in --help order
_GROUPS = {
    "dowker": "complexes and morphisms of relations",
    "poset": "order complexes and the topology dictionary",
    "collapse": "elementary collapses and certificates",
    "homology": "integer homology profiles",
    "closed": "closed relations between posets",
    "verify": "cross-checks",
}

# option -> its allowed values; every other option takes a file path
_CHOICES = {"--side": ("k", "l"), "--mode": ("quillen", "weak")}

# (group, subcommand, required options, handler, *extra).  A handler given as
# a string names a public function of relcomplex, looked up at call time like
# the converters; it gets the file of the one option, whose name is the file's
# kind, followed by the extra arguments.
_COMMANDS = [
    ("dowker", "k", ["--relation"], "k_complex"),
    ("dowker", "l", ["--relation"], "l_complex"),
    ("dowker", "morphism", ["--from", "--to"], _cmd_dowker_morphism),
    ("dowker", "equivalent", ["--a", "--b"], _cmd_dowker_equivalent),
    ("dowker", "canonical", ["--complex"], "canonical_relation"),
    ("poset", "order-complex", ["--poset"], "order_complex"),
    ("poset", "k", ["--poset"], "poset_dowker_complex", False, "k"),
    ("poset", "l", ["--poset"], "poset_dowker_complex", False, "l"),
    ("poset", "k-strict", ["--poset"], "poset_dowker_complex", True, "k"),
    ("poset", "l-strict", ["--poset"], "poset_dowker_complex", True, "l"),
    ("poset", "realize", ["--complex"], "realize_as_poset_k_complex"),
    ("poset", "lattice-check", ["--poset"], _cmd_poset_lattice_check),
    ("poset", "to-topology", ["--poset"], "order_to_topology"),
    ("poset", "from-topology", ["--space"], "topology_to_order"),
    ("collapse", "leq-strict", ["--poset", "--side"], _cmd_collapse_leq_strict),
    ("collapse", "greedy", ["--complex"], _cmd_collapse_greedy),
    ("collapse", "verify", ["--complex", "--steps"], _cmd_collapse_verify),
    ("homology", "same", ["--a", "--b"], _cmd_homology_same),
    ("closed", "verify", ["--xposet", "--yposet", "--relation", "--mode"], _cmd_closed_verify),
    ("verify", "dowker", ["--relation"], _cmd_verify_dowker),
]


# (group, subcommand) -> its required options and its handler, built once
_ROWS = {
    (group, name): (options, _on_file(options[0][2:], handler, *extra) if isinstance(handler, str) else handler)
    for group, name, options, handler, *extra in _COMMANDS
}


def _match(argv):
    """The parser's namespace for a row's group and subcommand, then each of its
    options once as ``--option value`` in any order, no value starting with
    ``-`` and every choice allowed; else None, and the parser reads ``argv``."""
    row = _ROWS.get(tuple(argv[:2]))
    if row is None or len(argv) != 2 + 2 * len(row[0]):
        return None
    options, handler = row
    values = dict(zip(argv[2::2], argv[3::2]))
    if values.keys() != set(options) or any(
        v.startswith("-") or (o in _CHOICES and v not in _CHOICES[o]) for o, v in values.items()
    ):
        return None
    args = argparse.Namespace(command=argv[0], subcommand=argv[1], handler=handler)
    if argv[0] == "homology":  # the group's own --complex, unset
        args.complex = None
    vars(args).update((option[2:], value) for option, value in values.items())
    return args


@functools.cache
def _build_parser() -> _Parser:
    """The whole command tree, for help, usage errors and every argv that
    ``_match`` leaves to it.

    It is built once per process and kept: argparse's constructors look
    their messages up through gettext, which searches the file system on
    every call.  Parsing leaves a parser as it was, and help is laid out at
    the terminal width when it is printed."""
    parser = _Parser(prog="relcomplex", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for group, summary in _GROUPS.items():
        p = top.add_parser(group, help=summary)
        if group == "homology":  # `homology --complex F` sits beside `homology same`
            p.add_argument("--complex")
            p.set_defaults(handler=_cmd_homology)
        groups[group] = p.add_subparsers(dest="subcommand", required=group != "homology")
    for (group, name), (options, handler) in _ROWS.items():
        p = groups[group].add_parser(name)
        for option in options:
            p.add_argument(option, required=True, choices=_CHOICES.get(option))
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _match(argv) or _build_parser().parse_args(argv)
        report = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(formats.write_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
