"""Command line interface: reads the text formats, prints canonical JSON.

Exit codes: 0 = computed, result on stdout; 1 = usage/parse error;
2 = a mathematical precondition was violated (uncovered relation,
singleton component, unrealizable complex, ...).
"""

from __future__ import annotations

import argparse
import json
import sys

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
from .posets import (
    lattice_condition_witness,
    order_complex,
    order_to_topology,
    poset_dowker_complex,
    realize_as_poset_k_complex,
    topology_to_order,
)
from .relations import (
    are_equivalent,
    canonical_relation,
    find_morphism,
    k_complex,
    l_complex,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(kind: str, path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = formats.parse(fh.read())
    if doc.kind != kind:
        raise ParseError(1, f"{path}: expected a {kind} file, found {doc.kind}")
    converters = {
        "poset": formats.to_poset,
        "relation": formats.to_relation,
        "complex": formats.to_complex,
        "space": formats.to_topology,
    }
    return converters[kind](doc)


def _load_steps(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"{path}: {exc.msg}") from None
    try:
        return [CollapseStep(tuple(free), tuple(coface)) for free, coface in data["steps"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"{path}: malformed steps report ({exc})") from None


def _cmd_dowker_k(args):
    return k_complex(_load("relation", args.relation))


def _cmd_dowker_l(args):
    return l_complex(_load("relation", args.relation))


def _cmd_dowker_morphism(args):
    src = _load("relation", getattr(args, "from"))
    dst = _load("relation", args.to)
    assignment = find_morphism(src, dst)
    return {"exists": assignment is not None, "assignment": assignment}


def _cmd_dowker_equivalent(args):
    return {"equivalent": are_equivalent(_load("relation", args.a), _load("relation", args.b))}


def _cmd_dowker_canonical(args):
    return canonical_relation(_load("complex", args.complex))


def _cmd_poset_complex(strict: bool, side: str):
    def run(args):
        return poset_dowker_complex(_load("poset", args.poset), strict, side)

    return run


def _cmd_poset_order_complex(args):
    return order_complex(_load("poset", args.poset))


def _cmd_poset_realize(args):
    return realize_as_poset_k_complex(_load("complex", args.complex))


def _cmd_poset_lattice_check(args):
    witness = lattice_condition_witness(_load("poset", args.poset))
    return {
        "lattice_condition": witness is None,
        "witness": None if witness is None else list(witness),
    }


def _cmd_poset_to_topology(args):
    return order_to_topology(_load("poset", args.poset))


def _cmd_poset_from_topology(args):
    return topology_to_order(_load("space", args.space))


def _cmd_collapse_leq_strict(args):
    return collapse_leq_to_strict(_load("poset", args.poset), args.side)


def _cmd_collapse_greedy(args):
    core, seq = greedy_collapse(_load("complex", args.complex))
    return {
        "core_facets": [list(labels) for labels in core.facet_labels()],
        "steps": formats.to_jsonable(seq)["steps"],
    }


def _cmd_collapse_verify(args):
    initial = _load("complex", args.complex)
    steps = _load_steps(args.steps)
    return verify_sequence(CollapseSequence(initial, tuple(steps)))


def _cmd_homology(args):
    return homology(_load("complex", args.complex))


def _cmd_homology_same(args):
    a = homology(_load("complex", args.a))
    b = homology(_load("complex", args.b))
    return {"same": a.matches(b), "a": a, "b": b}


def _cmd_closed_verify(args):
    rel = ClosedRelation(
        _load("poset", args.xposet),
        _load("poset", args.yposet),
        _load("relation", args.relation).pairs,
    )
    return verify_closed_relation(rel, args.mode)


def _cmd_verify_dowker(args):
    rel = _load("relation", args.relation)
    k = homology(k_complex(rel))
    l = homology(l_complex(rel))
    return {"k": k, "l": l, "same": k.matches(l)}


def _build_parser() -> _Parser:
    parser = _Parser(prog="relcomplex", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    dowker = top.add_parser("dowker", help="complexes and morphisms of relations")
    sub = dowker.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("k")
    p.add_argument("--relation", required=True)
    p.set_defaults(handler=_cmd_dowker_k)
    p = sub.add_parser("l")
    p.add_argument("--relation", required=True)
    p.set_defaults(handler=_cmd_dowker_l)
    p = sub.add_parser("morphism")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(handler=_cmd_dowker_morphism)
    p = sub.add_parser("equivalent")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_dowker_equivalent)
    p = sub.add_parser("canonical")
    p.add_argument("--complex", required=True)
    p.set_defaults(handler=_cmd_dowker_canonical)

    poset = top.add_parser("poset", help="order complexes and the topology dictionary")
    sub = poset.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("order-complex")
    p.add_argument("--poset", required=True)
    p.set_defaults(handler=_cmd_poset_order_complex)
    for name, strict, side in (
        ("k", False, "k"),
        ("l", False, "l"),
        ("k-strict", True, "k"),
        ("l-strict", True, "l"),
    ):
        p = sub.add_parser(name)
        p.add_argument("--poset", required=True)
        p.set_defaults(handler=_cmd_poset_complex(strict, side))
    p = sub.add_parser("realize")
    p.add_argument("--complex", required=True)
    p.set_defaults(handler=_cmd_poset_realize)
    p = sub.add_parser("lattice-check")
    p.add_argument("--poset", required=True)
    p.set_defaults(handler=_cmd_poset_lattice_check)
    p = sub.add_parser("to-topology")
    p.add_argument("--poset", required=True)
    p.set_defaults(handler=_cmd_poset_to_topology)
    p = sub.add_parser("from-topology")
    p.add_argument("--space", required=True)
    p.set_defaults(handler=_cmd_poset_from_topology)

    collapse = top.add_parser("collapse", help="elementary collapses and certificates")
    sub = collapse.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("leq-strict")
    p.add_argument("--poset", required=True)
    p.add_argument("--side", required=True, choices=("k", "l"))
    p.set_defaults(handler=_cmd_collapse_leq_strict)
    p = sub.add_parser("greedy")
    p.add_argument("--complex", required=True)
    p.set_defaults(handler=_cmd_collapse_greedy)
    p = sub.add_parser("verify")
    p.add_argument("--complex", required=True)
    p.add_argument("--steps", required=True)
    p.set_defaults(handler=_cmd_collapse_verify)

    hom = top.add_parser("homology", help="integer homology profiles")
    hom.add_argument("--complex")
    hom.set_defaults(handler=_cmd_homology)
    sub = hom.add_subparsers(dest="subcommand")
    p = sub.add_parser("same")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_homology_same)

    closed = top.add_parser("closed", help="closed relations between posets")
    sub = closed.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("verify")
    p.add_argument("--xposet", required=True)
    p.add_argument("--yposet", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--mode", required=True, choices=("quillen", "weak"))
    p.set_defaults(handler=_cmd_closed_verify)

    verify = top.add_parser("verify", help="cross-checks")
    sub = verify.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("dowker")
    p.add_argument("--relation", required=True)
    p.set_defaults(handler=_cmd_verify_dowker)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.command == "homology" and getattr(args, "subcommand", None) is None:
        if args.complex is None:
            print("usage error: homology requires --complex", file=sys.stderr)
            return 1
    try:
        report = args.handler(args)
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
