"""Line-based text formats for the four value kinds, plus canonical JSON reports.

Inputs are hand-authorable text ('#' starts a comment, labels are
whitespace-free tokens, declarations precede use); outputs are JSON with
sorted keys, compact separators and no floating point, so every report is
byte-stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Tuple

from .collapses import CollapseSequence, CollapseStep
from .complexes import SimplicialComplex, Universe, complex_from_facets
from .errors import ParseError
from .homology import HomologyProfile, IntegerMatrix
from .posets import FiniteTopology, Poset, poset_from_pairs
from .relations import Relation

# kind -> keyword -> (min arity, max arity or None); keywords are listed in
# canonical record order
_GRAMMAR = {
    "poset": {"element": (1, 1), "le": (2, 2)},
    "relation": {"xelement": (1, 1), "yelement": (1, 1), "pair": (2, 2)},
    "complex": {"facet": (1, None)},
    "space": {"point": (1, 1), "open": (1, None)},
}


@dataclass(frozen=True)
class Document:
    """A parsed input file: kind, name, and normalized body records."""

    kind: str
    name: str
    records: Tuple[Tuple[str, ...], ...]
    # where the header stood in the parsed text, for error reports only
    header_line: int = field(default=1, compare=False)

    def __post_init__(self):
        if self.kind not in _GRAMMAR:
            raise ValueError(f"unknown document kind {self.kind!r}")
        order = {kw: i for i, kw in enumerate(_GRAMMAR[self.kind])}
        normalized = sorted(
            set(self.records), key=lambda rec: (order[rec[0]], rec[1:])
        )
        object.__setattr__(self, "records", tuple(normalized))


def parse(text: str) -> Document:
    """Parse one document, reporting the line number of any problem."""
    kind = None
    name = None
    header_line = 1
    records = []
    declared: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if kind is None:
            if keyword not in _GRAMMAR:
                raise ParseError(
                    lineno, f"expected a header (one of {sorted(_GRAMMAR)}), got {keyword!r}"
                )
            if len(args) != 1:
                raise ParseError(lineno, f"header needs exactly one name, got {args!r}")
            kind, name, header_line = keyword, args[0], lineno
            rules = _GRAMMAR[kind]
            continue
        if keyword not in rules:
            raise ParseError(lineno, f"unknown keyword {keyword!r} in a {kind} file")
        lo, hi = rules[keyword]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ParseError(lineno, f"{keyword!r} takes {lo}{'' if hi == lo else '+'} labels")
        if keyword in ("element", "xelement", "yelement", "point"):
            declared.setdefault(keyword, set()).add(args[0])
        elif keyword == "le":
            for lab in args:
                if lab not in declared.get("element", ()):
                    raise ParseError(lineno, f"undeclared element {lab!r}")
        elif keyword == "pair":
            if args[0] not in declared.get("xelement", ()):
                raise ParseError(lineno, f"undeclared x element {args[0]!r}")
            if args[1] not in declared.get("yelement", ()):
                raise ParseError(lineno, f"undeclared y element {args[1]!r}")
        elif keyword == "open":
            for lab in args:
                if lab not in declared.get("point", ()):
                    raise ParseError(lineno, f"undeclared point {lab!r}")
        if keyword in ("facet", "open"):
            if len(set(args)) != len(args):
                raise ParseError(lineno, f"duplicate label in {keyword!r} line")
            args = sorted(args)
        records.append((keyword, *args))
    if kind is None:
        raise ParseError(1, "empty document")
    return Document(kind, name, tuple(records), header_line)


def serialize(doc: Document) -> str:
    """Canonical text for a document; parse(serialize(d)) == d."""
    lines = [f"{doc.kind} {doc.name}"]
    lines.extend(" ".join(rec) for rec in doc.records)
    return "\n".join(lines) + "\n"


def _args(doc: Document, keyword: str):
    return [rec[1:] for rec in doc.records if rec[0] == keyword]


def _require_kind(doc: Document, kind: str) -> None:
    if doc.kind != kind:
        raise ValueError(f"expected a {kind} document, got {doc.kind}")


def to_complex(doc: Document) -> SimplicialComplex:
    _require_kind(doc, "complex")
    facets = _args(doc, "facet")
    universe = sorted({lab for facet in facets for lab in facet})
    return complex_from_facets(universe, facets)


def to_poset(doc: Document) -> Poset:
    _require_kind(doc, "poset")
    elements = [lab for (lab,) in _args(doc, "element")]
    return poset_from_pairs(elements, _args(doc, "le"))


def to_relation(doc: Document) -> Relation:
    _require_kind(doc, "relation")
    xs = [lab for (lab,) in _args(doc, "xelement")]
    ys = [lab for (lab,) in _args(doc, "yelement")]
    return Relation(xs, ys, _args(doc, "pair"))


def to_topology(doc: Document) -> FiniteTopology:
    _require_kind(doc, "space")
    points = [lab for (lab,) in _args(doc, "point")]
    return FiniteTopology(Universe(points), _args(doc, "open"))


def complex_to_document(k: SimplicialComplex, name: str) -> Document:
    records = tuple(("facet", *labels) for labels in k.facet_labels())
    return Document("complex", name, records)


def poset_to_document(p: Poset, name: str) -> Document:
    records = [("element", lab) for lab in p.labels()]
    records.extend(("le", a, b) for a, b in p.cover_pairs())
    return Document("poset", name, tuple(records))


def relation_to_document(r: Relation, name: str) -> Document:
    records = [("xelement", lab) for lab in r.x_universe]
    records.extend(("yelement", lab) for lab in r.y_universe)
    records.extend(("pair", x, y) for x, y in sorted(r.pairs))
    return Document("relation", name, tuple(records))


def topology_to_document(t: FiniteTopology, name: str) -> Document:
    records = [("point", lab) for lab in t.points]
    records.extend(("open", *labels) for labels in t.open_label_sets() if labels)
    return Document("space", name, tuple(records))


def to_jsonable(value):
    """Convert library values into canonical JSON-ready structures.

    Step labels are emitted as they are: ``CollapseStep`` admits only
    nonempty strings.
    """
    if isinstance(value, (str, int)) or value is None:  # bool is an int
        return value
    if isinstance(value, HomologyProfile):
        return value.as_report()
    if isinstance(value, CollapseStep):
        return [list(value.free_face), list(value.coface)]
    if isinstance(value, CollapseSequence):
        return {"steps": [to_jsonable(s) for s in value.steps]}
    if isinstance(value, SimplicialComplex):
        return {"facets": [list(labels) for labels in value.facet_labels()]}
    if isinstance(value, Poset):
        return {
            "elements": list(value.labels()),
            "less_than": [list(p) for p in sorted(value.strict_pairs())],
        }
    if isinstance(value, Relation):
        return {
            "xelements": list(value.x_universe),
            "yelements": list(value.y_universe),
            "pairs": [list(p) for p in sorted(value.pairs)],
        }
    if isinstance(value, FiniteTopology):
        return {
            "points": list(value.points),
            "opens": [list(o) for o in value.open_label_sets()],
        }
    if isinstance(value, IntegerMatrix):
        return {"rows": value.rows, "cols": value.cols, "entries": [list(r) for r in value.entries]}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


def write_report(value) -> str:
    """Canonical JSON text: sorted keys, compact separators, no floats."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))
