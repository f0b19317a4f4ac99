"""Line-based text formats for the four value kinds, plus canonical JSON reports.

Inputs are hand-authorable text ('#' starts a comment, labels are
whitespace-free tokens, declarations precede use); outputs are JSON with
sorted keys, compact separators and no floating point, so every report is
byte-stable across runs.  Collapse steps are written as text straight from
a sequence's mask pairs, each face's from its prefix's, with no step object.

Text is checked once, by ``parse``, in one pass over its lines: header,
keywords, arity, declaration before use and distinct labels in a set, so it
builds its ``Document`` unchecked, through ``_new``.  Records keep their file
order, grouped by keyword, and are sorted only where order shows: in a
document's canonical ``records``, in the ``open`` group, whose order picks
the pair of opens an error names, and in the ``le`` group once it is known
to close into a cycle, whose witness follows the edges.
The converters hand the labels to the constructors that check values:
``Universe``, ``Relation``, ``FiniteTopology`` and ``complex_from_facets``,
and ``poset_from_pairs``, which builds through the unchecked
``Poset._trusted`` once its closure has no cycle.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from .collapses import CollapseSequence
from .complexes import SimplicialComplex, Universe, _Frozen, complex_from_facets
from .errors import CycleDetectedError, ParseError
from .homology import HomologyProfile
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


_LABEL = itemgetter(1)
_PAIR = itemgetter(1, 2)
_ARGS = itemgetter(slice(1, None))


class Document(_Frozen):
    """A parsed input file: kind, name, and its body records grouped by keyword.

    The groups keep the records as given, repeats included.  ``records``,
    which ``==``, ``hash`` and ``serialize`` read, is the canonical form,
    built on first read: each keyword's distinct records sorted by their
    labels, in grammar order.  ``header_line`` is for error reports only.
    """

    __slots__ = ("kind", "name", "header_line", "_groups", "_records")
    _fields = ("kind", "name", "records", "header_line")

    def __init__(self, kind: str, name: str, records, header_line: int = 1):
        if kind not in _GRAMMAR:
            raise ValueError(f"unknown document kind {kind!r}")
        groups = {}
        for record in records:
            groups.setdefault(record[0], []).append(record)
        if unknown := groups.keys() - _GRAMMAR[kind]:
            raise ValueError(f"unknown keyword {min(unknown)!r} in a {kind} document")
        self._set(kind=kind, name=name, header_line=header_line, _groups=groups, _records=None)

    @property
    def records(self) -> tuple:
        if self._records is None:  # a group's records share their keyword, so sort as their labels do
            groups = self._groups
            ordered = (sorted(set(groups[kw])) for kw in _GRAMMAR[self.kind] if kw in groups)
            self._set(_records=tuple(chain.from_iterable(ordered)))
        return self._records

    def _key(self) -> tuple:  # the header line is not compared
        return self.kind, self.name, self.records


def parse(text: str) -> Document:
    """Parse one document, reporting the line number of any problem.

    One pass: each line is cut at ``#`` only when it holds one and split
    once, since ``str.split()`` drops the whitespace around the tokens.  Each
    record goes to its keyword's group, in file order.
    """
    kind = None
    elements, xs, ys, points = set(), set(), set(), set()
    declares = {"element": elements, "xelement": xs, "yelement": ys, "point": points}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if kind is None:
            if keyword not in _GRAMMAR:
                raise ParseError(
                    lineno, f"expected a header (one of {sorted(_GRAMMAR)}), got {keyword!r}"
                )
            if len(tokens) != 2:
                raise ParseError(lineno, f"header needs exactly one name, got {tokens[1:]!r}")
            kind, name, header_line = keyword, tokens[1], lineno
            rules = _GRAMMAR[kind]
            groups = {kw: [] for kw in rules}
            continue
        arity = rules.get(keyword)
        if arity is None:
            raise ParseError(lineno, f"unknown keyword {keyword!r} in a {kind} file")
        lo, hi = arity
        n = len(tokens) - 1
        if n < lo or (hi is not None and n > hi):
            raise ParseError(lineno, f"{keyword!r} takes {lo}{'' if hi == lo else '+'} labels")
        if keyword in declares:
            declares[keyword].add(tokens[1])
        elif keyword == "le":
            for lab in tokens[1:]:
                if lab not in elements:
                    raise ParseError(lineno, f"undeclared element {lab!r}")
        elif keyword == "pair":
            if tokens[1] not in xs:
                raise ParseError(lineno, f"undeclared x element {tokens[1]!r}")
            if tokens[2] not in ys:
                raise ParseError(lineno, f"undeclared y element {tokens[2]!r}")
        else:  # facet or open: a label set
            labels = tokens[1:]
            if keyword == "open":
                for lab in labels:
                    if lab not in points:
                        raise ParseError(lineno, f"undeclared point {lab!r}")
            if len(set(labels)) != n:
                raise ParseError(lineno, f"duplicate label in {keyword!r} line")
            labels.sort()
            tokens[1:] = labels
        groups[keyword].append(tuple(tokens))
    if kind is None:
        raise ParseError(1, "empty document")
    return Document._new(kind, name, header_line, groups, None)


def serialize(doc: Document) -> str:
    """Canonical text for a document; parse(serialize(d)) == d."""
    lines = [f"{doc.kind} {doc.name}"]
    lines.extend(" ".join(rec) for rec in doc.records)
    return "\n".join(lines) + "\n"


def _groups(doc: Document, kind: str) -> dict:
    """Each keyword's records, as given."""
    if doc.kind != kind:
        raise ValueError(f"expected a {kind} document, got {doc.kind}")
    return doc._groups


def to_complex(doc: Document) -> SimplicialComplex:
    facets = list(map(_ARGS, _groups(doc, "complex").get("facet", ())))
    return complex_from_facets({lab for facet in facets for lab in facet}, facets)


def to_poset(doc: Document) -> Poset:
    groups = _groups(doc, "poset")
    elements = list(map(_LABEL, groups.get("element", ())))
    edges = groups.get("le", ())
    try:
        return poset_from_pairs(elements, map(_PAIR, edges))
    except CycleDetectedError:  # its witness follows the edge order: name the sorted edges' one
        return poset_from_pairs(elements, map(_PAIR, sorted(set(edges))))


def to_relation(doc: Document) -> Relation:
    groups = _groups(doc, "relation")
    xs = map(_LABEL, groups.get("xelement", ()))
    ys = map(_LABEL, groups.get("yelement", ()))
    return Relation(xs, ys, map(_PAIR, groups.get("pair", ())))


def to_topology(doc: Document) -> FiniteTopology:  # a closure error names a pair in set order
    groups = _groups(doc, "space")
    points = map(_LABEL, groups.get("point", ()))
    return FiniteTopology(Universe(points), map(_ARGS, sorted(set(groups.get("open", ())))))


def to_jsonable(value):
    """Convert library values into canonical JSON-ready structures."""
    if isinstance(value, (str, int)) or value is None:  # bool is an int
        return value
    if isinstance(value, HomologyProfile):
        return value.as_report()
    if isinstance(value, CollapseSequence):  # only where write_report cannot write its text
        return json.loads(_steps_text(value))
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
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _steps_text(seq: CollapseSequence) -> str:
    """The JSON text of a sequence's list of steps.  Its mask pairs are named
    through one memo (``Universe._walker``): a face's text is its prefix's, a
    comma and the JSON string of its last label."""
    pairs = seq._pairs
    if any(None in pair for pair in pairs):  # a step names a label outside the universe
        return json.dumps([[list(s.free_face), list(s.coface)] for s in seq.steps], separators=(",", ":"))
    text = seq.initial.universe._walker("", json.dumps, "{},{}".format)
    return "[" + ",".join([f"[[{text(f)}],[{text(c)}]]" for f, c in pairs]) + "]"


def write_report(value) -> str:
    """Canonical JSON text: sorted keys, compact separators, no floats.  A dict
    holding a collapse sequence (a sequence is ``{"steps": [...]}``) is written
    key by key, as ``json.dumps`` would, so its steps' text goes in as it is."""
    if isinstance(value, CollapseSequence):
        value = {"steps": value}
    if not isinstance(value, dict) or not any(isinstance(v, CollapseSequence) for v in value.values()):
        return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))
    return "{" + ",".join(
        json.dumps(k) + ":" + (_steps_text(v) if isinstance(v, CollapseSequence) else write_report(v))
        for k, v in sorted({str(k): v for k, v in value.items()}.items())
    ) + "}"
