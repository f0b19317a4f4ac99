import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import relcomplex as rc
from relcomplex import cli, formats
from relcomplex.errors import (
    CycleDetectedError, DomainError, EmptyRelationError, InvalidTopologyError, ParseError, UnknownVertexError,
)

import oracles


CIRCLE4_TEXT = """poset circle4
element 1
element 2
element 3
element 4
le 1 3
le 1 4
le 2 3
le 2 4
"""


class TestParse:
    def test_poset_file(self):
        doc = formats.parse(CIRCLE4_TEXT)
        assert doc.kind == "poset" and doc.name == "circle4"
        assert formats.to_poset(doc) == oracles.circle4_poset()

    def test_complex_file(self):
        doc = formats.parse("complex B\nfacet a b\nfacet a c\nfacet b c\n")
        k = formats.to_complex(doc)
        assert k.facet_labels() == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_undeclared_pair_label(self):
        with pytest.raises(ParseError) as exc:
            formats.parse("relation R\npair 1 d\n")
        assert exc.value.line == 2

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as exc:
            formats.parse("poset P\nelement 1\nvertex 2\n")
        assert exc.value.line == 3

    def test_comments_and_blank_lines(self):
        doc = formats.parse("# heading\n\nposet P # name\nelement 1  # one\n")
        assert doc.name == "P" and doc.records == (("element", "1"),)

    def test_header_line_is_kept_but_not_compared(self):
        doc = formats.parse("# heading\n\nposet P\nelement 1\n")
        assert doc.header_line == 3
        plain = formats.parse("poset P\nelement 1\n")
        assert plain.header_line == 1
        assert doc == plain and hash(doc) == hash(plain)

    def test_empty_document(self):
        with pytest.raises(ParseError):
            formats.parse("# nothing here\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            formats.parse("posets P\n")
        assert exc.value.line == 1

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            formats.parse("poset P\nelement 1\nle 1\n")
        with pytest.raises(ParseError):
            formats.parse("complex C\nfacet\n")

    def test_duplicate_label_in_facet(self):
        with pytest.raises(ParseError):
            formats.parse("complex C\nfacet a a\n")

    def test_undeclared_point_in_open(self):
        with pytest.raises(ParseError) as exc:
            formats.parse("space S\npoint 1\nopen 1 2\n")
        assert exc.value.line == 3

    def test_space_file(self):
        doc = formats.parse("space S\npoint 1\npoint 2\nopen 1\nopen 1 2\n")
        t = formats.to_topology(doc)
        assert rc.topology_to_order(t) == rc.poset_from_pairs("12", [("1", "2")])


class TestRoundTrips:
    def test_document_round_trip(self):
        doc = formats.parse(CIRCLE4_TEXT)
        assert formats.parse(formats.serialize(doc)) == doc

    def test_record_order_is_normalized(self):
        a = formats.parse("poset P\nelement 2\nelement 1\nle 1 2\n")
        b = formats.parse("poset P\nelement 1\nelement 2\nle 1 2\n")
        assert a == b
        assert a.records[0] == ("element", "1")

    def test_use_before_declaration_rejected(self):
        with pytest.raises(ParseError) as exc:
            formats.parse("poset P\nelement 1\nle 1 2\nelement 2\n")
        assert exc.value.line == 3

    @given(st.data())
    def test_poset_value_round_trip(self, data):
        n = data.draw(st.integers(1, 5))
        labels = [str(i) for i in range(1, n + 1)]
        pairs = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if data.draw(st.booleans())
        ]
        p = rc.poset_from_pairs(labels, pairs)
        doc = oracles.poset_to_document(p, "P")
        assert formats.to_poset(formats.parse(formats.serialize(doc))) == p

    def test_complex_value_round_trip(self, boundary2):
        doc = oracles.complex_to_document(boundary2, "B")
        assert formats.to_complex(formats.parse(formats.serialize(doc))) == boundary2

    def test_relation_value_round_trip(self, circle4):
        r = rc.Relation(circle4.elements, circle4.elements, oracles.poset_pairs(circle4))
        doc = oracles.relation_to_document(r, "R")
        assert formats.to_relation(formats.parse(formats.serialize(doc))) == r

    def test_topology_value_round_trip(self, circle4):
        t = rc.order_to_topology(circle4)
        doc = oracles.topology_to_document(t, "T")
        assert formats.to_topology(formats.parse(formats.serialize(doc))) == t


class TestReports:
    def test_point_profile(self):
        assert formats.write_report(rc.homology(oracles.full_complex("a"))) == \
            '{"betti":[1],"torsion":[[]]}'

    def test_circle4_chain_complex_profile(self, circle4):
        report = formats.write_report(rc.homology(rc.order_complex(circle4)))
        assert report == '{"betti":[1,1],"torsion":[[],[]]}'

    def test_empty_sequence(self, boundary2):
        seq = rc.CollapseSequence(boundary2, ())
        assert formats.write_report(seq) == '{"steps":[]}'

    def test_steps_with_a_label_outside_the_universe(self, boundary2):
        """Steps that name a label the complex lacks are written from their own labels."""
        steps = [rc.CollapseStep(("a", "\u00e9"), ("a", "b", "\u00e9")), rc.CollapseStep(("b",), ("b", "c"))]
        seq = rc.CollapseSequence(boundary2, steps)
        text = '{"steps":[[["a","\\u00e9"],["a","b","\\u00e9"]],[["b"],["b","c"]]]}'
        assert formats.write_report(seq) == text
        assert formats.write_report({"z": 1, "seq": seq}) == '{"seq":' + text[9:-1] + ',"z":1}'

    def test_reports_have_no_floats(self, crown_relation):
        text = formats.write_report(rc.verify_closed_relation(crown_relation, "weak"))
        import json

        def walk(v):
            assert not isinstance(v, float)
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)

        walk(json.loads(text))

    def test_byte_stability(self, crown_relation):
        a = formats.write_report(rc.verify_closed_relation(crown_relation, "quillen"))
        b = formats.write_report(rc.verify_closed_relation(crown_relation, "quillen"))
        assert a == b

    @pytest.mark.parametrize("value", [object(), 1.5, float("nan"), {"a"}, b"a"])
    def test_unknown_value_rejected(self, value):
        with pytest.raises(TypeError, match="no JSON form"):
            formats.write_report(value)


class TestReportsAgainstTheWalkingConverter:
    """write_report is byte-identical to the converter that walks every label."""

    def test_greedy_cli_reports(self, monkeypatch):
        rng = random.Random(20261018)
        for _ in range(200):
            k = oracles.random_complex(rng, "abcdefg"[: rng.randint(1, 7)], max_facets=5)
            monkeypatch.setattr(cli, "_load", lambda kind, path: k)
            report = cli._cmd_collapse_greedy(SimpleNamespace(complex="in.complex"))
            core, seq = rc.greedy_collapse(k)
            before = {  # the report dict as the CLI built it with the walking converter
                "core_facets": [list(labels) for labels in core.facet_labels()],
                "steps": oracles.walking_to_jsonable(seq)["steps"],
            }
            assert formats.write_report(report) == oracles.walking_report(before)
            assert formats.write_report(report) == oracles.walking_report(report)

    def test_leq_strict_sequences(self):
        rng = random.Random(44)
        checked = 0
        while checked < 100:
            p = oracles.random_poset(rng, [f"e{i}" for i in range(rng.randint(2, 8))])
            if any(len(c) == 1 for c in rc.connected_components(p)):
                continue
            for side in ("k", "l"):
                seq = rc.collapse_leq_to_strict(p, side)
                assert formats.write_report(seq) == oracles.walking_report(seq)
            checked += 1


# Labels that JSON must escape: a quote, a backslash and a non-ASCII letter,
# which json.dumps writes as the six characters \u00e9.
ESCAPED_LABELS = st.lists(
    st.text(alphabet='"\\éa', min_size=1, max_size=3), min_size=2, max_size=6, unique=True
)


@st.composite
def escaped_complexes(draw):
    labels = draw(ESCAPED_LABELS)
    facets = draw(st.lists(st.sets(st.sampled_from(labels), min_size=1), min_size=1, max_size=4))
    return rc.complex_from_facets(labels, facets)


@st.composite
def escaped_posets(draw):
    """An order on escaped labels with no singleton component: every element
    not below another one goes below the last."""
    labels = draw(ESCAPED_LABELS)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if draw(st.booleans())]
    p = rc.poset_from_pairs(labels, pairs)
    if any(len(c) == 1 for c in rc.connected_components(p)):
        p = rc.poset_from_pairs(labels, pairs + [(a, labels[-1]) for a in labels[:-1]])
    return p


@st.composite
def escaped_relations(draw):
    """A relation between two sets of escaped labels, any pairs, covered or not."""
    xs, ys = draw(ESCAPED_LABELS), draw(ESCAPED_LABELS)
    return rc.Relation(xs, ys, draw(st.sets(st.tuples(st.sampled_from(xs), st.sampled_from(ys)))))


class TestPairsInIndexOrder:
    """Reports list pairs from the masks in index order, which is the sorted order
    of the label pairs: a relation's from its transposed supports, a poset's
    strict pairs from its up masks."""

    @settings(max_examples=100, deadline=2000)
    @given(escaped_relations())
    def test_a_relations_pairs(self, rel):
        assert formats._pairs_in_order(rel) == [list(pair) for pair in sorted(rel.pairs)]

    @settings(max_examples=100, deadline=2000)
    @given(oracles.posets(max_elements=7) | escaped_posets())
    def test_a_posets_strict_pairs(self, p):
        assert formats._pairs_in_order(p) == [list(pair) for pair in sorted(oracles.strict_pairs(p))]


class TestReportsOfEscapedLabels:
    """Reports written from mask pairs equal the walking converter's, on labels
    whose JSON strings hold escapes."""

    @settings(max_examples=60, deadline=2000)
    @given(escaped_complexes())
    def test_greedy(self, k):
        core, seq = rc.greedy_collapse(k)
        report = {"core_facets": [list(labels) for labels in core.facet_labels()], "steps": seq}
        assert formats.write_report(seq) == oracles.walking_report(seq)
        assert formats.write_report(report) == oracles.walking_report(report)

    @settings(max_examples=60, deadline=2000)
    @given(escaped_posets())
    def test_leq_strict(self, p):
        for side in ("k", "l"):
            seq = rc.collapse_leq_to_strict(p, side)
            assert formats.write_report(seq) == oracles.walking_report(seq)

    def test_sequences_given_as_labels_and_nested(self):
        k = rc.complex_from_facets(['"a', "b\\", "é"], [('"a', "b\\", "é")])
        _, seq = rc.greedy_collapse(k)
        given_labels = rc.CollapseSequence(k, seq.steps)
        assert formats.write_report(given_labels) == formats.write_report(seq) == oracles.walking_report(seq)
        nested = {"runs": [seq, given_labels], "n": {"inner": seq}}
        assert formats.write_report(nested) == oracles.walking_report(nested)


# ---------------------------------------------------------------------------
# parse against the line parser it replaced, on generated texts

LABELS = ["a", "b", "c", "d"]
KEYWORDS = sorted({kw for rules in formats._GRAMMAR.values() for kw in rules} | {"vertex"})


@st.composite
def valid_lines(draw):
    """The token lines of a valid document of any kind: declarations, then uses."""
    kind = draw(st.sampled_from(sorted(formats._GRAMMAR)))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, unique=True))
    label = st.sampled_from(labels)
    uses = st.integers(0, 4)
    lines = [[kind, draw(st.sampled_from(["P", "x-1", "é"]))]]
    if kind == "poset":
        lines += [["element", lab] for lab in labels]
        lines += [["le", draw(label), draw(label)] for _ in range(draw(uses))]
    elif kind == "relation":
        ys = draw(st.lists(st.sampled_from(["y", "z", "a"]), min_size=1, unique=True))
        lines += [["xelement", lab] for lab in labels] + [["yelement", y] for y in ys]
        lines += [["pair", draw(label), draw(st.sampled_from(ys))] for _ in range(draw(uses))]
    else:
        declare, use = ("point", "open") if kind == "space" else (None, "facet")
        if declare:
            lines += [[declare, lab] for lab in labels]
        lines += [[use, *draw(st.lists(label, min_size=1, unique=True))] for _ in range(draw(uses))]
    return lines


def lines_of(lines, keywords):
    """Indices of the body lines whose keyword is one of ``keywords``."""
    return [i for i, tokens in enumerate(lines) if i and tokens[0] in keywords]


@st.composite
def hostile_lines(draw):
    """A valid document's lines with one or two faults put in."""
    lines = draw(valid_lines())
    for _ in range(draw(st.integers(1, 2))):
        fault = draw(st.sampled_from(["header", "keyword", "arity", "undeclared", "late", "duplicate"]))
        body = lines_of(lines, {"le", "pair", "open"} if fault == "undeclared"
                        else {"element", "xelement", "yelement", "point"} if fault == "late"
                        else {"facet", "open"} if fault == "duplicate"
                        else KEYWORDS)
        at = draw(st.sampled_from(body)) if body else None
        if fault == "header" and lines:
            header = draw(st.sampled_from(["none", "keyword", "arity"]))
            if header == "none":
                del lines[0]
            elif header == "keyword":
                lines[0] = [draw(st.sampled_from(["posets", "element", "vertex"])), *lines[0][1:]]
            else:
                lines[0] = lines[0][:1] + draw(st.lists(st.sampled_from(LABELS), max_size=3).filter(lambda a: len(a) != 1))
        elif fault == "keyword":
            where = draw(st.integers(1, max(len(lines), 1)))
            lines.insert(where, [draw(st.sampled_from(KEYWORDS)), *draw(st.lists(st.sampled_from(LABELS), max_size=3))])
        elif at is None:
            continue
        elif fault == "arity":
            cut = draw(st.integers(1, len(lines[at])))
            lines[at] = lines[at][:cut] + draw(st.lists(st.sampled_from(LABELS), max_size=2))
        elif fault == "undeclared":
            lines[at][draw(st.integers(1, len(lines[at]) - 1))] = "zz"
        elif fault == "late":
            lines.append(lines.pop(at))
        else:
            lines[at].append(draw(st.sampled_from(lines[at][1:])))
    return lines


@st.composite
def layouts(draw, lines):
    """Text for token lines, with blank and comment lines, tabs, comments and CRLF drawn."""
    out = []
    for tokens in lines:
        while draw(st.integers(0, 3)) == 3:
            out.append(draw(st.sampled_from(["", "   ", "\t", "# comment", "  # a b", " "])))
        lead = draw(st.sampled_from(["", " ", "\t", " \t"]))
        gap = draw(st.sampled_from([" ", "\t", "  ", " \t", " "]))
        tail = draw(st.sampled_from(["", "", " ", "\t", " # note", "#", "\t# x#y"]))
        out.append(lead + gap.join(tokens) + tail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end]))


def parsed(parse, text):
    """The document and its header line, or the line and message of the error."""
    try:
        doc = parse(text)
    except ParseError as exc:
        return "error", exc.line, exc.message
    return "document", doc, doc.header_line


def same_as_the_line_parser(text):
    got = parsed(formats.parse, text)
    assert got == parsed(oracles.line_parse, text)
    if got[0] == "document":
        assert formats.parse(formats.serialize(got[1])) == got[1]
    return got[0]


class TestParseAgainstTheLineParser:
    """parse gives the line parser's document, or its error line and message."""

    @given(valid_lines().flatmap(layouts))
    def test_valid_texts(self, text):
        assert same_as_the_line_parser(text) == "document"

    @settings(max_examples=300)
    @given(hostile_lines().flatmap(layouts))
    def test_hostile_texts(self, text):
        same_as_the_line_parser(text)

    @pytest.mark.parametrize("text", [
        "", "\n\n", "# only\r\n", "posets P\n", "poset\n", "poset P Q\n", "poset P\nvertex 1\n",
        "poset P\nelement\n", "poset P\nelement 1 2\n", "poset P\nle 1 1\n", "poset P\nelement 1\nle 1 2\n",
        "relation R\nxelement a\npair a y\n", "relation R\nyelement y\npair a y\n",
        "complex C\nfacet a b a\n", "space S\npoint 1\nopen 1 1\n", "space S\npoint 1\nopen 2 2\n",
        "complex C#x\n\tfacet b\ta # c\r\nfacet a\n",
    ])
    def test_each_fault(self, text):
        same_as_the_line_parser(text)

    def test_records_of_an_unknown_keyword_are_rejected(self):
        with pytest.raises(ValueError, match="unknown keyword 'vertex'"):
            formats.Document("poset", "P", (("element", "1"), ("vertex", "2")))


# ---------------------------------------------------------------------------
# documents whose records come in any order, some of them repeated

CONVERTERS = {"poset": formats.to_poset, "relation": formats.to_relation,
              "complex": formats.to_complex, "space": formats.to_topology}


def converted(doc):
    """The report of the value a document converts to (and, for a complex, of
    its greedy collapse), or the type and message of the converter's error."""
    try:
        value = CONVERTERS[doc.kind](doc)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)
    reports = [formats.write_report(value)]
    if doc.kind == "complex" and not value.is_empty:
        core, seq = rc.greedy_collapse(value)
        reports.append(formats.write_report({"core": core, "steps": seq}))
    return value, reports


class TestRecordOrder:
    """A document is a set of records: their order and repeats change nothing."""

    @settings(max_examples=150, deadline=2000)
    @given(valid_lines(), st.randoms(use_true_random=False))
    def test_shuffled_and_repeated_records(self, lines, rnd):
        canonical = formats.parse(formats.serialize(formats.parse("\n".join(map(" ".join, lines)))))
        text = oracles.shuffled_text(canonical, rnd)
        doc = formats.parse(text)
        assert doc == canonical and hash(doc) == hash(canonical)
        assert formats.serialize(doc) == formats.serialize(canonical)
        assert converted(doc) == converted(canonical)
        assert oracles.line_parse(text) == doc

    def test_the_public_constructor_normalizes(self):
        doc = formats.Document("poset", "P", (("le", "1", "2"), ("element", "2"), ("element", "1"), ("element", "2")))
        assert doc.records == (("element", "1"), ("element", "2"), ("le", "1", "2"))
        assert doc == formats.Document("poset", "P", doc.records, header_line=7)
        assert hash(doc) == hash(formats.Document("poset", "P", doc.records, header_line=7))
        assert doc != formats.Document("poset", "Q", doc.records)
        with pytest.raises(ValueError, match="unknown document kind 'graph'"):
            formats.Document("graph", "G", ())

    def test_fields_cannot_be_set(self):
        doc = formats.parse(CIRCLE4_TEXT)
        with pytest.raises(AttributeError):
            doc.name = "other"
        with pytest.raises(AttributeError):
            doc.records = ()
        with pytest.raises(AttributeError):
            del doc.kind
        assert doc.name == "circle4" and len(doc.records) == 8

    @pytest.mark.parametrize("text", ["relation R\nxelement a\n", "relation R\nyelement y\n", "relation R\n"])
    def test_a_relation_needs_both_universes(self, text):
        with pytest.raises(EmptyRelationError, match="^relation universes must be nonempty$"):
            formats.to_relation(formats.parse(text))

    @pytest.mark.parametrize("pairs, unknown", [
        ((("b", "u"),), "b"),
        ((("a", "v"),), "v"),
        ((("a", "u"), ("b", "v"), ("c", "u")), "b"),
    ])
    def test_a_built_document_names_its_first_undeclared_label(self, pairs, unknown):
        # a Document built by hand has had no parse to check its pairs
        records = (("xelement", "a"), ("yelement", "u"), ("xelement", "c"), *(("pair", *p) for p in pairs))
        with pytest.raises(UnknownVertexError) as exc:
            formats.to_relation(formats.Document("relation", "R", records))
        assert exc.value.label == unknown

    def test_of_two_unknown_keywords_the_least_is_named(self):
        records = (("vertex", "1"), ("element", "1"), ("edge", "2"), ("arc", "3"))
        with pytest.raises(ValueError, match=r"^unknown keyword 'arc' in a poset document$"):
            formats.Document("poset", "P", records)

    def test_a_cycle_witness_follows_the_sorted_edges(self):
        # a -> c -> b and a -> k -> b are both shortest; c and k (indices 2 and
        # 10) collide in a small set, so the edge order picks the path
        text = "poset P\n" + "".join(f"element {e}\n" for e in "kjihgfedcba") \
            + "le k b\nle a k\nle b a\nle c b\nle a c\n"
        with pytest.raises(CycleDetectedError) as exc:
            formats.to_poset(formats.parse(text))
        assert str(exc.value) == "order pairs close into a cycle: a <= c <= b <= a"

    @pytest.mark.parametrize("opens, message", [
        ("open 1 2 3 4 5 6\nopen 4 5 6\nopen 1 2 3 4 5 6\nopen 4 5\nopen 3 4 5\nopen 3 5\n", "intersection"),
        ("open 1 2 3 4 5 6\nopen 6\nopen 1 2\nopen 2 3 4 5 6\nopen 1\n", "union"),
        ("open 2 3 4 5 6\nopen 1 2 3 4 5 6\nopen 1 2 3 4 5\n", "intersection"),
    ])
    def test_topology_closure_messages_follow_the_sorted_opens(self, opens, message):
        # the first case misses both a union and an intersection, and its
        # opens in file order would name the union
        with pytest.raises(InvalidTopologyError, match=f"^open sets must be closed under {message}$"):
            formats.to_topology(formats.parse("space S\n" + "".join(f"point {p}\n" for p in "615243") + opens))
