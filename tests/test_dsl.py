"""Frontend behavior: total parsing, spanned diagnostics, recovery, linking."""
from __future__ import annotations

import dataclasses
import random
import re
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tmkit
from tmkit import load, parse
from tmkit.dsl import MAX_DIAGNOSTICS, _Parser

import oracles
from conftest import make_random_document

GOOD = """
machine source {
  stage create;
  stage release;
  stage transfer;
}
machine sink {
  stage transfer;
  stage receive;
}
flow parcel: source.create -> source.release;
flow parcel: source.release -> source.transfer;
flow parcel: source.transfer -> sink.transfer;
flow parcel: sink.transfer -> sink.receive;
region r-all = { source, sink };
event Eall on r-all duration 2 label "the parcel moves";
behavior {
  repeat Eall bound 3;
}
"""


def codes(result):
    return sorted(d.code for d in result.diagnostics)


def test_happy_path_links_everything():
    result = parse(GOOD)
    assert result.ok and result.document is not None
    doc = result.document
    assert set(doc.model.machines) == {"", "source", "sink"}
    assert len(doc.model.flows) == 4
    assert doc.regions["r-all"].stage_ids == (
        "sink.receive",
        "sink.transfer",
        "source.create",
        "source.release",
        "source.transfer",
    )
    assert doc.events["Eall"].duration == 2
    assert doc.events["Eall"].label == "the parcel moves"
    assert doc.behavior[0].kind == "repeat" and doc.behavior[0].bound == 3
    assert doc.model.frozen


def test_p1_lexical_garbage():
    result = parse('machine "unterminated {\n}')
    assert "P1" in codes(result)
    assert not result.ok


def test_p1_unknown_character():
    result = parse("machine a { stage create; } $")
    assert "P1" in codes(result)


def test_p2_syntax_error_with_span():
    result = parse("machine a { stage create }")  # missing semicolon
    assert "P2" in codes(result)
    diag = next(d for d in result.diagnostics if d.code == "P2")
    assert diag.span is not None and diag.span.line >= 1


def test_p3_duplicate_names():
    result = parse("machine a { stage create; }\nmachine a { stage create; }")
    assert "P3" in codes(result)

    result = parse(
        "machine a { stage create; }\n"
        "region r = { a };\nregion r = { a };"
    )
    assert "P3" in codes(result)


def test_p4_unresolved_references():
    result = parse("flow x: nowhere.create -> nowhere.release;")
    assert codes(result).count("P4") >= 1

    result = parse(
        "machine a { stage create; }\nregion r = { a };\nevent E on ghost;"
    )
    assert "P4" in codes(result)


def test_p4_machine_where_stage_required():
    result = parse(
        "machine a { stage create; machine b { stage create; } }\n"
        "flow: a.create -> a.b;"
    )
    assert "P4" in codes(result)


def test_p4_storage_cannot_join_a_region():
    result = parse(
        "machine a { stage create; }\nstorage vat in a;\nregion r = { a.vat };"
    )
    assert "P4" in codes(result)


def test_p5_invalid_values():
    assert "P5" in codes(parse('machine "world" { stage create; }'))
    assert "P5" in codes(
        parse(
            "machine a { stage create; }\nregion r = { a };\n"
            "event E on r duration 0;"
        )
    )


# Declarations every case below builds on: a machine with a child, a region, an event.
LINKED = "machine a { stage create; machine b { stage create; } }\nregion r = { a };\nevent e on r;\n"


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("machine a { stage create; stage create; }", "1:33: error P3: machine 'a' already has a create stage"),
        (LINKED + "storage world in a;", "4:1: error P5: 'world' names the root machine and is reserved"),
        (LINKED + "storage x in a;\nstorage x in a;", "5:1: error P3: machine or storage 'x' already exists in 'a'"),
        (LINKED + "storage b in a;", "4:1: error P3: machine or storage 'b' already exists in 'a'"),
        (LINKED + "region world = { a };", "4:8: error P5: 'world' names the root machine and is reserved"),
        (LINKED + "event e on r;", "4:7: error P3: event 'e' is already declared"),
        (LINKED + "event process on r;", "4:7: error P5: 'process' is a stage kind and is reserved"),
        (LINKED + "behavior { repeat e bound 0; }", "4:27: error P5: bound must be >= 1"),
        (LINKED + "event f on r duration 2 duration 3;", "4:34: error P2: duplicate 'duration' clause"),
        (LINKED + 'event f on r label "x" label "y";', "4:30: error P2: duplicate 'label' clause"),
    ],
    ids=[
        "duplicate-stage",
        "storage-named-world",
        "duplicate-storage",
        "storage-named-like-a-child",
        "region-named-world",
        "duplicate-event",
        "event-named-like-a-kind",
        "bound-zero",
        "second-duration",
        "second-label",
    ],
)
def test_each_refused_declaration_is_one_finding_at_its_place(text, rendered):
    result = parse(text, "m.tm")
    assert [d.render() for d in result.diagnostics] == [f"m.tm:{rendered}"]
    assert result.document is None


def test_document_from_parts_refuses_dangling_region_and_event_references():
    model = tmkit.StaticModel()
    model.add_stage(model.add_machine("a"), tmkit.ActionKind.CREATE)
    with pytest.raises(tmkit.UnknownEntityError, match="region 'r' references unknown stage 'b.create'"):
        tmkit.document_from_parts(model, {"r": ("a.create", "b.create")})
    with pytest.raises(tmkit.UnknownEntityError, match="event 'E' references unknown region 'q'"):
        tmkit.document_from_parts(model, {"r": ("a.create",)}, {"E": tmkit.EventDecl("E", "q")})


def test_a_document_built_directly_refuses_dangling_references():
    model = tmkit.StaticModel()
    model.add_stage(model.add_machine("a"), tmkit.ActionKind.CREATE)
    model.freeze()
    region = {"r": tmkit.RegionDecl("r", ("a.create",))}
    event = {"E": tmkit.EventDecl("E", "r")}
    with pytest.raises(tmkit.UnknownEntityError, match="region 'r' references unknown stage 'b.create'"):
        tmkit.ModelDocument(model, {"r": tmkit.RegionDecl("r", ("a.create", "b.create"))}, {}, ())
    with pytest.raises(tmkit.UnknownEntityError, match="event 'E' references unknown region 'q'"):
        tmkit.ModelDocument(model, region, {"E": tmkit.EventDecl("E", "q")}, ())
    for decl in (tmkit.BehaviorDecl("seq", "E", ("F",)), tmkit.BehaviorDecl("choice", None, ("F", "E"))):
        with pytest.raises(tmkit.UnknownEntityError, match="behavior references unknown event 'F'"):
            tmkit.ModelDocument(model, region, event, (decl,))
    # References are checked before names: a mis-keyed event with a dangling region.
    with pytest.raises(tmkit.UnknownEntityError, match="event 'F' references unknown region 'q'"):
        tmkit.ModelDocument(model, region, {"E": tmkit.EventDecl("F", "q")}, ())
    document = tmkit.ModelDocument(model, region, event, (tmkit.BehaviorDecl("repeat", "E", ("E",)),))
    assert tmkit.eventize(document)[1] is not None


def test_a_document_keys_each_region_and_event_by_its_own_name():
    model = tmkit.StaticModel()
    model.add_stage(model.add_machine("a"), tmkit.ActionKind.CREATE)
    with pytest.raises(ValueError, match="event 'F' is keyed by another name, 'E'"):
        tmkit.document_from_parts(model, {"r": ("a.create",)}, {"E": tmkit.EventDecl("F", "r")})
    assert not model.frozen  # a refused document leaves the model as it was
    with pytest.raises(ValueError, match="region 's' is keyed by another name, 'r'"):
        tmkit.ModelDocument(model, {"r": tmkit.RegionDecl("s", ("a.create",))}, {}, ())
    with pytest.raises(ValueError, match="region name must be a valid name"):
        tmkit.ModelDocument(model, {"r.s": tmkit.RegionDecl("r.s", ("a.create",))}, {}, ())
    document = tmkit.document_from_parts(model, {"r": ("a.create",)}, {"E": tmkit.EventDecl("E", "r")})
    reparsed = parse(tmkit.format_document(document)).document
    assert reparsed.events["E"].name == "E" and reparsed.regions["r"].stage_ids == ("a.create",)


def test_numbers_above_the_largest_are_p5_at_their_span():
    head = "machine a { stage create; }\nregion r = { a };\nevent e on r;\n"
    for clause, tail in (("event f on r duration ", ";"), ("behavior { repeat e bound ", "; }")):
        for digits in ("9223372036854775808", "1" * 5000, "0" * 5000 + "1" * 20):
            result = parse(head + clause + digits + tail, "f")
            assert [d.render() for d in result.diagnostics] == [
                f"f:4:{len(clause) + 1}: error P5: number out of range"
            ], digits[:30]
            span = result.diagnostics[0].span
            assert (span.start, span.end) == (len(head) + len(clause), len(head) + len(clause) + len(digits))
    largest = parse(f"{head}event f on r duration {'0' * 5000}9223372036854775807;")
    assert largest.ok and largest.document.events["f"].duration == 2**63 - 1


def test_recovery_reports_every_statement():
    bad = "\n".join("flow x: nowhere%d.create -> gone.release;" % i for i in range(10))
    result = parse(bad)
    assert len([d for d in result.diagnostics if d.code == "P4"]) >= 10


def test_diagnostics_are_capped():
    bad = "\n".join("flow x: no%d.a -> no.b;" % i for i in range(500))
    result = parse(bad)
    assert len(result.diagnostics) <= MAX_DIAGNOSTICS


def test_deep_nesting_is_rejected_not_fatal():
    text = ""
    for i in range(80):
        text += f"machine m{i} {{ "
    text += "stage create; " + "} " * 80
    result = parse(text)
    assert "P2" in codes(result)


def test_quoted_names_and_escapes():
    result = parse(
        'machine "odd name" { stage create; }\n'
        'machine "back\\\\slash" { stage create; }\n'
        'region r = { "odd name", "back\\\\slash" };'
    )
    assert result.ok, codes(result)
    assert "odd name" in result.document.model.machines
    assert "back\\slash" in result.document.model.machines


def test_names_with_literal_quotes_are_invalid():
    # escaped quotes lex fine but a name may not carry one
    result = parse('machine "no \\" way" { stage create; }')
    assert "P5" in codes(result)


def test_flow_things_are_names():
    # As for storages, machines, regions and events: no dots, quotes or
    # reserved words; the P5 sits at the flow statement.
    head = "machine a { stage create; stage release; }\n"
    for thing in ('"a.b\\"c"', '"x.y"', '"say \\"hi\\""', "create"):
        flow = f"flow {thing}: a.create -> a.release;"
        result = parse(head + flow, "f")
        assert codes(result) == ["P5"], thing
        span = result.diagnostics[0].span
        assert (span.line, span.column, span.start, span.end) == (2, 1, len(head), len(head + flow)), thing
    assert parse(head + 'flow "odd thing": a.create -> a.release;').ok


def test_labels_may_carry_quotes():
    result = parse(
        "machine a { stage create; }\nregion r = { a };\n"
        'event E on r label "say \\"cheese\\" \\\\ now";'
    )
    assert result.ok, codes(result)
    assert result.document.events["E"].label == 'say "cheese" \\ now'



def test_labels_with_control_characters_are_rejected():
    for label in ("a\nb", "a\rb", "tab\there"):
        with pytest.raises(ValueError, match="control character"):
            tmkit.EventDecl("E", "r", 1, label)
    result = parse('machine a { stage create; }\nregion r = { a };\nevent E on r label "a\tb";')
    assert codes(result) == ["P5"]


def test_hyphenated_names_lex_against_arrows():
    result = parse(
        "machine go-cart { stage create; stage release; }\n"
        "flow: go-cart.create -> go-cart.release;"
    )
    assert result.ok
    # a->b must stay three tokens, not swallow the arrow
    result = parse(
        "machine a { stage create; }\nmachine b { stage transfer; }\n"
        "region r = { a };\nregion s = { b };\n"
        "event x on r;\nevent y on s;\n"
        "behavior { x->y; }"
    )
    assert result.ok


def test_comments_and_blank_input():
    assert parse("# nothing but a comment\n").ok
    assert parse("").ok
    assert parse("   \n\t  ").ok


def test_document_is_none_only_on_errors():
    result = parse(GOOD)
    assert result.ok and result.document is not None
    result = parse("machine a { stage create; } junk")
    assert not result.ok and result.document is None


def test_diagnostics_sorted_by_position():
    result = parse("flow x: a.b -> c.d;\nflow y: e.f -> g.h;")
    positions = [d.span.start for d in result.diagnostics if d.span]
    assert positions == sorted(positions)


def test_behavior_statement_forms():
    text = (
        "machine a { stage create; }\nmachine b { stage create; }\n"
        "machine c { stage create; }\n"
        "region ra = { a };\nregion rb = { b };\nregion rc = { c };\n"
        "event A on ra;\nevent B on rb;\nevent C on rc;\n"
        "behavior {\n"
        "  choice { A | B };\n"
        "  concurrent { B, C };\n"
        "  A -> choice { B | C };\n"
        "  A -> concurrent { B, C };\n"
        "  repeat C;\n"
        "  repeat C -> A bound 2;\n"
        "}"
    )
    result = parse(text)
    assert result.ok, codes(result)
    kinds = [(d.kind, d.source, d.targets, d.bound) for d in result.document.behavior]
    assert kinds == [
        ("choice", None, ("A", "B"), None),
        ("concurrent", None, ("B", "C"), None),
        ("choice", "A", ("B", "C"), None),
        ("concurrent", "A", ("B", "C"), None),
        ("repeat", "C", ("C",), None),
        ("repeat", "C", ("A",), 2),
    ]


def test_single_member_group_is_rejected():
    text = (
        "machine a { stage create; }\nregion ra = { a };\nevent A on ra;\n"
        "behavior { choice { A }; }"
    )
    assert "P2" in codes(parse(text))


def test_root_name_covers_everything_in_regions():
    result = parse(
        "machine a { stage create; }\nmachine b { stage receive; }\n"
        "region all = { world };"
    )
    assert result.ok
    assert result.document.regions["all"].stage_ids == ("a.create", "b.receive")


def test_generated_documents_reparse_identically():
    rng = random.Random(555)
    for _ in range(40):
        doc = make_random_document(rng)
        text = tmkit.format_document(doc)
        result = parse(text)
        assert result.ok, (text, codes(result))
        assert tmkit.format_document(result.document) == text


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_is_total_on_arbitrary_text(text):
    result = parse(text)
    assert result.document is not None or not result.ok


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=120))
def test_parse_is_total_on_arbitrary_bytes(blob):
    parse(blob.decode("latin-1"))


# -- path words --------------------------------------------------------------
#
# The lexer reads "a.b.c" as one path word, and the parser splits it back into
# names and '.' tokens where it reads a single name, keyword or number. Spacing
# the dots apart ("a . b . c") must therefore change nothing but offsets.

# Statements with a slot in every single-name, keyword and number position.
STATEMENTS = (
    "<machine> <name> { <stage> <kind>; <machine> <name> { <stage> <kind>; } }",
    "<flow> <name>: <path> -> <path>;",
    "flow: <path> -> <path>;",
    "trigger: <path> -> <path>;",
    "<storage> <name> <in> <path>;",
    "storage <name> in world;",  # the root holds no storages: a P4
    "<region> <name> = { <path>, <path> };",
    "<event> <name> <on> <name> <duration> <number> <label> <string>;",
    "<behavior> { <name> -> <name>; <repeat> <name> -> <name> <bound> <number>; }",
    "behavior { <name> -> <choice> { <name> | <name> }; <concurrent> { <name>, <name> }; }",
)
SLOTS = {
    "name": ("a", "b", "e", "r", "q", "a.b", "e.f", "r.s.t", '"q"', "x-y.z"),
    "kind": ("create", "release", "create.x", "a.create"),
    "path": ("a", "a.create", "a.b.release", "world", "world.a.create", '"a".create', '"a".b.release', "a.q", "b.create"),
    "number": ("2", "x.y", "2.x"),
    "string": ('"l"', "l.m"),
}
KEYWORDS = ("machine", "stage", "flow", "storage", "in", "region", "event", "on", "duration", "label",
            "behavior", "repeat", "bound", "choice", "concurrent")
PREFIX = (
    "machine a { stage create; machine b { stage create; stage release; } }\n"
    "flow: a.create -> a.b.create;\nregion r = { a };\nregion s = { a.b };\n"
    "event e on r;\nevent f on s;\n"
)
_SLOT = re.compile(r"<([a-z]+)>")


@st.composite
def path_word_texts(draw):
    """A few statements, each slot a plain word or a path word."""
    def fill(found):
        slot = found[1]
        if slot in KEYWORDS:
            return draw(st.sampled_from((slot, slot, f"{slot}.x")))
        return draw(st.sampled_from(SLOTS[slot]))

    statements = draw(st.lists(st.sampled_from(STATEMENTS), max_size=5))
    body = "\n".join(_SLOT.sub(fill, statement) for statement in statements)
    return (PREFIX if draw(st.booleans()) else "") + body


def spaced_dots(text: str):
    """`text` with a blank on either side of every '.' token that the reference
    lexer finds, and the maps of start and end offsets into it."""
    dots = [token.start for token in oracles.reference_lex(text)[0] if token.text == "."]
    spaced = text
    for dot in reversed(dots):
        spaced = spaced[:dot] + " . " + spaced[dot + 1 :]

    def start(offset: int) -> int:  # a dot's start moves past its new blank
        return offset + 2 * bisect_left(dots, offset) + (offset in dots)

    def end(offset: int) -> int:  # a dot's end stays before its new blank
        return offset + 2 * bisect_left(dots, offset) - (offset - 1 in dots)

    return spaced, start, end


def moved(span, text: str, start, end):
    """`span` in the spaced text."""
    if span is None:
        return None
    first = start(span.start)
    line, column = oracles.position(text, first)
    return dataclasses.replace(span, start=first, end=end(span.end), line=line, column=column)


def assert_dots_may_be_spaced(text: str) -> None:
    spaced, start, end = spaced_dots(text)
    before, after = load(text, "t.tm"), load(spaced, "t.tm")
    assert [dataclasses.replace(d, span=moved(d.span, spaced, start, end)) for d in before.diagnostics] == \
        after.diagnostics, text
    assert (before.document is None) == (after.document is None), text
    if before.document is not None:
        assert tmkit.format_document(before.document) == tmkit.format_document(after.document), text
        spans = before.document.spans
        assert {key: moved(span, spaced, start, end) for key, span in spans.items()} == after.document.spans
        assert [moved(d.span, spaced, start, end) for d in before.document.behavior] == \
            [d.span for d in after.document.behavior]


def counted_parse(text: str):
    """parse(text), and how often the parser split a path word."""
    with mock.patch.object(_Parser, "split_word", autospec=True, side_effect=_Parser.split_word) as split:
        result = parse(text)
    return result, split.call_count


def valid_texts() -> list[str]:
    rng = random.Random(1010)
    texts = [tmkit.corpus_text(name) for name in tmkit.corpus_names()]
    return texts + [tmkit.format_document(make_random_document(rng)) for _ in range(30)]


def test_spacing_dots_changes_nothing_on_corpus_and_generated_models():
    for text in valid_texts():
        assert "." in text
        assert_dots_may_be_spaced(text)
        result, splits = counted_parse(text)
        assert result.ok and splits == 0


@settings(max_examples=300, deadline=None)
@given(path_word_texts())
def test_spacing_dots_changes_nothing_in_any_position(text):
    assert_dots_may_be_spaced(text)
    result, splits = counted_parse(text)
    # A split is followed by a P2 at once; a file without errors needs none.
    assert splits <= sum(1 for d in result.diagnostics if d.code == "P2")
    if result.ok:
        assert splits == 0


def test_a_path_word_where_one_name_goes_is_split_at_its_dots():
    head = "machine a { stage create; }\n"
    for statement, column, message in (
        ("machine m.n { stage create; }", 10, "expected '{' to open the machine body"),
        ("machine m { stage create.x; }", 25, "expected ';' after the stage"),
        ("machine m { x.y; }", 13, "expected 'stage' or 'machine' inside a machine"),
        ("storage x in.a a;", 13, "expected a name for the owning machine"),
        ("region r.s = { a };", 9, "expected '=' after the region name"),
        ("event e on r duration x.y;", 23, "expected a number for the duration"),
        ("flow.x: a.create -> a.create;", 5, "expected a name for the flow thing"),
    ):
        result, splits = counted_parse(head + statement)
        rendered = [d.render() for d in result.diagnostics if d.code == "P2"]
        assert rendered == [f"<input>:2:{column}: error P2: {message}"], statement
        assert splits == 1, statement
    result = parse(head + 'region r = { "a".create, world.a };')
    assert result.ok and result.document.regions["r"].stage_ids == ("a.create",)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200) | path_word_texts())
def test_every_parsed_document_formats_to_a_fixed_point(text):
    document = parse(text).document
    if document is None:
        return
    formatted = tmkit.format_document(document)
    again = parse(formatted).document
    assert again is not None, (text, formatted)
    assert tmkit.model_digest(again.model) == tmkit.model_digest(document.model), text
    assert tmkit.format_document(again) == formatted, text


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200) | path_word_texts())
def test_load_is_total_on_arbitrary_text(text):
    loaded = load(text)
    assert loaded.document is not None or tmkit.has_errors(loaded.diagnostics)
