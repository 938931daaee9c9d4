"""The regex lexer: positions derived from offsets, and the same tokens and P1
findings as the per-character reference lexer in oracles.py.

`_lex` gives words and start offsets only, with identifiers joined by dots
as one path word; `lex` below splits path words back into identifier and '.'
tokens and rebuilds the reference lexer's tokens, so the two are still
compared field by field."""
from __future__ import annotations

import importlib
import pkgutil
import random
import re

from hypothesis import given, settings, strategies as st

import tmkit
from tmkit import parse
from tmkit.dsl import _TOKEN_RE, _Parser, _Text, _lex, _number, _string_value

import oracles
from conftest import make_random_document

# Every character class the lexer distinguishes, plus look-alikes it must not
# accept: non-ASCII letters and digits, and controls.
ALPHABET = "aZ_q09-{};:,|=.>\"\\# \t\r\f\v\n\x00é٣ß"

FRAGMENTS = (
    "machine", "stage", "flow", "event", "a-b", "a--b", "x-", "-", "->", "-x", "7",
    "12ab", '"', '"x"', '"a\\"b"', '"\\\\"', '"\\q"', '"\\', "\\", '"\\\n', "# note",
    "#", "\n", " ", "\t", "\r\n", "{", "}", ";", ".", "é", "\x7f",
    "9223372036854775807", "9223372036854775808", "000" + "9" * 19, "1" * 40,
)


def lex(text: str, source: str = "t.tm") -> tuple[list[oracles.Token], list]:
    """_lex's tokens as the reference lexer's: the kind from the first character,
    the value as the parser reads it, the line and column from _Text.span."""
    src = _Text(text, source)
    words, starts, diagnostics = _lex(src)
    pieces = []
    for word, start in zip(words, starts):
        if "." in word and (word[0].isalpha() or word[0] == "_"):  # a path word
            for index, name in enumerate(word.split(".")):
                if index:
                    pieces.append((".", start - 1))
                pieces.append((name, start))
                start += len(name) + 1
        else:
            pieces.append((word, start))
    tokens = []
    for word, start in pieces:
        span = src.span(start, start + len(word))
        first = word[:1]
        if not word:
            kind, value = "eof", None
        elif first == '"':
            kind, value = "string", _string_value(word)
        elif first.isdigit():
            kind, value = "int", _number(word)
        elif first.isalpha() or first == "_":
            kind, value = "ident", word
        else:
            kind, value = "punct", word
        tokens.append(oracles.Token(kind, word, value, span.start, span.end, span.line, span.column))
    return tokens, diagnostics


def assert_positions(text: str, tokens, diagnostics) -> None:
    for item in [*tokens, *(d.span for d in diagnostics)]:
        assert (item.line, item.column) == oracles.position(text, item.start), (text, item)
        assert item.start <= item.end <= len(text), (text, item)


def assert_same_as_reference(text: str) -> None:
    tokens, diagnostics = lex(text)
    assert (tokens, diagnostics) == oracles.reference_lex(text, "t.tm")
    assert_positions(text, tokens, diagnostics)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=120))
def test_lexers_agree_on_dsl_alphabet(text):
    assert_same_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30))
def test_lexers_agree_on_token_fragments(fragments):
    assert_same_as_reference("".join(fragments))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_lexers_agree_on_arbitrary_text(text):
    assert_same_as_reference(text)


def test_lexers_agree_on_corpus_and_generated_models():
    texts = [tmkit.corpus_text(name) for name in tmkit.corpus_names()]
    rng = random.Random(8080)
    texts += [tmkit.format_document(make_random_document(rng)) for _ in range(40)]
    for text in texts:
        assert_same_as_reference(text)
        # Cut anywhere: unterminated strings, trailing comments, half tokens.
        for cut in rng.sample(range(len(text)), 10):
            assert_same_as_reference(text[:cut])
            assert_same_as_reference(text[:cut] + "\\" + text[cut:])


def parse_spans(text: str) -> list:
    """Every SourceSpan that parsing and loading `text` make: the parser's own
    items (region members included), the diagnostics of every stage, and the
    document's spans, events and behavior statements."""
    src = _Text(text, "t.tm")
    parser = _Parser(src, *_lex(src)[:2])
    parser.parse_document()
    spans = [args[-1] for args in (*parser.flows, *parser.triggers, *parser.storages)]
    spans += [decl.span for decl in parser.behavior]
    machines = list(parser.machines)
    while machines:
        _, name_span, stages, children = machines.pop()
        spans += [name_span, *(span for _, span in stages)]
        machines += children
    for _, name_span, members in parser.regions:
        spans += [name_span, *(span for _, span in members)]
    spans += [event.span for event in parser.events]
    result = parse(text, "t.tm")
    spans += [d.span for d in [*result.diagnostics, *tmkit.load(text, "t.tm").diagnostics] if d.span]
    if result.document is not None:
        spans += result.document.spans.values()
        spans += [decl.span for decl in (*result.document.events.values(), *result.document.behavior)]
    return spans


def assert_spans_placed(text: str) -> None:
    for span in parse_spans(text):
        assert span.file == "t.tm"
        assert (span.line, span.column) == oracles.position(text, span.start), (text, span)
        assert span.start <= span.end <= len(text), (text, span)


def test_every_span_of_the_corpus_and_generated_models_is_placed():
    rng = random.Random(9090)
    texts = [tmkit.corpus_text(name) for name in tmkit.corpus_names()]
    texts += [tmkit.format_document(make_random_document(rng)) for _ in range(20)]
    for text in texts:
        assert len(parse_spans(text)) > 1
        assert_spans_placed(text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(FRAGMENTS), max_size=4))
def test_every_span_of_a_cut_or_corrupted_model_is_placed(seed, junk):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        text = tmkit.corpus_text(rng.choice(tmkit.corpus_names()))
    else:
        text = tmkit.format_document(make_random_document(rng))
    for fragment in junk:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + fragment + text[at + rng.randrange(4):]
    assert_spans_placed(text[: rng.randrange(len(text) + 1)] if rng.random() < 0.3 else text)


def test_escaped_newline_in_a_string_counts_as_a_line():
    text = 'machine a { stage create; }\nregion r = { a };\n\nevent e on "x\\\n" ;\nmachine b { stage bogus; }\n'
    rendered = [d.render() for d in parse(text, "f").diagnostics]
    assert "f:4:14: error P1: unknown escape in string" in rendered
    assert "f:6:19: error P2: unknown stage kind 'bogus'" in rendered
    # A second bad escape, after the escaped newline, is placed on the next line.
    text = 'x "a\\\nbc\\q" y'
    assert [(d.span.line, d.span.column) for d in lex(text, "f")[1]] == [(1, 5), (2, 3)]
    assert_same_as_reference(text)


def test_end_of_input_after_a_trailing_comment():
    text = "machine a { stage create;\n  # trailing"
    eof = lex(text, "f")[0][-1]
    assert (eof.kind, eof.line, eof.column) == ("eof", 2, 13)
    assert [d.render() for d in parse(text, "f").diagnostics] == [
        "f:2:13: error P2: expected '}' to close the machine body"
    ]


def test_backslash_at_the_end_stays_inside_the_text():
    text = 'machine "ab\\'
    _, diagnostics = lex(text, "f")
    assert [(d.message, d.span.start, d.span.end) for d in diagnostics] == [
        ("unknown escape in string", 11, 12),
        ("unterminated string", 8, 12),
    ]


def _opcodes(node, parser):
    if isinstance(node, parser.SubPattern):
        for op, argument in node.data:
            yield str(op)
            yield from _opcodes(argument, parser)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item, parser)


def test_patterns_use_no_syntax_newer_than_python_3_10():
    # The package supports Python 3.10, where atomic groups and possessive
    # quantifiers do not exist: a pattern with one fails to compile on import.
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
    patterns = []
    for module in pkgutil.iter_modules(tmkit.__path__):
        namespace = vars(importlib.import_module(f"tmkit.{module.name}"))
        patterns += [value for value in namespace.values() if isinstance(value, re.Pattern)]
    assert _TOKEN_RE in patterns
    for pattern in patterns:
        found = set(_opcodes(parser.parse(pattern.pattern, pattern.flags), parser))
        assert not found & {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}, pattern.pattern
