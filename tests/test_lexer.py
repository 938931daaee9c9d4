"""The regex lexer: positions derived from offsets, and the same tokens and P1
findings as the per-character reference lexer in oracles.py."""
from __future__ import annotations

import importlib
import pkgutil
import random
import re

from hypothesis import given, settings, strategies as st

import tmkit
from tmkit import parse
from tmkit.dsl import _TOKEN_RE, _lex

import oracles
from conftest import make_random_document

# Every character class the lexer distinguishes, plus look-alikes it must not
# accept: non-ASCII letters and digits, and controls.
ALPHABET = "aZ_q09-{};:,|=.>\"\\# \t\r\f\v\n\x00é٣ß"

FRAGMENTS = (
    "machine", "stage", "flow", "event", "a-b", "a--b", "x-", "-", "->", "-x", "7",
    "12ab", '"', '"x"', '"a\\"b"', '"\\\\"', '"\\q"', '"\\', "\\", '"\\\n', "# note",
    "#", "\n", " ", "\t", "\r\n", "{", "}", ";", ".", "é", "\x7f",
)


def assert_positions(text: str, tokens, diagnostics) -> None:
    for item in [*tokens, *(d.span for d in diagnostics)]:
        assert (item.line, item.column) == oracles.position(text, item.start), (text, item)
        assert item.start <= item.end <= len(text), (text, item)


def assert_same_as_reference(text: str) -> None:
    tokens, diagnostics = _lex(text, "t.tm")
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


def test_escaped_newline_in_a_string_counts_as_a_line():
    text = 'machine a { stage create; }\nregion r = { a };\n\nevent e on "x\\\n" ;\nmachine b { stage bogus; }\n'
    rendered = [d.render() for d in parse(text, "f").diagnostics]
    assert "f:4:14: error P1: unknown escape in string" in rendered
    assert "f:6:19: error P2: unknown stage kind 'bogus'" in rendered
    # A second bad escape, after the escaped newline, is placed on the next line.
    text = 'x "a\\\nbc\\q" y'
    assert [(d.span.line, d.span.column) for d in _lex(text, "f")[1]] == [(1, 5), (2, 3)]
    assert_same_as_reference(text)


def test_end_of_input_after_a_trailing_comment():
    text = "machine a { stage create;\n  # trailing"
    eof = _lex(text, "f")[0][-1]
    assert (eof.kind, eof.line, eof.column) == ("eof", 2, 13)
    assert [d.render() for d in parse(text, "f").diagnostics] == [
        "f:2:13: error P2: expected '}' to close the machine body"
    ]


def test_backslash_at_the_end_stays_inside_the_text():
    text = 'machine "ab\\'
    _, diagnostics = _lex(text, "f")
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
