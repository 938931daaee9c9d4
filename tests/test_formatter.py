"""Canonical emission: stable ordering, faithful quoting, fixed-point text."""
from __future__ import annotations

from hypothesis import given, settings, strategies as st

import tmkit
from tmkit import format_document, parse
from tmkit.model import InvalidNameError


def canon(text: str) -> str:
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    return format_document(result.document)


def test_empty_document_formats_to_nothing():
    assert canon("") == ""
    assert canon("# only a comment") == ""


def test_an_empty_region_formats_to_text_that_parses():
    # A region over stageless machines has no stage to write: its member list
    # comes out empty, which the grammar takes. Its event is still an R1.
    for text in ("region r = { world };", "machine b { machine c { } }\nregion r = { b };\nevent E on r;"):
        formatted = canon(text)
        assert "region r = {  };" in formatted
        assert canon(formatted) == formatted
    assert [d.code for d in tmkit.load(canon(text)).diagnostics] == ["R1"]


def test_sections_come_out_sorted_and_spaced():
    text = canon(
        "flow: b.transfer -> b.receive;\n"
        "machine b { stage receive; stage transfer; }\n"
        "machine a { stage create; }\n"
        "storage vat in a;\n"
        "trigger: a.create -> b.transfer;\n"
        "region r = { a };\n"
        "event E on r duration 2 label \"go\";\n"
        "behavior { repeat E bound 2; }"
    )
    assert text == (
        "machine a {\n"
        "  stage create;\n"
        "}\n"
        "\n"
        "machine b {\n"
        "  stage transfer;\n"
        "  stage receive;\n"
        "}\n"
        "\n"
        "storage vat in a;\n"
        "\n"
        "flow: b.transfer -> b.receive;\n"
        "\n"
        "trigger: a.create -> b.transfer;\n"
        "\n"
        "region r = { a.create };\n"
        "\n"
        "event E on r duration 2 label \"go\";\n"
        "\n"
        "behavior {\n"
        "  repeat E bound 2;\n"
        "}\n"
    )


def test_quoting_rules():
    text = canon(
        'machine "odd name" { stage create; }\n'
        'machine plain { stage create; }\n'
        'machine "choice" { stage create; }\n'
    )
    assert 'machine "odd name" {' in text
    assert "machine plain {" in text
    # a name that collides with a keyword is always quoted
    assert 'machine "choice" {' in text


def test_default_duration_and_missing_label_are_omitted():
    text = canon(
        "machine a { stage create; }\nregion r = { a };\nevent E on r;"
    )
    assert "event E on r;" in text
    assert "duration" not in text and "label" not in text


def test_corpus_is_a_formatting_fixed_point_after_one_pass(corpus):
    for name, document in corpus.items():
        once = format_document(document)
        again = format_document(parse(once).document)
        assert once == again, name


_name_chars = st.characters(
    blacklist_categories=("Cs", "Cc", "Cf"),
    blacklist_characters='."',
)


def _valid_name(text: str) -> bool:
    try:
        tmkit.StaticModel().add_machine(text)
    except InvalidNameError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=_name_chars, min_size=1, max_size=24).filter(_valid_name))
def test_any_legal_name_survives_a_round_trip(name):
    model = tmkit.StaticModel()
    model.add_machine(name)
    model.add_stage(name, tmkit.ActionKind.CREATE)
    document = tmkit.document_from_parts(model)
    text = format_document(document)
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    assert name in result.document.model.machines
    assert format_document(result.document) == text
