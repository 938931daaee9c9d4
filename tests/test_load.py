"""One failure channel: `load` reports every catalogued fault as a spanned
diagnostic, and `eventize` turns region and behavior faults into R1-R3/B1."""
from __future__ import annotations

import hashlib
import random
import re

import pytest

from tmkit import (
    CATALOGUE,
    Diagnostic,
    build_from_document,
    corpus_names,
    corpus_text,
    eventize,
    format_document,
    load,
    parse,
)
from tmkit.cli import main

# Behavior cycle without a repeat edge: B1 at the statement that closes it.
CYCLE = """\
machine a { stage create; stage release; }
flow: a.create -> a.release;
region r1 = { a.create };
region r2 = { a.release };
event A on r1;
event B on r2;
behavior { A -> B; B -> A; }
"""

# A region over a machine without stages is empty: R1.
STAGELESS = """\
machine a { stage create; }
machine b { machine c { } }
region r = { b };
event A on r;
"""

# The region takes the transfer but not the receive of one move: R3.
SPLIT = """\
machine a { stage create; stage release; stage transfer; stage receive; }
flow: a.create -> a.release;
flow: a.release -> a.transfer;
flow: a.transfer -> a.receive;
region r = { a.create, a.release, a.transfer };
event A on r;
"""

# The root machine holds no storages (nor stages): one P4 at the statement,
# and `tmkit parse --canonical` reports it instead of raising.
ROOT_STORAGE = """\
machine a { stage create; stage release; }
storage x in world;
flow: a.create -> a.release;
"""

# A minimal model for every catalogued code. A code missing here fails the
# suite: the catalogue may only hold codes something emits.
EMITTERS = {
    "P1": "machine a { stage create; } $",
    "P2": "machine { stage create; }",
    "P3": "machine a { stage create; }\nmachine a { stage create; }",
    "P4": "machine a { stage create; }\nflow: a.create -> b.create;",
    "P5": "machine world { stage create; }",
    "F1": "machine a { stage create; stage transfer; }\nflow: a.create -> a.transfer;",
    "F2": (
        "machine a { stage create; stage release; }\nmachine b { stage receive; }\n"
        "flow: a.create -> a.release;\nflow: a.release -> b.receive;"
    ),
    "T1": (
        "machine a { stage create; stage process; }\n"
        "flow: a.create -> a.process;\ntrigger: a.create -> a.process;"
    ),
    "M1": "machine a { stage receive; stage process; }\nflow: a.receive -> a.process;",
    "M2": "machine a { stage create; stage release; }\nflow: a.create -> a.release;",
    "R1": STAGELESS,
    "R2": (
        "machine a { stage create; stage transfer; }\n"
        "region r = { a.create, a.transfer };\nevent A on r;"
    ),
    "R3": SPLIT,
    "B1": CYCLE,
}


@pytest.mark.parametrize("code", [info.code for info in CATALOGUE])
def test_every_catalogued_code_is_emitted_with_a_span(code):
    loaded = load(EMITTERS[code], source="m.tm")
    assert code in {d.code for d in loaded.diagnostics}
    assert all(d.span is not None and d.span.file == "m.tm" for d in loaded.diagnostics)


def test_a_diagnostic_takes_its_severity_from_the_catalogue():
    for info in CATALOGUE:
        finding = Diagnostic(info.code, "message")
        assert finding.severity is info.severity
        assert finding.render() == f"{info.severity.value} {info.code}: message"
    with pytest.raises(KeyError):
        Diagnostic("Z9", "not catalogued")


def test_load_stops_after_the_first_stage_with_errors():
    unparsable = load(EMITTERS["P2"])
    assert unparsable.document is None and unparsable.graph is None
    ill_formed = load(EMITTERS["F1"] + "\nregion r = { a };\nevent A on r;")
    assert ill_formed.document is not None
    assert [d.code for d in ill_formed.diagnostics] == ["F1"]
    assert ill_formed.events == {} and ill_formed.graph is None


def test_load_of_a_clean_model_builds_everything():
    loaded = load(corpus_text("ball"), source="ball.tm")
    assert loaded.diagnostics == []
    assert set(loaded.events) == set(loaded.graph.events)
    assert loaded.coverage.overlap_stages() == ("seg2.receive", "seg2.transfer")


def test_check_findings_carry_the_span_of_their_subject():
    loaded = load(EMITTERS["M2"], source="m.tm")
    (finding,) = loaded.diagnostics
    assert (finding.subject, finding.span.line, finding.span.column) == ("a.release", 1, 33)


def test_eventize_spans_region_faults_at_the_event_declaration():
    events, graph, report, diagnostics = eventize(parse(SPLIT).document)
    (finding,) = diagnostics
    assert (finding.code, finding.subject) == ("R3", "A")
    assert (finding.span.line, finding.span.column) == (6, 7)
    assert events == {} and graph is None and report is None


def test_eventize_spans_b1_at_the_statement_closing_the_cycle():
    _, graph, _, diagnostics = eventize(parse(CYCLE).document)
    (finding,) = diagnostics
    assert finding.code == "B1" and "no repeat edge" in finding.message
    assert (finding.span.line, finding.span.column) == (7, 20)  # "B -> A;"
    assert graph is None


def test_a_storage_in_the_root_machine_is_one_p4(tmp_path, capsys):
    loaded = load(ROOT_STORAGE, source="m.tm")
    assert [d.render() for d in loaded.diagnostics] == [
        "m.tm:2:1: error P4: the root machine 'world' holds no storages"
    ]
    assert loaded.document is None
    path = tmp_path / "m.tm"
    path.write_text(ROOT_STORAGE, encoding="utf-8")
    assert main(["parse", str(path), "--canonical"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"{path}:2:1: error P4: the root machine 'world' holds no storages\n"


def test_build_from_document_raises_the_first_error():
    with pytest.raises(ValueError, match="R1"):
        build_from_document(parse(STAGELESS).document)
    with pytest.raises(ValueError, match="B1"):
        build_from_document(parse(CYCLE).document)


# A word of the text language: a quoted string, an arrow, one punctuation
# character, or a run of other characters. Blanks are kept as their own words.
_WORD = re.compile(r'"[^"\n]*"|->|[{};:,|=.]|[^\s{};:,|=."]+|\s+')

# Words a corruption may put in: keywords, reserved names, a name with a dot,
# out-of-range and zero numbers, punctuation, a stray character.
_FOREIGN_WORDS = (
    "world", "process", "machine", "stage", "storage", "region", "event", "repeat",
    "bound", "duration", "label", '"a.b"', '""', "0", "99999999999999999999",
    "{", "}", ";", ":", "->", ".", ",", "|", "=", "$",
)


_KEYWORDS = frozenset(
    "machine stage flow trigger storage in region event on duration label behavior"
    " choice concurrent repeat bound".split()
)


def corrupted(text: str, rng: random.Random) -> str:
    """`text`, its comments dropped, after one or two word edits: delete,
    repeat or swap a word, put in a foreign word, or (as often as all of
    those) put another name of the same text in place of one name or of
    every use of a name."""
    words = _WORD.findall(re.sub(r"#[^\n]*", "", text))
    spots = [at for at, word in enumerate(words) if not word.isspace()]
    name_spots = [at for at in spots if words[at][0].isalpha() and words[at] not in _KEYWORDS]
    names = sorted({words[at] for at in name_spots})
    for _ in range(rng.randrange(1, 3)):
        at = rng.choice(spots)
        edit = rng.randrange(8)
        if edit == 0:
            words[at] = ""
        elif edit == 1:
            words[at] = f"{words[at]} {words[at]}"
        elif edit == 2:
            other = rng.choice(spots)
            words[at], words[other] = words[other], words[at]
        elif edit == 3:
            words[at] = f" {rng.choice(_FOREIGN_WORDS)} "
        elif edit < 6:
            words[rng.choice(name_spots)] = rng.choice(names)
        else:  # rename everywhere, so that references may still resolve
            old, new = rng.choice(names), rng.choice((*names, "world", "process", "x-1"))
            words = [new if word == old else word for word in words]
    return "".join(words)


def front_end_inputs(mutants: int = 300, seed: int = 15) -> list[tuple[str, str]]:
    """(source, text) for the corpus models and `mutants` corrupted copies of them."""
    rng = random.Random(seed)
    names = corpus_names()
    inputs = [(f"{name}.tm", corpus_text(name)) for name in names]
    for index in range(mutants):
        name = names[index % len(names)]
        inputs.append((f"{name}-{index}.tm", corrupted(corpus_text(name), rng)))
    return inputs


# Recorded before the parser's recovery loops and the linker's refusal table
# were each folded into one place; the corpus and 29 of the mutants parse.
ACCEPTED = 32
DIAGNOSTICS_DIGEST = "0c6c62b49c7938c6f3ad68e943b5d9e71526367d5e99ce8ebf8fcf359e72b2f6"
CANONICAL_DIGEST = "b731cdaecd94e1cdb7d77b05859e483c9209d48ae63463df620808facde0e4de"


def test_front_end_output_matches_its_golden_digest():
    """The rendered `parse` and `load` diagnostics and the canonical text of
    every document that parses, hashed over the corpus and 300 corrupted
    copies. A change to any diagnostic field, span or canonical byte moves a
    digest; one that changes neither keeps both."""
    diagnostics = hashlib.sha256()
    canonical = hashlib.sha256()
    accepted = 0
    for source, text in front_end_inputs():
        result = parse(text, source)
        rendered = [d.render() for d in result.diagnostics]
        rendered += ["--", *(d.render() for d in load(text, source).diagnostics), ""]
        diagnostics.update("\n".join([source, *rendered]).encode("utf-8"))
        if result.document is not None:
            accepted += 1
            canonical.update(f"{source}\n{format_document(result.document)}".encode("utf-8"))
    assert accepted == ACCEPTED
    assert diagnostics.hexdigest() == DIAGNOSTICS_DIGEST
    assert canonical.hexdigest() == CANONICAL_DIGEST
