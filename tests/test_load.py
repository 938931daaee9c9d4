"""One failure channel: `load` reports every catalogued fault as a spanned
diagnostic, and `eventize` turns region and behavior faults into R1-R3/B1."""
from __future__ import annotations

import pytest

from tmkit import (
    CATALOGUE,
    build_from_document,
    corpus_text,
    eventize,
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
