"""Carving events out of the static model and wiring the behavior graph."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import (
    ActionKind,
    BehaviorDecl,
    BehaviorEdgeKind,
    EventDecl,
    SourceSpan,
    StaticModel,
    build_behavior,
    coverage,
    define_event,
    eventize,
    has_errors,
    overlap,
    parse,
)

from tmkit.dsl import MAX_NUMBER

import oracles
from conftest import make_random_behavior


def chain_model() -> StaticModel:
    model = StaticModel()
    a = model.add_machine("a")
    b = model.add_machine("b")
    for kind in (ActionKind.CREATE, ActionKind.RELEASE, ActionKind.TRANSFER):
        model.add_stage(a, kind)
    for kind in (ActionKind.TRANSFER, ActionKind.RECEIVE):
        model.add_stage(b, kind)
    model.add_flow("a.create", "a.release")
    model.add_flow("a.release", "a.transfer")
    model.add_flow("a.transfer", "b.transfer")
    model.add_flow("b.transfer", "b.receive")
    model.freeze()
    return model


def findings_of(findings):
    return [(d.code, d.subject, d.message) for d in findings]


def define(model, name, stage_ids):
    """An event define_event finds nothing to say about."""
    event, findings = define_event(model, name, stage_ids)
    assert findings == []
    return event


def test_event_carries_region_duration_label():
    model = chain_model()
    event, findings = define_event(model, "Ego", ["a.create", "a.release"], duration=3, label="go")
    assert findings == []
    assert event.duration == 3
    assert event.label == "go"
    assert event.region.stages == {"a.create", "a.release"}
    assert event.region.connected


def test_event_rejects_empty_region():
    event, findings = define_event(chain_model(), "Enone", [])
    assert event is None
    assert findings_of(findings) == [("R1", "Enone", "region has no stages")]


def test_event_rejects_split_handoff():
    event, findings = define_event(chain_model(), "Esplit", ["a.transfer", "b.transfer"])
    assert event is None
    assert findings_of(findings) == [
        ("R3", "Esplit", "region splits the atomic move b.transfer -> b.receive")
    ]


def test_event_allows_disconnected_region():
    event, findings = define_event(chain_model(), "Escatter", ["a.create", "a.transfer"])
    assert not event.region.connected
    assert findings_of(findings) == [("R2", "Escatter", "region is not weakly connected")]
    assert not findings[0].is_error


def test_event_duration_must_be_positive():
    event, findings = define_event(chain_model(), "Ezero", ["a.create"], duration=0)
    assert event is None
    assert findings_of(findings) == [("P5", "Ezero", "duration must be >= 1, got 0")]
    for duration in (2.5, True):  # a whole number of ticks, and not a bool
        event, findings = define_event(chain_model(), "Eodd", ["a.create"], duration=duration)
        assert event is None
        assert findings_of(findings) == [
            ("P5", "Eodd", f"duration must be an integer, got {duration!r}")
        ]
    # the upper bound is EventDecl's, so the API and the text form agree
    event, findings = define_event(chain_model(), "Ehuge", ["a.create"], duration=MAX_NUMBER + 1)
    assert event is None
    assert findings_of(findings) == [
        ("P5", "Ehuge", f"duration must be <= {MAX_NUMBER}, got {MAX_NUMBER + 1}")
    ]
    with pytest.raises(ValueError, match=f"duration must be <= {MAX_NUMBER}"):
        EventDecl("Ehuge", "r", MAX_NUMBER + 1)
    event, findings = define_event(chain_model(), "Elong", ["a.create"], duration=MAX_NUMBER)
    assert event is not None and event.duration == MAX_NUMBER and not has_errors(findings)


def two_events():
    model = chain_model()
    first = define(model, "First", ["a.create", "a.release"])
    second = define(model, "Second", ["a.release", "a.transfer"])
    return model, first, second


def test_overlap_is_the_shared_induced_region():
    _, first, second = two_events()
    region = overlap(first, second)
    assert region is not None and region.stages == {"a.release"}


def test_overlap_none_when_disjoint():
    model = chain_model()
    first = define(model, "First", ["a.create"])
    second = define(model, "Second", ["a.transfer"])
    assert overlap(first, second) is None


def test_overlap_requires_one_model():
    _, first, _ = two_events()
    other = define(chain_model(), "Other", ["a.create"])
    with pytest.raises(ValueError, match="different models"):
        overlap(first, other)


def test_coverage_reports_uncovered_and_shared():
    model, first, second = two_events()
    report = coverage({"First": first, "Second": second}, model)
    assert report.uncovered == ("b.receive", "b.transfer")
    assert report.overlaps == (("a.release", ("First", "Second")),)
    assert report.overlap_stages() == ("a.release",)


def test_behavior_edges_groups_roles():
    model = chain_model()
    events = {
        name: define(model, name, stages)
        for name, stages in [
            ("A", ["a.create"]),
            ("B", ["a.release"]),
            ("C", ["a.transfer"]),
            ("D", ["b.transfer", "b.receive"]),
        ]
    }
    graph, findings = build_behavior(
        events,
        [
            BehaviorDecl("seq", "A", ("B",)),
            BehaviorDecl("choice", "B", ("C", "D")),
            BehaviorDecl("repeat", "D", ("A",), 4),
        ],
    )
    assert findings == []
    assert graph.initial == {"A"}
    assert graph.terminal == {"C"}
    assert [e.kind for e in graph.edges] == [
        BehaviorEdgeKind.SEQUENCE,
        BehaviorEdgeKind.CHOICE,
        BehaviorEdgeKind.CHOICE,
        BehaviorEdgeKind.REPEAT,
    ]
    assert graph.groups[0].group_id == "c1"
    assert graph.groups[0].members == ("C", "D")
    assert graph.out_edges("B")[0].group == "c1"
    assert graph.predecessors("B") == frozenset({"A"})
    assert graph.reachable_events("B") == frozenset({"A", "B", "C", "D"})
    with pytest.raises(ValueError, match="unknown event 'Ghost'"):
        graph.reachable_events("Ghost")


def two_step_events():
    model = chain_model()
    return {"A": define(model, "A", ["a.create"]), "B": define(model, "B", ["a.release"])}


def only_b1(events, decls):
    """The one B1 build_behavior returns for decls, with no graph."""
    graph, findings = build_behavior(events, decls)
    assert graph is None
    (finding,) = findings
    assert finding.code == "B1" and finding.is_error and finding.subject is None
    return finding


def test_behavior_rejects_unknown_event():
    model = chain_model()
    events = {"A": define(model, "A", ["a.create"])}
    finding = only_b1(events, [BehaviorDecl("seq", "A", ("Ghost",))])
    assert finding.message == "behavior references unknown event 'Ghost'"


def test_behavior_rejects_plain_cycle():
    finding = only_b1(
        two_step_events(),
        [BehaviorDecl("seq", "A", ("B",)), BehaviorDecl("seq", "B", ("A",))],
    )
    assert finding.message == "cycle through 'A' has no repeat edge; annotate it with 'repeat'"


def test_behavior_allows_cycle_through_repeat():
    graph, findings = build_behavior(
        two_step_events(),
        [BehaviorDecl("seq", "A", ("B",)), BehaviorDecl("repeat", "B", ("A",))],
    )
    assert findings == []
    assert graph.initial == {"A"}
    assert graph.terminal == frozenset()


def test_behavior_needs_an_entry_point():
    finding = only_b1(
        two_step_events(),
        [
            BehaviorDecl("choice", None, ("A", "B")),
            BehaviorDecl("seq", "B", ("A",)),
            BehaviorDecl("seq", "A", ("B",)),
        ],
    )
    assert "has no repeat edge" in finding.message


def span_at(line):
    return SourceSpan("b.tm", 20 * line, 20 * line + 9, line, 3)


@pytest.mark.parametrize(
    "fault, message",
    [
        (BehaviorDecl("seq", "B", ("Ghost",)), "behavior references unknown event 'Ghost'"),
        (BehaviorDecl("choice", None, ("A", None)), "behavior references unknown event None"),
        (
            BehaviorDecl("seq", "B", ("A",)),
            "cycle through 'A' has no repeat edge; annotate it with 'repeat'",
        ),
    ],
    ids=["unknown-event", "none-event", "cycle"],
)
def test_each_b1_is_spanned_at_the_statement_at_fault(fault, message):
    decls = [
        BehaviorDecl("seq", "A", ("B",), span=span_at(1)),
        replace(fault, span=span_at(2)),
        BehaviorDecl("repeat", "B", ("A",), 2, span=span_at(3)),
    ]
    finding = only_b1(two_step_events(), decls)
    assert finding.message == message
    assert finding.span == span_at(2)


@pytest.mark.parametrize(
    "fields, message",
    [
        (("repeat", "B", ("A",), 0), "repeat bound must be >= 1"),
        (("repeat", "B", ("A",), 2**63), "repeat bound must be <= 9223372036854775807"),
        (("repeat", "B", ("A",), True), "repeat bound must be an integer, got True"),
        (("seq", "B", ("A",), 2), "only a repeat may have a bound, not a seq"),
        (("seq", "B", ()), "a seq statement must have a source and exactly one target"),
        (("seq", "B", ("A", "B")), "a seq statement must have a source and exactly one target"),
        (("seq", None, ("A",)), "a seq statement must have a source and exactly one target"),
        (("repeat", "B", ("A", "B")), "a repeat statement must have a source and exactly one target"),
        (("choice", "B", ("A",)), "a choice group needs at least two events"),
        (("concurrent", None, ("A",)), "a concurrent group needs at least two events"),
        (("loop", "B", ("A",)), "unknown behavior statement kind 'loop'"),
    ],
    ids=[
        "bound", "bound-too-large", "bound-bool", "bound-on-seq", "seq-no-target", "seq-two-targets",
        "seq-no-source", "repeat-two-targets", "choice", "concurrent", "kind",
    ],
)
def test_behavior_decl_refuses_a_statement_the_text_cannot_hold(fields, message):
    # Refused where it is made, so no document, parsed or built, holds one.
    with pytest.raises(ValueError) as raised:
        BehaviorDecl(*fields)
    assert str(raised.value) == message


def test_eventize_end_to_end():
    text = (
        "machine a { stage create; stage release; }\n"
        "flow: a.create -> a.release;\n"
        "region r1 = { a.create };\nregion r2 = { a.release };\n"
        "event X on r1;\nevent Y on r2 duration 2;\n"
        "behavior { X -> Y; }"
    )
    document = parse(text).document
    events, graph, report, diagnostics = eventize(document)
    assert diagnostics == []
    assert set(events) == {"X", "Y"}
    assert graph.initial == {"X"} and graph.terminal == {"Y"}
    assert report.uncovered == ()
    assert report.overlaps == ()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_indexes_equal_their_edge_scan_definitions(seed, max_events):
    graph = make_random_behavior(random.Random(seed), max_events=max_events, start_groups=True)
    for name in (*graph.events, None):  # None: the start, whose edges are the start groups'
        assert graph.out_edges(name) == oracles.scan_out_edges(graph, name)
    for name in graph.events:
        assert graph.predecessors(name) == oracles.scan_predecessors(graph, name)
        assert graph.reachable_events(name) == oracles.scan_reachable(graph, name)
    assert graph.out_edges("no such event") == ()
    assert graph.predecessors("no such event") == frozenset()
