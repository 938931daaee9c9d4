"""Carving events out of the static model and wiring the behavior graph."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import (
    ActionKind,
    BehaviorDecl,
    BehaviorEdgeKind,
    BehaviorError,
    EventError,
    StaticModel,
    build_behavior,
    build_from_document,
    coverage,
    define_event,
    overlap,
    parse,
)

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


def test_event_carries_region_duration_label():
    model = chain_model()
    event = define_event(model, "Ego", ["a.create", "a.release"], duration=3, label="go")
    assert event.duration == 3
    assert event.label == "go"
    assert event.region.stages == {"a.create", "a.release"}
    assert event.region.connected


def test_event_rejects_empty_region():
    with pytest.raises(EventError):
        define_event(chain_model(), "Enone", [])


def test_event_rejects_split_handoff():
    with pytest.raises(EventError):
        define_event(chain_model(), "Esplit", ["a.transfer", "b.transfer"])


def test_event_allows_disconnected_region():
    event = define_event(chain_model(), "Escatter", ["a.create", "a.transfer"])
    assert not event.region.connected


def test_event_duration_must_be_positive():
    with pytest.raises(EventError):
        define_event(chain_model(), "Ezero", ["a.create"], duration=0)
    for duration in (2.5, True):  # a whole number of ticks, and not a bool
        with pytest.raises(EventError, match="must be an integer") as caught:
            define_event(chain_model(), "Eodd", ["a.create"], duration=duration)
        assert [d.code for d in caught.value.findings] == ["P5"]


def two_events():
    model = chain_model()
    first = define_event(model, "First", ["a.create", "a.release"])
    second = define_event(model, "Second", ["a.release", "a.transfer"])
    return model, first, second


def test_overlap_is_the_shared_induced_region():
    _, first, second = two_events()
    region = overlap(first, second)
    assert region is not None and region.stages == {"a.release"}


def test_overlap_none_when_disjoint():
    model = chain_model()
    first = define_event(model, "First", ["a.create"])
    second = define_event(model, "Second", ["a.transfer"])
    assert overlap(first, second) is None


def test_overlap_requires_one_model():
    _, first, _ = two_events()
    other = define_event(chain_model(), "Other", ["a.create"])
    with pytest.raises(EventError):
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
        name: define_event(model, name, stages)
        for name, stages in [
            ("A", ["a.create"]),
            ("B", ["a.release"]),
            ("C", ["a.transfer"]),
            ("D", ["b.transfer", "b.receive"]),
        ]
    }
    graph = build_behavior(
        events,
        [
            BehaviorDecl("seq", "A", ("B",)),
            BehaviorDecl("choice", "B", ("C", "D")),
            BehaviorDecl("repeat", "D", ("A",), 4),
        ],
    )
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


def test_behavior_rejects_unknown_event():
    model = chain_model()
    events = {"A": define_event(model, "A", ["a.create"])}
    with pytest.raises(BehaviorError):
        build_behavior(events, [BehaviorDecl("seq", "A", ("Ghost",))])


def test_behavior_rejects_plain_cycle():
    model = chain_model()
    events = {
        "A": define_event(model, "A", ["a.create"]),
        "B": define_event(model, "B", ["a.release"]),
    }
    with pytest.raises(BehaviorError):
        build_behavior(
            events,
            [BehaviorDecl("seq", "A", ("B",)), BehaviorDecl("seq", "B", ("A",))],
        )


def test_behavior_allows_cycle_through_repeat():
    model = chain_model()
    events = {
        "A": define_event(model, "A", ["a.create"]),
        "B": define_event(model, "B", ["a.release"]),
    }
    graph = build_behavior(
        events,
        [BehaviorDecl("seq", "A", ("B",)), BehaviorDecl("repeat", "B", ("A",))],
    )
    assert graph.initial == {"A"}
    assert graph.terminal == frozenset()


def test_behavior_needs_an_entry_point():
    model = chain_model()
    events = {
        "A": define_event(model, "A", ["a.create"]),
        "B": define_event(model, "B", ["a.release"]),
    }
    with pytest.raises(BehaviorError):
        build_behavior(
            events,
            [
                BehaviorDecl("choice", None, ("A", "B")),
                BehaviorDecl("seq", "B", ("A",)),
                BehaviorDecl("seq", "A", ("B",)),
            ],
        )


def test_build_from_document_end_to_end():
    text = (
        "machine a { stage create; stage release; }\n"
        "flow: a.create -> a.release;\n"
        "region r1 = { a.create };\nregion r2 = { a.release };\n"
        "event X on r1;\nevent Y on r2 duration 2;\n"
        "behavior { X -> Y; }"
    )
    document = parse(text).document
    events, graph, report = build_from_document(document)
    assert set(events) == {"X", "Y"}
    assert graph.initial == {"X"} and graph.terminal == {"Y"}
    assert report.uncovered == ()
    assert report.overlaps == ()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_indexes_equal_their_edge_scan_definitions(seed, max_events):
    graph = make_random_behavior(random.Random(seed), max_events=max_events)
    for name in graph.events:
        assert graph.out_edges(name) == oracles.scan_out_edges(graph, name)
        assert graph.predecessors(name) == oracles.scan_predecessors(graph, name)
        assert graph.sorted_predecessors(name) == tuple(sorted(oracles.scan_predecessors(graph, name)))
        assert graph.reachable_events(name) == oracles.scan_reachable(graph, name)
    for group in graph.groups:
        assert graph.group(group.group_id) is group
    assert graph.out_edges("no such event") == ()
    assert graph.predecessors("no such event") == frozenset()
