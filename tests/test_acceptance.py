"""Acceptance suite: the eight headline guarantees, one test line each.

Numbers asserted here were derived by hand or by the independent oracles in
oracles.py before the implementation ran, then frozen.
"""
from __future__ import annotations

import random
import time
from functools import lru_cache

import tmkit
from tmkit import (
    BehaviorEdgeKind,
    FirstDeclared,
    Scripted,
    check_model,
    check_region,
    eventize,
    has_errors,
    overlap,
    parse,
    race_report,
    run,
    trace_to_json,
)

import oracles
from conftest import (
    make_random_behavior,
    make_random_document,
    make_random_model,
    make_random_policy,
)

EATING_LABELS = {
    "E1": "The mouth receives the food",
    "E2": "The mouth generates saliva",
    "E3": "The mouth mixes the food and the created saliva",
    "E4": "A mouth generates a blend of food and saliva",
    "E5": "The tongue manipulates the blended matter",
    "E6": "The teeth crush the blended matter",
}


def test_acceptance_01_chewing_pipeline_clean_labeled_ordered_fast():
    started = time.perf_counter()
    result = parse(tmkit.corpus_text("eating"), source="eating.tm")
    assert result.ok and result.diagnostics == []
    document = result.document
    findings = check_model(document.model)
    assert not has_errors(findings)
    events, graph, _, found = eventize(document)
    elapsed = time.perf_counter() - started
    assert not has_errors(found)

    assert len(events) == 6
    assert {name: event.label for name, event in events.items()} == EATING_LABELS

    sequence = {
        (e.source, e.target)
        for e in graph.edges
        if e.kind is BehaviorEdgeKind.SEQUENCE
    }
    assert graph.initial == {"E1", "E2"}  # both feeders precede the mixing
    assert {("E1", "E3"), ("E2", "E3")} <= sequence
    assert {("E3", "E4"), ("E4", "E5"), ("E5", "E6")} <= sequence
    assert elapsed < 1.0


def test_acceptance_02_rescue_race_outcome_and_margin():
    document = parse(tmkit.corpus_text("disaster"), source="disaster.tm").document
    assert document is not None
    assert not has_errors(check_model(document.model))

    triggers = {(t.src, t.dst) for t in document.model.triggers.values()}
    assert triggers == {
        ("room2.process", "room2.explosion.create"),
        ("room2.explosion.create", "room2.fire.create"),
        ("room2.fire.create", "room1.robot.create"),
    }

    _, graph, _, _ = eventize(document)
    forks = {g.group_id: g for g in graph.groups}
    assert forks["k1"].source == "Eignite"
    assert set(forks["k1"].members) == {"Erespond", "Eleakgrow", "Efiregrow"}
    assert forks["c1"].source == "Erespond"
    assert set(forks["c1"].members) == {"Es1", "Es2"}
    repeats = [e for e in graph.edges if e.kind is BehaviorEdgeKind.REPEAT]
    assert {(e.target, e.bound) for e in repeats} == {
        ("Eleakgrow", 12),
        ("Efiregrow", 12),
    }

    trace = run(graph, Scripted(("Es2",)), horizon=30, seed=7)
    assert trace.termination == "terminal-reached"
    report = race_report(graph, trace, "Erespond", "Efiregrow")
    assert report.winner == "Erespond"
    assert report.margin == 4
    assert (report.finish_a, report.finish_b) == (12, 16)


@lru_cache(maxsize=1)
def _random_run_suite():
    rng = random.Random(0xC0FFEE)
    runs = []
    for _ in range(1000):
        graph = make_random_behavior(rng)
        policy = make_random_policy(rng)
        horizon = rng.randint(4, 24)
        runs.append((graph, run(graph, policy, horizon=horizon)))
    return runs


def test_acceptance_03_presentism_holds_over_1000_random_runs():
    violations = []
    for _, trace in _random_run_suite():
        violations.extend(oracles.presentism_violations(trace))
    assert violations == []


def test_acceptance_04_cutoff_and_repetition_hold_over_the_same_runs():
    violations = []
    for graph, trace in _random_run_suite():
        violations.extend(oracles.cutoff_violations(graph, trace))
        violations.extend(oracles.repetition_violations(trace))
    assert violations == []


def test_acceptance_05_reruns_are_byte_identical():
    rng = random.Random(0xD15EA5E)
    for _ in range(100):
        graph = make_random_behavior(rng)
        policy = make_random_policy(rng)
        horizon = rng.randint(4, 24)
        model = next(iter(graph.events.values())).model
        first = trace_to_json(run(graph, policy, horizon=horizon), graph, model)
        second = trace_to_json(run(graph, policy, horizon=horizon), graph, model)
        assert first == second


def test_acceptance_06_roundtrip_everywhere_and_parser_never_breaks():
    documents = [
        parse(tmkit.corpus_text(name), source=name).document
        for name in tmkit.corpus_names()
    ]
    rng = random.Random(0xF00D)
    documents.extend(make_random_document(rng) for _ in range(500))
    for document in documents:
        once = tmkit.format_document(document)
        reparsed = parse(once)
        assert reparsed.ok, [d.render() for d in reparsed.diagnostics]
        assert tmkit.format_document(reparsed.document) == once
        assert tmkit.model_digest(reparsed.document.model) == tmkit.model_digest(
            document.model
        )

    fuzz = random.Random(0xFA22)
    for _ in range(10_000):
        blob = bytes(fuzz.randrange(256) for _ in range(fuzz.randrange(120)))
        result = parse(blob.decode("latin-1"))
        assert result.document is not None or not result.ok


def test_acceptance_07_validator_agrees_with_brute_force_oracles():
    rng = random.Random(0xBEEF)
    for _ in range(200):
        model = make_random_model(rng)
        assert len(model.stages) <= 50

        flagged = {
            d.subject: d.code for d in check_model(model) if d.code in ("F1", "F2")
        }
        assert flagged == oracles.flow_violations(model)

        stages = sorted(model.stages)
        for start in stages:
            assert model.reachable_stages(start) == oracles.reachable(model, start)

        for _ in range(3):
            members = set(rng.sample(stages, rng.randint(1, min(8, len(stages)))))
            findings = check_region(model, members)
            codes = {d.code for d in findings}
            assert ("R2" in codes) == (not oracles.region_connected(model, members))
            assert ("R3" in codes) == bool(oracles.split_moves(model, members))

        first = set(rng.sample(stages, rng.randint(1, len(stages))))
        second = set(rng.sample(stages, rng.randint(1, len(stages))))
        shared = oracles.overlap_stages(first, second)
        region_a = model.subdiagram(first)
        region_b = model.subdiagram(second)
        assert region_a.stages & region_b.stages == shared


def test_acceptance_08_handoff_overlap_listed_exactly_once():
    document = parse(tmkit.corpus_text("ball"), source="ball.tm").document
    events, _, report, _ = eventize(document)
    assert sorted(events) == ["Ej", "Ej1"]

    region = overlap(events["Ej"], events["Ej1"])
    assert region is not None
    assert region.stages == {"seg2.receive", "seg2.transfer"}

    assert report.uncovered == ()
    assert report.overlaps == (
        ("seg2.receive", ("Ej", "Ej1")),
        ("seg2.transfer", ("Ej", "Ej1")),
    )
    listed = report.overlap_stages()
    assert sorted(listed) == sorted(set(listed))  # each shared stage once
