"""Serialized forms: schema conformance, reimport fidelity, DOT stability,
atomic writes."""
from __future__ import annotations

import hashlib
import json
import os
import random

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import tmkit
from tmkit import (
    ActionKind,
    BehaviorDecl,
    ExportError,
    FirstDeclared,
    Scripted,
    SeededRandom,
    StaticModel,
    behavior_digest,
    build_behavior,
    define_event,
    document_from_parts,
    eventize,
    export_dot,
    format_document,
    import_json,
    model_digest,
    model_to_json,
    parse,
    run,
    trace_to_json,
    write_text_atomic,
)
from tmkit.dsl import MAX_NUMBER, EventDecl
from tmkit.model import InvalidNameError, has_control_character, validate_name

import oracles
from conftest import load_perfbench_module, make_random_behavior, make_random_document, make_random_policy

MODEL_JSON_FLAGS = ((False, False), (True, False), (False, True), (True, True))


def assert_model_json_is_the_json_module_form(document) -> None:
    for regions, behavior in MODEL_JSON_FLAGS:
        payload = oracles.model_payload(document, regions, behavior)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert model_to_json(document, regions, behavior) == expected


def is_valid_name(name: str) -> bool:
    try:
        validate_name(name)
    except InvalidNameError:
        return False
    return True


def test_model_json_is_schema_valid(corpus):
    for document in corpus.values():
        payload = json.loads(model_to_json(document, True, True))
        jsonschema.validate(payload, tmkit.MODEL_SCHEMA)
        assert payload["schema"] == "tm-model/1"


def test_model_json_matches_the_json_module_on_the_corpus(corpus):
    for document in corpus.values():
        assert_model_json_is_the_json_module_form(document)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_model_json_matches_the_json_module_on_random_documents(seed):
    assert_model_json_is_the_json_module_form(make_random_document(random.Random(seed)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=6).filter(is_valid_name), min_size=1, max_size=4, unique=True),
    st.lists(st.none() | st.text(max_size=8).filter(lambda t: not has_control_character(t)), min_size=4, max_size=4),
    st.lists(st.none() | st.text(min_size=1, max_size=6).filter(is_valid_name), min_size=4, max_size=4),
    st.integers(1, 2**63 - 1),
)
def test_model_json_escapes_any_name_label_and_thing(names, labels, things, duration):
    # Names and flow things may hold backslashes and any non-ASCII character;
    # labels may hold quotes too.
    model = StaticModel()
    stages = []
    for index, name in enumerate(names):
        parent = model.add_machine(f"m{index}")
        machine = model.add_machine(name, parent)
        stages.append(model.add_stage(machine, ActionKind.CREATE))
        model.add_storage(machine, name)
    for index, (src, dst) in enumerate(zip(stages, stages[1:] + stages[:1])):
        model.add_flow(src, dst, things[index % len(things)])
        model.add_trigger(dst, src)
    regions = {name: (stage,) for name, stage in zip(names, stages)}
    events = {
        name: EventDecl(name, name, duration if index else 1, labels[index % len(labels)])
        for index, name in enumerate(names)
    }
    behavior = tuple(BehaviorDecl("seq", a, (b,)) for a, b in zip(names, names[1:]))
    behavior += (BehaviorDecl("repeat", names[-1], (names[0],), duration),)
    assert_model_json_is_the_json_module_form(document_from_parts(model, regions, events, behavior))


def test_trace_json_is_schema_valid(corpus):
    document = corpus["eating"]
    _, graph, _, _ = eventize(document)
    trace = run(graph, FirstDeclared(), horizon=19)
    payload = json.loads(trace_to_json(trace, graph, document.model))
    jsonschema.validate(payload, tmkit.TRACE_SCHEMA)
    assert payload["schema"] == "tm-trace/1"
    assert len(payload["ticks"]) == 20  # tick zero plus one entry per step
    assert payload["model"] == model_digest(document.model)
    assert payload["termination"] == "horizon"


def json_module_form(text: str) -> str:
    """What json.dumps(payload, indent=2, sort_keys=True) makes of a trace."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_trace_json_matches_the_json_module_on_the_corpus(corpus):
    for document in corpus.values():
        _, graph, _, _ = eventize(document)
        for policy in (FirstDeclared(), SeededRandom(5), Scripted(()), Scripted(("Es2",))):
            for horizon in (1, 60):
                text = trace_to_json(run(graph, policy, horizon, seed=7), graph, document.model)
                assert text == json_module_form(text)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_trace_json_matches_the_json_module_on_random_graphs(seed, horizon):
    rng = random.Random(seed)
    graph = make_random_behavior(rng)
    model = next(iter(graph.events.values())).model
    trace = run(graph, make_random_policy(rng), horizon)
    text = trace_to_json(trace, graph, model)
    assert text == json_module_form(text)
    # The ticks say what the trace says, a live list handed on unchanged included.
    assert [
        (t["tick"], tuple(t["live"]), tuple(t["archived"]), tuple((c["group"], c["chosen"]) for c in t["choices"]))
        for t in json.loads(text)["ticks"]
    ] == [(s.tick, s.live, s.archived, s.choices) for s in trace.ticks]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=5, unique=True),
    st.none() | st.integers(-(2**70), 2**70),
    st.integers(1, 12),
    st.data(),
)
def test_trace_json_escapes_any_event_name(names, seed, horizon, data):
    model = StaticModel()
    events = {}
    for index, name in enumerate(names):
        stage = model.add_stage(model.add_machine(f"m{index}"), ActionKind.CREATE)
        events[name] = define_event(model, name, [stage])[0]
    model.freeze()
    decls = [BehaviorDecl("choice", None, (names[0], names[1]))]
    decls += [BehaviorDecl("seq", a, (b,)) for a, b in zip(names[1:], names[2:])]
    decls.append(BehaviorDecl("repeat", names[-1], (names[0],), 3))
    graph = build_behavior(events, decls)[0]
    script = data.draw(st.lists(st.sampled_from(names[:2]), max_size=4))
    for policy in (FirstDeclared(), Scripted(tuple(script))):
        text = trace_to_json(run(graph, policy, horizon, seed=seed), graph, model)
        assert text == json_module_form(text)
        assert json.loads(text)["seed"] == seed


def test_reimport_preserves_structure(corpus):
    for name, document in corpus.items():
        text = model_to_json(document, include_regions=True, include_behavior=True)
        clone = import_json(text)
        assert model_digest(clone.model) == model_digest(document.model), name
        assert {r: d.stage_ids for r, d in clone.regions.items()} == {
            r: d.stage_ids for r, d in document.regions.items()
        }
        assert sorted(clone.events) == sorted(document.events)
        assert [d.kind for d in clone.behavior] == [d.kind for d in document.behavior]
        again = model_to_json(clone, include_regions=True, include_behavior=True)
        assert again == text


def test_reimport_random_documents():
    rng = random.Random(2024)
    for _ in range(40):
        document = make_random_document(rng)
        text = model_to_json(document, True, True)
        clone = import_json(text)
        assert model_digest(clone.model) == model_digest(document.model)
        assert model_to_json(clone, True, True) == text


BENCHMARK_GEN = load_perfbench_module("gen")


def assert_round_trips(document) -> None:
    """text -> document -> text is a fixed point, JSON -> document -> JSON
    gives the same bytes, and both keep the model and behavior digests."""
    text = format_document(document)
    reparsed = parse(text).document
    assert reparsed is not None and format_document(reparsed) == text
    payload = model_to_json(document, True, True)
    imported = import_json(payload)
    assert model_to_json(imported, True, True) == payload
    graph = eventize(document)[1]
    for copy in (reparsed, imported):
        assert model_digest(copy.model) == model_digest(document.model)
        copy_graph = eventize(copy)[1]
        assert (copy_graph is None) == (graph is None)
        if graph is not None:
            assert behavior_digest(copy_graph) == behavior_digest(graph)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trips_of_edit_loop_models(seed):
    # The benchmark's edit-loop model: about 150 nested machines, 650 flows,
    # triggers, storages and a behavior of choice and concurrent groups.
    document = parse(BENCHMARK_GEN.edit_model(seed).text).document
    assert len(document.model.machines) > 150 and len(document.model.flows) > 600
    assert document.model.triggers and document.model.storages
    assert_round_trips(document)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trips_of_large_random_documents(seed):
    # Quoted names ("gear 3", "gear\\3"), labels with quotes and backslashes.
    document = make_random_document(random.Random(seed), max_machines=200, min_machines=120)
    assert_round_trips(document)


def test_import_rejects_wrong_or_broken_payloads(corpus):
    with pytest.raises(ExportError):
        import_json("not even json")
    with pytest.raises(ExportError, match="not JSON"):  # json.loads raises a bare ValueError
        import_json('{"schema": "tm-model/1", "x": ' + "1" * 5000 + "}")
    with pytest.raises(ExportError, match="not JSON"):
        import_json("[" * 100_000)
    with pytest.raises(ExportError):
        import_json(json.dumps({"schema": "tm-trace/1"}))
    with pytest.raises(ExportError):
        import_json(json.dumps({"schema": "tm-model/1", "machines": [{"broken": 1}]}))
    # Fields the text form cannot hold: formatted, they would not parse again,
    # lose data, or the formatter would raise. Behavior 0 is a seq, -1 a repeat.
    text = model_to_json(corpus["eating"], True, True)
    event = min(json.loads(text)["events"])
    for (*parents, key), value, message in (
        (("events", event, "duration"), 2.5, "duration must be an integer"),
        (("events", event, "duration"), True, "duration must be an integer"),
        (("events", event, "duration"), 2**63, "duration must be <= 9223372036854775807"),
        (("events", event, "label"), ["x"], "label must be a string"),
        (("behavior", -1, "bound"), 1.5, "bound must be an integer"),
        (("behavior", -1, "bound"), False, "bound must be an integer"),
        (("behavior", -1, "bound"), 0, "bound must be >= 1"),
        (("behavior", -1, "bound"), 2**63, "bound must be <= 9223372036854775807"),
        (("behavior", 0, "bound"), 2, "only a repeat may have a bound"),
        (("behavior", 0, "targets"), [], "must have a source and exactly one target"),
        (("behavior", 0, "targets"), ["E3", "E4"], "must have a source and exactly one target"),
        (("behavior", 0, "source"), None, "must have a source and exactly one target"),
        (("behavior", -1, "targets"), ["E5", "E6"], "must have a source and exactly one target"),
        (("behavior", 0, "kind"), "choice", "a choice group needs at least two events"),
        (("behavior", 0, "targets"), [None], "unknown event None"),
        (("behavior", 0, "kind"), 7, "unknown behavior statement kind 7"),
        (("behavior", 0, "kind"), "bogus", "unknown behavior statement kind 'bogus'"),
        (("flows", 0, "thing"), {"x": 1}, "name must be a string"),
    ):
        payload = json.loads(text)
        parent = payload
        for part in parents:
            parent = parent[part]
        parent[key] = value
        with pytest.raises(ExportError, match=message):
            import_json(json.dumps(payload))
    # The schema states the range import_json enforces: 1 to MAX_NUMBER.
    for *parents, key in (("events", event, "duration"), ("behavior", -1, "bound")):
        for value in (0, MAX_NUMBER, MAX_NUMBER + 1):
            payload = json.loads(text)
            parent = payload
            for part in parents:
                parent = parent[part]
            parent[key] = value
            if value == MAX_NUMBER:
                jsonschema.validate(payload, tmkit.MODEL_SCHEMA)
                import_json(json.dumps(payload))
                continue
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(payload, tmkit.MODEL_SCHEMA)
            with pytest.raises(ExportError):
                import_json(json.dumps(payload))
    # The root machine holds no stages and no storages.
    for table, entry in (
        ("stages", {"id": ".create", "kind": "create", "owner": ""}),
        ("storages", {"id": ".jar", "owner": "", "thing": "jar"}),
    ):
        payload = json.loads(text)
        payload[table].append(entry)
        with pytest.raises(ExportError, match=f"the root machine 'world' holds no {table}"):
            import_json(json.dumps(payload))
    # Region and event names the text form refuses, renamed at every use.
    region = min(json.loads(text)["regions"])
    for old, new in ((event, "x.y"), (region, "r.s"), (event, "")):
        renamed = text.replace(json.dumps(old), json.dumps(new))
        assert renamed != text
        with pytest.raises(ExportError, match="name must be a valid name"):
            import_json(renamed)
    # Flow things the text form refuses.
    for thing, message in (("a.b", "forbidden character"), ("", "must not be empty")):
        payload = json.loads(text)
        payload["flows"][0]["thing"] = thing
        with pytest.raises(ExportError, match=message):
            import_json(json.dumps(payload))


def test_export_json_requires_frozen_model():
    model = tmkit.StaticModel()
    model.add_machine("m")
    document = tmkit.ModelDocument(model, {}, {}, (), {})
    with pytest.raises(ExportError):
        model_to_json(document)


def test_digest_ignores_declaration_order():
    a = parse(
        "machine m { stage create; stage release; }\n"
        "flow: m.create -> m.release;\nflow x: m.create -> m.release;"
    ).document
    b = parse(
        "machine m { stage release; stage create; }\n"
        "flow x: m.create -> m.release;\nflow: m.create -> m.release;"
    ).document
    assert model_digest(a.model) == model_digest(b.model)


def test_digest_sees_structural_change():
    a = parse("machine m { stage create; stage release; }").document
    b = parse(
        "machine m { stage create; stage release; }\nflow: m.create -> m.release;"
    ).document
    assert model_digest(a.model) != model_digest(b.model)


def count_hashes(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = hashlib.sha256

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


def test_digests_are_computed_once_per_frozen_model_and_graph(monkeypatch):
    document = parse(tmkit.corpus_text("disaster")).document
    _, graph, _, _ = eventize(document)
    trace = tmkit.run(graph, SeededRandom(4), 40)
    calls = count_hashes(monkeypatch)
    first = trace_to_json(trace, graph, document.model)
    assert len(calls) == 2
    assert trace_to_json(trace, graph, document.model) == first
    assert model_digest(document.model) and behavior_digest(graph)
    assert len(calls) == 2
    # A fresh parse of the same text has no digest yet and gives the same bytes.
    fresh = parse(tmkit.corpus_text("disaster")).document
    assert trace_to_json(trace, eventize(fresh)[1], fresh.model) == first
    assert len(calls) == 4


def test_unfrozen_models_are_digested_on_every_call(monkeypatch):
    model = StaticModel()
    machine = model.add_machine("m")
    calls = count_hashes(monkeypatch)
    before = model_digest(model)
    model.add_stage(machine, ActionKind.CREATE)
    during = model_digest(model)
    assert before != during and len(calls) == 2
    model.freeze()
    assert model_digest(model) == model_digest(model) == during
    assert len(calls) == 3


def test_dot_output_is_deterministic_and_complete(corpus):
    document = corpus["disaster"]
    _, graph, _, _ = eventize(document)
    first = export_dot(document, behavior=graph)
    second = export_dot(document, behavior=graph)
    assert first == second
    assert first.count("digraph") == 2
    assert "subgraph cluster_" in first
    assert "[style=dashed]" in first  # triggers
    assert "shape=cylinder" in first  # the reserve storage
    assert '"room2.process" -> "room2.explosion.create" [style=dashed];' in first
    assert "// region r-leak:" in first
    assert '"__start__"' not in first  # every group here has a source


def test_dot_marks_start_groups_and_repeats():
    text = (
        "machine a { stage create; }\nmachine b { stage create; }\n"
        "region ra = { a };\nregion rb = { b };\n"
        "event A on ra;\nevent B on rb;\n"
        "behavior { concurrent { A, B }; repeat B bound 3; }"
    )
    document = parse(text).document
    _, graph, _, _ = eventize(document)
    dot = export_dot(document, behavior=graph)
    assert '"__start__"' in dot
    assert 'label="repeat <= 3"' in dot


def test_atomic_write_replaces_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.json"
    write_text_atomic(str(target), "first\n")
    write_text_atomic(str(target), "second\n")
    assert target.read_text() == "second\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmkit-")]
    assert leftovers == []


def test_behavior_only_json_brings_its_events_and_reimports(corpus):
    for name, document in corpus.items():
        text = model_to_json(document, include_behavior=True)
        clone = import_json(text)
        assert model_digest(clone.model) == model_digest(document.model), name
        assert sorted(clone.events) == sorted(document.events), name
        _, graph, _, _ = eventize(document)
        _, cloned_graph, _, _ = eventize(clone)
        assert behavior_digest(cloned_graph) == behavior_digest(graph), name


def test_import_rejects_labels_with_control_characters(corpus):
    payload = json.loads(model_to_json(corpus["ball"], True, True))
    first = sorted(payload["events"])[0]
    payload["events"][first]["label"] = "a\nb"
    with pytest.raises(ExportError, match="control character"):
        import_json(json.dumps(payload))
