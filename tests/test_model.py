"""Static structure: identities, naming, freezing, resolution, closure."""
from __future__ import annotations

import random

import pytest

from tmkit import (
    ActionKind,
    DuplicateEntityError,
    FrozenModelError,
    InvalidNameError,
    ModelError,
    StaticModel,
    UnknownEntityError,
)

import oracles
from conftest import grow_random_model, make_random_model


def build_two_machines() -> StaticModel:
    model = StaticModel()
    a = model.add_machine("a")
    b = model.add_machine("b", a)
    model.add_stage(a, ActionKind.TRANSFER)
    model.add_stage(b, ActionKind.TRANSFER)
    model.add_stage(b, ActionKind.RECEIVE)
    return model


def test_machine_ids_are_dotted_paths():
    model = build_two_machines()
    assert set(model.machines) == {"", "a", "a.b"}
    assert model.stages["a.b.receive"].owner == "a.b"


def test_sibling_names_must_differ():
    model = StaticModel()
    model.add_machine("x")
    with pytest.raises(DuplicateEntityError):
        model.add_machine("x")
    # same name under a different parent is fine
    parent = model.add_machine("y")
    model.add_machine("x", parent)


def test_storage_and_child_share_namespace():
    model = StaticModel()
    mid = model.add_machine("tank")
    model.add_storage(mid, "slot")
    with pytest.raises(DuplicateEntityError):
        model.add_machine("slot", mid)
    with pytest.raises(DuplicateEntityError):
        model.add_storage(mid, "slot")


@pytest.mark.parametrize(
    "bad", ["", "world", "create", "receive", "a.b", 'say"no', "tab\there", 7]
)
def test_rejected_names(bad):
    # Machines, storages and flow things are all names.
    model = StaticModel()
    with pytest.raises(InvalidNameError):
        model.add_machine(bad)
    stage = model.add_stage(model.add_machine("m"), ActionKind.CREATE)
    with pytest.raises(InvalidNameError):
        model.add_storage("m", bad)
    with pytest.raises(InvalidNameError):
        model.add_flow(stage, stage, bad)
    assert not model.flows and not model.storages


def test_one_stage_per_kind():
    model = StaticModel()
    mid = model.add_machine("m")
    model.add_stage(mid, ActionKind.CREATE)
    with pytest.raises(DuplicateEntityError):
        model.add_stage(mid, ActionKind.CREATE)


def test_the_root_machine_holds_no_stages_or_storages():
    # The text form has no syntax for them, so the model refuses them.
    model = build_two_machines()
    with pytest.raises(ModelError, match="the root machine 'world' holds no stages"):
        model.add_stage("", ActionKind.CREATE)
    with pytest.raises(ModelError, match="the root machine 'world' holds no storages"):
        model.add_storage("", "jar")
    assert not model.machines[""].stages and not model.machines[""].storages
    assert set(model.stages) == {"a.transfer", "a.b.transfer", "a.b.receive"} and not model.storages


def test_flow_endpoints_must_exist():
    model = build_two_machines()
    with pytest.raises(UnknownEntityError):
        model.add_flow("a.transfer", "a.b.nothing")


def test_trigger_endpoints_are_stages_only():
    model = build_two_machines()
    sid = model.add_storage("a", "bin")
    with pytest.raises(UnknownEntityError):
        model.add_trigger("a.transfer", sid)


def test_freeze_blocks_mutation():
    model = build_two_machines()
    model.freeze()
    with pytest.raises(FrozenModelError):
        model.add_machine("late")
    with pytest.raises(FrozenModelError):
        model.add_flow("a.transfer", "a.b.transfer")


def test_resolve_paths():
    model = build_two_machines()
    model.add_storage("a.b", "bin")
    model.freeze()
    assert model.resolve(["a"]) == ("machine", "a")
    assert model.resolve(["a", "b"]) == ("machine", "a.b")
    assert model.resolve(["a", "b", "receive"]) == ("stage", "a.b.receive")
    assert model.resolve(["a", "b", "bin"]) == ("storage", "a.b.bin")
    assert model.resolve(["world", "a"]) == ("machine", "a")
    with pytest.raises(UnknownEntityError):
        model.resolve(["a", "missing"])


def test_a_failed_resolution_names_the_first_missing_segment_or_stage():
    model = build_two_machines()
    model.add_storage("a.b", "bin")
    model.freeze()
    for segments, message in (
        (["a", "b", "create"], "machine 'b' has no create stage"),
        (["a", "process", "b"], "'a.process.b' does not resolve: no 'process' in 'a'"),
        (["a", "b", "bin", "x"], "'a.b.bin.x' does not resolve: no 'bin' in 'b'"),
        (["a.b"], "'a.b' does not resolve: no 'a.b' in 'world'"),
        (["world", "a", ""], "'world.a.' does not resolve: no '' in 'a'"),
    ):
        with pytest.raises(UnknownEntityError) as refused:
            model.resolve(segments)
        assert str(refused.value) == message


def test_edge_ids_count_each_kind_from_one_and_skip_refused_edges():
    model = build_two_machines()
    assert model.add_flow("a.transfer", "a.b.transfer") == "f0001"
    with pytest.raises(UnknownEntityError):
        model.add_flow("a.transfer", "a.b.nothing")
    with pytest.raises(InvalidNameError):
        model.add_flow("a.transfer", "a.b.transfer", "world")
    assert model.add_trigger("a.b.transfer", "a.b.receive") == "t0001"
    assert model.add_flow("a.b.transfer", "a.b.receive", "parcel") == "f0002"
    with pytest.raises(UnknownEntityError):
        model.add_trigger("a.transfer", "a.b.nothing")
    assert model.add_trigger("a.transfer", "a.b.receive") == "t0002"
    assert list(model.flows) == ["f0001", "f0002"] and list(model.triggers) == ["t0001", "t0002"]


def test_stages_under_collects_subtree():
    model = build_two_machines()
    model.freeze()
    assert model.stages_under("a") == ["a.b.receive", "a.b.transfer", "a.transfer"]


def test_reachable_passes_through_storages():
    model = StaticModel()
    mid = model.add_machine("m")
    create = model.add_stage(mid, ActionKind.CREATE)
    release = model.add_stage(mid, ActionKind.RELEASE)
    store = model.add_storage(mid, "pool")
    model.add_flow(create, store)
    model.add_flow(store, release)
    model.freeze()
    reached = model.reachable_stages(create)
    assert release in reached and create in reached
    assert store not in reached  # storages conduct, stages are the answer


def test_reachable_matches_fixpoint_oracle():
    rng = random.Random(4242)
    for _ in range(60):
        model = make_random_model(rng)
        for start in sorted(model.stages):
            assert model.reachable_stages(start) == oracles.reachable(model, start)


def test_subdiagram_connectivity_matches_union_find():
    rng = random.Random(977)
    for _ in range(60):
        model = make_random_model(rng)
        stages = sorted(model.stages)
        members = set(rng.sample(stages, rng.randint(1, min(6, len(stages)))))
        region = model.subdiagram(members)
        assert region.connected == oracles.region_connected(model, members)
        assert region.stages == frozenset(members)


def test_subdiagram_rejects_empty_and_unknown():
    model = build_two_machines()
    model.freeze()
    with pytest.raises(Exception):
        model.subdiagram([])
    with pytest.raises(UnknownEntityError):
        model.subdiagram(["ghost.create"])


def candidate_paths(model: StaticModel, rng: random.Random) -> list[list[str]]:
    """The path of every machine, with and without the root name, extended by
    stage kinds and storage things (last or not), plus junk paths."""
    paths: list[list[str]] = []
    for machine in model.machines.values():
        segments: list[str] = []
        walk = machine
        while walk.parent is not None:
            segments.insert(0, walk.name)
            walk = model.machines[walk.parent]
        paths += [segments, ["world", *segments]]
        paths += [[*segments, kind.value] for kind in ActionKind]
        paths += [[*segments, kind.value, "x"] for kind in ActionKind]
        paths += [[*segments, thing, *tail] for thing in machine.storages for tail in ([], ["x"])]
    junk = ("gear", "pump", "stuff0", "process", "world", "", "gear.pump", "ghost")
    paths += [[rng.choice(junk) for _ in range(rng.randint(1, 3))] for _ in range(10)]
    return [path for path in paths if path]


@pytest.mark.parametrize("seed", range(25))
def test_indexes_match_scans_while_the_model_grows(seed):
    rng = random.Random(seed)
    for model in grow_random_model(rng):
        for path in candidate_paths(model, rng):
            expected = oracles.scan_resolve(model, path)
            if expected is None:
                with pytest.raises(UnknownEntityError):
                    model.resolve(path)
            else:
                assert model.resolve(path) == expected, path
        for node in (*model.stages, *model.storages):
            assert sorted(e.id for e in model.incident_edges(node)) == sorted(
                e.id for e in oracles.incident_scan(model, node)
            )
        stages = sorted(model.stages)
        if stages:
            members = set(rng.sample(stages, rng.randint(1, min(5, len(stages)))))
            assert model.subdiagram(members).connected == oracles.region_connected(model, members)
            start = rng.choice(stages)
            assert model.reachable_stages(start) == oracles.reachable(model, start)
