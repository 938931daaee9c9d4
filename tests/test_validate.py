"""Structural rules: every code fires when it should and stays quiet otherwise,
and the flow/region rules agree with brute-force re-derivations."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import (
    ActionKind,
    StaticModel,
    check_model,
    check_region,
    has_errors,
)
from tmkit.validate import _flow_components

import oracles
from conftest import grow_random_model, make_random_model

C, P, R, T, V = (
    ActionKind.CREATE,
    ActionKind.PROCESS,
    ActionKind.RELEASE,
    ActionKind.TRANSFER,
    ActionKind.RECEIVE,
)


def codes(diags):
    return sorted(d.code for d in diags)


def pipeline(*kinds_by_machine) -> StaticModel:
    model = StaticModel()
    for index, kinds in enumerate(kinds_by_machine):
        mid = model.add_machine(f"m{index}")
        for kind in kinds:
            model.add_stage(mid, kind)
    return model


def test_clean_model_has_no_findings():
    model = pipeline([C, R, T], [T, V, P])
    model.add_flow("m0.create", "m0.release")
    model.add_flow("m0.release", "m0.transfer")
    model.add_flow("m0.transfer", "m1.transfer")
    model.add_flow("m1.transfer", "m1.receive")
    model.add_flow("m1.receive", "m1.process")
    model.freeze()
    assert check_model(model) == []


def test_f1_same_machine_illegal_flow():
    model = pipeline([C, T])
    model.add_flow("m0.create", "m0.transfer")  # create cannot feed transfer
    model.freeze()
    diags = check_model(model)
    assert "F1" in codes(diags) and has_errors(diags)


def test_f2_cross_machine_illegal_flow():
    model = pipeline([C, R, T], [T, V, P])
    model.add_flow("m0.release", "m1.receive")  # only transfer may cross
    model.freeze()
    assert "F2" in codes(check_model(model))


def test_storage_attachments_are_exempt_from_flow_rules():
    model = pipeline([C, R, T])
    sid = model.add_storage("m0", "vat")
    model.add_flow("m0.create", sid)
    model.add_flow(sid, "m0.release")
    model.add_flow("m0.create", "m0.release")
    model.add_flow("m0.release", "m0.transfer")
    model.freeze()
    assert codes(check_model(model)) == []


def test_d1_duplicate_stage_kind_is_unrepresentable_via_api():
    model = StaticModel()
    mid = model.add_machine("m")
    model.add_stage(mid, C)
    with pytest.raises(Exception):
        model.add_stage(mid, C)


def test_t1_trigger_inside_one_flow_series_warns():
    model = pipeline([T, V, P])
    model.add_flow("m0.transfer", "m0.receive")
    model.add_flow("m0.receive", "m0.process")
    model.add_trigger("m0.process", "m0.transfer")  # same series: suspicious
    model.freeze()
    diags = check_model(model)
    assert "T1" in codes(diags) and not has_errors(diags)


def test_t1_quiet_for_separate_series():
    model = pipeline([T, V, P, C])
    model.add_flow("m0.transfer", "m0.receive")
    model.add_flow("m0.receive", "m0.process")
    # the create stage has no flows at all: a second, disjoint series
    model.add_trigger("m0.process", "m0.create")
    model.freeze()
    assert "T1" not in codes(check_model(model))


def test_m1_machine_without_entry_warns():
    model = pipeline([V, P])
    model.add_flow("m0.receive", "m0.process")
    model.freeze()
    diags = check_model(model)
    assert "M1" in codes(diags) and not has_errors(diags)


def test_m1_quiet_with_create_or_inbound():
    with_create = pipeline([C, P])
    with_create.add_flow("m0.create", "m0.process")
    with_create.freeze()
    assert "M1" not in codes(check_model(with_create))

    fed = pipeline([C, R, T], [T, V])
    fed.add_flow("m0.create", "m0.release")
    fed.add_flow("m0.release", "m0.transfer")
    fed.add_flow("m0.transfer", "m1.transfer")
    fed.add_flow("m1.transfer", "m1.receive")
    fed.freeze()
    assert "M1" not in codes(check_model(fed))


def test_m2_release_that_goes_nowhere_warns():
    model = pipeline([C, R])
    model.add_flow("m0.create", "m0.release")
    model.freeze()
    diags = check_model(model)
    assert "M2" in codes(diags) and not has_errors(diags)


def test_m1_counts_a_flow_from_another_machines_storage_as_an_entry():
    model = pipeline([C], [V, P])
    sid = model.add_storage("m0", "vat")
    model.add_flow(sid, "m1.receive")
    model.add_flow("m1.receive", "m1.process")
    model.freeze()
    assert [d.subject for d in check_model(model) if d.code == "M1"] == []


def test_m1_does_not_count_a_flow_from_the_machines_own_storage():
    model = pipeline([V, P])
    sid = model.add_storage("m0", "vat")
    model.add_flow(sid, "m0.receive")
    model.add_flow("m0.receive", "m0.process")
    model.freeze()
    assert [d.subject for d in check_model(model) if d.code == "M1"] == ["m0"]


def test_m2_warns_on_a_release_whose_only_flow_goes_into_a_storage():
    model = pipeline([C, R])
    sid = model.add_storage("m0", "vat")
    model.add_flow("m0.create", "m0.release")
    model.add_flow("m0.release", sid)
    model.freeze()
    assert [d.subject for d in check_model(model) if d.code == "M2"] == ["m0.release"]


def test_m2_counts_a_cross_machine_release_to_transfer_flow_as_a_hand_off():
    model = pipeline([C, R], [T, V])
    model.add_flow("m0.create", "m0.release")
    model.add_flow("m0.release", "m1.transfer")  # F2: only a transfer may cross
    model.add_flow("m1.transfer", "m1.receive")
    model.freeze()
    diags = check_model(model)
    assert codes(diags) == ["F2"]
    assert diags[0].message == "flow m0.release -> m1.transfer: release->transfer may not cross machines"


def test_r1_empty_region_is_an_error():
    model = pipeline([C])
    model.freeze()
    diags = check_region(model, [])
    assert codes(diags) == ["R1"] and has_errors(diags)


def test_r2_disconnected_region_warns():
    model = pipeline([C], [C])
    model.freeze()
    diags = check_region(model, ["m0.create", "m1.create"])
    assert codes(diags) == ["R2"] and not has_errors(diags)


def test_r3_split_handoff_is_an_error_from_both_sides():
    model = pipeline([T, V])
    model.add_flow("m0.transfer", "m0.receive")
    model.freeze()
    inside_only_src = check_region(model, ["m0.transfer"])
    inside_only_dst = check_region(model, ["m0.receive"])
    assert "R3" in codes(inside_only_src) and has_errors(inside_only_src)
    assert "R3" in codes(inside_only_dst)
    both = check_region(model, ["m0.transfer", "m0.receive"])
    assert "R3" not in codes(both)


def test_flow_rules_match_brute_force_scan():
    rng = random.Random(31337)
    for _ in range(120):
        model = make_random_model(rng)
        expected = oracles.flow_violations(model)
        got = {
            d.subject: d.code
            for d in check_model(model)
            if d.code in ("F1", "F2")
        }
        assert got == expected


def test_region_rules_match_brute_force_scan():
    rng = random.Random(90210)
    for _ in range(120):
        model = make_random_model(rng)
        stages = sorted(model.stages)
        members = set(rng.sample(stages, rng.randint(1, min(6, len(stages)))))
        diags = check_region(model, members)
        assert ("R2" in codes(diags)) == (not oracles.region_connected(model, members))
        assert ("R3" in codes(diags)) == bool(oracles.split_moves(model, members))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_flow_components_partition_like_a_breadth_first_search(seed, machines):
    model = make_random_model(random.Random(seed), max_machines=machines)
    labels = _flow_components(model)
    parts: dict[int, set[str]] = {}
    for node, label in labels.items():
        parts.setdefault(label, set()).add(node)
    assert {frozenset(part) for part in parts.values()} == oracles.flow_partition(model)
    owner = {stage.id: stage.owner for stage in model.stages.values()}
    component = {node: part for part in oracles.flow_partition(model) for node in part}
    expected_t1 = {
        trig.id
        for trig in model.triggers.values()
        if owner[trig.src] == owner[trig.dst] and component[trig.src] == component[trig.dst]
    }
    assert {d.subject for d in check_model(model) if d.code == "T1"} == expected_t1


def expected_region_findings(model: StaticModel, members: set[str]) -> list[tuple[str, str]]:
    found = [] if oracles.region_connected(model, members) else [("R2", "region is not weakly connected")]
    for flow_id in oracles.split_moves(model, members):
        edge = model.flows[flow_id]
        found.append(("R3", f"region splits the atomic move {edge.src} -> {edge.dst}"))
    return sorted(found)


@pytest.mark.parametrize("seed", range(25))
def test_region_findings_match_scans_while_the_model_grows(seed):
    rng = random.Random(seed)
    for model in grow_random_model(rng, steps=60):
        stages = sorted(model.stages)
        for _ in range(3 if stages else 0):
            members = set(rng.sample(stages, rng.randint(1, min(6, len(stages)))))
            got = sorted((d.code, d.message) for d in check_region(model, members))
            assert got == expected_region_findings(model, members)
