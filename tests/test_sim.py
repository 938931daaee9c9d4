"""Execution semantics against hand-computed timelines.

Every expected number in this file was worked out by hand from the stated
rules before the engine ran, then frozen here.
"""
from __future__ import annotations

import hashlib
import random
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import tmkit
from tmkit import (
    ActionKind,
    BehaviorDecl,
    EventInstance,
    FirstDeclared,
    ScriptedExhaustedError,
    Scripted,
    SeededRandom,
    SimState,
    SimulationError,
    StaticModel,
    TickSnapshot,
    build_behavior,
    define_event,
    eventize,
    init,
    race_report,
    run,
    step,
)
from tmkit.cli import main

import oracles
from conftest import make_random_behavior


def simple_events(names_durations):
    model = StaticModel()
    stage_ids = {}
    for name, _ in names_durations:
        mid = model.add_machine(f"host-{name}")
        stage_ids[name] = model.add_stage(mid, ActionKind.CREATE)
    model.freeze()
    return {
        name: define_event(model, name, [stage_ids[name]], duration=duration)[0]
        for name, duration in names_durations
    }


def graph_of(names_durations, decls):
    return build_behavior(simple_events(names_durations), decls)[0]


def live_at(trace, tick):
    return trace.ticks[tick].live


def archived_at(trace, tick):
    return trace.ticks[tick].archived


# -- hand table: the chewing loop --------------------------------------------


def test_eating_run_matches_hand_table(corpus):
    _, graph, _, _ = eventize(corpus["eating"])
    trace = run(graph, FirstDeclared(), horizon=20)

    assert live_at(trace, 0) == ("E1#1", "E2#1")
    assert archived_at(trace, 1) == ("E1#1", "E2#1")
    assert live_at(trace, 1) == ("E3#1",)
    assert live_at(trace, 2) == ("E4#1",)
    assert live_at(trace, 3) == ("E5#1",)
    assert live_at(trace, 4) == ("E6#1",)
    # the chewing loop alternates from here on
    for tick in range(5, 20, 2):
        gen = (tick - 3) // 2 + 1
        assert live_at(trace, tick) == (f"E5#{gen}",)
        if tick + 1 <= 20:
            assert live_at(trace, tick + 1) == (f"E6#{gen}",)
    assert trace.termination == "horizon"
    assert len(trace.ticks) == 21
    assert live_at(trace, 20) == ("E6#9",)
    assert len(trace.record) == 21
    assert oracles.presentism_violations(trace) == []
    assert oracles.cutoff_violations(graph, trace) == []
    assert oracles.repetition_violations(trace) == []


def test_ball_run_reaches_terminal(corpus):
    _, graph, _, _ = eventize(corpus["ball"])
    trace = run(graph, FirstDeclared(), horizon=10)
    assert [snap.live for snap in trace.ticks] == [
        ("Ej#1",),
        ("Ej#1",),
        ("Ej1#1",),
        ("Ej1#1",),
        (),
    ]
    assert trace.termination == "terminal-reached"
    assert [inst.iid for inst in trace.record] == ["Ej#1", "Ej1#1"]
    assert trace.record[0].end == 2
    assert trace.record[1].end == 4


# -- repetition ----------------------------------------------------------------


def test_bounded_self_repeat_drains_to_deadlock():
    graph = graph_of([("A", 1)], [BehaviorDecl("repeat", "A", ("A",), 3)])
    trace = run(graph, FirstDeclared(), horizon=10)
    assert trace.termination == "deadlock"
    assert [inst.iid for inst in trace.record] == ["A#1", "A#2", "A#3"]
    assert [inst.end for inst in trace.record] == [1, 2, 3]
    assert oracles.repetition_violations(trace) == []


def test_repeat_replaces_a_live_target():
    graph = graph_of(
        [("A", 3), ("B", 1)],
        [
            BehaviorDecl("concurrent", None, ("A", "B")),
            BehaviorDecl("repeat", "B", ("A",)),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    spans = oracles.lifespans(trace)
    assert spans["A#1"].end == 1  # replaced mid-flight by its successor
    assert spans["A#2"].start == 1 and spans["A#2"].end == 4
    assert oracles.repetition_violations(trace) == []
    assert trace.termination == "terminal-reached"


def test_unbounded_repeat_stops_once_a_terminal_event_finished():
    graph = graph_of(
        [("T", 2), ("F", 1)],
        [
            BehaviorDecl("concurrent", None, ("T", "F")),
            BehaviorDecl("repeat", "F", ("F",)),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=30)
    assert trace.termination == "terminal-reached"
    spans = oracles.lifespans(trace)
    assert {iid for iid in spans} == {"T#1", "F#1", "F#2"}
    assert len(trace.ticks) == 3


def test_bounded_repeat_runs_out_its_bound_after_terminal():
    graph = graph_of(
        [("T", 2), ("F", 1)],
        [
            BehaviorDecl("concurrent", None, ("T", "F")),
            BehaviorDecl("repeat", "F", ("F",), 5),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=30)
    assert trace.termination == "terminal-reached"
    spans = oracles.lifespans(trace)
    assert max(span.generation for span in spans.values() if span.event == "F") == 5
    assert len(trace.ticks) == 6  # fifth generation archives at tick 5


# -- joins and the cutoff ------------------------------------------------------


def test_or_join_starts_one_instance():
    graph = graph_of(
        [("A", 1), ("B", 1), ("C", 1)],
        [
            BehaviorDecl("concurrent", None, ("A", "B")),
            BehaviorDecl("seq", "A", ("C",)),
            BehaviorDecl("seq", "B", ("C",)),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    spans = oracles.lifespans(trace)
    assert sorted(spans) == ["A#1", "B#1", "C#1"]
    assert spans["C#1"].start == 1 and spans["C#1"].end == 2


def test_cutoff_archives_the_slow_predecessor():
    graph = graph_of(
        [("A", 5), ("C", 1), ("B", 1)],
        [
            BehaviorDecl("concurrent", None, ("A", "C")),
            BehaviorDecl("seq", "A", ("B",)),
            BehaviorDecl("seq", "C", ("B",)),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    spans = oracles.lifespans(trace)
    # B's arrival at tick 1 retires A on the spot, five planned ticks or not
    assert spans["B#1"].start == 1
    assert spans["A#1"].end == 1
    assert trace.termination == "terminal-reached"
    assert oracles.cutoff_violations(graph, trace) == []
    assert oracles.presentism_violations(trace) == []


# -- policies ------------------------------------------------------------------


def test_first_declared_takes_the_first_member():
    graph = graph_of(
        [("A", 1), ("B", 1), ("C", 1)],
        [BehaviorDecl("choice", "A", ("B", "C"))],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    assert trace.ticks[1].choices == (("c1", "B"),)
    assert "B#1" in live_at(trace, 1)


def test_events_completing_together_fire_in_name_order():
    # Z starts before A, but at tick 1 A's choice is taken first
    graph = graph_of(
        [("Z", 1), ("A", 1), ("P", 1), ("Q", 1), ("R", 1), ("S", 1)],
        [
            BehaviorDecl("concurrent", None, ("Z", "A")),
            BehaviorDecl("choice", "Z", ("P", "Q")),
            BehaviorDecl("choice", "A", ("R", "S")),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    assert trace.ticks[1].choices == (("c2", "R"), ("c1", "P"))
    state = step(init(graph, FirstDeclared()), graph, FirstDeclared())
    assert state.choices == (("c2", "R"), ("c1", "P"))


def test_seeded_choice_follows_the_stated_recurrence():
    # state' = (1664525 * state + 1013904223) mod 2^32; index = state' mod n
    graph = graph_of(
        [("A", 1), ("B", 1), ("C", 1), ("D", 1)],
        [BehaviorDecl("choice", "A", ("B", "C", "D"))],
    )
    seed = 7
    state = (1664525 * (seed % 2**32) + 1013904223) % 2**32
    expected = ("B", "C", "D")[state % 3]
    trace = run(graph, SeededRandom(seed), horizon=10)
    assert trace.ticks[1].choices == (("c1", expected),)
    assert trace.seed == 7 and trace.policy == "random"


def test_same_seed_same_story():
    graph = graph_of(
        [("A", 1), ("B", 1), ("C", 1), ("D", 2)],
        [
            BehaviorDecl("choice", "A", ("B", "C")),
            BehaviorDecl("seq", "B", ("D",)),
            BehaviorDecl("seq", "C", ("D",)),
        ],
    )
    first = run(graph, SeededRandom(99), horizon=10)
    second = run(graph, SeededRandom(99), horizon=10)
    assert first == second
    third = run(graph, SeededRandom(100), horizon=10)
    assert third.ticks != first.ticks or third.seed != first.seed


def test_scripted_follows_exhausts_and_rejects():
    decls = [
        BehaviorDecl("choice", "A", ("B", "C")),
        BehaviorDecl("choice", "B", ("D", "E")),
    ]
    durations = [("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E", 1)]

    followed = run(graph_of(durations, decls), Scripted(("B", "E")), horizon=10)
    assert followed.termination == "terminal-reached"
    assert followed.ticks[1].choices == (("c1", "B"),)
    assert followed.ticks[2].choices == (("c2", "E"),)
    assert followed.policy == "scripted:B,E"

    exhausted = run(graph_of(durations, decls), Scripted(("B",)), horizon=10)
    assert exhausted.termination == "scripted-exhausted"

    with pytest.raises(SimulationError):
        run(graph_of(durations, decls), Scripted(("Nope",)), horizon=10)


def test_scripted_exhaustion_at_the_starting_line():
    graph = graph_of(
        [("A", 1), ("B", 1)], [BehaviorDecl("choice", None, ("A", "B"))]
    )
    trace = run(graph, Scripted(()), horizon=10)
    assert trace.termination == "scripted-exhausted"
    assert trace.ticks == ()


def test_tick_zero_starts_groups_then_ungrouped_initials_once_each():
    # C is in the start choice, in the start fork and behind A; A is initial
    # and in no group. Starts go in order: the choice's pick, the fork's
    # members, then the ungrouped initial events; a second request is dropped.
    graph = graph_of(
        [("A", 3), ("B", 1), ("C", 2), ("D", 2)],
        [
            BehaviorDecl("choice", None, ("B", "C")),
            BehaviorDecl("concurrent", None, ("C", "D")),
            BehaviorDecl("seq", "A", ("C",)),
        ],
    )
    assert graph.initial == {"A", "B", "D"}
    seeded = (1664525 * 7 + 1013904223) % 2**32  # even: member 0, B
    c_first = {"C": ("C#1", "C", 1, 0, 2), "D": ("D#1", "D", 1, 0, 2), "A": ("A#1", "A", 1, 0, 3)}
    b_first = {"B": ("B#1", "B", 1, 0, 1), **c_first}
    for policy, entries, calendar, chosen, cursor in (
        (FirstDeclared(), b_first, [(1, ["B"]), (2, ["C", "D"]), (3, ["A"])], "B", 0),
        (SeededRandom(7), b_first, [(1, ["B"]), (2, ["C", "D"]), (3, ["A"])], "B", seeded),
        (Scripted(("C",)), c_first, [(2, ["C", "D"]), (3, ["A"])], "C", 1),
    ):
        state = init(graph, policy)
        assert list(state.entries.items()) == list(entries.items())
        assert list(state.calendar.items()) == calendar
        assert state.choices == (("c1", chosen),)
        assert state.cursor == cursor
        assert state.generations == dict.fromkeys(entries, 1)
        assert (state.tick, state.record, state.terminal_hit) == (0, (), False)
    with pytest.raises(ScriptedExhaustedError):
        init(graph, Scripted(()))


# -- engine mechanics ----------------------------------------------------------


def test_step_is_pure():
    graph = graph_of([("A", 2), ("B", 1)], [BehaviorDecl("seq", "A", ("B",))])
    state = init(graph, FirstDeclared())
    frozen_live = dict(state.live)
    frozen_tick = state.tick
    one = step(state, graph, FirstDeclared())
    two = step(state, graph, FirstDeclared())
    assert one == two
    assert state.tick == frozen_tick and state.live == frozen_live
    assert len(state.record) == 0
    # B starts at tick 1 and is due at tick 3, where C already is: the copy a
    # step advances must not share the input's calendar lists, nor its dicts.
    graph = graph_of([("A", 1), ("B", 2), ("C", 3)], [BehaviorDecl("seq", "A", ("B",))])
    state = init(graph, FirstDeclared())
    frozen = deepcopy(state)
    assert state.calendar == {1: ["A"], 3: ["C"]}
    one = step(state, graph, FirstDeclared())
    two = step(state, graph, FirstDeclared())
    assert one == two and one.calendar == {3: ["C", "B"]}
    assert state == frozen  # every field: calendar lists, entries, generations, record


def test_state_built_from_its_fields_completes_on_time():
    graph = graph_of([("A", 2)], [])
    state = SimState(0, {"A": ("A#1", "A", 1, 0, 2)}, (), {"A": 1}, 0, False, ())
    assert state.calendar == {2: ["A"]}  # derived from the entry: start + duration
    once = step(state, graph, FirstDeclared())
    assert once.record == () and once.entries == state.entries
    twice = step(once, graph, FirstDeclared())
    assert twice.record == (EventInstance("A#1", "A", 1, 0, 2, 2),)
    assert twice.entries == {} and twice.calendar == {}


def advance(state, graph, policy, ticks):
    for _ in range(ticks):
        if not state.live:
            break
        state = step(state, graph, policy)
    return state


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(1, 16))
def test_branches_from_one_state_keep_their_own_records(seed, prefix, length):
    rng = random.Random(seed)
    graph = make_random_behavior(rng)
    seeded = SeededRandom(rng.randrange(2**32))
    root = advance(init(graph, seeded), graph, seeded, prefix)
    before = root.record
    # Two histories from one state, choosing differently, stepped in turn.
    branches = {"first": (FirstDeclared(), root), "seeded": (seeded, root)}
    for _ in range(length):
        for key, (policy, state) in branches.items():
            branches[key] = (policy, advance(state, graph, policy, 1))
    assert root.record == before and len(root.record) == len(before)
    for policy, state in branches.values():
        alone = advance(advance(init(graph, seeded), graph, seeded, prefix), graph, policy, length)
        entries = state.record
        assert state.record == alone.record
        assert [i.iid for i in entries] == [i.iid for i in alone.record]
        assert len(state.record) == len(entries)
        assert list(entries) == sorted(entries, key=lambda i: (i.end, i.event, i.generation))
        assert entries[: len(before)] == before


def live_ids(state):
    return tuple(inst.iid for inst in sorted(state.live.values(), key=lambda i: (i.event, i.generation)))


def run_by_steps(graph, policy, horizon, state):
    """run()'s ticks after `state`, its termination and its record, worked
    out with step() alone; a policy error is returned, not raised."""
    ticks = []
    while state.live and state.tick < horizon:
        try:
            after = step(state, graph, policy)
        except ScriptedExhaustedError:
            return ticks, "scripted-exhausted", state.record
        except SimulationError as exc:
            return ticks, repr(exc), None
        archived = after.record[len(state.record) :]
        ticks.append(TickSnapshot(after.tick, live_ids(after), tuple(i.iid for i in archived), after.choices))
        state = after
    termination = "horizon" if state.live else "terminal-reached" if state.terminal_hit else "deadlock"
    return ticks, termination, state.record


def run_or_error(graph, policy, horizon):
    try:
        trace = run(graph, policy, horizon)
    except SimulationError as exc:
        return None, repr(exc)
    return trace, trace.termination


def diverging_script(graph, rng, horizon):
    """The picks of a random run under another seed, cut short at random and
    sometimes shuffled: the script may run dry or name an event that is not a
    member of the group it is asked about."""
    other = run(graph, SeededRandom(rng.randrange(2**32)), horizon)
    picks = [chosen for snap in other.ticks for _, chosen in snap.choices]
    if rng.random() < 0.5:
        rng.shuffle(picks)
    return Scripted(tuple(picks[: rng.randint(0, len(picks))]))


def random_case(seed, horizon, policy_kind):
    """A random graph and a policy of the given kind for it, with the random
    source that made them."""
    rng = random.Random(seed)
    graph = make_random_behavior(rng, endless=rng.random() < 0.3, start_groups=True)
    policy = {
        "first": FirstDeclared(),
        "random": SeededRandom(rng.randrange(2**32)),
        "script": diverging_script(graph, rng, horizon),
    }[policy_kind]
    return rng, graph, policy


def assert_step_folds_to_run(seed, horizon, policy_kind):
    """Folding step() from init() gives run()'s trace, and so does stepping a
    copy of a state taken mid-run. Returns the termination, the number of
    ticks, and whether the copy held an instance started before its tick."""
    rng, graph, policy = random_case(seed, horizon, policy_kind)
    trace, termination = run_or_error(graph, policy, horizon)
    try:
        state = init(graph, policy)
    except ScriptedExhaustedError:
        assert trace.ticks == () and termination == "scripted-exhausted"
        return termination, 0, False
    except SimulationError as exc:
        assert trace is None and termination == repr(exc)
        return termination, 0, False
    ticks, folded, entries = run_by_steps(graph, policy, horizon, state)
    assert folded == termination
    if trace is None:
        return termination, len(ticks) + 1, False
    assert (TickSnapshot(0, live_ids(state), (), state.choices), *ticks) == trace.ticks
    assert entries == trace.record
    # A state from mid-run, rebuilt from its fields alone, goes on as run() did.
    cut = rng.randint(0, len(ticks))
    for _ in range(cut):
        state = step(state, graph, policy)
    copy = SimState(
        state.tick,
        dict(state.entries),
        tuple(state.record),
        dict(state.generations),
        state.cursor,
        state.terminal_hit,
        state.choices,
    )
    rest, folded, entries = run_by_steps(graph, policy, horizon, copy)
    assert tuple(rest) == trace.ticks[cut + 1 :]
    assert (folded, entries) == (termination, trace.record)
    return termination, len(trace.ticks), any(i.start < copy.tick for i in copy.live.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from(("first", "random", "script")))
def test_step_folded_from_init_is_run(seed, horizon, policy_kind):
    assert_step_folds_to_run(seed, horizon, policy_kind)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.sampled_from(("first", "random", "script")))
def test_record_lists_each_tick_archive_in_tick_order(seed, horizon, policy_kind):
    _, graph, policy = random_case(seed, horizon, policy_kind)
    trace, _ = run_or_error(graph, policy, horizon)
    if trace is None:
        return
    archived_at = {iid: snap.tick for snap in trace.ticks for iid in snap.archived}
    assert [i.iid for i in trace.record] == [iid for snap in trace.ticks for iid in snap.archived]
    assert all(i.end == archived_at[i.iid] for i in trace.record)


def test_the_fold_meets_every_termination():
    found = [
        assert_step_folds_to_run(seed, 1 + seed % 30, policy_kind)
        for seed in range(60)
        for policy_kind in ("first", "random", "script")
    ]
    assert {"horizon", "terminal-reached", "deadlock"} <= {termination for termination, _, _ in found}
    assert any(termination == "scripted-exhausted" and ticks > 1 for termination, ticks, _ in found)
    assert any(started_earlier for _, _, started_earlier in found)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"generation": 0}, "malformed instance A#1"),
        ({"duration": 0}, "malformed instance A#1"),
        ({"start": -1}, "malformed instance A#1"),
        ({"start": 4, "end": 4}, "instance A#1 archived at or before its start"),
    ],
)
def test_event_instance_refuses_malformed_fields(fields, message):
    kwargs = {"iid": "A#1", "event": "A", "generation": 1, "start": 0, "duration": 1, **fields}
    with pytest.raises(ValueError, match=message):
        EventInstance(**kwargs)
    with pytest.raises(ValueError, match=message):  # a copy with changed fields is checked too
        EventInstance("A#1", "A", 1, 0, 1)._replace(**fields)


def test_event_instance_is_an_immutable_value():
    live = EventInstance(iid="A#1", event="A", generation=1, start=0, duration=2)
    assert live.end is None
    assert (live.iid, live.event, live.generation, live.start, live.duration) == ("A#1", "A", 1, 0, 2)
    with pytest.raises(AttributeError):
        live.end = 2
    done = EventInstance("A#1", "A", 1, 0, 2, 2)
    assert done == EventInstance(iid="A#1", event="A", generation=1, start=0, duration=2, end=2)
    assert hash(done) == hash(EventInstance("A#1", "A", 1, 0, 2, 2))
    assert done != live and len({done, live, EventInstance("A#1", "A", 1, 0, 2, 2)}) == 2
    assert repr(done) == "EventInstance(iid='A#1', event='A', generation=1, start=0, duration=2, end=2)"


def test_step_refuses_an_empty_world():
    graph = graph_of([("A", 1)], [])
    state = init(graph, FirstDeclared())
    state = step(state, graph, FirstDeclared())
    assert not state.live
    with pytest.raises(SimulationError):
        step(state, graph, FirstDeclared())


def test_run_validates_horizon():
    graph = graph_of([("A", 1)], [])
    with pytest.raises(ValueError):
        run(graph, FirstDeclared(), horizon=0)


@pytest.mark.parametrize("value", [2.5, True, False, "3"])
def test_a_horizon_or_seed_that_is_not_an_int_is_refused(value):
    # The trace holds both as JSON integers, so anything else would break
    # TRACE_SCHEMA, or the generator mid-run.
    graph = graph_of([("A", 1)], [])
    with pytest.raises(ValueError, match="horizon must be an integer"):
        run(graph, FirstDeclared(), value)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run(graph, FirstDeclared(), 2, seed=value)
    with pytest.raises(ValueError, match="seed must be an integer"):
        SeededRandom(value)
    assert run(graph, SeededRandom(-3), 2, seed=None).seed == -3


def test_state_presentism_self_check():
    graph = graph_of([("A", 1), ("B", 1)], [BehaviorDecl("seq", "A", ("B",))])
    state = init(graph, FirstDeclared())
    while state.live:
        assert oracles.state_presentism_violations(state) == []
        state = step(state, graph, FirstDeclared())
    assert oracles.state_presentism_violations(state) == []
    assert len(state.record) == 2


def test_state_presentism_oracle_rejects_a_broken_state():
    graph = graph_of([("A", 1), ("B", 1)], [BehaviorDecl("seq", "A", ("B",))])
    state = step(init(graph, FirstDeclared()), graph, FirstDeclared())
    (archived,) = state.record
    both = replace(state, record=(archived, archived._replace(iid="B#1", event="B")))
    assert oracles.state_presentism_violations(both) == ["B#1: both live and recorded"]
    lost = replace(state, record=())
    assert oracles.state_presentism_violations(lost) == ["1 instances live or recorded, 2 created"]


# -- races ---------------------------------------------------------------------


def race_fixture():
    return graph_of(
        [("R1", 1), ("R2", 1), ("R3", 1), ("R4", 1), ("F", 1)],
        [
            BehaviorDecl("concurrent", None, ("R1", "F")),
            BehaviorDecl("seq", "R1", ("R2",)),
            BehaviorDecl("seq", "R2", ("R3",)),
            BehaviorDecl("seq", "R3", ("R4",)),
            BehaviorDecl("repeat", "F", ("F",), 6),
        ],
    )


def test_race_margin_matches_hand_table():
    graph = race_fixture()
    trace = run(graph, FirstDeclared(), horizon=30)
    report = race_report(graph, trace, "R1", "F")
    assert report.finish_a == 4
    assert report.finish_b == 6
    assert report.winner == "R1"
    assert report.margin == 2
    assert not report.tie


def test_race_requires_concurrent_roots():
    graph = race_fixture()
    trace = run(graph, FirstDeclared(), horizon=30)
    with pytest.raises(SimulationError):
        race_report(graph, trace, "R2", "F")


def test_race_tie():
    graph = graph_of(
        [("X", 2), ("Y", 2)],
        [BehaviorDecl("concurrent", None, ("X", "Y"))],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    report = race_report(graph, trace, "X", "Y")
    assert report.tie and report.winner is None and report.margin == 0
    assert report.finish_a == report.finish_b == 2


def test_race_with_an_unfinished_stream():
    graph = graph_of(
        [("X", 2), ("Y", 2), ("Z", 9)],
        [
            BehaviorDecl("concurrent", None, ("X", "Y")),
            BehaviorDecl("seq", "Y", ("Z",)),
        ],
    )
    partial = run(graph, FirstDeclared(), horizon=4)  # Z still going
    report = race_report(graph, partial, "X", "Y")
    assert report.finish_a == 2 and report.finish_b is None
    assert report.winner == "X" and report.margin is None


def test_race_with_only_stream_b_or_neither_finished():
    graph = graph_of(
        [("X", 2), ("Y", 2), ("Z", 9)],
        [
            BehaviorDecl("concurrent", None, ("X", "Y")),
            BehaviorDecl("seq", "Y", ("Z",)),
        ],
    )

    def outcome(report):
        return report.finish_a, report.finish_b, report.winner, report.margin, report.tie

    only_b = race_report(graph, run(graph, FirstDeclared(), horizon=4), "Y", "X")  # Z still going
    assert outcome(only_b) == (None, 2, "X", None, False)
    neither = race_report(graph, run(graph, FirstDeclared(), horizon=1), "X", "Y")  # X and Y still going
    assert outcome(neither) == (None, None, None, None, False)


def test_disaster_race_report(corpus):
    _, graph, _, _ = eventize(corpus["disaster"])
    trace = run(graph, Scripted(("Es2",)), horizon=30, seed=7)
    assert trace.termination == "terminal-reached"
    assert len(trace.ticks) == 17
    assert len(trace.record) == 36
    report = race_report(graph, trace, "Erespond", "Efiregrow")
    assert (report.finish_a, report.finish_b) == (12, 16)
    assert report.winner == "Erespond" and report.margin == 4


def test_digest_is_stable_and_sensitive():
    graph = race_fixture()
    assert tmkit.behavior_digest(graph) == tmkit.behavior_digest(race_fixture())
    other = graph_of(
        [("R1", 1), ("R2", 1), ("R3", 1), ("R4", 1), ("F", 2)],
        [
            BehaviorDecl("concurrent", None, ("R1", "F")),
            BehaviorDecl("seq", "R1", ("R2",)),
            BehaviorDecl("seq", "R2", ("R3",)),
            BehaviorDecl("seq", "R3", ("R4",)),
            BehaviorDecl("repeat", "F", ("F",), 6),
        ],
    )
    assert tmkit.behavior_digest(graph) != tmkit.behavior_digest(other)


# -- golden traces -------------------------------------------------------------

# Shaped like the long-horizon benchmark model: a concurrent fork, an unbounded
# repeat loop L1 -> L2 -> L3 -> L1 and a bounded self-repeat B that ends early,
# so the run has archiving ticks, idle ticks and a shrinking live set.
LONG_RUN = """
machine m0 { stage create; stage process; stage release; }
machine m1 { stage create; stage process; stage release; }
machine m2 { stage create; stage process; stage release; }
machine m3 { stage create; stage process; stage release; }
machine m4 { stage create; stage process; stage release; }
flow: m0.create -> m0.process;
flow: m0.process -> m0.release;
flow: m1.create -> m1.process;
flow: m1.process -> m1.release;
flow: m2.create -> m2.process;
flow: m2.process -> m2.release;
flow: m3.create -> m3.process;
flow: m3.process -> m3.release;
flow: m4.create -> m4.process;
flow: m4.process -> m4.release;
region r0 = { m0 };
region r1 = { m1 };
region r2 = { m2 };
region r3 = { m3 };
region r4 = { m4 };
event S on r0 duration 2;
event L1 on r1 duration 3;
event L2 on r2 duration 1;
event L3 on r3 duration 2;
event B on r4 duration 2;
behavior {
  S -> concurrent { L1, B };
  L1 -> L2;
  L2 -> L3;
  repeat L3 -> L1;
  repeat B bound 3000;
}
"""

# sha256 of the CLI's stdout and of the trace file it writes, recorded from
# the tick kernel before it was reworked: any change to the run's semantics or
# to the trace bytes shows up here.
GOLDEN_TRACES = [
    (
        "eating --policy first --horizon 1000",
        "4c0680bb36741f6b462dc1ee49e7b16e70dc76e71dfb84f39e107e79443ee346",
        "31c3f34bd9e24f5a6b0acb90d05d98b0d0b64e7f977593e82393a98dd03b1e59",
    ),
    (
        "eating --policy random --seed 3 --horizon 1000",
        "4c0680bb36741f6b462dc1ee49e7b16e70dc76e71dfb84f39e107e79443ee346",
        "6afb72e488f1b2bb44974776295f0d0e1a3fe785ad99e399df37309c89d5552f",
    ),
    (
        "eating --policy random --seed 99 --horizon 1000",
        "4c0680bb36741f6b462dc1ee49e7b16e70dc76e71dfb84f39e107e79443ee346",
        "361518a8300fe4a0e3f04c155cb3f2de498669915b4b193403de1c82d9d3356f",
    ),
    (
        "ball --policy first --horizon 1000",
        "44f324caa2fb1d5670b95d69e89e2716e0d51616e55ffbdf87ec1f22e78bd7f1",
        "4afb2db79d8b4e818fb84ec938cf125476204a4fd4d252b8c9aa8e4527bc3566",
    ),
    (
        "ball --policy random --seed 3 --horizon 1000",
        "44f324caa2fb1d5670b95d69e89e2716e0d51616e55ffbdf87ec1f22e78bd7f1",
        "13f735bb070e6fba448843bb43c0221c9ccf9de5ea59ed39c476ceb952d1712a",
    ),
    (
        "ball --policy random --seed 99 --horizon 1000",
        "44f324caa2fb1d5670b95d69e89e2716e0d51616e55ffbdf87ec1f22e78bd7f1",
        "7a944b65f97bc25acff4f79fa17db57241866fc3abc67d065d8a450167faa79c",
    ),
    (
        "disaster --policy first --horizon 1000",
        "d6b8c00a0f7f2e8b90eea7d7d35ef57d609e731926d7e093a242d3bfcf4d6adf",
        "ae0a0c7bb9459027d03c76b8f46f4f2429af6778bcab6d93ed5348e421cb608b",
    ),
    (
        "disaster --policy random --seed 3 --horizon 1000",
        "d6b8c00a0f7f2e8b90eea7d7d35ef57d609e731926d7e093a242d3bfcf4d6adf",
        "d73b4546a8d6789b91307a35b2bd38d4be5d2f0b644c0060bc9b2aa463eeee57",
    ),
    (
        "disaster --policy random --seed 99 --horizon 1000",
        "d6b8c00a0f7f2e8b90eea7d7d35ef57d609e731926d7e093a242d3bfcf4d6adf",
        "844dd1225e5ec95ba38bcdaa1ccd5fb5ef6b6a86840b4f3388ba17feabc4a4f6",
    ),
    (
        "disaster --policy scripted:Es2 --seed 7 --horizon 30",
        "23e345770c09f63a17f88175a1ccc38f91197211c76d8d15ddacecc4dee6a9e8",
        "7253dc9888809f90f66bc9d257a12e7164d7c518ab4e749e476658de657d1422",
    ),
    (
        "long --policy first --horizon 10000",
        "9b404a8cc9b9beb763b6bb32744eb1f6704337264e39a488271f3e773ca03f0d",
        "9156008a1b0a3a58f018ba563decc4149a115b65b9ea6caee4060aa8b4729cda",
    ),
]


@pytest.mark.parametrize(
    "command, stdout_sha, trace_sha", GOLDEN_TRACES, ids=[row[0] for row in GOLDEN_TRACES]
)
def test_simulate_output_matches_its_golden_digest(command, stdout_sha, trace_sha, tmp_path, monkeypatch, capsys):
    name, *options = command.split()
    text = LONG_RUN if name == "long" else tmkit.corpus_text(name)
    (tmp_path / f"{name}.tm").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", f"{name}.tm", *options, "--trace", "trace.json"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    trace = (tmp_path / "trace.json").read_bytes()
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha
    assert hashlib.sha256(trace).hexdigest() == trace_sha
