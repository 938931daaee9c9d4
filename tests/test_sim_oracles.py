"""The simulator's guarantees, checked by the independent oracles under every
choice policy: many small random graphs, and a seeded tier of hundreds of
events run for thousands of ticks. The oracles are also fed traces known to
be wrong, which they must reject.
"""
from __future__ import annotations

import random
from dataclasses import replace

from tmkit import (
    BehaviorDecl,
    FirstDeclared,
    Scripted,
    SeededRandom,
    SimTrace,
    run,
)

import oracles
from conftest import make_random_behavior
from test_sim import graph_of


def violations(graph, trace, policy) -> list[str]:
    return [
        *oracles.presentism_violations(trace),
        *oracles.cutoff_violations(graph, trace),
        *oracles.repetition_violations(trace),
        *oracles.duration_violations(graph, trace),
        *oracles.choice_violations(graph, trace),
        *oracles.terminal_stop_violations(graph, trace),
        *oracles.policy_violations(trace, graph, policy),
    ]


def diverging_script(rng: random.Random, graph, trace: SimTrace) -> tuple[Scripted, int]:
    """A script that repeats `trace`'s choices up to a random one, names any
    member of that group there, and stops; and the tick of that choice. It
    never names a non-member, so a run under it follows `trace` up to that
    tick and then diverges or runs dry."""
    taken = [(snap.tick, gid, chosen) for snap in trace.ticks for gid, chosen in snap.choices]
    if not taken:
        return Scripted(()), len(trace.ticks)
    cut = rng.randrange(len(taken))
    tick, gid, _ = taken[cut]
    members = next(group.members for group in graph.groups if group.group_id == gid)
    script = tuple(chosen for _, _, chosen in taken[:cut]) + (rng.choice(members),)
    return Scripted(script), tick


def seeded_and_scripted(rng: random.Random, graph, horizon: int):
    """(policy, trace) under a random seed and under a script that diverges
    from that run; the scripted trace matches the seeded one before that."""
    seeded = SeededRandom(rng.randrange(2**32))
    seeded_trace = run(graph, seeded, horizon)
    script, tick = diverging_script(rng, graph, seeded_trace)
    scripted_trace = run(graph, script, horizon)
    assert scripted_trace.ticks[:tick] == seeded_trace.ticks[:tick]
    return [(seeded, seeded_trace), (script, scripted_trace)]


def test_oracles_hold_under_every_policy():
    rng = random.Random(0x0AC1E)
    problems: list[str] = []
    terminations: set[str] = set()
    starts = 0
    for _ in range(300):
        graph = make_random_behavior(rng, start_groups=True)
        starts += bool(graph.start_groups())
        horizon = rng.randint(4, 24)
        runs = [(FirstDeclared(), run(graph, FirstDeclared(), horizon))]
        for policy, trace in runs + seeded_and_scripted(rng, graph, horizon):
            problems.extend(violations(graph, trace, policy))
            terminations.add(trace.termination)
    assert problems == []
    assert terminations == {"horizon", "terminal-reached", "deadlock", "scripted-exhausted"}
    assert starts >= 100


def test_oracles_hold_on_the_larger_seeded_tier():
    """Hundreds of events, no terminal one, two thousand ticks: about 10**5
    instances in the seeded run. FirstDeclared is left to the tier above."""
    rng = random.Random(0x1A46E)
    graph = make_random_behavior(rng, max_events=240, min_events=200, endless=True, start_groups=True)
    assert not graph.terminal and len(graph.groups) >= 20 and graph.start_groups()
    (seeded, trace), (script, scripted_trace) = seeded_and_scripted(rng, graph, 2000)
    assert trace.termination == "horizon" and len(trace.ticks) == 2001
    assert violations(graph, trace, seeded) == []
    assert violations(graph, scripted_trace, script) == []


# -- the oracles reject wrong traces ----------------------------------------


def choice_graph():
    return graph_of(
        [("A", 2), ("B", 1), ("C", 1)],
        [BehaviorDecl("choice", "A", ("B", "C"))],
    )


def test_duration_oracle_rejects_early_and_late_ends():
    graph = choice_graph()
    trace = run(graph, FirstDeclared(), horizon=10)
    assert oracles.duration_violations(graph, trace) == []
    ticks = list(trace.ticks)
    # A#1 archived at tick 1 with nothing arriving then: it ended early.
    early = [ticks[0], replace(ticks[1], live=(), archived=("A#1",))]
    assert oracles.duration_violations(graph, replace(trace, ticks=tuple(early)))
    # A#1 still live at tick 2, when its two ticks were up.
    late = [*ticks[:2], replace(ticks[2], live=("A#1", "B#1"), archived=())]
    assert oracles.duration_violations(graph, replace(trace, ticks=tuple(late)))


def test_choice_oracle_rejects_missing_extra_and_foreign_choices():
    graph = choice_graph()
    trace = run(graph, FirstDeclared(), horizon=10)
    assert trace.ticks[2].choices == (("c1", "B"),)
    assert oracles.choice_violations(graph, trace) == []
    for choices in ((), (("c1", "B"), ("c1", "C")), (("c1", "A"),)):
        ticks = list(trace.ticks)
        ticks[2] = replace(ticks[2], choices=choices)
        assert oracles.choice_violations(graph, replace(trace, ticks=tuple(ticks)))
    ticks = list(trace.ticks)
    ticks[1] = replace(ticks[1], choices=(("c1", "B"),))  # A has not completed
    assert oracles.choice_violations(graph, replace(trace, ticks=tuple(ticks)))


def test_choice_oracle_checks_start_groups():
    fork = graph_of([("X", 1), ("Y", 1)], [BehaviorDecl("concurrent", None, ("X", "Y"))])
    trace = run(fork, FirstDeclared(), horizon=5)
    assert oracles.choice_violations(fork, trace) == []
    half = replace(trace.ticks[0], live=("X#1",))
    assert oracles.choice_violations(fork, replace(trace, ticks=(half, *trace.ticks[1:])))

    pick = graph_of([("X", 1), ("Y", 1)], [BehaviorDecl("choice", None, ("X", "Y"))])
    trace = run(pick, FirstDeclared(), horizon=5)
    assert trace.ticks[0].choices == (("c1", "X"),)
    assert oracles.choice_violations(pick, trace) == []
    unresolved = replace(trace.ticks[0], choices=())
    assert oracles.choice_violations(pick, replace(trace, ticks=(unresolved, *trace.ticks[1:])))


def test_terminal_stop_oracle_rejects_a_repeat_after_the_terminal_event():
    graph = graph_of(
        [("T", 2), ("F", 1)],
        [BehaviorDecl("concurrent", None, ("T", "F")), BehaviorDecl("repeat", "F", ("F",))],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    assert [snap.live for snap in trace.ticks] == [("F#1", "T#1"), ("F#2", "T#1"), ()]
    assert oracles.terminal_stop_violations(graph, trace) == []
    # T#1 completes at tick 2, and so does F#2: its repeat must not start F#3.
    ticks = list(trace.ticks)
    ticks[2] = replace(ticks[2], live=("F#3",))
    assert oracles.terminal_stop_violations(graph, replace(trace, ticks=tuple(ticks)))
    # A sequence edge whose source completes then accounts for the start.
    graph = graph_of(
        [("T", 2), ("F", 1), ("X", 1), ("Y", 1)],
        [
            BehaviorDecl("concurrent", None, ("T", "F")),
            BehaviorDecl("repeat", "F", ("F",)),
            BehaviorDecl("seq", "Y", ("X",)),
            BehaviorDecl("seq", "X", ("F",)),
        ],
    )
    trace = run(graph, FirstDeclared(), horizon=10)
    assert "F#3" in trace.ticks[2].live
    assert oracles.terminal_stop_violations(graph, trace) == []


def test_policy_oracle_rejects_choices_the_policy_would_not_make():
    graph = choice_graph()
    trace = run(graph, FirstDeclared(), horizon=10)  # takes B
    assert oracles.policy_violations(trace, graph, FirstDeclared()) == []
    assert oracles.policy_violations(trace, graph, Scripted(("B",))) == []
    assert oracles.policy_violations(trace, graph, Scripted(("C",)))
    assert oracles.policy_violations(trace, graph, Scripted(()))
    # From seed 0 the stated LCG's first state is 1013904223, which is odd: C.
    assert oracles.policy_violations(trace, graph, SeededRandom(0))
    assert oracles.policy_violations(run(graph, SeededRandom(0), 10), graph, SeededRandom(0)) == []
