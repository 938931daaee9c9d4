"""Deterministic discrete-tick execution of behavior graphs.

Lifecycle of an event instance:

  * instantiation at tick t: the transfer->receive of the instance fires, the
    instance is initiated and live at tick t;
  * it then processes for `duration` ticks, so an instance started at tick s
    completes during the step that advances the clock to s + duration;
  * completion archives it (end = s + duration) into the append-only record;
  * an instance is also archived early, mid-processing, when a successor
    event's receive erupts: its end is the successor's receive tick (cutoff).

One tick function, _tick, carries these semantics, and one state, SimState, is
what it advances in place: the live entries (event -> the fields of its live
instance), the per-event generation counts, the policy's cursor (the rng state
under SeededRandom, the next script index under Scripted, 0 under
FirstDeclared) and the terminal flag. _tick completes what falls due, and
_fire makes every choice and start. Tick 0 is the completion of the start, the
source-less event whose actions are BehaviorGraph._actions[None]: init() is
the empty tick-0 state plus one _fire of the start. The due-tick calendar
(tick -> events that may complete at it) is not passed in: a state builds it
from its entries, each at start + duration, and _fire adds each start to it;
the entry of an instance archived early is skipped when its tick comes. _tick
builds an EventInstance only when it archives one; state.live builds the live
ones on read. step() is pure: it advances a copy, with its own dicts and
calendar, and never mutates its input. run() advances the state init() made,
with no new state per tick. A tick for which the calendar holds nothing costs
one dict pop. A tick that archives nothing starts nothing either, so run()
then hands on the previous live tuple: ticks[i].live may be the very tuple
object of ticks[i-1].live.

The record is a tuple of archived instances in record order, (end, event,
generation). step() returns a state with a longer tuple and never changes the
one it was given, so histories that branch from one state stay independent.
run() gathers the whole run's archive in one flat list and makes it the record
at the end, so a run allocates per archived instance, not per tick. An
EventInstance is a tuple (a NamedTuple whose constructor checks its fields),
cheaper to build than a frozen dataclass. All iteration is over sorted or
declared orders, so runs are bit-reproducible.

On completion of an instance, its event's outbound edges fire in declaration
order: Sequence instantiates the target; Choice asks the policy for one member
of the group; Concurrent instantiates every member; Repeat instantiates the
next generation of its target, replacing (archiving) a still-live previous
generation. An event holds at most one live instance: duplicate requests in a
tick are dropped. Repeat edges stop firing when their bound is exhausted, and
unbounded repeats stop once some terminal event has completed, which resolves
races between repeating streams and finite streams.

Choice policies:

  FirstDeclared   always the first member in declared order
  SeededRandom    a 32-bit linear congruential generator drives the pick:
                  state' = (1664525 * state + 1013904223) mod 2**32, starting
                  from the seed; the chosen index is state' mod len(members).
                  The generator is fixed here, independent of any library, so
                  traces reproduce across implementations and languages.
  Scripted        consumes a fixed list of event names; running out of script
                  or naming a non-member raises ScriptedExhaustedError /
                  SimulationError.

run() iterates until the live set empties (termination "terminal-reached" if
a terminal event ever completed, else "deadlock"), the horizon tick is reached
("horizon"), or the script runs dry ("scripted-exhausted").
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, NamedTuple

from tmkit.events import BehaviorEdgeKind, BehaviorGraph, Group

LCG_MULTIPLIER = 1664525
LCG_INCREMENT = 1013904223
LCG_MODULUS = 1 << 32


class SimulationError(Exception):
    pass


class ScriptedExhaustedError(SimulationError):
    pass


def _check_int(what: str, value: object) -> None:
    """ValueError unless `value` is an int and not a bool: a trace holds it as a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


class _InstanceFields(NamedTuple):
    iid: str  # "<event>#<generation>"
    event: str
    generation: int
    start: int  # receive tick
    duration: int
    end: int | None = None  # archive tick


class EventInstance(_InstanceFields):
    """One instance of an event, live (end None) or archived. A tuple, which
    is cheap to build; the constructor checks the fields."""

    __slots__ = ()

    def __new__(
        cls, iid: str, event: str, generation: int, start: int, duration: int, end: int | None = None
    ) -> EventInstance:
        if generation < 1 or duration < 1 or start < 0:
            raise ValueError(f"malformed instance {iid}")
        if end is not None and end <= start:
            raise ValueError(f"instance {iid} archived at or before its start")
        return tuple.__new__(cls, (iid, event, generation, start, duration, end))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> EventInstance:
        """_replace builds its copy here, so a copy is checked too."""
        return cls(*iterable)


@dataclass(frozen=True, slots=True)
class FirstDeclared:
    def describe(self) -> str:
        return "first"


@dataclass(frozen=True, slots=True)
class SeededRandom:
    seed: int

    def __post_init__(self) -> None:
        _check_int("seed", self.seed)

    def describe(self) -> str:
        return "random"


@dataclass(frozen=True, slots=True)
class Scripted:
    script: tuple[str, ...]

    def describe(self) -> str:
        return "scripted:" + ",".join(self.script)


ChoicePolicy = FirstDeclared | SeededRandom | Scripted


@dataclass(slots=True)
class SimState:
    """One instant of a run, the state that _tick advances in place. step()
    advances a copy; run() advances the one init() made. The calendar is
    built from the entries, not passed in."""

    tick: int
    entries: dict[str, tuple[str, str, int, int, int]]  # event -> its live instance: EventInstance's fields but end
    calendar: dict[int, list[str]] = field(init=False)  # tick -> events that may complete at it
    record: tuple[EventInstance, ...]  # archived instances, in record order
    generations: dict[str, int]  # instances ever created, per event
    cursor: int  # the policy's position: rng state, next script index, or 0
    terminal_hit: bool
    choices: tuple[tuple[str, str], ...]  # (group id, chosen) taken this tick

    def __post_init__(self) -> None:
        self.calendar = {}
        for _, event, _, start, duration in self.entries.values():
            self.calendar.setdefault(start + duration, []).append(event)

    @property
    def live(self) -> dict[str, EventInstance]:
        """Event name -> its single live instance, built on read."""
        return {event: EventInstance(*entry) for event, entry in self.entries.items()}


@dataclass(frozen=True, slots=True)
class TickSnapshot:
    tick: int
    live: tuple[str, ...]  # live instance ids after this tick
    archived: tuple[str, ...]  # instance ids archived during this tick
    choices: tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class SimTrace:
    policy: str
    seed: int | None
    horizon: int
    ticks: tuple[TickSnapshot, ...]
    termination: str
    record: tuple[EventInstance, ...]


def _choose(policy: ChoicePolicy, group: Group, cursor: int) -> tuple[str, int]:
    members = group.members
    if isinstance(policy, FirstDeclared):
        return members[0], cursor
    if isinstance(policy, SeededRandom):
        cursor = (LCG_MULTIPLIER * cursor + LCG_INCREMENT) % LCG_MODULUS
        return members[cursor % len(members)], cursor
    if cursor >= len(policy.script):
        raise ScriptedExhaustedError(
            f"script exhausted at choice {group.group_id} among {members}"
        )
    chosen = policy.script[cursor]
    if chosen not in members:
        raise SimulationError(
            f"scripted choice {chosen!r} is not a member of {group.group_id} {members}"
        )
    return chosen, cursor + 1


_EVENT = attrgetter("event")
_IID = attrgetter("iid")


def init(behavior: BehaviorGraph, policy: ChoicePolicy) -> SimState:
    """Tick 0: the start completes, and its actions fire as a completion's do."""
    cursor = policy.seed % LCG_MODULUS if isinstance(policy, SeededRandom) else 0
    state = SimState(0, {}, (), {}, cursor, False, ())
    _fire(state, behavior, policy, (None,), [])
    return state


def _tick(state: SimState, behavior: BehaviorGraph, policy: ChoicePolicy) -> list[EventInstance]:
    """Advance `state` one tick in place: complete, fire successors, cut off,
    archive. Returns the instances archived, in record order; adding them to
    the record is the caller's job. A calendar entry whose instance has left
    `state.entries`, or has not run its duration, is skipped. Raises what the
    policy raises, with `state` part-changed."""
    t = state.tick = state.tick + 1
    due = state.calendar.pop(t, None)
    if due is None:
        state.choices = ()
        return []
    live = state.entries
    completed = [event for event in due if event in live and t - live[event][3] >= live[event][4]]
    if not completed:
        state.choices = ()
        return completed
    completed.sort()
    archived = [EventInstance(*live.pop(event), t) for event in completed]
    state.terminal_hit = state.terminal_hit or not behavior.terminal.isdisjoint(completed)
    _fire(state, behavior, policy, completed, archived)
    archived.sort(key=_EVENT)  # an event is archived at most once per tick
    return archived


def _fire(
    state: SimState,
    behavior: BehaviorGraph,
    policy: ChoicePolicy,
    sources: Iterable[str | None],
    archived: list[EventInstance],
) -> None:
    """Fire the actions of `sources`, in order, at state.tick: start each
    requested event, replacing or cutting off as the rules say, and append
    what that archives to `archived`. The source None is the start."""
    # Gather instantiation requests in deterministic order.
    actions = behavior._actions
    generations = state.generations
    cursor = state.cursor
    choices: list[tuple[str, str]] = []
    requests: list[tuple[str, bool]] = []  # (event, via repeat)
    for event in sources:
        for kind, target, arg in actions.get(event, ()):
            if kind == "choice":
                chosen, cursor = _choose(policy, arg, cursor)
                choices.append((arg.group_id, chosen))
                requests.append((chosen, False))
            elif kind != "repeat":  # sequence, concurrent
                requests.append((target, False))
            elif arg is not None and generations.get(target, 0) >= arg:
                continue  # bound exhausted: the stream ends
            elif arg is None and state.terminal_hit:
                continue  # race resolved: a terminal event has completed
            else:
                requests.append((target, True))
    state.cursor, state.choices = cursor, tuple(choices)

    t = state.tick
    live = state.entries
    durations = behavior._durations
    predecessors = behavior._predecessors
    for target, via_repeat in requests:
        previous = live.get(target)
        if previous is not None:
            if previous[3] == t or not via_repeat:
                continue  # started this tick, or already live: one instance per event
            # Repeat replaces: archive the previous generation at the new receive.
            del live[target]
            archived.append(EventInstance(*previous, t))
        generation = generations[target] = generations.get(target, 0) + 1
        duration = durations[target]
        live[target] = (f"{target}#{generation}", target, generation, t, duration)
        state.calendar.setdefault(t + duration, []).append(target)
        # Cutoff: the new receive archives still-processing predecessors.
        for pred in predecessors.get(target, ()):
            old = live.get(pred)
            if old is not None and old[3] < t:
                del live[pred]
                archived.append(EventInstance(*old, t))


def _live_ids(entries: dict[str, tuple[str, str, int, int, int]]) -> tuple[str, ...]:
    return tuple([entries[event][0] for event in sorted(entries)])


def step(state: SimState, behavior: BehaviorGraph, policy: ChoicePolicy) -> SimState:
    """Advance one tick: complete, fire successors, cut off, archive."""
    if not state.entries:
        raise SimulationError("nothing is live; the run has ended")
    after = replace(state, entries=dict(state.entries), generations=dict(state.generations))
    after.record += tuple(_tick(after, behavior, policy))
    return after


def run(behavior: BehaviorGraph, policy: ChoicePolicy, horizon: int, seed: int | None = None) -> SimTrace:
    """Run to termination or horizon and return the full trace. ValueError
    unless the horizon is an int from 1 and the seed None or an int."""
    _check_int("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if seed is not None:
        _check_int("seed", seed)
    trace_seed = policy.seed if isinstance(policy, SeededRandom) else seed
    try:
        state = init(behavior, policy)
    except ScriptedExhaustedError:
        return SimTrace(policy.describe(), trace_seed, horizon, (), "scripted-exhausted", ())
    live = state.entries
    live_ids = _live_ids(live)
    snapshots = [TickSnapshot(0, live_ids, (), state.choices)]
    flat: list[EventInstance] = []  # every tick's archive, in record order
    while live and state.tick < horizon:
        try:
            archived = _tick(state, behavior, policy)
        except ScriptedExhaustedError:
            termination = "scripted-exhausted"
            break
        if archived:
            flat += archived
            live_ids = _live_ids(live)
            snapshots.append(TickSnapshot(state.tick, live_ids, tuple(map(_IID, archived)), state.choices))
        else:  # nothing completed, so nothing started: the live set is the same
            snapshots.append(TickSnapshot(state.tick, live_ids, (), ()))
    else:
        termination = "horizon" if live else "terminal-reached" if state.terminal_hit else "deadlock"
    return SimTrace(policy.describe(), trace_seed, horizon, tuple(snapshots), termination, tuple(flat))


@dataclass(frozen=True, slots=True)
class RaceReport:
    """Which of two concurrent streams finished first, and by how many ticks."""

    stream_a: str
    stream_b: str
    finish_a: int | None
    finish_b: int | None
    winner: str | None
    margin: int | None
    tie: bool


def race_report(behavior: BehaviorGraph, trace: SimTrace, stream_a: str, stream_b: str) -> RaceReport:
    """Compare two streams rooted at members of concurrent forks.

    A stream is every event reachable from its root along behavior edges. It is
    finished when the trace holds at least one of its instances and none is
    live at the end; its finish tick is the last archive tick of its instances.
    """
    fork_members: set[str] = set()
    for group in behavior.groups:
        if group.kind is BehaviorEdgeKind.CONCURRENT:
            fork_members.update(group.members)
    for root in (stream_a, stream_b):
        if root not in fork_members:
            raise SimulationError(f"{root!r} is not a stream of any concurrent fork")

    final_live = set(trace.ticks[-1].live) if trace.ticks else set()
    last_end: dict[str, int] = {}  # event -> the latest archive tick of its instances
    for inst in trace.record:
        if inst.end is not None:
            last_end[inst.event] = max(inst.end, last_end.get(inst.event, inst.end))

    def finish(root: str) -> int | None:
        members = behavior.reachable_events(root)
        ends = [last_end[event] for event in members if event in last_end]
        live_here = any(iid.rsplit("#", 1)[0] in members for iid in final_live)
        if not ends or live_here:
            return None
        return max(ends)

    finish_a = finish(stream_a)
    finish_b = finish(stream_b)
    if finish_a is not None and finish_b is not None:
        if finish_a == finish_b:
            return RaceReport(stream_a, stream_b, finish_a, finish_b, None, 0, True)
        winner = stream_a if finish_a < finish_b else stream_b
        return RaceReport(stream_a, stream_b, finish_a, finish_b, winner, abs(finish_a - finish_b), False)
    if finish_a is not None:
        return RaceReport(stream_a, stream_b, finish_a, None, stream_a, None, False)
    if finish_b is not None:
        return RaceReport(stream_a, stream_b, None, finish_b, stream_b, None, False)
    return RaceReport(stream_a, stream_b, None, None, None, None, False)


def behavior_digest(behavior: BehaviorGraph) -> str:
    """Stable content hash of a behavior graph (events, regions, edges),
    computed once per graph and kept on it."""
    return behavior.digest()
