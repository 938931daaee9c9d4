"""Deterministic discrete-tick execution of behavior graphs.

Lifecycle of an event instance:

  * instantiation at tick t: the transfer->receive of the instance fires, the
    instance is initiated and live at tick t;
  * it then processes for `duration` ticks, so an instance started at tick s
    completes during the step that advances the clock to s + duration;
  * completion archives it (end = s + duration) into the append-only record;
  * an instance is also archived early, mid-processing, when a successor
    event's receive erupts: its end is the successor's receive tick (cutoff).

step() is pure: it builds a new SimState and never mutates its input. The
record is a persistent chain of per-tick chunks: a step that archives
something adds one chunk in front of the old chain and shares the rest, so a
step costs what that tick archives, not what the run has archived so far, and
histories that branch from one state stay independent. All iteration is over
sorted or declared orders, so runs are bit-reproducible.

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

import hashlib
import json
from dataclasses import dataclass
from itertools import chain

from tmkit.events import BehaviorEdgeKind, BehaviorGraph, Group

LCG_MULTIPLIER = 1664525
LCG_INCREMENT = 1013904223
LCG_MODULUS = 1 << 32


class SimulationError(Exception):
    pass


class ScriptedExhaustedError(SimulationError):
    pass


@dataclass(frozen=True, slots=True)
class EventInstance:
    iid: str  # "<event>#<generation>"
    event: str
    generation: int
    start: int  # receive tick
    duration: int
    end: int | None = None  # archive tick

    def __post_init__(self) -> None:
        if self.generation < 1 or self.duration < 1 or self.start < 0:
            raise ValueError(f"malformed instance {self.iid}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"instance {self.iid} archived at or before its start")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RecordStore:
    """Append-only archive of past instances, ordered by (end, event, generation).

    A persistent chain of per-tick chunks: `chunk` holds what one tick
    archived, `parent` the record before that tick, and `size` the number of
    entries in the whole chain. extended() never copies or mutates the chain it
    extends, so every earlier record stays valid and two histories that branch
    from one state share their common past. Equality compares entries.
    """

    chunk: tuple[EventInstance, ...] = ()
    parent: RecordStore | None = None
    size: int = 0

    def extended(self, instances: list[EventInstance]) -> RecordStore:
        """This record plus one tick's archive (already in record order)."""
        if not instances:
            return self
        return RecordStore(tuple(instances), self, self.size + len(instances))

    @property
    def entries(self) -> tuple[EventInstance, ...]:
        """Every archived instance, oldest chunk first; built on each call."""
        chunks: list[tuple[EventInstance, ...]] = []
        node: RecordStore | None = self
        while node is not None:
            chunks.append(node.chunk)
            node = node.parent
        return tuple(chain.from_iterable(reversed(chunks)))

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordStore):
            return NotImplemented
        return self is other or (self.size == other.size and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RecordStore({self.entries!r})"


@dataclass(frozen=True, slots=True)
class FirstDeclared:
    def describe(self) -> str:
        return "first"


@dataclass(frozen=True, slots=True)
class SeededRandom:
    seed: int

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
    """One instant of a run. Treated as immutable: step() returns a new state."""

    tick: int
    live: dict[str, EventInstance]  # event name -> its single live instance
    record: RecordStore
    generations: dict[str, int]  # instances ever created, per event
    rng_state: int
    script_pos: int
    terminal_hit: bool
    choices: tuple[tuple[str, str], ...]  # (group id, chosen) taken this tick

    def all_instances(self) -> int:
        return sum(self.generations.values())

    def check_presentism(self) -> None:
        """Live and record partition all instances ever created."""
        live_ids = {inst.iid for inst in self.live.values()}
        record_ids = {inst.iid for inst in self.record.entries}
        if live_ids & record_ids:
            raise SimulationError(f"instances both live and recorded: {live_ids & record_ids}")
        if len(live_ids) + len(record_ids) != self.all_instances():
            raise SimulationError("live and record do not cover all instances")


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
    record: RecordStore


def _choose(
    policy: ChoicePolicy,
    group: Group,
    rng_state: int,
    script_pos: int,
) -> tuple[str, int, int]:
    members = group.members
    if isinstance(policy, FirstDeclared):
        return members[0], rng_state, script_pos
    if isinstance(policy, SeededRandom):
        rng_state = (LCG_MULTIPLIER * rng_state + LCG_INCREMENT) % LCG_MODULUS
        return members[rng_state % len(members)], rng_state, script_pos
    if script_pos >= len(policy.script):
        raise ScriptedExhaustedError(
            f"script exhausted at choice {group.group_id} among {members}"
        )
    chosen = policy.script[script_pos]
    if chosen not in members:
        raise SimulationError(
            f"scripted choice {chosen!r} is not a member of {group.group_id} {members}"
        )
    return chosen, rng_state, script_pos + 1


def _sorted_instances(instances: list[EventInstance]) -> list[EventInstance]:
    return sorted(instances, key=lambda i: (i.event, i.generation))


def _archived(inst: EventInstance, end: int) -> EventInstance:
    return EventInstance(inst.iid, inst.event, inst.generation, inst.start, inst.duration, end)


def init(behavior: BehaviorGraph, policy: ChoicePolicy) -> SimState:
    """Tick 0: instantiate the initial events; start groups resolve here."""
    rng_state = policy.seed % LCG_MODULUS if isinstance(policy, SeededRandom) else 0
    script_pos = 0
    choices: list[tuple[str, str]] = []
    to_start: list[str] = []
    grouped: set[str] = set()
    for group in behavior.start_groups():
        grouped.update(group.members)
    for group in behavior.start_groups():
        if group.kind is BehaviorEdgeKind.CHOICE:
            chosen, rng_state, script_pos = _choose(policy, group, rng_state, script_pos)
            choices.append((group.group_id, chosen))
            to_start.append(chosen)
        else:
            to_start.extend(group.members)
    to_start.extend(sorted(name for name in behavior.initial if name not in grouped))

    live: dict[str, EventInstance] = {}
    generations: dict[str, int] = {}
    for name in to_start:
        if name in live:
            continue
        generations[name] = 1
        live[name] = EventInstance(
            f"{name}#1", name, 1, start=0, duration=behavior.events[name].duration
        )
    return SimState(0, live, RecordStore(), generations, rng_state, script_pos, False, tuple(choices))


def step(state: SimState, behavior: BehaviorGraph, policy: ChoicePolicy) -> SimState:
    """Advance one tick: complete, fire successors, cut off, archive."""
    if not state.live:
        raise SimulationError("nothing is live; the run has ended")
    t = state.tick + 1

    live = dict(state.live)

    completed = [live[name] for name in sorted(live) if t - live[name].start >= live[name].duration]
    for inst in completed:
        del live[inst.event]
    terminal_hit = state.terminal_hit or any(i.event in behavior.terminal for i in completed)

    generations = dict(state.generations)
    rng_state = state.rng_state
    script_pos = state.script_pos
    choices: list[tuple[str, str]] = []
    archived: list[EventInstance] = [_archived(i, t) for i in completed]

    # Gather instantiation requests in deterministic order.
    requests: list[tuple[str, bool]] = []  # (event, via repeat)
    resolved_groups: set[str] = set()
    for inst in completed:
        for edge in behavior.out_edges(inst.event):
            if edge.kind in (BehaviorEdgeKind.SEQUENCE, BehaviorEdgeKind.CONCURRENT):
                requests.append((edge.target, False))
            elif edge.kind is BehaviorEdgeKind.CHOICE:
                if edge.group in resolved_groups:
                    continue
                resolved_groups.add(edge.group or "")
                group = behavior.group(edge.group)
                chosen, rng_state, script_pos = _choose(policy, group, rng_state, script_pos)
                choices.append((group.group_id, chosen))
                requests.append((chosen, False))
            else:  # repeat
                next_gen = generations.get(edge.target, 0) + 1
                if edge.bound is not None and next_gen > edge.bound:
                    continue  # bound exhausted: the stream ends
                if edge.bound is None and terminal_hit:
                    continue  # race resolved: a terminal event has completed
                requests.append((edge.target, True))

    created: set[str] = set()
    for target, via_repeat in requests:
        if target in created:
            continue
        previous = live.get(target)
        if previous is not None:
            if not via_repeat:
                continue  # already live; at most one instance per event
            # Repeat replaces: archive the previous generation at the new receive.
            del live[target]
            archived.append(_archived(previous, t))
        generation = generations.get(target, 0) + 1
        generations[target] = generation
        live[target] = EventInstance(
            f"{target}#{generation}",
            target,
            generation,
            start=t,
            duration=behavior.events[target].duration,
        )
        created.add(target)
        # Cutoff: the new receive archives still-processing predecessors.
        for pred in behavior.sorted_predecessors(target):
            old = live.get(pred)
            if old is not None and old.start < t:
                del live[pred]
                archived.append(_archived(old, t))

    archived = _sorted_instances(archived)
    return SimState(
        t,
        live,
        state.record.extended(archived),
        generations,
        rng_state,
        script_pos,
        terminal_hit,
        tuple(choices),
    )


def _snapshot(state: SimState, archived: tuple[EventInstance, ...] = ()) -> TickSnapshot:
    live = tuple(inst.iid for inst in _sorted_instances(list(state.live.values())))
    return TickSnapshot(state.tick, live, tuple(inst.iid for inst in archived), state.choices)


def run(behavior: BehaviorGraph, policy: ChoicePolicy, horizon: int, seed: int | None = None) -> SimTrace:
    """Run to termination or horizon and return the full trace."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    trace_seed = policy.seed if isinstance(policy, SeededRandom) else seed
    snapshots: list[TickSnapshot] = []
    try:
        state = init(behavior, policy)
    except ScriptedExhaustedError:
        return SimTrace(policy.describe(), trace_seed, horizon, (), "scripted-exhausted", RecordStore())
    snapshots.append(_snapshot(state))
    termination: str
    while True:
        if not state.live:
            termination = "terminal-reached" if state.terminal_hit else "deadlock"
            break
        if state.tick >= horizon:
            termination = "horizon"
            break
        previous = state.record
        try:
            state = step(state, behavior, policy)
        except ScriptedExhaustedError:
            termination = "scripted-exhausted"
            break
        newly = state.record.chunk if state.record is not previous else ()
        snapshots.append(_snapshot(state, newly))
    return SimTrace(policy.describe(), trace_seed, horizon, tuple(snapshots), termination, state.record)


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

    def finish(root: str) -> int | None:
        members = behavior.reachable_events(root)
        ends = [inst.end for inst in trace.record.entries if inst.event in members and inst.end is not None]
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
    return behavior.cached_digest(_graph_digest)


def _graph_digest(behavior: BehaviorGraph) -> str:
    payload = {
        "events": [
            {
                "name": name,
                "duration": behavior.events[name].duration,
                "label": behavior.events[name].label,
                "stages": sorted(behavior.events[name].region.stages),
            }
            for name in sorted(behavior.events)
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "kind": e.kind.value,
                "group": e.group,
                "bound": e.bound,
            }
            for e in behavior.edges
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
