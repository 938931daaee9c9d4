"""Seeded generators for the benchmark's models.

Each generator writes the model text itself and records, from how it built the
model, every fact the checks compare against: entity counts, the diagnostics
the structural rules must report, region sizes, coverage, the behavior
statements and, where the run is a sequence chain or a repeat loop, the start
tick of every instance in closed form. Nothing here imports tmkit.

All flows are legal by construction. Flows, triggers and top-level machines
are emitted in a shuffled order, so declaration order is unrelated to the
sorted ids, as in hand-written files.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

STEMS = ("gear", "duct", "lobby", "crate", "pump", "relay", "chute", "track")
THINGS = ("water", "parts", None)


@dataclass(frozen=True)
class Stmt:
    """One behavior statement, as in tmkit's text: seq, choice, concurrent, repeat."""

    kind: str
    source: str | None
    targets: tuple[str, ...]
    bound: int | None = None

    def text(self) -> str:
        if self.kind == "seq":
            return f"{self.source} -> {self.targets[0]};"
        if self.kind == "repeat":
            target = "" if self.targets[0] == self.source else f" -> {self.targets[0]}"
            bound = "" if self.bound is None else f" bound {self.bound}"
            return f"repeat {self.source}{target}{bound};"
        sep = " | " if self.kind == "choice" else ", "
        head = "" if self.source is None else f"{self.source} -> "
        return f"{head}{self.kind} {{ {sep.join(self.targets)} }};"


@dataclass
class Spec:
    """A generated model and the facts known about it from its construction."""

    text: str
    machines: int
    stages: int
    flows: int
    triggers: int
    storages: int
    durations: dict[str, int]  # event -> duration
    region_sizes: dict[str, int]  # event -> stages in its region
    behavior: list[Stmt]
    diagnostics: list[tuple[str, str]] = field(default_factory=list)  # (code, subject)
    uncovered: int = 0
    shared: int = 0
    horizon: int = 0
    # Closed-form run under the first-declared policy, when the behavior allows it.
    starts: dict[str, int] | None = None  # instance id -> start tick
    termination: str | None = None
    ticks: int | None = None


class _Writer:
    """Collects machines, flows, triggers and storages, then emits them shuffled."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks: list[str] = []
        self.flows: list[str] = []
        self.triggers: list[tuple[str, str]] = []
        self.storages: list[str] = []
        self.machines = 0
        self.stages = 0

    def machine(self, name: str, kinds: tuple[str, ...], children: tuple[str, ...] = (), depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}machine {name} {{"]
        lines += [f"{pad}  stage {kind};" for kind in kinds]
        lines += list(children)
        lines.append(f"{pad}}}")
        self.machines += 1
        self.stages += len(kinds)
        return "\n".join(lines)

    def flow(self, src: str, dst: str) -> None:
        thing = self.rng.choice(THINGS)
        head = "flow" if thing is None else f"flow {thing}"
        self.flows.append(f"{head}: {src} -> {dst};")

    def trigger(self, src: str, dst: str) -> None:
        self.triggers.append((src, dst))

    def emit(self, regions: dict[str, list[str]], events: dict[str, int], behavior: list[Stmt]) -> tuple[str, dict[tuple[str, str], str]]:
        """Model text, and the trigger id each (src, dst) receives from its position."""
        rng = self.rng
        rng.shuffle(self.blocks)
        rng.shuffle(self.flows)
        rng.shuffle(self.triggers)
        trigger_ids = {pair: f"t{index + 1:04d}" for index, pair in enumerate(self.triggers)}
        parts = ["\n".join(self.blocks), "\n".join(self.storages), "\n".join(self.flows)]
        parts.append("\n".join(f"trigger: {s} -> {d};" for s, d in self.triggers))
        parts.append("\n".join(f"region r-{name} = {{ {', '.join(members)} }};" for name, members in regions.items()))
        parts.append("\n".join(f"event {name} on r-{name} duration {dur};" for name, dur in events.items()))
        parts.append("behavior {\n" + "\n".join(f"  {stmt.text()}" for stmt in behavior) + "\n}")
        return "\n\n".join(part for part in parts if part) + "\n", trigger_ids


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def unit_names(rng: random.Random, count: int) -> list[str]:
    """Distinct identifiers whose sorted order is unrelated to their index."""
    numbers = list(range(count))
    rng.shuffle(numbers)
    return [f"{rng.choice(STEMS)}{number}" for number in numbers]


def stream(prefix: str, segments: int, kinds: list[str]) -> tuple[list[str], list[Stmt], list[str]]:
    """A stream of segments: h_k -> kind { x_k | y_k }; x_k -> h_k+1; y_k -> h_k+1.

    Returns (heads, statements, all events in stream order)."""
    heads = [f"{prefix}h{k}" for k in range(segments + 1)]
    stmts: list[Stmt] = []
    names: list[str] = [heads[0]]
    for k in range(segments):
        x, y = f"{prefix}x{k}", f"{prefix}y{k}"
        stmts.append(Stmt(kinds[k % len(kinds)], heads[k], (x, y)))
        stmts.append(Stmt("seq", x, (heads[k + 1],)))
        stmts.append(Stmt("seq", y, (heads[k + 1],)))
        names += [x, y, heads[k + 1]]
    return heads, stmts, names


def first_policy_pass(prefix: str, segments: int, kinds: list[str], durations: dict[str, int], start: int, gen: int, starts: dict[str, int]) -> int:
    """Closed-form start ticks of one pass of `stream` under first-declared
    choices; returns the tick at which the last head completes.

    A choice takes x_k. A concurrent group starts x_k and y_k together; the
    first to finish starts h_k+1, whose arrival cuts the slower branch off."""
    t = start
    for k in range(segments):
        head, x, y = f"{prefix}h{k}", f"{prefix}x{k}", f"{prefix}y{k}"
        starts[f"{head}#{gen}"] = t
        t += durations[head]
        starts[f"{x}#{gen}"] = t
        if kinds[k % len(kinds)] == "choice":
            t += durations[x]
        else:
            starts[f"{y}#{gen}"] = t
            t += min(durations[x], durations[y])
    last = f"{prefix}h{segments}"
    starts[f"{last}#{gen}"] = t
    return t + durations[last]


# -- edit-loop ---------------------------------------------------------------

EDIT_SEGMENTS = 8
EDIT_PASSES = 2
EDIT_HORIZON = 400


def edit_model(seed: int, segments: int = EDIT_SEGMENTS) -> Spec:
    """A nested model of hundreds of machines, edited as a modeler would.

    Each unit is a machine with a transfer/receive/process/release loop, a
    nested `core` (create/process/release/transfer, a storage `stock`) and a
    nested `cell` (create/release/transfer). Units form a chain of cross
    transfer flows. One unit in ten has a cell without create (an M1
    warning); one in ten has a trigger inside its core (a T1 warning). Each
    event covers two adjacent units; every fifth also takes the next unit's
    outer stages, so those are shared. The behavior is one stream of
    alternating choice/concurrent segments, closed by `h_last -> end` and a
    bounded repeat back to h0."""
    rng = random.Random(seed)
    kinds = ["choice", "concurrent"]
    heads, stmts, names = stream("E", segments, kinds)
    names.append("Eend")
    stmts.append(Stmt("seq", heads[-1], ("Eend",)))
    stmts.append(Stmt("repeat", heads[-1], (heads[0],), EDIT_PASSES))
    units = 2 * len(names)
    unit = unit_names(rng, units)
    no_create = set(rng.sample(range(units), units // 10))
    core_trigger = set(rng.sample(range(units), units // 10))

    w = _Writer(rng)
    stages_of: list[set[str]] = []
    for i, name in enumerate(unit):
        cell_kinds = ("release", "transfer") if i in no_create else ("create", "release", "transfer")
        cell = w.machine("cell", cell_kinds, depth=2)
        core = w.machine("core", ("create", "process", "release", "transfer"), (cell,), depth=1)
        w.blocks.append(w.machine(name, ("transfer", "receive", "process", "release"), (core,)))
        c, k = f"{name}.core", f"{name}.core.cell"
        w.storages.append(f"storage stock in {c};")
        for src, dst in (
            (f"{name}.transfer", f"{name}.receive"),
            (f"{name}.receive", f"{name}.process"),
            (f"{name}.process", f"{name}.release"),
            (f"{name}.release", f"{name}.transfer"),
            (f"{c}.create", f"{c}.process"),
            (f"{c}.process", f"{c}.release"),
            (f"{c}.release", f"{c}.transfer"),
            (f"{c}.release", f"{c}.stock"),
            (f"{c}.transfer", f"{name}.transfer"),
            (f"{k}.release", f"{k}.transfer"),
            (f"{k}.transfer", f"{c}.transfer"),
        ):
            w.flow(src, dst)
        if i not in no_create:
            w.flow(f"{k}.create", f"{k}.release")
        if i + 1 < units:
            w.flow(f"{name}.transfer", f"{unit[i + 1]}.transfer")
        w.trigger(f"{name}.process", f"{c}.create")
        if i in core_trigger:
            w.trigger(f"{c}.process", f"{c}.create")
        outer = {f"{name}.{kind}" for kind in ("transfer", "receive", "process", "release")}
        inner = {f"{c}.{kind}" for kind in ("create", "process", "release", "transfer")}
        inner |= {f"{k}.{kind}" for kind in cell_kinds}
        stages_of.append(outer | inner)

    order = list(names)
    rng.shuffle(order)  # which event covers which units is unrelated to the stream
    regions: dict[str, list[str]] = {}
    region_stages: dict[str, set[str]] = {}
    for j, event in enumerate(order):
        a, b = 2 * j, 2 * j + 1
        members = [unit[a], unit[b]]
        covered = stages_of[a] | stages_of[b]
        if j % 5 == 0 and b + 1 < units:
            outer = sorted(s for s in stages_of[b + 1] if s.count(".") == 1)
            members += outer
            covered |= set(outer)
        regions[event] = members
        region_stages[event] = covered
    durations = {name: rng.randint(1, 3) for name in names}
    text, trigger_ids = w.emit(regions, durations, stmts)

    diagnostics = [("M1", f"{unit[i]}.core.cell") for i in no_create]
    diagnostics += [("T1", trigger_ids[(f"{unit[i]}.core.process", f"{unit[i]}.core.create")]) for i in core_trigger]
    holders: dict[str, int] = {}
    for covered in region_stages.values():
        for stage in covered:
            holders[stage] = holders.get(stage, 0) + 1

    starts: dict[str, int] = {}
    t = 0
    for generation in range(1, EDIT_PASSES + 1):
        t = first_policy_pass("E", segments, kinds, durations, t, generation, starts)
        starts[f"Eend#{generation}"] = t
    last_tick = t + durations["Eend"]
    return Spec(
        text=text,
        machines=w.machines,
        stages=w.stages,
        flows=len(w.flows),
        triggers=len(w.triggers),
        storages=len(w.storages),
        durations=durations,
        region_sizes={name: len(covered) for name, covered in region_stages.items()},
        behavior=stmts,
        diagnostics=sorted(diagnostics),
        uncovered=w.stages - len(holders),
        shared=sum(1 for count in holders.values() if count > 1),
        horizon=EDIT_HORIZON,
        starts=starts,
        termination="terminal-reached",
        ticks=last_tick + 1,
    )


# -- long-horizon --------------------------------------------------------------

LONG_HORIZON = 10000
LONG_B_DURATION = 2


def long_model(seed: int, horizon: int = LONG_HORIZON) -> Spec:
    """Five events: Es forks an unbounded loop Ea1 -> Ea2 -> Ea3 (repeat Ea3 ->
    Ea1) and a bounded self-repeat Eb that ends at about 60 % of the horizon.

    The durations of the loop are a seeded permutation of (1, 2, 3), so every
    seed gives the same number of instances and only the names and the
    phases change. The run always stops at the horizon."""
    rng = random.Random(seed)
    tag = rng.choice(STEMS)
    es, a1, a2, a3, eb = (f"{tag}_{part}" for part in ("start", "a1", "a2", "a3", "b"))
    loop = [1, 2, 3]
    rng.shuffle(loop)
    durations = {es: rng.randint(1, 3), a1: loop[0], a2: loop[1], a3: loop[2], eb: LONG_B_DURATION}
    bound = (6 * horizon // 10) // LONG_B_DURATION
    stmts = [
        Stmt("concurrent", es, (a1, eb)),
        Stmt("seq", a1, (a2,)),
        Stmt("seq", a2, (a3,)),
        Stmt("repeat", a3, (a1,)),
        Stmt("repeat", eb, (eb,), bound),
    ]
    w = _Writer(rng)
    names = list(durations)
    for index, event in enumerate(names):
        w.blocks.append(w.machine(f"m{index}", ("create", "process", "release")))
        w.flow(f"m{index}.create", f"m{index}.process")
        w.flow(f"m{index}.process", f"m{index}.release")
    regions = {event: [f"m{index}"] for index, event in enumerate(names)}
    text, _ = w.emit(regions, durations, stmts)

    # Closed form: the fork starts both streams when Es completes.
    t0 = durations[es]
    starts = {f"{es}#1": 0}
    generation, t = 1, t0
    while t <= horizon:
        starts[f"{a1}#{generation}"] = t
        if t + durations[a1] <= horizon:
            starts[f"{a2}#{generation}"] = t + durations[a1]
        if t + durations[a1] + durations[a2] <= horizon:
            starts[f"{a3}#{generation}"] = t + durations[a1] + durations[a2]
        generation, t = generation + 1, t + sum(loop)
    for generation in range(1, bound + 1):
        starts[f"{eb}#{generation}"] = t0 + (generation - 1) * LONG_B_DURATION
    # Each machine has create, so no M1; its release leads nowhere: one M2 each.
    diagnostics = sorted(("M2", f"m{index}.release") for index in range(len(names)))
    return Spec(
        text=text,
        machines=w.machines,
        stages=w.stages,
        flows=len(w.flows),
        triggers=0,
        storages=0,
        durations=durations,
        region_sizes={event: 3 for event in names},
        behavior=stmts,
        diagnostics=diagnostics,
        horizon=horizon,
        starts=starts,
        termination="horizon",
        ticks=horizon + 1,
    )


# -- seed-sweep ---------------------------------------------------------------

SWEEP_STREAMS = 30
SWEEP_SEGMENTS = 3
SWEEP_HORIZON = 150


def sweep_model(seed: int, streams: int = SWEEP_STREAMS, segments: int = SWEEP_SEGMENTS) -> Spec:
    """A wide behavior graph over one machine per event.

    `streams` streams of `segments` segments each. Stream 0 repeats without
    bound and stream 1 ends at a terminal event; the others are a third each
    unbounded, terminal, and bounded repeats of 2 or 3 rounds. Half of all
    segments are choice groups and half concurrent ones, and the durations
    are an even spread of 1..4; the seed only shuffles which stream, segment
    and event gets which, so every seed asks about the same work of a run.
    Streams 0 .. n-3 start together from a concurrent start group; the last
    two are the members of a choice start group. Each machine has create ->
    process -> release -> transfer, and the transfers form a chain, so
    eventizing scans many flows."""
    rng = random.Random(seed)
    tails = ["unbounded", "terminal", "bounded"] * streams
    tails = ["unbounded", "terminal"] + _shuffled(rng, tails[: streams - 2])
    kinds = _shuffled(rng, ["choice", "concurrent"] * (streams * segments // 2 + 1))
    stmts: list[Stmt] = []
    names: list[str] = []
    roots: list[str] = []
    for s in range(streams):
        heads, body, events = stream(f"S{s}_", segments, kinds[s * segments : (s + 1) * segments])
        if tails[s] == "unbounded":
            body.append(Stmt("repeat", heads[-1], (heads[0],)))
        elif tails[s] == "bounded":
            body.append(Stmt("repeat", heads[-1], (heads[0],), 2 + s % 2))
        stmts += body
        names += events
        roots.append(heads[0])
    stmts.insert(0, Stmt("concurrent", None, tuple(roots[:-2])))
    stmts.insert(1, Stmt("choice", None, tuple(roots[-2:])))

    w = _Writer(rng)
    machine = unit_names(rng, len(names))
    for index, name in enumerate(machine):
        w.blocks.append(w.machine(name, ("create", "process", "release", "transfer")))
        w.flow(f"{name}.create", f"{name}.process")
        w.flow(f"{name}.process", f"{name}.release")
        w.flow(f"{name}.release", f"{name}.transfer")
        if index + 1 < len(machine):
            w.flow(f"{name}.transfer", f"{machine[index + 1]}.transfer")
    regions = {event: [machine[index]] for index, event in enumerate(names)}
    durations = dict(zip(names, _shuffled(rng, [1 + i % 4 for i in range(len(names))])))
    text, _ = w.emit(regions, durations, stmts)
    # Every machine has create, and every release hands off to a transfer.
    return Spec(
        text=text,
        machines=w.machines,
        stages=w.stages,
        flows=len(w.flows),
        triggers=0,
        storages=0,
        durations=durations,
        region_sizes={event: 4 for event in names},
        behavior=stmts,
        horizon=SWEEP_HORIZON,
    )


# -- inputs of a run ------------------------------------------------------------

# Distinct models generated at set-up; a run that needs more generates the
# rest between operations, outside the timed phase.
POOL = {"edit-loop": 48, "long-horizon": 24}
SMOKE_POOL = 2


def input_seed(workload: str, seed: int, index: int | str) -> int:
    """Seed of the index-th input of a run, derived from the workload seed."""
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(32)


def pool_size(workload: str, smoke: bool) -> int:
    return SMOKE_POOL if smoke else POOL[workload]


def make_input(workload: str, seed: int, index: int, smoke: bool) -> Spec:
    """The index-th model of a run; seed-sweep has one model and ignores index."""
    model_seed = input_seed(workload, seed, "model" if workload == "seed-sweep" else index)
    if workload == "edit-loop":
        return edit_model(model_seed, 2 if smoke else EDIT_SEGMENTS)
    if workload == "long-horizon":
        return long_model(model_seed, 300 if smoke else LONG_HORIZON)
    if smoke:
        return sweep_model(model_seed, streams=5, segments=2)
    return sweep_model(model_seed)


def sweep_run_seed(seed: int, index: int) -> int:
    """SeededRandom seed of the index-th seed-sweep operation."""
    return input_seed("seed-sweep", seed, index)


# Stream 0 (unbounded) and stream 1 (terminal) both start from the concurrent
# start group, so race_report accepts them as the two streams of a race.
SWEEP_RACE = ("S0_h0", "S1_h0")
