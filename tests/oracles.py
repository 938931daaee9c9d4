"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than the
code under test: a per-character lexer instead of one regex match per token,
line and column moved with every character instead of found by bisection, a
payload for json.dumps instead of a hand-written model-JSON emitter,
sibling and edge scans instead of name maps and incident lists, plain edge
scans instead of rule tables and prebuilt indexes, union-find instead of BFS
and BFS instead of union-find, fixpoint sweeps instead of worklists, and trace
reconstruction from the per-tick snapshots instead of the simulator's own
record.
"""
from __future__ import annotations

import bisect
import math
from collections import Counter, deque
from dataclasses import dataclass

from tmkit import (
    BehaviorEdgeKind,
    BehaviorGraph,
    FirstDeclared,
    SeededRandom,
    SimTrace,
    StaticModel,
)
from tmkit.diagnostics import Diagnostic, SourceSpan
from tmkit.dsl import MAX_DIAGNOSTICS, ModelDocument
from tmkit.model import KIND_NAMES, ROOT_ID, ROOT_NAME

# Restated legality tables: (source kind, target kind) pairs spelled out by
# hand so a typo in the shipped table cannot hide in both places.
SAME_MACHINE_OK = frozenset(
    {
        ("transfer", "receive"),
        ("receive", "process"),
        ("receive", "release"),
        ("process", "release"),
        ("process", "create"),
        ("create", "release"),
        ("create", "process"),
        ("release", "transfer"),
    }
)
CROSS_MACHINE_OK = frozenset({("transfer", "transfer"), ("transfer", "receive")})


def flow_violations(model: StaticModel) -> dict[str, str]:
    """Flow id -> expected diagnostic code, by brute scan of every edge."""
    found: dict[str, str] = {}
    for edge in model.flows.values():
        if edge.src not in model.stages or edge.dst not in model.stages:
            continue  # storage attachments carry no stage-pair rule
        src = model.stages[edge.src]
        dst = model.stages[edge.dst]
        pair = (src.kind.value, dst.kind.value)
        if src.owner == dst.owner:
            if pair not in SAME_MACHINE_OK:
                found[edge.id] = "F1"
        elif pair not in CROSS_MACHINE_OK:
            found[edge.id] = "F2"
    return found


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def region_connected(model: StaticModel, members: set[str]) -> bool:
    """Weak connectivity of the induced subdiagram via union-find."""
    if len(members) <= 1:
        return True
    uf = _UnionFind(members)
    for edge in model.flows.values():
        if edge.src in members and edge.dst in members:
            uf.union(edge.src, edge.dst)
    for trig in model.triggers.values():
        if trig.src in members and trig.dst in members:
            uf.union(trig.src, trig.dst)
    roots = {uf.find(m) for m in members}
    return len(roots) == 1


def split_moves(model: StaticModel, members: set[str]) -> list[str]:
    """Flow ids of transfer->receive edges with exactly one endpoint inside."""
    bad = []
    for edge in model.flows.values():
        if edge.src not in model.stages or edge.dst not in model.stages:
            continue
        if (
            model.stages[edge.src].kind.value == "transfer"
            and model.stages[edge.dst].kind.value == "receive"
            and (edge.src in members) != (edge.dst in members)
        ):
            bad.append(edge.id)
    return sorted(bad)


def incident_scan(model: StaticModel, node: str) -> list:
    """Flow and trigger edges touching `node`, by scanning every edge."""
    edges = [*model.flows.values(), *model.triggers.values()]
    return [edge for edge in edges if node in (edge.src, edge.dst)]


def scan_resolve(model: StaticModel, segments) -> tuple[str, str] | None:
    """StaticModel.resolve by scanning every machine, stage and storage for the
    one with the right owner and name; None where resolve raises."""
    path = list(segments)
    current = ROOT_ID
    if path[:1] == [ROOT_NAME]:
        path = path[1:]
        if not path:
            return ("machine", ROOT_ID)
    if not path:
        return None
    for index, segment in enumerate(path):
        last = index == len(path) - 1
        if last and segment in KIND_NAMES:
            stage = [s.id for s in model.stages.values() if s.owner == current and s.kind.value == segment]
            return ("stage", stage[0]) if stage else None
        child = [m.id for m in model.machines.values() if m.parent == current and m.name == segment]
        if child:
            if last:
                return ("machine", child[0])
            current = child[0]
            continue
        storage = [s.id for s in model.storages.values() if s.owner == current and s.thing == segment]
        if last and storage:
            return ("storage", storage[0])
        return None
    return None


def flow_partition(model: StaticModel) -> set[frozenset[str]]:
    """Weakly-connected components over flow edges, by breadth-first search."""
    neighbours: dict[str, set[str]] = {node: set() for node in (*model.stages, *model.storages)}
    for edge in model.flows.values():
        neighbours[edge.src].add(edge.dst)
        neighbours[edge.dst].add(edge.src)
    parts: set[frozenset[str]] = set()
    seen: set[str] = set()
    for start in neighbours:
        if start in seen:
            continue
        seen.add(start)
        part, queue = {start}, deque([start])
        while queue:
            for nxt in neighbours[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    part.add(nxt)
                    queue.append(nxt)
        parts.add(frozenset(part))
    return parts


def reachable(model: StaticModel, start: str) -> frozenset[str]:
    """Forward influence closure (flows and triggers) by fixpoint sweep;
    storages conduct but are not reported."""
    seen = {start}
    pairs = [(e.src, e.dst) for e in model.flows.values()]
    pairs += [(t.src, t.dst) for t in model.triggers.values()]
    changed = True
    while changed:
        changed = False
        for src, dst in pairs:
            if src in seen and dst not in seen:
                seen.add(dst)
                changed = True
    return frozenset(node for node in seen if node in model.stages)


def overlap_stages(a_stages, b_stages) -> frozenset[str]:
    return frozenset(a_stages) & frozenset(b_stages)


def duplicate_stage_kinds(model: StaticModel) -> int:
    counts: dict[tuple[str, str], int] = {}
    for stage in model.stages.values():
        key = (stage.owner, stage.kind.value)
        counts[key] = counts.get(key, 0) + 1
    return sum(1 for n in counts.values() if n > 1)


# -- behavior graph by edge scan ---------------------------------------------


def scan_out_edges(graph: BehaviorGraph, event: str) -> tuple:
    return tuple(e for e in graph.edges if e.source == event)


def scan_predecessors(graph: BehaviorGraph, event: str) -> frozenset[str]:
    return frozenset(
        e.source
        for e in graph.edges
        if e.target == event and e.source is not None and e.kind is not BehaviorEdgeKind.REPEAT
    )


def scan_reachable(graph: BehaviorGraph, root: str) -> frozenset[str]:
    """Events reachable from root along any edge, by fixpoint sweep."""
    seen = {root}
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.source in seen and edge.target not in seen:
                seen.add(edge.target)
                changed = True
    return frozenset(seen)


# -- trace reconstruction ----------------------------------------------------


class Lifespan:
    __slots__ = ("iid", "event", "generation", "start", "end")

    def __init__(self, iid: str, start: int):
        self.iid = iid
        name, _, gen = iid.rpartition("#")
        self.event = name
        self.generation = int(gen)
        self.start = start
        self.end: int | None = None


def lifespans(trace: SimTrace) -> dict[str, Lifespan]:
    """Rebuild every instance's live interval from the tick snapshots alone."""
    spans: dict[str, Lifespan] = {}
    for snap in trace.ticks:
        for iid in snap.live:
            if iid not in spans:
                spans[iid] = Lifespan(iid, snap.tick)
        for iid in snap.archived:
            if iid not in spans:
                spans[iid] = Lifespan(iid, snap.tick)
            assert spans[iid].end is None, f"{iid} archived twice"
            spans[iid].end = snap.tick
    return spans


def presentism_violations(trace: SimTrace) -> list[str]:
    """Live/record overlap, record rewrites, or instances lost at the end."""
    problems: list[str] = []
    record: set[str] = set()
    seen: set[str] = set()
    for snap in trace.ticks:
        for iid in snap.archived:
            if iid in record:
                problems.append(f"tick {snap.tick}: {iid} re-archived")
            record.add(iid)
            seen.add(iid)
        clash = record.intersection(snap.live)
        if clash:
            problems.append(f"tick {snap.tick}: live and recorded: {sorted(clash)}")
        seen.update(snap.live)
    final_live = set(trace.ticks[-1].live) if trace.ticks else set()
    missing = seen - record - final_live
    if missing:
        problems.append(f"instances neither recorded nor live at end: {sorted(missing)}")
    recorded_ids = {inst.iid for inst in trace.record}
    if recorded_ids != record:
        problems.append("record store disagrees with snapshot archives")
    return problems


def state_presentism_violations(state) -> list[str]:
    """A SimState's live instances and its record partition every instance
    it ever created, as counted by its generations."""
    live = {inst.iid for inst in state.live.values()}
    recorded = {inst.iid for inst in state.record}
    problems = [f"{iid}: both live and recorded" for iid in sorted(live & recorded)]
    created = sum(state.generations.values())
    if len(live | recorded) != created:
        problems.append(f"{len(live | recorded)} instances live or recorded, {created} created")
    return problems


def cutoff_violations(graph: BehaviorGraph, trace: SimTrace) -> list[str]:
    """Every started instance must outlive no predecessor instance that began
    earlier: the newcomer's arrival archives stragglers at once."""
    preds: dict[str, set[str]] = {name: set() for name in graph.events}
    for edge in graph.edges:
        if edge.source is not None and edge.kind is not BehaviorEdgeKind.REPEAT:
            preds[edge.target].add(edge.source)
    spans = lifespans(trace)
    by_event: dict[str, list[Lifespan]] = {}
    for span in spans.values():
        by_event.setdefault(span.event, []).append(span)
    # Per event: starts in order, and the latest end (None: never) among the
    # instances started so far. One bisect then tells whether any instance
    # that began before a newcomer outlived its start; the scan below, run
    # only then, lists which.
    latest: dict[str, tuple[list[int], list[float]]] = {}
    for event, group in by_event.items():
        starts: list[int] = []
        ends: list[float] = []
        running = -math.inf
        for old in sorted(group, key=lambda s: s.start):
            running = max(running, math.inf if old.end is None else old.end)
            starts.append(old.start)
            ends.append(running)
        latest[event] = (starts, ends)
    problems: list[str] = []
    for span in spans.values():
        for pred in preds[span.event]:
            starts, ends = latest.get(pred, ([], []))
            earlier = bisect.bisect_left(starts, span.start)
            if earlier == 0 or ends[earlier - 1] <= span.start:
                continue
            for old in by_event[pred]:
                if old.start < span.start and (old.end is None or old.end > span.start):
                    problems.append(
                        f"{old.iid} (start {old.start}, end {old.end}) survived "
                        f"the start of {span.iid} at {span.start}"
                    )
    return problems


def repetition_violations(trace: SimTrace) -> list[str]:
    """Generations must count 1..k with each one put to rest by its successor's
    start at the latest."""
    spans = lifespans(trace)
    by_event: dict[str, dict[int, Lifespan]] = {}
    for span in spans.values():
        by_event.setdefault(span.event, {})[span.generation] = span
    problems: list[str] = []
    for event, gens in by_event.items():
        expected = list(range(1, len(gens) + 1))
        if sorted(gens) != expected:
            problems.append(f"{event}: generations {sorted(gens)} not consecutive")
            continue
        for g in expected[:-1]:
            old, new = gens[g], gens[g + 1]
            if old.end is None or old.end > new.start:
                problems.append(
                    f"{event}#{g} (end {old.end}) outlived the start of "
                    f"#{g + 1} at {new.start}"
                )
    return problems


def duration_violations(graph: BehaviorGraph, trace: SimTrace) -> list[str]:
    """An instance ends at exactly start + duration unless a successor's
    receive cut it off or its next generation replaced it, both at an earlier
    tick; one still live at the end has time left."""
    spans = lifespans(trace)
    started = {(span.event, span.start) for span in spans.values()}
    successors: dict[str, set[str]] = {name: set() for name in graph.events}  # whose receive cuts it off
    for edge in graph.edges:
        if edge.source is not None and edge.kind is not BehaviorEdgeKind.REPEAT:
            successors[edge.source].add(edge.target)
    last = trace.ticks[-1].tick if trace.ticks else 0
    problems: list[str] = []
    for span in spans.values():
        planned = span.start + graph.events[span.event].duration
        if span.end is None:
            if planned <= last:
                problems.append(f"{span.iid} (start {span.start}) still live at {last}, due at {planned}")
            continue
        if span.end == planned:
            continue
        if span.end > planned:
            problems.append(f"{span.iid} ended at {span.end}, after its duration ran out at {planned}")
            continue
        following = spans.get(f"{span.event}#{span.generation + 1}")
        replaced = following is not None and following.start == span.end
        cut = any((succ, span.end) in started for succ in successors[span.event])
        if not (replaced or cut):
            problems.append(
                f"{span.iid} ended at {span.end}, before {planned}, "
                "with no successor arriving and no next generation"
            )
    return problems


def choice_violations(graph: BehaviorGraph, trace: SimTrace) -> list[str]:
    """Each choice group resolves to exactly one of its members each time its
    source completes, and never otherwise; start groups resolve once, at tick
    0, a choice starting its one chosen member and a fork all of them."""
    spans = lifespans(trace)
    completed: dict[int, set[str]] = {}
    for span in spans.values():
        if span.end is not None and span.end == span.start + graph.events[span.event].duration:
            completed.setdefault(span.end, set()).add(span.event)
    members = {group.group_id: group.members for group in graph.groups}
    problems: list[str] = []
    for snap in trace.ticks:
        counts = Counter(gid for gid, _ in snap.choices)
        for gid, chosen in snap.choices:
            if chosen not in members.get(gid, ()):
                problems.append(f"tick {snap.tick}: {gid} chose {chosen}, not a member")
        for group in graph.groups:
            if group.kind is not BehaviorEdgeKind.CHOICE:
                continue
            if group.source is None:
                expected = 1 if snap.tick == 0 else 0
            else:
                expected = 1 if group.source in completed.get(snap.tick, ()) else 0
            if counts[group.group_id] != expected:
                problems.append(
                    f"tick {snap.tick}: {group.group_id} resolved {counts[group.group_id]} "
                    f"time(s), expected {expected}"
                )
    if trace.ticks:
        # Tick 0 starts exactly: the chosen member of each start choice, every
        # member of each start fork, and the events no edge leads into that
        # belong to no start group.
        first = trace.ticks[0]
        chosen_at_start = dict(first.choices)
        due: set[str] = set()
        grouped: set[str] = set()
        for group in graph.groups:
            if group.source is None:
                grouped.update(group.members)
                if group.kind is BehaviorEdgeKind.CHOICE:
                    due.add(str(chosen_at_start.get(group.group_id)))
                else:
                    due.update(group.members)
        entered = {
            e.target for e in graph.edges if e.source is not None and e.kind is not BehaviorEdgeKind.REPEAT
        }
        due.update(name for name in graph.events if name not in entered and name not in grouped)
        started = {iid.rpartition("#")[0] for iid in first.live}
        if started != due:
            problems.append(f"tick 0 started {sorted(started)}, expected {sorted(due)}")
    return problems


def terminal_stop_violations(graph: BehaviorGraph, trace: SimTrace) -> list[str]:
    """From the first tick at which a terminal event (one no edge leaves)
    completes, an unbounded repeat requests nothing: an instance started then,
    whose only request was such a repeat, must not be there. Another edge into
    its event whose source completed at that tick, or a choice of its event at
    that tick, accounts for a start."""
    spans = lifespans(trace)
    completed: dict[int, set[str]] = {}
    for span in spans.values():
        if span.end is not None and span.end == span.start + graph.events[span.event].duration:
            completed.setdefault(span.end, set()).add(span.event)
    sources = {edge.source for edge in graph.edges}
    stop = min((tick for tick, done in completed.items() if done - sources), default=None)
    if stop is None:
        return []
    chosen = {(snap.tick, event) for snap in trace.ticks for _, event in snap.choices}
    problems: list[str] = []
    for span in spans.values():
        if span.start < stop or (span.start, span.event) in chosen:
            continue
        done = completed.get(span.start, set())
        requests = [
            edge.kind is BehaviorEdgeKind.REPEAT and edge.bound is None
            for edge in graph.edges
            if edge.target == span.event and edge.source in done and edge.kind is not BehaviorEdgeKind.CHOICE
        ]
        if requests and all(requests):
            problems.append(
                f"{span.iid} started at {span.start} by an unbounded repeat, "
                f"after a terminal event completed at {stop}"
            )
    return problems


def policy_violations(trace: SimTrace, graph: BehaviorGraph, policy) -> list[str]:
    """Every choice taken, in tick and then in-tick order, is the policy's:
    the first member, the stated LCG's pick from the seed, or the script's
    next name."""
    members = {group.group_id: group.members for group in graph.groups}
    taken = [(gid, chosen) for snap in trace.ticks for gid, chosen in snap.choices]
    state = policy.seed % 2**32 if isinstance(policy, SeededRandom) else 0
    problems: list[str] = []
    for position, (gid, chosen) in enumerate(taken):
        options = members[gid]
        if isinstance(policy, FirstDeclared):
            expected = options[0]
        elif isinstance(policy, SeededRandom):
            state = (1664525 * state + 1013904223) % 2**32
            expected = options[state % len(options)]
        else:
            expected = policy.script[position] if position < len(policy.script) else None
        if chosen != expected:
            problems.append(f"choice {position} ({gid}): took {chosen}, policy gives {expected}")
    return problems


# -- lexer, one character at a time --------------------------------------------

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = frozenset("0123456789")
_IDENT_CONT = _IDENT_START | _DIGITS
LARGEST_NUMBER = 9_223_372_036_854_775_807  # 2**63 - 1, the DSL's largest duration or bound


@dataclass(slots=True)
class Token:
    kind: str  # "ident" | "string" | "int" | "punct" | "eof"
    text: str
    value: object  # an int above LARGEST_NUMBER has None
    start: int
    end: int
    line: int
    column: int


def _number(digits: str) -> int | None:
    """The value of a run of digits, one digit at a time; None once it passes
    LARGEST_NUMBER."""
    value = 0
    for digit in digits:
        value = value * 10 + "0123456789".index(digit)
        if value > LARGEST_NUMBER:
            return None
    return value


def reference_lex(text: str, source: str = "<input>") -> tuple[list[Token], list]:
    """The DSL's lexer one character at a time, moving the line and column with
    every character consumed. It is the lexer tmkit shipped before the regex
    one, with three position faults mended: a backslash-escaped newline inside
    a string counts as a line, the end-of-input token after a trailing comment
    sits after the comment, and a backslash at the very end does not push the
    "unterminated string" span past the text. A P1 finding is placed at its
    own start (an unknown escape at its backslash, not at the opening quote)."""
    tokens: list[Token] = []
    diags: list = []
    n = len(text)
    i, line, col = 0, 1, 1

    def step(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if text[i] == "\n":
                line, col = line + 1, 1
            else:
                col += 1
            i += 1

    def err(message: str, start: int, end: int, at_line: int, at_col: int) -> None:
        if len(diags) < MAX_DIAGNOSTICS:
            diags.append(Diagnostic("P1", message, SourceSpan(source, start, end, at_line, at_col)))

    while i < n:
        ch = text[i]
        if ch in " \t\r\f\v\n":
            step(1)
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                step(1)
            continue
        start, sline, scol = i, line, col
        if ch in _IDENT_START:
            step(1)
            while i < n:
                if text[i] in _IDENT_CONT:
                    step(1)
                elif text[i] == "-" and i + 1 < n and text[i + 1] in _IDENT_CONT:
                    step(2)
                else:
                    break
            tokens.append(Token("ident", text[start:i], text[start:i], start, i, sline, scol))
        elif ch in _DIGITS:
            while i < n and text[i] in _DIGITS:
                step(1)
            tokens.append(Token("int", text[start:i], _number(text[start:i]), start, i, sline, scol))
        elif ch == '"':
            step(1)
            parts: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    step(1)
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\":
                    if i + 1 < n and text[i + 1] in ('"', "\\"):
                        parts.append(text[i + 1])
                        step(2)
                        continue
                    err("unknown escape in string", i, min(i + 2, n), line, col)
                    step(min(2, n - i))
                    continue
                parts.append(c)
                step(1)
            if closed:
                tokens.append(Token("string", text[start:i], "".join(parts), start, i, sline, scol))
            else:
                err("unterminated string", start, i, sline, scol)
        elif ch == "-" and i + 1 < n and text[i + 1] == ">":
            step(2)
            tokens.append(Token("punct", "->", "->", start, i, sline, scol))
        elif ch in "{};:,|=.":
            step(1)
            tokens.append(Token("punct", ch, ch, start, i, sline, scol))
        else:
            err(f"unexpected character {ch!r}", start, i + 1, sline, scol)
            step(1)
    tokens.append(Token("eof", "", None, n, n, line, col))
    return tokens, diags


def position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset, counted from the text itself."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# -- model JSON as a payload for json.dumps --------------------------------------


def model_payload(document: ModelDocument, include_regions: bool, include_behavior: bool) -> dict:
    """What model_to_json writes, as a value: json.dumps(payload, indent=2,
    sort_keys=True) + "\\n" is the expected text."""
    model = document.model
    payload: dict = {
        "schema": "tm-model/1",
        "machines": [
            {
                "id": machine.id,
                "name": machine.name,
                "parent": machine.parent,
                "children": sorted(machine.children.values()),
                "stages": sorted(machine.stages.values()),
                "storages": sorted(machine.storages.values()),
            }
            for machine in model.machines.values()
        ],
        "stages": [{"id": s.id, "kind": s.kind.value, "owner": s.owner} for s in model.stages.values()],
        "storages": [{"id": s.id, "owner": s.owner, "thing": s.thing} for s in model.storages.values()],
        "flows": [{"id": e.id, "src": e.src, "dst": e.dst, "thing": e.thing} for e in model.flows.values()],
        "triggers": [{"id": t.id, "src": t.src, "dst": t.dst} for t in model.triggers.values()],
    }
    for key in ("machines", "stages", "storages", "flows", "triggers"):
        payload[key].sort(key=lambda entry: entry["id"])
    if include_regions or include_behavior:
        payload["regions"] = {name: list(decl.stage_ids) for name, decl in document.regions.items()}
        payload["events"] = {
            name: {"region": decl.region, "duration": decl.duration, "label": decl.label}
            for name, decl in document.events.items()
        }
    if include_behavior:
        payload["behavior"] = [
            {"kind": decl.kind, "source": decl.source, "targets": list(decl.targets), "bound": decl.bound}
            for decl in document.behavior
        ]
    return payload
