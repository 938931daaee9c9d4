"""Eventizer: regions become events, events connect into a behavior graph.

An event is a region of the static model plus a duration in whole ticks: the
region's receive fires at the tick the event instantiates (opening its "now"),
and its processing spans `duration` ticks. Behavior edges order events:
Sequence, Choice (one alternative is taken), Concurrent (all branches are
taken), and Repeat (the next generation of the target replaces the previous
one, optionally bounded).

Initial events are those with no inbound sequence/choice/concurrent edge from
a source event. Choice/concurrent statements written without a source have the
start as their source: a source-less event whose completion fires at tick 0 and
also starts every initial event that no such statement names. Terminal events
have no outbound edges at all: an event that only repeats is not terminal.

`define_event`, `build_behavior` and `eventize` return their faults as
diagnostics, never as exceptions: `define_event` the P5 (duration) and
R1/R2/R3 (region) findings, `build_behavior` one B1 spanned at a statement
naming an unknown event or closing a cycle without a repeat edge (BehaviorDecl
checks the rest), and `eventize` both, region findings spanned at the event
declaration. `build_from_document` raises ValueError for the first error.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from tmkit.diagnostics import Diagnostic, has_errors
from tmkit.dsl import MAX_NUMBER, BehaviorDecl, ModelDocument
from tmkit.model import Region, StaticModel
from tmkit.validate import check_region


@dataclass(frozen=True, slots=True, eq=False)
class Event:
    name: str
    region: Region
    duration: int
    model: StaticModel
    label: str | None = None


class BehaviorEdgeKind(Enum):
    SEQUENCE = "sequence"
    CHOICE = "choice"
    CONCURRENT = "concurrent"
    REPEAT = "repeat"


@dataclass(frozen=True, slots=True)
class BehaviorEdge:
    source: str | None  # None for start groups
    target: str
    kind: BehaviorEdgeKind
    group: str | None = None  # shared by the members of one choice/concurrent group
    bound: int | None = None  # repeat only: max generations of the target


@dataclass(frozen=True, slots=True)
class Group:
    group_id: str
    kind: BehaviorEdgeKind
    source: str | None
    members: tuple[str, ...]


_Action = tuple[str, str | None, Group | int | None]  # see BehaviorGraph


@dataclass(slots=True)
class BehaviorGraph:
    """Events and the edges between them. The per-event indexes are built once,
    in __post_init__, so the simulator's lookups never scan the edge list.

    Two of them are the tables the simulator's tick kernel reads: `_durations`
    (event -> duration) and `_actions` (event -> what its completion does, one
    `(kind, target, arg)` per outbound edge in declaration order, where kind is
    the edge kind's value and arg the repeat bound; a choice group is one
    action, `("choice", None, group)`, at the place of its first edge). The
    key None is the start, which completes at tick 0: its actions are those
    of the start groups' edges, then one sequence action per initial event
    that no start group names, in name order."""

    events: dict[str, Event]
    edges: tuple[BehaviorEdge, ...]
    groups: tuple[Group, ...]
    initial: frozenset[str] = field(init=False)
    terminal: frozenset[str] = field(init=False)
    _out_edges: dict[str | None, tuple[BehaviorEdge, ...]] = field(init=False, repr=False, compare=False)
    _predecessors: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _durations: dict[str, int] = field(init=False, repr=False, compare=False)
    _actions: dict[str | None, tuple[_Action, ...]] = field(init=False, repr=False, compare=False)
    _digest: str | None = field(init=False, default=None, repr=False, compare=False)  # see digest

    def __post_init__(self) -> None:
        out: dict[str | None, list[BehaviorEdge]] = {}
        preds: dict[str, set[str]] = {}
        for edge in self.edges:
            out.setdefault(edge.source, []).append(edge)
            if edge.source is not None and edge.kind is not BehaviorEdgeKind.REPEAT:
                preds.setdefault(edge.target, set()).add(edge.source)
        self._out_edges = {name: tuple(found) for name, found in out.items()}
        self._predecessors = {name: tuple(sorted(found)) for name, found in preds.items()}
        self._durations = {name: event.duration for name, event in self.events.items()}
        groups_by_id = {group.group_id: group for group in self.groups}
        self._actions = {}
        for name, found in self._out_edges.items():
            actions: list[_Action] = []
            chosen: set[str] = set()
            for edge in found:
                if edge.kind is not BehaviorEdgeKind.CHOICE:
                    actions.append((edge.kind.value, edge.target, edge.bound))
                elif edge.group not in chosen:  # one pick per group, whatever its size
                    chosen.add(edge.group)
                    actions.append((edge.kind.value, None, groups_by_id[edge.group]))
            self._actions[name] = tuple(actions)
        self.initial = frozenset(name for name in self.events if name not in preds)
        self.terminal = frozenset(name for name in self.events if name not in out)
        ungrouped = sorted(self.initial.difference(edge.target for edge in out.get(None, ())))
        self._actions[None] = self._actions.get(None, ()) + tuple(("sequence", name, None) for name in ungrouped)

    def digest(self) -> str:
        """The graph's content digest (events, regions, edges), computed on
        the first call and kept: like the indexes above, it is taken once
        from fields that are not changed after construction."""
        if self._digest is None:
            payload = {
                "events": [
                    {
                        "name": name,
                        "duration": self.events[name].duration,
                        "label": self.events[name].label,
                        "stages": sorted(self.events[name].region.stages),
                    }
                    for name in sorted(self.events)
                ],
                "edges": [
                    {"source": e.source, "target": e.target, "kind": e.kind.value, "group": e.group, "bound": e.bound}
                    for e in self.edges
                ],
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._digest

    def out_edges(self, event: str | None) -> tuple[BehaviorEdge, ...]:
        """Edges leaving `event`, in declaration order; for None, the edges
        of the start groups."""
        return self._out_edges.get(event, ())

    def predecessors(self, event: str) -> frozenset[str]:
        """Events whose completion can instantiate `event` (repeat excluded)."""
        return frozenset(self._predecessors.get(event, ()))

    def start_groups(self) -> tuple[Group, ...]:
        return tuple(g for g in self.groups if g.source is None)

    def reachable_events(self, root: str) -> frozenset[str]:
        if root not in self.events:
            raise ValueError(f"unknown event {root!r}")
        seen = {root}
        frontier = [root]
        while frontier:
            for edge in self.out_edges(frontier.pop()):
                if edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
        return frozenset(seen)


def define_event(
    model: StaticModel,
    name: str,
    stage_ids: Iterable[str],
    duration: int = 1,
    label: str | None = None,
) -> tuple[Event | None, list[Diagnostic]]:
    """Carve an event out of the model, with the findings about it: P5 on a
    duration that is not a whole number of ticks from 1 to MAX_NUMBER (the
    bound EventDecl keeps), and the R1/R2/R3 findings of its region. A
    disconnected region (R2) is only a warning; on an error the event is None.
    Raises UnknownEntityError on a stage id that the model lacks."""
    if isinstance(duration, bool) or not isinstance(duration, int):
        return None, [Diagnostic("P5", f"duration must be an integer, got {duration!r}", subject=name)]
    if duration < 1:
        return None, [Diagnostic("P5", f"duration must be >= 1, got {duration}", subject=name)]
    if duration > MAX_NUMBER:
        return None, [Diagnostic("P5", f"duration must be <= {MAX_NUMBER}, got {duration}", subject=name)]
    members = frozenset(stage_ids)
    region = model.subdiagram(members) if members else None
    findings = check_region(model, members, name, region)
    if has_errors(findings):
        return None, findings
    return Event(name, region, duration, model, label), findings


def build_behavior(
    events: Mapping[str, Event], decls: Sequence[BehaviorDecl]
) -> tuple[BehaviorGraph | None, list[Diagnostic]]:
    """Connect events along declared statements and validate the result. A
    statement naming an unknown event, or closing a cycle without a repeat
    edge, is one B1 spanned at that statement, and no graph."""
    edges: list[BehaviorEdge] = []
    groups: list[Group] = []
    made = {"choice": 0, "concurrent": 0}  # groups so far, numbered c1, c2, ... and k1, k2, ...

    for decl in decls:
        for name in decl.targets if decl.source is None else (decl.source, *decl.targets):
            if name not in events:
                return None, [Diagnostic("B1", f"behavior references unknown event {name!r}", decl.span)]
        if decl.kind == "seq":
            edges.append(BehaviorEdge(decl.source, decl.targets[0], BehaviorEdgeKind.SEQUENCE))
        elif decl.kind == "repeat":
            edges.append(
                BehaviorEdge(decl.source, decl.targets[0], BehaviorEdgeKind.REPEAT, bound=decl.bound)
            )
        else:
            made[decl.kind] += 1
            group_id = f"{'c' if decl.kind == 'choice' else 'k'}{made[decl.kind]}"
            kind = BehaviorEdgeKind(decl.kind)
            groups.append(Group(group_id, kind, decl.source, decl.targets))
            for target in decl.targets:
                edges.append(BehaviorEdge(decl.source, target, kind, group=group_id))

    # A behavior without an initial event has a cycle, so this check covers it too.
    cycle = _unannotated_cycle(events, decls)
    if cycle is not None:
        target, decl = cycle
        message = f"cycle through {target!r} has no repeat edge; annotate it with 'repeat'"
        return None, [Diagnostic("B1", message, decl.span)]
    return BehaviorGraph(dict(events), tuple(edges), tuple(groups)), []


def _unannotated_cycle(
    events: Mapping[str, Event], decls: Sequence[BehaviorDecl]
) -> tuple[str, BehaviorDecl] | None:
    """An event on a cycle without a repeat edge, and the statement closing
    that cycle, if there is one: such a cycle cannot make progress."""
    forward: dict[str, list[tuple[str, BehaviorDecl]]] = {name: [] for name in events}
    for decl in decls:
        if decl.source is not None and decl.kind != "repeat":
            forward[decl.source].extend((target, decl) for target in decl.targets)
    state: dict[str, int] = {}  # 0 visiting, 1 done

    for start in sorted(events):
        if start in state:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        state[start] = 0
        while stack:
            node, index = stack.pop()
            if index < len(forward[node]):
                stack.append((node, index + 1))
                nxt, decl = forward[node][index]
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, 0))
                elif state[nxt] == 0:
                    return nxt, decl
            else:
                state[node] = 1
    return None


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """Which stages the events cover: dead statics and shared (overlap) stages."""

    uncovered: tuple[str, ...]
    overlaps: tuple[tuple[str, tuple[str, ...]], ...]  # (stage id, event names)

    def overlap_stages(self) -> tuple[str, ...]:
        return tuple(stage for stage, _ in self.overlaps)


def coverage(events: Mapping[str, Event], model: StaticModel) -> CoverageReport:
    holders: dict[str, list[str]] = {}
    for name in sorted(events):
        for stage_id in events[name].region.stages:
            holders.setdefault(stage_id, []).append(name)
    uncovered = tuple(sorted(s for s in model.stages if s not in holders))
    overlaps = tuple(
        (stage_id, tuple(holders[stage_id]))
        for stage_id in sorted(holders)
        if len(holders[stage_id]) > 1
    )
    return CoverageReport(uncovered, overlaps)


def overlap(a: Event, b: Event) -> Region | None:
    """Induced subdiagram on the shared stages; None when the events are disjoint."""
    if a.model is not b.model:
        raise ValueError("events belong to different models")
    shared = a.region.stages & b.region.stages
    if not shared:
        return None
    return a.model.subdiagram(shared)


def eventize(
    document: ModelDocument,
) -> tuple[dict[str, Event], BehaviorGraph | None, CoverageReport | None, list[Diagnostic]]:
    """Define every declared event, connect the behavior, and report coverage.
    Faults are diagnostics, not exceptions: P5 and R1/R2/R3 spanned at the
    event declaration, B1 at the behavior statement. On errors the graph and
    the coverage are None."""
    found: list[Diagnostic] = []
    events: dict[str, Event] = {}
    for name, decl in document.events.items():
        stage_ids = document.regions[decl.region].stage_ids
        event, findings = define_event(document.model, name, stage_ids, decl.duration, decl.label)
        found.extend(replace(d, span=decl.span) for d in findings)
        if event is not None:
            events[name] = event
    if has_errors(found):
        return events, None, None, found
    graph, findings = build_behavior(events, document.behavior)
    found.extend(findings)
    report = coverage(events, document.model) if graph is not None else None
    return events, graph, report, found


def build_from_document(document: ModelDocument) -> tuple[dict[str, Event], BehaviorGraph, CoverageReport]:
    """eventize(document), raising ValueError for its first error diagnostic."""
    events, graph, report, diagnostics = eventize(document)
    for diag in diagnostics:
        if diag.is_error:
            raise ValueError(diag.render())
    return events, graph, report
