"""Static-structure core: machines, stages, flows, triggers, storages, regions.

A model is a tree of machines under a synthetic "world" root, which holds no
stages or storages. Each other machine owns at most one stage per action kind.
Flow edges connect stages (or storage nodes) and carry an optional thing label;
trigger edges connect stages across flow series. Models can change until freeze().

Entity ids are deterministic:
  machine id   dotted path from the root, e.g. "mouth.moistening" (root id is "")
  stage id     "<machine id>.<kind>", e.g. "mouth.moistening.process"
  storage id   "<machine id>.<thing>"
  flow id      "f0001", "f0002", ... in insertion order (triggers: "t0001", ...);
               nothing removes an edge, so the next number is the count plus one

Since an id is the entity's path, resolve() finds an entity only by its id,
one dict lookup per path; it walks the machine tree only to word the error
when that lookup fails. Each machine maps the names of its child machines and
the things of its storages to their ids, so that walk and the duplicate-name
check are a dict lookup per segment, never a scan of the siblings. Child
machines and storages of one machine share a namespace.

Each stage or storage node has a list of the flow and trigger edges incident
to it, appended to by add_flow/add_trigger, so it is current before freeze()
too. Region connectivity, the forward closure and the validator's R3 check walk
these lists instead of every edge.

Mutation ops only guard referential integrity; legality of flows against the
adjacency table is the validator's job.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence


class ActionKind(Enum):
    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"


# Canonical emission order for stages inside a machine block: the declaration order.
KIND_ORDER: tuple[ActionKind, ...] = tuple(ActionKind)

KIND_NAMES: frozenset[str] = frozenset(kind.value for kind in ActionKind)

ROOT_ID = ""
ROOT_NAME = "world"


class ModelError(Exception):
    """Base class for construction and query failures on static models."""


class UnknownEntityError(ModelError):
    pass


class DuplicateEntityError(ModelError):
    pass


class FrozenModelError(ModelError):
    pass


class InvalidNameError(ModelError):
    pass


@dataclass(slots=True)
class Machine:
    id: str
    name: str
    parent: str | None
    children: dict[str, str] = field(default_factory=dict)  # name -> machine id
    stages: dict[ActionKind, str] = field(default_factory=dict)
    storages: dict[str, str] = field(default_factory=dict)  # thing -> storage id


@dataclass(frozen=True, slots=True)
class Stage:
    id: str
    kind: ActionKind
    owner: str


@dataclass(frozen=True, slots=True)
class FlowEdge:
    id: str
    src: str
    dst: str
    thing: str | None = None


@dataclass(frozen=True, slots=True)
class TriggerEdge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class Storage:
    id: str
    owner: str
    thing: str


@dataclass(frozen=True, slots=True)
class Region:
    """Induced subdiagram of a stage set: the stages, and whether the flow and
    trigger edges with both endpoints inside connect them weakly."""

    stages: frozenset[str]
    connected: bool


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_NOT_IN_NAME = re.compile(r'[."\x00-\x1f\x7f]')  # dots, quotes, control characters


def has_control_character(text: str) -> bool:
    return _CONTROL.search(text) is not None


def validate_name(name: str) -> str:
    """Names must be printable, dot-free, quote-free, and not reserved."""
    if not isinstance(name, str):
        raise InvalidNameError(f"name must be a string, got {name!r}")
    if not name:
        raise InvalidNameError("name must not be empty")
    if _NOT_IN_NAME.search(name):
        raise InvalidNameError(f"name contains a forbidden character: {name!r}")
    if name == ROOT_NAME:
        raise InvalidNameError(f"{ROOT_NAME!r} names the root machine and is reserved")
    if name in KIND_NAMES:
        raise InvalidNameError(f"{name!r} is a stage kind and is reserved")
    return name


class StaticModel:
    """Mutable-until-frozen container for the static structure."""

    def __init__(self) -> None:
        self.machines: dict[str, Machine] = {ROOT_ID: Machine(ROOT_ID, ROOT_NAME, None)}
        self.stages: dict[str, Stage] = {}
        self.flows: dict[str, FlowEdge] = {}
        self.triggers: dict[str, TriggerEdge] = {}
        self.storages: dict[str, Storage] = {}
        self._incident: dict[str, list[FlowEdge | TriggerEdge]] = {}
        self._frozen = False
        self._digest: str | None = None  # see digest

    # -- construction -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _guard_mutable(self) -> None:
        if self._frozen:
            raise FrozenModelError("model is frozen; mutation is not allowed")

    def _machine(self, machine_id: str) -> Machine:
        try:
            return self.machines[machine_id]
        except KeyError:
            raise UnknownEntityError(f"unknown machine: {machine_id!r}") from None

    @staticmethod
    def _guard_new_name(machine: Machine, name: str) -> None:
        if name in machine.children or name in machine.storages:
            raise DuplicateEntityError(f"machine or storage {name!r} already exists in {machine.name!r}")

    def add_machine(self, name: str, parent: str | None = None) -> str:
        self._guard_mutable()
        validate_name(name)
        parent_id = ROOT_ID if parent is None else parent
        parent_machine = self._machine(parent_id)
        self._guard_new_name(parent_machine, name)
        machine_id = name if parent_id == ROOT_ID else f"{parent_id}.{name}"
        self.machines[machine_id] = Machine(machine_id, name, parent_id)
        parent_machine.children[name] = machine_id
        return machine_id

    def add_stage(self, machine_id: str, kind: ActionKind) -> str:
        self._guard_mutable()
        if machine_id == ROOT_ID:
            raise ModelError(f"the root machine {ROOT_NAME!r} holds no stages")
        machine = self._machine(machine_id)
        if kind in machine.stages:
            raise DuplicateEntityError(f"machine {machine.name!r} already has a {kind.value} stage")
        stage_id = f"{machine_id}.{kind.value}"
        self.stages[stage_id] = Stage(stage_id, kind, machine_id)
        machine.stages[kind] = stage_id
        return stage_id

    def add_storage(self, machine_id: str, thing: str) -> str:
        self._guard_mutable()
        validate_name(thing)
        if machine_id == ROOT_ID:
            raise ModelError(f"the root machine {ROOT_NAME!r} holds no storages")
        machine = self._machine(machine_id)
        self._guard_new_name(machine, thing)
        storage_id = f"{machine_id}.{thing}"
        self.storages[storage_id] = Storage(storage_id, machine_id, thing)
        machine.storages[thing] = storage_id
        return storage_id

    def _node(self, node_id: str) -> str:
        if node_id in self.stages or node_id in self.storages:
            return node_id
        raise UnknownEntityError(f"unknown stage or storage: {node_id!r}")

    def add_flow(self, src: str, dst: str, thing: str | None = None) -> str:
        """Insert a flow edge. The thing is None or a valid name and the
        endpoints must exist; legality is checked later."""
        self._guard_mutable()
        if thing is not None:
            validate_name(thing)
        return self._insert_flow(src, dst, thing)

    def _insert_flow(self, src: str, dst: str, thing: str | None) -> str:
        """add_flow without its name check, for the linker, which checks the
        thing before it resolves the endpoints."""
        self._node(src)
        self._node(dst)
        flow_id = f"f{len(self.flows) + 1:04d}"
        self.flows[flow_id] = self._link(FlowEdge(flow_id, src, dst, thing))
        return flow_id

    def add_trigger(self, src: str, dst: str) -> str:
        self._guard_mutable()
        for node in (src, dst):
            if node not in self.stages:
                raise UnknownEntityError(f"triggers connect stages; unknown stage: {node!r}")
        trigger_id = f"t{len(self.triggers) + 1:04d}"
        self.triggers[trigger_id] = self._link(TriggerEdge(trigger_id, src, dst))
        return trigger_id

    def _link(self, edge: FlowEdge | TriggerEdge) -> FlowEdge | TriggerEdge:
        """Enter the edge in the incident lists of its endpoints."""
        self._incident.setdefault(edge.src, []).append(edge)
        if edge.dst != edge.src:
            self._incident.setdefault(edge.dst, []).append(edge)
        return edge

    def freeze(self) -> None:
        """Verify referential integrity and lock the model against mutation."""
        if self._frozen:
            return
        for machine in self.machines.values():
            if machine.id != ROOT_ID and machine.parent not in self.machines:
                raise ModelError(f"machine {machine.id!r} has a dangling parent")
            for child in machine.children.values():
                if child not in self.machines:
                    raise ModelError(f"machine {machine.id!r} lists a dangling child {child!r}")
        for edge in self.flows.values():
            self._node(edge.src)
            self._node(edge.dst)
        for trig in self.triggers.values():
            if trig.src not in self.stages or trig.dst not in self.stages:
                raise ModelError(f"trigger {trig.id!r} has a dangling endpoint")
        self._frozen = True

    # -- queries ----------------------------------------------------------

    def digest(self) -> str:
        """Content digest over the structure only. Flow and trigger ids reflect
        declaration order, so they are left out: two models that draw the same
        diagram hash alike no matter how their sources were arranged. A frozen
        model cannot change, so its digest is computed once and kept; an
        unfrozen one is digested anew on every call."""
        if self._digest is not None:
            return self._digest
        payload = {
            "machines": [
                {
                    "id": machine.id,
                    "name": machine.name,
                    "parent": machine.parent,
                    "children": sorted(machine.children.values()),
                    "stages": sorted(machine.stages.values()),
                    "storages": sorted(machine.storages.values()),
                }
                for machine in sorted(self.machines.values(), key=lambda m: m.id)
            ],
            "storages": [
                {"id": s.id, "owner": s.owner, "thing": s.thing}
                for s in sorted(self.storages.values(), key=lambda s: s.id)
            ],
            "flows": sorted([e.src, e.dst, e.thing or ""] for e in self.flows.values()),
            "triggers": sorted([t.src, t.dst] for t in self.triggers.values()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if self._frozen:
            self._digest = digest
        return digest

    def owner_of(self, node_id: str) -> str:
        """Machine id that owns a stage or storage node."""
        if node_id in self.stages:
            return self.stages[node_id].owner
        if node_id in self.storages:
            return self.storages[node_id].owner
        raise UnknownEntityError(f"unknown stage or storage: {node_id!r}")

    def stages_under(self, machine_id: str) -> list[str]:
        """All stage ids owned by a machine or any of its descendants, sorted."""
        found: list[str] = []
        queue = [self._machine(machine_id).id]
        while queue:
            mid = queue.pop()
            machine = self.machines[mid]
            found.extend(machine.stages.values())
            queue.extend(machine.children.values())
        return sorted(found)

    def resolve(self, segments: Sequence[str]) -> tuple[str, str]:
        """Resolve a dotted path to ("machine" | "stage" | "storage", entity id).

        The first segment may be the reserved root name. An entity's id is its
        path from the root, so the joined path is looked up in the stages, the
        machines and the storages, in that order, and only that lookup
        succeeds. A segment that is empty or holds a dot is not a name and
        fails it. On a failure the tree is walked to word the error: it names
        the first segment that is not a child machine, or the missing stage
        when only a final stage kind is left.
        """
        if not segments:
            raise UnknownEntityError("empty path")
        names = segments[1:] if segments[0] == ROOT_NAME else segments
        if not names:
            return ("machine", ROOT_ID)
        path = ".".join(names)
        if path.count(".") == len(names) - 1 and "" not in names:
            if path in self.stages:
                return ("stage", path)
            if path in self.machines:
                return ("machine", path)
            if path in self.storages:
                return ("storage", path)
        current = self.machines[ROOT_ID]
        for index, segment in enumerate(names, 1):  # breaks: all children would have resolved by id
            child = current.children.get(segment)
            if child is None:
                break
            current = self.machines[child]
        if index == len(names) and segment in KIND_NAMES:
            raise UnknownEntityError(f"machine {current.name!r} has no {segment} stage")
        raise UnknownEntityError(
            f"{'.'.join(segments)!r} does not resolve: no {segment!r} in {current.name!r}"
        )

    def incident_edges(self, node_id: str) -> Sequence[FlowEdge | TriggerEdge]:
        """Flow and trigger edges with `node_id` as an endpoint, in insertion order."""
        return self._incident.get(node_id, ())

    def reachable_stages(self, start: str) -> frozenset[str]:
        """Forward closure over flow and trigger edges; storage nodes are passed
        through but only stage ids are reported. Includes the start stage."""
        if start not in self.stages:
            raise UnknownEntityError(f"unknown stage: {start!r}")
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for edge in self._incident.get(node, ()):
                if edge.src == node and edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return frozenset(node for node in seen if node in self.stages)

    def subdiagram(self, stage_ids: Iterable[str]) -> Region:
        """Induced subdiagram over a non-empty stage set, with weak connectivity."""
        members = set(stage_ids)
        if not members:
            raise ModelError("region must contain at least one stage")
        for stage_id in members:
            if stage_id not in self.stages:
                raise UnknownEntityError(f"unknown stage: {stage_id!r}")
        return Region(frozenset(members), self._weakly_connected(members))

    def _weakly_connected(self, members: set[str]) -> bool:
        """Search from one member along the incident edges whose other end is
        also a member; connected when the search reaches every member."""
        start = min(members)
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for edge in self._incident.get(node, ()):
                other = edge.dst if edge.src == node else edge.src
                if other in members and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(members)
