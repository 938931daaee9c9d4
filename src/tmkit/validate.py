"""Well-formedness rules for static models and regions.

Every rule reports through the closed diagnostic catalogue (`tmkit.load`
spans each finding at its subject, region findings at their event):

  F1  same-machine flow edge whose (from kind, to kind) pair is not allowed
  F2  cross-machine flow edge: only transfer->transfer and transfer->receive
      may cross a machine boundary
  T1  trigger whose endpoints sit in one machine on one flow series (warning)
  M1  machine with stages but no entry: no create stage and no inbound
      cross-machine flow into its transfer/receive (warning)
  M2  release stage with no outgoing flow to a transfer (warning)
  R1  empty region
  R2  region not weakly connected (warning)
  R3  region contains exactly one endpoint of a transfer->receive flow edge;
      the atomic move must be wholly inside or wholly outside

Structural impossibilities are errors and block simulation; stylistic findings
are warnings. The TM's five stages fix which flows are legal: _ALLOWED below
is the single source of truth for flow legality.
"""
from __future__ import annotations

from typing import Iterable

from tmkit.diagnostics import Diagnostic
from tmkit.model import ActionKind, FlowEdge, Region, StaticModel

_K = ActionKind
# The permitted (from kind, to kind, same machine?) flow triples.
_ALLOWED = frozenset(
    {
        (_K.TRANSFER, _K.RECEIVE, True),
        (_K.RECEIVE, _K.PROCESS, True),
        (_K.RECEIVE, _K.RELEASE, True),
        (_K.PROCESS, _K.RELEASE, True),
        (_K.PROCESS, _K.CREATE, True),
        (_K.CREATE, _K.RELEASE, True),
        (_K.CREATE, _K.PROCESS, True),
        (_K.RELEASE, _K.TRANSFER, True),
        (_K.TRANSFER, _K.TRANSFER, False),
        (_K.TRANSFER, _K.RECEIVE, False),
    }
)


def _sorted(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=lambda d: (d.code, d.subject or "", d.message))


def _flow_components(model: StaticModel) -> dict[str, int]:
    """Weakly-connected component label per node, over flow edges only. By
    union-find; a merge keeps the smaller root, so the label is the smallest
    index of the component in sorted stage-then-storage order."""
    nodes = sorted(model.stages) + sorted(model.storages)
    index = {node: position for position, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(item: int) -> int:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for edge in model.flows.values():
        a, b = find(index[edge.src]), find(index[edge.dst])
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {node: find(position) for node, position in index.items()}


def check_model(model: StaticModel) -> list[Diagnostic]:
    """Check every flow, trigger, and machine of the model. Pure; deterministic order."""
    found: list[Diagnostic] = []
    stages = model.stages

    # One pass over the flows. F1/F2: every stage-to-stage edge against the
    # allowed triples; storage endpoints are exempt from them. M1: the machines
    # that a flow from another machine's stage or storage enters at a transfer
    # or receive. M2: the stages with a flow to a transfer, in any machine.
    inbound: set[str] = set()
    handed_off: set[str] = set()
    for edge in model.flows.values():
        dst = stages.get(edge.dst)
        if dst is None:
            continue
        if dst.kind in (_K.TRANSFER, _K.RECEIVE) and model.owner_of(edge.src) != dst.owner:
            inbound.add(dst.owner)
        src = stages.get(edge.src)
        if src is None:
            continue
        if dst.kind is _K.TRANSFER:
            handed_off.add(edge.src)
        same = src.owner == dst.owner
        if (src.kind, dst.kind, same) not in _ALLOWED:
            rule = "is not allowed within a machine" if same else "may not cross machines"
            message = f"flow {edge.src} -> {edge.dst}: {src.kind.value}->{dst.kind.value} {rule}"
            found.append(Diagnostic("F1" if same else "F2", message, subject=edge.id))

    # T1: trigger that never leaves one flow series of one machine.
    components = _flow_components(model)
    for trig in model.triggers.values():
        src_owner = model.stages[trig.src].owner
        dst_owner = model.stages[trig.dst].owner
        if src_owner == dst_owner and components[trig.src] == components[trig.dst]:
            found.append(
                Diagnostic(
                    "T1",
                    "trigger connects stages already joined by one flow series",
                    subject=trig.id,
                )
            )

    # M1: machines with stages but no way for anything to arrive.
    for machine in model.machines.values():
        if not machine.stages:
            continue
        if ActionKind.CREATE in machine.stages or machine.id in inbound:
            continue
        found.append(Diagnostic("M1", "machine is unreachable: nothing is created or received", subject=machine.id))

    # M2: release stages that never hand off to a transfer.
    for stage in model.stages.values():
        if stage.kind is ActionKind.RELEASE and stage.id not in handed_off:
            found.append(Diagnostic("M2", "release has no outgoing flow to a transfer", subject=stage.id))

    return _sorted(found)


def check_region(
    model: StaticModel,
    stage_ids: Iterable[str],
    subject: str | None = None,
    region: Region | None = None,
) -> list[Diagnostic]:
    """Check one region (as a stage id set) for R1/R2/R3. Pass `region` when
    its subdiagram is already built."""
    members = set(stage_ids)
    found: list[Diagnostic] = []
    if not members:
        return [Diagnostic("R1", "region has no stages", subject=subject)]
    if region is None:
        region = model.subdiagram(members)
    if not region.connected:
        found.append(Diagnostic("R2", "region is not weakly connected", subject=subject))
    # A split move has exactly one endpoint inside, so it is among the flows
    # incident to the members, and is met once, from that endpoint.
    stages = model.stages
    for member in members:
        for edge in model.incident_edges(member):
            if not isinstance(edge, FlowEdge) or (edge.src in members) == (edge.dst in members):
                continue
            src, dst = stages.get(edge.src), stages.get(edge.dst)  # None for a storage
            if src and dst and src.kind is ActionKind.TRANSFER and dst.kind is ActionKind.RECEIVE:
                found.append(
                    Diagnostic(
                        "R3",
                        f"region splits the atomic move {edge.src} -> {edge.dst}",
                        subject=subject,
                    )
                )
    return _sorted(found)
