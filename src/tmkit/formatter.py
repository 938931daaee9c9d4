"""Canonical text emission for model documents.

The formatter is a fixed point: formatting the parse of formatted text yields
byte-identical output. Canonical order is sorted names for machines (at every
nesting level), kind order for stages, sorted endpoint ids for flows/triggers,
sorted names for regions/events, and declaration order for behavior statements
(their order is semantic: it feeds the first-declared policy). Output uses two
space indentation and LF line endings.
"""
from __future__ import annotations

from tmkit.dsl import AMBIGUOUS_NAMES, IDENT_RE, BehaviorDecl, ModelDocument
from tmkit.model import KIND_ORDER, ROOT_ID, Machine, StaticModel


def emit_name(name: str) -> str:
    if IDENT_RE.match(name) and name not in AMBIGUOUS_NAMES:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def emit_path(entity_id: str) -> str:
    return ".".join(emit_name(segment) for segment in entity_id.split("."))


def _emit_machine(model: StaticModel, machine: Machine, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    lines.append(f"{pad}machine {emit_name(machine.name)} {{")
    for kind in KIND_ORDER:
        if kind in machine.stages:
            lines.append(f"{pad}  stage {kind.value};")
    for _, child_id in sorted(machine.children.items()):
        _emit_machine(model, model.machines[child_id], indent + 1, lines)
    lines.append(f"{pad}}}")


def _emit_behavior(decl: BehaviorDecl) -> str:
    if decl.kind == "seq":
        return f"{emit_name(decl.source)} -> {emit_name(decl.targets[0])};"
    if decl.kind == "repeat":
        target = decl.targets[0]
        parts = [f"repeat {emit_name(decl.source)}"]
        if target != decl.source:
            parts.append(f"-> {emit_name(target)}")
        if decl.bound is not None:
            parts.append(f"bound {decl.bound}")
        return " ".join(parts) + ";"
    separator = " | " if decl.kind == "choice" else ", "
    group = f"{decl.kind} {{ {separator.join(emit_name(t) for t in decl.targets)} }};"
    if decl.source is None:
        return group
    return f"{emit_name(decl.source)} -> {group}"


def format_document(document: ModelDocument) -> str:
    model = document.model
    sections: list[list[str]] = []

    for _, child_id in sorted(model.machines[ROOT_ID].children.items()):
        machine_lines: list[str] = []
        _emit_machine(model, model.machines[child_id], 0, machine_lines)
        sections.append(machine_lines)

    storages = sorted(model.storages.values(), key=lambda s: (s.owner, s.thing))
    if storages:
        sections.append(
            [f"storage {emit_name(s.thing)} in {emit_path(s.owner)};" for s in storages]
        )

    flows = sorted(model.flows.values(), key=lambda e: (e.src, e.dst, e.thing or ""))
    if flows:
        lines = []
        for edge in flows:
            head = f"flow {emit_name(edge.thing)}" if edge.thing is not None else "flow"
            lines.append(f"{head}: {emit_path(edge.src)} -> {emit_path(edge.dst)};")
        sections.append(lines)

    triggers = sorted(model.triggers.values(), key=lambda t: (t.src, t.dst))
    if triggers:
        sections.append(
            [f"trigger: {emit_path(t.src)} -> {emit_path(t.dst)};" for t in triggers]
        )

    if document.regions:
        lines = []
        for name in sorted(document.regions):
            decl = document.regions[name]
            members = ", ".join(emit_path(s) for s in sorted(decl.stage_ids))
            lines.append(f"region {emit_name(name)} = {{ {members} }};")
        sections.append(lines)

    if document.events:
        lines = []
        for name in sorted(document.events):
            decl = document.events[name]
            line = f"event {emit_name(name)} on {emit_name(decl.region)}"
            if decl.duration != 1:
                line += f" duration {decl.duration}"
            if decl.label is not None:
                escaped = decl.label.replace("\\", "\\\\").replace('"', '\\"')
                line += f' label "{escaped}"'
            lines.append(line + ";")
        sections.append(lines)

    if document.behavior:
        lines = ["behavior {"]
        lines.extend(f"  {_emit_behavior(decl)}" for decl in document.behavior)
        lines.append("}")
        sections.append(lines)

    if not sections:
        return ""
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"
