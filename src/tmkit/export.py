"""Serialization: DOT rendering, versioned JSON export/import, atomic writes.

JSON documents carry a schema tag: "tm-model/1" for static models (optionally
with regions and events, or with behavior, which implies them) and
"tm-trace/1" for run traces. Traces reference their inputs by sha256 content
digests. All emission is in sorted-id order so identical inputs produce
identical bytes.

DOT output renders machines as nested clusters, stages as boxes, storages as
cylinders, flows as solid arrows (labelled with their thing), and triggers as
dashed arrows. Regions are shown as node fill colors with a legend in comments:
regions may overlap and span machines, which rules out literal clusters. With
behavior included, a second digraph for the event graph follows the first.
"""
from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import uuid
from typing import Iterable, Sequence

from tmkit.dsl import MAX_NUMBER, BehaviorDecl, EventDecl, ModelDocument, document_from_parts
from tmkit.events import BehaviorGraph
from tmkit.model import ActionKind, ROOT_ID, StaticModel
from tmkit.sim import SimTrace, behavior_digest


class ExportError(Exception):
    pass


MODEL_SCHEMA_ID = "tm-model/1"
TRACE_SCHEMA_ID = "tm-trace/1"

MODEL_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "machines", "stages", "flows", "triggers", "storages"],
    "properties": {
        "schema": {"const": MODEL_SCHEMA_ID},
        "machines": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "name", "parent", "children", "stages", "storages"],
                "properties": {
                    "id": {"type": "string"},
                    "name": {"type": "string"},
                    "parent": {"type": ["string", "null"]},
                    "children": {"type": "array", "items": {"type": "string"}},
                    "stages": {"type": "array", "items": {"type": "string"}},
                    "storages": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "owner"],
                "properties": {
                    "id": {"type": "string"},
                    "kind": {"enum": [k.value for k in ActionKind]},
                    "owner": {"type": "string"},
                },
            },
        },
        "flows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "src", "dst", "thing"],
                "properties": {
                    "id": {"type": "string"},
                    "src": {"type": "string"},
                    "dst": {"type": "string"},
                    "thing": {"type": ["string", "null"]},
                },
            },
        },
        "triggers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "src", "dst"],
                "properties": {
                    "id": {"type": "string"},
                    "src": {"type": "string"},
                    "dst": {"type": "string"},
                },
            },
        },
        "storages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "owner", "thing"],
                "properties": {
                    "id": {"type": "string"},
                    "owner": {"type": "string"},
                    "thing": {"type": "string"},
                },
            },
        },
        "regions": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "string"}},
        },
        "events": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["region", "duration", "label"],
                "properties": {
                    "region": {"type": "string"},
                    "duration": {"type": "integer", "minimum": 1, "maximum": MAX_NUMBER},
                    "label": {"type": ["string", "null"]},
                },
            },
        },
        "behavior": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "source", "targets", "bound"],
                "properties": {
                    "kind": {"enum": ["seq", "choice", "concurrent", "repeat"]},
                    "source": {"type": ["string", "null"]},
                    "targets": {"type": "array", "items": {"type": "string"}},
                    "bound": {"type": ["integer", "null"], "minimum": 1, "maximum": MAX_NUMBER},
                },
            },
        },
    },
}

TRACE_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "model", "behavior", "policy", "seed", "horizon", "ticks", "termination"],
    "properties": {
        "schema": {"const": TRACE_SCHEMA_ID},
        "model": {"type": "string"},
        "behavior": {"type": "string"},
        "policy": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "horizon": {"type": "integer", "minimum": 1},
        "termination": {
            "enum": ["horizon", "terminal-reached", "deadlock", "scripted-exhausted"]
        },
        "ticks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tick", "live", "archived", "choices"],
                "properties": {
                    "tick": {"type": "integer", "minimum": 0},
                    "live": {"type": "array", "items": {"type": "string"}},
                    "archived": {"type": "array", "items": {"type": "string"}},
                    "choices": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["group", "chosen"],
                            "properties": {
                                "group": {"type": "string"},
                                "chosen": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
    },
}


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename; never leaves partial output.
    The file gets the mode a plain open() would give it (0666 less the umask).
    An existing directory is refused (IsADirectoryError) before anything is written."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    temp = os.path.join(directory, f".tmkit-{uuid.uuid4().hex}")
    try:
        descriptor = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def model_to_json(
    document: ModelDocument, include_regions: bool = False, include_behavior: bool = False
) -> str:
    """tm-model/1 JSON, byte for byte what json.dumps(payload, indent=2,
    sort_keys=True) gives, written here because `indent` turns off json's C
    encoder. The behavior brings the regions and events along: every declared
    event is a node of the behavior graph, so import_json needs them."""
    if not document.model.frozen:
        raise ExportError("model must be frozen before export")
    model, s, v = document.model, _string, json.dumps
    fields = {
        "schema": s(MODEL_SCHEMA_ID),
        "machines": _records(
            (
                f'"children": {_string_list(sorted(m.children.values()))}',
                f'"id": {s(m.id)}',
                f'"name": {s(m.name)}',
                f'"parent": {v(m.parent)}',
                f'"stages": {_string_list(sorted(m.stages.values()))}',
                f'"storages": {_string_list(sorted(m.storages.values()))}',
            )
            for _, m in sorted(model.machines.items())
        ),
        "stages": _records(
            (f'"id": {s(x.id)}', f'"kind": {s(x.kind.value)}', f'"owner": {s(x.owner)}')
            for _, x in sorted(model.stages.items())
        ),
        "storages": _records(
            (f'"id": {s(x.id)}', f'"owner": {s(x.owner)}', f'"thing": {s(x.thing)}')
            for _, x in sorted(model.storages.items())
        ),
        "flows": _records(
            (f'"dst": {s(e.dst)}', f'"id": {s(e.id)}', f'"src": {s(e.src)}', f'"thing": {v(e.thing)}')
            for _, e in sorted(model.flows.items())
        ),
        "triggers": _records(
            (f'"dst": {s(t.dst)}', f'"id": {s(t.id)}', f'"src": {s(t.src)}')
            for _, t in sorted(model.triggers.items())
        ),
    }
    if include_regions or include_behavior:
        fields["regions"] = _object(
            [
                f"    {s(name)}: " + _block([f"      {s(stage)}" for stage in decl.stage_ids], "\n    ]")
                for name, decl in sorted(document.regions.items())
            ]
        )
        fields["events"] = _object(
            [
                f'    {s(name)}: {{\n      "duration": {v(e.duration)},\n      "label": {v(e.label)},\n'
                f'      "region": {s(e.region)}\n    }}'
                for name, e in sorted(document.events.items())
            ]
        )
    if include_behavior:
        fields["behavior"] = _records(
            (
                f'"bound": {v(decl.bound)}',
                f'"kind": {v(decl.kind)}',
                f'"source": {v(decl.source)}',
                f'"targets": {_string_list(decl.targets)}',
            )
            for decl in document.behavior
        )
    body = ",\n".join(f"  {s(key)}: {value}" for key, value in sorted(fields.items()))
    return "{\n" + body + "\n}\n"


def model_digest(model: StaticModel) -> str:
    """The model's structure digest; a frozen model keeps it after the first call."""
    return model.digest()


def import_json(text: str) -> ModelDocument:
    """Rebuild a document from tm-model/1 JSON. Ids are reassigned in sorted
    order, which reproduces exported ids and keeps hand-written files isomorphic."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also over-long integers
        raise ExportError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != MODEL_SCHEMA_ID:
        raise ExportError(f"expected schema {MODEL_SCHEMA_ID!r}")
    model = StaticModel()
    try:
        machines = sorted(payload["machines"], key=lambda m: m["id"].count("."))
        ids: dict[str, str] = {ROOT_ID: ROOT_ID}
        for entry in machines:
            if entry["id"] == ROOT_ID:
                continue
            ids[entry["id"]] = model.add_machine(entry["name"], ids[entry["parent"]])
        nodes: dict[str, str] = {}
        for entry in sorted(payload["stages"], key=lambda s: s["id"]):
            nodes[entry["id"]] = model.add_stage(ids[entry["owner"]], ActionKind(entry["kind"]))
        for entry in sorted(payload["storages"], key=lambda s: s["id"]):
            nodes[entry["id"]] = model.add_storage(ids[entry["owner"]], entry["thing"])
        for entry in sorted(payload["flows"], key=lambda e: e["id"]):
            model.add_flow(nodes[entry["src"]], nodes[entry["dst"]], entry.get("thing"))
        for entry in sorted(payload["triggers"], key=lambda t: t["id"]):
            model.add_trigger(nodes[entry["src"]], nodes[entry["dst"]])
        regions = {
            name: tuple(nodes[sid] for sid in stage_ids)
            for name, stage_ids in payload.get("regions", {}).items()
        }
        events = {
            name: EventDecl(name, body["region"], body.get("duration", 1), body.get("label"))
            for name, body in payload.get("events", {}).items()
        }
        behavior = tuple(
            BehaviorDecl(
                entry["kind"],
                entry.get("source"),
                tuple(entry["targets"]),
                entry.get("bound"),
            )
            for entry in payload.get("behavior", [])
        )
        return document_from_parts(model, regions, events, behavior)
    except ExportError:
        raise
    except Exception as exc:
        raise ExportError(f"malformed model document: {exc}") from exc


def trace_to_json(trace: SimTrace, behavior: BehaviorGraph, model: StaticModel) -> str:
    """tm-trace/1 JSON, byte for byte what json.dumps(payload, indent=2,
    sort_keys=True) gives. The tick list is written here: with `indent` set,
    json falls back to its pure-Python encoder, which long traces feel."""
    header = {
        "behavior": behavior_digest(behavior),
        "horizon": trace.horizon,
        "model": model_digest(model),
        "policy": trace.policy,
        "schema": TRACE_SCHEMA_ID,
        "seed": trace.seed,
        "termination": trace.termination,
    }
    parts = ["{\n"]
    parts.extend(f"  {_string(key)}: {json.dumps(value)},\n" for key, value in header.items())
    if not trace.ticks:
        parts.append('  "ticks": []\n}\n')
        return "".join(parts)
    parts.append('  "ticks": [\n')
    ticks = []
    previous_live: tuple[str, ...] | None = None
    live = ""
    for snap in trace.ticks:
        if snap.live is not previous_live:  # run() hands on the live tuple of a tick that archived nothing
            previous_live, live = snap.live, _string_list(snap.live)
        choices = "[]"
        if snap.choices:
            choices = _block(
                [
                    f'        {{\n          "chosen": {_string(c)},\n          "group": {_string(g)}\n        }}'
                    for g, c in snap.choices
                ]
            )
        ticks.append(
            f'    {{\n      "archived": {_string_list(snap.archived)},\n'
            f'      "choices": {choices},\n'
            f'      "live": {live},\n'
            f'      "tick": {snap.tick}\n    }}'
        )
    parts.append(",\n".join(ticks))
    parts.append("\n  ]\n}\n")
    return "".join(parts)


_string = json.encoder.encode_basestring_ascii


def _string_list(items: Sequence[str]) -> str:
    """A list of strings at the nesting depth of a tick's or a record's fields."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_string, items)) + "\n      ]"


def _block(lines: list[str], close: str = "\n      ]") -> str:
    """A JSON array of already indented items; `close` ends it, by default at
    the depth of a tick's or a record's fields."""
    if not lines:
        return "[]"
    return "[\n" + ",\n".join(lines) + close


_FIELD = ",\n      "  # between a record's fields


def _records(records: Iterable[tuple[str, ...]]) -> str:
    """A top-level array of records, each given as its rendered fields."""
    return _block([f"    {{\n      {_FIELD.join(fields)}\n    }}" for fields in records], "\n  ]")


def _object(lines: list[str]) -> str:
    """A top-level JSON object of already indented members."""
    return "{\n" + ",\n".join(lines) + "\n  }" if lines else "{}"


# -- DOT ---------------------------------------------------------------------

_REGION_COLORS = (
    "#aec7e8",
    "#ffbb78",
    "#98df8a",
    "#ff9896",
    "#c5b0d5",
    "#c49c94",
    "#f7b6d2",
    "#dbdb8d",
    "#9edae5",
    "#cccccc",
)
_OVERLAP_COLOR = "#bbbbbb"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_colors(document: ModelDocument) -> tuple[dict[str, str], list[str]]:
    colors: dict[str, str] = {}
    legend: list[str] = []
    counts: dict[str, int] = {}
    for index, name in enumerate(sorted(document.regions)):
        color = _REGION_COLORS[index % len(_REGION_COLORS)]
        legend.append(f"// region {name}: {color}")
        for stage_id in document.regions[name].stage_ids:
            counts[stage_id] = counts.get(stage_id, 0) + 1
            colors[stage_id] = color if counts[stage_id] == 1 else _OVERLAP_COLOR
    if any(count > 1 for count in counts.values()):
        legend.append(f"// shared by several regions: {_OVERLAP_COLOR}")
    return colors, legend


def _emit_cluster(
    document: ModelDocument,
    machine_id: str,
    indent: str,
    colors: dict[str, str],
    lines: list[str],
) -> None:
    model = document.model
    machine = model.machines[machine_id]
    lines.append(f"{indent}subgraph cluster_{_cluster_key(machine_id)} {{")
    lines.append(f"{indent}  label={_dot_quote(machine.name)};")
    for stage_id in sorted(machine.stages.values()):
        stage = model.stages[stage_id]
        fill = colors.get(stage_id, "white")
        lines.append(
            f"{indent}  {_dot_quote(stage_id)} "
            f"[label={_dot_quote(stage.kind.value)}, fillcolor={_dot_quote(fill)}];"
        )
    for storage_id in sorted(machine.storages.values()):
        storage = model.storages[storage_id]
        lines.append(
            f"{indent}  {_dot_quote(storage_id)} "
            f"[label={_dot_quote(storage.thing)}, shape=cylinder, fillcolor=white];"
        )
    for _, child_id in sorted(machine.children.items()):
        _emit_cluster(document, child_id, indent + "  ", colors, lines)
    lines.append(f"{indent}}}")


def _cluster_key(machine_id: str) -> str:
    return hashlib.sha256(machine_id.encode("utf-8")).hexdigest()[:12]


def export_dot(
    document: ModelDocument,
    behavior: BehaviorGraph | None = None,
    include_regions: bool = True,
) -> str:
    """Render the static model (and optionally the behavior graph) as DOT text."""
    model = document.model
    colors, legend = _node_colors(document) if include_regions else ({}, [])
    lines = ["digraph model {"]
    lines.extend(f"  {line}" for line in legend)
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=box, style="rounded,filled", fillcolor=white];')
    root = model.machines[ROOT_ID]
    for _, child_id in sorted(root.children.items()):
        _emit_cluster(document, child_id, "  ", colors, lines)
    for edge in sorted(model.flows.values(), key=lambda e: e.id):
        label = f" [label={_dot_quote(edge.thing)}]" if edge.thing else ""
        lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)}{label};")
    for trig in sorted(model.triggers.values(), key=lambda t: t.id):
        lines.append(f"  {_dot_quote(trig.src)} -> {_dot_quote(trig.dst)} [style=dashed];")
    lines.append("}")

    if behavior is not None:
        lines.append("")
        lines.append("digraph behavior {")
        lines.append("  rankdir=LR;")
        lines.append('  node [shape=ellipse, style=filled, fillcolor="#f2f2f2"];')
        for name in sorted(behavior.events):
            event = behavior.events[name]
            label = name if event.duration == 1 else f"{name} ({event.duration})"
            lines.append(f"  {_dot_quote(name)} [label={_dot_quote(label)}];")
        start_needed = any(g.source is None for g in behavior.groups)
        if start_needed:
            lines.append('  "__start__" [shape=point, label=""];')
        for edge in behavior.edges:
            src = _dot_quote(edge.source) if edge.source is not None else '"__start__"'
            attrs: list[str] = []
            if edge.kind.value == "repeat":
                style = "dashed"
                text = "repeat" if edge.bound is None else f"repeat <= {edge.bound}"
                attrs.append(f"label={_dot_quote(text)}")
            elif edge.group is not None:
                style = "solid"
                attrs.append(f"label={_dot_quote(edge.group)}")
            else:
                style = "solid"
            attrs.append(f"style={style}")
            lines.append(f"  {src} -> {_dot_quote(edge.target)} [{', '.join(attrs)}];")
        lines.append("}")
    return "\n".join(lines) + "\n"
