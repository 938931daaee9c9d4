"""Spans around tmkit's public calls, recorded from outside the package.

A wrapper is installed at each name a caller looks up (for example
`tmkit.cli.parse` or `tmkit.events.define_event`) and removed afterwards.
Spans are kept in memory as (name, start, end, parent, tag, counts, alloc)
and written out when the run ends. A layer's self time is its span minus the
time its child spans cover.

In the allocation pass the wrappers of `parse` and `run` also record the
tracemalloc peak of the call. Neither has wrapped children, so resetting the
peak at their entry loses no other measurement.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from typing import Any, Callable


def _source_size(args, result) -> dict[str, int]:
    return {"bytes": len(args[0])}


def _run_size(args, result) -> dict[str, int]:
    live = len(result.ticks[-1].live) if result.ticks else 0
    return {"ticks": len(result.ticks), "instances": len(result.record) + live}


def _text_size(args, result) -> dict[str, int]:
    return {"bytes": len(result)}


# (module, attribute, span name, counts of the call)
WRAPPED = (
    ("tmkit.cli", "parse", "dsl.parse", _source_size),
    ("tmkit.dsl", "parse", "dsl.parse", _source_size),
    ("tmkit.cli", "check_model", "validate.check", None),
    ("tmkit.validate", "check_model", "validate.check", None),
    ("tmkit.events", "define_event", "events.define", None),
    ("tmkit.events", "build_behavior", "events.behavior", None),
    ("tmkit.events", "coverage", "events.coverage", None),
    ("tmkit.cli", "run", "sim.run", _run_size),
    ("tmkit.sim", "run", "sim.run", _run_size),
    ("tmkit.sim", "race_report", "sim.race", None),
    ("tmkit.export", "trace_to_json", "export.trace_json", _text_size),
    ("tmkit.export", "model_to_json", "export.model_json", None),
    ("tmkit.export", "import_json", "export.import_json", None),
    ("tmkit.export", "export_dot", "export.dot", None),
    ("tmkit.export", "write_text_atomic", "export.write", None),
    ("tmkit.cli", "format_document", "formatter.format", None),
)
ALLOC_SPANS = frozenset({"dsl.parse", "sim.run"})

# Operation spans: a CLI operation's self time is the CLI's own work.
CLI_OP = "cli.op"
LIBRARY_OP = "op"

# Per-layer metric -> span whose self time it reports, in milliseconds.
SELF_MS = {
    "dsl.parse_ms": "dsl.parse",
    "validate.check_ms": "validate.check",
    "events.define_ms": "events.define",
    "events.behavior_ms": "events.behavior",
    "events.coverage_ms": "events.coverage",
    "sim.run_ms": "sim.run",
    "sim.race_ms": "sim.race",
    "export.trace_json_ms": "export.trace_json",
    "export.model_json_ms": "export.model_json",
    "export.import_json_ms": "export.import_json",
    "export.dot_ms": "export.dot",
    "export.write_ms": "export.write",
    "formatter.format_ms": "formatter.format",
    "cli.self_ms": CLI_OP,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.tag: Any = None  # which operation or set-up the spans belong to
        self.alloc = False
        self._restore: list[tuple[Any, str, Callable]] = []

    def install(self, modules: dict[str, Any]) -> None:
        for module_name, attr, name, counts in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counts))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, func: Callable, name: str, counts: Callable | None) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            measure = self.alloc and name in ALLOC_SPANS
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if measure:
                record[6] = tracemalloc.get_traced_memory()[1] - base
            if counts is not None:
                record[5] = counts(args, result)
            return result

        return wrapper

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "tag", "counts", "alloc")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)

    # -- reduction ------------------------------------------------------------

    def _by_tag(self) -> dict[Any, dict[str, dict[str, float]]]:
        """tag -> span name -> summed self/wall seconds, counts, largest alloc."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        grouped: dict[Any, dict[str, dict[str, float]]] = {}
        for index, (name, start, end, _, tag, counts, alloc) in enumerate(self.spans):
            entry = grouped.setdefault(tag, {}).setdefault(name, {"self": 0.0, "wall": 0.0, "alloc": 0})
            entry["self"] += own[index]
            entry["wall"] += end - start
            entry["alloc"] = max(entry["alloc"], alloc or 0)
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return grouped

    def layer_metrics(self, ops: list[Any], setups: list[Any], alloc_ops: list[Any]) -> dict[str, float]:
        """Median over operations of each layer's figure. A layer that no
        operation calls reports its median over the set-ups instead (seed-sweep
        loads its model there), and 0 when neither calls it."""
        grouped = self._by_tag()

        def layer(name: str, value: Callable[[dict[str, float]], float], tags_order=(ops, setups)) -> float:
            for tags in tags_order:
                samples = [value(grouped[t][name]) for t in tags if name in grouped.get(t, {})]
                if samples:
                    return statistics.median(samples)
            return 0.0

        metrics = {metric: layer(name, lambda e: e["self"] * 1e3) for metric, name in SELF_MS.items()}
        metrics["dsl.kb_per_s"] = layer("dsl.parse", lambda e: e["bytes"] / 1024 / e["self"])
        metrics["sim.ticks_per_s"] = layer("sim.run", lambda e: e["ticks"] / e["self"])
        metrics["sim.ticks"] = layer("sim.run", lambda e: e["ticks"])
        metrics["sim.instances"] = layer("sim.run", lambda e: e["instances"])
        metrics["export.trace_kb"] = layer("export.trace_json", lambda e: e["bytes"] / 1024)
        for metric, name in (("dsl.alloc_peak_mb", "dsl.parse"), ("sim.alloc_peak_mb", "sim.run")):
            metrics[metric] = layer(name, lambda e: e["alloc"] / 2**20, (alloc_ops,))
        metrics["traced.op_ms"] = max(
            layer(op, lambda e: e["wall"] * 1e3, (ops,)) for op in (CLI_OP, LIBRARY_OP)
        )
        return metrics


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> list[Any]:
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.record = [self.name, 0.0, 0.0, parent, tracer.tag, None, None]
        tracer.spans.append(self.record)
        tracer.stack.append(len(tracer.spans) - 1)
        self.record[1] = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
