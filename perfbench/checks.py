"""Output checks, independent of the code under test.

Expected values come from the generator (gen.Spec), from the simulator's
documented semantics restated here, or from properties every run must have.
None is a stored copy of earlier output. The trace properties are rebuilt
from the per-tick snapshots of the trace JSON alone, in the manner of
tests/oracles.py, with their own code.

tmkit is used only where the property is about tmkit itself: the canonical
text must reparse and format to itself, and import_json(model_to_json(doc))
must keep model_digest.
"""
from __future__ import annotations

import hashlib
import json
import re

import jsonschema

LCG_MULTIPLIER = 1664525
LCG_INCREMENT = 1013904223
LCG_MODULUS = 1 << 32

DIAGNOSTIC_LINE = re.compile(r"^(?:\S+:\d+:\d+: )?(error|warning) ([A-Z]\d): .*?(?: \[([^\]]+)\])?$")
DOT_NODE = re.compile(r'^\s*"[^"]*" \[label=')


class Behavior:
    """Facts about a behavior, computed from the generator's statements."""

    def __init__(self, stmts, durations: dict[str, int]):
        self.durations = durations
        self.preds: dict[str, set[str]] = {name: set() for name in durations}
        self.successors: dict[str, set[str]] = {name: set() for name in durations}
        self.groups: dict[str, tuple[str | None, tuple[str, ...]]] = {}
        edges: dict[str, set[str]] = {name: set() for name in durations}
        has_out: set[str] = set()
        has_in: set[str] = set()
        counters = {"choice": 0, "concurrent": 0}
        for stmt in stmts:
            if stmt.source is not None:
                has_out.add(stmt.source)
                edges[stmt.source].update(stmt.targets)
            if stmt.kind in counters:
                counters[stmt.kind] += 1
                gid = ("c" if stmt.kind == "choice" else "k") + str(counters[stmt.kind])
                if stmt.kind == "choice":
                    self.groups[gid] = (stmt.source, stmt.targets)
            if stmt.kind != "repeat" and stmt.source is not None:
                for target in stmt.targets:
                    has_in.add(target)
                    self.preds[target].add(stmt.source)
                    self.successors[stmt.source].add(target)
        self.initial = {name for name in durations if name not in has_in}
        self.terminal = {name for name in durations if name not in has_out}
        self.edges = edges

    def reachable(self, root: str) -> set[str]:
        seen, frontier = {root}, [root]
        while frontier:
            for nxt in self.edges[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


class Checker:
    def __init__(self, tmkit):
        self.tmkit = tmkit
        self.trace_schema = jsonschema.validators.validator_for(tmkit.TRACE_SCHEMA)(tmkit.TRACE_SCHEMA)
        self.model_schema = jsonschema.validators.validator_for(tmkit.MODEL_SCHEMA)(tmkit.MODEL_SCHEMA)

    # -- traces -----------------------------------------------------------------

    def trace(self, payload: dict, spec, policy: str, seed: int | None = None) -> list[str]:
        """Schema, presentism, cutoff, repetition, durations, choices and,
        when the generator knows it, the closed-form run."""
        problems = [f"trace schema: {error.message}" for error in self.trace_schema.iter_errors(payload)][:3]
        if problems:
            return problems
        behavior = Behavior(spec.behavior, spec.durations)
        ticks = payload["ticks"]
        if [snap["tick"] for snap in ticks] != list(range(len(ticks))):
            return ["trace ticks are not 0, 1, 2, ..."]
        spans, problems = _lifespans(ticks)
        last = len(ticks) - 1
        final_live = set(ticks[-1]["live"]) if ticks else set()
        problems += _presentism(ticks)
        problems += _repetition(spans)
        problems += _cutoff(spans, behavior)
        problems += _durations(spans, behavior, last, final_live)
        problems += _choices(ticks, spans, behavior, policy, seed)
        if spec.starts is not None:
            starts = {iid: span[0] for iid, span in spans.items()}
            if starts != spec.starts:
                wrong = sorted(set(starts.items()) ^ set(spec.starts.items()))[:3]
                problems.append(f"instance start ticks differ from the closed form, e.g. {wrong}")
            if payload["termination"] != spec.termination:
                problems.append(f"termination {payload['termination']!r}, expected {spec.termination!r}")
            if len(ticks) != spec.ticks:
                problems.append(f"{len(ticks)} ticks, expected {spec.ticks}")
        return problems[:5]

    def race(self, payload: dict, spec, roots: tuple[str, str], reported: list) -> list[str]:
        """race_report against finish ticks rebuilt from the snapshots."""
        behavior = Behavior(spec.behavior, spec.durations)
        spans, _ = _lifespans(payload["ticks"])

        def finish(root: str) -> int | None:
            members = behavior.reachable(root)
            mine = [span for iid, span in spans.items() if _event(iid) in members]
            if not mine or any(span[1] is None for span in mine):
                return None
            return max(span[1] for span in mine)

        a, b = finish(roots[0]), finish(roots[1])
        if a is not None and b is not None:
            expected = [None if a == b else roots[a > b], a, b, abs(a - b), a == b]
        else:
            expected = [roots[0] if a is not None else roots[1] if b is not None else None, a, b, None, False]
        return [] if expected == reported else [f"race report {reported}, expected {expected}"]

    # -- CLI outputs --------------------------------------------------------------

    def diagnostics(self, stderr: str, spec) -> list[str]:
        found = []
        for line in stderr.splitlines():
            match = DIAGNOSTIC_LINE.match(line)
            if match is None:
                return [f"unexpected stderr line: {line!r}"]
            found.append((match.group(2), match.group(3)))
        if sorted(found) != spec.diagnostics:
            return [f"diagnostics {sorted(found)[:4]}..., expected {spec.diagnostics[:4]}..."]
        return []

    def summary(self, stdout: str, spec) -> list[str]:
        expected = (
            f"ok: {spec.machines} machines, {spec.stages} stages, {spec.flows} flows, "
            f"{spec.triggers} triggers, {len(spec.durations)} events\n"
        )
        return [] if stdout == expected else [f"parse summary {stdout!r}, expected {expected!r}"]

    def check_output(self, stdout: str, spec) -> list[str]:
        count = len(spec.diagnostics)
        expected = f"ok: {count} warning(s)\n" if count else "ok\n"
        return [] if stdout == expected else [f"check printed {stdout!r}, expected {expected!r}"]

    def eventize(self, stdout: str, spec) -> list[str]:
        behavior = Behavior(spec.behavior, spec.durations)
        expected = []
        for name, duration in spec.durations.items():
            marks = [mark for mark, names in (("initial", behavior.initial), ("terminal", behavior.terminal)) if name in names]
            suffix = f" [{', '.join(marks)}]" if marks else ""
            expected.append(f"{name}: {spec.region_sizes[name]} stages, duration {duration}{suffix}")
        expected.append(f"coverage: {spec.uncovered} uncovered stage(s), {spec.shared} shared")
        got = stdout.splitlines()
        if got != expected:
            wrong = [(g, e) for g, e in zip(got, expected) if g != e][:2] or [(len(got), len(expected))]
            return [f"eventize output differs: {wrong}"]
        return []

    def simulate(self, stdout: str, payload: dict, trace_path: str) -> list[str]:
        ticks = payload["ticks"]
        record = sum(len(snap["archived"]) for snap in ticks)
        lines = [
            f"termination: {payload['termination']}",
            f"ticks: {len(ticks)}",
            f"record: {record} archived instance(s)",
        ]
        if ticks and ticks[-1]["live"]:
            lines.append(f"live at end: {', '.join(ticks[-1]['live'])}")
        lines.append(f"trace written: {trace_path}")
        expected = "\n".join(lines) + "\n"
        return [] if stdout == expected else [f"simulate printed {stdout!r}, expected {expected!r}"]

    def model_json(self, text: str, spec, digest: str) -> list[str]:
        payload = json.loads(text)
        problems = [f"model schema: {error.message}" for error in self.model_schema.iter_errors(payload)][:3]
        counts = {key: len(payload.get(key, ())) for key in ("machines", "stages", "flows", "triggers", "storages", "events", "regions")}
        expected = {
            "machines": spec.machines + 1,  # and the root
            "stages": spec.stages,
            "flows": spec.flows,
            "triggers": spec.triggers,
            "storages": spec.storages,
            "events": len(spec.durations),
            "regions": len(spec.durations),
        }
        if counts != expected:
            problems.append(f"model JSON counts {counts}, expected {expected}")
        if len(payload.get("behavior", ())) != len(spec.behavior):
            problems.append("model JSON lost behavior statements")
        roundtrip = self.tmkit.model_digest(self.tmkit.import_json(text).model)
        if roundtrip != digest:
            problems.append("import_json(model_to_json(doc)) changed model_digest")
        return problems

    def dot(self, text: str, spec) -> list[str]:
        model, _, behavior = text.partition("\ndigraph behavior {")
        nodes = sum(1 for line in model.splitlines() if DOT_NODE.match(line))
        events = sum(1 for line in behavior.splitlines() if DOT_NODE.match(line))
        problems = []
        if nodes != spec.stages + spec.storages:
            problems.append(f"DOT has {nodes} nodes, expected {spec.stages} stages + {spec.storages} storages")
        if events != len(spec.durations):
            problems.append(f"DOT behavior has {events} events, expected {len(spec.durations)}")
        return problems

    def canonical(self, text: str, spec) -> tuple[list[str], str | None]:
        """The canonical text reparses, formats to itself and keeps the counts.
        Returns the problems and the model digest of the reparsed document."""
        result = self.tmkit.parse(text, source="<canonical>")
        if not result.ok:
            return [f"canonical text does not reparse: {result.diagnostics[0].render()}"], None
        document = result.document
        problems = []
        if self.tmkit.format_document(document) != text:
            problems.append("canonical text is not a fixed point of format_document")
        model = document.model
        counts = (len(model.machines) - 1, len(model.stages), len(model.flows), len(model.triggers), len(document.events))
        expected = (spec.machines, spec.stages, spec.flows, spec.triggers, len(spec.durations))
        if counts != expected:
            problems.append(f"canonical text counts {counts}, expected {expected}")
        return problems, self.tmkit.model_digest(model)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- trace properties, from snapshots only --------------------------------------


def _event(iid: str) -> str:
    return iid.rpartition("#")[0]


def _lifespans(ticks) -> tuple[dict[str, list], list[str]]:
    """iid -> [start, end]: start is the first tick it is seen, end the tick it
    is archived (None while live)."""
    spans: dict[str, list] = {}
    problems = []
    for snap in ticks:
        tick = snap["tick"]
        for iid in snap["live"]:
            spans.setdefault(iid, [tick, None])
        for iid in snap["archived"]:
            span = spans.setdefault(iid, [tick, None])
            if span[1] is not None:
                problems.append(f"{iid} archived twice")
            span[1] = tick
    return spans, problems


def _presentism(ticks) -> list[str]:
    record: set[str] = set()
    seen: set[str] = set()
    for snap in ticks:
        record.update(snap["archived"])
        seen.update(snap["archived"])
        if record.intersection(snap["live"]):
            return [f"tick {snap['tick']}: an instance is both live and recorded"]
        seen.update(snap["live"])
    final = set(ticks[-1]["live"]) if ticks else set()
    lost = seen - record - final
    return [f"instances neither recorded nor live at the end: {sorted(lost)[:3]}"] if lost else []


def _repetition(spans) -> list[str]:
    by_event: dict[str, dict[int, list]] = {}
    for iid, span in spans.items():
        name, _, gen = iid.rpartition("#")
        by_event.setdefault(name, {})[int(gen)] = span
    for name, gens in by_event.items():
        if sorted(gens) != list(range(1, len(gens) + 1)):
            return [f"{name}: generations {sorted(gens)[:5]} are not 1..k"]
        for g in range(1, len(gens)):
            if gens[g][1] is None or gens[g][1] > gens[g + 1][0]:
                return [f"{name}#{g} outlived the start of #{g + 1}"]
    return []


def _cutoff(spans, behavior: Behavior) -> list[str]:
    by_event: dict[str, list[list]] = {}
    for iid, span in spans.items():
        by_event.setdefault(_event(iid), []).append(span)
    for iid, span in spans.items():
        for pred in behavior.preds[_event(iid)]:
            for old in by_event.get(pred, ()):
                if old[0] < span[0] and (old[1] is None or old[1] > span[0]):
                    return [f"a {pred} instance survived the start of {iid}"]
    return []


def _durations(spans, behavior: Behavior, last: int, final_live: set[str]) -> list[str]:
    """An instance ends at start + duration unless a successor or its next
    generation starts at the tick it ends; one live at the end is unfinished."""
    starts_at: dict[int, set[str]] = {}
    for iid, span in spans.items():
        starts_at.setdefault(span[0], set()).add(iid)
    for iid, (start, end) in spans.items():
        name, _, gen = iid.rpartition("#")
        due = start + behavior.durations[name]
        if end is None:
            if iid not in final_live or last >= due:
                return [f"{iid} should have ended at {due}"]
            continue
        if end > due:
            return [f"{iid} ended at {end}, after its duration ran out at {due}"]
        if end < due:
            newcomers = {_event(other) for other in starts_at.get(end, ())}
            replaced = f"{name}#{int(gen) + 1}" in starts_at.get(end, ())
            if not (newcomers & behavior.successors[name]) and not replaced:
                return [f"{iid} ended early at {end} with no successor or next generation starting"]
    return []


def _choices(ticks, spans, behavior: Behavior, policy: str, seed: int | None) -> list[str]:
    """Each choice group resolves to exactly one member each time its source
    completes (start groups once, at tick 0); the pick follows the policy."""
    completions: dict[str, int] = {}
    for iid, (start, end) in spans.items():
        name = _event(iid)
        if end is not None and end == start + behavior.durations[name]:
            completions[name] = completions.get(name, 0) + 1
    resolved: dict[str, int] = {}
    state = None if seed is None else seed % LCG_MODULUS
    for snap in ticks:
        groups_here = [entry["group"] for entry in snap["choices"]]
        if len(groups_here) != len(set(groups_here)):
            return [f"tick {snap['tick']}: a choice group resolved twice"]
        for entry in snap["choices"]:
            group, chosen = entry["group"], entry["chosen"]
            if group not in behavior.groups:
                return [f"tick {snap['tick']}: unknown choice group {group}"]
            source, members = behavior.groups[group]
            if source is None and snap["tick"] != 0:
                return [f"start group {group} resolved after tick 0"]
            if policy == "first":
                expected = members[0]
            else:
                state = (LCG_MULTIPLIER * state + LCG_INCREMENT) % LCG_MODULUS
                expected = members[state % len(members)]
            if chosen != expected:
                return [f"tick {snap['tick']}: {group} chose {chosen}, the {policy} policy picks {expected}"]
            resolved[group] = resolved.get(group, 0) + 1
    for group, (source, _) in behavior.groups.items():
        wanted = 1 if source is None else completions.get(source, 0)
        if resolved.get(group, 0) != wanted:
            return [f"{group} resolved {resolved.get(group, 0)} times, its source completed {wanted} times"]
    return []
