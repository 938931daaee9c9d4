"""Command line interface.

    tmkit parse FILE [--canonical]
    tmkit check FILE [--strict]
    tmkit eventize FILE
    tmkit simulate FILE [--policy first|random|scripted:A,B] [--seed N]
                        [--horizon N] [--trace OUT.json]
    tmkit export FILE --format json|dot [-o OUT] [--regions] [--behavior]

`parse` is the syntax and reference view. Every other command is a view over
one `load` call (parse, the model rules, the region and behavior rules) and
refuses a document with error diagnostics; each diagnostic carries the span
of what it is about.

Exit codes: 0 success, 1 failure (error diagnostics, unusable document, a run
that could not be carried out, or a file that could not be read or written),
2 usage errors. Diagnostics and errors go to stderr; requested artifacts go to
stdout or to files, written atomically.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from tmkit import export as export_mod
from tmkit.diagnostics import Diagnostic, has_errors
from tmkit.dsl import ModelDocument, parse
from tmkit.events import BehaviorGraph, CoverageReport, Event, eventize
from tmkit.formatter import format_document
from tmkit.sim import FirstDeclared, Scripted, SeededRandom, SimulationError, run
from tmkit.validate import check_model


@dataclass(frozen=True, slots=True)
class Loaded:
    """What `load` made of a source, up to the first stage that reported errors."""

    document: ModelDocument | None
    events: dict[str, Event]
    graph: BehaviorGraph | None
    coverage: CoverageReport | None
    diagnostics: list[Diagnostic]


def load(text: str, source: str = "<input>") -> Loaded:
    """Parse, check the model, and eventize; stop after the first stage that
    reports errors. Never raises on any input."""
    result = parse(text, source=source)
    document = result.document
    if document is None:
        return Loaded(None, {}, None, None, result.diagnostics)
    diagnostics = [
        replace(d, span=document.spans.get(d.subject)) for d in check_model(document.model)
    ]
    if has_errors(diagnostics):
        return Loaded(document, {}, None, None, diagnostics)
    events, graph, report, found = eventize(document)
    return Loaded(document, events, graph, report, diagnostics + found)


def _emit(diagnostics: Sequence[Diagnostic]) -> None:
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _write(path: str, text: str) -> bool:
    try:
        export_mod.write_text_atomic(path, text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _load_file(path: str) -> Loaded | None:
    """The loaded file with its diagnostics printed; None when it cannot be used."""
    text = _read(path)
    if text is None:
        return None
    loaded = load(text, source=path)
    _emit(loaded.diagnostics)
    return None if has_errors(loaded.diagnostics) else loaded


def _cmd_parse(args: argparse.Namespace) -> int:
    text = _read(args.file)
    if text is None:
        return 1
    result = parse(text, source=args.file)
    _emit(result.diagnostics)
    document = result.document
    if document is None:
        return 1
    if args.canonical:
        sys.stdout.write(format_document(document))
    else:
        model = document.model
        print(
            f"ok: {len(model.machines) - 1} machines, {len(model.stages)} stages, "
            f"{len(model.flows)} flows, {len(model.triggers)} triggers, "
            f"{len(document.events)} events"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    loaded = _load_file(args.file)
    if loaded is None or (args.strict and loaded.diagnostics):
        return 1
    count = len(loaded.diagnostics)
    print(f"ok: {count} warning(s)" if count else "ok")
    return 0


def _cmd_eventize(args: argparse.Namespace) -> int:
    loaded = _load_file(args.file)
    if loaded is None:
        return 1
    graph, report = loaded.graph, loaded.coverage
    for name, event in loaded.events.items():
        marks = []
        if name in graph.initial:
            marks.append("initial")
        if name in graph.terminal:
            marks.append("terminal")
        suffix = f" [{', '.join(marks)}]" if marks else ""
        label = f" -- {event.label}" if event.label else ""
        print(
            f"{name}: {len(event.region.stages)} stages, duration {event.duration}"
            f"{suffix}{label}"
        )
    print(f"coverage: {len(report.uncovered)} uncovered stage(s), {len(report.overlaps)} shared")
    return 0


def _make_policy(choice: str, seed: int):
    if choice == "first":
        return FirstDeclared()
    if choice == "random":
        return SeededRandom(seed)
    if choice.startswith("scripted:"):
        names = tuple(part for part in choice[len("scripted:"):].split(",") if part)
        if not names:
            raise ValueError("scripted policy needs at least one event name")
        return Scripted(names)
    raise ValueError(f"unknown policy {choice!r} (use first, random, or scripted:A,B)")


def _cmd_simulate(args: argparse.Namespace) -> int:
    loaded = _load_file(args.file)
    if loaded is None:
        return 1
    try:
        policy = _make_policy(args.policy, args.seed)
        trace = run(loaded.graph, policy, horizon=args.horizon, seed=args.seed)
    except (SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = trace.ticks[-1] if trace.ticks else None
    print(f"termination: {trace.termination}")
    print(f"ticks: {len(trace.ticks)}")
    print(f"record: {len(trace.record)} archived instance(s)")
    if last is not None and last.live:
        print(f"live at end: {', '.join(last.live)}")
    if args.trace:
        if not _write(args.trace, export_mod.trace_to_json(trace, loaded.graph, loaded.document.model)):
            return 1
        print(f"trace written: {args.trace}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    loaded = _load_file(args.file)
    if loaded is None:
        return 1
    document = loaded.document
    if args.format == "json":
        text = export_mod.model_to_json(
            document,
            include_regions=args.regions,
            include_behavior=args.behavior,
        )
    else:
        graph = loaded.graph if args.behavior and document.events else None
        text = export_mod.export_dot(document, behavior=graph, include_regions=args.regions)
    if not args.output:
        sys.stdout.write(text)
    elif not _write(args.output, text):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tmkit", description="Thinging machine toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse a model file and report diagnostics")
    p_parse.add_argument("file")
    p_parse.add_argument(
        "--canonical", action="store_true", help="print the canonical form on success"
    )
    p_parse.set_defaults(func=_cmd_parse)

    p_check = sub.add_parser("check", help="parse and run the structural rules")
    p_check.add_argument("file")
    p_check.add_argument("--strict", action="store_true", help="fail on warnings too")
    p_check.set_defaults(func=_cmd_check)

    p_event = sub.add_parser("eventize", help="list events, behavior roles, and coverage")
    p_event.add_argument("file")
    p_event.set_defaults(func=_cmd_eventize)

    p_sim = sub.add_parser("simulate", help="run the behavior graph")
    p_sim.add_argument("file")
    p_sim.add_argument(
        "--policy",
        default="first",
        help="first | random | scripted:EventA,EventB (default: first)",
    )
    p_sim.add_argument("--seed", type=int, default=0, help="seed for the random policy")
    p_sim.add_argument("--horizon", type=int, default=100, help="maximum tick (default 100)")
    p_sim.add_argument("--trace", metavar="OUT", help="write the trace as JSON to OUT")
    p_sim.set_defaults(func=_cmd_simulate)

    p_export = sub.add_parser("export", help="emit the model as JSON or DOT")
    p_export.add_argument("file")
    p_export.add_argument("--format", choices=("json", "dot"), required=True)
    p_export.add_argument("-o", "--output", metavar="OUT", help="write to OUT instead of stdout")
    p_export.add_argument(
        "--regions", action="store_true", help="include regions and events"
    )
    p_export.add_argument(
        "--behavior", action="store_true", help="include the behavior graph and its events"
    )
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
