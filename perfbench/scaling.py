"""Per-layer scaling tables: the chain, reverse-order and long-run models.

    python3 perfbench/scaling.py

Prints markdown tables of wall time per layer. Each figure is the median of
three calls, so a single slow call on a shared host does not set it.
"""
from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tmkit  # noqa: E402

REPEATS = 3
CHAIN_SIZES = (100, 200, 400, 800)
REVERSE_SIZES = (250, 500, 1000, 2000)
HORIZONS = (2500, 5000, 10000, 20000)


def timed(func, *args):
    """(median seconds over REPEATS calls, last result)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = func(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def chain_text(n: int) -> str:
    """n machines with transfer/receive/process/release and five flows each,
    one event per machine, a sequence chain closed by a repeat."""
    lines = []
    for i in range(n):
        m = f"m{i:05d}"
        lines.append(f"machine {m} {{ stage transfer; stage receive; stage process; stage release; }}")
        lines.append(f"flow: {m}.transfer -> {m}.receive;")
        lines.append(f"flow: {m}.receive -> {m}.process;")
        lines.append(f"flow: {m}.process -> {m}.release;")
        lines.append(f"flow: {m}.release -> {m}.transfer;")
        if i + 1 < n:
            lines.append(f"flow: {m}.transfer -> m{i + 1:05d}.transfer;")
        lines.append(f"region r{i} = {{ {m} }};")
        lines.append(f"event E{i} on r{i};")
    body = [f"E{i} -> E{i + 1};" for i in range(n - 1)] + [f"repeat E{n - 1} -> E0;"]
    return "\n".join(lines) + "\nbehavior {\n" + "\n".join(body) + "\n}\n"


def reverse_text(n: int) -> str:
    """One-stage machines whose flows are declared against the sorted-id order."""
    lines = [f"machine m{i:05d} {{ stage transfer; }}" for i in range(n)]
    lines += [f"flow: m{i:05d}.transfer -> m{i + 1:05d}.transfer;" for i in reversed(range(n - 1))]
    return "\n".join(lines) + "\n"


def loop_text() -> str:
    return (
        "machine a { stage create; }\nmachine b { stage create; }\n"
        "region ra = { a };\nregion rb = { b };\nevent A on ra;\nevent B on rb;\n"
        "behavior {\n  A -> B;\n  repeat B -> A;\n}\n"
    )


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def main() -> int:
    print("| n | source KB | parse ms | check ms | eventize ms | run ms | trace JSON ms | format ms |")
    print("|---|---|---|---|---|---|---|---|")
    for n in CHAIN_SIZES:
        text = chain_text(n)
        t_parse, result = timed(tmkit.parse, text)
        document = result.document
        t_check, _ = timed(tmkit.check_model, document.model)
        t_events, (_, graph, _) = timed(tmkit.build_from_document, document)
        t_run, trace = timed(tmkit.run, graph, tmkit.FirstDeclared(), 4 * n)
        t_json, _ = timed(tmkit.trace_to_json, trace, graph, document.model)
        t_format, _ = timed(tmkit.format_document, document)
        print(f"| {n} | {len(text) // 1024} | {ms(t_parse)} | {ms(t_check)} | {ms(t_events)} | {ms(t_run)} | {ms(t_json)} | {ms(t_format)} |")

    print()
    print("| n (reverse-order flows) | check ms |")
    print("|---|---|")
    for n in REVERSE_SIZES:
        model = tmkit.parse(reverse_text(n)).document.model
        t_check, _ = timed(tmkit.check_model, model)
        print(f"| {n} | {ms(t_check)} |")

    print()
    print("| horizon (two-event repeat loop) | run ms | ms per 1000 ticks |")
    print("|---|---|---|")
    _, graph, _ = tmkit.build_from_document(tmkit.parse(loop_text()).document)
    for horizon in HORIZONS:
        t_run, _ = timed(tmkit.run, graph, tmkit.FirstDeclared(), horizon)
        print(f"| {horizon} | {ms(t_run)} | {t_run * 1e6 / horizon:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
