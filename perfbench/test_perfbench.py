"""Tests of the benchmark itself: python -m pytest perfbench -q

The smoke mode runs every workload at tiny sizes with every check on. The
other tests feed the checks one deliberately wrong expectation each and
require them to object, so a check that passes everything would show here.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import tmkit  # noqa: E402
import tmkit.cli  # noqa: E402


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tmkit.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def checker() -> checks.Checker:
    return checks.Checker(tmkit)


def test_smoke_mode_runs_every_workload_with_checks():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_edit_loop_checks_reject_wrong_expectations(tmp_path, checker):
    spec = gen.edit_model(7, segments=2)
    path = str(tmp_path / "m.tm")
    trace_path = str(tmp_path / "t.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spec.text)

    _, summary, _ = cli(["parse", path])
    _, checked, warnings = cli(["check", path])
    _, events, _ = cli(["eventize", path])
    _, canonical, _ = cli(["parse", path, "--canonical"])
    _, simulated, _ = cli(["simulate", path, "--horizon", str(spec.horizon), "--trace", trace_path])
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    exported = {}
    for fmt in ("json", "dot"):
        out_path = str(tmp_path / f"model.{fmt}")
        cli(["export", path, "--format", fmt, "--regions", "--behavior", "-o", out_path])
        with open(out_path, encoding="utf-8") as handle:
            exported[fmt] = handle.read()
    digest = checker.canonical(canonical, spec)[1]

    assert checker.summary(summary, spec) == []
    assert checker.check_output(checked, spec) == []
    assert checker.diagnostics(warnings, spec) == []
    assert checker.eventize(events, spec) == []
    assert checker.canonical(canonical, spec)[0] == []
    assert checker.simulate(simulated, trace, trace_path) == []
    assert checker.trace(trace, spec, "first") == []
    assert checker.model_json(exported["json"], spec, digest) == []
    assert checker.dot(exported["dot"], spec) == []

    assert checker.summary(summary, dataclasses.replace(spec, machines=spec.machines + 1))
    assert checker.diagnostics(warnings, dataclasses.replace(spec, diagnostics=spec.diagnostics[1:]))
    assert checker.eventize(events, dataclasses.replace(spec, shared=spec.shared + 1))
    assert checker.canonical(canonical, dataclasses.replace(spec, flows=spec.flows - 1))[0]
    late = dict(spec.starts)
    late["Eend#1"] += 1
    assert checker.trace(trace, dataclasses.replace(spec, starts=late), "first")
    longer = dict(spec.durations)
    longer["Eh0"] += 1
    assert checker.trace(trace, dataclasses.replace(spec, durations=longer, starts=None), "first")
    assert checker.model_json(exported["json"], dataclasses.replace(spec, flows=spec.flows - 1), digest)
    assert checker.model_json(exported["json"], spec, "0" * len(digest))
    assert checker.dot(exported["dot"], dataclasses.replace(spec, storages=spec.storages + 1))


def test_rerun_check_rejects_a_changed_trace(tmp_path):
    import run

    op_checks = run.OpChecks("long-horizon", 1, True, str(tmp_path))
    (tmp_path / "trace.json").write_text('{"ticks": []}', encoding="utf-8")
    op_checks.traces[0] = checks.sha256('{"ticks": []}')
    assert op_checks.deterministic(0) == []
    (tmp_path / "trace.json").write_text('{"ticks": [0]}', encoding="utf-8")
    assert op_checks.deterministic(0)


def test_seed_sweep_checks_recompute_every_choice(checker):
    spec = gen.sweep_model(3, streams=5, segments=2)
    document = tmkit.parse(spec.text).document
    _, graph, _ = tmkit.build_from_document(document)
    trace = tmkit.run(graph, tmkit.SeededRandom(11), spec.horizon)
    payload = json.loads(tmkit.trace_to_json(trace, graph, document.model))
    roots = gen.SWEEP_RACE
    race = tmkit.race_report(graph, trace, *roots)
    reported = [race.winner, race.finish_a, race.finish_b, race.margin, race.tie]

    assert checker.trace(payload, spec, "random", 11) == []
    assert checker.race(payload, spec, roots, reported) == []
    assert checker.trace(payload, spec, "random", 12)
    assert checker.race(payload, spec, roots, reported[:1] + [-1] + reported[2:])


def test_long_horizon_closed_form_matches_a_short_run(checker):
    spec = gen.long_model(5, horizon=200)
    document = tmkit.parse(spec.text).document
    _, graph, _ = tmkit.build_from_document(document)
    trace = tmkit.run(graph, tmkit.FirstDeclared(), spec.horizon)
    payload = json.loads(tmkit.trace_to_json(trace, graph, document.model))
    assert checker.trace(payload, spec, "first") == []
    assert checker.trace(payload, dataclasses.replace(spec, ticks=spec.ticks + 1), "first")
