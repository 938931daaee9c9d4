"""Command line behavior: exit codes, streams, artifacts."""
from __future__ import annotations

import json
import os
import re
import stat
import subprocess
import sys

import pytest

import tmkit
from tmkit.cli import main

from test_load import CYCLE, SPLIT, STAGELESS

BROKEN = """
machine a {
  stage create;
  stage transfer;
}
flow: a.create -> a.transfer;
"""

WARNING_ONLY = """
machine a {
  stage receive;
  stage process;
}
flow: a.receive -> a.process;
"""


@pytest.fixture
def corpus_file(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.tm"
        path.write_text(tmkit.corpus_text(name), encoding="utf-8")
        return str(path)

    return write


def test_parse_ok_and_canonical(corpus_file, capsys):
    path = corpus_file("eating")
    assert main(["parse", path]) == 0
    out = capsys.readouterr().out
    assert "machines" in out and "events" in out

    assert main(["parse", path, "--canonical"]) == 0
    out = capsys.readouterr().out
    assert out == tmkit.format_document(tmkit.parse(tmkit.corpus_text("eating")).document)


def test_parse_failure_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("machine { oops", encoding="utf-8")
    assert main(["parse", str(path)]) == 1
    err = capsys.readouterr().err
    assert "P2" in err


def test_missing_file_exits_one(capsys):
    assert main(["parse", "/no/such/file.tm"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.tm"
    path.write_bytes(b"machine caf\xe9 { stage create; }\n")
    for command in ("parse", "check"):
        assert main([command, str(path)]) == 1
        assert "cannot read" in capsys.readouterr().err


def test_check_reports_flow_violation(tmp_path, capsys):
    path = tmp_path / "broken.tm"
    path.write_text(BROKEN, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "F1" in err and "a.create" in err


def test_check_strict_turns_warnings_fatal(tmp_path, capsys):
    path = tmp_path / "warn.tm"
    path.write_text(WARNING_ONLY, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    streams = capsys.readouterr()
    assert "M1" in streams.err and "ok" in streams.out
    assert main(["check", str(path), "--strict"]) == 1


def test_eventize_lists_events_and_coverage(corpus_file, capsys):
    assert main(["eventize", corpus_file("ball")]) == 0
    out = capsys.readouterr().out
    assert "Ej: 5 stages" in out
    assert "Ej1: 6 stages" in out
    assert "coverage: 0 uncovered stage(s), 2 shared" in out


def test_simulate_writes_a_trace(corpus_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "simulate",
            corpus_file("disaster"),
            "--policy",
            "scripted:Es2",
            "--seed",
            "7",
            "--horizon",
            "30",
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: terminal-reached" in out
    assert "record: 36 archived instance(s)" in out
    payload = json.loads(trace_path.read_text())
    assert payload["schema"] == "tm-trace/1"
    assert payload["policy"] == "scripted:Es2"
    assert payload["seed"] == 7
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmkit-")] == []


def test_simulate_rejects_bad_policy(corpus_file, capsys):
    assert main(["simulate", corpus_file("ball"), "--policy", "psychic"]) == 1
    assert "unknown policy" in capsys.readouterr().err


def test_simulate_scripted_choice_mismatch_fails(corpus_file, capsys):
    code = main(
        ["simulate", corpus_file("disaster"), "--policy", "scripted:NotAnEvent"]
    )
    assert code == 1
    assert "script" in capsys.readouterr().err


def test_simulate_refuses_an_empty_script(corpus_file, capsys):
    assert main(["simulate", corpus_file("disaster"), "--policy", "scripted:"]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err == "error: scripted policy needs at least one event name\n"


def test_export_json_stdout_and_dot_file(corpus_file, tmp_path, capsys):
    path = corpus_file("ball")
    assert main(["export", path, "--format", "json", "--regions"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "tm-model/1"
    assert "regions" in payload

    out_path = tmp_path / "ball.dot"
    assert main(["export", path, "--format", "dot", "-o", str(out_path)]) == 0
    assert out_path.read_text().startswith("digraph model {")

    assert (
        main(["export", path, "--format", "dot", "--behavior", "-o", str(out_path)])
        == 0
    )
    assert "digraph behavior" in out_path.read_text()


def test_export_refuses_invalid_model(tmp_path, capsys):
    path = tmp_path / "broken.tm"
    path.write_text(BROKEN, encoding="utf-8")
    assert main(["export", str(path), "--format", "json"]) == 1


def test_usage_errors_exit_two(corpus_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["export", corpus_file("ball")])  # --format is required
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_console_entry_point_runs():
    # `tmkit/__init__` imports `load` from `tmkit.cli` lazily: an eager import
    # puts `tmkit.cli` in sys.modules before `-m` runs it, and runpy warns.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tmkit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "parse" in proc.stdout and "simulate" in proc.stdout


@pytest.mark.parametrize(
    "text, code", [(CYCLE, "B1"), (STAGELESS, "R1"), (SPLIT, "R3")], ids=["cycle", "stageless", "split"]
)
@pytest.mark.parametrize(
    "command",
    [["check"], ["eventize"], ["simulate"], ["export", "--format", "json"], ["export", "--format", "dot"]],
    ids=lambda argv: "-".join(argv),
)
def test_region_and_behavior_faults_are_spanned_errors(tmp_path, capsys, text, code, command):
    path = tmp_path / "model.tm"
    path.write_text(text, encoding="utf-8")
    assert main([command[0], str(path), *command[1:]]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    lines = streams.err.splitlines()
    errors = [line for line in lines if " error " in line]
    assert errors and all(
        re.match(rf"{re.escape(str(path))}:\d+:\d+: error {code}: ", line) for line in errors
    )
    assert not any(line.startswith("error:") for line in lines)


def test_written_files_get_the_umask_default_mode(corpus_file, tmp_path):
    path = corpus_file("eating")
    outputs = {name: tmp_path / name for name in ("trace.json", "model.json", "model.dot")}
    previous = os.umask(0o022)
    try:
        assert main(["simulate", path, "--trace", str(outputs["trace.json"])]) == 0
        assert main(["export", path, "--format", "json", "-o", str(outputs["model.json"])]) == 0
        assert main(["export", path, "--format", "dot", "-o", str(outputs["model.dot"])]) == 0
    finally:
        os.umask(previous)
    for name, output in outputs.items():
        assert stat.S_IMODE(os.stat(output).st_mode) == 0o644, name


def test_a_file_that_cannot_be_written_is_an_error_not_a_traceback(corpus_file, tmp_path, capsys):
    path = corpus_file("eating")
    directory = tmp_path / "out"
    directory.mkdir()
    assert main(["export", path, "--format", "json", "-o", str(directory)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith(f"error: cannot write {directory}: ") and streams.err.count("\n") == 1
    missing = tmp_path / "missing" / "t.json"
    assert main(["simulate", path, "--trace", str(missing)]) == 1
    streams = capsys.readouterr()
    assert "trace written" not in streams.out
    assert streams.err.startswith(f"error: cannot write {missing}: ") and streams.err.count("\n") == 1
    # No temporary file is left beside either output.
    assert sorted(os.listdir(tmp_path)) == ["eating.tm", "out"] and os.listdir(directory) == []


def test_writing_to_the_working_directory_touches_nothing_outside_it(corpus_file, tmp_path, monkeypatch, capsys):
    path = corpus_file("eating")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["export", path, "--format", "json", "-o", "."]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err == "error: cannot write .: [Errno 21] Is a directory: '.'\n"
    assert sorted(os.listdir(tmp_path)) == ["eating.tm", "work"] and os.listdir(work) == []


def test_unknown_escape_is_reported_at_its_backslash(tmp_path, capsys):
    # The finding's line and column are those of its span's start, the
    # backslash, not of the string's opening quote (column 20).
    path = tmp_path / "escape.tm"
    path.write_text('machine a { stage create; }\nregion r = { a };\nevent e on r label "ab\\q";\n', encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{path}:3:23: error P1: unknown escape in string"]


def test_check_reports_an_over_long_number(tmp_path, capsys):
    path = tmp_path / "long.tm"
    path.write_text("machine a { stage create; }\nregion r = { a };\nevent e on r duration " + "1" * 5000 + ";\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{path}:3:23: error P5: number out of range"]
