"""tmkit benchmark: one workload per call, or all three in smoke mode.

    python3 perfbench/run.py --workload edit-loop --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout: the program is imported from ./src. The
workload runs in a process of its own (program.py), one operation at a time
on request (a closed loop of one caller). This process checks every
operation's outputs between operations, so the checks cost the workload
neither time nor memory. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from spans around tmkit's public calls. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("edit-loop", "long-horizon", "seed-sweep")
MARGIN_S = 135  # a run ends, result or not, within --seconds plus this many seconds
SMOKE_OPS = 2
WARMUP_INDEX = -1
SETUP_PROBES = 2  # processes that only set up; setup_s is their median with the main one

END_TO_END_UNITS = {"op_ms": "ms", "op_cpu_ms": "ms", "ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "dsl.parse_ms": "ms",
    "dsl.kb_per_s": "KB/s",
    "dsl.alloc_peak_mb": "MB",
    "validate.check_ms": "ms",
    "events.define_ms": "ms",
    "events.behavior_ms": "ms",
    "events.coverage_ms": "ms",
    "sim.run_ms": "ms",
    "sim.ticks_per_s": "ticks/s",
    "sim.alloc_peak_mb": "MB",
    "sim.ticks": "count",
    "sim.instances": "count",
    "sim.race_ms": "ms",
    "export.trace_json_ms": "ms",
    "export.trace_kb": "KB",
    "export.model_json_ms": "ms",
    "export.import_json_ms": "ms",
    "export.dot_ms": "ms",
    "export.write_ms": "ms",
    "formatter.format_ms": "ms",
    "cli.self_ms": "ms",
    "traced.op_ms": "ms",
}


class RunError(Exception):
    pass


class Program:
    """The workload process and its request/reply channel."""

    def __init__(self, argv: list[str], deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RunError("the workload process ended or timed out without a reply")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class OpChecks:
    """Checks one operation of a workload against what its generator knows."""

    def __init__(self, workload: str, seed: int, smoke: bool, workdir: str):
        import tmkit  # imported from SRC, after the path check
        import tmkit.cli

        self.tmkit = tmkit
        self.checker = checks.Checker(tmkit)
        self.workload, self.seed, self.smoke, self.workdir = workload, seed, smoke, workdir
        if workload == "seed-sweep":
            self.sweep = gen.make_input(workload, seed, -1, smoke)
        self.traces: dict[int, str] = {}  # index -> sha256 of its trace

    def _read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as handle:
            return handle.read()

    def failed(self, reply: dict) -> bool:
        """An operation fails when it raises or a command exits non-zero."""
        if "error" in reply:
            return True
        return any(call["code"] != 0 for call in reply["result"].get("calls", ()))

    def __call__(self, index: int, reply: dict) -> list[str]:
        trace_text = self._read("trace.json")
        self.traces.setdefault(index, checks.sha256(trace_text))
        trace = json.loads(trace_text)
        if self.workload == "seed-sweep":
            spec = self.sweep
            run_seed = gen.sweep_run_seed(self.seed, index)
            return self.checker.trace(trace, spec, "random", run_seed) + self.checker.race(
                trace, spec, gen.SWEEP_RACE, reply["result"]["race"]
            )
        spec = gen.make_input(self.workload, self.seed, index, self.smoke)
        calls = reply["result"]["calls"]
        trace_path = os.path.join(self.workdir, "trace.json")
        if self.workload == "long-horizon":
            (simulate,) = calls
            problems = self.checker.diagnostics(simulate["stderr"], spec)
            problems += self.checker.simulate(simulate["stdout"], trace, trace_path)
            return problems + self.checker.trace(trace, spec, "first")
        check, eventize, simulate, export_json, export_dot, canonical = calls
        problems, digest = self.checker.canonical(canonical["stdout"], spec)
        summary = self.summary_line(os.path.join(self.workdir, f"edit-loop-{index}.tm"))
        problems += self.checker.summary(summary, spec)
        problems += self.checker.check_output(check["stdout"], spec)
        for call in (check, eventize, simulate, export_json, export_dot):
            problems += self.checker.diagnostics(call["stderr"], spec)
        problems += self.checker.eventize(eventize["stdout"], spec)
        problems += self.checker.simulate(simulate["stdout"], trace, trace_path)
        problems += self.checker.trace(trace, spec, "first")
        if digest is not None:
            if trace["model"] != digest:
                problems.append("the trace names another model digest than its source")
            problems += self.checker.model_json(self._read("model.json"), spec, digest)
        problems += self.checker.dot(self._read("model.dot"), spec)
        return problems

    def summary_line(self, path: str) -> str:
        """`tmkit parse FILE` prints the counts the generator knows."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.tmkit.cli.main(["parse", path])
        return out.getvalue()

    def deterministic(self, index: int) -> list[str]:
        if checks.sha256(self._read("trace.json")) != self.traces[index]:
            return [f"rerunning operation {index} gave a different trace"]
        return []


def start_program(workload: str, seed: int, traced: bool, smoke: bool, workdir: str, deadline: float, *extra: str) -> Program:
    argv = [
        sys.executable, os.path.join(HERE, "program.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--src", SRC, "--workdir", workdir, "--t0", repr(time.monotonic()),
        "--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.json"),
        *extra,
    ]
    if smoke:
        argv.append("--smoke")
    return Program(argv, deadline)


def run_workload(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + seconds + MARGIN_S
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setups = []
    for _ in range(SETUP_PROBES):
        probe = start_program(workload, seed, False, smoke, workdir, deadline, "--setup-only")
        try:
            setups.append(probe.read()["setup_s"])
        finally:
            probe.close()
    program = start_program(workload, seed, traced, smoke, workdir, deadline)
    try:
        setups.append(program.read()["setup_s"])
        check = OpChecks(workload, seed, smoke, workdir)
        problems: list[str] = []
        serial = 0

        def op(index: int, counted: bool) -> dict:
            nonlocal serial
            serial += 1
            return program.ask({"cmd": "op", "index": index, "counted": counted, "serial": serial})

        warm = op(WARMUP_INDEX, False)
        if check.failed(warm):
            raise RunError(f"the warm-up operation failed: {warm.get('error')}")
        walls, cpus = [], []
        attempted = failed = 0
        stop = time.monotonic() + seconds
        while attempted < SMOKE_OPS if smoke else attempted < 1 or time.monotonic() < stop:
            index = attempted
            reply = op(index, True)
            attempted += 1
            if check.failed(reply):
                failed += 1
                continue
            walls.append(reply["wall"])
            cpus.append(reply["cpu"])
            problems += [f"op {index}: {p}" for p in check(index, reply)]
        if not walls:
            raise RunError(f"all {attempted} operations failed")
        op(0, False)
        problems += check.deterministic(0)
        if traced:
            program.ask({"cmd": "alloc"})
        final = program.ask({"cmd": "end"})
    finally:
        program.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:10]:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    if traced:
        metrics = {name: {"value": final["layers"][name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "op_ms": statistics.median(walls) * 1e3,
            "op_cpu_ms": statistics.median(cpus) * 1e3,
            "ops_per_s": len(walls) / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": final["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes, traced and not")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "tmkit", "__init__.py")):
        print(f"error: no tmkit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.smoke:
            results = {
                f"{workload} trace={traced}": run_workload(workload, args.seed, 0, bool(traced), True)
                for workload in WORKLOADS
                for traced in (0, 1)
            }
            ok = all(r["correct"] and not r["failed"] for r in results.values())
            print(json.dumps(results, indent=1))
            print(json.dumps({"smoke": "ok" if ok else "failed"}))
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
