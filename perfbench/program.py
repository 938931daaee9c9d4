"""The workload process: sets up one workload and runs its operations on request.

run.py starts this process once per workload and talks to it over stdin and
stdout, one JSON object per line:

  -> {"cmd": "op", "index": i, "counted": c, "serial": n}
        run operation i on input i; reply with its wall and CPU time and what
        the checks need. Warm-up and rerun operations are not counted.
  -> {"cmd": "alloc"}   (traced runs) one more operation under tracemalloc
  -> {"cmd": "end"}     reply with peak RSS and, when traced, the per-layer
                        metrics; then exit

The first line this process writes reports its set-up time: from the moment
run.py started it to the end of the imports, plus the set-up itself. With
--setup-only the process exits there. Only tmkit and the generated inputs
run here; the checks run in run.py, so their memory and time stay out of
these figures. A full collection precedes every operation, so each starts
from the same heap state.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

ALLOC_OPS = 1
SETUP = ("setup",)
MODULES = ("tmkit", "tmkit.cli", "tmkit.dsl", "tmkit.events", "tmkit.export", "tmkit.sim", "tmkit.validate")


def import_tmkit(src: str) -> dict:
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(name) for name in MODULES}
    origin = os.path.abspath(mods["tmkit"].__file__)
    if not origin.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"tmkit was imported from {origin}, not from {src}")
    return mods


def cli_call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class CliWorkload:
    """Generated model files, one per operation, fed to `tmkit.cli.main`."""

    name = ""

    def __init__(self, mods, workdir: str, seed: int, smoke: bool):
        self.mods, self.workdir, self.seed, self.smoke = mods, workdir, seed, smoke
        self.inputs: dict[int, tuple[str, int]] = {}  # index -> (path, horizon)

    def prepare(self, index: int) -> None:
        if index not in self.inputs:
            spec = gen.make_input(self.name, self.seed, index, self.smoke)
            path = os.path.join(self.workdir, f"{self.name}-{index}.tm")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec.text)
            self.inputs[index] = (path, spec.horizon)

    def setup(self) -> None:
        for index in range(gen.pool_size(self.name, self.smoke)):
            self.prepare(index)

    def after(self, index: int, traced: bool) -> None:
        pass


class EditLoop(CliWorkload):
    """Six CLI commands on a distinct generated model per operation."""

    name = "edit-loop"

    def op(self, index: int) -> dict:
        path, horizon = self.inputs[index]
        out = self.workdir
        cli = self.mods["tmkit.cli"]
        calls = [
            cli_call(cli, ["check", path]),
            cli_call(cli, ["eventize", path]),
            cli_call(cli, ["simulate", path, "--horizon", str(horizon), "--trace", os.path.join(out, "trace.json")]),
            cli_call(cli, ["export", path, "--format", "json", "--regions", "--behavior", "-o", os.path.join(out, "model.json")]),
            cli_call(cli, ["export", path, "--format", "dot", "--regions", "--behavior", "-o", os.path.join(out, "model.dot")]),
            cli_call(cli, ["parse", path, "--canonical"]),
        ]
        return {"calls": calls}

    def after(self, index: int, traced: bool) -> None:
        """import_json is timed, in traced runs only, on the JSON just exported."""
        if traced:
            with open(os.path.join(self.workdir, "model.json"), encoding="utf-8") as handle:
                self.mods["tmkit.export"].import_json(handle.read())


class LongHorizon(CliWorkload):
    """`tmkit simulate --trace` on a small model at a horizon of thousands of ticks."""

    name = "long-horizon"

    def op(self, index: int) -> dict:
        path, horizon = self.inputs[index]
        trace = os.path.join(self.workdir, "trace.json")
        argv = ["simulate", path, "--horizon", str(horizon), "--trace", trace]
        return {"calls": [cli_call(self.mods["tmkit.cli"], argv)]}


class SeedSweep:
    """One wide behavior graph, run under many seeds through the library."""

    def __init__(self, mods, workdir: str, seed: int, smoke: bool):
        self.mods, self.workdir, self.seed, self.smoke = mods, workdir, seed, smoke

    def setup(self) -> None:
        spec = gen.make_input("seed-sweep", self.seed, -1, self.smoke)
        result = self.mods["tmkit.dsl"].parse(spec.text, source="sweep.tm")
        if not result.ok:
            raise RuntimeError("the generated sweep model does not parse")
        document = result.document
        self.mods["tmkit.validate"].check_model(document.model)
        _, self.graph, _ = self.mods["tmkit.events"].build_from_document(document)
        self.model = document.model
        self.horizon = spec.horizon

    def prepare(self, index: int) -> None:
        pass

    def op(self, index: int) -> dict:
        sim, export = self.mods["tmkit.sim"], self.mods["tmkit.export"]
        policy = sim.SeededRandom(gen.sweep_run_seed(self.seed, index))
        trace = sim.run(self.graph, policy, self.horizon)
        text = export.trace_to_json(trace, self.graph, self.model)
        race = sim.race_report(self.graph, trace, *gen.SWEEP_RACE)
        self._text = text
        return {"race": [race.winner, race.finish_a, race.finish_b, race.margin, race.tie]}

    def after(self, index: int, traced: bool) -> None:
        with open(os.path.join(self.workdir, "trace.json"), "w", encoding="utf-8") as handle:
            handle.write(self._text)
        del self._text


WORKLOADS = {"edit-loop": EditLoop, "long-horizon": LongHorizon, "seed-sweep": SeedSweep}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--t0", type=float, required=True, help="monotonic time the parent started this process")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="exit after reporting the set-up time")
    args = parser.parse_args()
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8", buffering=1)

    def reply(payload: dict) -> None:
        channel.write(json.dumps(payload) + "\n")

    mods = import_tmkit(args.src)
    imported = time.monotonic()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(mods)
    workload = WORKLOADS[args.workload](mods, args.workdir, args.seed, args.smoke)

    if tracer is not None:
        tracer.tag = SETUP
    start = time.perf_counter()
    workload.setup()
    reply({"setup_s": (imported - args.t0) + time.perf_counter() - start})
    if args.setup_only:
        return 0

    op_span = tracing.LIBRARY_OP if args.workload == "seed-sweep" else tracing.CLI_OP
    ops: list = []
    alloc_ops: list = []
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "end":
            break
        if request["cmd"] == "alloc":
            tracer.alloc = True
            tracemalloc.start()
            for k in range(ALLOC_OPS):
                tracer.tag = ("alloc", k)
                alloc_ops.append(tracer.tag)
                workload.prepare(k)
                with tracer.span(op_span):
                    workload.op(k)
            tracemalloc.stop()
            tracer.alloc = False
            reply({})
            continue
        index = request["index"]
        workload.prepare(index)
        if tracer is not None:
            tracer.tag = ("op", request["serial"])
            if request["counted"]:
                ops.append(tracer.tag)
        gc.collect()
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            if tracer is not None:
                with tracer.span(op_span):
                    result = workload.op(index)
            else:
                result = workload.op(index)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            workload.after(index, tracer is not None)
        except Exception as exc:  # a failed operation is counted, not fatal
            reply({"error": f"{type(exc).__name__}: {exc}"})
            continue
        reply({"wall": wall, "cpu": cpu, "result": result})

    final: dict = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        final["layers"] = tracer.layer_metrics(ops, [SETUP], alloc_ops)
        tracer.dump(args.spans)
    reply(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
