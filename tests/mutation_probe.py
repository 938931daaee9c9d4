"""Mutation probe for the simulator kernel, src/tmkit/sim.py.

Each mutant is one textual change to sim.py. For each, the probe copies src/
to a temporary directory, applies the change there, and runs the test suites
in order: test_sim_oracles.py, test_sim.py, test_acceptance.py, then the rest
of tests/. It stops at the first suite that fails and prints it; a mutant that
every suite passes has survived. Hypothesis runs under a fixed seed, so the
result does not vary between runs.

The probe exits 1 when a mutant survives, when a mutant's original text is
not found exactly once in sim.py (so a change to the kernel cannot leave a
mutant testing nothing), or when a suite errors instead of failing. A change
to the kernel should add mutants of its own below.

    python tests/mutation_probe.py

It needs pytest and hypothesis, and pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
KERNEL = Path("tmkit") / "sim.py"
FIRST_SUITES = ("test_sim_oracles.py", "test_sim.py", "test_acceptance.py")
SUITE_TIMEOUT = 600  # seconds

# (name, original text, replacement), each original found once in sim.py.
MUTANTS = (
    (
        "sequence targets never start",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        "                requests.append((target, False))\n",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        '                if kind != "sequence":\n'
        "                    requests.append((target, False))\n",
    ),
    (
        "concurrent targets never start",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        "                requests.append((target, False))\n",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        '                if kind != "concurrent":\n'
        "                    requests.append((target, False))\n",
    ),
    (
        "no cutoff",
        "            if old is not None and old[3] < t:\n",
        "            if False:\n",
    ),
    (
        "repeat bound off by one",
        "elif arg is not None and generations.get(target, 0) >= arg:\n",
        "elif arg is not None and generations.get(target, 0) > arg:\n",
    ),
    (
        "unbounded repeats ignore the terminal stop",
        "            elif arg is None and terminal_hit:\n",
        "            elif arg is None and False:\n",
    ),
    (
        "a repeat never replaces a live previous generation",
        "            if previous[3] == t or not via_repeat:\n",
        "            if True:\n",
    ),
    (
        "completed events fire in calendar order",
        "    completed.sort()\n",
        "",
    ),
    (
        "step shares entries",
        "entries=dict(state.entries), ",
        "entries=state.entries, ",
    ),
    (
        "step shares generations",
        "generations=dict(state.generations))",
        "generations=state.generations)",
    ),
    (
        "the derived calendar falls due a tick late",
        "self.calendar.setdefault(start + duration, [])",
        "self.calendar.setdefault(start + duration + 1, [])",
    ),
    (
        "__post_init__ skips the entries",
        "        for _, event, _, start, duration in self.entries.values():\n",
        "        for _, event, _, start, duration in ():\n",
    ),
    (
        "an idle tick keeps the last tick's choices",
        "    if due is None:\n        state.choices = ()\n        return []\n",
        "    if due is None:\n        return []\n",
    ),
    (
        "init leaves its starts off the calendar",
        "            _start(state, name, behavior._durations[name])\n    return state\n",
        "            _start(state, name, behavior._durations[name])\n    state.calendar.clear()\n    return state\n",
    ),
)


def suites() -> list[tuple[str, list[str]]]:
    rest = sorted(p.name for p in TESTS.glob("test_*.py") if p.name not in FIRST_SUITES)
    named = [(name, [str(TESTS / name)]) for name in FIRST_SUITES]
    return named + [("the rest of tests/", [str(TESTS / name) for name in rest])]


def run_suite(paths: list[str], workdir: Path) -> tuple[int | None, str]:
    """pytest's exit code on `paths` with the copied src/ first on the path
    (None on a timeout), and its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workdir / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a mutant of the same size must not reuse a stale .pyc
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *paths]
    try:
        done = subprocess.run(
            command, cwd=workdir, env=env, capture_output=True, text=True, timeout=SUITE_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def main() -> int:
    kernel = (SRC / KERNEL).read_text(encoding="utf-8")
    stale = [name for name, original, _ in MUTANTS if kernel.count(original) != 1]
    if stale:
        for name in stale:
            print(f"{name}: original text not found exactly once in {KERNEL}")
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="tmkit-mutants-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(SRC, workdir / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for name, original, replacement in MUTANTS:
            (workdir / "src" / KERNEL).write_text(kernel.replace(original, replacement), encoding="utf-8")
            verdict = "SURVIVED"
            for label, paths in suites():
                code, output = run_suite(paths, workdir)
                if code == 0:
                    continue
                if code == 1:
                    verdict = f"caught by {label}"
                elif code is None:
                    verdict = f"ERROR: {label} timed out after {SUITE_TIMEOUT} s"
                else:
                    verdict = f"ERROR: {label} exited {code}\n{output}"
                break
            if not verdict.startswith("caught"):
                failures += 1
            print(f"{name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
