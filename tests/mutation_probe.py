"""Mutation probe for the simulator kernel: src/tmkit/sim.py and the tables
that src/tmkit/events.py builds for it.

Each mutant is one textual change to one of those files. For each, the probe
copies src/ to a temporary directory, applies the change there, and runs the
test suites in order: test_sim_oracles.py, test_sim.py, test_acceptance.py,
then the rest of tests/. It stops at the first suite that fails and prints
it; a mutant that every suite passes has survived. Hypothesis runs under a
fixed seed, so the result does not vary between runs.

The probe exits 1 when a mutant survives, when a mutant's original text is
not found exactly once in its file (so a change to the kernel cannot leave a
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
PACKAGE = Path("tmkit")
FIRST_SUITES = ("test_sim_oracles.py", "test_sim.py", "test_acceptance.py")
SUITE_TIMEOUT = 600  # seconds

# (name, file, original text, replacement), each original found once in its file.
MUTANTS = (
    (
        "sequence targets never start",
        "sim.py",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        "                requests.append((target, False))\n",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        '                if kind != "sequence":\n'
        "                    requests.append((target, False))\n",
    ),
    (
        "concurrent targets never start",
        "sim.py",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        "                requests.append((target, False))\n",
        '            elif kind != "repeat":  # sequence, concurrent\n'
        '                if kind != "concurrent":\n'
        "                    requests.append((target, False))\n",
    ),
    (
        "no cutoff",
        "sim.py",
        "            if old is not None and old[3] < t:\n",
        "            if False:\n",
    ),
    (
        "repeat bound off by one",
        "sim.py",
        "elif arg is not None and generations.get(target, 0) >= arg:\n",
        "elif arg is not None and generations.get(target, 0) > arg:\n",
    ),
    (
        "unbounded repeats ignore the terminal stop",
        "sim.py",
        "            elif arg is None and state.terminal_hit:\n",
        "            elif arg is None and False:\n",
    ),
    (
        "a repeat never replaces a live previous generation",
        "sim.py",
        "            if previous[3] == t or not via_repeat:\n",
        "            if True:\n",
    ),
    (
        "completed events fire in calendar order",
        "sim.py",
        "    completed.sort()\n",
        "",
    ),
    (
        "step shares entries",
        "sim.py",
        "entries=dict(state.entries), ",
        "entries=state.entries, ",
    ),
    (
        "step shares generations",
        "sim.py",
        "generations=dict(state.generations))",
        "generations=state.generations)",
    ),
    (
        "the derived calendar falls due a tick late",
        "sim.py",
        "self.calendar.setdefault(start + duration, [])",
        "self.calendar.setdefault(start + duration + 1, [])",
    ),
    (
        "__post_init__ skips the entries",
        "sim.py",
        "        for _, event, _, start, duration in self.entries.values():\n",
        "        for _, event, _, start, duration in ():\n",
    ),
    (
        "an idle tick keeps the last tick's choices",
        "sim.py",
        "    if due is None:\n        state.choices = ()\n        return []\n",
        "    if due is None:\n        return []\n",
    ),
    (
        "init leaves its starts off the calendar",
        "sim.py",
        "    _fire(state, behavior, policy, (None,), [])\n    return state\n",
        "    _fire(state, behavior, policy, (None,), [])\n    state.calendar.clear()\n    return state\n",
    ),
    (
        "init fires nothing",
        "sim.py",
        "    _fire(state, behavior, policy, (None,), [])\n",
        "",
    ),
    (
        "the start's actions leave out the start groups",
        "events.py",
        "self._actions[None] = self._actions.get(None, ()) + tuple(",
        "self._actions[None] = () + tuple(",
    ),
    (
        "the start's actions leave out the ungrouped initial events",
        "events.py",
        '+ tuple(("sequence", name, None) for name in ungrouped)',
        '+ tuple(("sequence", name, None) for name in ())',
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
    texts = {file: (SRC / PACKAGE / file).read_text(encoding="utf-8") for _, file, _, _ in MUTANTS}
    stale = [(name, file) for name, file, original, _ in MUTANTS if texts[file].count(original) != 1]
    if stale:
        for name, file in stale:
            print(f"{name}: original text not found exactly once in {PACKAGE / file}")
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="tmkit-mutants-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(SRC, workdir / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for name, file, original, replacement in MUTANTS:
            for each, text in texts.items():  # the mutant, and every other file as it is
                mutated = text.replace(original, replacement) if each == file else text
                (workdir / "src" / PACKAGE / each).write_text(mutated, encoding="utf-8")
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
