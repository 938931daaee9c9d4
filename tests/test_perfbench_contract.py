"""The library names the benchmark harness calls. perfbench/ wraps and calls
them by name, so removing one breaks traced or seed-sweep benchmark runs."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import tmkit
import tmkit.events

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_name_the_benchmark_wraps_or_calls_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attribute, *_ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)
    assert callable(tmkit.events.build_from_document)
    assert callable(tmkit.build_from_document)
