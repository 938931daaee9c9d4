"""The library names the benchmark harness calls. perfbench/ wraps and calls
them by name, so removing one breaks traced or seed-sweep benchmark runs."""
from __future__ import annotations

import importlib

import tmkit
import tmkit.events

from conftest import load_perfbench_module


def test_every_name_the_benchmark_wraps_or_calls_resolves():
    tracing = load_perfbench_module("tracing")
    assert tracing.WRAPPED
    for module, attribute, *_ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)
    assert callable(tmkit.events.build_from_document)
    assert callable(tmkit.build_from_document)
