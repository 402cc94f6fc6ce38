"""The benchmark's tracer wraps gral functions by name; those names must exist.

`perfbench/tracing.py` looks each `(module, function)` of `SPANS` up with
`getattr` only when a traced run starts, so a renamed or deleted function
would otherwise break `--trace 1` runs alone. The file is executed from its
source, so no bytecode cache is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

from gral.graph import EnvironmentGraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, function", tracing.SPANS)
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"gral.{module}"), function, None))


@pytest.mark.parametrize("method", tracing.GRAPH_METHODS)
def test_counted_graph_method_exists(method):
    assert callable(getattr(EnvironmentGraph, method, None))
