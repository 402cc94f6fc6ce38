"""The benchmark's tracer wraps gral functions by name and reads their state.

`perfbench/tracing.py` looks each `(module, function)` of `SPANS` up with
`getattr` only when a traced run starts, and its hooks read the backend state
around the refinements, so a renamed function or a changed state layout would
otherwise break `--trace 1` runs alone. These tests check that the names exist
and run a small traced experiment through every hook. The file is executed
from its source, so no bytecode cache is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

import gral
from gral import metrics
from gral.graph import EnvironmentGraph
from gral.sim import make_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()

# The modules `perfbench/run.py::fresh_import` puts in the tracer's namespace.
GRAL_MODULES = ("graph", "packages", "epochs", "localize", "sim", "metrics")


@pytest.mark.parametrize("module, function", tracing.SPANS)
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"gral.{module}"), function, None))


@pytest.mark.parametrize("method", tracing.GRAPH_METHODS)
def test_counted_graph_method_exists(method):
    assert callable(getattr(EnvironmentGraph, method, None))


def test_traced_experiment_runs_every_hook_and_keeps_its_results(monkeypatch):
    modules = {m: importlib.import_module(f"gral.{m}") for m in GRAL_MODULES}
    # Register everything `Tracer.install` may rebind, so teardown restores it.
    for module in [gral, *modules.values()]:
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    for method in tracing.GRAPH_METHODS:
        monkeypatch.setattr(EnvironmentGraph, method, getattr(EnvironmentGraph, method))
    expected = repr(metrics.run_experiment(make_scenario(4), metrics.VARIANTS, 2, 0))

    mods = types.SimpleNamespace(**modules)
    mods.all_modules = [gral, *modules.values()]
    tracer = tracing.Tracer()
    tracer.install(mods)
    tracer.item = ("item", 0)
    result = mods.metrics.run_experiment(make_scenario(4), metrics.VARIANTS, 2, 0)
    tracer.item = None

    assert repr(result) == expected
    counts = tracer.counts[("item", 0)]
    assert counts["metrics.run_experiment.calls"] == 1
    for name in ("localize.checkpoint_splits", "localize.rectify_splits", "localize.checkpoints_issued"):
        assert counts[name] > 0, name
