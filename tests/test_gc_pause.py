"""The entry points that build gral's object graphs run with the cyclic GC paused.

`parse_package_stream`, `build_state`, `run_pipeline` and `run_experiment`
turn CPython's cyclic garbage collector off for the call and back on at its
exit, normal or not, unless it was off already. The pause is sound only
because what these calls build holds no reference cycles, so reference
counting frees all of it; the last test checks that premise.
"""

import gc
import random

import pytest

from gral import localize, metrics, packages
from gral.localize import VARIANTS
from gral.packages import Package, serialize_packages
from gral.sim import make_scenario, run_instance

from conftest import gated_tree_scenario, swarm_like_scenario


@pytest.fixture
def gc_state():
    enabled = gc.isenabled()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


def _group(pkgs):
    streams = {}
    for pkg in pkgs:
        streams.setdefault(pkg.node, []).append(pkg)
    return streams


def _entry_points():
    """Name -> (module and name of an inner callee, a good call, a call that raises)."""
    spec = make_scenario(1)
    result = run_instance(spec, 0)
    text = serialize_packages([p for b in result.batches for p in b.packages])
    streams = result.streams()
    state = lambda: localize.build_state(spec.graph, streams)  # noqa: E731
    out_of_order = {"n": [Package("n", 1, 1.0), Package("n", 2, 0.0)]}
    return {
        "parse_package_stream": (
            (packages, "_signals"),
            lambda: packages.parse_package_stream(text),
            lambda: packages.parse_package_stream(text + '{"node": "n"}\n'),
        ),
        "build_state": (
            (localize, "integrate_stream"),
            state,
            lambda: localize.build_state(spec.graph, out_of_order),
        ),
        "run_pipeline": (
            (localize, "localize_node"),
            lambda: localize.run_pipeline(state(), streams, "gral+cp+pr"),
            lambda: localize.run_pipeline(state(), streams, "gral+xx"),
        ),
        "run_experiment": (
            (metrics, "run_instance"),
            lambda: metrics.run_experiment(spec, VARIANTS, 1),
            lambda: metrics.run_experiment(spec, VARIANTS, 0),
        ),
    }


ENTRY_POINTS = ["parse_package_stream", "build_state", "run_pipeline", "run_experiment"]


def _spy(monkeypatch, module, name):
    """Record `gc.isenabled()` at each call of `module.name`."""
    seen = []
    callee = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return callee(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_runs_paused_and_reenables_gc(monkeypatch, gc_state, entry):
    (module, name), call, _bad = _entry_points()[entry]
    seen = _spy(monkeypatch, module, name)
    gc.enable()
    call()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_reenables_gc_after_a_raise(gc_state, entry):
    _callee, _call, bad = _entry_points()[entry]
    gc.enable()
    with pytest.raises(ValueError):
        bad()
    assert gc.isenabled()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_leaves_gc_off_when_it_was_off(monkeypatch, gc_state, entry):
    (module, name), call, bad = _entry_points()[entry]
    seen = _spy(monkeypatch, module, name)
    gc.disable()
    call()
    assert seen and not any(seen)
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        bad()
    assert not gc.isenabled()


def test_paused_calls_leave_no_cyclic_garbage(gc_state):
    # Everything the paused calls build is freed by reference counting, so a
    # full collection after them, with the collector off throughout, finds
    # nothing unreachable: the pause never defers real garbage.
    specs = [make_scenario(n) for n in (1, 2, 3, 4)]
    trees = [swarm_like_scenario(random.Random(k), 3, 2) for k in range(3)]
    trees += [gated_tree_scenario(random.Random(k)) for k in range(10)]
    texts = []
    for k, spec in enumerate(trees):
        result = run_instance(spec, k)
        texts.append((spec.graph, serialize_packages([p for b in result.batches for p in b.packages])))
    gc.collect()
    gc.disable()
    for spec in specs:
        results = metrics.run_experiment(spec, VARIANTS, 2)
        assert all(r.packages_localized for r in results)
    localized = 0
    for graph, text in texts:
        streams = _group(packages.parse_package_stream(text))
        for variant in VARIANTS:
            state = localize.build_state(graph, streams)
            localized += sum(map(len, localize.run_pipeline(state, streams, variant).values()))
    assert localized
    del results, streams, state  # a cycle in what is still bound would not count
    assert gc.collect() == 0
