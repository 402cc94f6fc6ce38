import dataclasses
import logging
import math
import random
import sys
from collections import Counter
from itertools import groupby, pairwise

import pytest

from gral import localize
from gral.epochs import (
    Epoch,
    EpochKind,
    EpochSet,
    anchor_junction,
    classify,
    epoch_set_to_json,
    integrate_stream,
    is_complete,
    merge_same_gateway,
    resolve_positions,
)
from gral.graph import POSITION_TOL, Gateway, GraphPosition, Junction, Link, build_graph
from gral.localize import (
    VARIANTS,
    BackendState,
    apply_checkpoints,
    baseline_epochs,
    baseline_localize,
    build_state,
    interpolate_epoch,
    issue_checkpoints,
    localize_node,
    run_pipeline,
)
from gral.packages import (
    Checkpoint,
    GatewayObservation,
    LocalizedMeasurement,
    NodeContact,
    Package,
    parse_package_stream,
    serialize_packages,
    strongest,
    strongest_gateways,
)
from gral.metrics import run_experiment
from gral.sim import Insertion, ScenarioSpec, make_scenario, run_instance

from conftest import (
    chain_trajectory,
    craft_streams,
    gated_tree_scenario,
    line_position,
    reference_point_at,
    same_point,
    scaled_graph,
    swarm_like_scenario,
)

R = math.sqrt(10.0)


def span_epoch(chain_graph, times, x0, x1):
    pkgs = [Package("n", i + 1, float(t)) for i, t in enumerate(times)]
    return Epoch(
        EpochKind.SILENT,
        tuple(pkgs),
        start_pos=line_position(x0),
        final_pos=line_position(x1),
    )


# -- epoch interpolation --------------------------------------------------------


def test_interpolation_endpoints_exact(chain_graph):
    epoch = span_epoch(chain_graph, [0, 10], 0.0, 100.0)
    out = interpolate_epoch(chain_graph, epoch)
    assert chain_graph.geodesic_distance(out[0], line_position(0.0)) <= 1e-9
    assert chain_graph.geodesic_distance(out[-1], line_position(100.0)) <= 1e-9


def test_interpolation_midpoint(chain_graph):
    epoch = span_epoch(chain_graph, [0, 5, 10], 0.0, 100.0)
    out = interpolate_epoch(chain_graph, epoch)
    assert chain_graph.geodesic_distance(out[1], line_position(50.0)) <= 1e-9


def test_interpolation_monotone_and_on_route(chain_graph):
    epoch = span_epoch(chain_graph, [0, 1, 3, 4, 9, 10], 12.0, 87.0)
    out = interpolate_epoch(chain_graph, epoch)
    start, end = line_position(12.0), line_position(87.0)
    arclengths = [chain_graph.geodesic_distance(start, pos) for pos in out]
    assert arclengths == sorted(arclengths)
    assert all(chain_graph.on_path(start, pos, end, tol=1e-9) for pos in out)


def test_interpolation_equal_bounds(chain_graph):
    epoch = span_epoch(chain_graph, [0, 5, 10], 42.0, 42.0)
    out = interpolate_epoch(chain_graph, epoch)
    assert all(chain_graph.geodesic_distance(pos, line_position(42.0)) <= 1e-9 for pos in out)


def test_interpolation_zero_timespan_pins_at_final(chain_graph, caplog):
    epoch = span_epoch(chain_graph, [7, 7], 10.0, 20.0)
    with caplog.at_level("WARNING", logger="gral.localize"):
        out = interpolate_epoch(chain_graph, epoch)
    assert all(chain_graph.geodesic_distance(pos, line_position(20.0)) <= 1e-9 for pos in out)
    assert any("zero time" in r.message for r in caplog.records)


def test_interpolation_honours_bound_times_off_the_packages(chain_graph):
    # From 0 at t=0 to 100 at t=10: package k sits at 10 * t_k.
    epoch = span_epoch(chain_graph, [2, 4, 6], 0.0, 100.0)
    out = interpolate_epoch(chain_graph, dataclasses.replace(epoch, t_start=0.0, t_final=10.0))
    start = line_position(0.0)
    assert [chain_graph.geodesic_distance(start, pos) for pos in out] == pytest.approx(
        [20.0, 40.0, 60.0], abs=1e-9
    )
    # Unset, a bound time is its package's: from t=1 to the last package at t=6.
    out = interpolate_epoch(chain_graph, dataclasses.replace(epoch, t_start=1.0))
    assert [chain_graph.geodesic_distance(start, pos) for pos in out] == pytest.approx(
        [20.0, 60.0, 100.0], abs=1e-9
    )


@pytest.mark.parametrize(
    "times, bound_times",
    [([7, 7], (None, None)), ([0, 5, 10], (4.0, 4.0)), ([0, 5, 10], (None, -1.0))],
)
def test_zero_time_epoch_builds_no_route(chain_graph, monkeypatch, times, bound_times):
    t_start, t_final = bound_times
    epoch = span_epoch(chain_graph, times, 10.0, 20.0)
    epoch = dataclasses.replace(epoch, t_start=t_start, t_final=t_final)
    calls = counted_routes(chain_graph, monkeypatch)
    assert interpolate_epoch(chain_graph, epoch) == [line_position(20.0)] * len(times)
    assert calls == []


def test_interpolation_requires_complete_epoch(chain_graph):
    epoch = dataclasses.replace(span_epoch(chain_graph, [0, 1], 0.0, 10.0), final_pos=None)
    with pytest.raises(ValueError, match="incomplete"):
        interpolate_epoch(chain_graph, epoch)


# -- baseline ---------------------------------------------------------------------


def test_baseline_midpoint_between_gateways(chain_graph):
    xs = [0.0, 25.0, 50.0]
    streams, _ = craft_streams(chain_graph, {"n": chain_trajectory(xs)}, R)
    out = baseline_localize(chain_graph, streams["n"])
    # single contact per gateway: anchors at a (t=0) and b (t=2)
    assert same_point(chain_graph, out[0].position, chain_graph.position_at("a"))
    assert chain_graph.geodesic_distance(out[1].position, line_position(25.0)) <= 1e-9
    assert same_point(chain_graph, out[2].position, chain_graph.position_at("b"))


def test_baseline_single_gateway_pins_everything(chain_graph):
    xs = [0.0, 1.0, 2.0, 3.0]
    streams, _ = craft_streams(chain_graph, {"n": chain_trajectory(xs)}, R)
    out = baseline_localize(chain_graph, streams["n"])
    assert all(same_point(chain_graph, m.position, chain_graph.position_at("a")) for m in out)


def test_baseline_three_gateways_piecewise(chain_graph):
    xs = [0.0, 20.0, 40.0, 50.0, 70.0, 90.0, 100.0]
    streams, _ = craft_streams(chain_graph, {"n": chain_trajectory(xs)}, R)
    out = baseline_localize(chain_graph, streams["n"])
    # between a (t=0) and b (t=3): time-linear along the first link
    assert chain_graph.geodesic_distance(out[1].position, line_position(50.0 / 3)) <= 1e-9
    # between b (t=3) and c (t=6): the same on the second link
    assert chain_graph.geodesic_distance(out[4].position, line_position(50.0 + 50.0 / 3)) <= 1e-9
    assert same_point(chain_graph, out[6].position, chain_graph.position_at("c"))


def test_baseline_no_contact_returns_nothing(chain_graph):
    pkgs = [Package("n", i + 1, float(i)) for i in range(5)]
    assert baseline_localize(chain_graph, pkgs) == []


def test_zero_time_baseline_pair_warns_like_a_zero_time_epoch(chain_graph, caplog):
    # Anchors at gw-a (t=2) and gw-b (t=2) own two packages between them.
    pkgs = heard([(0, None), (2, "gw-a"), (2, None), (2, None), (2, "gw-b"), (3, None)])
    with caplog.at_level("DEBUG", logger="gral.localize"):
        out = baseline_localize(chain_graph, pkgs)
        baseline_records = [(r.levelno, r.getMessage()) for r in caplog.records]
        caplog.clear()
        interpolate_epoch(chain_graph, span_epoch(chain_graph, [7, 7], 10.0, 20.0))
        epoch_records = [(r.levelno, r.getMessage()) for r in caplog.records]
    assert [m.position for m in out[2:4]] == [chain_graph.position_at("b")] * 2
    assert baseline_records == epoch_records
    assert [level for level, _ in epoch_records] == [logging.WARNING]


def test_baseline_epochs_tile_each_stream(chain_graph):
    # Scenarios 1-4 and the random trees of tests/test_golden.py.
    specs = [(make_scenario(k), 0) for k in (1, 2, 3, 4)]
    specs += [(gated_tree_scenario(random.Random(seed)), seed) for seed in range(150)]
    tiled = 0
    for spec, seed in specs:
        for packages in run_instance(spec, seed).streams().values():
            epochs = baseline_epochs(spec.graph, packages)
            if not epochs:
                assert set(strongest_gateways(packages)).isdisjoint(spec.graph.gateways)
                continue
            assert all(e.packages and is_complete(e) for e in epochs)
            tiling = [p for e in epochs for p in e.packages]
            assert tiling == packages
            assert all(a.seq < b.seq for a, b in pairwise(tiling))
            tiled += 1
    assert tiled > 150
    silent = heard([(0, None), (1, "gw-x"), (2, None)])
    assert baseline_epochs(chain_graph, silent) == ()


def heard(times_and_gateways):
    """Packages at the given times, each hearing the named gateway or nothing."""
    return [
        Package("n", i + 1, float(t), (GatewayObservation(g, 1.0),) if g else ())
        for i, (t, g) in enumerate(times_and_gateways)
    ]


def expected_baseline(graph, packages, anchors):
    # Per-package reference: pin outside the anchored window, else the first
    # anchor pair (i0, i1) with i0 <= k <= i1, on a route built for the package.
    out = []
    for k, pkg in enumerate(packages):
        if k <= anchors[0][0]:
            out.append(graph.position_at(anchors[0][1]))
            continue
        if k >= anchors[-1][0]:
            out.append(graph.position_at(anchors[-1][1]))
            continue
        (i0, j0), (i1, j1) = next(
            (a, b) for a, b in zip(anchors, anchors[1:]) if a[0] <= k <= b[0]
        )
        t0, t1 = packages[i0].t, packages[i1].t
        if t1 <= t0:  # a pair that spans no time pins at its later anchor
            out.append(graph.position_at(j1))
            continue
        route = graph.route(graph.position_at(j0), graph.position_at(j1))
        out.append(route.point_at((pkg.t - t0) / (t1 - t0) * route.total))
    return out


def counted_routes(graph, monkeypatch):
    calls = []
    real_route = graph.route

    def route(start, end):
        calls.append((start, end))
        return real_route(start, end)

    monkeypatch.setattr(graph, "route", route)
    return calls


@pytest.mark.parametrize(
    "times_and_gateways, anchors",
    [
        # one-package contacts (first == last contact), an unknown gateway
        # interpolated like silence, and packages on indices two pairs share
        (
            [(0, "gw-a"), (1, None), (2, "gw-x"), (4, "gw-b"), (5, None), (8, "gw-c")],
            [(0, "a"), (3, "b"), (5, "c")],
        ),
        # multi-package contacts: both contact ends anchor, shared indices 1, 3, 4
        (
            [(0, "gw-a"), (1, "gw-a"), (2, None), (3, "gw-b"), (5, "gw-b"), (6, None), (7, "gw-c")],
            [(0, "a"), (1, "a"), (3, "b"), (4, "b"), (6, "c")],
        ),
        # zero-duration anchor pairs (t1 <= t0) between a and b, then b and c
        (
            [(0, None), (2, "gw-a"), (2, None), (2, "gw-b"), (3, None), (3, "gw-c"), (4, None)],
            [(1, "a"), (3, "b"), (5, "c")],
        ),
    ],
)
def test_baseline_matches_per_package_routes(chain_graph, monkeypatch, times_and_gateways, anchors):
    pkgs = heard(times_and_gateways)
    expected = expected_baseline(chain_graph, pkgs, anchors)
    calls = counted_routes(chain_graph, monkeypatch)
    out = baseline_localize(chain_graph, pkgs)
    assert [m.position for m in out] == expected
    assert [(m.seq, m.t, m.method) for m in out] == [(p.seq, p.t, "baseline") for p in pkgs]
    assert len(calls) <= len(anchors) - 1
    # Every anchor package sits at its gateway's junction.
    for k, junction in anchors:
        assert same_point(chain_graph, out[k].position, chain_graph.position_at(junction)), k


def test_baseline_builds_one_route_per_anchor_pair(chain_graph, monkeypatch):
    silence = [(t, None) for t in range(1, 1000)]
    pkgs = heard([(0, "gw-a")] + silence + [(1000, "gw-c")])
    calls = counted_routes(chain_graph, monkeypatch)
    out = baseline_localize(chain_graph, pkgs)
    assert len(out) == len(pkgs)
    assert len(calls) == 1
    assert chain_graph.geodesic_distance(out[500].position, line_position(50.0)) <= 1e-9


def reference_baseline(graph, packages, method="baseline"):
    # `baseline_localize` as it was before `Route.points_at`: one position per
    # package, from one route per anchor pair, built when it is first needed.
    anchors = []
    i = 0
    for gateway, run in groupby(packages, key=lambda p: getattr(strongest(p), "gateway", None)):
        n = len(list(run))
        if gateway in graph.gateways:
            junction_pos = graph.position_at(graph.gateways[gateway].junction)
            anchors.append((i, junction_pos))
            if n > 1:
                anchors.append((i + n - 1, junction_pos))
        i += n
    if not anchors:
        return []
    out = []
    pair = 0
    route = None
    for k, pkg in enumerate(packages):
        if k <= anchors[0][0]:
            pos = anchors[0][1]
        elif k >= anchors[-1][0]:
            pos = anchors[-1][1]
        else:
            while k > anchors[pair + 1][0]:
                pair += 1
                route = None
            (i0, p0), (i1, p1) = anchors[pair], anchors[pair + 1]
            t0, t1 = packages[i0].t, packages[i1].t
            if t1 <= t0:  # a pair that spans no time pins at its later anchor
                pos = p1
            else:
                if route is None:
                    route = graph.route(p0, p1)
                pos = reference_point_at(route, (pkg.t - t0) / (t1 - t0) * route.total)
        out.append(LocalizedMeasurement(pkg.node, pkg.seq, pkg.t, pos, method))
    return out


def with_route_count(localize_stream, graph, packages, calls):
    # The estimates, and how many routes `graph.route` built for them.
    calls.clear()
    return localize_stream(graph, packages), len(calls)


def test_baseline_equals_per_package_reference_on_crafted_streams(chain_graph, monkeypatch):
    calls = counted_routes(chain_graph, monkeypatch)
    streams = [
        # one anchor, from a one-package and from a multi-package contact
        [(0, None), (1, "gw-b"), (2, None), (3, None)],
        [(0, "gw-a"), (1, "gw-a"), (2, None)],
        # anchors on the first and the last package
        [(0, "gw-a"), (1, None), (2, None), (5, "gw-c")],
        [(0, "gw-a"), (1, "gw-b"), (2, "gw-c")],
        # pairs with t1 <= t0, and an unknown gateway heard like silence
        [(0, None), (2, "gw-a"), (2, None), (2, "gw-b"), (3, "gw-x"), (3, "gw-c"), (4, None)],
        [(1, "gw-c"), (1, "gw-c"), (1, None), (1, "gw-a"), (3, None)],
    ]
    for times_and_gateways in streams:
        pkgs = heard(times_and_gateways)
        expected = with_route_count(reference_baseline, chain_graph, pkgs, calls)
        assert with_route_count(baseline_localize, chain_graph, pkgs, calls) == expected


def test_baseline_equals_per_package_reference_on_simulated_streams(monkeypatch):
    # Scenarios 1-4 and the random trees of tests/test_golden.py.
    specs = [(make_scenario(k), 0) for k in (1, 2, 3, 4)]
    specs += [(gated_tree_scenario(random.Random(seed)), seed) for seed in range(150)]
    for spec, seed in specs:
        calls = counted_routes(spec.graph, monkeypatch)
        for packages in run_instance(spec, seed).streams().values():
            expected = with_route_count(reference_baseline, spec.graph, packages, calls)
            assert with_route_count(baseline_localize, spec.graph, packages, calls) == expected


# -- vanilla localization over simulated scenarios ----------------------------------


def test_localize_scenario1_full_coverage():
    spec = make_scenario(1)
    result = run_instance(spec, 3)
    streams = result.streams()
    # raw segmentation, one epoch per gateway visit: leave one gateway, pass
    # the next (rise and fall in one visit), approach the last (the node
    # starts under the first gateway, so no initial rise)
    raw = integrate_stream("n1", streams["n1"])
    assert [(e.kind, e.anchor) for e in raw.epochs] == [
        (EpochKind.FALLING, "gw-a"),
        (EpochKind.SILENT, None),
        (EpochKind.MIXED, "gw-b"),
        (EpochKind.SILENT, None),
        (EpochKind.RISING, "gw-c"),
    ]
    state = build_state(spec.graph, streams)
    out = localize_node(state, "n1")
    assert len(out) == len(streams["n1"])
    anchors = [e.anchor for e in state.epoch_sets["n1"].epochs]
    assert anchors == ["gw-a", "gw-b", "gw-c"]


def test_localize_without_middle_gateway_still_covers():
    graph = build_graph(
        [
            Junction("a", Gateway("gw-a", "a", R)),
            Junction("b"),
            Junction("c", Gateway("gw-c", "c", R)),
        ],
        [Link("a", "b", 50.0), Link("b", "c", 50.0)],
        "c",
    )
    spec = ScenarioSpec(graph, [Insertion("n1", graph.position_at("a"), 0)],
                        gateway_radius_default=R)
    result = run_instance(spec, 3)
    streams = result.streams()
    state = build_state(graph, streams)
    out = localize_node(state, "n1")
    assert len(out) == len(streams["n1"])
    assert [e.anchor for e in state.epoch_sets["n1"].epochs] == ["gw-a", "gw-c"]


def test_localize_outside_coverage_yields_nothing(chain_graph):
    pkgs = [Package("n", i + 1, float(i)) for i in range(10)]
    state = build_state(chain_graph, {"n": pkgs})
    assert localize_node(state, "n") == []


def test_incomplete_trailing_epoch_left_unlocalized(chain_graph):
    # node still mid-approach at stream end: the trailing epochs wait for data
    xs = [0.0, 2.0, 10.0, 20.0, 30.0, 40.0, 47.5]
    streams, _ = craft_streams(chain_graph, {"n": chain_trajectory(xs)}, R)
    state = build_state(chain_graph, streams)
    out = localize_node(state, "n")
    assert len(out) < len(xs)


# -- checkpoints --------------------------------------------------------------------


def checkpointable_state(chain_graph):
    # issuer i travels the pipe; peer p sits near x=70 so contacts around it
    issuer = chain_trajectory([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 69.0, 71.0, 80.0, 90.0, 100.0])
    peer = chain_trajectory([70.0] * 12)
    streams, _ = craft_streams(chain_graph, {"i": issuer, "p": peer}, 4.0)
    state = build_state(chain_graph, streams)
    return state, streams


def test_issue_checkpoint_at_strongest_contact(chain_graph):
    state, streams = checkpointable_state(chain_graph)
    # Issuing places what it reads: placing the epochs first changes nothing.
    issued = issue_checkpoints(state, "i")
    localize_node(state, "i")
    assert issue_checkpoints(state, "i") == issued
    assert len(issued) == 1
    ck = issued[0]
    assert (ck.issuer, ck.target) == ("i", "p")
    # contacts at x=69 (d=1) and x=71 (d=1) tie; the earlier one wins
    assert ck.t == 7.0
    # The position is the issuer's placement of that package, and issuing
    # stores nothing: `run_pipeline` keeps the checkpoints.
    (epoch, i), = [
        (e, i) for e in state.epoch_sets["i"].epochs for i, p in enumerate(e.packages) if p.t == ck.t
    ]
    assert ck.position is state.placements[epoch][i]
    assert state.checkpoints == []


def test_issue_no_contacts_no_checkpoints(chain_graph):
    xs = chain_trajectory([0.0, 50.0, 100.0])
    streams, _ = craft_streams(chain_graph, {"i": xs}, 4.0)
    state = build_state(chain_graph, streams)
    localize_node(state, "i")
    assert issue_checkpoints(state, "i") == []


def test_issue_one_checkpoint_per_peer(chain_graph):
    issuer = chain_trajectory([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0])
    near = chain_trajectory([30.0] * 11)
    far = chain_trajectory([80.0] * 11)
    streams, _ = craft_streams(chain_graph, {"i": issuer, "p1": near, "p2": far}, 3.0)
    state = build_state(chain_graph, streams)
    localize_node(state, "i")
    issued = issue_checkpoints(state, "i")
    assert sorted(c.target for c in issued) == ["p1", "p2"]


def resolved_single_node_state(chain_graph):
    xs = chain_trajectory([0.0, 10.0, 20.0, 30.0, 40.0, 50.0][:1] + [float(x) for x in range(2, 102, 2)])
    streams, _ = craft_streams(chain_graph, {"n": xs}, 4.0)
    state = build_state(chain_graph, streams)
    localize_node(state, "n")
    return state, streams


def test_apply_checkpoint_splits_epoch(chain_graph):
    state, streams = resolved_single_node_state(chain_graph)
    epochs_before = len(state.epoch_sets["n"].epochs)
    ck = Checkpoint("peer", "n", 10.0, line_position(22.0))
    state.checkpoints.append(ck)
    apply_checkpoints(state, "n")
    epochs = state.epoch_sets["n"].epochs
    assert len(epochs) == epochs_before + 1
    split = [e for e in epochs if e.final_pos is not None and
             same_point(chain_graph, e.final_pos, line_position(22.0))]
    assert len(split) == 1
    head = split[0]
    assert head.packages[-1].t <= 10.0
    idx = epochs.index(head)
    assert epochs[idx + 1].start_pos == head.final_pos
    assert epochs[idx + 1].packages[0].t > 10.0


@pytest.mark.parametrize(
    "reason, incomplete, checkpoint_at",
    [
        ("outside all epochs", False, lambda first: (1e6, line_position(22.0))),
        ("in incomplete epoch", True, lambda first: (10.0, line_position(22.0))),
        ("off the epoch path", False, lambda first: (10.0, line_position(99.0))),
        ("leaves an empty fragment", False, lambda first: (first.t_last, first.final_pos)),
    ],
    ids=["outside", "incomplete", "off-path", "empty-fragment"],
)
def test_apply_checkpoint_discards_with_one_reason(
    chain_graph, caplog, reason, incomplete, checkpoint_at
):
    state, _ = resolved_single_node_state(chain_graph)
    first, *rest = state.epoch_sets["n"].epochs
    if incomplete:
        first = dataclasses.replace(first, final_pos=None)
        state.epoch_sets["n"] = EpochSet("n", (first, *rest))
    before = state.epoch_sets["n"].epochs
    t, position = checkpoint_at(first)
    state.checkpoints.append(Checkpoint("peer", "n", t, position))
    with caplog.at_level("INFO", logger="gral.localize"):
        apply_checkpoints(state, "n")
    assert state.epoch_sets["n"].epochs == before
    messages = [r.getMessage() for r in caplog.records if r.name == "gral.localize"]
    assert messages == [f"checkpoint peer->n at t={t} {reason}; discarded"]


@pytest.mark.parametrize(
    "t, x, reason",
    [
        (10.0, 21.0, "leaves an empty fragment"),
        (10.0, 30.0, "off the epoch path"),
        (23.5, 22.0, "outside all epochs"),
    ],
    ids=["same-t-on-path", "same-t-off-path", "between-epochs"],
)
def test_checkpoint_after_an_accepted_cut_keeps_its_discard_reason(
    chain_graph, caplog, t, x, reason
):
    # Epochs span t 0-23, 24-48 and 49-50. p1's cut at t=10 closes a fragment
    # at t=10, and a second checkpoint at that time is tested against the
    # fragment the cut closed, not the one it opened.
    state, _ = resolved_single_node_state(chain_graph)
    assert [(e.t_first, e.t_last) for e in state.epoch_sets["n"].epochs] == [
        (0.0, 23.0), (24.0, 48.0), (49.0, 50.0)
    ]
    state.checkpoints.append(Checkpoint("p1", "n", 10.0, line_position(22.0)))
    state.checkpoints.append(Checkpoint("p2", "n", t, line_position(x)))
    with caplog.at_level("INFO", logger="gral.localize"):
        apply_checkpoints(state, "n")
    epochs = state.epoch_sets["n"].epochs
    assert [(e.t_first, e.t_last) for e in epochs] == [
        (0.0, 10.0), (11.0, 23.0), (24.0, 48.0), (49.0, 50.0)
    ]
    assert same_point(chain_graph, epochs[0].final_pos, line_position(22.0))
    messages = [r.getMessage() for r in caplog.records if r.name == "gral.localize"]
    assert messages == [f"checkpoint p2->n at t={t} {reason}; discarded"]


def test_apply_checkpoint_same_before_and_after_localize_node(chain_graph):
    localized, streams = resolved_single_node_state(chain_graph)
    fresh = build_state(chain_graph, streams)
    epochs_before = len(fresh.epoch_sets["n"].epochs)
    for state in (localized, fresh):
        state.checkpoints.append(Checkpoint("peer", "n", 10.0, line_position(22.0)))
        apply_checkpoints(state, "n")
    assert len(fresh.epoch_sets["n"].epochs) == epochs_before + 1
    assert epoch_set_to_json(fresh.epoch_sets["n"]) == epoch_set_to_json(
        localized.epoch_sets["n"]
    )


@pytest.mark.parametrize("variant", ["gral+cp", "gral+cp+pr"])
def test_apply_checkpoints_routes_each_epoch_at_most_once(variant, monkeypatch):
    # At most once is now never: however many checkpoints fall in an epoch,
    # or in a fragment cut from it, the path test is `on_path` between the
    # epoch's bounds and builds no route. The calls still split epochs.
    spec = make_scenario(4)
    real_apply = localize.apply_checkpoints
    splits = 0

    def checked_apply(state, node):
        nonlocal splits
        before = len(state.epoch_sets[node].epochs)
        calls.clear()
        out = real_apply(state, node)
        assert calls == [], node
        splits += len(state.epoch_sets[node].epochs) - before
        return out

    monkeypatch.setattr(localize, "apply_checkpoints", checked_apply)
    calls = counted_routes(spec.graph, monkeypatch)
    for seed in range(5):
        streams = run_instance(spec, seed).streams()
        run_pipeline(build_state(spec.graph, streams), streams, variant)
    assert splits > 0


def test_two_checkpoints_compose_like_sequential_splits(chain_graph):
    state_a, _ = resolved_single_node_state(chain_graph)
    ck1 = Checkpoint("p1", "n", 8.0, line_position(18.0))
    ck2 = Checkpoint("p2", "n", 15.0, line_position(32.0))
    state_a.checkpoints.extend([ck2, ck1])  # store order must not matter
    apply_checkpoints(state_a, "n")

    state_b, _ = resolved_single_node_state(chain_graph)
    state_b.checkpoints.append(ck1)
    apply_checkpoints(state_b, "n")
    state_b.checkpoints.append(ck2)
    apply_checkpoints(state_b, "n")

    shape_a = [(e.kind, [p.seq for p in e.packages]) for e in state_a.epoch_sets["n"].epochs]
    shape_b = [(e.kind, [p.seq for p in e.packages]) for e in state_b.epoch_sets["n"].epochs]
    assert shape_a == shape_b


# -- path rectification ----------------------------------------------------------


def branch_graph():
    return build_graph(
        [
            Junction("a1", Gateway("gw-a1", "a1", 2.0)),
            Junction("a2", Gateway("gw-a2", "a2", 2.0)),
            Junction("m"),
            Junction("f", Gateway("gw-f", "f", 2.0)),
        ],
        [Link("a1", "m", 30.0), Link("a2", "m", 30.0), Link("m", "f", 30.0)],
        "f",
    )


def branch_position(graph, arclength, branch="a1"):
    if arclength <= 30.0:
        return GraphPosition(branch, "m", arclength, 30.0)
    return GraphPosition("m", "f", arclength - 30.0, 30.0)


def rectification_fixture():
    """Fast-then-slow node u meets steady node w past the merge junction, but
    u's naive interpolation lags and places the encounter upstream of it."""
    graph = branch_graph()
    u_arc = []
    for t in range(101):
        u_arc.append(min(2.0 * t, 40.0 + 0.25 * max(t - 20, 0)))
    u = [branch_position(graph, min(s, 60.0), "a1") for s in u_arc[: next(i for i, s in enumerate(u_arc) if s >= 60.0) + 1]]
    w = [branch_position(graph, min(float(t), 60.0), "a2") for t in range(61)]
    streams, truth = craft_streams(graph, {"u": u, "w": w}, 4.0)
    return graph, streams, truth


def test_rectification_moves_contact_to_confluence():
    graph, streams, _ = rectification_fixture()
    vanilla_state = build_state(graph, streams)
    vanilla = run_pipeline(vanilla_state, streams, "gral")
    state = build_state(graph, streams)
    rectified = run_pipeline(state, streams, "gral+pr")

    m_pos = graph.position_at("m")
    f_pos = graph.position_at("f")
    limit = graph.geodesic_distance(m_pos, f_pos)
    # the fixture is built so u's naive estimate puts the encounter upstream of m
    u_contact_seqs = [p.seq for p in streams["u"] if p.contacts]
    naive = {mm.seq: mm for mm in vanilla["u"]}
    assert any(
        graph.geodesic_distance(naive[s].position, f_pos) > limit + 1e-9 for s in u_contact_seqs
    )
    # a fragment boundary sits exactly on the confluence junction
    boundaries = [e.final_pos for e in state.epoch_sets["u"].epochs if e.final_pos is not None]
    assert any(same_point(graph, b, m_pos) for b in boundaries)
    # flagged contacts are no longer upstream of the confluence
    fixed = {mm.seq: mm for mm in rectified["u"]}
    for s in u_contact_seqs:
        assert graph.geodesic_distance(fixed[s].position, f_pos) <= limit + 1e-9
    assert localize.rectify_paths(vanilla_state, "u") is True


def test_rectification_leaves_downstream_estimates_alone():
    graph, streams, _ = rectification_fixture()
    vanilla = run_pipeline(build_state(graph, streams), streams, "gral")
    rectified = run_pipeline(build_state(graph, streams), streams, "gral+pr")
    # w's estimates were already past the confluence at every contact: unchanged
    before = [(m.seq, m.position) for m in vanilla["w"]]
    after = [(m.seq, m.position) for m in rectified["w"]]
    assert before == after


@pytest.mark.parametrize("variant", ["gral+pr", "gral+cp+pr"])
def test_rectification_never_cuts_at_a_confluence_off_the_epoch_route(variant):
    # Tree 7 of the gated trees: n0 hears n1 at seq 3, in its first epoch,
    # which ends at gw-v0's range border. n1 is still approaching v0, so the
    # confluence is the root, downstream of that border: no bound of the epoch.
    spec = gated_tree_scenario(random.Random(7))
    graph = spec.graph
    result = run_instance(spec, 7)
    streams = result.streams()
    root = graph.position_at(graph.root)
    state = build_state(graph, streams)
    first = state.epoch_sets["n0"].epochs[0]
    assert [p.seq for p in first.packages][:3] == [1, 2, 3] and first.packages[2].contacts
    assert not graph.on_path(first.start_pos, root, first.final_pos, tol=1e-6)
    vanilla = {m.seq: m for m in run_pipeline(build_state(graph, streams), streams, "gral")["n0"]}
    refined = {m.seq: m for m in run_pipeline(state, streams, variant)["n0"]}
    assert state.epoch_sets["n0"].epochs[0] is first
    # Seq 2 truly lies 7.54 from the root; a cut at the root would place it there.
    truth = result.tracks["n0"][1]
    assert graph.geodesic_distance(truth, root) == pytest.approx(7.537, abs=1e-3)
    assert refined[2].position == vanilla[2].position
    assert graph.geodesic_distance(refined[2].position, root) == pytest.approx(8.638, abs=1e-3)


def test_rectification_same_origin_never_triggers(chain_graph):
    # both nodes come from the same gateway: confluence is the origin itself
    lead = chain_trajectory([float(x) for x in range(0, 101, 2)])
    trail = chain_trajectory([max(0.0, float(x) - 3) for x in range(0, 101, 2)])
    streams, _ = craft_streams(chain_graph, {"lead": lead, "trail": trail}, 4.0)
    state = build_state(chain_graph, streams)
    vanilla = run_pipeline(state, streams, "gral")
    rectified = run_pipeline(build_state(chain_graph, streams), streams, "gral+pr")
    for node in vanilla:
        assert [m.position for m in vanilla[node]] == [m.position for m in rectified[node]]
        epoch_set = state.epoch_sets[node]
        assert localize.rectify_paths(state, node) is False
        assert state.epoch_sets[node] is epoch_set


@pytest.mark.parametrize("variant", ["gral+pr", "gral+cp+pr"])
def test_rectification_skips_a_peer_without_a_stream(variant, caplog):
    # Scenario 3's two nodes meet; with n2's stream left out, n1's contacts
    # name a node that has no epochs, so it has no provenance to confluence on.
    spec = make_scenario(3)
    streams = run_instance(spec, 0).streams()
    del streams["n2"]
    with caplog.at_level("INFO", logger="gral.localize"):
        got = run_pipeline(build_state(spec.graph, streams), streams, variant)
    assert "rectification skipped for peer n2 of n1: provenance unknown" in caplog.messages
    vanilla = run_pipeline(build_state(spec.graph, streams), streams, "gral")
    assert [(m.seq, m.position) for m in got["n1"]] == [(m.seq, m.position) for m in vanilla["n1"]]


def test_contact_index_takes_the_first_strongest_contact():
    # u's one epoch heard w on its packages 42-52, strongest (3.75) on 47.
    # Package 45 now lists w twice, the second time as strongly as 47, and
    # packages 44 and 49 hear a peer x (which has no stream) equally.
    graph, streams, _ = rectification_fixture()
    crafted = list(streams["u"])
    extra = {
        44: [NodeContact("x", 1.0)],
        45: [NodeContact("w", 3.75)],
        49: [NodeContact("x", 1.0)],
    }
    for i, contacts in extra.items():
        crafted[i] = crafted[i]._replace(contacts=(*crafted[i].contacts, *contacts))
    assert crafted[45].contacts == (NodeContact("w", 2.75), NodeContact("w", 3.75))
    assert crafted[47].contacts == (NodeContact("w", 3.75),)
    crafted_streams = {**streams, "u": crafted}

    state = build_state(graph, crafted_streams)
    assert len(state.epoch_sets["u"].epochs[0].packages) > 52
    localized = localize_node(state, "u")
    position = {m.seq: m.position for m in localized}
    issued = issue_checkpoints(state, "u")
    # One checkpoint per peer, at the earliest of the strongest contacts.
    assert issued == [
        Checkpoint("u", peer, crafted[i].t, position[crafted[i].seq])
        for peer, i in (("w", 45), ("x", 44))
    ]
    # Each position is the placement itself, and issuing stores nothing.
    placed = state.placements[state.epoch_sets["u"].epochs[0]]
    assert [ck.position is placed[i] for ck, i in zip(issued, (45, 44))] == [True, True]
    assert state.checkpoints == []

    def rectified_shape(streams):
        state = build_state(graph, streams)
        localize_node(state, "u")
        localize.rectify_paths(state, "u")
        return [[p.seq for p in e.packages] for e in state.epoch_sets["u"].epochs]

    # Strengths and repeated listings do not move rectification's cut.
    shape = rectified_shape(crafted_streams)
    assert len(shape) == 3
    assert shape == rectified_shape(streams)


# -- bounded rectification scans and the shared contact index --------------------


def reference_meetings(epoch):
    """Per peer, the `(package index, strength)` of each contact, by one scan."""
    meetings = {}
    for i, pkg in enumerate(epoch.packages):
        for peer, strength in pkg.contacts:
            meetings.setdefault(peer, []).append((i, strength))
    return meetings


def reference_confluence_cuts(state, node, idx):
    """`localize._confluence_cuts` with each peer's contacts scanned until one
    is flagged, whatever the epoch's ends say (oracle for the bounded scan)."""
    graph = state.graph
    epochs = state.epoch_sets[node].epochs
    epoch = epochs[idx]
    cuts = {}
    positions = state.placements.get(epoch)
    meetings = reference_meetings(epoch)
    if positions is None or not meetings:
        return cuts
    v_f = anchor_junction(graph, epochs[idx + 1 :])
    v_a = localize._provenance_before(state, node, epoch.t_first)
    if v_f is None or v_a is None:
        return cuts
    v_f_pos = graph.position_at(v_f)
    for peer in sorted(meetings):
        met = meetings[peer]
        v_b = localize._provenance_before(state, peer, epoch.packages[met[0][0]].t)
        if v_b is None:
            continue
        v_c_pos = graph.position_at(graph.confluence_vertex(v_a, v_b, v_f))
        limit = graph.geodesic_distance(v_c_pos, v_f_pos)
        for i, _ in met:
            if graph.geodesic_distance(positions[i], v_f_pos) > limit + POSITION_TOL:
                if i > 0 and graph.on_path(epoch.start_pos, v_c_pos, epoch.final_pos, tol=1e-6):
                    cuts.setdefault(i, v_c_pos)
                break
    return cuts


def reference_checkpoints(state, node):
    """`issue_checkpoints` with its own scan per epoch: a peer's strongest
    contact, the first in package order on a tie (oracle for the index)."""
    issued = []
    for epoch in state.epoch_sets[node].epochs:
        positions = state.placements.get(epoch)
        if positions is None:
            continue
        strongest, at = {}, {}
        for i, pkg in enumerate(epoch.packages):
            for peer, strength in pkg.contacts:
                if peer not in strongest or strength > strongest[peer]:
                    strongest[peer], at[peer] = strength, i
        for peer in sorted(at):
            issued.append(Checkpoint(node, peer, epoch.packages[at[peer]].t, positions[at[peer]]))
    return issued


def scaled_swarm(spec, factor):
    """The scenario with every length, radius and step multiplied by `factor`."""
    return ScenarioSpec(
        scaled_graph(spec.graph, factor),
        spec.insertions,
        base_step=spec.base_step * factor,
        gateway_radius_default=spec.gateway_radius_default * factor,
    )


# Epochs that rectification cuts over these cases, so that the full-scan
# oracle is compared on many cuts.
CUT_EPOCHS = {"gral+pr": 203, "gral+cp+pr": 93}


@pytest.mark.parametrize("variant", ["gral+cp", "gral+pr", "gral+cp+pr"])
def test_refinements_equal_their_full_scans(variant, monkeypatch):
    # Swarm-like trees of 16 and 64 nodes, unscaled and scaled so that the
    # rounding slack outgrows POSITION_TOL, and the 150 gated trees.
    cases = [
        (scaled_swarm(swarm_like_scenario(random.Random(seed), depth, per_leaf), factor), seed)
        for seed, (depth, per_leaf) in enumerate([(3, 2), (4, 4)])
        for factor in (1.0, 1e5, 1e10)
    ]
    cases += [(gated_tree_scenario(random.Random(seed)), seed) for seed in range(150)]
    real_cuts, real_issue = localize._confluence_cuts, localize.issue_checkpoints
    seen = Counter()

    def checked_cuts(state, node, idx):
        # The real scan runs first: it places the epochs that the oracle reads.
        cuts = real_cuts(state, node, idx)
        expected = reference_confluence_cuts(state, node, idx)
        # repr compares the bits of every boundary, and the order of the cuts.
        assert repr(list(cuts.items())) == repr(list(expected.items()))
        seen["cut epochs"] += bool(cuts)
        return cuts

    def checked_issue(state, node):
        issued = real_issue(state, node)
        assert repr(issued) == repr(reference_checkpoints(state, node))
        seen["checkpoints"] += len(issued)
        return issued

    monkeypatch.setattr(localize, "_confluence_cuts", checked_cuts)
    monkeypatch.setattr(localize, "issue_checkpoints", checked_issue)
    for spec, seed in cases:
        streams = run_instance(spec, seed).streams()
        run_pipeline(build_state(spec.graph, streams), streams, variant)
    if "cp" in variant:
        assert seen["checkpoints"] > 1000
    if "pr" in variant:
        assert seen["cut epochs"] == CUT_EPOCHS[variant]


# Per `run_experiment` instance of all five variants: the geodesics that
# rectification computes, the contact indexes built and the contacts heard.
# Before the bounded scan rectification computed 1229 and 26170 geodesics
# on these two trees, and issue_checkpoints scanned each epoch once per
# variant that issues checkpoints. The route test of a flagged confluence
# costs three geodesics.
RECTIFY_WORK = {(3, 2): (915, 189, 684), (4, 4): (17477, 1613, 11940)}


@pytest.mark.parametrize("shape", sorted(RECTIFY_WORK))
def test_rectification_work_is_bounded_by_contacts(shape, monkeypatch):
    spec = swarm_like_scenario(random.Random(0), *shape)
    graph = spec.graph
    geodesic, real_rectify, real_meetings = (
        graph.geodesic_distance, localize.rectify_paths, localize._meetings
    )
    real_interpolate = localize.interpolate_epoch
    work = Counter()
    memos = {}  # id -> the index memo of each state that built an index

    def counted_geodesic(p1, p2):
        work["geodesics"] += work["rectifying"]
        return geodesic(p1, p2)

    def counted_rectify(state, node):
        work["rectifying"] = 1
        try:
            return real_rectify(state, node)
        finally:
            work["rectifying"] = 0

    def counted_meetings(state, epoch):
        if epoch not in state.meetings:
            work["builds"] += 1
            memos[id(state.meetings)] = state.meetings
        return real_meetings(state, epoch)

    def uncounted_interpolate(graph, epoch):
        # Rectification places the epochs it reads; placing is not its work.
        rectifying, work["rectifying"] = work["rectifying"], 0
        try:
            return real_interpolate(graph, epoch)
        finally:
            work["rectifying"] = rectifying

    monkeypatch.setattr(graph, "geodesic_distance", counted_geodesic)
    monkeypatch.setattr(localize, "rectify_paths", counted_rectify)
    monkeypatch.setattr(localize, "_meetings", counted_meetings)
    monkeypatch.setattr(localize, "interpolate_epoch", uncounted_interpolate)
    run_experiment(spec, VARIANTS, 1, 0)
    contacts = sum(len(p.contacts) for b in run_instance(spec, 0).batches for p in b.packages)
    assert (work["geodesics"], work["builds"], contacts) == RECTIFY_WORK[shape]
    # The variants share one memo, and no epoch is indexed twice.
    (memo,) = memos.values()
    assert work["builds"] == len(memo)
    assert work["geodesics"] < 1.5 * contacts


# -- pipeline ---------------------------------------------------------------------


def test_pipeline_rejects_unknown_variant(chain_graph):
    with pytest.raises(ValueError, match="unknown variant"):
        run_pipeline(build_state(chain_graph, {}), {}, "magic")


def test_pipeline_single_node_cp_equals_vanilla():
    spec = make_scenario(1)
    result = run_instance(spec, 11)
    streams = result.streams()
    outputs = {}
    for variant in ("gral", "gral+cp", "gral+pr", "gral+cp+pr"):
        est = run_pipeline(build_state(spec.graph, streams), streams, variant)
        outputs[variant] = [(m.node, m.seq, m.position) for m in est["n1"]]
    assert outputs["gral"] == outputs["gral+cp"] == outputs["gral+pr"] == outputs["gral+cp+pr"]


@pytest.mark.parametrize("scenario", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_pipeline_never_rewrites_shared_segmentation(scenario, seed):
    spec = make_scenario(scenario)
    streams = run_instance(spec, seed).streams()
    segmented = build_state(spec.graph, streams)
    before = {n: epoch_set_to_json(es) for n, es in segmented.epoch_sets.items()}
    for variant in VARIANTS:
        shared = run_pipeline(BackendState(spec.graph, dict(segmented.epoch_sets)), streams, variant)
        fresh = run_pipeline(build_state(spec.graph, streams), streams, variant)
        assert shared == fresh, variant
    assert {n: epoch_set_to_json(es) for n, es in segmented.epoch_sets.items()} == before


def rebind_everywhere(monkeypatch, fn, wrapper):
    """Point every `gral.*` module attribute bound to `fn` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name == "gral" or name.startswith("gral."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("scenario", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_build_state_resolves_once_and_pipeline_never_again(scenario, seed, monkeypatch):
    spec = make_scenario(scenario)
    streams = run_instance(spec, seed).streams()
    expected = {
        node: epoch_set_to_json(
            resolve_positions(merge_same_gateway(integrate_stream(node, pkgs)), spec.graph)
        )
        for node, pkgs in streams.items()
    }
    calls = []
    classified = []

    def counting_resolve(epoch_set, *args, **kwargs):
        calls.append(epoch_set.node)
        return resolve_positions(epoch_set, *args, **kwargs)

    def counting_classify(packages):
        classified.append(len(packages))
        return classify(packages)

    monkeypatch.setattr(localize, "resolve_positions", counting_resolve)
    rebind_everywhere(monkeypatch, classify, counting_classify)
    for variant in VARIANTS:
        state = build_state(spec.graph, streams)
        assert {n: epoch_set_to_json(es) for n, es in state.epoch_sets.items()} == expected
        assert sorted(calls) == sorted(streams)
        segmented = dict(state.epoch_sets)
        calls.clear()
        classified.clear()
        run_pipeline(state, streams, variant)
        assert calls == [], variant
        # Splitting cuts a visit without classifying its fragments again:
        # each fragment keeps the kind of the visit it came from.
        assert classified == [], variant
        if variant == "baseline":
            continue  # its own epochs replace the segmented ones
        for node, epoch_set in state.epoch_sets.items():
            visit_kind = {p.seq: e.kind for e in segmented[node].epochs for p in e.packages}
            assert [e.kind for e in epoch_set.epochs] == [
                visit_kind[e.packages[0].seq] for e in epoch_set.epochs
            ], (variant, node)


@pytest.mark.parametrize("variant", ["gral+pr", "gral+cp+pr"])
def test_rectification_places_only_the_fragments_it_cut(variant, monkeypatch):
    # Beyond the epochs it is handed, rectification adds to the placements
    # only the fragments it cut. While it runs it places only complete epochs
    # of the node's set that heard a peer, never a fragment; the fragments are
    # placed by the node's first later reader, and each epoch once per state.
    spec = make_scenario(4)
    placed = []  # the epoch of every interpolate_epoch call
    rectifying = []  # the epochs of the node being rectified, while it is
    expected = set()  # complete epochs handed to rectification, and its fragments
    work = Counter()
    real_interpolate, real_rectify = localize.interpolate_epoch, localize.rectify_paths

    def recording_interpolate(graph, epoch):
        placed.append(epoch)
        if rectifying:
            # Not a fragment it cut, and an epoch that heard a peer.
            assert epoch in rectifying[0]
            assert any(p.contacts for p in epoch.packages)
            work["placed by rectification"] += 1
        return real_interpolate(graph, epoch)

    def recording_rectify(state, node):
        before = state.epoch_sets[node].epochs
        rectifying.append(before)
        try:
            cut = real_rectify(state, node)
        finally:
            rectifying.clear()
        fragments = [e for e in state.epoch_sets[node].epochs if e not in before]
        # It reports a cut exactly when it added a fragment.
        assert cut == bool(fragments), node
        expected.update(e for e in [*before, *fragments] if is_complete(e))
        work["cut"] += cut
        work["fragments"] += len(fragments)
        return cut

    monkeypatch.setattr(localize, "interpolate_epoch", recording_interpolate)
    monkeypatch.setattr(localize, "rectify_paths", recording_rectify)
    for seed in range(5):
        streams = run_instance(spec, seed).streams()
        state = build_state(spec.graph, streams)
        placed.clear()
        expected.clear()
        out = run_pipeline(state, streams, variant)
        # Each epoch is placed at most once per state; those placed are the
        # complete epochs handed to rectification and the fragments it cut.
        assert len(set(placed)) == len(placed), seed
        assert set(placed) == set(state.placements) == expected, seed
        assert all(map(is_complete, placed)), seed
        # Oracle: a fresh state places every complete epoch of the rectified set.
        fresh = BackendState(state.graph, dict(state.epoch_sets))
        assert out == {node: localize_node(fresh, node, variant) for node in out}, seed
    assert work["placed by rectification"] > 0 and work["cut"] > 0 and work["fragments"] > 0


def test_stages_give_the_same_results_whether_or_not_the_node_was_placed_first():
    cases = [(make_scenario(4), seed) for seed in range(5)]
    cases.append((swarm_like_scenario(random.Random(0), 3, 2), 0))
    nonempty = 0
    for spec, seed in cases:
        streams = run_instance(spec, seed).streams()

        def issued(node, placed_first):
            state = build_state(spec.graph, streams)
            if placed_first:
                localize_node(state, node)
            return issue_checkpoints(state, node)

        def rectified(node, placed_first):
            state = build_state(spec.graph, streams)
            for other in streams:
                if other != node or placed_first:
                    localize_node(state, other)
            localize.rectify_paths(state, node)
            return [
                (e.packages[0].seq, e.packages[-1].seq, e.start_pos, e.final_pos)
                for e in state.epoch_sets[node].epochs
            ]

        for node in streams:
            fresh = issued(node, False)
            # repr compares the bits of every position.
            assert repr(fresh) == repr(issued(node, True)), (seed, node)
            assert repr(rectified(node, False)) == repr(rectified(node, True)), (seed, node)
            nonempty += bool(fresh)
    assert nonempty > 10


@pytest.mark.parametrize("variant", ["gral+pr", "gral+cp+pr"])
def test_rectifying_pipeline_tags_each_node_once(variant, monkeypatch):
    calls = Counter()  # node -> localize_node calls
    cut = 0  # rectifications that cut something
    real_localize, real_rectify = localize.localize_node, localize.rectify_paths

    def counting_localize(state, node, method="gral"):
        calls[node] += 1
        return real_localize(state, node, method)

    def counting_rectify(state, node):
        nonlocal cut
        rectified = real_rectify(state, node)
        cut += rectified
        return rectified

    monkeypatch.setattr(localize, "localize_node", counting_localize)
    monkeypatch.setattr(localize, "rectify_paths", counting_rectify)
    specs = [make_scenario(4)] + [swarm_like_scenario(random.Random(k), 3, 2) for k in range(2)]
    for spec in specs:
        for seed in range(3):
            streams = run_instance(spec, seed).streams()
            calls.clear()
            run_pipeline(build_state(spec.graph, streams), streams, variant)
            assert calls == Counter(node for node, packages in streams.items() if packages)
    assert cut > 10


def test_equal_fragments_are_one_object_and_signed_zeros_are_not(chain_graph):
    state = BackendState(chain_graph)
    packages = tuple(Package("n", i + 1, float(i)) for i in range(5))
    epoch = Epoch(
        EpochKind.SILENT,
        packages,
        start_pos=chain_graph.position_at("a"),
        final_pos=chain_graph.position_at("c"),
    )
    at = GraphPosition("b", "c", 0.0, 50.0)

    def same(xs, ys):
        return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))

    split = localize._split_epoch
    fragments = split(state, epoch, {2: at})
    assert [f.packages for f in fragments] == [packages[:2], packages[2:]]
    assert same(split(state, epoch, {2: GraphPosition("b", "c", 0.0, 50.0)}), fragments)
    # A fragment is the same object whatever cuts led to it: cutting at 1
    # and then the rest at 2 ends in the second fragment of the cut at 2.
    head, rest = split(state, epoch, {1: line_position(10.0)})
    middle, tail = split(state, rest, {1: at})
    assert tail is fragments[1]
    assert same(split(state, epoch, {1: line_position(10.0), 2: at}), [head, middle, tail])
    # -0.0 == 0.0 and 0 == 0.0, yet a fragment keeps the bits of its bounds.
    for offset in (-0.0, 0):
        other = split(state, epoch, {2: at._replace(offset=offset)})
        assert not {id(f) for f in other} & {id(f) for f in fragments}
        assert repr(other[0].final_pos.offset) == repr(offset)
        assert repr(other[1].start_pos.offset) == repr(offset)
    assert split(state, epoch, {2: at})[0] is fragments[0]


def test_parsed_and_placed_records_have_their_exact_types():
    # A plain tuple compares equal to a NamedTuple of the same fields, so the
    # equality checks elsewhere would not notice a record of the wrong type.
    spec = make_scenario(4)
    result = run_instance(spec, 0)
    data = serialize_packages([p for batch in result.batches for p in batch.packages])
    packages = parse_package_stream(data)
    assert {type(p) for p in packages} == {Package}
    assert {type(o) for p in packages for o in p.observations} == {GatewayObservation}
    assert {type(c) for p in packages for c in p.contacts} == {NodeContact}
    streams: dict[str, list[Package]] = {}
    for pkg in packages:
        streams.setdefault(pkg.node, []).append(pkg)

    def assert_exact(measurements):
        assert {type(m) for m in measurements} == {LocalizedMeasurement}
        assert {type(m.position) for m in measurements} == {GraphPosition}

    for variant in VARIANTS:
        estimates = run_pipeline(build_state(spec.graph, streams), streams, variant)
        assert_exact([m for node in estimates.values() for m in node])
    # Placed once into the state's memo; a second method's records read it.
    state = build_state(spec.graph, streams)
    for method in ("gral", "gral+cp"):
        assert_exact([m for node in streams for m in localize_node(state, node, method)])


def test_pipeline_deterministic():
    spec = make_scenario(2)
    result = run_instance(spec, 5)
    streams = result.streams()
    a = run_pipeline(build_state(spec.graph, streams), streams, "gral+cp+pr")
    b = run_pipeline(build_state(spec.graph, streams), streams, "gral+cp+pr")
    assert {n: [(m.seq, m.position) for m in v] for n, v in a.items()} == {
        n: [(m.seq, m.position) for m in v] for n, v in b.items()
    }


def test_pipeline_checkpoint_shifts_later_arriver(chain_graph):
    # steady first arriver issues a checkpoint; the trailing node's estimates move
    lead = chain_trajectory([min(100.0, 2.0 * t) for t in range(51)])
    lagged = [0.0]
    x = 0.0
    for t in range(1, 120):
        x = min(100.0, x + (0.5 if 20 <= t < 60 else 2.0))
        lagged.append(x)
        if x >= 100.0:
            break
    trail = chain_trajectory(lagged)
    streams, _ = craft_streams(chain_graph, {"a-lead": lead, "b-trail": trail}, R)
    vanilla = run_pipeline(build_state(chain_graph, streams), streams, "gral")
    state = build_state(chain_graph, streams)
    with_cp = run_pipeline(state, streams, "gral+cp")
    moved = sum(
        1
        for m_v, m_c in zip(vanilla["b-trail"], with_cp["b-trail"])
        if chain_graph.geodesic_distance(m_v.position, m_c.position) > 1e-9
    )
    assert moved > 0
    # The pipeline stores only checkpoints for a node still to come: the
    # leader's to the trailer, and none of the trailer's to the leader,
    # which was localized first and never reads them.
    assert state.checkpoints
    assert state.checkpoints == issue_checkpoints(state, "a-lead")
    assert {ck.target for ck in state.checkpoints} == {"b-trail"}
    assert {ck.target for ck in issue_checkpoints(state, "b-trail")} == {"a-lead"}


def test_pipeline_method_tags(chain_graph):
    xs = chain_trajectory([0.0, 25.0, 50.0, 75.0, 100.0])
    streams, _ = craft_streams(chain_graph, {"n": xs}, R)
    for variant in ("baseline", "gral", "gral+cp+pr"):
        est = run_pipeline(build_state(chain_graph, streams), streams, variant)
        assert all(m.method == variant for m in est["n"])
