import dataclasses
import math
import sys

import pytest

from gral import localize
from gral.epochs import (
    Epoch,
    EpochKind,
    EpochSet,
    classify,
    epoch_set_to_json,
    integrate_stream,
    merge_same_gateway,
    resolve_positions,
)
from gral.graph import Gateway, GraphPosition, Junction, Link, build_graph
from gral.localize import (
    VARIANTS,
    BackendState,
    apply_checkpoints,
    baseline_localize,
    build_state,
    interpolate_epoch,
    issue_checkpoints,
    localize_node,
    run_pipeline,
)
from gral.packages import Checkpoint, GatewayObservation, Package
from gral.sim import Insertion, ScenarioSpec, make_scenario, run_instance

from conftest import chain_trajectory, craft_streams, line_position

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
    assert chain_graph.geodesic_distance(out[0].position, line_position(0.0)) <= 1e-9
    assert chain_graph.geodesic_distance(out[-1].position, line_position(100.0)) <= 1e-9


def test_interpolation_midpoint(chain_graph):
    epoch = span_epoch(chain_graph, [0, 5, 10], 0.0, 100.0)
    out = interpolate_epoch(chain_graph, epoch)
    assert chain_graph.geodesic_distance(out[1].position, line_position(50.0)) <= 1e-9


def test_interpolation_monotone_and_on_route(chain_graph):
    epoch = span_epoch(chain_graph, [0, 1, 3, 4, 9, 10], 12.0, 87.0)
    out = interpolate_epoch(chain_graph, epoch)
    route = chain_graph.route(line_position(12.0), line_position(87.0))
    arclengths = [chain_graph.geodesic_distance(route.start, m.position) for m in out]
    assert arclengths == sorted(arclengths)
    assert all(route.contains(m.position, tol=1e-9) for m in out)


def test_interpolation_equal_bounds(chain_graph):
    epoch = span_epoch(chain_graph, [0, 5, 10], 42.0, 42.0)
    out = interpolate_epoch(chain_graph, epoch)
    assert all(
        chain_graph.geodesic_distance(m.position, line_position(42.0)) <= 1e-9 for m in out
    )


def test_interpolation_zero_timespan_pins_at_final(chain_graph, caplog):
    epoch = span_epoch(chain_graph, [7, 7], 10.0, 20.0)
    with caplog.at_level("WARNING", logger="gral.localize"):
        out = interpolate_epoch(chain_graph, epoch)
    assert all(chain_graph.geodesic_distance(m.position, line_position(20.0)) <= 1e-9 for m in out)
    assert any("zero time" in r.message for r in caplog.records)


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
    assert chain_graph.same_point(out[0].position, chain_graph.position_at("a"))
    assert chain_graph.geodesic_distance(out[1].position, line_position(25.0)) <= 1e-9
    assert chain_graph.same_point(out[2].position, chain_graph.position_at("b"))


def test_baseline_single_gateway_pins_everything(chain_graph):
    xs = [0.0, 1.0, 2.0, 3.0]
    streams, _ = craft_streams(chain_graph, {"n": chain_trajectory(xs)}, R)
    out = baseline_localize(chain_graph, streams["n"])
    assert all(chain_graph.same_point(m.position, chain_graph.position_at("a")) for m in out)


def test_baseline_three_gateways_piecewise(chain_graph):
    xs = [0.0, 20.0, 40.0, 50.0, 70.0, 90.0, 100.0]
    streams, _ = craft_streams(chain_graph, {"n": chain_trajectory(xs)}, R)
    out = baseline_localize(chain_graph, streams["n"])
    # between a (t=0) and b (t=3): time-linear along the first link
    assert chain_graph.geodesic_distance(out[1].position, line_position(50.0 / 3)) <= 1e-9
    # between b (t=3) and c (t=6): the same on the second link
    assert chain_graph.geodesic_distance(out[4].position, line_position(50.0 + 50.0 / 3)) <= 1e-9
    assert chain_graph.same_point(out[6].position, chain_graph.position_at("c"))


def test_baseline_no_contact_returns_nothing(chain_graph):
    pkgs = [Package("n", i + 1, float(i)) for i in range(5)]
    assert baseline_localize(chain_graph, pkgs) == []


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
        fraction = 0.0 if t1 <= t0 else (pkg.t - t0) / (t1 - t0)
        route = graph.route(graph.position_at(j0), graph.position_at(j1))
        out.append(route.point_at_fraction(fraction))
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


def test_baseline_builds_one_route_per_anchor_pair(chain_graph, monkeypatch):
    silence = [(t, None) for t in range(1, 1000)]
    pkgs = heard([(0, "gw-a")] + silence + [(1000, "gw-c")])
    calls = counted_routes(chain_graph, monkeypatch)
    out = baseline_localize(chain_graph, pkgs)
    assert len(out) == len(pkgs)
    assert len(calls) == 1
    assert chain_graph.geodesic_distance(out[500].position, line_position(50.0)) <= 1e-9


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
    localized = localize_node(state, "i")
    issued = issue_checkpoints(state, "i", localized)
    assert len(issued) == 1
    ck = issued[0]
    assert (ck.issuer, ck.target) == ("i", "p")
    # contacts at x=69 (d=1) and x=71 (d=1) tie; the earlier one wins
    assert ck.t == 7.0
    assert state.checkpoints == [ck]


def test_issue_no_contacts_no_checkpoints(chain_graph):
    xs = chain_trajectory([0.0, 50.0, 100.0])
    streams, _ = craft_streams(chain_graph, {"i": xs}, 4.0)
    state = build_state(chain_graph, streams)
    localized = localize_node(state, "i")
    assert issue_checkpoints(state, "i", localized) == []


def test_issue_one_checkpoint_per_peer(chain_graph):
    issuer = chain_trajectory([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0])
    near = chain_trajectory([30.0] * 11)
    far = chain_trajectory([80.0] * 11)
    streams, _ = craft_streams(chain_graph, {"i": issuer, "p1": near, "p2": far}, 3.0)
    state = build_state(chain_graph, streams)
    localized = localize_node(state, "i")
    issued = issue_checkpoints(state, "i", localized)
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
             chain_graph.same_point(e.final_pos, line_position(22.0))]
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
    assert any(graph.same_point(b, m_pos) for b in boundaries)
    # flagged contacts are no longer upstream of the confluence
    fixed = {mm.seq: mm for mm in rectified["u"]}
    for s in u_contact_seqs:
        assert graph.geodesic_distance(fixed[s].position, f_pos) <= limit + 1e-9


def test_rectification_leaves_downstream_estimates_alone():
    graph, streams, _ = rectification_fixture()
    vanilla = run_pipeline(build_state(graph, streams), streams, "gral")
    rectified = run_pipeline(build_state(graph, streams), streams, "gral+pr")
    # w's estimates were already past the confluence at every contact: unchanged
    before = [(m.seq, m.position) for m in vanilla["w"]]
    after = [(m.seq, m.position) for m in rectified["w"]]
    assert before == after


def test_rectification_same_origin_never_triggers(chain_graph):
    # both nodes come from the same gateway: confluence is the origin itself
    lead = chain_trajectory([float(x) for x in range(0, 101, 2)])
    trail = chain_trajectory([max(0.0, float(x) - 3) for x in range(0, 101, 2)])
    streams, _ = craft_streams(chain_graph, {"lead": lead, "trail": trail}, 4.0)
    vanilla = run_pipeline(build_state(chain_graph, streams), streams, "gral")
    rectified = run_pipeline(build_state(chain_graph, streams), streams, "gral+pr")
    for node in vanilla:
        assert [m.position for m in vanilla[node]] == [m.position for m in rectified[node]]


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
        for node, epoch_set in state.epoch_sets.items():
            visit_kind = {p.seq: e.kind for e in segmented[node].epochs for p in e.packages}
            assert [e.kind for e in epoch_set.epochs] == [
                visit_kind[e.packages[0].seq] for e in epoch_set.epochs
            ], (variant, node)


@pytest.mark.parametrize("variant", ["gral+pr", "gral+cp+pr"])
def test_rectification_places_only_the_fragments_it_cut(variant, monkeypatch):
    spec = make_scenario(4)
    placed = []
    real_interpolate, real_rectify = localize.interpolate_epoch, localize.rectify_paths

    def recording_interpolate(graph, epoch, method="gral"):
        placed.append(epoch)
        return real_interpolate(graph, epoch, method)

    fragments_made = []

    def checked_rectify(state, node, localized, method):
        before = state.epoch_sets[node].epochs
        placed.clear()
        out = real_rectify(state, node, localized, method)
        fragments = [e for e in state.epoch_sets[node].epochs if e not in before]
        assert placed == fragments, node
        # Oracle: placing every complete epoch of the rectified set again.
        assert out == localize_node(state, node, method), node
        fragments_made.append(len(fragments))
        return out

    monkeypatch.setattr(localize, "interpolate_epoch", recording_interpolate)
    monkeypatch.setattr(localize, "rectify_paths", checked_rectify)
    for seed in range(5):
        streams = run_instance(spec, seed).streams()
        rectified = len(fragments_made)
        run_pipeline(build_state(spec.graph, streams), streams, variant)
        assert len(fragments_made) - rectified == len(streams)
    assert sum(fragments_made) > 0


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
    with_cp = run_pipeline(build_state(chain_graph, streams), streams, "gral+cp")
    moved = sum(
        1
        for m_v, m_c in zip(vanilla["b-trail"], with_cp["b-trail"])
        if chain_graph.geodesic_distance(m_v.position, m_c.position) > 1e-9
    )
    assert moved > 0


def test_pipeline_method_tags(chain_graph):
    xs = chain_trajectory([0.0, 25.0, 50.0, 75.0, 100.0])
    streams, _ = craft_streams(chain_graph, {"n": xs}, R)
    for variant in ("baseline", "gral", "gral+cp+pr"):
        est = run_pipeline(build_state(chain_graph, streams), streams, variant)
        assert all(m.method == variant for m in est["n"])
