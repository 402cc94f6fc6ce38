"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 1-3 share module-scoped 200-instance experiment runs, and criteria 3
and 9 share the scenario 1 chain run without its middle gateway.

Criterion 3 checks the paper's accuracy claim, an average error of 4.81-7.58%
of route length "depending on the variability of flow speed and the sparsity
of reference points", in the parts the localizer promises. Scenario 1's
normalized MAE must stay at or below 9%, lie above the same chain at constant
flow speed (variability costs accuracy) and below the chain without its
middle gateway (sparsity costs accuracy). It does not assert the published
band itself. The bundled speed model moves a node base_step or 2*base_step
per tick, and on scenario 1 the localizer interpolates in time between
gateway range entries at most 50 units apart. Between exact fixes D apart,
any speed sequence in that range is off by at most (3 - 2*sqrt(2))*D, about
8.6 units, and on average by half of that. The shipped per-tick noise
measures near 1%, and no flow in that model has been seen to reach 4.81%
(see README). The published band needs the paper's own flow model.
"""

import csv
import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gral
from gral.epochs import EpochKind, classify, integrate_stream, is_complete
from gral.graph import Gateway, Junction, Link, build_graph
from gral.localize import build_state, interpolate_epoch, localize_node, run_pipeline
from gral.metrics import mae, rmse, run_experiment
from gral.packages import GatewayObservation, Package
from gral.sim import Insertion, ScenarioSpec, make_scenario, run_instance

from conftest import chain_trajectory, craft_streams, oracle_confluence, random_tree, same_point

R = math.sqrt(10.0)
N_INSTANCES = 200


def verdict(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def s1_experiment():
    t0 = time.perf_counter()
    results = run_experiment(make_scenario(1), ["baseline", "gral"], N_INSTANCES, 0, "s1")
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def s2_experiment():
    t0 = time.perf_counter()
    results = run_experiment(make_scenario(2), ["baseline", "gral"], N_INSTANCES, 0, "s2")
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def s3_experiment():
    t0 = time.perf_counter()
    results = run_experiment(make_scenario(3), ["baseline", "gral"], N_INSTANCES, 0, "s3")
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def s1_degraded_experiment():
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
    (reduced,) = run_experiment(spec, ["gral"], N_INSTANCES, 0, "s1-degraded")
    return reduced


def test_criterion_1_scenario1_ordering(s1_experiment):
    results, elapsed = s1_experiment
    baseline, gral = results
    margin = (baseline.pooled_rmse - gral.pooled_rmse) / baseline.pooled_rmse
    ok = margin >= 0.10 and elapsed < 60.0
    assert verdict(
        1,
        ok,
        f"scenario 1 dRMSE gral={gral.pooled_rmse:.3f} < baseline={baseline.pooled_rmse:.3f}"
        f" (margin {margin:.1%}, runtime {elapsed:.1f}s)",
    )


def test_criterion_2_scenarios_2_3_ordering(s2_experiment, s3_experiment):
    details = []
    ok = True
    for name, (results, elapsed) in (("s2", s2_experiment), ("s3", s3_experiment)):
        baseline, gral = results
        ok = ok and gral.pooled_rmse < baseline.pooled_rmse and elapsed < 60.0
        details.append(
            f"{name}: gral={gral.pooled_rmse:.3f} baseline={baseline.pooled_rmse:.3f}"
            f" ({elapsed:.1f}s)"
        )
    assert verdict(2, ok, "; ".join(details))


def test_criterion_3_scenario1_normalized_mae_band(s1_experiment, s1_degraded_experiment):
    value = s1_experiment[0][1].normalized_mae_pct
    # Constant flow speed makes every instance the same, so one is enough.
    steady_spec = dataclasses.replace(make_scenario(1), noise_p=0.0)
    (steady,) = run_experiment(steady_spec, ["gral"], 1, 0, "s1-constant")
    sparse = s1_degraded_experiment.normalized_mae_pct
    ok = steady.normalized_mae_pct < value < sparse and value <= 9.0
    assert verdict(
        3,
        ok,
        f"scenario 1 normalized MAE {value:.2f}% <= 9%, above constant flow"
        f" {steady.normalized_mae_pct:.2f}% and below the chain without gw-b {sparse:.2f}%"
        " (published 4.81-7.58%)",
    )


def test_criterion_4_confluence_oracle_equivalence():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(100):
        g = random_tree(rng, rng.randint(2, 12))
        ids = sorted(g.junctions)
        v_a, v_b, v_f = (rng.choice(ids) for _ in range(3))
        if g.confluence_vertex(v_a, v_b, v_f) != oracle_confluence(g, v_a, v_b, v_f):
            mismatches += 1
    assert verdict(4, mismatches == 0, f"{mismatches} mismatches over 100 random trees")


def test_criterion_5_epoch_engine_unit_suite():
    def pkg(t, *obs):
        return Package("n", int(t) + 1, float(t), tuple(GatewayObservation(g, s) for g, s in obs))

    ok = classify([pkg(0), pkg(1)]) == EpochKind.SILENT
    ok = ok and classify([pkg(0, ("g", 1.0)), pkg(1, ("g", 2.0))]) == EpochKind.RISING
    ok = ok and classify([pkg(0, ("g", 2.0)), pkg(1, ("g", 2.0)), pkg(2, ("g", 1.0))]) == EpochKind.FALLING
    ok = ok and classify([pkg(0, ("g", 1.0)), pkg(1, ("g", 3.0)), pkg(2, ("g", 2.0))]) is None
    coalesced = integrate_stream(
        "n",
        [
            pkg(0, ("g", 3.0)),
            pkg(1, ("g", 2.0)),
            pkg(2),
            pkg(3),
            pkg(4, ("g", 1.0)),
        ],
    )
    ok = ok and len(coalesced.epochs) == 1 and coalesced.epochs[0].anchor == "g"
    ok = ok and [p.seq for p in coalesced.epochs[0].packages] == [1, 2, 3, 4, 5]
    assert verdict(5, ok, "trend classification and reappearing-gateway coalescing")


def test_criterion_6_interpolation_endpoint_exactness():
    spec = make_scenario(1)
    result = run_instance(spec, 17)
    streams = result.streams()
    state = build_state(spec.graph, streams)
    localize_node(state, "n1")
    checked = 0
    worst = 0.0
    monotone = True
    for epoch in state.epoch_sets["n1"].epochs:
        if not is_complete(epoch):
            continue
        out = interpolate_epoch(spec.graph, epoch)
        d0 = spec.graph.geodesic_distance(out[0], epoch.start_pos)
        d1 = spec.graph.geodesic_distance(out[-1], epoch.final_pos)
        worst = max(worst, d0, d1)
        arcs = [spec.graph.geodesic_distance(epoch.start_pos, pos) for pos in out]
        monotone = monotone and all(b >= a - 1e-9 for a, b in zip(arcs, arcs[1:]))
        checked += 1
    ok = checked > 0 and worst <= 1e-9 and monotone
    assert verdict(
        6, ok, f"{checked} epochs, worst endpoint error {worst:.2e}, monotone={monotone}"
    )


def test_criterion_7_rectification_no_overshoot():
    spec = make_scenario(3)
    graph = spec.graph
    m_pos = graph.position_at("m")
    f_pos = graph.position_at("f")
    limit = graph.geodesic_distance(m_pos, f_pos)
    fired = 0
    boundary_bad = 0
    overshoot = 0
    for seed in range(60):
        result = run_instance(spec, seed)
        streams = result.streams()
        vanilla = run_pipeline(build_state(graph, streams), streams, "gral")
        state = build_state(graph, streams)
        rectified = run_pipeline(state, streams, "gral+pr")
        for node in streams:
            naive = {m.seq: m for m in vanilla[node]}
            fixed = {m.seq: m for m in rectified[node]}
            flagged = [
                p.seq
                for p in streams[node]
                if p.contacts
                and p.seq in naive
                and graph.geodesic_distance(naive[p.seq].position, f_pos) > limit + 1e-9
            ]
            if not flagged:
                continue
            node_fired = any(
                e.final_pos is not None and same_point(graph, e.final_pos, m_pos)
                for e in state.epoch_sets[node].epochs
            )
            if not node_fired:
                continue
            fired += 1
            # split boundary must be exactly the confluence junction
            for e in state.epoch_sets[node].epochs:
                if e.final_pos is not None and same_point(graph, e.final_pos, m_pos):
                    if graph.geodesic_distance(e.final_pos, m_pos) > 0.0:
                        boundary_bad += 1
            # the earliest flagged package sits exactly on the confluence and
            # nothing flagged may remain upstream of it
            if graph.geodesic_distance(fixed[flagged[0]].position, m_pos) > 1e-9:
                overshoot += 1
            for seq in flagged:
                if graph.geodesic_distance(fixed[seq].position, f_pos) > limit + 1e-9:
                    overshoot += 1
    ok = fired > 0 and boundary_bad == 0 and overshoot == 0
    assert verdict(
        7,
        ok,
        f"fired for {fired} node-instances over 60 seeds; bad boundaries {boundary_bad},"
        f" upstream placements {overshoot}",
    )


def test_criterion_8_checkpoint_error_propagation():
    # Turbulent node (fast-slow-fast) and steady node share the pipe; the
    # turbulent one reaches the sink gateway first and hands its skewed
    # encounter estimate to the steady one via a checkpoint.
    graph = make_scenario(1).graph

    def turbulent_pos(t):
        if t <= 30:
            return 2.0 * t
        if t <= 70:
            return 60.0 + 0.5 * (t - 30)
        return 80.0 + 2.5 * (t - 70)

    def trajectory(fn):
        series = []
        t = 0
        while True:
            x = min(fn(t), 100.0)
            series.append(x)
            if x >= 100.0:
                return series
            t += 1

    turbulent = trajectory(turbulent_pos)
    steady = trajectory(lambda t: 1.2 * t)
    streams, truth = craft_streams(
        graph,
        {"a-turb": chain_trajectory(turbulent), "b-steady": chain_trajectory(steady)},
        contact_radius=R,
    )

    def steady_rmse(variant):
        est = run_pipeline(build_state(graph, streams), streams, variant)
        errors = [
            graph.geodesic_distance(truth[(m.node, m.seq)], m.position)
            for m in est["b-steady"]
        ]
        assert len(errors) == len(streams["b-steady"])
        return rmse(errors)

    without_cp = steady_rmse("gral")
    with_cp = steady_rmse("gral+cp")
    ok = with_cp > without_cp
    assert verdict(
        8,
        ok,
        f"steady node iRMSE {without_cp:.3f} -> {with_cp:.3f} when consuming the"
        " turbulent node's checkpoint",
    )


def test_criterion_9_fault_tolerance_middle_gateway_removed(
    s1_experiment, s1_degraded_experiment
):
    full_gral = s1_experiment[0][1]
    reduced = s1_degraded_experiment
    ok = reduced.coverage_pct == 100.0 and reduced.pooled_rmse >= full_gral.pooled_rmse
    assert verdict(
        9,
        ok,
        f"coverage {reduced.coverage_pct:.1f}%, dRMSE {reduced.pooled_rmse:.3f}"
        f" >= full-gateway {full_gral.pooled_rmse:.3f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    # The child process imports the same gral as this test, installed or not.
    source = str(Path(gral.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gral.cli",
                "evaluate",
                "--scenario",
                "1",
                "--instances",
                "10",
                "--seed0",
                "7",
                "--variants",
                "baseline,gral",
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    assert verdict(10, ok, f"two evaluate runs produced {len(outputs[0])} identical bytes")


def test_criterion_11_metric_correctness():
    rng = random.Random(99)
    jensen_ok = True
    for _ in range(1000):
        values = [rng.uniform(0.0, 50.0) for _ in range(rng.randint(1, 30))]
        jensen_ok = jensen_ok and rmse(values) >= mae(values) - 1e-12
    values = [rng.uniform(0.0, 50.0) for _ in range(777)]
    text = "error\n" + "\n".join(repr(v) for v in values) + "\n"
    parsed = [float(row["error"]) for row in csv.DictReader(text.splitlines())]
    brute_rmse = math.sqrt(sum(v * v for v in parsed) / len(parsed))
    brute_mae = sum(abs(v) for v in parsed) / len(parsed)
    agree = abs(rmse(parsed) - brute_rmse) <= 1e-12 and abs(mae(parsed) - brute_mae) <= 1e-12
    ok = jensen_ok and agree
    assert verdict(11, ok, "rmse/mae agree with brute-force recomputation to 1e-12")
