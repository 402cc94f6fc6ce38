import csv
import io
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from gral import localize, metrics
from gral.localize import VARIANTS, BackendState, build_state, run_pipeline
from gral.metrics import VariantResult, mae, normalized_mae, rmse, run_experiment
from gral.sim import ScenarioError, make_scenario, run_instance


def test_zero_errors():
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert mae([0.0, 0.0, 0.0]) == 0.0


def test_three_four():
    assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert mae([3.0, 4.0]) == pytest.approx(3.5, abs=1e-12)


def test_singleton():
    assert rmse([2.5]) == pytest.approx(2.5, abs=1e-12)
    assert mae([2.5]) == pytest.approx(2.5, abs=1e-12)


def test_empty_rejected():
    with pytest.raises(ValueError):
        rmse([])
    with pytest.raises(ValueError):
        mae([])


def test_rmse_dominates_mae_on_random_vectors():
    rng = random.Random(10)
    for _ in range(1000):
        values = [rng.uniform(0.0, 25.0) for _ in range(rng.randint(1, 40))]
        assert rmse(values) >= mae(values) - 1e-12


def test_metrics_match_bruteforce_through_csv():
    rng = random.Random(11)
    values = [rng.uniform(0.0, 30.0) for _ in range(500)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["error"])
    for v in values:
        writer.writerow([repr(v)])
    buf.seek(0)
    reader = csv.DictReader(buf)
    parsed = [float(row["error"]) for row in reader]
    brute_rmse = math.sqrt(sum(v * v for v in parsed) / len(parsed))
    brute_mae = sum(abs(v) for v in parsed) / len(parsed)
    assert rmse(parsed) == pytest.approx(brute_rmse, abs=1e-12)
    assert mae(parsed) == pytest.approx(brute_mae, abs=1e-12)


def test_normalized_mae():
    assert normalized_mae(4.81, 100.0) == pytest.approx(4.81)
    assert normalized_mae(0.0, 100.0) == 0.0
    assert normalized_mae(7.62, 100.0) == pytest.approx(7.62)
    with pytest.raises(ValueError):
        normalized_mae(1.0, 0.0)


def test_experiment_single_instance_drmse_equals_irmse():
    spec = make_scenario(1)
    (result,) = run_experiment(spec, ["gral"], 1, seed0=3, scenario_name="s1")
    assert len(result.instance_rmse) == 1
    assert result.pooled_rmse == pytest.approx(result.instance_rmse[0], abs=1e-12)


def test_experiment_drmse_between_min_and_max_irmse():
    spec = make_scenario(1)
    (result,) = run_experiment(spec, ["gral"], 8, seed0=0, scenario_name="s1")
    assert min(result.instance_rmse) - 1e-12 <= result.pooled_rmse <= max(result.instance_rmse) + 1e-12


def test_experiment_directional_small():
    spec = make_scenario(1)
    baseline, gral = run_experiment(spec, ["baseline", "gral"], 20, seed0=0, scenario_name="s1")
    assert gral.pooled_rmse < baseline.pooled_rmse
    assert gral.coverage_pct == 100.0


def test_experiment_segments_each_instance_once(monkeypatch):
    calls = []
    build_state = metrics.build_state

    def counting_build_state(*args, **kwargs):
        calls.append(args)
        return build_state(*args, **kwargs)

    monkeypatch.setattr(metrics, "build_state", counting_build_state)
    run_experiment(make_scenario(2), metrics.VARIANTS, 3, seed0=0)
    assert len(calls) == 3


def test_experiment_resolves_each_node_once_per_instance(monkeypatch):
    calls = []
    resolve_positions = localize.resolve_positions

    def counting_resolve(epoch_set, *args, **kwargs):
        calls.append(epoch_set.node)
        return resolve_positions(epoch_set, *args, **kwargs)

    monkeypatch.setattr(localize, "resolve_positions", counting_resolve)
    run_experiment(make_scenario(2), metrics.VARIANTS, 3, seed0=0)
    assert Counter(calls) == {"n1": 3, "n2": 3}


def test_experiment_validates_inputs():
    spec = make_scenario(1)
    with pytest.raises(ValueError):
        run_experiment(spec, ["gral"], 0)
    with pytest.raises(ValueError):
        run_experiment(spec, ["nope"], 1)
    with pytest.raises(ValueError, match="no variants given"):
        run_experiment(spec, [], 1)
    with pytest.raises(ValueError, match="variant 'gral' given more than once"):
        run_experiment(spec, ["gral", "baseline", "gral"], 1)


def fresh_experiment(spec, n_instances):
    """`run_experiment` spelled out: a fresh `BackendState` for every variant,
    and each error scored from the instance's own records."""
    errors = {v: [] for v in VARIANTS}
    irmse = {v: [] for v in VARIANTS}
    seeds = {v: [] for v in VARIANTS}
    total = 0
    for seed in range(n_instances):
        result = run_instance(spec, seed)
        streams = result.streams()
        truth = {(r.node, r.seq): r.position for r in result.ground_truth}
        emitted = {(p.node, p.seq) for b in result.batches for p in b.packages}
        total += len(emitted)
        segmented = build_state(spec.graph, streams)
        for variant in VARIANTS:
            state = BackendState(spec.graph, dict(segmented.epoch_sets))
            estimates = run_pipeline(state, streams, variant)
            errs = [
                spec.graph.geodesic_distance(truth[(m.node, m.seq)], m.position)
                for measurements in estimates.values()
                for m in measurements
                if (m.node, m.seq) in emitted
            ]
            errors[variant] += errs
            if errs:
                irmse[variant].append(rmse(errs))
                seeds[variant].append(seed)
    route = spec.route_length()
    return [
        VariantResult(
            "s", v, n_instances, total, len(errors[v]), irmse[v], seeds[v],
            rmse(errors[v]), mae(errors[v]), normalized_mae(mae(errors[v]), route),
        )
        for v in VARIANTS
    ]


@pytest.mark.parametrize("scenario", [2, 3, 4])
def test_experiment_equals_fresh_per_variant_recomputation(scenario):
    spec = make_scenario(scenario)
    got = run_experiment(spec, VARIANTS, 10, seed0=0, scenario_name="s")
    assert got == fresh_experiment(spec, 10)


def test_instance_errors_keeps_its_samples_and_missing_count():
    spec = make_scenario(2)
    result = run_instance(spec, 4)
    streams = result.streams()
    estimates = run_pipeline(build_state(spec.graph, streams), streams, "gral")
    # One package left out and one estimate of a package never emitted.
    dropped = estimates["n1"].pop(3)
    estimates["n1"].append(dropped._replace(seq=10**6))
    truth = {(r.node, r.seq): r.position for r in result.ground_truth}
    samples, missing = metrics.instance_errors(spec.graph, result, estimates)
    expected = [
        (m.node, m.seq, spec.graph.geodesic_distance(truth[(m.node, m.seq)], m.position))
        for node in ("n1", "n2")
        for m in estimates[node]
        if m.seq != 10**6
    ]
    assert [(s.node, s.seq, s.error) for s in samples] == expected
    assert missing == 1


def test_experiment_rejects_every_insertion_at_the_root_before_simulating(monkeypatch):
    spec = make_scenario(2)
    root = spec.graph.position_at(spec.graph.root)
    at_root = replace(spec, insertions=[replace(i, position=root) for i in spec.insertions])
    calls = []
    monkeypatch.setattr(metrics, "run_instance", lambda *a: calls.append(a) or run_instance(*a))
    with pytest.raises(ScenarioError, match="every insertion is at the root"):
        run_experiment(at_root, VARIANTS, 2)
    assert calls == []
