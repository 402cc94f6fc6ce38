import csv
import io
import math
import random

import pytest

from gral import metrics
from gral.metrics import mae, normalized_mae, rmse, run_experiment
from gral.sim import make_scenario


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


def test_experiment_validates_inputs():
    spec = make_scenario(1)
    with pytest.raises(ValueError):
        run_experiment(spec, ["gral"], 0)
    with pytest.raises(ValueError):
        run_experiment(spec, ["nope"], 1)
