"""Error metrics and the multi-instance experiment runner.

Localization error is the geodesic (along-network) distance between the true
and estimated position of a package. Per-instance RMSE summarizes one run;
the scenario-level RMSE pools every package error across all instances of a
scenario, and MAE gives the average error range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import EnvironmentGraph
from .localize import VARIANTS, BackendState, build_state, run_pipeline
from .packages import LocalizedMeasurement
from .sim import InstanceResult, ScenarioSpec, run_instance


class ErrorSample(NamedTuple):
    node: str
    seq: int
    error: float


def mae(errors: Sequence[float]) -> float:
    if len(errors) == 0:
        raise ValueError("mae of empty input")
    return math.fsum(abs(e) for e in errors) / len(errors)


def rmse(errors: Sequence[float]) -> float:
    if len(errors) == 0:
        raise ValueError("rmse of empty input")
    return math.sqrt(math.fsum(e * e for e in errors) / len(errors))


def normalized_mae(mae_value: float, route_length: float) -> float:
    """MAE as a percentage of the total route length."""
    if route_length <= 0:
        raise ValueError("route length must be positive")
    return mae_value / route_length * 100.0


@dataclass
class VariantResult:
    scenario: str
    variant: str
    instances: int
    packages_total: int
    packages_localized: int
    instance_rmse: list[float]          # iRMSE of each instance that localized anything
    instance_seeds: list[int]           # the seed of each instance_rmse entry
    pooled_rmse: float                  # dRMSE over all package errors
    mae: float
    normalized_mae_pct: float

    @property
    def coverage_pct(self) -> float:
        if self.packages_total == 0:
            return 0.0
        return self.packages_localized / self.packages_total * 100.0


def instance_errors(
    graph: EnvironmentGraph,
    result: InstanceResult,
    estimates: dict[str, list[LocalizedMeasurement]],
) -> tuple[list[ErrorSample], int]:
    """Per-package geodesic errors for one localized instance.

    Returns the samples for localized packages and the count of packages that
    were emitted but not localized.
    """
    truth = result.emitted_truth
    distance = graph.geodesic_distance
    samples = []
    localized_keys = set()
    for measurements in estimates.values():
        for m in measurements:
            key = (m.node, m.seq)
            position = truth.get(key)
            if position is None:
                continue
            localized_keys.add(key)
            samples.append(ErrorSample(m.node, m.seq, distance(position, m.position)))
    return samples, len(truth) - len(localized_keys)


def run_experiment(
    spec: ScenarioSpec,
    variants: Sequence[str],
    n_instances: int,
    seed0: int = 0,
    scenario_name: str = "custom",
) -> list[VariantResult]:
    """Simulate and segment seeds seed0..seed0+n-1 once; localize each with every variant."""
    if n_instances < 1:
        raise ValueError("need at least one instance")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    route_length = spec.route_length()
    per_variant_errors: dict[str, list[float]] = {v: [] for v in variants}
    per_variant_irmse: dict[str, list[float]] = {v: [] for v in variants}
    per_variant_seeds: dict[str, list[int]] = {v: [] for v in variants}
    total_packages = 0
    for seed in range(seed0, seed0 + n_instances):
        result = run_instance(spec, seed)
        streams = result.streams()
        total_packages += sum(len(b.packages) for b in result.batches)
        segmented = build_state(spec.graph, streams)
        for variant in variants:
            state = BackendState(spec.graph, dict(segmented.epoch_sets))
            estimates = run_pipeline(state, streams, variant)
            samples, _missing = instance_errors(spec.graph, result, estimates)
            errors = [s.error for s in samples]
            per_variant_errors[variant].extend(errors)
            if errors:
                per_variant_irmse[variant].append(rmse(errors))
                per_variant_seeds[variant].append(seed)
    out = []
    for variant in variants:
        errors = per_variant_errors[variant]
        pooled = rmse(errors) if errors else float("nan")
        mae_value = mae(errors) if errors else float("nan")
        out.append(
            VariantResult(
                scenario=scenario_name,
                variant=variant,
                instances=n_instances,
                packages_total=total_packages,
                packages_localized=len(errors),
                instance_rmse=per_variant_irmse[variant],
                instance_seeds=per_variant_seeds[variant],
                pooled_rmse=pooled,
                mae=mae_value,
                normalized_mae_pct=normalized_mae(mae_value, route_length)
                if errors
                else float("nan"),
            )
        )
    return out
