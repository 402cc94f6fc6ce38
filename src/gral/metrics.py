"""Error metrics and the multi-instance experiment runner.

Localization error is the geodesic (along-network) distance between the true
and estimated position of a package. Per-instance RMSE summarizes one run;
the scenario-level RMSE pools every package error across all instances of a
scenario, and MAE gives the average error range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import mul
from typing import NamedTuple, Sequence

from .epochs import Epoch
from .graph import EnvironmentGraph, GraphPosition
from .localize import VARIANTS, BackendState, _positions, build_state, run_pipeline
from .packages import LocalizedMeasurement, _gc_paused
from .sim import InstanceResult, ScenarioSpec, run_instance


class ErrorSample(NamedTuple):
    node: str
    seq: int
    error: float


def mae(errors: Sequence[float]) -> float:
    if len(errors) == 0:
        raise ValueError("mae of empty input")
    return math.fsum(map(abs, errors)) / len(errors)


def rmse(errors: Sequence[float]) -> float:
    if len(errors) == 0:
        raise ValueError("rmse of empty input")
    return _root_mean(list(map(mul, errors, errors)))


def _root_mean(squares: Sequence[float]) -> float:
    # The root of the mean of squared errors, summed exactly by `math.fsum`,
    # so the order of the squares does not matter.
    return math.sqrt(math.fsum(squares) / len(squares))


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
    truncated_seeds: list[int] = field(default_factory=list)  # instances cut at max_ticks

    @property
    def coverage_pct(self) -> float:
        if self.packages_total == 0:
            return 0.0
        return self.packages_localized / self.packages_total * 100.0


def package_errors(
    graph: EnvironmentGraph,
    truth: dict[tuple[str, int], GraphPosition],
    estimates: dict[str, list[LocalizedMeasurement]],
) -> list[float]:
    """Geodesic error of each estimate whose `(node, seq)` is in `truth`.

    Errors come in estimate order; an estimate of a package that `truth` does
    not hold is skipped. This kernel scores `instance_errors`: one dict
    lookup and one geodesic per estimate, and no record per package. It
    shares no code with the slices `run_experiment` scores by, so it checks
    them.
    """
    true_position = truth.get
    distance = graph.geodesic_distance
    return [
        distance(position, estimate)
        for measurements in estimates.values()
        for node, seq, _t, estimate, _method in measurements
        if (position := true_position((node, seq))) is not None
    ]


def epoch_errors(
    state: BackendState,
    tracks: dict[str, list[GraphPosition]],
    scored: dict[Epoch, list[float]],
) -> list[float]:
    """Geodesic error of each package of the state's complete epochs.

    `tracks` holds each node's emitted true positions in seq order
    (`InstanceResult.tracks`). An epoch is a run of its node's stream, so
    its truth is the slice of the node's track from its first package's seq,
    cut to its length; a run that is not one of emitted packages in seq
    order raises ValueError. Positions come from `localize._positions`, so an
    epoch not placed yet is placed here. After `run_pipeline`, these are
    `package_errors` of the estimates it returned, in epoch order.
    `scored` memoizes each epoch's errors. The states of one instance, whose
    variants share its epochs, share one `scored`: an epoch is scored by the
    first state that holds it, and the others extend their list by its
    errors.
    """
    errors: list[float] = []
    distance = state.graph.geodesic_distance
    for epoch_set in state.epoch_sets.values():
        for epoch in epoch_set.epochs:
            epoch_scored = scored.get(epoch)
            if epoch_scored is None:
                positions = _positions(state, epoch)
                if positions is None:  # incomplete
                    continue
                first, last = epoch.packages[0], epoch.packages[-1]
                start, n = first.seq - 1, len(positions)
                truth = tracks.get(first.node, ())[start : start + n]
                if start < 0 or last.seq - start != n or len(truth) != n:
                    raise ValueError(
                        f"packages {first.seq}..{last.seq} of node {first.node!r} are not "
                        f"{n} emitted packages in seq order"
                    )
                epoch_scored = scored[epoch] = list(map(distance, truth, positions))
            errors += epoch_scored
    return errors


def instance_errors(
    graph: EnvironmentGraph,
    result: InstanceResult,
    estimates: dict[str, list[LocalizedMeasurement]],
) -> tuple[list[ErrorSample], int]:
    """Per-package geodesic errors for one localized instance.

    Returns the samples for localized packages and the count of packages that
    were emitted but not localized. The errors are `package_errors`' against
    the instance's emitted truth, each labelled with its package.
    """
    truth = result.emitted_truth
    scored = [
        m for measurements in estimates.values() for m in measurements if (m.node, m.seq) in truth
    ]
    errors = package_errors(graph, truth, estimates)
    samples = [ErrorSample(m.node, m.seq, e) for m, e in zip(scored, errors, strict=True)]
    return samples, len(truth) - len({(m.node, m.seq) for m in scored})


@_gc_paused
def run_experiment(
    spec: ScenarioSpec,
    variants: Sequence[str],
    n_instances: int,
    seed0: int = 0,
    scenario_name: str = "custom",
) -> list[VariantResult]:
    """Simulate and segment seeds seed0..seed0+n-1 once; localize each with every variant.

    The variants of one instance share its `build_state` epochs and that
    state's placement and fragment memos: the first variant to localize a
    complete epoch routes and places it, and the others read its positions
    from the memo. A fragment that checkpoints or rectification cut is one
    object in every variant that cuts it alike, whatever cuts led to it, so
    it too is routed and placed once per instance. Every variant, the
    baseline's epoch sets included, is scored by `epoch_errors` over the
    epochs `run_pipeline` leaves in its state, with one error memo per
    instance, so an epoch or fragment several variants keep is scored once;
    the true positions are slices of the instance's per-node `tracks`.
    Each variant keeps one flat list of errors and the end of each
    instance's slice of it, and squares every error once, at the end; an
    iRMSE is a `math.fsum` over its instance's slice of the squares, the
    pooled dRMSE one over all of them and the MAE one of the errors'
    absolute values, so the order of the errors does not matter. It runs,
    simulation included, with the cyclic garbage collector paused; the pause
    is process-wide, so another thread's `gc.disable()` made during the call
    is undone when it returns.
    """
    if n_instances < 1:
        raise ValueError("need at least one instance")
    if not variants:
        raise ValueError(f"no variants given; expected some of {VARIANTS}")
    for i, variant in enumerate(variants):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if variant in variants[:i]:
            raise ValueError(f"variant {variant!r} given more than once")
    route_length = spec.route_length()
    per_variant_errors: dict[str, list[float]] = {v: [] for v in variants}
    # (seed, end of its errors) of each instance that localized anything
    per_variant_ends: dict[str, list[tuple[int, int]]] = {v: [] for v in variants}
    truncated_seeds: list[int] = []
    total_packages = 0
    for seed in range(seed0, seed0 + n_instances):
        result = run_instance(spec, seed)
        if result.truncated:
            truncated_seeds.append(seed)
        streams = result.streams()
        total_packages += sum(len(b.packages) for b in result.batches)
        segmented = build_state(spec.graph, streams)
        scored: dict[Epoch, list[float]] = {}
        for variant in variants:
            # Each variant cuts its own epoch sets and issues its own
            # checkpoints; the memos stay shared.
            state = replace(segmented, epoch_sets=dict(segmented.epoch_sets), checkpoints=[])
            run_pipeline(state, streams, variant)
            errors = per_variant_errors[variant]
            n = len(errors)
            errors += epoch_errors(state, result.tracks, scored)
            if len(errors) > n:
                per_variant_ends[variant].append((seed, len(errors)))
    out = []
    for variant in variants:
        errors = per_variant_errors[variant]
        ends = per_variant_ends[variant]
        squares = list(map(mul, errors, errors))
        starts = [0, *(end for _seed, end in ends)]
        pooled = _root_mean(squares) if errors else float("nan")
        mae_value = mae(errors) if errors else float("nan")
        out.append(
            VariantResult(
                scenario=scenario_name,
                variant=variant,
                instances=n_instances,
                packages_total=total_packages,
                packages_localized=len(errors),
                instance_rmse=[_root_mean(squares[a:b]) for a, (_seed, b) in zip(starts, ends)],
                instance_seeds=[seed for seed, _end in ends],
                pooled_rmse=pooled,
                mae=mae_value,
                normalized_mae_pct=normalized_mae(mae_value, route_length)
                if errors
                else float("nan"),
                truncated_seeds=list(truncated_seeds),
            )
        )
    return out
