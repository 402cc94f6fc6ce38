"""Epoch segmentation of package streams and boundary-position resolution.

Each node's stream is partitioned into one epoch per gateway visit: a run of
packages whose strongest gateway is the same, or a silent stretch. A visit's
kind is the qualitative trend of its strengths: rising while approaching the
gateway, falling while leaving it. Interpolation needs every epoch bounded by
known positions, so this module also derives those boundary positions from
gateway geometry and chains them across consecutive epochs.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace
from itertools import groupby, pairwise
from operator import attrgetter, gt
from typing import Iterable, Optional, Sequence

from .graph import EnvironmentGraph, GraphPosition, POSITION_TOL
from .packages import Package, strongest, strongest_gateways

log = logging.getLogger(__name__)


class EpochError(ValueError):
    pass


class EpochKind(enum.Enum):
    SILENT = "silent"      # no gateway heard in any package
    RISING = "rising"      # strongest signal strictly increasing, one gateway
    FALLING = "falling"    # strongest signal non-increasing, one gateway
    MIXED = "mixed"        # one gateway's visit with no trend, or with silence in it


# A fragment split off by a checkpoint or a rectification keeps the kind of the
# visit it was cut from: kinds are read only before any split, and when dumped.
# Epochs compare and hash by identity, so they key the backend's placement memo.
# The bounds' times `t_start` and `t_final` default to the first and last
# package's; only the baseline's epochs (`localize.baseline_epochs`), which
# are bounded by contacts outside their own packages, set them.
@dataclass(frozen=True, eq=False)
class Epoch:
    kind: EpochKind
    packages: tuple[Package, ...]
    anchor: Optional[str] = None  # gateway id shared by the observing packages
    start_pos: Optional[GraphPosition] = None
    final_pos: Optional[GraphPosition] = None
    t_start: Optional[float] = None
    t_final: Optional[float] = None

    @property
    def t_first(self) -> float:
        return self.packages[0].t

    @property
    def t_last(self) -> float:
        return self.packages[-1].t


@dataclass(frozen=True)
class EpochSet:
    node: str
    epochs: tuple[Epoch, ...] = ()


def classify(packages: Sequence[Package]) -> Optional[EpochKind]:
    """Trend classification of an ordered package run.

    Silent when nothing was heard anywhere; rising/falling when every package
    hears the same strongest gateway with strictly-increasing respectively
    non-increasing strength. A lone observing package is vacuously both and is
    labelled rising until a second package disambiguates (arrival precedes
    departure). Anything else does not form a valid epoch. Each package's top
    observation is read once, into one list, with no call per package.
    """
    if not packages:
        raise EpochError("cannot classify an empty package run")
    tops = [p.observations[0] if p.observations else None for p in packages]
    silent = tops.count(None)
    if silent == len(tops):
        return EpochKind.SILENT
    if silent:
        return None
    if len({t.gateway for t in tops}) != 1:
        return None
    strengths = [t.strength for t in tops]
    if all(b > a for a, b in pairwise(strengths)):
        return EpochKind.RISING
    if all(b <= a for a, b in pairwise(strengths)):
        return EpochKind.FALLING
    return None


def anchor_of(packages: Sequence[Package]) -> Optional[str]:
    """Strongest gateway of the first observing package; None for silence."""
    return next((p.observations[0].gateway for p in packages if p.observations), None)


def integrate_stream(node: str, packages: Iterable[Package]) -> EpochSet:
    """Segment a node's time-ordered stream into one epoch per gateway visit.

    The strongest gateway of every package is read once, into one list. Each
    run of one gateway in it, or of silence, is an epoch: a slice of the stream
    whose kind is the run's trend, or mixed when its strengths form none. A
    gateway heard again right after one silent run extends its earlier epoch
    by the silence and the new run (the node lingered at the gateway's range
    boundary), so no two neighbouring epochs share an anchor.
    """
    packages = tuple(packages)
    # One C-level pass checks the order; the first bad pair is found only on failure.
    ts = list(map(attrgetter("t"), packages))
    if any(map(gt, ts, ts[1:])):
        a, b = next((a, b) for a, b in pairwise(ts) if b < a)
        raise EpochError(f"out-of-order package for node {node!r}: t={b} after {a}")
    runs: list[tuple[Optional[str], int]] = []  # (anchor, index of the run's first package)
    start = 0
    for anchor, group in groupby(strongest_gateways(packages)):
        if len(runs) > 1 and runs[-1][0] is None and runs[-2][0] == anchor:
            runs.pop()  # the silence and this run extend the visit before them
        else:
            runs.append((anchor, start))
        start += len(list(group))
    epochs = []
    for (anchor, first), (_, end) in pairwise(runs + [(None, len(packages))]):
        run = packages[first:end]
        epochs.append(Epoch(classify(run) or EpochKind.MIXED, run, anchor))
    return EpochSet(node, tuple(epochs))


def merge_same_gateway(epoch_set: EpochSet) -> EpochSet:
    """Fold the silence after each gateway's epoch into that epoch.

    Silence between two gateways belongs to the visit it follows, so the
    merged epoch runs up to the next gateway heard. Trailing silence at the
    very end of the stream stays separate: nothing downstream bounds it yet.
    Observing packages followed by silence form no trend, so a merged epoch is
    mixed. It runs on segmentation that is not yet resolved, so merged epochs
    carry no boundary positions.
    """
    epochs = epoch_set.epochs
    merged: list[Epoch] = []
    for i, epoch in enumerate(epochs):
        if epoch.anchor is None and merged and merged[-1].anchor is not None and i + 1 < len(epochs):
            visit = merged.pop()
            epoch = Epoch(EpochKind.MIXED, visit.packages + epoch.packages, visit.anchor)
        merged.append(epoch)
    return EpochSet(epoch_set.node, tuple(merged))


def _under_gateway(graph: EnvironmentGraph, package: Package) -> Optional[GraphPosition]:
    # Full strength, the gateway's radius, is heard only right under it: the
    # package was recorded at that gateway's junction.
    top = strongest(package)
    gateway = graph.gateways.get(top.gateway) if top is not None else None
    if gateway is not None and top.strength >= gateway.radius - POSITION_TOL:
        return graph.position_at(gateway.junction)
    return None


def _boundary_before(
    graph: EnvironmentGraph, origin: GraphPosition, gateway_id: str
) -> GraphPosition:
    # Point where a node coming from `origin` first hears `gateway_id`:
    # the range boundary on the approach path toward its junction.
    gateway = graph.gateways[gateway_id]
    target = graph.position_at(gateway.junction)
    route = graph.route(origin, target)
    if route.total < gateway.radius - POSITION_TOL:
        log.warning(
            "gateway %s radius %.3f exceeds approach path length %.3f; clamping boundary",
            gateway_id,
            gateway.radius,
            route.total,
        )
    return route.point_at(max(0.0, route.total - gateway.radius))


def resolve_positions(epoch_set: EpochSet, graph: EnvironmentGraph) -> EpochSet:
    """Fill in the boundary positions of unsplit epochs from gateway geometry.

    Returns a new set of new epochs; `epoch_set` and its epochs are left as
    they were, so one segmentation can be resolved for several variants.
    Positions already set on the input epochs are not read.

    An epoch's final position is its own gateway's junction for a rising
    epoch that either is not the last epoch or peaked at full strength, or
    else the range boundary of the next epoch's gateway on the path from the
    node's last known position. Start positions chain from the predecessor's
    final position; the first epoch's start is known only when its first
    package was heard at full strength, right under a gateway.
    """
    epochs = epoch_set.epochs
    resolved: list[Epoch] = []
    for idx, epoch in enumerate(epochs):
        start = resolved[-1].final_pos if resolved else _under_gateway(graph, epoch.packages[0])

        final = None
        if epoch.kind == EpochKind.RISING and epoch.anchor in graph.gateways:
            if idx < len(epochs) - 1:
                final = graph.position_at(graph.gateways[epoch.anchor].junction)
            else:
                final = _under_gateway(graph, epoch.packages[-1])
        if final is None and idx < len(epochs) - 1:
            nxt = epochs[idx + 1]
            if nxt.anchor in graph.gateways:
                origin = start
                if origin is None:
                    junction = anchor_junction(graph, reversed(epochs[: idx + 1]))
                    if junction is not None:
                        origin = graph.position_at(junction)
                if origin is not None:
                    final = _boundary_before(graph, origin, nxt.anchor)
        resolved.append(replace(epoch, start_pos=start, final_pos=final))
    return EpochSet(epoch_set.node, tuple(resolved))


def anchor_junction(graph: EnvironmentGraph, epochs: Iterable[Epoch]) -> Optional[str]:
    """Junction of the first of `epochs` anchored at a gateway of the graph."""
    for epoch in epochs:
        if epoch.anchor in graph.gateways:
            return graph.gateways[epoch.anchor].junction
    return None


def is_complete(epoch: Epoch) -> bool:
    return epoch.start_pos is not None and epoch.final_pos is not None


def epoch_set_to_json(epoch_set: EpochSet) -> dict:
    """Debug dump: kinds, seq ranges and boundary positions per epoch."""
    return {
        "node": epoch_set.node,
        "epochs": [
            {
                "type": e.kind.value,
                "anchor": e.anchor,
                "seq_first": e.packages[0].seq,
                "seq_last": e.packages[-1].seq,
                "start": e.start_pos.to_json() if e.start_pos else None,
                "final": e.final_pos.to_json() if e.final_pos else None,
            }
            for e in epoch_set.epochs
        ],
    }
