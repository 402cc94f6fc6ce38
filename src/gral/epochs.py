"""Epoch segmentation of package streams and boundary-position resolution.

Each node's stream is partitioned into epochs by the qualitative trend of its
strongest gateway signal: silent stretches, a rising signal while approaching
one gateway, or a falling signal while leaving it. Interpolation needs every
epoch bounded by known positions, so this module also derives those boundary
positions from gateway geometry and chains them across consecutive epochs.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .graph import EnvironmentGraph, GraphPosition, POSITION_TOL
from .packages import Package, strongest

log = logging.getLogger(__name__)


class EpochError(ValueError):
    pass


class EpochKind(enum.Enum):
    SILENT = "silent"      # no gateway heard in any package
    RISING = "rising"      # strongest signal strictly increasing, one gateway
    FALLING = "falling"    # strongest signal non-increasing, one gateway
    MIXED = "mixed"        # coalesced/merged run around one gateway

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


@dataclass
class Epoch:
    kind: EpochKind
    packages: list[Package]
    anchor: Optional[str] = None  # gateway id shared by the observing packages
    start_pos: Optional[GraphPosition] = None
    final_pos: Optional[GraphPosition] = None
    # Trend of `packages` as `integrate` last saw them; see `_trend_of`.
    _trend: Optional["_Trend"] = field(default=None, init=False, repr=False, compare=False)

    @property
    def t_first(self) -> float:
        return self.packages[0].t

    @property
    def t_last(self) -> float:
        return self.packages[-1].t


@dataclass
class EpochSet:
    node: str
    epochs: list[Epoch] = field(default_factory=list)

    def all_packages(self) -> list[Package]:
        return [p for e in self.epochs for p in e.packages]


def classify(packages: list[Package]) -> Optional[EpochKind]:
    """Trend classification of an ordered package run.

    Silent when nothing was heard anywhere; rising/falling when every package
    hears the same strongest gateway with strictly-increasing respectively
    non-increasing strength. A lone observing package is vacuously both and is
    labelled rising until a second package disambiguates (arrival precedes
    departure). Anything else does not form a valid epoch.
    """
    if not packages:
        raise EpochError("cannot classify an empty package run")
    tops = [strongest(p) for p in packages]
    if all(t is None for t in tops):
        return EpochKind.SILENT
    if any(t is None for t in tops):
        return None
    if len({t.gateway for t in tops}) != 1:
        return None
    strengths = [t.strength for t in tops]
    if len(strengths) == 1:
        return EpochKind.RISING
    if all(b > a for a, b in zip(strengths, strengths[1:])):
        return EpochKind.RISING
    if all(b <= a for a, b in zip(strengths, strengths[1:])):
        return EpochKind.FALLING
    return None


def anchor_of(packages: list[Package]) -> Optional[str]:
    """Strongest gateway of the first observing package; None for silence."""
    for p in packages:
        top = strongest(p)
        if top is not None:
            return top.gateway
    return None


class _Trend(NamedTuple):
    """`classify` of a package run, extended by one package in O(1).

    Every flag only ever turns one way, so if a trend describes `packages`,
    `trend.add(p).kind` equals `classify(packages + [p])`.
    """

    count: int = 0
    silent: bool = False  # some package heard nothing
    multi: bool = False  # a second strongest gateway was heard
    rising: bool = True  # strengths strictly increasing
    falling: bool = True  # strengths non-increasing
    gateway: Optional[str] = None  # first strongest gateway heard
    last: float = 0.0  # last strength heard

    def add(self, package: Package) -> "_Trend":
        top = strongest(package)
        count = self.count + 1
        if top is None:
            return _Trend(count, True, self.multi, self.rising, self.falling, self.gateway, self.last)
        if self.gateway is None:
            return _Trend(count, self.silent, False, True, True, top.gateway, top.strength)
        return _Trend(
            count,
            self.silent,
            self.multi or top.gateway != self.gateway,
            self.rising and top.strength > self.last,
            self.falling and top.strength <= self.last,
            self.gateway,
            top.strength,
        )

    @property
    def kind(self) -> Optional[EpochKind]:
        if self.gateway is None:
            return EpochKind.SILENT
        if self.silent or self.multi:
            return None
        return EpochKind.RISING if self.rising else EpochKind.FALLING if self.falling else None


def _trend_of(epoch: Epoch) -> _Trend:
    # The trend `integrate` cached on the epoch; rebuilt when a caller has
    # changed its package count since. A new Epoch object starts without one.
    trend = epoch._trend
    if trend is None or trend.count != len(epoch.packages):
        trend = _Trend()
        for p in epoch.packages:
            trend = trend.add(p)
        epoch._trend = trend
    return trend


def _epoch_with(trend: _Trend, packages: list[Package]) -> Epoch:
    epoch = Epoch(trend.kind or EpochKind.MIXED, packages, anchor=trend.gateway)
    epoch._trend = trend
    return epoch


def integrate(epoch_set: EpochSet, package: Package) -> EpochSet:
    """Fold one package into a node's epoch set.

    The package extends the last epoch when the combined run still classifies;
    otherwise, if the most recent observing epoch is followed only by silence
    and started at the same gateway the package now hears, that whole stretch
    coalesces with the package into a single epoch (the node lingered at one
    gateway's range boundary). Failing both, a fresh epoch is opened.

    Each epoch caches its trend, so a package costs O(1) plus, when it
    coalesces, the packages it brings into the observing epoch.
    """
    epochs = epoch_set.epochs
    if not epochs:
        epochs.append(_epoch_with(_Trend().add(package), [package]))
        return epoch_set
    last = epochs[-1]
    if package.t < last.t_last:
        raise EpochError(
            f"out-of-order package for node {epoch_set.node!r}: t={package.t} after {last.t_last}"
        )
    grown = _trend_of(last).add(package)
    if grown.kind is not None:
        last.packages.append(package)
        last.kind, last.anchor, last._trend = grown.kind, grown.gateway, grown
        return epoch_set

    top = strongest(package)
    if top is not None:
        candidate = None
        for i in range(len(epochs) - 1, -1, -1):
            if epochs[i].kind != EpochKind.SILENT:
                candidate = i
                break
        # Coalesce only when the gateway actually went away and came back:
        # the observing epoch must be followed by at least one silent epoch.
        if candidate is not None and candidate < len(epochs) - 1:
            head = epochs[candidate]
            first_top = strongest(head.packages[0])
            if first_top is not None and first_top.gateway == top.gateway:
                tail = [p for e in epochs[candidate + 1 :] for p in e.packages]
                tail.append(package)
                trend = _trend_of(head)
                for p in tail:
                    trend = trend.add(p)
                head.packages.extend(tail)
                epochs[candidate:] = [_epoch_with(trend, head.packages)]
                return epoch_set

    fresh = _epoch_with(_Trend().add(package), [package])
    if top is not None and last.anchor == top.gateway:
        prev_top = strongest(last.packages[-1])
        if prev_top is not None and prev_top.strength >= top.strength:
            # Dropping below the peak at the same gateway: departure begins.
            fresh.kind = EpochKind.FALLING
    epochs.append(fresh)
    return epoch_set


def integrate_stream(node: str, packages: list[Package]) -> EpochSet:
    epoch_set = EpochSet(node)
    for package in packages:
        integrate(epoch_set, package)
    return epoch_set


def merge_same_gateway(epoch_set: EpochSet) -> EpochSet:
    """Collapse each gateway's contiguous stretch of epochs into one.

    A stretch starts at the first epoch anchored at a gateway and runs while
    no other gateway is seen, absorbing rise/fall jitter at that gateway and
    the silent epochs that follow it, up to (not including) the next epoch
    anchored elsewhere. Trailing silence at the very end of the stream stays
    separate: nothing downstream bounds it yet. It runs on segmentation that
    is not yet resolved, so merged epochs carry no boundary positions.
    """
    epochs = epoch_set.epochs
    merged: list[Epoch] = []
    i = 0
    while i < len(epochs):
        e = epochs[i]
        if e.anchor is None:
            merged.append(e)
            i += 1
            continue
        gateway = e.anchor
        j = i + 1
        last_anchored = i
        while j < len(epochs) and epochs[j].anchor in (None, gateway):
            if epochs[j].anchor == gateway:
                last_anchored = j
            j += 1
        end = j if j < len(epochs) else last_anchored + 1
        run = epochs[i:end]
        if len(run) == 1:
            merged.append(e)
        else:
            packages = [p for part in run for p in part.packages]
            merged.append(Epoch(classify(packages) or EpochKind.MIXED, packages, anchor=gateway))
        i = end
    return EpochSet(epoch_set.node, merged)


def _initial_start(graph: EnvironmentGraph, epoch: Epoch) -> Optional[GraphPosition]:
    # Without an explicit insertion registry the only certain initial fix is a
    # first package heard at full strength: the node sits under that gateway.
    top = strongest(epoch.packages[0])
    if top is None:
        return None
    gateway = graph.gateways.get(top.gateway)
    if gateway is None:
        return None
    if top.strength >= gateway.radius - POSITION_TOL:
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


def resolve_positions(
    epoch_set: EpochSet,
    graph: EnvironmentGraph,
    initial_position: Optional[GraphPosition] = None,
) -> EpochSet:
    """Fill in epoch boundary positions where the completion rules allow.

    Returns a new set of new epochs; `epoch_set` and its epochs are left as
    they were, so one segmentation can be resolved for several variants.

    An epoch's final position comes from (in order): a pre-set value
    (checkpoints, rectification), its own gateway's junction for a rising
    epoch that either is not the last epoch or peaked at full strength, or
    the range boundary of the next epoch's gateway on the path from the
    node's last known position. Start positions chain from the predecessor's
    final position; the first epoch may take a pre-set insertion point or a
    full-strength first package as its fix.
    """
    epochs = epoch_set.epochs
    resolved: list[Epoch] = []
    for idx, epoch in enumerate(epochs):
        start, final = epoch.start_pos, epoch.final_pos
        if start is None:
            if idx == 0:
                start = initial_position or _initial_start(graph, epoch)
            else:
                start = resolved[-1].final_pos

        if final is None:
            if epoch.kind == EpochKind.RISING and epoch.anchor in graph.gateways:
                gateway = graph.gateways[epoch.anchor]
                if idx < len(epochs) - 1:
                    final = graph.position_at(gateway.junction)
                else:
                    # Full strength, heard right under the gateway, is its radius.
                    top = strongest(epoch.packages[-1])
                    if top is not None and top.strength >= gateway.radius - POSITION_TOL:
                        final = graph.position_at(gateway.junction)
            if final is None and idx < len(epochs) - 1:
                nxt = epochs[idx + 1]
                if nxt.anchor is not None and nxt.anchor in graph.gateways:
                    origin = start
                    if origin is None:
                        junction = anchor_junction(graph, reversed(epochs[: idx + 1]))
                        if junction is not None:
                            origin = graph.position_at(junction)
                    if origin is not None:
                        final = _boundary_before(graph, origin, nxt.anchor)
        resolved.append(Epoch(epoch.kind, epoch.packages, epoch.anchor, start, final))
    return EpochSet(epoch_set.node, resolved)


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
