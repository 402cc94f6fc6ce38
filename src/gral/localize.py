"""Position assignment for package streams: baseline and graph-based variants.

The baseline linearly interpolates between gateway junctions using first- and
last-contact timestamps. The graph-based localizer interpolates each complete
epoch between its resolved boundary positions along the shortest route, and
optionally refines estimates with peer encounters: checkpoints split a peer's
epoch at the meeting with the first arriver's estimate, and path rectification
pushes encounter estimates downstream to at least the confluence junction of
the two nodes' paths.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import groupby, takewhile
from typing import Optional

from .epochs import (
    Epoch,
    EpochKind,
    EpochSet,
    anchor_junction,
    anchor_of,
    classify,
    integrate_stream,
    is_complete,
    merge_same_gateway,
    resolve_positions,
)
from .graph import EnvironmentGraph, GraphPosition, POSITION_TOL
from .packages import VARIANTS, Checkpoint, LocalizedMeasurement, Package, strongest

log = logging.getLogger(__name__)


@dataclass
class BackendState:
    """Backend-side view: the map plus everything learned from received data."""

    graph: EnvironmentGraph
    epoch_sets: dict[str, EpochSet] = field(default_factory=dict)
    checkpoints: list[Checkpoint] = field(default_factory=list)


def build_state(
    graph: EnvironmentGraph,
    streams: dict[str, list[Package]],
    initial_positions: Optional[dict[str, GraphPosition]] = None,
) -> BackendState:
    """Segment every node's stream into merged epochs and resolve their bounds.

    Boundaries follow from the map and the gateway geometry alone, so they are
    fixed here once; the encounter refinements only split resolved epochs.
    """
    initial_positions = initial_positions or {}
    state = BackendState(graph)
    for node, packages in streams.items():
        segmented = merge_same_gateway(integrate_stream(node, packages))
        state.epoch_sets[node] = resolve_positions(segmented, graph, initial_positions.get(node))
    return state


def interpolate_epoch(
    graph: EnvironmentGraph, epoch: Epoch, method: str = "gral"
) -> list[LocalizedMeasurement]:
    """Place every package of a complete epoch on the route between its bounds.

    The first package maps to the start position, the last to the final
    position, and everything between moves linearly in time along the route.
    """
    if not is_complete(epoch):
        raise ValueError("cannot interpolate an incomplete epoch")
    assert epoch.start_pos is not None and epoch.final_pos is not None
    route = graph.route(epoch.start_pos, epoch.final_pos)
    t0, t1 = epoch.t_first, epoch.t_last
    out = []
    degenerate = t1 <= t0
    if degenerate and route.total > POSITION_TOL:
        # Routine for one-package epochs (e.g. a single reading right under a
        # gateway); stated positions win over the unobservable approach.
        level = logging.DEBUG if len(epoch.packages) == 1 else logging.WARNING
        log.log(
            level,
            "epoch of node %s spans zero time but distinct positions; pinning at final",
            epoch.packages[0].node,
        )
    for pkg in epoch.packages:
        if degenerate:
            pos = epoch.final_pos
        else:
            pos = route.point_at_fraction((pkg.t - t0) / (t1 - t0))
        out.append(LocalizedMeasurement(pkg.node, pkg.seq, pkg.t, pos, method))
    return out


def baseline_localize(
    graph: EnvironmentGraph, packages: list[Package], method: str = "baseline"
) -> list[LocalizedMeasurement]:
    """Linear interpolation between gateway junctions at contact times.

    First and last contact with each gateway pin the node to that gateway's
    junction; packages between consecutive anchors interpolate along the
    shortest path between the junctions, and packages outside the anchored
    window pin to the nearest anchor.
    """
    anchors: list[tuple[int, GraphPosition]] = []
    i = 0  # index of the run's first package
    # Runs of consecutive packages with the same strongest gateway (None: silent).
    for gateway, run in groupby(packages, key=lambda p: getattr(strongest(p), "gateway", None)):
        n = len(list(run))
        if gateway in graph.gateways:
            junction_pos = graph.position_at(graph.gateways[gateway].junction)
            anchors.append((i, junction_pos))
            if n > 1:
                anchors.append((i + n - 1, junction_pos))
        i += n
    if not anchors:
        log.info("baseline: no gateway contact in stream; nothing localizable")
        return []
    out = []
    # Walk the anchor pairs in step with the packages. A package on the index
    # two pairs share belongs to the earlier pair, so each pair owns (i0, i1].
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
            if route is None:
                route = graph.route(p0, p1)
            t0, t1 = packages[i0].t, packages[i1].t
            fraction = 0.0 if t1 <= t0 else (pkg.t - t0) / (t1 - t0)
            pos = route.point_at_fraction(fraction)
        out.append(LocalizedMeasurement(pkg.node, pkg.seq, pkg.t, pos, method))
    return out


def localize_node(
    state: BackendState, node: str, method: str = "gral"
) -> list[LocalizedMeasurement]:
    """Interpolate every complete epoch of the node's resolved epoch set.

    Incomplete epochs (typically a trailing stretch still waiting for an
    anchor) yield no output yet.
    """
    out: list[LocalizedMeasurement] = []
    for epoch in state.epoch_sets[node].epochs:
        if is_complete(epoch):
            out.extend(interpolate_epoch(state.graph, epoch, method))
    return out


def issue_checkpoints(
    state: BackendState, node: str, localized: list[LocalizedMeasurement]
) -> list[Checkpoint]:
    """Create one checkpoint per (epoch, contacted peer) at the strongest contact.

    The checkpoint carries the issuer's localized position at that package's
    timestamp; packages that could not be localized issue nothing.
    """
    by_seq = {m.seq: m for m in localized}
    issued = []
    for epoch in state.epoch_sets[node].epochs:
        best: dict[str, tuple[float, Package]] = {}
        for pkg in epoch.packages:
            for contact in pkg.contacts:
                cur = best.get(contact.peer)
                if cur is None or contact.strength > cur[0]:
                    best[contact.peer] = (contact.strength, pkg)
        for peer in sorted(best):
            _, pkg = best[peer]
            measurement = by_seq.get(pkg.seq)
            if measurement is None:
                continue
            issued.append(Checkpoint(node, peer, pkg.t, measurement.position))
    state.checkpoints.extend(issued)
    return issued


def _split_epoch(epoch: Epoch, index: int, boundary: GraphPosition) -> list[Epoch]:
    parts = [
        (epoch.packages[:index], epoch.start_pos, boundary),
        (epoch.packages[index:], boundary, epoch.final_pos),
    ]
    return [
        Epoch(classify(pkgs) or EpochKind.MIXED, pkgs, anchor_of(pkgs), start, final)
        for pkgs, start, final in parts
    ]


def apply_checkpoints(state: BackendState, node: str) -> EpochSet:
    """Split the node's epochs at checkpoints received from earlier arrivers.

    A checkpoint splits its containing epoch at the first package strictly
    later than the checkpoint; both fragments adopt the checkpoint position as
    their shared boundary. Checkpoints outside any complete epoch, beyond its
    last package, or off the epoch's interpolation path are discarded. The
    split set replaces the node's entry in `state.epoch_sets`.
    """
    epochs = list(state.epoch_sets[node].epochs)
    pending = sorted(
        (c for c in state.checkpoints if c.target == node), key=lambda c: (c.t, c.issuer)
    )
    for ck in pending:
        for idx, epoch in enumerate(epochs):
            if not (epoch.t_first <= ck.t <= epoch.t_last):
                continue
            if not is_complete(epoch):
                log.info("checkpoint %s->%s at t=%s in incomplete epoch; discarded",
                         ck.issuer, ck.target, ck.t)
                break
            assert epoch.start_pos is not None and epoch.final_pos is not None
            route = state.graph.route(epoch.start_pos, epoch.final_pos)
            if not route.contains(ck.position, tol=1e-6):
                log.info("checkpoint %s->%s at t=%s off the epoch path; discarded",
                         ck.issuer, ck.target, ck.t)
                break
            split_at = next(
                (i for i, p in enumerate(epoch.packages) if p.t > ck.t), None
            )
            if split_at is None or split_at == 0:
                log.info("checkpoint %s->%s at t=%s leaves an empty fragment; discarded",
                         ck.issuer, ck.target, ck.t)
                break
            epochs[idx : idx + 1] = _split_epoch(epoch, split_at, ck.position)
            break
        else:
            log.info("checkpoint %s->%s at t=%s outside all epochs; discarded",
                     ck.issuer, ck.target, ck.t)
    state.epoch_sets[node] = EpochSet(node, tuple(epochs))
    return state.epoch_sets[node]


def _provenance_before(
    state: BackendState, node: str, t: float
) -> Optional[str]:
    """Junction of the node's most recent anchor gateway no later than t."""
    epoch_set = state.epoch_sets.get(node)
    if epoch_set is None:
        return None
    begun = list(takewhile(lambda e: e.t_first <= t, epoch_set.epochs))
    return anchor_junction(state.graph, reversed(begun))


def rectify_paths(
    state: BackendState, node: str, localized: list[LocalizedMeasurement], method: str = "gral+pr"
) -> list[LocalizedMeasurement]:
    """Move impossible encounter estimates downstream to the confluence vertex.

    Two nodes heading for a common destination can only have met at or after
    the junction where their paths merge. For every contact whose estimate
    falls upstream of that confluence, the containing epoch splits at the
    earliest such package with the confluence junction as the boundary; the
    split set replaces the node's entry in `state.epoch_sets` and is
    interpolated again. Detection runs on the normal estimates; splits never
    move a package past the confluence, so the correction cannot overshoot.
    """
    graph = state.graph
    by_seq = {m.seq: m for m in localized}
    epoch_set = state.epoch_sets[node]
    splits: list[tuple[int, GraphPosition]] = []  # (seq of earliest flagged pkg, boundary)
    for idx, epoch in enumerate(epoch_set.epochs):
        if not is_complete(epoch):
            continue
        v_f = anchor_junction(graph, epoch_set.epochs[idx + 1 :])
        if v_f is None:
            continue
        v_f_pos = graph.position_at(v_f)
        v_a = _provenance_before(state, node, epoch.t_first)
        if v_a is None:
            log.info("rectification skipped for %s: own provenance unknown", node)
            continue
        peers = sorted({c.peer for p in epoch.packages for c in p.contacts})
        for peer in peers:
            contact_pkgs = [p for p in epoch.packages if any(c.peer == peer for c in p.contacts)]
            # The peer's origin before the encounter; a gateway it reaches
            # after the meeting must not move the confluence downstream.
            v_b = _provenance_before(state, peer, contact_pkgs[0].t)
            if v_b is None:
                log.info("rectification skipped for peer %s of %s: provenance unknown",
                         peer, node)
                continue
            v_c = graph.confluence_vertex(v_a, v_b, v_f)
            v_c_pos = graph.position_at(v_c)
            limit = graph.geodesic_distance(v_c_pos, v_f_pos)
            for pkg in contact_pkgs:
                est = by_seq.get(pkg.seq)
                if est is None:
                    continue
                if graph.geodesic_distance(est.position, v_f_pos) > limit + POSITION_TOL:
                    splits.append((pkg.seq, v_c_pos))
                    break
    # Detection ran on the normal estimates; apply splits in stream order,
    # locating each flagged package in whatever fragment now contains it.
    splits.sort(key=lambda s: s[0])
    epochs = list(epoch_set.epochs)
    for seq, v_c_pos in splits:
        for idx, epoch in enumerate(epochs):
            pkg_idx = next((i for i, p in enumerate(epoch.packages) if p.seq == seq), None)
            if pkg_idx is None:
                continue
            if pkg_idx > 0:
                epochs[idx : idx + 1] = _split_epoch(epoch, pkg_idx, v_c_pos)
            break
    if len(epochs) == len(epoch_set.epochs):
        return localized
    state.epoch_sets[node] = EpochSet(node, tuple(epochs))
    return localize_node(state, node, method)


def run_pipeline(
    state: BackendState, streams: dict[str, list[Package]], variant: str
) -> dict[str, list[LocalizedMeasurement]]:
    """Localize every node with the requested variant.

    Graph-based variants process nodes in gateway-arrival order (first package
    timestamp, then node id) so that checkpoints issued by early arrivers are
    available to later ones.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "baseline":
        return {
            node: baseline_localize(state.graph, packages)
            for node, packages in streams.items()
        }
    use_cp = "cp" in variant.split("+")
    use_pr = "pr" in variant.split("+")
    order = sorted(streams, key=lambda n: (streams[n][0].t if streams[n] else float("inf"), n))
    results: dict[str, list[LocalizedMeasurement]] = {}
    for node in order:
        if not streams[node]:
            results[node] = []
            continue
        if use_cp:
            apply_checkpoints(state, node)
        localized = localize_node(state, node, method=variant)
        if use_pr:
            localized = rectify_paths(state, node, localized, method=variant)
        if use_cp:
            issue_checkpoints(state, node, localized)
        results[node] = localized
    return results
