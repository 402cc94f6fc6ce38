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
from dataclasses import dataclass, field, replace
from itertools import groupby, pairwise, takewhile
from operator import itemgetter
from typing import Optional

from .epochs import (
    Epoch,
    EpochSet,
    anchor_junction,
    anchor_of,
    integrate_stream,
    is_complete,
    merge_same_gateway,
    resolve_positions,
)
from .graph import EnvironmentGraph, GraphPosition, POSITION_TOL
from .packages import VARIANTS, Checkpoint, LocalizedMeasurement, Package

log = logging.getLogger(__name__)


@dataclass
class BackendState:
    """Backend-side view: the map plus everything learned from received data.

    `placements` memoizes `localize_node`: it maps every epoch placed through
    this state to its first placement. States that start from one
    segmentation may share one map, as `run_experiment`'s variants do; an
    epoch then is routed and placed once.
    """

    graph: EnvironmentGraph
    epoch_sets: dict[str, EpochSet] = field(default_factory=dict)
    checkpoints: list[Checkpoint] = field(default_factory=list)
    placements: dict[Epoch, list[LocalizedMeasurement]] = field(default_factory=dict)


def build_state(
    graph: EnvironmentGraph,
    streams: dict[str, list[Package]],
    initial_positions: Optional[dict[str, GraphPosition]] = None,
) -> BackendState:
    """Segment every node's stream into merged epochs and resolve their bounds.

    Each node's unsplit epochs are resolved here, once, from the map, the
    gateway geometry and the node's entry in `initial_positions`, if any. The
    encounter refinements split resolved epochs and never resolve again.
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
    Measurements are built by `tuple.__new__`, without a call per package.
    """
    if not is_complete(epoch):
        raise ValueError("cannot interpolate an incomplete epoch")
    assert epoch.start_pos is not None and epoch.final_pos is not None
    route = graph.route(epoch.start_pos, epoch.final_pos)
    t0, t1 = epoch.t_first, epoch.t_last
    packages = epoch.packages
    if t1 <= t0:
        if route.total > POSITION_TOL:
            # Routine for one-package epochs (e.g. a single reading right
            # under a gateway); stated positions win over the unobservable
            # approach.
            level = logging.DEBUG if len(packages) == 1 else logging.WARNING
            log.log(
                level,
                "epoch of node %s spans zero time but distinct positions; pinning at final",
                packages[0].node,
            )
        positions = [epoch.final_pos] * len(packages)
    else:
        total, dt = route.total, t1 - t0
        positions = route.points_at([(pkg.t - t0) / dt * total for pkg in packages])
    new = tuple.__new__
    return [
        new(LocalizedMeasurement, (pkg.node, pkg.seq, pkg.t, pos, method))
        for pkg, pos in zip(packages, positions)
    ]


def baseline_localize(
    graph: EnvironmentGraph, packages: list[Package]
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
    # Observations are kept strongest-first, so the first one is the strongest.
    runs = groupby(packages, key=lambda p: p.observations[0].gateway if p.observations else None)
    for gateway, run in runs:
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
    # A pair of consecutive anchors owns the packages on the indices (i0, i1]
    # strictly inside the anchored window and places them along one route.
    first, last = anchors[0][0], anchors[-1][0]
    positions = [anchors[0][1]] * (first + 1)
    for (i0, p0), (i1, p1) in pairwise(anchors):
        owned = packages[i0 + 1 : min(i1 + 1, last)]
        if not owned:
            continue
        route = graph.route(p0, p1)
        t0, t1 = packages[i0].t, packages[i1].t
        if t1 <= t0:
            positions += route.points_at([0.0] * len(owned))
        else:
            total, dt = route.total, t1 - t0
            positions += route.points_at([(pkg.t - t0) / dt * total for pkg in owned])
    positions += [anchors[-1][1]] * (len(packages) - len(positions))
    new = tuple.__new__
    return [
        new(LocalizedMeasurement, (pkg.node, pkg.seq, pkg.t, pos, "baseline"))
        for pkg, pos in zip(packages, positions)
    ]


def localize_node(
    state: BackendState, node: str, method: str = "gral"
) -> list[LocalizedMeasurement]:
    """Interpolate every complete epoch of the node's resolved epoch set.

    Incomplete epochs (typically a trailing stretch still waiting for an
    anchor) yield no output yet. A complete epoch is placed once and
    remembered in `state.placements`; an epoch found there, placed by an
    earlier call or by another state sharing the map, is only re-tagged with
    `method`.
    """
    out: list[LocalizedMeasurement] = []
    placements = state.placements
    new = tuple.__new__
    for epoch in state.epoch_sets[node].epochs:
        if not is_complete(epoch):
            continue
        placed = placements.get(epoch)
        if placed is None:
            placed = placements[epoch] = interpolate_epoch(state.graph, epoch, method)
            out += placed
        else:
            out += [
                new(LocalizedMeasurement, (n, seq, t, pos, method))
                for n, seq, t, pos, _ in placed
            ]
    return out


def _meetings(epoch: Epoch) -> dict[str, list[tuple[int, float]]]:
    """Per contacted peer, the `(package index, strength)` of each contact with
    it, in package order; only packages that heard a peer are read."""
    meetings: dict[str, list[tuple[int, float]]] = {}
    for i, pkg in enumerate(epoch.packages):
        if pkg.contacts:
            for peer, strength in pkg.contacts:
                meetings.setdefault(peer, []).append((i, strength))
    return meetings


def issue_checkpoints(
    state: BackendState, node: str, localized: list[LocalizedMeasurement]
) -> list[Checkpoint]:
    """Create one checkpoint per (epoch, contacted peer) at the strongest contact.

    The checkpoint carries the issuer's localized position at that package's
    timestamp; packages that could not be localized issue nothing. Of equally
    strong contacts with one peer, the first in `_meetings` order wins. The
    issued checkpoints are appended to `state.checkpoints` and returned.
    """
    by_seq = {m.seq: m for m in localized}
    issued = []
    for epoch in state.epoch_sets[node].epochs:
        meetings = _meetings(epoch)
        for peer in sorted(meetings):
            i, _ = max(meetings[peer], key=itemgetter(1))
            pkg = epoch.packages[i]
            measurement = by_seq.get(pkg.seq)
            if measurement is None:
                continue
            issued.append(Checkpoint(node, peer, pkg.t, measurement.position))
    state.checkpoints.extend(issued)
    return issued


def _split_epoch(epoch: Epoch, cuts: dict[int, GraphPosition]) -> list[Epoch]:
    # Cut before each package index in `cuts`, at that cut's boundary. The
    # fragments keep the kind of the visit they were cut from.
    bounds = [(0, epoch.start_pos), *sorted(cuts.items()), (len(epoch.packages), epoch.final_pos)]
    parts = [(epoch.packages[i:j], start, final) for (i, start), (j, final) in pairwise(bounds)]
    return [
        replace(epoch, packages=pkgs, anchor=anchor_of(pkgs), start_pos=start, final_pos=final)
        for pkgs, start, final in parts
    ]


def apply_checkpoints(state: BackendState, node: str) -> EpochSet:
    """Split the node's epochs at checkpoints received from earlier arrivers.

    A checkpoint splits its containing epoch at the first package strictly
    later than the checkpoint; both fragments adopt the checkpoint position as
    their shared boundary. Checkpoints outside any complete epoch, beyond its
    last package, or off the epoch's interpolation path are discarded. The
    split set replaces the node's entry in `state.epoch_sets`. The path test
    is `EnvironmentGraph.on_path` between the epoch's bounds; no route is built.
    """
    graph = state.graph
    epochs = list(state.epoch_sets[node].epochs)
    pending = sorted(
        (c for c in state.checkpoints if c.target == node), key=lambda c: (c.t, c.issuer)
    )
    for ck in pending:
        idx = next((i for i, e in enumerate(epochs) if e.t_first <= ck.t <= e.t_last), None)
        split_at = None
        if idx is None:
            reason = "outside all epochs"
        elif not is_complete(epoch := epochs[idx]):
            reason = "in incomplete epoch"
        elif not graph.on_path(epoch.start_pos, ck.position, epoch.final_pos, tol=1e-6):
            reason = "off the epoch path"
        else:
            reason = "leaves an empty fragment"
            split_at = next((i for i, p in enumerate(epoch.packages) if p.t > ck.t), None)
        if split_at is None:
            log.info("checkpoint %s->%s at t=%s %s; discarded", ck.issuer, ck.target, ck.t, reason)
            continue
        epochs[idx : idx + 1] = _split_epoch(epoch, {split_at: ck.position})
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


def _confluence_cuts(
    state: BackendState, node: str, idx: int, placed: dict[int, GraphPosition]
) -> dict[int, GraphPosition]:
    """Package index -> confluence boundary for each contact placed upstream of it.

    Per peer, only the epoch's earliest flagged contact cuts; when two peers
    flag the same package, the first peer's confluence wins. An epoch that
    heard no peer returns before any anchor or provenance lookup.
    """
    graph = state.graph
    epochs = state.epoch_sets[node].epochs
    epoch = epochs[idx]
    cuts: dict[int, GraphPosition] = {}
    if not is_complete(epoch) or not (meetings := _meetings(epoch)):
        return cuts
    v_f = anchor_junction(graph, epochs[idx + 1 :])
    if v_f is None:
        return cuts
    v_f_pos = graph.position_at(v_f)
    v_a = _provenance_before(state, node, epoch.t_first)
    if v_a is None:
        log.info("rectification skipped for %s: own provenance unknown", node)
        return cuts
    for peer in sorted(meetings):
        met = meetings[peer]
        # The peer's origin before the encounter; a gateway it reaches
        # after the meeting must not move the confluence downstream.
        v_b = _provenance_before(state, peer, epoch.packages[met[0][0]].t)
        if v_b is None:
            log.info("rectification skipped for peer %s of %s: provenance unknown", peer, node)
            continue
        v_c_pos = graph.position_at(graph.confluence_vertex(v_a, v_b, v_f))
        limit = graph.geodesic_distance(v_c_pos, v_f_pos)
        for i, _ in met:
            pos = placed.get(epoch.packages[i].seq)
            if pos is not None and graph.geodesic_distance(pos, v_f_pos) > limit + POSITION_TOL:
                if i > 0:  # nothing before an epoch's first package to cut off
                    cuts.setdefault(i, v_c_pos)
                break
    return cuts


def rectify_paths(
    state: BackendState, node: str, localized: list[LocalizedMeasurement], method: str = "gral+pr"
) -> list[LocalizedMeasurement]:
    """Move impossible encounter estimates downstream to the confluence vertex.

    Two nodes heading for a common destination can only have met at or after
    the junction where their paths merge. For every contact whose estimate
    falls upstream of that confluence, the containing epoch splits at the
    earliest such package with the confluence junction as the boundary; the
    split set replaces the node's entry in `state.epoch_sets` and is placed by
    `localize_node`, so its fragments enter `state.placements` and its unsplit
    epochs are re-tagged from there. Detection runs on the given estimates;
    splits never move a package past the confluence, so they cannot overshoot.
    When nothing is cut, the epoch set stays and `localized` is returned as is.
    """
    placed = {m.seq: m.position for m in localized}
    unsplit = state.epoch_sets[node].epochs
    epochs: list[Epoch] = []
    for idx, epoch in enumerate(unsplit):
        cuts = _confluence_cuts(state, node, idx, placed)
        epochs.extend(_split_epoch(epoch, cuts) if cuts else (epoch,))
    if len(epochs) == len(unsplit):  # every cut adds a fragment
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
