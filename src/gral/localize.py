"""Position assignment for package streams: baseline and graph-based variants.

Every variant interpolates each complete epoch between its boundary positions
along the shortest route. The graph-based localizer's epochs are gateway
visits with resolved bounds, optionally refined with peer encounters:
checkpoints split a peer's epoch at the meeting with the first arriver's
estimate, and path rectification pushes encounter estimates downstream to at
least the confluence junction of the two nodes' paths. The baseline's epochs
run between gateway junctions at first- and last-contact timestamps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import groupby, pairwise, takewhile
from operator import itemgetter
from typing import Optional

from .epochs import (
    Epoch,
    EpochKind,
    EpochSet,
    anchor_junction,
    anchor_of,
    integrate_stream,
    is_complete,
    merge_same_gateway,
    resolve_positions,
)
from .graph import EnvironmentGraph, GraphPosition, POSITION_TOL
from .packages import (
    VARIANTS,
    Checkpoint,
    LocalizedMeasurement,
    Package,
    _gc_paused,
    strongest_gateways,
)

log = logging.getLogger(__name__)


@dataclass
class BackendState:
    """Backend-side view: the map plus everything learned from received data.

    `placements` maps every complete epoch placed through this state, the
    baseline's epochs included, to its packages' positions, which carry no
    variant tag; every reader goes through `_positions`, which places a
    complete epoch on its first read. `meetings` maps each epoch a
    refinement read to its contact index (see `_meetings`).
    `fragments` memoizes `_split_epoch`: it maps an unsplit epoch and a
    package range of it to the fragments cut there, one per pair of bounds,
    bit for bit; `origins` maps each fragment to its unsplit epoch and the
    index of its first package there. States that start from one
    segmentation may share these four maps, as `run_experiment`'s variants
    do; an epoch or fragment that several variants hold then is cut, routed,
    placed and indexed once. Only `run_pipeline` adds checkpoints.
    """

    graph: EnvironmentGraph
    epoch_sets: dict[str, EpochSet] = field(default_factory=dict)
    checkpoints: list[Checkpoint] = field(default_factory=list)
    placements: dict[Epoch, list[GraphPosition]] = field(default_factory=dict)
    meetings: dict[Epoch, dict[str, list[tuple[int, float]]]] = field(default_factory=dict)
    fragments: dict[tuple[Epoch, int, int], list[Epoch]] = field(default_factory=dict)
    origins: dict[Epoch, tuple[Epoch, int]] = field(default_factory=dict)


@_gc_paused
def build_state(graph: EnvironmentGraph, streams: dict[str, list[Package]]) -> BackendState:
    """Segment every node's stream into merged epochs and resolve their bounds.

    Each node's unsplit epochs are resolved here, once, from the map and the
    gateway geometry alone. The encounter refinements split resolved epochs
    and never resolve again. It runs with the cyclic garbage collector
    paused; the pause is process-wide, so another thread's `gc.disable()`
    made during the call is undone when it returns.
    """
    state = BackendState(graph)
    for node, packages in streams.items():
        segmented = merge_same_gateway(integrate_stream(node, packages))
        state.epoch_sets[node] = resolve_positions(segmented, graph)
    return state


def interpolate_epoch(graph: EnvironmentGraph, epoch: Epoch) -> list[GraphPosition]:
    """Position of every package of a complete epoch, on the route between its bounds.

    The node is at the start position at `t_start` and at the final position
    at `t_final`, by default the first and last package's times, and moves
    linearly in time along the route in between. Bounds that span no time
    pin every package at the final position, and no route is built.
    """
    if not is_complete(epoch):
        raise ValueError("cannot interpolate an incomplete epoch")
    assert epoch.start_pos is not None and epoch.final_pos is not None
    packages = epoch.packages
    t0 = packages[0].t if epoch.t_start is None else epoch.t_start
    t1 = packages[-1].t if epoch.t_final is None else epoch.t_final
    if t1 <= t0:
        # The geodesic has the bits of the route's total.
        if graph.geodesic_distance(epoch.start_pos, epoch.final_pos) > POSITION_TOL:
            # Routine for one-package epochs (e.g. a single reading right
            # under a gateway); stated positions win over the unobservable
            # approach.
            level = logging.DEBUG if len(packages) == 1 else logging.WARNING
            log.log(
                level,
                "epoch of node %s spans zero time but distinct positions; pinning at final",
                packages[0].node,
            )
        return [epoch.final_pos] * len(packages)
    route = graph.route(epoch.start_pos, epoch.final_pos)
    total, dt = route.total, t1 - t0
    return route.points_at([(pkg.t - t0) / dt * total for pkg in packages])


def baseline_epochs(graph: EnvironmentGraph, packages: list[Package]) -> tuple[Epoch, ...]:
    """The baseline's epochs: linear interpolation between gateway junctions at contact times.

    First and last contact with each gateway anchor the node at that
    gateway's junction at that package's time. Each pair of consecutive
    anchors bounds an epoch of the packages on the indices (i0, i1] strictly
    inside the anchored window, if it owns any; the packages up to the first
    anchor and from the last one on are pinned there by epochs whose bounds
    span no time. The epochs tile the stream in seq order and are complete;
    a stream with no gateway contact has none. They are mixed: the baseline
    reads no trend.
    """
    packages = tuple(packages)
    anchors: list[tuple[int, GraphPosition]] = []
    i = 0  # index of the run's first package
    # Runs of consecutive packages with the same strongest gateway (None: silent).
    for gateway, run in groupby(strongest_gateways(packages)):
        n = len(list(run))
        if gateway in graph.gateways:
            junction_pos = graph.position_at(graph.gateways[gateway].junction)
            anchors.append((i, junction_pos))
            if n > 1:
                anchors.append((i + n - 1, junction_pos))
        i += n
    if not anchors:
        log.info("baseline: no gateway contact in stream; nothing localizable")
        return ()
    (first, p_first), (last, p_last) = anchors[0], anchors[-1]
    t = packages[first].t
    epochs = [Epoch(EpochKind.MIXED, packages[: first + 1], None, p_first, p_first, t, t)]
    for (i0, p0), (i1, p1) in pairwise(anchors):
        owned = packages[i0 + 1 : min(i1 + 1, last)]
        if owned:
            t0, t1 = packages[i0].t, packages[i1].t
            epochs.append(Epoch(EpochKind.MIXED, owned, None, p0, p1, t0, t1))
    # With one anchor, the leading epoch already holds its package.
    rest = packages[max(first + 1, last) :]
    if rest:
        t = packages[last].t
        epochs.append(Epoch(EpochKind.MIXED, rest, None, p_last, p_last, t, t))
    return tuple(epochs)


def baseline_localize(
    graph: EnvironmentGraph, packages: list[Package]
) -> list[LocalizedMeasurement]:
    """The baseline's estimates for one node's stream: `baseline_epochs`, placed."""
    node = packages[0].node if packages else ""
    state = BackendState(graph, {node: EpochSet(node, baseline_epochs(graph, packages))})
    return localize_node(state, node, "baseline")


def _positions(state: BackendState, epoch: Epoch) -> Optional[list[GraphPosition]]:
    # The epoch's package positions, placed on first read; None if incomplete.
    positions = state.placements.get(epoch)
    if positions is None and is_complete(epoch):
        positions = state.placements[epoch] = interpolate_epoch(state.graph, epoch)
    return positions


def localize_node(
    state: BackendState, node: str, method: str = "gral"
) -> list[LocalizedMeasurement]:
    """Estimates, tagged `method`, for every complete epoch of the node's epoch set.

    Incomplete epochs (typically a trailing stretch still waiting for an
    anchor) yield no output yet. Positions come from `_positions`, so a
    complete epoch is placed once per placement memo, by its first reader.
    """
    out: list[LocalizedMeasurement] = []
    new = tuple.__new__
    for epoch in state.epoch_sets[node].epochs:
        if (positions := _positions(state, epoch)) is None:
            continue
        out += [
            new(LocalizedMeasurement, (pkg.node, pkg.seq, pkg.t, pos, method))
            for pkg, pos in zip(epoch.packages, positions)
        ]
    return out


def _meetings(state: BackendState, epoch: Epoch) -> dict[str, list[tuple[int, float]]]:
    """Per contacted peer, the `(package index, strength)` of each contact with
    it, in package order; only packages that heard a peer are read. Built
    once per epoch and kept in `state.meetings`."""
    meetings = state.meetings.get(epoch)
    if meetings is None:
        meetings = state.meetings[epoch] = {}
        for i, pkg in enumerate(epoch.packages):
            if pkg.contacts:
                for peer, strength in pkg.contacts:
                    meetings.setdefault(peer, []).append((i, strength))
    return meetings


def issue_checkpoints(state: BackendState, node: str) -> list[Checkpoint]:
    """One checkpoint per (complete epoch, contacted peer), at the strongest contact.

    The checkpoint carries the issuer's position for that package, from
    `_positions`; incomplete epochs issue nothing. Each peer's strongest
    contact is read from the epoch's contact index (`_meetings`); of equally
    strong contacts with one peer, the first in package order wins. Peers
    come in sorted order. The checkpoints are returned and none is stored.
    """
    issued = []
    for epoch in state.epoch_sets[node].epochs:
        if not is_complete(epoch) or not (meetings := _meetings(state, epoch)):
            continue
        positions = _positions(state, epoch)
        for peer in sorted(meetings):
            i = max(meetings[peer], key=itemgetter(1))[0]
            issued.append(Checkpoint(node, peer, epoch.packages[i].t, positions[i]))
    return issued


def _split_epoch(
    state: BackendState, epoch: Epoch, cuts: dict[int, GraphPosition]
) -> list[Epoch]:
    # Cut before each package index in `cuts`, at that cut's boundary. The
    # fragments keep the kind of the visit they were cut from. A fragment is
    # known by its unsplit epoch, its package range there and its bounds, so
    # equal fragments cut along different paths are one object.
    unsplit, offset = state.origins.get(epoch, (epoch, 0))
    bounds = [(0, epoch.start_pos), *sorted(cuts.items()), (len(epoch.packages), epoch.final_pos)]
    fragments = []
    for (i, start), (j, final) in pairwise(bounds):
        cut_alike = state.fragments.setdefault((unsplit, offset + i, offset + j), [])
        for fragment in cut_alike:
            if _same_bits(fragment.start_pos, start) and _same_bits(fragment.final_pos, final):
                break
        else:
            pkgs = epoch.packages[i:j]
            fragment = Epoch(epoch.kind, pkgs, anchor_of(pkgs), start, final)
            cut_alike.append(fragment)
            state.origins[fragment] = (unsplit, offset + i)
        fragments.append(fragment)
    return fragments


def _same_bits(p: Optional[GraphPosition], q: Optional[GraphPosition]) -> bool:
    # Equal numbers may differ in bits (0.0 and -0.0, 1 and 1.0); their reprs do not.
    return p is q or repr(p) == repr(q)


def apply_checkpoints(state: BackendState, node: str) -> None:
    """Split the node's epochs at checkpoints received from earlier arrivers.

    A checkpoint splits its containing epoch at the first package strictly
    later than the checkpoint; both fragments adopt the checkpoint position as
    their shared boundary. Checkpoints outside any complete epoch, beyond its
    last package, or off the epoch's interpolation path are discarded. The
    split set replaces the node's entry in `state.epoch_sets`; nothing is
    returned. The path test is `EnvironmentGraph.on_path`; no route is built.
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
        epochs[idx : idx + 1] = _split_epoch(state, epoch, {split_at: ck.position})
    state.epoch_sets[node] = EpochSet(node, tuple(epochs))


def _provenance_before(
    state: BackendState, node: str, t: float
) -> Optional[str]:
    """Junction of the node's most recent anchor gateway no later than t."""
    epoch_set = state.epoch_sets.get(node)
    if epoch_set is None:
        return None
    begun = list(takewhile(lambda e: e.t_first <= t, epoch_set.epochs))
    return anchor_junction(state.graph, reversed(begun))


def _confluence_cuts(state: BackendState, node: str, idx: int) -> dict[int, GraphPosition]:
    """Package index -> confluence boundary for each contact placed upstream of it.

    Per peer, only the epoch's earliest flagged contact can cut, and only
    when the confluence lies on the epoch's route (`EnvironmentGraph.on_path`,
    as for checkpoints); when two peers cut at the same package, the first
    peer's confluence wins. An incomplete epoch, or one that heard no peer,
    returns before any anchor, provenance or position lookup.

    A peer's contacts are scanned only when the farther of the epoch's first
    and last estimates from `v_f` lies beyond `limit + POSITION_TOL - slack`
    (`EnvironmentGraph.slack`). Every estimate lies on the epoch's route,
    and the distance to a junction is convex along a tree path, so no
    estimate is farther than the farther end, up to a rounding that the
    slack exceeds; a skipped scan would have flagged nothing.
    """
    graph = state.graph
    epochs = state.epoch_sets[node].epochs
    epoch = epochs[idx]
    cuts: dict[int, GraphPosition] = {}
    if not is_complete(epoch) or not (meetings := _meetings(state, epoch)):
        return cuts
    v_f = anchor_junction(graph, epochs[idx + 1 :])
    if v_f is None:
        return cuts
    v_f_pos = graph.position_at(v_f)
    v_a = _provenance_before(state, node, epoch.t_first)
    if v_a is None:
        log.info("rectification skipped for %s: own provenance unknown", node)
        return cuts
    positions = _positions(state, epoch)
    far = max(
        graph.geodesic_distance(positions[0], v_f_pos),
        graph.geodesic_distance(positions[-1], v_f_pos),
    )
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
        if far <= limit + POSITION_TOL - graph.slack:
            continue
        for i, _ in met:
            if graph.geodesic_distance(positions[i], v_f_pos) > limit + POSITION_TOL:
                # Nothing before an epoch's first package to cut off, an
                # earlier peer's cut at i stays, and a confluence off the
                # epoch's route bounds none of it.
                if (
                    i > 0
                    and i not in cuts
                    and graph.on_path(epoch.start_pos, v_c_pos, epoch.final_pos, tol=1e-6)
                ):
                    cuts[i] = v_c_pos
                break
    return cuts


def rectify_paths(state: BackendState, node: str) -> bool:
    """Split epochs whose encounter estimates lie upstream of the confluence vertex.

    Two nodes heading for a common destination can only have met at or after
    the junction where their paths merge. For every contact whose estimate
    falls upstream of that confluence, the containing epoch splits at the
    earliest such package with the confluence junction as the boundary, if
    that junction lies on the epoch's own route, and the split set replaces
    the node's entry in `state.epoch_sets`. Detection places each complete
    epoch it tests against a peer, if not yet placed, and no fragment. Every
    cut lies between the epoch's bounds, so no package is moved past the
    confluence or the epoch's final bound: splits cannot overshoot. Returns
    whether anything was cut; when nothing was, the epoch set stays.
    """
    unsplit = state.epoch_sets[node].epochs
    epochs: list[Epoch] = []
    for idx, epoch in enumerate(unsplit):
        cuts = _confluence_cuts(state, node, idx)
        epochs.extend(_split_epoch(state, epoch, cuts) if cuts else (epoch,))
    if len(epochs) == len(unsplit):  # every cut adds a fragment
        return False
    state.epoch_sets[node] = EpochSet(node, tuple(epochs))
    return True


@_gc_paused
def run_pipeline(
    state: BackendState, streams: dict[str, list[Package]], variant: str
) -> dict[str, list[LocalizedMeasurement]]:
    """Localize every node with the requested variant.

    The baseline first writes each node's `baseline_epochs` into
    `state.epoch_sets`, and nothing refines them. Nodes are processed in
    gateway-arrival order (first package timestamp, then node id) so that
    checkpoints issued by early arrivers are available to later ones. Every
    node runs the variant's steps in one order: apply checkpoints, rectify,
    localize, issue checkpoints. Each places what it reads on first read, so
    none relies on another. Issued checkpoints are stored in
    `state.checkpoints`. It runs with the cyclic garbage collector paused;
    the pause is process-wide, so another thread's `gc.disable()` made
    during the call is undone when it returns.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "baseline":
        for node, packages in streams.items():
            state.epoch_sets[node] = EpochSet(node, baseline_epochs(state.graph, packages))
    use_cp = "cp" in variant.split("+")
    use_pr = "pr" in variant.split("+")
    order = sorted(streams, key=lambda n: (streams[n][0].t if streams[n] else float("inf"), n))
    results: dict[str, list[LocalizedMeasurement]] = {}
    for node in order:
        if use_cp:
            apply_checkpoints(state, node)
        if use_pr:
            rectify_paths(state, node)
        results[node] = localize_node(state, node, variant)
        if use_cp:
            state.checkpoints += issue_checkpoints(state, node)
    return results
