"""Seeded discrete-time drift simulation and the built-in test scenarios.

Nodes advance toward the root each tick by a base step plus a boolean noise
quantum, record a measurement package on a fixed cadence, and flush their
buffered packages as a batch whenever a gateway is in range. Radio strength is
a deterministic linear falloff: range minus geodesic distance, so a node
directly under a gateway hears the published maximum.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional

from .graph import (
    EnvironmentGraph,
    GraphError,
    GraphPosition,
    check_array,
    check_integer,
    check_number,
    check_object,
    check_string,
    graph_from_json,
    graph_to_json,
)
from .packages import GatewayObservation, NodeContact, Package, _strongest_first


class ScenarioError(ValueError):
    pass


# The gateway radii of the built-in scenario files.
# Scenario-1 coverage: three gateways on a 100-unit chain cover 4R of pipe,
# and 4R/100 = sqrt(10)/25 fixes R = sqrt(10).
CHAIN_RADIUS = math.sqrt(10.0)
# Branching scenarios: start and final gateways cover 2R of each 200-unit
# source-to-sink path, and 2R/200 = sqrt(10)/50 fixes R = 2*sqrt(10).
BRANCH_RADIUS = 2.0 * math.sqrt(10.0)


@dataclass(frozen=True)
class Insertion:
    node: str
    position: GraphPosition
    tick: int


@dataclass
class ScenarioSpec:
    graph: EnvironmentGraph
    insertions: list[Insertion]
    base_step: float = 1.0
    noise_p: float = 2.0 / 3.0
    gateway_radius_default: float = CHAIN_RADIUS
    contact_radius: Optional[float] = None  # None: same as gateway_radius_default
    measurement_interval: int = 1
    max_ticks: int = 5000

    def __post_init__(self) -> None:
        try:  # every field's type, as in a scenario file, before any range
            insertions, self.insertions = self.insertions, []
            for ins in insertions:
                tick = check_integer(ins.tick, "insertion tick")
                node = check_string(ins.node, "insertion node")
                self.insertions.append(Insertion(node, ins.position, tick))
            for key in _SCENARIO_SETTINGS:
                if key in ("measurement_interval", "max_ticks"):
                    setattr(self, key, check_integer(getattr(self, key), key))
                elif key != "contact_radius" or self.contact_radius is not None:
                    setattr(self, key, check_number(getattr(self, key), key))
        except GraphError as exc:
            raise ScenarioError(str(exc)) from exc
        if not 0 < self.base_step < math.inf:
            raise ScenarioError("base_step must be positive and finite")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ScenarioError("noise_p must be a probability")
        if not 0 < self.effective_contact_radius < math.inf:
            raise ScenarioError("contact radius must be positive and finite")
        if not 0 < self.gateway_radius_default < math.inf:
            raise ScenarioError("gateway_radius_default must be positive and finite")
        if self.measurement_interval < 1:
            raise ScenarioError("measurement interval must be >= 1")
        if self.max_ticks < 0:
            raise ScenarioError("max_ticks must be >= 0")
        seen = set()
        for ins in self.insertions:
            if ins.node in seen:
                raise ScenarioError(f"duplicate node id {ins.node!r}")
            seen.add(ins.node)
            if ins.tick < 0:
                raise ScenarioError("insertion tick must be >= 0")
            try:
                self.graph.canonicalize(ins.position)
            except GraphError as exc:
                raise ScenarioError(str(exc)) from exc

    @property
    def effective_contact_radius(self) -> float:
        return self.contact_radius if self.contact_radius is not None else self.gateway_radius_default

    def route_length(self) -> float:
        """Longest insertion-to-root path; the normalization length for errors."""
        if not self.insertions:
            raise ScenarioError("scenario has no insertions")
        root = self.graph.position_at(self.graph.root)
        length = max(self.graph.geodesic_distance(i.position, root) for i in self.insertions)
        if length <= 0:
            raise ScenarioError("every insertion is at the root, so the route length is 0")
        return length


class GroundTruthRecord(NamedTuple):
    node: str
    seq: int
    tick: int
    position: GraphPosition


@dataclass(frozen=True)
class Batch:
    node: str
    tick: int
    packages: tuple[Package, ...]


@dataclass(slots=True)
class _NodeState:
    position: GraphPosition  # oriented child -> parent
    at_root: bool = False
    seq: int = 0
    buffer: list[Package] = field(default_factory=list)
    # The true position of each recorded package: index `seq - 1` holds seq's.
    track: list[GraphPosition] = field(default_factory=list)


@dataclass
class WorldState:
    """The simulation at `tick`: the nodes in flight and what was recorded.

    `nodes` holds the in-flight nodes in the spec's insertion order, which is
    the order of every per-tick pass and of the RNG draws; `run_instance`
    restores that order whenever it inserts nodes.
    `reach` is the contact radius plus 1e-6 and the graph's rounding slack,
    which covers the rounding of `observe`'s range tests.
    """

    spec: ScenarioSpec
    rng: random.Random
    tick: int = 0
    nodes: dict[str, _NodeState] = field(default_factory=dict)
    ground_truth: list[GroundTruthRecord] = field(default_factory=list)
    reach: float = field(init=False)

    def __post_init__(self) -> None:
        self.reach = self.spec.effective_contact_radius + 1e-6 + self.spec.graph.slack


@dataclass
class InstanceResult:
    """One run: its batches in upload order and every recorded ground truth.

    `tracks` maps each inserted node to the true positions of every package
    it recorded, emitted or not, in seq order: index `seq - 1` holds seq's
    position. A node's batches emit a prefix 1..m of its seqs; the rest were
    still buffered when the run ended. The scorers read truth from the
    tracks by seq (`metrics.epoch_errors`, `metrics.instance_errors`).
    """

    batches: list[Batch]
    ground_truth: list[GroundTruthRecord]
    truncated: bool
    tracks: dict[str, list[GraphPosition]]

    def streams(self) -> dict[str, list[Package]]:
        streams: dict[str, list[Package]] = {}
        for batch in self.batches:
            streams.setdefault(batch.node, []).extend(batch.packages)
        return streams


def _oriented(graph: EnvironmentGraph, pos: GraphPosition) -> GraphPosition:
    """Normalize to child->parent orientation (offset measured from the child)."""
    pos = graph.canonicalize(pos)
    if pos.at_junction():
        j = pos.u
        if j == graph.root:
            return pos
        parent = graph.parent[j]
        assert parent is not None
        return GraphPosition(j, parent, 0.0, graph.link_length(j, parent))
    if graph.parent[pos.u] == pos.v:
        return pos
    return GraphPosition(pos.v, pos.u, pos.span - pos.offset, pos.span)


def _advance(graph: EnvironmentGraph, pos: GraphPosition, distance: float) -> GraphPosition:
    """Move an oriented position `distance` units toward the root (clamped there)."""
    remaining = distance
    while remaining > 0:
        if pos.at_junction():  # only the root is kept in junction form
            return pos
        gap = pos.span - pos.offset
        if remaining < gap:
            return tuple.__new__(GraphPosition, (pos.u, pos.v, pos.offset + remaining, pos.span))
        remaining -= gap
        junction = pos.v
        if junction == graph.root:
            return graph.position_at(junction)
        parent = graph.parent[junction]
        assert parent is not None
        pos = GraphPosition(junction, parent, 0.0, graph.link_length(junction, parent))
    return pos


def step(world: WorldState) -> None:
    """Advance every in-flight node one tick of noisy drift toward the root.

    One RNG draw per node, in `world.nodes` order. A node that stays on its
    link moves by one new tuple; `_advance` handles junction crossings.
    """
    spec = world.spec
    graph = spec.graph
    rand = world.rng.random
    noise_p = spec.noise_p
    slow, fast = spec.base_step * 1, spec.base_step * 2  # base_step * (1 + noise)
    new = tuple.__new__
    for st in world.nodes.values():
        distance = fast if rand() < noise_p else slow
        pos = st.position
        u, v, offset, span = pos
        if u != v and distance < span - offset:
            st.position = new(GraphPosition, (u, v, offset + distance, span))
            continue
        pos = st.position = _advance(graph, pos, distance)
        if pos.u == pos.v == graph.root:
            st.at_root = True
    world.tick += 1


def _gateway_observations(
    graph: EnvironmentGraph, position: GraphPosition
) -> tuple[GatewayObservation, ...]:
    """The gateways a canonical position is in range of, by gateway id, with
    their strengths.

    An offset inside the link's quiet band (`link_gateways`) hears nothing,
    and no sum is computed. Otherwise its distance to each nearby gateway
    comes out of the same sums as `geodesic_distance`, with the tie going
    to u.
    """
    quiet_from, quiet_to, near = graph.link_gateways(position.u, position.v)
    head = position.offset
    if quiet_from < head < quiet_to:
        return ()
    tail = position.span - head
    new = tuple.__new__
    observations = []
    for gateway, du, dv in near:
        d = min(head + du + 0.0, tail + dv + 0.0)
        if d <= gateway.radius:
            observations.append(new(GatewayObservation, (gateway.id, gateway.radius - d)))
    return tuple(observations)


def observe(
    world: WorldState,
) -> list[tuple[tuple[GatewayObservation, ...], tuple[NodeContact, ...]]]:
    """Radio snapshot of one tick: each in-flight node's gateway signals and
    peer contacts in range, as `(observations, contacts)` in `world.nodes` order.

    Positions are oriented child -> parent, with the root held in junction
    form, and two tests put a pair out of range without a geodesic:

    - Levels. A tree geodesic is never shorter than the gap between two
      points' distances to the root. Each node's level, `dist_to_root[v] +
      span - offset`, is computed once per tick.
    - Junctions. By the triangle inequality a geodesic is never shorter than
      `junction_distance(u_a, u_b) - offset_a - offset_b`, for each node's
      child junction `u` and its offset from `u` (the root: itself and 0).

    Both gaps are symmetric, so each pair is tested once, by the later of its
    two nodes in `world.nodes` order, and skipped when either gap exceeds
    `world.reach`: the contact radius plus a slack that grows with the
    network's extent, since the rounding of these sums does. A pair that
    passes gets `geodesic_distance(here, there)` for the one node and
    `(there, here)` for the other: the two add up in different orders, so a
    contact is not mirrored. Each node's contacts come out in `world.nodes`
    order. Gateway readings come from `_gateway_observations`, which skips
    every sum for a node inside its link's quiet band; `reach` and the
    bands share the graph's rounding slack.
    """
    spec = world.spec
    graph = spec.graph
    geodesic = graph.geodesic_distance
    junction_distance = graph.junction_distance
    dist_to_root = graph.dist_to_root
    radius = spec.effective_contact_radius
    reach = world.reach
    new = tuple.__new__
    flight = []  # (node, position, level, contacts) of the nodes met so far
    for node, st in world.nodes.items():
        here = st.position
        level = dist_to_root[here.v] + here.span - here.offset
        contacts = []
        for peer, there, peer_level, peer_contacts in flight:
            if abs(peer_level - level) > reach:
                continue
            if junction_distance(there[0], here[0]) - there[2] - here[2] > reach:
                continue
            d = geodesic(there, here)
            if d <= radius:
                peer_contacts.append(new(NodeContact, (node, radius - d)))
            d = geodesic(here, there)
            if d <= radius:
                contacts.append(new(NodeContact, (peer, radius - d)))
        flight.append((node, here, level, contacts))
    radio = []
    for _, here, _, contacts in flight:
        radio.append((_gateway_observations(graph, here), tuple(contacts)))
    return radio


def record_and_emit(world: WorldState) -> list[Batch]:
    """Record due packages and flush buffers of nodes currently at a gateway.

    Nodes record on the measurement-interval grid, plus one forced final
    package upon reaching the root so the journey's end is always observed;
    after that final record the node leaves the simulation. A tick on which
    any node records takes one `observe` snapshot of every node in flight.

    Records are built by `tuple.__new__`, without the `__new__` of `Package`
    or of the NamedTuples. `observe` returns tuples; more than one
    observation is sorted strongest-first here, with the parser's key, as
    `Package` keeps them. Each package gets its own payload dict, and its
    true position goes onto the node's track as its ground truth is
    recorded.
    """
    batches = []
    tick = world.tick
    nodes = world.nodes
    graph = world.spec.graph
    due = tick % world.spec.measurement_interval == 0
    recording = nodes and (due or any(st.at_root for st in nodes.values()))
    radio = observe(world) if recording else None
    truth = world.ground_truth
    new = tuple.__new__
    leaving = []
    for k, (node, st) in enumerate(nodes.items()):
        obs = None
        if due or st.at_root:
            obs, contacts = radio[k]
            if len(obs) > 1:
                obs = tuple(sorted(obs, key=_strongest_first))
            seq = st.seq = st.seq + 1
            st.buffer.append(new(Package, (node, seq, float(tick), obs, contacts, {"tick": tick})))
            truth.append(new(GroundTruthRecord, (node, seq, tick, st.position)))
            st.track.append(st.position)
            if st.at_root:
                leaving.append(node)
        if not st.buffer:
            continue
        if obs is None:
            obs = _gateway_observations(graph, st.position)
        if obs:
            batches.append(Batch(node, tick, tuple(st.buffer)))
            st.buffer.clear()
    # Leaving only after every node recorded lets peers hear a node's final tick.
    for node in leaving:
        del nodes[node]
    return batches


def run_instance(spec: ScenarioSpec, seed: int) -> InstanceResult:
    """One deterministic simulation run: a pure function of (spec, seed).

    Each tick inserts the nodes due then, calls `record_and_emit` and, unless
    the run is over, `step`. After an insertion the in-flight map is put back
    in the spec's insertion order.
    """
    world = WorldState(spec, random.Random(seed))
    batches: list[Batch] = []
    pending = sorted(spec.insertions, key=lambda i: (i.tick, i.node))
    rank = {ins.node: k for k, ins in enumerate(spec.insertions)}
    tracks: dict[str, list[GraphPosition]] = {}
    truncated = False
    while True:
        if pending and pending[0].tick == world.tick:
            while pending and pending[0].tick == world.tick:
                ins = pending.pop(0)
                st = world.nodes[ins.node] = _NodeState(_oriented(spec.graph, ins.position))
                tracks[ins.node] = st.track
            world.nodes = dict(sorted(world.nodes.items(), key=lambda item: rank[item[0]]))
        batches.extend(record_and_emit(world))
        if not world.nodes and not pending:
            break
        if world.tick >= spec.max_ticks:
            truncated = True
            break
        step(world)
    return InstanceResult(batches, world.ground_truth, truncated, tracks)


# -- built-in scenarios -------------------------------------------------------


def make_scenario(k: int) -> ScenarioSpec:
    """The four built-in desk-scale scenarios, read from the package's `scenarios/`.

    1: one node drifting down a 100-unit chain of three gateways.
    2: the same pipe with two nodes deployed in close succession.
    3: two 100-unit branches with start gateways merging at an ungated
       junction, then 100 units to a final gateway; one node per branch.
    4: a larger tree (three merge junctions, five gated sources, gated root)
       with five staggered nodes and sparse mid-network coverage.
    """
    if k not in (1, 2, 3, 4):
        raise ScenarioError(f"unknown scenario {k!r}; expected 1..4")
    # int(): any k equal to 1..4 (True, 1.0) names its file, as `==` allows.
    path = Path(__file__).with_name("scenarios") / f"scenario{int(k)}.json"
    return load_scenario(path.read_text(encoding="utf-8"))


# -- scenario files -----------------------------------------------------------

# The optional fields in ScenarioSpec's order, so that a file with several
# bad fields is always reported by the first of them.
_SCENARIO_SETTINGS = tuple(f.name for f in fields(ScenarioSpec))[2:]
_SCENARIO_KEYS = {"graph", "insertions", *_SCENARIO_SETTINGS}
_INSERTION_KEYS = {"node", "tick", "at"}


def scenario_to_json(spec: ScenarioSpec) -> dict:
    return {
        "graph": graph_to_json(spec.graph),
        "insertions": [
            {"node": i.node, "tick": i.tick, "at": i.position.to_json()}
            for i in spec.insertions
        ],
        **{key: getattr(spec, key) for key in _SCENARIO_SETTINGS},
    }


def scenario_from_json(obj: dict) -> ScenarioSpec:
    try:
        check_object(obj, _SCENARIO_KEYS, {"graph", "insertions"}, "scenario object")
        graph = graph_from_json(obj["graph"])
        insertions = []
        for iobj in check_array(obj["insertions"], "scenario insertions"):
            check_object(iobj, _INSERTION_KEYS, _INSERTION_KEYS, "insertion object")
            at = GraphPosition.from_json(iobj["at"])
            insertions.append(Insertion(iobj["node"], at, iobj["tick"]))
        kwargs = {key: obj[key] for key in _SCENARIO_SETTINGS if obj.get(key) is not None}
        return ScenarioSpec(graph, insertions, **kwargs)
    except GraphError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(text: str) -> ScenarioSpec:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, or an int too long
        raise ScenarioError(f"invalid JSON in scenario file: {exc}") from exc
    return scenario_from_json(obj)
