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
from functools import cached_property
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
        if not 0 < self.base_step < math.inf:
            raise ScenarioError("base_step must be positive and finite")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ScenarioError("noise_p must be a probability")
        if not 0 < self.effective_contact_radius < math.inf:
            raise ScenarioError("contact radius must be positive and finite")
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
            self.graph.canonicalize(ins.position)

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


@dataclass
class _NodeState:
    position: GraphPosition  # oriented child -> parent
    at_root: bool = False
    seq: int = 0
    buffer: list[Package] = field(default_factory=list)


@dataclass
class WorldState:
    spec: ScenarioSpec
    rng: random.Random
    tick: int = 0
    nodes: dict[str, _NodeState] = field(default_factory=dict)  # the nodes in flight
    ground_truth: list[GroundTruthRecord] = field(default_factory=list)

    @cached_property
    def _insertion_order(self) -> tuple[str, ...]:
        return tuple(i.node for i in self.spec.insertions)

    def active_nodes(self) -> list[str]:
        nodes = self.nodes
        return [n for n in self._insertion_order if n in nodes]


@dataclass
class InstanceResult:
    batches: list[Batch]
    ground_truth: list[GroundTruthRecord]
    truncated: bool

    def streams(self) -> dict[str, list[Package]]:
        streams: dict[str, list[Package]] = {}
        for batch in self.batches:
            streams.setdefault(batch.node, []).extend(batch.packages)
        return streams

    @cached_property
    def emitted_truth(self) -> dict[tuple[str, int], GraphPosition]:
        """True position of every emitted package by `(node, seq)`.

        Built on first use and kept, so every variant scored against this
        instance reads the same map; the result is not changed after a run.
        """
        truth = {(r.node, r.seq): r.position for r in self.ground_truth}
        return {
            (pkg.node, pkg.seq): truth[(pkg.node, pkg.seq)]
            for batch in self.batches
            for pkg in batch.packages
        }


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


def step(world: WorldState) -> WorldState:
    """Advance every active node one tick of noisy drift toward the root."""
    spec = world.spec
    for node in world.active_nodes():
        st = world.nodes[node]
        noise = 1 if world.rng.random() < spec.noise_p else 0
        st.position = _advance(spec.graph, st.position, spec.base_step * (1 + noise))
        if st.position.at_junction() and st.position.u == spec.graph.root:
            st.at_root = True
    world.tick += 1
    return world


def _gateway_observations(
    graph: EnvironmentGraph, position: GraphPosition
) -> tuple[GatewayObservation, ...]:
    # `position` is canonical. Its distance to each gateway comes out of the
    # same sums as `geodesic_distance`, with the tie going to u.
    head, tail = position.offset, position.span - position.offset
    new = tuple.__new__
    observations = []
    for gateway, du, dv in graph.link_gateways(position.u, position.v):
        d = min(head + du + 0.0, tail + dv + 0.0)
        if d <= gateway.radius:
            observations.append(new(GatewayObservation, (gateway.id, gateway.radius - d)))
    return tuple(observations)


def observe(
    world: WorldState, node: str, active: list[str]
) -> tuple[tuple[GatewayObservation, ...], tuple[NodeContact, ...]]:
    """Radio snapshot for one node: gateway signals and peer contacts in range.

    `active` is `world.active_nodes()`, built once per tick by the caller.
    A tree geodesic is never shorter than the gap between the two points'
    distances to the root, so a peer whose gap exceeds the contact radius
    (plus rounding slack) is out of range without a geodesic. Positions are
    oriented child -> parent and the root is held in junction form, so that
    distance is `dist_to_root[v] + span - offset`.
    """
    graph = world.spec.graph
    nodes = world.nodes
    dist_to_root = graph.dist_to_root
    here = nodes[node].position
    new = tuple.__new__
    contacts = []
    radius = world.spec.effective_contact_radius
    reach = radius + 1e-6
    level = dist_to_root[here.v] + here.span - here.offset
    for peer in active:
        if peer == node:
            continue
        there = nodes[peer].position
        if abs(dist_to_root[there.v] + there.span - there.offset - level) > reach:
            continue
        d = graph.geodesic_distance(here, there)
        if d <= radius:
            contacts.append(new(NodeContact, (peer, radius - d)))
    return _gateway_observations(graph, here), tuple(contacts)


def record_and_emit(world: WorldState) -> list[Batch]:
    """Record due packages and flush buffers of nodes currently at a gateway.

    Nodes record on the measurement-interval grid, plus one forced final
    package upon reaching the root so the journey's end is always observed;
    after that final record the node leaves the simulation.

    Records are built by `tuple.__new__`, without the `__new__` of `Package`
    or of the NamedTuples. `observe` returns tuples; more than one
    observation is sorted strongest-first here, with the parser's key, as
    `Package` keeps them. Each package gets its own payload dict.
    """
    batches = []
    tick = world.tick
    due = tick % world.spec.measurement_interval == 0
    active = world.active_nodes()
    new = tuple.__new__
    for node in active:
        st = world.nodes[node]
        obs = None
        if due or st.at_root:
            obs, contacts = observe(world, node, active)
            if len(obs) > 1:
                obs = tuple(sorted(obs, key=_strongest_first))
            st.seq += 1
            st.buffer.append(
                new(Package, (node, st.seq, float(tick), obs, contacts, {"tick": tick}))
            )
            world.ground_truth.append(new(GroundTruthRecord, (node, st.seq, tick, st.position)))
        if not st.buffer:
            continue
        if obs is None:
            obs = _gateway_observations(world.spec.graph, st.position)
        if obs:
            batches.append(Batch(node, tick, tuple(st.buffer)))
            st.buffer.clear()
    # Leaving only after every node recorded lets peers hear a node's final tick.
    for node in active:
        if world.nodes[node].at_root:
            del world.nodes[node]
    return batches


def run_instance(spec: ScenarioSpec, seed: int) -> InstanceResult:
    """One deterministic simulation run: a pure function of (spec, seed)."""
    world = WorldState(spec, random.Random(seed))
    batches: list[Batch] = []
    pending = sorted(spec.insertions, key=lambda i: (i.tick, i.node))
    truncated = False
    while True:
        while pending and pending[0].tick == world.tick:
            ins = pending.pop(0)
            world.nodes[ins.node] = _NodeState(_oriented(spec.graph, ins.position))
        batches.extend(record_and_emit(world))
        if not world.nodes and not pending:
            break
        if world.tick >= spec.max_ticks:
            truncated = True
            break
        step(world)
    return InstanceResult(batches, world.ground_truth, truncated)


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
    insertions = []
    kwargs = {}
    try:
        check_object(obj, _SCENARIO_KEYS, {"graph", "insertions"}, "scenario object")
        graph = graph_from_json(obj["graph"])
        for iobj in check_array(obj["insertions"], "scenario insertions"):
            check_object(iobj, _INSERTION_KEYS, _INSERTION_KEYS, "insertion object")
            at = GraphPosition.from_json(iobj["at"])
            tick = check_integer(iobj["tick"], "insertion tick")
            node = check_string(iobj["node"], "insertion node")
            insertions.append(Insertion(node, at, tick))
        for key in _SCENARIO_SETTINGS:
            if key in obj and obj[key] is not None:
                if key in ("measurement_interval", "max_ticks"):
                    kwargs[key] = check_integer(obj[key], key)
                else:
                    kwargs[key] = check_number(obj[key], key)
    except GraphError as exc:
        raise ScenarioError(str(exc)) from exc
    return ScenarioSpec(graph, insertions, **kwargs)


def load_scenario(text: str) -> ScenarioSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in scenario file: {exc}") from exc
    return scenario_from_json(obj)
