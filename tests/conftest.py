"""Shared fixtures: reference graphs, random-tree generators, brute-force oracles."""

from __future__ import annotations

import math
import random
import sys

import pytest

from gral.graph import (
    POSITION_TOL,
    EnvironmentGraph,
    Gateway,
    GraphPosition,
    Junction,
    Link,
    Route,
    build_graph,
)
from gral.packages import GatewayObservation, NodeContact, Package
from gral.sim import Insertion, ScenarioSpec

CHAIN_RADIUS = math.sqrt(10.0)

# Two texts that no JSON loader decodes: nesting deeper than the decoder's
# recursion allows, and an integer longer than the default int-digit limit.
DEEP_JSON = "[" * 100_000
LONG_INT_JSON = '{"root": ' + "9" * 5000 + "}"


@pytest.fixture
def int_digit_limit():
    """The interpreter's default int-digit limit, 4300, whatever the
    environment sets (`PYTHONINTMAXSTRDIGITS`); restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture
def chain_graph() -> EnvironmentGraph:
    """Three gated junctions in a chain: a --50-- b --50-- c (root)."""
    return build_graph(
        [
            Junction("a", Gateway("gw-a", "a", CHAIN_RADIUS)),
            Junction("b", Gateway("gw-b", "b", CHAIN_RADIUS)),
            Junction("c", Gateway("gw-c", "c", CHAIN_RADIUS)),
        ],
        [Link("a", "b", 50.0), Link("b", "c", 50.0)],
        "c",
    )


@pytest.fixture
def y_graph() -> EnvironmentGraph:
    """Two branches meeting at c, then one link to the root f."""
    return build_graph(
        [Junction("a"), Junction("b"), Junction("c"), Junction("f")],
        [Link("a", "c", 3.0), Link("b", "c", 4.0), Link("c", "f", 5.0)],
        "f",
    )


def random_tree(rng: random.Random, n: int) -> EnvironmentGraph:
    """Random weighted tree with n junctions; each new vertex hangs off an earlier one."""
    junctions = [Junction(f"v{i}") for i in range(n)]
    links = [
        Link(f"v{i}", f"v{rng.randrange(i)}", rng.uniform(1.0, 10.0)) for i in range(1, n)
    ]
    return build_graph(junctions, links, "v0")


def gated_tree_scenario(rng: random.Random) -> ScenarioSpec:
    """A random tree with a gated root and gateways on about a third of the
    other junctions, and 1-5 nodes inserted on links or at leaves."""
    n = rng.randint(3, 9)
    radius = rng.uniform(3.0, 8.0)
    parents = {i: rng.randrange(i) for i in range(1, n)}
    gated = {0} | {i for i in range(1, n) if rng.random() < 1 / 3}
    junctions = [
        Junction(f"v{i}", Gateway(f"gw-v{i}", f"v{i}", radius) if i in gated else None)
        for i in range(n)
    ]
    links = [Link(f"v{i}", f"v{p}", rng.uniform(8.0, 30.0)) for i, p in parents.items()]
    graph = build_graph(junctions, links, "v0")
    leaves = sorted(set(range(1, n)) - set(parents.values()))
    insertions = []
    for k in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            at = graph.position_at(f"v{rng.choice(leaves)}")
        else:
            link = rng.choice(links)
            at = GraphPosition(link.u, link.v, rng.uniform(0.0, link.length), link.length)
        insertions.append(Insertion(f"n{k}", at, rng.randrange(6)))
    return ScenarioSpec(
        graph,
        insertions,
        gateway_radius_default=radius,
        measurement_interval=rng.randint(1, 2),
    )


def ungated_root_scenario() -> ScenarioSpec:
    """Two nodes down a gated source and middle to a root with no gateway:
    what each records after the middle gateway is never emitted."""
    g = build_graph(
        [Junction("s", Gateway("gw-s", "s", 2.0)), Junction("m", Gateway("gw-m", "m", 2.0)),
         Junction("r")],
        [Link("s", "m", 20.0), Link("m", "r", 20.0)],
        "r",
    )
    return ScenarioSpec(g, [Insertion("n1", g.position_at("s"), 0),
                            Insertion("n2", g.position_at("s"), 3)])


def swarm_like_scenario(rng: random.Random, depth: int, per_leaf: int) -> ScenarioSpec:
    """Binary tree gated at its leaves and root; `per_leaf` nodes leave each
    leaf one tick apart, so nodes travel in groups and meet at merges."""
    junctions = [Junction("r", Gateway("gw-r", "r", CHAIN_RADIUS))]
    links, level = [], ["r"]
    for d in range(1, depth + 1):
        children = []
        for parent in level:
            for side in "ab":
                j = side if parent == "r" else parent + side
                gateway = Gateway(f"gw-{j}", j, CHAIN_RADIUS) if d == depth else None
                junctions.append(Junction(j, gateway))
                links.append(Link(j, parent, float(rng.randint(4, 12))))
                children.append(j)
        level = children
    graph = build_graph(junctions, links, "r")
    insertions = [
        Insertion(f"{leaf}{k}", graph.position_at(leaf), k) for leaf in level for k in range(per_leaf)
    ]
    return ScenarioSpec(graph, insertions, gateway_radius_default=CHAIN_RADIUS)


def scaled_graph(graph: EnvironmentGraph, factor: float) -> EnvironmentGraph:
    """The same tree with every link length and gateway radius times `factor`."""
    junctions = [
        Junction(j.id, j.gateway and Gateway(j.gateway.id, j.id, j.gateway.radius * factor))
        for j in graph.junctions.values()
    ]
    links = [Link(link.u, link.v, link.length * factor) for link in graph.links]
    return build_graph(junctions, links, graph.root)


def random_position(rng: random.Random, graph: EnvironmentGraph) -> GraphPosition:
    link = rng.choice(graph.links)
    return GraphPosition(link.u, link.v, rng.uniform(0.0, link.length), link.length)


def reference_walk(path: list[str], lengths: list[float], remaining: float) -> GraphPosition:
    """The path walk as it was before the flat `Route.points_at` kernel, with
    `min` for its clamp (oracle for `gral.graph._walk`)."""
    last = len(lengths) - 1
    for i, length in enumerate(lengths):
        if remaining < length - POSITION_TOL or i == last:
            return GraphPosition(path[i], path[i + 1], min(remaining, length), length)
        remaining -= length
        if remaining < POSITION_TOL:
            remaining = 0.0
    raise AssertionError("unreachable")


def reference_point_at(route: Route, arclength: float) -> GraphPosition:
    """`Route.point_at` as it was before `Route.points_at`: one point per call,
    the route's legs re-read each time, clamps by `min` and `max` (oracle for
    the batch). A route within one link keeps its points on the link."""
    s = min(max(arclength, 0.0), route.total)
    if route.total <= POSITION_TOL:
        return route.start
    if route._off_end is not None:
        direction = 1.0 if route._off_end >= route.start.offset else -1.0
        off = route.start.offset + direction * s
        return GraphPosition(
            route.start.u, route.start.v, min(max(off, 0.0), route.start.span), route.start.span
        )
    if s <= route._head + POSITION_TOL and not route.start.at_junction():
        direction = -1.0 if route._exit == route.start.u else 1.0
        off = route.start.offset + direction * min(s, route._head)
        return GraphPosition(
            route.start.u, route.start.v, min(max(off, 0.0), route.start.span), route.start.span
        )
    s_mid = s - route._head
    mid_len = route._mid_len
    if s_mid <= mid_len + POSITION_TOL and route._mid_lengths:
        return reference_walk(route._mid_path, route._mid_lengths, min(max(s_mid, 0.0), mid_len))
    # A junction end has a tail of length 0, so this gives the end itself
    # (and a NaN arclength a NaN offset, as it does everywhere else).
    s_tail = min(max(s_mid - mid_len, 0.0), route._tail)
    direction = 1.0 if route._enter == route.end.u else -1.0
    off = (0.0 if route._enter == route.end.u else route.end.span) + direction * s_tail
    return GraphPosition(route.end.u, route.end.v, min(max(off, 0.0), route.end.span), route.end.span)


def same_point(
    graph: EnvironmentGraph, p1: GraphPosition, p2: GraphPosition, tol: float = POSITION_TOL
) -> bool:
    """Whether two positions are within `tol` of each other along the network."""
    return graph.geodesic_distance(p1, p2) <= tol


def reference_geodesic(graph: EnvironmentGraph, p1: GraphPosition, p2: GraphPosition) -> float:
    """`EnvironmentGraph.geodesic_distance` as it was before the flat kernel:
    both points canonicalized, then the same-link offset difference or the
    best anchor pair of `_anchor_path` (oracle for the kernel)."""
    a = graph.canonicalize(p1)
    b = graph.canonicalize(p2)
    if not a.at_junction() and not b.at_junction():
        if a.u == b.u and a.v == b.v:
            return abs(a.offset - b.offset)
        if a.u == b.v and a.v == b.u:
            return abs(a.offset - (b.span - b.offset))

    def anchor_offsets(pos: GraphPosition) -> list[tuple[str, float]]:
        if pos.at_junction():
            return [(pos.u, 0.0)]
        return [(pos.u, pos.offset), (pos.v, pos.span - pos.offset)]

    best = None
    for ja, da in anchor_offsets(a):
        for jb, db in anchor_offsets(b):
            d = da + graph.junction_distance(ja, jb) + db
            if best is None or d < best:
                best = d
    assert best is not None
    return best


def enumerate_simple_paths(graph: EnvironmentGraph, u: str, v: str) -> list[list[str]]:
    """All simple junction paths from u to v by exhaustive DFS over the links (oracle)."""
    paths = []
    neighbours: dict[str, list[str]] = {j: [] for j in graph.junctions}
    for link in graph.links:
        neighbours[link.u].append(link.v)
        neighbours[link.v].append(link.u)

    def dfs(cur: str, seen: list[str]) -> None:
        if cur == v:
            paths.append(list(seen))
            return
        for nxt in neighbours[cur]:
            if nxt not in seen:
                seen.append(nxt)
                dfs(nxt, seen)
                seen.pop()

    dfs(u, [u])
    return paths


def oracle_confluence(graph: EnvironmentGraph, v_a: str, v_b: str, v_f: str) -> str:
    """Brute force: intersect both vertex paths, pick the vertex farthest from v_f."""
    paths_a = enumerate_simple_paths(graph, v_a, v_f)
    paths_b = enumerate_simple_paths(graph, v_b, v_f)
    assert len(paths_a) == 1 and len(paths_b) == 1
    shared = [v for v in paths_a[0] if v in set(paths_b[0])]
    return max(shared, key=lambda v: len(enumerate_simple_paths(graph, v, v_f)[0]))


# -- crafted line-pipe streams -------------------------------------------------


def line_position(x: float) -> GraphPosition:
    """Point x in [0, 100] on the chain graph a --50-- b --50-- c."""
    if x <= 50.0:
        return GraphPosition("a", "b", x, 50.0)
    return GraphPosition("b", "c", x - 50.0, 50.0)


def line_observations(x: float, radius: float = CHAIN_RADIUS) -> tuple[GatewayObservation, ...]:
    obs = []
    for gw, gx in (("gw-a", 0.0), ("gw-b", 50.0), ("gw-c", 100.0)):
        d = abs(x - gx)
        if d <= radius:
            obs.append(GatewayObservation(gw, radius - d))
    return tuple(obs)


def craft_streams(
    graph: EnvironmentGraph,
    trajectories: dict[str, list[GraphPosition]],
    contact_radius: float,
) -> tuple[dict[str, list[Package]], dict[tuple[str, int], GraphPosition]]:
    """Package streams plus ground truth for hand-crafted node trajectories.

    `trajectories` maps node id to its position at tick 0, 1, ... (the series
    ends when the node leaves the system). Observations follow the linear
    falloff model against the graph's gateways; contacts are mutual whenever
    two nodes are simultaneously present within the contact radius.
    """
    streams: dict[str, list[Package]] = {node: [] for node in trajectories}
    truth: dict[tuple[str, int], GraphPosition] = {}
    for node, series in trajectories.items():
        for tick, pos in enumerate(series):
            obs = []
            for gw_id in sorted(graph.gateways):
                gateway = graph.gateways[gw_id]
                d = graph.geodesic_distance(pos, graph.position_at(gateway.junction))
                if d <= gateway.radius:
                    obs.append(GatewayObservation(gw_id, gateway.radius - d))
            contacts = []
            for peer, other in trajectories.items():
                if peer == node or tick >= len(other):
                    continue
                d = graph.geodesic_distance(pos, other[tick])
                if d <= contact_radius:
                    contacts.append(NodeContact(peer, contact_radius - d))
            seq = tick + 1
            streams[node].append(
                Package(node, seq, float(tick), tuple(obs), tuple(contacts))
            )
            truth[(node, seq)] = pos
    return streams, truth


def chain_trajectory(positions: list[float]) -> list[GraphPosition]:
    return [line_position(x) for x in positions]
