"""Weighted-tree environment graph: geodesics, on-network positions, confluences.

The pipe network is a tree of junctions connected by links of known length.
Some junctions carry a stationary radio gateway with a known range. Positions
of drifting sensors are expressed relative to the graph: a junction pair plus
an arclength offset along the (unique) path between them.
"""

from __future__ import annotations

import json
import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional

log = logging.getLogger(__name__)

# Two on-network points closer than this are considered the same point.
POSITION_TOL = 1e-9


class GraphError(ValueError):
    """Raised for malformed graphs, unknown junctions or invalid positions."""


@dataclass(frozen=True)
class Gateway:
    """Stationary radio relay at a junction. `radius` is its wireless range."""

    id: str
    junction: str
    radius: float


@dataclass(frozen=True)
class Junction:
    id: str
    gateway: Optional[Gateway] = None


@dataclass(frozen=True)
class Link:
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class GraphPosition:
    """A point on the network: `offset` units from `u` along the path to `v`.

    Canonical form keeps `u` and `v` adjacent (one link) with
    0 <= offset <= span == link length; a point exactly at a junction may be
    written as (j, j, 0, 0).
    """

    u: str
    v: str
    offset: float
    span: float

    def at_junction(self) -> bool:
        return self.u == self.v

    def to_json(self) -> dict:
        return {"from": self.u, "to": self.v, "offset": self.offset, "span": self.span}

    @classmethod
    def from_json(cls, obj: dict) -> "GraphPosition":
        try:
            pos = cls(str(obj["from"]), str(obj["to"]), float(obj["offset"]), float(obj["span"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed position object: {obj!r}") from exc
        if not (math.isfinite(pos.offset) and math.isfinite(pos.span)):
            raise GraphError(f"non-finite offset or span in position object: {obj!r}")
        return pos


class EnvironmentGraph:
    """Immutable tree of junctions and links, rooted at the drain.

    Flow is always toward the root, so "downstream" of any junction is its
    unique parent. Build through :func:`build_graph`, which validates the tree
    invariants; afterwards the graph is safe for concurrent reads.
    """

    def __init__(self, junctions: dict[str, Junction], links: list[Link], root: str):
        self.junctions = junctions
        self.links = links
        self.root = root
        self.adjacency: dict[str, list[tuple[str, float]]] = {j: [] for j in junctions}
        self._link_length: dict[tuple[str, str], float] = {}
        for link in links:
            self.adjacency[link.u].append((link.v, link.length))
            self.adjacency[link.v].append((link.u, link.length))
            self._link_length[(link.u, link.v)] = link.length
            self._link_length[(link.v, link.u)] = link.length
        self.gateways: dict[str, Gateway] = {
            j.gateway.id: j.gateway for j in junctions.values() if j.gateway is not None
        }
        self._dist_cache: dict[tuple[str, str], float] = {}
        # Parent pointers toward the root define the flow orientation.
        self.parent: dict[str, Optional[str]] = {root: None}
        self.depth: dict[str, int] = {root: 0}
        self.dist_to_root: dict[str, float] = {root: 0.0}
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nxt, length in self.adjacency[cur]:
                if nxt not in self.parent:
                    self.parent[nxt] = cur
                    self.depth[nxt] = self.depth[cur] + 1
                    self.dist_to_root[nxt] = self.dist_to_root[cur] + length
                    queue.append(nxt)

    # -- basic queries ------------------------------------------------------

    def require_junction(self, j: str) -> None:
        if j not in self.junctions:
            raise GraphError(f"unknown junction: {j!r}")

    def link_length(self, u: str, v: str) -> float:
        try:
            return self._link_length[(u, v)]
        except KeyError:
            raise GraphError(f"no link between {u!r} and {v!r}") from None

    def gateway_at(self, junction: str) -> Optional[Gateway]:
        return self.junctions[junction].gateway

    def _lca(self, u: str, v: str) -> str:
        while self.depth[u] > self.depth[v]:
            u = self.parent[u]  # type: ignore[assignment]
        while self.depth[v] > self.depth[u]:
            v = self.parent[v]  # type: ignore[assignment]
        while u != v:
            u = self.parent[u]  # type: ignore[assignment]
            v = self.parent[v]  # type: ignore[assignment]
        return u

    def junction_distance(self, u: str, v: str) -> float:
        cached = self._dist_cache.get((u, v))
        if cached is not None:
            return cached
        self.require_junction(u)
        self.require_junction(v)
        w = self._lca(u, v)
        d = self.dist_to_root[u] + self.dist_to_root[v] - 2.0 * self.dist_to_root[w]
        self._dist_cache[(u, v)] = d
        self._dist_cache[(v, u)] = d
        return d

    def shortest_path(self, u: str, v: str) -> list[str]:
        """Unique simple path between two junctions, inclusive of both ends."""
        self.require_junction(u)
        self.require_junction(v)
        w = self._lca(u, v)
        up = []
        cur = u
        while cur != w:
            up.append(cur)
            cur = self.parent[cur]  # type: ignore[assignment]
        down = []
        cur = v
        while cur != w:
            down.append(cur)
            cur = self.parent[cur]  # type: ignore[assignment]
        return up + [w] + list(reversed(down))

    def path_length(self, path: list[str]) -> float:
        return sum(self.link_length(a, b) for a, b in zip(path, path[1:]))

    # -- positions ----------------------------------------------------------

    def position_at(self, junction: str) -> GraphPosition:
        self.require_junction(junction)
        return GraphPosition(junction, junction, 0.0, 0.0)

    def point_at(self, path: list[str], offset: float) -> GraphPosition:
        """Canonical position `offset` arclength units along `path`.

        A point landing exactly on an interior junction is reported with
        offset 0 on the outgoing link.
        """
        if not path:
            raise GraphError("empty path")
        for j in path:
            self.require_junction(j)
        total = self.path_length(path)
        if offset < -POSITION_TOL or offset > total + POSITION_TOL:
            raise GraphError(f"offset {offset} outside path of length {total}")
        if len(path) == 1:
            return GraphPosition(path[0], path[0], 0.0, 0.0)
        remaining = min(max(offset, 0.0), total)
        for i, (a, b) in enumerate(zip(path, path[1:])):
            length = self.link_length(a, b)
            last = i == len(path) - 2
            if remaining < length - POSITION_TOL or last:
                return GraphPosition(a, b, min(remaining, length), length)
            remaining -= length
            if remaining < POSITION_TOL:
                remaining = 0.0
        raise AssertionError("unreachable")

    def canonicalize(self, pos: GraphPosition) -> GraphPosition:
        """Normalize an arbitrary valid position to canonical link-local form."""
        self.require_junction(pos.u)
        self.require_junction(pos.v)
        if pos.u == pos.v:
            if abs(pos.offset) > POSITION_TOL or abs(pos.span) > POSITION_TOL:
                raise GraphError(f"degenerate position with nonzero extent: {pos}")
            return GraphPosition(pos.u, pos.u, 0.0, 0.0)
        length = self._link_length.get((pos.u, pos.v))
        if length is not None and abs(length - pos.span) <= 1e-6:
            # Already link-local; bound-check and snap to the exact link length.
            if pos.offset < -POSITION_TOL or pos.offset > length + POSITION_TOL:
                raise GraphError(f"offset {pos.offset} outside link of length {length}")
            return GraphPosition(pos.u, pos.v, min(max(pos.offset, 0.0), length), length)
        path = self.shortest_path(pos.u, pos.v)
        total = self.path_length(path)
        if abs(total - pos.span) > 1e-6:
            raise GraphError(f"position span {pos.span} != path length {total} for {pos}")
        return self.point_at(path, pos.offset)

    def _anchor_offsets(self, pos: GraphPosition) -> list[tuple[str, float]]:
        # Distances from the point to each endpoint junction of its link.
        if pos.at_junction():
            return [(pos.u, 0.0)]
        return [(pos.u, pos.offset), (pos.v, pos.span - pos.offset)]

    def geodesic_distance(self, p1: GraphPosition, p2: GraphPosition) -> float:
        """Length of the unique path between two on-network points."""
        a = self.canonicalize(p1)
        b = self.canonicalize(p2)
        if not a.at_junction() and not b.at_junction() and {a.u, a.v} == {b.u, b.v}:
            off_b = b.offset if (a.u, a.v) == (b.u, b.v) else b.span - b.offset
            return abs(a.offset - off_b)
        best = None
        for ja, da in self._anchor_offsets(a):
            for jb, db in self._anchor_offsets(b):
                d = da + self.junction_distance(ja, jb) + db
                if best is None or d < best:
                    best = d
        assert best is not None
        return best

    def same_point(self, p1: GraphPosition, p2: GraphPosition, tol: float = POSITION_TOL) -> bool:
        return self.geodesic_distance(p1, p2) <= tol

    def route(self, start: GraphPosition, end: GraphPosition) -> "Route":
        return Route(self, start, end)

    def confluence_vertex(self, v_a: str, v_b: str, v_f: str) -> str:
        """Earliest junction shared by the paths from v_a and v_b to v_f.

        Walking from v_a toward v_f, this is the first junction that also lies
        on the path from v_b to v_f; equivalently, of all shared junctions it
        is the one farthest from v_f. Two drifting nodes bound for v_f cannot
        have met upstream of it.
        """
        path_a = self.shortest_path(v_a, v_f)
        on_b = set(self.shortest_path(v_b, v_f))
        for vertex in path_a:
            if vertex in on_b:
                return vertex
        raise AssertionError("paths to a common destination always intersect")


class Route:
    """The unique path between two on-network points, parameterized by arclength."""

    def __init__(self, graph: EnvironmentGraph, start: GraphPosition, end: GraphPosition):
        self.graph = graph
        self.start = graph.canonicalize(start)
        self.end = graph.canonicalize(end)
        # Decompose into: leg on the start link, junction-to-junction path,
        # leg on the end link. Degenerate legs collapse to zero length. The
        # total comes out of the same arithmetic as `geodesic_distance`.
        if (
            not self.start.at_junction()
            and not self.end.at_junction()
            and {self.start.u, self.start.v} == {self.end.u, self.end.v}
        ):
            self._same_link = True
            self._exit = self._enter = None
            self._off_end = (
                self.end.offset
                if (self.start.u, self.start.v) == (self.end.u, self.end.v)
                else self.end.span - self.end.offset
            )
            self.total = abs(self.start.offset - self._off_end)
        else:
            self._same_link = False
            best = None
            for ja, da in graph._anchor_offsets(self.start):
                for jb, db in graph._anchor_offsets(self.end):
                    d = da + graph.junction_distance(ja, jb) + db
                    if best is None or d < best[0]:
                        best = (d, ja, jb, da, db)
            assert best is not None
            self.total, self._exit, self._enter, self._head, self._tail = best
            self._mid_path = graph.shortest_path(self._exit, self._enter)
            self._mid_len = graph.path_length(self._mid_path)

    def point_at(self, arclength: float) -> GraphPosition:
        """Position `arclength` units from the route start (clamped to ends)."""
        s = min(max(arclength, 0.0), self.total)
        g = self.graph
        if self.total <= POSITION_TOL:
            return self.start
        if self._same_link:
            direction = 1.0 if self._off_end >= self.start.offset else -1.0
            return GraphPosition(
                self.start.u, self.start.v, self.start.offset + direction * s, self.start.span
            )
        if s <= self._head + POSITION_TOL and not self.start.at_junction():
            # Still on the start link, moving toward the exit junction.
            direction = -1.0 if self._exit == self.start.u else 1.0
            off = self.start.offset + direction * min(s, self._head)
            return GraphPosition(self.start.u, self.start.v, min(max(off, 0.0), self.start.span), self.start.span)
        s_mid = s - self._head
        mid_len = self._mid_len
        if s_mid <= mid_len + POSITION_TOL and len(self._mid_path) > 1:
            return g.point_at(self._mid_path, min(s_mid, mid_len))
        if self.end.at_junction():
            return self.end
        # On the end link, moving away from the enter junction toward the point.
        s_tail = min(max(s_mid - mid_len, 0.0), self._tail)
        direction = 1.0 if self._enter == self.end.u else -1.0
        off = (0.0 if self._enter == self.end.u else self.end.span) + direction * s_tail
        return GraphPosition(self.end.u, self.end.v, min(max(off, 0.0), self.end.span), self.end.span)

    def point_at_fraction(self, fraction: float) -> GraphPosition:
        return self.point_at(fraction * self.total)

    def contains(self, pos: GraphPosition, tol: float = POSITION_TOL) -> bool:
        """Whether `pos` lies on this route (within tolerance)."""
        g = self.graph
        d = g.geodesic_distance(self.start, pos) + g.geodesic_distance(pos, self.end)
        return abs(d - self.total) <= max(tol, 1e-9 * max(1.0, self.total))

    def arclength_of(self, pos: GraphPosition) -> float:
        return self.graph.geodesic_distance(self.start, pos)


def build_graph(
    junctions: Iterable[Junction], links: Iterable[Link], root: str
) -> EnvironmentGraph:
    """Validate and assemble an EnvironmentGraph.

    Rejects duplicate ids, nonpositive or non-finite lengths and radii,
    dangling link endpoints, cycles, disconnected components and a missing
    root.
    """
    jmap: dict[str, Junction] = {}
    for j in junctions:
        if j.id in jmap:
            raise GraphError(f"duplicate junction id: {j.id!r}")
        if j.gateway is not None:
            if not 0 < j.gateway.radius < math.inf:
                raise GraphError(
                    f"gateway {j.gateway.id!r} has non-finite or nonpositive radius {j.gateway.radius}"
                )
            if j.gateway.junction != j.id:
                raise GraphError(
                    f"gateway {j.gateway.id!r} attached to {j.gateway.junction!r}, not {j.id!r}"
                )
        jmap[j.id] = j
    if not jmap:
        raise GraphError("graph needs at least one junction")
    gw_ids = [j.gateway.id for j in jmap.values() if j.gateway is not None]
    if len(gw_ids) != len(set(gw_ids)):
        raise GraphError("duplicate gateway id")
    link_list = list(links)
    seen_pairs: set[frozenset[str]] = set()
    for link in link_list:
        if link.u == link.v:
            raise GraphError(f"self-loop at {link.u!r}")
        if not 0 < link.length < math.inf:
            raise GraphError(
                f"non-finite or nonpositive length {link.length} on link {link.u!r}-{link.v!r}"
            )
        for end in (link.u, link.v):
            if end not in jmap:
                raise GraphError(f"link endpoint {end!r} is not a junction")
        pair = frozenset((link.u, link.v))
        if pair in seen_pairs:
            raise GraphError(f"cycle detected: duplicate link {link.u!r}-{link.v!r}")
        seen_pairs.add(pair)
    if root not in jmap:
        raise GraphError(f"root missing: {root!r}")
    if len(link_list) > len(jmap) - 1:
        raise GraphError("cycle detected: more links than a tree allows")
    if len(link_list) < len(jmap) - 1:
        raise GraphError("disconnected: fewer links than a tree requires")
    graph = EnvironmentGraph(jmap, link_list, root)
    if len(graph.parent) != len(jmap):
        raise GraphError("disconnected: not all junctions reachable from root")
    return graph


# -- JSON graph files ---------------------------------------------------------

_GRAPH_KEYS = {"junctions", "links", "root"}
_JUNCTION_KEYS = {"id", "gateway"}
_GATEWAY_KEYS = {"id", "radius"}
_LINK_KEYS = {"u", "v", "length"}


def _check_keys(obj: dict, allowed: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise GraphError(f"unknown field(s) {sorted(unknown)} in {what}")


def graph_from_json(obj: dict) -> EnvironmentGraph:
    if not isinstance(obj, dict):
        raise GraphError("graph file must contain a JSON object")
    _check_keys(obj, _GRAPH_KEYS, "graph object")
    for key in _GRAPH_KEYS:
        if key not in obj:
            raise GraphError(f"graph object missing field {key!r}")
    junctions = []
    for jobj in obj["junctions"]:
        _check_keys(jobj, _JUNCTION_KEYS, "junction object")
        gateway = None
        if jobj.get("gateway") is not None:
            gobj = jobj["gateway"]
            _check_keys(gobj, _GATEWAY_KEYS, "gateway object")
            gateway = Gateway(str(gobj["id"]), str(jobj["id"]), float(gobj["radius"]))
        junctions.append(Junction(str(jobj["id"]), gateway))
    links = [Link(str(l["u"]), str(l["v"]), float(l["length"])) for l in obj["links"]]
    for lobj in obj["links"]:
        _check_keys(lobj, _LINK_KEYS, "link object")
    return build_graph(junctions, links, str(obj["root"]))


def graph_to_json(graph: EnvironmentGraph) -> dict:
    junctions: list[dict[str, Any]] = []
    for j in graph.junctions.values():
        jobj: dict[str, Any] = {"id": j.id}
        if j.gateway is not None:
            jobj["gateway"] = {"id": j.gateway.id, "radius": j.gateway.radius}
        junctions.append(jobj)
    return {
        "junctions": junctions,
        "links": [{"u": l.u, "v": l.v, "length": l.length} for l in graph.links],
        "root": graph.root,
    }


def load_graph(text: str) -> EnvironmentGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON in graph file: {exc}") from exc
    return graph_from_json(obj)
