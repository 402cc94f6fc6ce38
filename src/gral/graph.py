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
from typing import Any, Iterable, NamedTuple, Optional

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


class GraphPosition(NamedTuple):
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
            offset = check_number(obj["offset"], "offset")
            pos = cls(
                check_string(obj["from"], "position from"),
                check_string(obj["to"], "position to"),
                offset,
                check_number(obj["span"], "span"),
            )
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
        self._gateway_cache: dict[tuple[str, str], tuple[tuple[Gateway, float, float], ...]] = {}
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

    def link_gateways(self, u: str, v: str) -> tuple[tuple[Gateway, float, float], ...]:
        """Gateways a point on link (u, v) can be in range of, by gateway id.

        Each entry is `(gateway, d(u, g), d(v, g))` for the gateway's junction
        g. A point `x` from u on the link is `min(x + d(u, g), (L - x) + d(v, g))`
        from g, which is never below `min(d(u, g), d(v, g))`, so a gateway
        whose radius is below that bound is left out. A junction j is the
        link (j, j). Filled lazily, once per link and orientation.
        """
        entry = self._gateway_cache.get((u, v))
        if entry is None:
            near = []
            for gw_id in sorted(self.gateways):
                gateway = self.gateways[gw_id]
                du = self.junction_distance(u, gateway.junction)
                dv = self.junction_distance(v, gateway.junction)
                if min(du, dv) <= gateway.radius:
                    near.append((gateway, du, dv))
            entry = self._gateway_cache[(u, v)] = tuple(near)
        return entry

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

    def link_lengths(self, path: list[str]) -> list[float]:
        return [self.link_length(a, b) for a, b in zip(path, path[1:])]

    def path_length(self, path: list[str]) -> float:
        return sum(self.link_lengths(path))

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
        lengths = self.link_lengths(path)
        total = sum(lengths)
        if offset < -POSITION_TOL or offset > total + POSITION_TOL:
            raise GraphError(f"offset {offset} outside path of length {total}")
        if len(path) == 1:
            return GraphPosition(path[0], path[0], 0.0, 0.0)
        return _walk(path, lengths, min(max(offset, 0.0), total))

    def canonicalize(self, pos: GraphPosition) -> GraphPosition:
        """Normalize an arbitrary valid position to canonical link-local form.

        A position that is already canonical is returned as is.
        """
        if pos.u != pos.v:
            length = self._link_length.get((pos.u, pos.v))
            if length is not None and pos.span == length and 0.0 <= pos.offset <= length:
                return pos
        self.require_junction(pos.u)
        self.require_junction(pos.v)
        if not (math.isfinite(pos.offset) and math.isfinite(pos.span)):
            raise GraphError(f"non-finite offset or span in position {pos}")
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

    @staticmethod
    def _offset_on_link_of(a: GraphPosition, b: GraphPosition) -> Optional[float]:
        # b's offset measured from a.u when both lie inside the same link, else None.
        if a.u == a.v or b.u == b.v:
            return None
        if a.u == b.u and a.v == b.v:
            return b.offset
        if a.u == b.v and a.v == b.u:
            return b.span - b.offset
        return None

    def _anchor_path(self, a: GraphPosition, b: GraphPosition) -> tuple[float, str, str, float, float]:
        # The shortest way between two canonical points through link ends:
        # (length, junction left from a, junction entered toward b, leg on a's
        # link, leg on b's link). Ties go to the first anchor pair, u before v.
        best = None
        for ja, da in self._anchor_offsets(a):
            for jb, db in self._anchor_offsets(b):
                d = da + self.junction_distance(ja, jb) + db
                if best is None or d < best[0]:
                    best = (d, ja, jb, da, db)
        assert best is not None
        return best

    def geodesic_distance(self, p1: GraphPosition, p2: GraphPosition) -> float:
        """Length of the unique path between two on-network points."""
        a = self.canonicalize(p1)
        b = self.canonicalize(p2)
        off_b = self._offset_on_link_of(a, b)
        if off_b is not None:
            return abs(a.offset - off_b)
        return self._anchor_path(a, b)[0]

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
        self._off_end = graph._offset_on_link_of(self.start, self.end)
        if self._off_end is not None:
            self.total = abs(self.start.offset - self._off_end)
        else:
            path = graph._anchor_path(self.start, self.end)
            self.total, self._exit, self._enter, self._head, self._tail = path
            self._mid_path = graph.shortest_path(self._exit, self._enter)
            self._mid_lengths = graph.link_lengths(self._mid_path)
            self._mid_len = sum(self._mid_lengths)

    def point_at(self, arclength: float) -> GraphPosition:
        """Position `arclength` units from the route start (clamped to ends)."""
        s = min(max(arclength, 0.0), self.total)
        if self.total <= POSITION_TOL:
            return self.start
        if self._off_end is not None:
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
        if s_mid <= mid_len + POSITION_TOL and self._mid_lengths:
            return _walk(self._mid_path, self._mid_lengths, min(max(s_mid, 0.0), mid_len))
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


def _walk(path: list[str], lengths: list[float], remaining: float) -> GraphPosition:
    # The point `remaining` units along `path`, whose links have `lengths`;
    # `remaining` is already clamped to [0, sum(lengths)]. A point within
    # tolerance of an interior junction lands at offset 0 on the outgoing link.
    last = len(lengths) - 1
    for i, length in enumerate(lengths):
        if remaining < length - POSITION_TOL or i == last:
            return GraphPosition(path[i], path[i + 1], min(remaining, length), length)
        remaining -= length
        if remaining < POSITION_TOL:
            remaining = 0.0
    raise AssertionError("unreachable")


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


def check_object(obj: object, allowed: set[str], required: set[str], what: str) -> dict:
    """`obj` if it is a JSON object with only `allowed` and all `required` fields."""
    if not isinstance(obj, dict):
        raise GraphError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise GraphError(f"unknown field(s) {sorted(unknown)} in {what}")
    missing = required - set(obj)
    if missing:
        raise GraphError(f"{what} missing field {min(missing)!r}")
    return obj


def check_array(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise GraphError(f"{what}: expected a JSON array, got {type(value).__name__}")
    return value


def check_number(value: Any, what: str) -> float:
    # A JSON number; true, false and numeric strings fail.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond float range
            pass
    raise GraphError(f"{what} must be a number, got {value!r}")


def check_integer(value: Any, what: str) -> int:
    # A JSON number with no fractional part; 3.0 reads as 3, 2.7 and NaN fail.
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise GraphError(f"{what} must be an integer, got {value!r}")


def check_string(value: Any, what: str) -> str:
    # A JSON string; numbers, null, true and false fail rather than turn into ids.
    if isinstance(value, str):
        return value
    raise GraphError(f"{what} must be a string, got {value!r}")


def graph_from_json(obj: dict) -> EnvironmentGraph:
    check_object(obj, _GRAPH_KEYS, _GRAPH_KEYS, "graph object")
    junctions = []
    for jobj in check_array(obj["junctions"], "graph junctions"):
        check_object(jobj, _JUNCTION_KEYS, {"id"}, "junction object")
        junction = check_string(jobj["id"], "junction id")
        gateway = None
        if jobj.get("gateway") is not None:
            gobj = check_object(jobj["gateway"], _GATEWAY_KEYS, _GATEWAY_KEYS, "gateway object")
            radius = check_number(gobj["radius"], "gateway radius")
            gateway = Gateway(check_string(gobj["id"], "gateway id"), junction, radius)
        junctions.append(Junction(junction, gateway))
    links = []
    for lobj in check_array(obj["links"], "graph links"):
        check_object(lobj, _LINK_KEYS, _LINK_KEYS, "link object")
        length = check_number(lobj["length"], "link length")
        u, v = check_string(lobj["u"], "link end"), check_string(lobj["v"], "link end")
        links.append(Link(u, v, length))
    return build_graph(junctions, links, check_string(obj["root"], "graph root"))


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
