"""Weighted-tree environment graph: geodesics, on-network positions, confluences.

The pipe network is a tree of junctions connected by links of known length.
Some junctions carry a stationary radio gateway with a known range. Positions
of drifting sensors are expressed relative to the graph: a junction pair plus
an arclength offset along the (unique) path between them.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any, Iterable, NamedTuple, Optional, Sequence


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
        if unknown := obj.keys() - {"from", "to", "offset", "span"}:
            raise GraphError(f"unknown field(s) {sorted(unknown)} in position object")
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
        self._gateway_cache: dict[tuple[str, str], tuple[float, float, tuple]] = {}
        self._path_cache: dict[tuple[str, str], tuple[tuple, tuple, float, tuple]] = {}
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
        # `slack` bounds the rounding of sums of lengths, which grows with the
        # network (near 1e10 it outgrows a fixed 1e-6). The largest root
        # distance plus the longest link bounds every level, offset and
        # junction distance; 16 ulps of it exceed the rounding of the few
        # sums that `observe`'s range tests, the quiet bands of
        # `link_gateways` and the bounded rectification scan compare.
        extent = max(self.dist_to_root.values()) + max((l.length for l in links), default=0.0)
        self.slack = 16 * sys.float_info.epsilon * extent

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

    def link_gateways(
        self, u: str, v: str
    ) -> tuple[float, float, tuple[tuple[Gateway, float, float], ...]]:
        """`(quiet_from, quiet_to, near)`: the gateways a point on link (u, v)
        can be in range of, by gateway id, and the offsets from u at which it
        hears none of them.

        Each entry of `near` is `(gateway, d(u, g), d(v, g))` for the
        gateway's junction g. A point `x` from u on the link is
        `min(x + d(u, g), (L - x) + d(v, g))` from g, which is never below
        `min(d(u, g), d(v, g))`, so a gateway whose radius is below that
        bound is left out. The point hears no gateway of `near` when
        `quiet_from < x < quiet_to`: each side's bound `r - d(u, g)` and
        `L - (r - d(v, g))` moves inward by `slack`, which exceeds the
        rounding of those sums. A junction j is the link (j, j). Filled
        lazily, once per link and orientation.
        """
        entry = self._gateway_cache.get((u, v))
        if entry is None:
            near = []
            span = self._link_length.get((u, v), 0.0)
            quiet_from, quiet_to = -math.inf, math.inf
            for gw_id in sorted(self.gateways):
                gateway = self.gateways[gw_id]
                du = self.junction_distance(u, gateway.junction)
                dv = self.junction_distance(v, gateway.junction)
                if min(du, dv) <= gateway.radius:
                    near.append((gateway, du, dv))
                    quiet_from = max(quiet_from, gateway.radius - du + self.slack)
                    quiet_to = min(quiet_to, span - (gateway.radius - dv) - self.slack)
            entry = self._gateway_cache[(u, v)] = (quiet_from, quiet_to, tuple(near))
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

    def link_lengths(self, path: Sequence[str]) -> list[float]:
        return [self.link_length(a, b) for a, b in zip(path, path[1:])]

    def junction_path(
        self, u: str, v: str
    ) -> tuple[tuple[str, ...], tuple[float, ...], float, tuple[float, ...]]:
        """`(path, lengths, total, stops)` between two junctions, memoized.

        `path` is `shortest_path(u, v)`, `lengths` its `link_lengths`, `total`
        their left-fold sum and `stops` each length less `POSITION_TOL`, the
        bounds of `_walk`'s steps. Filled lazily, once per ordered pair of
        junction ids, so one `shortest_path` serves every route between the
        two; the tuples are shared and never change.
        """
        entry = self._path_cache.get((u, v))
        if entry is None:
            path = tuple(self.shortest_path(u, v))
            lengths = tuple(self.link_lengths(path))
            stops = tuple(length - POSITION_TOL for length in lengths)
            entry = self._path_cache[(u, v)] = (path, lengths, _add_up(lengths), stops)
        return entry

    # -- positions ----------------------------------------------------------

    def position_at(self, junction: str) -> GraphPosition:
        self.require_junction(junction)
        return GraphPosition(junction, junction, 0.0, 0.0)

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
        # Several links: walk the path. A point landing exactly on an interior
        # junction is reported with offset 0 on the outgoing link.
        path, lengths, total, _ = self.junction_path(pos.u, pos.v)
        if abs(total - pos.span) > 1e-6:
            raise GraphError(f"position span {pos.span} != path length {total} for {pos}")
        if pos.offset < -POSITION_TOL or pos.offset > total + POSITION_TOL:
            raise GraphError(f"offset {pos.offset} outside path of length {total}")
        return _walk(path, lengths, min(max(pos.offset, 0.0), total))

    def geodesic_distance(self, p1: GraphPosition, p2: GraphPosition) -> float:
        """Length of the unique path between two on-network points.

        A canonical position (a link with its exact length as span and an
        offset within it, or a junction `(j, j, 0, 0)`) is read as it is; any
        other goes through `canonicalize` and its checks. Two canonical
        points on one link in one orientation are `abs(o1 - o2)` apart, read
        after the one length lookup that checks the first point. Otherwise
        the sums are those of `Route`: `(da + d(ja, jb)) + db` for each pair
        of link ends, u before v on each side, the first strict minimum
        winning.
        """
        lengths = self._link_length
        u1, v1, o1, s1 = p1
        u2, v2, o2, s2 = p2
        if u1 != v1:
            length = lengths.get((u1, v1))
            if length != s1 or not 0.0 <= o1 <= s1:
                u1, v1, o1, s1 = self.canonicalize(p1)
            elif u1 == u2 and v1 == v2 and length == s2 and 0.0 <= o2 <= s2:
                return abs(o1 - o2)
        elif o1 != 0.0 or s1 != 0.0 or u1 not in self.junctions:
            u1, v1, o1, s1 = self.canonicalize(p1)
        if u2 != v2:
            if lengths.get((u2, v2)) != s2 or not 0.0 <= o2 <= s2:
                u2, v2, o2, s2 = self.canonicalize(p2)
        elif o2 != 0.0 or s2 != 0.0 or u2 not in self.junctions:
            u2, v2, o2, s2 = self.canonicalize(p2)
        # A junction is its own only anchor, at distance 0.0.
        if u1 == v1:
            o1 = 0.0
        if u2 == v2:
            o2 = 0.0
        elif u1 != v1:
            if u1 == u2 and v1 == v2:
                return abs(o1 - o2)
            if u1 == v2 and v1 == u2:
                return abs(o1 - (s2 - o2))
        cache = self._dist_cache
        d = cache.get((u1, u2))
        best = (o1 + (self.junction_distance(u1, u2) if d is None else d)) + o2
        if u2 != v2:
            d = cache.get((u1, v2))
            d = (o1 + (self.junction_distance(u1, v2) if d is None else d)) + (s2 - o2)
            if d < best:
                best = d
        if u1 != v1:
            tail = s1 - o1
            d = cache.get((v1, u2))
            d = (tail + (self.junction_distance(v1, u2) if d is None else d)) + o2
            if d < best:
                best = d
            if u2 != v2:
                d = cache.get((v1, v2))
                d = (tail + (self.junction_distance(v1, v2) if d is None else d)) + (s2 - o2)
                if d < best:
                    best = d
        return best

    def route(self, start: GraphPosition, end: GraphPosition) -> "Route":
        return Route(self, start, end)

    def on_path(
        self, start: GraphPosition, pos: GraphPosition, end: GraphPosition, tol: float = POSITION_TOL
    ) -> bool:
        """Whether `pos` lies on the path from `start` to `end` (within tolerance).

        The detour through `pos` may exceed the direct geodesic by at most
        `max(tol, 1e-9 * max(1.0, total))`. No route is built: the direct
        geodesic has the bits of `Route.total` for the same ends.
        """
        total = self.geodesic_distance(start, end)
        d = self.geodesic_distance(start, pos) + self.geodesic_distance(pos, end)
        return abs(d - total) <= max(tol, 1e-9 * max(1.0, total))

    def confluence_vertex(self, v_a: str, v_b: str, v_f: str) -> str:
        """Tree median of v_a, v_b and v_f: the one junction on all three paths between them.

        Walking from v_a toward v_f, it is the first junction that also lies
        on the path from v_b to v_f, so two drifting nodes bound for v_f cannot
        have met upstream of it. Of the three pairwise lowest common ancestors
        under the root, two coincide and the third, the deepest, is the median.
        """
        for j in (v_a, v_b, v_f):
            self.require_junction(j)
        lcas = (self._lca(v_a, v_b), self._lca(v_a, v_f), self._lca(v_b, v_f))
        return max(lcas, key=self.depth.__getitem__)


class Route:
    """The unique path between two on-network points, parameterized by arclength."""

    def __init__(self, graph: EnvironmentGraph, start: GraphPosition, end: GraphPosition):
        self.start = a = graph.canonicalize(start)
        self.end = b = graph.canonicalize(end)
        # Decompose into: leg on the start link, junction-to-junction path,
        # leg on the end link. Degenerate legs collapse to zero length. The
        # total comes out of the same arithmetic as `geodesic_distance`, and
        # the middle path out of the graph's memo (`junction_path`).
        if a.u != a.v and (b.u, b.v) in ((a.u, a.v), (a.v, a.u)):
            # Both inside one link; `_off_end` is the end's offset from a.u.
            self._off_end = b.offset if b.u == a.u else b.span - b.offset
            self.total = abs(a.offset - self._off_end)
            return
        self._off_end = None
        # The ends of each point's link with its distance to them, u before v;
        # a junction is its own only end. The first strict minimum wins.
        ends_a, ends_b = (
            ((p.u, 0.0),) if p.u == p.v else ((p.u, p.offset), (p.v, p.span - p.offset))
            for p in (a, b)
        )
        best = None
        for ja, da in ends_a:
            for jb, db in ends_b:
                d = (da + graph.junction_distance(ja, jb)) + db
                if best is None or d < best[0]:
                    best = (d, ja, jb, da, db)
        self.total, self._exit, self._enter, self._head, self._tail = best
        self._mid_path, self._mid_lengths, self._mid_len, self._mid_stops = graph.junction_path(
            self._exit, self._enter
        )

    def point_at(self, arclength: float) -> GraphPosition:
        """Position `arclength` units from the route start (clamped to ends)."""
        return self.points_at((arclength,))[0]

    def points_at(self, arclengths: Iterable[float]) -> list[GraphPosition]:
        """Positions `arclengths` units from the route start, each clamped to the ends.

        One loop places the whole batch and reads the route's legs once. A
        point stays on its leg's link: its offset is clamped to [0, span],
        also on a route within one link. Clamps are conditional expressions,
        which give the bits `min(max(x, lo), hi)` gives (±0.0, NaN and ±inf
        included), and positions are built by `tuple.__new__`, so neither
        costs a call per point. A point on the middle path is walked in
        place, with `_walk`'s steps in `_walk`'s order, so it gets the bits
        `canonicalize` gives it.
        """
        total = self.total
        start = self.start
        if total <= POSITION_TOL:
            return [start for _ in arclengths]
        new = tuple.__new__
        u, v, offset, span = start
        out: list[GraphPosition] = []
        append = out.append
        if self._off_end is not None:
            direction = 1.0 if self._off_end >= offset else -1.0
            for x in arclengths:
                off = offset + direction * (0.0 if x < 0.0 else total if x > total else x)
                off = 0.0 if off < 0.0 else span if off > span else off
                append(new(GraphPosition, (u, v, off, span)))
            return out
        # Start link: from the start point toward the exit junction.
        head = self._head
        head_limit = head + POSITION_TOL if u != v else -math.inf
        head_dir = -1.0 if self._exit == u else 1.0
        # Junction-to-junction path.
        mid_path, mid_lengths, mid_len = self._mid_path, self._mid_lengths, self._mid_len
        mid_limit = mid_len + POSITION_TOL if mid_lengths else -math.inf
        mid_last = len(mid_lengths) - 1
        mid_stops = self._mid_stops
        # End link: away from the enter junction toward the end point.
        end_u, end_v, _, end_span = self.end
        tail = self._tail
        tail_dir = 1.0 if self._enter == end_u else -1.0
        tail_from = 0.0 if self._enter == end_u else end_span
        for x in arclengths:
            s = 0.0 if x < 0.0 else total if x > total else x
            if s <= head_limit:
                off = offset + head_dir * (head if head < s else s)
                off = 0.0 if off < 0.0 else span if off > span else off
                append(new(GraphPosition, (u, v, off, span)))
                continue
            s -= head
            if s <= mid_limit:
                s = 0.0 if s < 0.0 else mid_len if s > mid_len else s
                i = 0
                while i < mid_last and not s < mid_stops[i]:
                    s -= mid_lengths[i]
                    if s < POSITION_TOL:
                        s = 0.0
                    i += 1
                length = mid_lengths[i]
                off = length if length < s else s
                append(new(GraphPosition, (mid_path[i], mid_path[i + 1], off, length)))
                continue
            s -= mid_len
            off = tail_from + tail_dir * (0.0 if s < 0.0 else tail if s > tail else s)
            off = 0.0 if off < 0.0 else end_span if off > end_span else off
            append(new(GraphPosition, (end_u, end_v, off, end_span)))
        return out


def _add_up(lengths: Iterable[float]) -> float:
    # A plain left-to-right sum. From Python 3.12 the builtin `sum` compensates
    # float rounding, which would make positions differ between interpreters.
    return reduce(add, lengths, 0)


def _walk(path: Sequence[str], lengths: Sequence[float], remaining: float) -> GraphPosition:
    # The point `remaining` units along `path`, whose links have `lengths`;
    # `remaining` is already clamped to [0, sum(lengths)]. A point within
    # tolerance of an interior junction lands at offset 0 on the outgoing link.
    # `Route.points_at` repeats these steps in this order inline, so both give
    # a point the same bits.
    last = len(lengths) - 1
    for i, length in enumerate(lengths):
        if remaining < length - POSITION_TOL or i == last:
            off = length if length < remaining else remaining
            return tuple.__new__(GraphPosition, (path[i], path[i + 1], off, length))
        remaining -= length
        if remaining < POSITION_TOL:
            remaining = 0.0
    raise AssertionError("unreachable")


def build_graph(
    junctions: Iterable[Junction], links: Iterable[Link], root: str
) -> EnvironmentGraph:
    """Validate and assemble an EnvironmentGraph.

    Checks types with `check_string` and `check_number` first, then rejects
    duplicate ids, nonpositive or non-finite lengths and radii, dangling link
    endpoints, cycles, disconnected components and a missing root.
    """
    checked, link_list = [], []
    for j in junctions:
        jid, gateway = check_string(j.id, "junction id"), j.gateway
        if gateway is not None:
            radius = check_number(gateway.radius, "gateway radius")
            gateway = Gateway(check_string(gateway.id, "gateway id"), gateway.junction, radius)
        checked.append(Junction(jid, gateway))
    for link in links:
        length = check_number(link.length, "link length")
        u, v = check_string(link.u, "link end"), check_string(link.v, "link end")
        link_list.append(Link(u, v, length))
    root = check_string(root, "graph root")
    jmap: dict[str, Junction] = {}
    for j in checked:
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
    # Ids are interned: json.loads makes a new object for each occurrence of a
    # string value, and dict lookups by id compare faster when equal ids are one
    # object.
    if isinstance(value, str):
        return sys.intern(str(value))
    raise GraphError(f"{what} must be a string, got {value!r}")


def graph_from_json(obj: dict) -> EnvironmentGraph:
    check_object(obj, _GRAPH_KEYS, _GRAPH_KEYS, "graph object")
    junctions = []
    for jobj in check_array(obj["junctions"], "graph junctions"):
        check_object(jobj, _JUNCTION_KEYS, {"id"}, "junction object")
        gateway = None
        if jobj.get("gateway") is not None:
            gobj = check_object(jobj["gateway"], _GATEWAY_KEYS, _GATEWAY_KEYS, "gateway object")
            gateway = Gateway(gobj["id"], jobj["id"], gobj["radius"])
        junctions.append(Junction(jobj["id"], gateway))
    links = []
    for lobj in check_array(obj["links"], "graph links"):
        check_object(lobj, _LINK_KEYS, _LINK_KEYS, "link object")
        links.append(Link(lobj["u"], lobj["v"], lobj["length"]))
    return build_graph(junctions, links, obj["root"])


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
