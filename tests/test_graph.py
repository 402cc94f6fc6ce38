import json
import math
import random
import struct

import pytest

from gral.graph import (
    POSITION_TOL,
    Gateway,
    GraphError,
    GraphPosition,
    Junction,
    Link,
    _add_up,
    _walk,
    build_graph,
    graph_to_json,
    load_graph,
)
from gral.packages import LocalizedMeasurement
from gral.sim import GroundTruthRecord, make_scenario

from conftest import (
    enumerate_simple_paths,
    gated_tree_scenario,
    oracle_confluence,
    random_position,
    random_tree,
    reference_geodesic,
    reference_point_at,
    scaled_graph,
)


def test_build_minimal_tree():
    g = build_graph([Junction("a"), Junction("b")], [Link("a", "b", 100.0)], "b")
    assert g.root == "b"
    assert g.junction_distance("a", "b") == 100.0


def test_build_cycle_detected():
    with pytest.raises(GraphError, match="cycle detected"):
        build_graph(
            [Junction("a"), Junction("b"), Junction("c")],
            [Link("a", "b", 1.0), Link("b", "c", 1.0), Link("c", "a", 1.0)],
            "a",
        )


def test_build_scenario_chain(chain_graph):
    assert len(chain_graph.junctions) == 3
    assert _add_up(chain_graph.link_lengths(["a", "b", "c"])) == 100.0
    assert chain_graph.gateways["gw-b"].radius == pytest.approx(math.sqrt(10.0))


@pytest.mark.parametrize(
    "junctions, links, root, message",
    [
        ([Junction("a"), Junction("a")], [], "a", "duplicate junction"),
        ([Junction("a"), Junction("b")], [Link("a", "b", 0.0)], "a", "nonpositive length"),
        ([Junction("a"), Junction("b")], [Link("a", "b", -3.0)], "a", "nonpositive length"),
        ([Junction("a"), Junction("b")], [Link("a", "x", 1.0)], "a", "not a junction"),
        ([Junction("a"), Junction("b")], [Link("a", "b", 1.0)], "zz", "root missing"),
        ([Junction("a"), Junction("b"), Junction("c")], [Link("a", "b", 1.0)], "a", "disconnected"),
        ([Junction("a")], [Link("a", "a", 1.0)], "a", "self-loop"),
        (
            [Junction(j) for j in "abcd"],
            [Link("a", "b", 1.0), Link("b", "c", 1.0), Link("c", "a", 1.0)],
            "a",
            "disconnected: not all junctions reachable from root",
        ),
        (
            [Junction("a", Gateway("g", "b", 1.0)), Junction("b")],
            [Link("a", "b", 1.0)],
            "a",
            "gateway 'g' attached to 'b', not 'a'",
        ),
        ([], [], "a", "graph needs at least one junction"),
    ],
)
def test_build_rejects(junctions, links, root, message):
    with pytest.raises(GraphError, match=message):
        build_graph(junctions, links, root)


def test_build_rejects_duplicate_parallel_link():
    with pytest.raises(GraphError, match="cycle detected"):
        build_graph(
            [Junction("a"), Junction("b")],
            [Link("a", "b", 1.0), Link("b", "a", 2.0)],
            "a",
        )


def test_shortest_path_identity(chain_graph):
    assert chain_graph.shortest_path("a", "a") == ["a"]


def test_shortest_path_chain(chain_graph):
    assert chain_graph.shortest_path("a", "c") == ["a", "b", "c"]
    assert chain_graph.shortest_path("c", "a") == ["c", "b", "a"]


def test_shortest_path_y(y_graph):
    # In a tree the simple path is unique, so exhaustive enumeration is an oracle.
    assert enumerate_simple_paths(y_graph, "a", "f") == [["a", "c", "f"]]
    assert y_graph.shortest_path("a", "f") == ["a", "c", "f"]


def test_shortest_path_unknown_junction(chain_graph):
    with pytest.raises(GraphError, match="unknown junction"):
        chain_graph.shortest_path("a", "nope")


def test_shortest_path_matches_bruteforce_on_random_trees():
    rng = random.Random(1)
    for _ in range(25):
        g = random_tree(rng, rng.randint(2, 10))
        ids = sorted(g.junctions)
        for _ in range(10):
            u, v = rng.choice(ids), rng.choice(ids)
            paths = enumerate_simple_paths(g, u, v)
            assert len(paths) == 1  # tree property
            path = g.shortest_path(u, v)
            assert path == paths[0]
            assert len(set(path)) == len(path)  # never repeats a vertex


def test_canonicalize_roundtrips_multi_link_offset():
    rng = random.Random(2)
    multi_link = 0
    for _ in range(40):
        g = random_tree(rng, rng.randint(2, 12))
        ids = sorted(g.junctions)
        u, v = rng.choice(ids), rng.choice(ids)
        path = g.shortest_path(u, v)
        total = _add_up(g.link_lengths(path))
        if total == 0:
            continue
        offset = rng.uniform(0.0, total)
        pos = g.canonicalize(GraphPosition(u, v, offset, total))
        back = g.geodesic_distance(g.position_at(path[0]), pos)
        assert back == pytest.approx(offset, abs=1e-9)
        multi_link += len(path) > 2
    assert multi_link > 0


def test_geodesic_same_point_zero(chain_graph):
    p = GraphPosition("a", "b", 12.5, 50.0)
    assert chain_graph.geodesic_distance(p, p) == 0.0


def test_geodesic_same_link():
    g = build_graph([Junction("a"), Junction("b")], [Link("a", "b", 100.0)], "b")
    p1 = GraphPosition("a", "b", 10.0, 100.0)
    p2 = GraphPosition("a", "b", 60.0, 100.0)
    assert g.geodesic_distance(p1, p2) == 50.0
    flipped = GraphPosition("b", "a", 40.0, 100.0)  # same point as p2
    assert g.geodesic_distance(p1, flipped) == 50.0


def test_geodesic_across_branches(y_graph):
    # Points on different branches: path runs through the junction c.
    p1 = GraphPosition("a", "c", 1.0, 3.0)  # 2 from c
    p2 = GraphPosition("b", "c", 1.5, 4.0)  # 2.5 from c
    assert y_graph.geodesic_distance(p1, p2) == pytest.approx(4.5)


def test_geodesic_symmetry_and_triangle():
    rng = random.Random(3)
    checked = 0
    while checked < 1000:
        g = random_tree(rng, rng.randint(2, 12))
        for _ in range(20):
            p1, p2, p3 = (random_position(rng, g) for _ in range(3))
            d12 = g.geodesic_distance(p1, p2)
            d21 = g.geodesic_distance(p2, p1)
            d13 = g.geodesic_distance(p1, p3)
            d23 = g.geodesic_distance(p2, p3)
            assert d12 == pytest.approx(d21, abs=1e-9)
            assert d13 <= d12 + d23 + 1e-9
            checked += 1


def test_route_point_interpolation(y_graph):
    start = GraphPosition("a", "c", 1.0, 3.0)
    end = GraphPosition("c", "f", 2.0, 5.0)
    route = y_graph.route(start, end)
    assert route.total == pytest.approx(4.0)
    mid = route.point_at(2.0)
    assert y_graph.geodesic_distance(start, mid) == pytest.approx(2.0)
    assert y_graph.geodesic_distance(mid, end) == pytest.approx(2.0)
    assert y_graph.on_path(start, mid, end)
    off = GraphPosition("b", "c", 0.5, 4.0)
    assert not y_graph.on_path(start, off, end)
    # The detour through a point may exceed the direct path by at most
    # max(tol, 1e-9 * max(1.0, total)). On a 1e6-long path that bound is
    # 1e-3 for tol=0: a point 4e-4 up a side stub (detour 8e-4) is on it,
    # one 6e-4 up (detour 1.2e-3) is not unless tol covers it.
    long = build_graph(
        [Junction("a"), Junction("m"), Junction("f"), Junction("s")],
        [Link("a", "m", 5e5), Link("m", "f", 5e5), Link("s", "m", 1.0)],
        "f",
    )
    at = y_graph.position_at
    cases = [
        (y_graph, at("a"), at("c"), at("f"), POSITION_TOL, True),
        (y_graph, at("a"), GraphPosition("c", "a", 2.0, 3.0), at("f"), POSITION_TOL, True),
        (y_graph, at("a"), at("b"), at("f"), POSITION_TOL, False),
        (y_graph, at("a"), at("a"), at("a"), 0.0, True),
        (y_graph, at("a"), GraphPosition("a", "c", 1e-10, 3.0), at("a"), 0.0, True),
        (y_graph, at("a"), GraphPosition("a", "c", 1e-8, 3.0), at("a"), 0.0, False),
        # Inside one link, in either orientation of the point.
        (y_graph, GraphPosition("c", "f", 1.0, 5.0), GraphPosition("c", "f", 2.5, 5.0),
         GraphPosition("c", "f", 4.0, 5.0), POSITION_TOL, True),
        (y_graph, GraphPosition("c", "f", 4.0, 5.0), GraphPosition("f", "c", 2.0, 5.0),
         GraphPosition("c", "f", 1.0, 5.0), POSITION_TOL, True),
        (y_graph, GraphPosition("c", "f", 1.0, 5.0), GraphPosition("c", "f", 4.5, 5.0),
         GraphPosition("c", "f", 4.0, 5.0), POSITION_TOL, False),
        (y_graph, GraphPosition("c", "f", 1.0, 5.0), at("c"),
         GraphPosition("c", "f", 4.0, 5.0), POSITION_TOL, False),
        (long, long.position_at("a"), GraphPosition("s", "m", 1.0 - 4e-4, 1.0),
         long.position_at("f"), 0.0, True),
        (long, long.position_at("a"), GraphPosition("s", "m", 1.0 - 6e-4, 1.0),
         long.position_at("f"), 0.0, False),
        (long, long.position_at("a"), GraphPosition("s", "m", 1.0 - 6e-4, 1.0),
         long.position_at("f"), 2e-3, True),
    ]
    for g, a, pos, b, tol, expected in cases:
        assert g.on_path(a, pos, b, tol=tol) is expected, (a, pos, b, tol)


def test_confluence_same_vertex(y_graph):
    assert y_graph.confluence_vertex("a", "a", "f") == "a"


def test_confluence_y(y_graph):
    assert y_graph.confluence_vertex("a", "b", "f") == "c"


def test_confluence_unknown_vertex(y_graph):
    with pytest.raises(GraphError, match="unknown junction"):
        y_graph.confluence_vertex("a", "zz", "f")


def test_confluence_matches_bruteforce():
    rng = random.Random(4)
    for _ in range(100):
        g = random_tree(rng, rng.randint(2, 12))
        ids = sorted(g.junctions)
        v_a, v_b, v_f = (rng.choice(ids) for _ in range(3))
        got = g.confluence_vertex(v_a, v_b, v_f)
        want = oracle_confluence(g, v_a, v_b, v_f)
        assert got == want
        # lies on both paths; no other shared vertex farther from the target
        path_a = g.shortest_path(v_a, v_f)
        path_b = g.shortest_path(v_b, v_f)
        assert got in path_a and got in path_b
        d_got = g.junction_distance(got, v_f)
        for other in set(path_a) & set(path_b):
            assert g.junction_distance(other, v_f) <= d_got + 1e-9


def test_canonicalize_returns_canonical_link_positions_as_is():
    rng = random.Random(5)
    for _ in range(50):
        g = random_tree(rng, rng.randint(2, 10))
        for link in g.links:
            for u, v in ((link.u, link.v), (link.v, link.u)):
                for x in (0.0, link.length / 3, link.length):
                    p = GraphPosition(u, v, x, link.length)
                    assert g.canonicalize(p) is p


@pytest.mark.parametrize(
    "pos, message",
    [
        (GraphPosition("a", "b", 50.0 + 1e-6, 50.0), "outside link"),
        (GraphPosition("a", "b", -1e-6, 50.0), "outside link"),
        (GraphPosition("a", "b", 10.0, 49.0), "span"),
        (GraphPosition("a", "c", 10.0, 50.0), "span"),
        (GraphPosition("a", "c", 100.1, 100.0), "outside path of length 100.0"),
        (GraphPosition("a", "c", -0.5, 100.0), "outside path of length 100.0"),
        (GraphPosition("a", "zz", 10.0, 50.0), "unknown junction"),
        (GraphPosition("zz", "zz", 0.0, 0.0), "unknown junction"),
        (GraphPosition("a", "a", 1.0, 1.0), "nonzero extent"),
        (GraphPosition("a", "b", math.nan, 50.0), "non-finite"),
        (GraphPosition("b", "b", math.nan, 0.0), "non-finite"),
        (GraphPosition("b", "b", 0.0, math.nan), "non-finite"),
    ],
    ids=[
        "past-end",
        "before-start",
        "span",
        "two-links-span",
        "two-links-past-end",
        "two-links-before-start",
        "unknown",
        "unknown-junction",
        "extent",
        "nan-offset",
        "junction-nan-offset",
        "junction-nan-span",
    ],
)
def test_canonicalize_still_rejects(chain_graph, pos, message):
    with pytest.raises(GraphError, match=message):
        chain_graph.canonicalize(pos)


@pytest.mark.parametrize(
    "pos, expected",
    [
        (GraphPosition("a", "b", -1e-10, 50.0), GraphPosition("a", "b", 0.0, 50.0)),
        (GraphPosition("a", "b", 50.0 + 1e-10, 50.0), GraphPosition("a", "b", 50.0, 50.0)),
        (GraphPosition("a", "b", 10.0, 50.0 + 1e-7), GraphPosition("a", "b", 10.0, 50.0)),
        (GraphPosition("a", "c", 60.0, 100.0), GraphPosition("b", "c", 10.0, 50.0)),
        (GraphPosition("b", "b", 0.0, 0.0), GraphPosition("b", "b", 0.0, 0.0)),
        (GraphPosition("a", "c", 0.0, 100.0), GraphPosition("a", "b", 0.0, 50.0)),
        (GraphPosition("a", "c", 50.0, 100.0), GraphPosition("b", "c", 0.0, 50.0)),
        (GraphPosition("a", "c", 75.0, 100.0), GraphPosition("b", "c", 25.0, 50.0)),
        (GraphPosition("a", "c", 100.0, 100.0), GraphPosition("b", "c", 50.0, 50.0)),
        (GraphPosition("c", "a", 100.0, 100.0), GraphPosition("b", "a", 50.0, 50.0)),
    ],
    ids=[
        "offset-below-zero",
        "offset-past-end",
        "span-off",
        "two-links",
        "junction",
        "two-links-path-start",
        "two-links-junction-hit",
        "two-links-interior",
        "two-links-end-of-path",
        "two-links-reversed",
    ],
)
def test_canonicalize_snaps_near_canonical_input_to_a_copy(chain_graph, pos, expected):
    got = chain_graph.canonicalize(pos)
    assert got == expected
    assert got is not pos


def test_position_and_estimate_records_are_frozen_values(chain_graph):
    pos = GraphPosition("a", "b", 10.0, 50.0)
    assert GraphPosition.from_json(pos.to_json()) == pos
    assert hash(GraphPosition("a", "b", 10.0, 50.0)) == hash(pos)
    records = [pos, LocalizedMeasurement("n", 1, 2.0, pos, "gral"), GroundTruthRecord("n", 1, 2, pos)]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    # Error messages name the position by its repr.
    for bad, message in [
        (
            GraphPosition("a", "b", math.nan, 50.0),
            "non-finite offset or span in position GraphPosition(u='a', v='b', offset=nan, span=50.0)",
        ),
        (
            GraphPosition("a", "a", 1.0, 1.0),
            "degenerate position with nonzero extent: GraphPosition(u='a', v='a', offset=1.0, span=1.0)",
        ),
        (
            GraphPosition("a", "c", 10.0, 49.0),
            "position span 49.0 != path length 100.0 for GraphPosition(u='a', v='c', offset=10.0, span=49.0)",
        ),
    ]:
        with pytest.raises(GraphError) as exc:
            chain_graph.canonicalize(bad)
        assert str(exc.value) == message


def test_route_between_junctions_walks_like_point_at():
    # A route from junction to junction walks its middle path with the same
    # sums and snaps as `canonicalize` walking that path: clamped to the sum
    # of its link lengths, also within tolerance of its interior junctions.
    rng = random.Random(11)
    for _ in range(100):
        g = random_tree(rng, rng.randint(3, 10))
        u, v = rng.sample(sorted(g.junctions), 2)
        path = g.shortest_path(u, v)
        route = g.route(g.position_at(u), g.position_at(v))
        marks = [0.0]
        for a, b in zip(path, path[1:]):
            marks.append(marks[-1] + g.link_length(a, b))
        offsets = [rng.uniform(0.0, route.total) for _ in range(5)]
        offsets += [m + eps for m in marks for eps in (-1e-10, 0.0, 1e-10)]
        for s in offsets:
            s = min(max(s, 0.0), route.total)
            lengths = g.link_lengths(path)
            assert route.point_at(s) == _walk(path, lengths, min(s, _add_up(lengths)))


def test_points_at_walks_the_middle_path_with_the_bits_of_walk():
    # `points_at` walks the middle path in its own loop; every point that
    # lands there must have the bits `_walk` gives it. Routes start and end at
    # junctions (no head or tail leg) or at link points (both legs), and their
    # middle paths have two or more links. A NaN arclength fails every leg test
    # and lands on the end link, as `reference_point_at` places it.
    rng = random.Random(29)
    walked = 0
    for _ in range(150):
        g = random_tree(rng, rng.randint(4, 12))
        u, v = rng.sample(sorted(g.junctions), 2)
        starts = [g.position_at(u), random_position(rng, g)]
        ends = [g.position_at(v), random_position(rng, g)]
        for start, end in zip(starts, ends):
            route = g.route(start, end)
            if route._off_end is not None or len(route._mid_lengths) < 2:
                continue
            path, lengths, mid_len = route._mid_path, route._mid_lengths, route._mid_len
            marks = [0.0]  # the path's ends and its interior junctions
            for length in lengths[:-1]:
                marks.append(marks[-1] + length)
            marks.append(mid_len)
            eps = (-POSITION_TOL, -POSITION_TOL / 2, 0.0, POSITION_TOL / 2, POSITION_TOL)
            offsets = [m + e for m in marks for e in eps]
            offsets += [rng.uniform(0.0, mid_len) for _ in range(4)]
            xs = [route._head + s for s in offsets] + [math.nan]
            got = route.points_at(xs)
            assert repr(got[-1]) == repr(reference_point_at(route, math.nan))
            in_head = -math.inf if route.start.at_junction() else route._head + POSITION_TOL
            for x, point in zip(xs[:-1], got):
                s = min(max(x, 0.0), route.total)
                if s <= in_head or s - route._head > mid_len + POSITION_TOL:
                    continue
                s = min(max(s - route._head, 0.0), mid_len)
                assert repr(point) == repr(_walk(path, lengths, s))
                walked += 1
    assert walked > 1000


def test_junction_path_memo_gives_cold_and_warm_routes_the_same_bits():
    # Routes and multi-link positions read their junction-to-junction path
    # from the graph's memo. A route built on a cold memo and one built after
    # the memo holds every pair place each probe arclength with the same
    # bits, and `canonicalize` walks a multi-link position to the same bits.
    # The memo's entries are the path, its link lengths, their left fold and
    # `_walk`'s stops, keyed by the ordered pair of junction ids.
    rng = random.Random(41)
    routes = spans = 0
    for _ in range(100):
        g = random_tree(rng, rng.randint(4, 12))
        names = sorted(g.junctions)
        ends = [(random_position(rng, g), random_position(rng, g)) for _ in range(6)]
        ends += [(g.position_at(u), g.position_at(v)) for u, v in (rng.sample(names, 2) for _ in range(3))]
        multi_link = []
        for _ in range(6):
            u, w = rng.sample(names, 2)
            path = g.shortest_path(u, w)
            if len(path) < 3:
                continue
            total = _add_up(g.link_lengths(path))
            multi_link.append(GraphPosition(u, w, rng.uniform(0.0, total), total))
            multi_link.append(GraphPosition(u, w, _add_up(g.link_lengths(path[:2])), total))
        cold = []
        for start, end in ends:
            g._path_cache.clear()
            route = g.route(start, end)
            xs = probe_arclengths(rng, route)
            cold.append((xs, repr(route.points_at(xs))))
        cold_spans = []
        for pos in multi_link:
            g._path_cache.clear()
            cold_spans.append(repr(g.canonicalize(pos)))
        for u in names:
            for v in names:
                path, lengths, total, stops = g.junction_path(u, v)
                assert path == tuple(g.shortest_path(u, v))
                assert lengths == tuple(g.link_lengths(path))
                assert repr(total) == repr(_add_up(lengths))
                assert stops == tuple(length - POSITION_TOL for length in lengths)
        assert len(g._path_cache) == len(names) ** 2
        for (start, end), (xs, want) in zip(ends, cold):
            assert repr(g.route(start, end).points_at(xs)) == want, (start, end)
            routes += 1
        for pos, want in zip(multi_link, cold_spans):
            assert repr(g.canonicalize(pos)) == want, pos
            spans += 1
    assert routes == 900 and spans > 300


def sample_routes(rng, g):
    """Junction-to-junction routes, one of zero length, and routes between
    link-interior points in both orientations, also within one link, with
    its two ends written in one orientation or in opposite ones."""
    junctions = sorted(g.junctions)
    link = rng.choice(g.links)
    same_link = [
        GraphPosition(link.u, link.v, rng.uniform(0.0, link.length), link.length) for _ in range(2)
    ]
    flipped = GraphPosition(link.v, link.u, link.length - same_link[1].offset, link.length)
    a, b = random_position(rng, g), random_position(rng, g)
    j = g.position_at(rng.choice(junctions))
    pairs = [
        (g.position_at(u), g.position_at(v)) for u, v in (rng.sample(junctions, 2) for _ in range(2))
    ]
    pairs += [(j, j), (a, b), (b, a), tuple(same_link), tuple(reversed(same_link)), (a, j), (j, a)]
    pairs += [(same_link[0], flipped), (flipped, same_link[0])]
    return [g.route(start, end) for start, end in pairs]


def probe_arclengths(rng, route):
    """Arclengths before, at and past the route's ends and leg boundaries,
    within tolerance of each, -0.0, ±inf and NaN, plus random ones, in no
    particular order."""
    marks = [0.0, route.total]
    if route._off_end is None:
        # The head's end, each junction on the middle path, the tail's start.
        mark = route._head
        marks += [mark, mark + route._mid_len]
        for length in route._mid_lengths:
            mark += length
            marks.append(mark)
    xs = [-1.0, route.total + 1.0, -0.0, -math.inf, math.inf, math.nan]
    xs += [rng.uniform(0.0, route.total) for _ in range(4)]
    xs += [m + eps for m in marks for eps in (-POSITION_TOL, -1e-10, 0.0, 1e-10, POSITION_TOL)]
    rng.shuffle(xs)
    return xs


def test_points_at_equals_point_at_one_by_one():
    # Scenarios 1-4 and the random trees of tests/test_golden.py. Compared by
    # `repr`, which tells -0.0 from 0.0, shows NaN (unequal to itself) and
    # names the type, so a plain tuple in place of a position fails.
    graphs = [make_scenario(k).graph for k in (1, 2, 3, 4)]
    graphs += [gated_tree_scenario(random.Random(seed)).graph for seed in range(150)]
    rng = random.Random(13)
    for g in graphs:
        for route in sample_routes(rng, g):
            xs = probe_arclengths(rng, route)
            expected = repr([reference_point_at(route, x) for x in xs])
            assert repr(route.points_at(xs)) == expected
            assert repr([route.point_at(x) for x in xs]) == expected
            assert route.points_at([]) == []


def test_points_at_keeps_a_same_link_route_on_its_link():
    # Both ends on link a-b: start + (end - start) rounds past the link's
    # length, and the point is clamped back onto the link, as the start
    # and end legs of a longer route are.
    g = build_graph([Junction("a"), Junction("b")], [Link("a", "b", 61.436)], "b")
    route = g.route(GraphPosition("a", "b", 9.596, 61.436), GraphPosition("a", "b", 61.436, 61.436))
    assert 9.596 + route.total > 61.436
    end = route.points_at([route.total])[0]
    assert repr(end) == repr(GraphPosition("a", "b", 61.436, 61.436))
    assert g.canonicalize(end) is end
    assert repr(route.point_at(math.inf)) == repr(end)


def test_route_total_and_points_agree_with_the_geodesic():
    # `reference_point_at` reads a route's own legs; this checks them
    # against the geodesic, which is built apart from `Route`.
    graphs = [make_scenario(k).graph for k in (1, 2, 3, 4)]
    graphs += [gated_tree_scenario(random.Random(seed)).graph for seed in range(30)]
    rng = random.Random(19)
    for g in graphs:
        for route in sample_routes(rng, g):
            total = route.total
            assert total == g.geodesic_distance(route.start, route.end)
            for x in (0.25 * total, 0.5 * total, 0.75 * total):
                p = route.point_at(x)
                assert g.geodesic_distance(route.start, p) == pytest.approx(x, abs=1e-9)
                assert g.geodesic_distance(p, route.end) == pytest.approx(total - x, abs=1e-9)


def geodesic_probes(rng, g):
    """Positions in every form `geodesic_distance` reads: canonical link points
    in both orientations (both ends and a random point), junctions (also with -0.0
    and integer zeros), near-canonical points it snaps, and multi-link spans."""
    links = rng.sample(g.links, min(len(g.links), 2))
    probes = []
    for link in links:
        length = link.length
        for u, v in ((link.u, link.v), (link.v, link.u)):
            for x in (0.0, length, rng.uniform(0.0, length)):
                probes.append(GraphPosition(u, v, x, length))
        probes.append(GraphPosition(link.u, link.v, -1e-10, length))
        probes.append(GraphPosition(link.v, link.u, length + 1e-10, length))
        probes.append(GraphPosition(link.u, link.v, rng.uniform(0.0, length), length + 1e-7))
    for j in rng.sample(sorted(g.junctions), min(len(g.junctions), 2)):
        probes += [
            GraphPosition(j, j, 0.0, 0.0),
            GraphPosition(j, j, -0.0, 0.0),
            GraphPosition(j, j, 0, -0.0),
            GraphPosition(j, j, 1e-12, 0.0),
        ]
    names = sorted(g.junctions)
    for _ in range(2):
        u, w = rng.choice(names), rng.choice(names)
        path = g.shortest_path(u, w)
        if len(path) < 3:
            continue
        total = _add_up(g.link_lengths(path))
        probes.append(GraphPosition(u, w, rng.uniform(0.0, total), total))
        probes.append(GraphPosition(u, w, _add_up(g.link_lengths(path[:2])), total))
    return probes


def test_geodesic_distance_is_bit_identical_to_reference():
    # Scenarios 1-4 and the random trees of tests/test_golden.py; every
    # ordered pair of probes, same-link pairs included.
    graphs = [make_scenario(k).graph for k in (1, 2, 3, 4)]
    graphs += [gated_tree_scenario(random.Random(seed)).graph for seed in range(150)]
    rng = random.Random(17)
    pairs = 0
    for g in graphs:
        probes = geodesic_probes(rng, g)
        for p in probes:
            for q in probes:
                got = g.geodesic_distance(p, q)
                want = reference_geodesic(g, p, q)
                assert struct.pack("d", got) == struct.pack("d", want), (p, q, got, want)
                pairs += 1
    assert pairs > 100_000


def flat_geodesic(graph, p1, p2):
    """`geodesic_distance` as it was before its same-link test came first:
    both points checked for canonical form, then the same-link branch, then
    the anchor sums (oracle for the reordered kernel)."""
    lengths = graph._link_length
    u1, v1, o1, s1 = p1
    if u1 != v1:
        if lengths.get((u1, v1)) != s1 or not 0.0 <= o1 <= s1:
            u1, v1, o1, s1 = graph.canonicalize(p1)
    elif o1 != 0.0 or s1 != 0.0 or u1 not in graph.junctions:
        u1, v1, o1, s1 = graph.canonicalize(p1)
    u2, v2, o2, s2 = p2
    if u2 != v2:
        if lengths.get((u2, v2)) != s2 or not 0.0 <= o2 <= s2:
            u2, v2, o2, s2 = graph.canonicalize(p2)
    elif o2 != 0.0 or s2 != 0.0 or u2 not in graph.junctions:
        u2, v2, o2, s2 = graph.canonicalize(p2)
    if u1 == v1:
        o1 = 0.0
    if u2 == v2:
        o2 = 0.0
    elif u1 != v1:
        if u1 == u2 and v1 == v2:
            return abs(o1 - o2)
        if u1 == v2 and v1 == u2:
            return abs(o1 - (s2 - o2))
    best = (o1 + graph.junction_distance(u1, u2)) + o2
    if u2 != v2:
        d = (o1 + graph.junction_distance(u1, v2)) + (s2 - o2)
        if d < best:
            best = d
    if u1 != v1:
        tail = s1 - o1
        d = (tail + graph.junction_distance(v1, u2)) + o2
        if d < best:
            best = d
        if u2 != v2:
            d = (tail + graph.junction_distance(v1, v2)) + (s2 - o2)
            if d < best:
                best = d
    return best


def same_link_probes(rng, graph):
    """Pairs of points on one link: canonical, reversed, junction form, with a
    span or offset that is not canonical, NaN or out of range."""
    link = rng.choice(graph.links)
    u, v, length = link.u, link.v, link.length
    offsets = [rng.uniform(0.0, length), 0.0, length, 0, rng.uniform(0.0, length)]
    offsets += [-1e-12, length + 1e-12, -1e-3, length + 1e-3, math.nan, -0.0]
    spans = [length, length, length, length + 1e-9, math.nextafter(length, 0.0)]
    if length.is_integer():
        spans.append(int(length))
    points = []
    for _ in range(6):
        a, b = (u, v) if rng.random() < 0.7 else (v, u)
        points.append(GraphPosition(a, b, rng.choice(offsets), rng.choice(spans)))
    points += [graph.position_at(u), GraphPosition(v, v, 0, 0), GraphPosition(u, u, 1e-12, 0.0)]
    parent = graph.parent[v]
    if parent is not None:  # a span over two links, with a point on the first
        total = length + graph.link_length(v, parent)
        points.append(GraphPosition(u, parent, rng.uniform(0.0, length), total))
    return points


def test_same_link_geodesic_is_bit_identical_to_the_flat_kernel():
    graphs = [gated_tree_scenario(random.Random(seed)).graph for seed in range(60)]
    graphs += [scaled_graph(random_tree(random.Random(seed), 12), 1e10) for seed in range(20)]
    rng = random.Random(29)
    same_link = errors = 0
    for g in graphs:
        for _ in range(10):
            probes = same_link_probes(rng, g)
            for p in probes:
                for q in probes:
                    try:
                        want = repr(flat_geodesic(g, p, q))
                    except GraphError as exc:
                        with pytest.raises(GraphError) as got:
                            g.geodesic_distance(p, q)
                        assert str(got.value) == str(exc), (p, q)
                        errors += 1
                        continue
                    assert repr(g.geodesic_distance(p, q)) == want, (p, q)
                    same_link += p.u == q.u != p.v == q.v
    assert same_link > 10_000 and errors > 2_000


def test_route_points_are_no_farther_from_a_junction_than_the_farther_end():
    # The bounded rectification scan trusts this: points that `points_at`
    # places along a route lie on its path, where the distance to a junction
    # is convex, so none exceeds the farther end by more than `slack`.
    rng = random.Random(31)
    checked = 0
    for trial in range(200):
        g = scaled_graph(random_tree(rng, rng.randint(2, 30)), rng.choice([1.0, 1e5, 1e10]))
        route = g.route(random_position(rng, g), random_position(rng, g))
        points = route.points_at(sorted(rng.uniform(0.0, route.total) for _ in range(30)))
        ends = route.points_at([0.0, route.total])
        for j in g.junctions:
            here = g.position_at(j)
            far = max(g.geodesic_distance(end, here) for end in ends)
            for p in points:
                assert g.geodesic_distance(p, here) <= far + g.slack, (trial, p, j)
                checked += 1
    assert checked > 50_000


@pytest.mark.parametrize(
    "bad",
    [
        GraphPosition("a", "zz", 10.0, 50.0),
        GraphPosition("zz", "zz", 0.0, 0.0),
        GraphPosition("a", "b", math.nan, 50.0),
        GraphPosition("a", "b", math.inf, 50.0),
        GraphPosition("b", "b", math.nan, 0.0),
        GraphPosition("a", "b", 50.0 + 1e-6, 50.0),
        GraphPosition("b", "a", -1e-6, 50.0),
        GraphPosition("a", "c", 10.0, 49.0),
        GraphPosition("a", "b", 10.0, 49.0),
        GraphPosition("a", "a", 1.0, 1.0),
    ],
    ids=[
        "unknown-junction",
        "unknown-junction-form",
        "nan-offset",
        "inf-offset",
        "junction-nan-offset",
        "past-end",
        "before-start",
        "path-span",
        "link-span",
        "extent",
    ],
)
@pytest.mark.parametrize(
    "other", [GraphPosition("b", "c", 10.0, 50.0), GraphPosition("b", "b", 0.0, 0.0)]
)
def test_geodesic_distance_rejects_like_reference(chain_graph, bad, other):
    for p, q in ((bad, other), (other, bad)):
        with pytest.raises(GraphError) as want:
            reference_geodesic(chain_graph, p, q)
        with pytest.raises(GraphError) as got:
            chain_graph.geodesic_distance(p, q)
        assert str(got.value) == str(want.value)


def test_graph_json_round_trip(chain_graph):
    text = json.dumps(graph_to_json(chain_graph))
    loaded = load_graph(text)
    assert sorted(loaded.junctions) == sorted(chain_graph.junctions)
    assert loaded.root == chain_graph.root
    assert loaded.gateways.keys() == chain_graph.gateways.keys()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.update(extra=1), "unknown field"),
        (lambda o: o["junctions"][0].update(color="red"), "unknown field"),
        (lambda o: o["junctions"][0]["gateway"].update(power=3), "unknown field"),
        (lambda o: o["links"][0].update(speed=2), "unknown field"),
        (lambda o: o.pop("root"), "missing field"),
        (lambda o: o["junctions"][0].pop("id"), "junction object missing field 'id'"),
        (lambda o: o["junctions"][1]["gateway"].pop("radius"), "missing field 'radius'"),
        (lambda o: o["links"][0].pop("u"), "link object missing field 'u'"),
        (lambda o: o["links"][0].pop("length"), "link object missing field 'length'"),
        (lambda o: o["links"][0].update(length=[1]), "link length must be a number"),
        (lambda o: o["links"][0].update(length=True), "link length must be a number, got True"),
        (lambda o: o["links"][0].update(length=10**400), "link length must be a number, got 100"),
        (lambda o: o["junctions"][0]["gateway"].update(radius="3"), "radius must be a number"),
        (lambda o: o.update(junctions=5), "graph junctions: expected a JSON array, got int"),
        (lambda o: o.update(links=[5]), "link object: expected a JSON object, got int"),
        (lambda o: o["junctions"][0].update(id=1), "junction id must be a string, got 1"),
        (lambda o: o["junctions"][0].update(id=None), "junction id must be a string, got None"),
        (lambda o: o["junctions"][0]["gateway"].update(id=7), "gateway id must be a string"),
        (lambda o: o["links"][0].update(u=["a"]), "link end must be a string"),
        (lambda o: o["links"][0].update(v=True), "link end must be a string"),
        (lambda o: o.update(root=None), "graph root must be a string"),
    ],
)
def test_graph_loader_rejects_unknown_fields(chain_graph, mutate, message):
    obj = graph_to_json(chain_graph)
    mutate(obj)
    with pytest.raises(GraphError, match=message):
        load_graph(json.dumps(obj))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "mutate",
    [
        lambda o, bad: o["junctions"][0]["gateway"].update(radius=bad),
        lambda o, bad: o["links"][0].update(length=bad),
    ],
    ids=["radius", "length"],
)
def test_graph_loader_rejects_non_finite(chain_graph, mutate, bad):
    obj = graph_to_json(chain_graph)
    mutate(obj, bad)
    with pytest.raises(GraphError, match="non-finite or nonpositive"):
        load_graph(json.dumps(obj))


def _unchecked_parts(obj):
    # The arguments a Python caller of `build_graph` would pass for a graph object.
    junctions = [
        Junction(j["id"], Gateway(j["gateway"]["id"], j["id"], j["gateway"]["radius"]))
        if "gateway" in j
        else Junction(j["id"])
        for j in obj["junctions"]
    ]
    return junctions, [Link(l["u"], l["v"], l["length"]) for l in obj["links"]], obj["root"]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o["junctions"][0].update(id=5), "junction id must be a string, got 5"),
        (lambda o: o["junctions"][2].update(id=None), "junction id must be a string, got None"),
        (lambda o: o["junctions"][1]["gateway"].update(id=7), "gateway id must be a string, got 7"),
        (
            lambda o: o["junctions"][0]["gateway"].update(radius=True),
            "gateway radius must be a number, got True",
        ),
        (
            lambda o: o["junctions"][0]["gateway"].update(radius="3"),
            "gateway radius must be a number, got '3'",
        ),
        (lambda o: o["links"][0].update(length=True), "link length must be a number, got True"),
        (lambda o: o["links"][1].update(length="5"), "link length must be a number, got '5'"),
        (lambda o: o["links"][0].update(u=["a"]), "link end must be a string, got ['a']"),
        (lambda o: o["links"][1].update(v=3), "link end must be a string, got 3"),
        (lambda o: o.update(root=3), "graph root must be a string, got 3"),
        (
            lambda o: (o["junctions"][1].update(id=1), o["links"][0].update(length=0.0)),
            "junction id must be a string, got 1",
        ),
    ],
)
def test_build_graph_checks_fields_as_load_graph_does(chain_graph, mutate, message):
    obj = graph_to_json(chain_graph)
    mutate(obj)
    for build in (lambda: build_graph(*_unchecked_parts(obj)), lambda: load_graph(json.dumps(obj))):
        with pytest.raises(GraphError) as raised:
            build()
        assert type(raised.value) is GraphError
        assert str(raised.value) == message


def test_build_graph_coerces_fields_as_load_graph_does():
    graph = build_graph(
        [Junction("a", Gateway("g", "a", 3)), Junction("b")], [Link("a", "b", 5)], "b"
    )
    assert type(graph.links[0].length) is float and type(graph.gateways["g"].radius) is float
    written = json.dumps(graph_to_json(graph))
    assert json.dumps(graph_to_json(load_graph(written))) == written


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["offset", "span"])
def test_position_from_json_rejects_non_finite(field, bad):
    obj = GraphPosition("a", "b", 10.0, 50.0).to_json()
    obj[field] = bad
    with pytest.raises(GraphError, match="non-finite"):
        GraphPosition.from_json(obj)


@pytest.mark.parametrize("bad", [True, "10", None])
@pytest.mark.parametrize("field", ["offset", "span"])
def test_position_from_json_rejects_non_numbers(field, bad):
    obj = GraphPosition("a", "b", 10.0, 50.0).to_json()
    obj[field] = bad
    with pytest.raises(GraphError, match="malformed position object"):
        GraphPosition.from_json(obj)


@pytest.mark.parametrize("bad", [1, None, True])
@pytest.mark.parametrize("field", ["from", "to"])
def test_position_from_json_rejects_non_string_junctions(field, bad):
    obj = GraphPosition("a", "b", 10.0, 50.0).to_json()
    obj[field] = bad
    with pytest.raises(GraphError, match="malformed position object"):
        GraphPosition.from_json(obj)


def test_position_from_json_rejects_unknown_fields():
    obj = {**GraphPosition("a", "b", 10.0, 50.0).to_json(), "bogus": 1, "at": 2}
    with pytest.raises(GraphError) as exc:
        GraphPosition.from_json(obj)
    assert str(exc.value) == "unknown field(s) ['at', 'bogus'] in position object"


def test_gateway_validation():
    with pytest.raises(GraphError, match="nonpositive radius"):
        build_graph([Junction("a", Gateway("g", "a", 0.0))], [], "a")
    with pytest.raises(GraphError, match="duplicate gateway id"):
        build_graph(
            [
                Junction("a", Gateway("g", "a", 1.0)),
                Junction("b", Gateway("g", "b", 1.0)),
            ],
            [Link("a", "b", 1.0)],
            "a",
        )
