import json
import math
import random

import pytest

from gral.graph import (
    Gateway,
    GraphError,
    GraphPosition,
    Junction,
    Link,
    build_graph,
    graph_to_json,
    load_graph,
)

from conftest import enumerate_simple_paths, oracle_confluence, random_position, random_tree


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
    assert chain_graph.path_length(["a", "b", "c"]) == 100.0
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


def test_point_at_path_start(chain_graph):
    pos = chain_graph.point_at(["a", "b"], 0.0)
    assert pos == GraphPosition("a", "b", 0.0, 50.0)


def test_point_at_junction_hit(chain_graph):
    pos = chain_graph.point_at(["a", "b", "c"], 50.0)
    assert pos == GraphPosition("b", "c", 0.0, 50.0)


def test_point_at_interior(chain_graph):
    pos = chain_graph.point_at(["a", "b", "c"], 75.0)
    assert pos == GraphPosition("b", "c", 25.0, 50.0)


def test_point_at_end_of_path(chain_graph):
    pos = chain_graph.point_at(["a", "b"], 50.0)
    assert pos == GraphPosition("a", "b", 50.0, 50.0)


def test_point_at_out_of_range(chain_graph):
    with pytest.raises(GraphError, match="outside path"):
        chain_graph.point_at(["a", "b"], 50.1)
    with pytest.raises(GraphError, match="outside path"):
        chain_graph.point_at(["a", "b"], -0.5)


def test_point_at_roundtrips_offset():
    rng = random.Random(2)
    for _ in range(40):
        g = random_tree(rng, rng.randint(2, 12))
        ids = sorted(g.junctions)
        u, v = rng.choice(ids), rng.choice(ids)
        path = g.shortest_path(u, v)
        total = g.path_length(path)
        if total == 0:
            continue
        offset = rng.uniform(0.0, total)
        pos = g.point_at(path, offset)
        back = g.geodesic_distance(g.position_at(path[0]), pos)
        assert back == pytest.approx(offset, abs=1e-9)


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
    assert route.contains(mid)
    off = GraphPosition("b", "c", 0.5, 4.0)
    assert not route.contains(off)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["offset", "span"])
def test_position_from_json_rejects_non_finite(field, bad):
    obj = GraphPosition("a", "b", 10.0, 50.0).to_json()
    obj[field] = bad
    with pytest.raises(GraphError, match="non-finite"):
        GraphPosition.from_json(obj)


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
