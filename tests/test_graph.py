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
from gral.packages import LocalizedMeasurement
from gral.sim import GroundTruthRecord

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
    ],
    ids=["offset-below-zero", "offset-past-end", "span-off", "two-links", "junction"],
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
    # sums and snaps as `point_at` on that path, also within tolerance of
    # its interior junctions.
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
            assert route.point_at(s) == g.point_at(path, s)


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
