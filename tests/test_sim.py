import json
import math
import random

import pytest

from gral.graph import Gateway, GraphPosition, Junction, Link, build_graph
from gral.packages import NodeContact, serialize_packages
from gral.sim import (
    BRANCH_RADIUS,
    CHAIN_RADIUS,
    Insertion,
    ScenarioError,
    ScenarioSpec,
    WorldState,
    load_scenario,
    make_scenario,
    observe,
    run_instance,
    scenario_from_json,
    scenario_to_json,
    step,
    _NodeState,
    _oriented,
)


def long_pipe(length=400000.0):
    g = build_graph([Junction("s"), Junction("r")], [Link("s", "r", length)], "r")
    return g


def world_with_node(spec, node="n"):
    w = WorldState(spec, random.Random(0))
    w.nodes[node] = _NodeState(_oriented(spec.graph, spec.insertions[0].position))
    return w


def test_step_without_noise_moves_exactly_base_step():
    g = long_pipe()
    spec = ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=0.0, base_step=1.0)
    w = world_with_node(spec)
    for _ in range(10):
        step(w, spec)
    assert w.nodes["n"].position == GraphPosition("s", "r", 10.0, 400000.0)


def test_mean_speed_matches_noise_distribution():
    g = long_pipe()
    spec = ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=2.0 / 3.0)
    w = world_with_node(spec)
    ticks = 100_000
    for _ in range(ticks):
        step(w, spec)
    mean_speed = w.nodes["n"].position.offset / ticks
    expected = spec.base_step * (1 + spec.noise_p)
    assert abs(mean_speed - expected) / expected < 0.01


def test_node_crosses_junction_toward_root(chain_graph):
    spec = ScenarioSpec(
        chain_graph,
        [Insertion("n", GraphPosition("a", "b", 49.5, 50.0), 0)],
        noise_p=0.0,
        base_step=1.0,
        gateway_radius_default=CHAIN_RADIUS,
    )
    w = world_with_node(spec)
    step(w, spec)
    assert w.nodes["n"].position == GraphPosition("b", "c", 0.5, 50.0)


def test_node_parks_at_root(chain_graph):
    spec = ScenarioSpec(
        chain_graph,
        [Insertion("n", GraphPosition("b", "c", 49.0, 50.0), 0)],
        noise_p=1.0,
        base_step=1.0,
    )
    w = world_with_node(spec)
    step(w, spec)
    assert w.nodes["n"].position == chain_graph.position_at("c")
    assert w.nodes["n"].at_root


def test_observe_maximum_strength_under_gateway(chain_graph):
    spec = ScenarioSpec(chain_graph, [Insertion("n", chain_graph.position_at("a"), 0)])
    w = world_with_node(spec)
    obs, contacts = observe(w, spec, "n")
    assert contacts == ()
    assert obs[0].gateway == "gw-a"
    assert obs[0].strength == pytest.approx(CHAIN_RADIUS)


def test_observe_nothing_outside_radius(chain_graph):
    spec = ScenarioSpec(
        chain_graph, [Insertion("n", GraphPosition("a", "b", 25.0, 50.0), 0)]
    )
    w = world_with_node(spec)
    obs, _ = observe(w, spec, "n")
    assert obs == ()


def test_observe_strength_strictly_decreasing_with_distance(chain_graph):
    spec = ScenarioSpec(chain_graph, [Insertion("n", chain_graph.position_at("a"), 0)])
    w = world_with_node(spec)
    strengths = []
    for d in (0.0, 1.0, 2.0, 3.0):
        w.nodes["n"].position = GraphPosition("a", "b", d, 50.0)
        obs, _ = observe(w, spec, "n")
        strengths.append(obs[0].strength)
    assert strengths == sorted(strengths, reverse=True)
    assert len(set(strengths)) == len(strengths)


def test_observe_mutual_contact_strength(chain_graph):
    spec = ScenarioSpec(
        chain_graph,
        [
            Insertion("n1", GraphPosition("a", "b", 20.0, 50.0), 0),
            Insertion("n2", GraphPosition("a", "b", 21.0, 50.0), 0),
        ],
        contact_radius=3.0,
    )
    w = WorldState(spec, random.Random(0))
    for ins in spec.insertions:
        w.nodes[ins.node] = _NodeState(_oriented(spec.graph, ins.position))
    _, c1 = observe(w, spec, "n1")
    _, c2 = observe(w, spec, "n2")
    assert c1 == (NodeContact("n2", 2.0),)
    assert c2 == (NodeContact("n1", 2.0),)


def test_buffer_grows_without_emission():
    g = build_graph(
        [Junction("s"), Junction("r", Gateway("gw-r", "r", 1.0))],
        [Link("s", "r", 1000.0)],
        "r",
    )
    spec = ScenarioSpec(
        g,
        [Insertion("n", g.position_at("s"), 0)],
        noise_p=0.0,
        max_ticks=50,
        gateway_radius_default=1.0,
    )
    result = run_instance(spec, 0)
    assert result.truncated
    assert result.batches == []
    assert len(result.ground_truth) == 51  # ticks 0..50 recorded, nothing emitted


def test_batch_on_entering_range_carries_backlog():
    g = build_graph(
        [Junction("s"), Junction("r", Gateway("gw-r", "r", 2.5))],
        [Link("s", "r", 42.0)],
        "r",
    )
    spec = ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=0.0)
    result = run_instance(spec, 0)
    first = result.batches[0]
    assert first.tick == 40.0  # distance to range boundary 39.5, speed 1
    assert [p.t for p in first.packages] == [float(t) for t in range(41)]
    # steady in-range ticks afterwards: one package per batch
    assert all(len(b.packages) == 1 for b in result.batches[1:])


def test_batch_between_records_flushes_on_entering_range():
    # Recording every third tick, the node enters range at tick 40, off the grid.
    g = build_graph(
        [Junction("s"), Junction("r", Gateway("gw-r", "r", 2.5))],
        [Link("s", "r", 42.0)],
        "r",
    )
    spec = ScenarioSpec(
        g, [Insertion("n", g.position_at("s"), 0)], noise_p=0.0, measurement_interval=3
    )
    result = run_instance(spec, 0)
    first = result.batches[0]
    assert first.tick == 40
    assert [p.t for p in first.packages] == [float(t) for t in range(0, 40, 3)]


def test_make_scenario_1_geometry():
    spec = make_scenario(1)
    assert len(spec.graph.junctions) == 3
    assert sorted(l.length for l in spec.graph.links) == [50.0, 50.0]
    for gw in spec.graph.gateways.values():
        assert gw.radius == pytest.approx(math.sqrt(10.0))
    # coverage ratio: three gateways cover 4R of the 100-unit route
    assert 4 * CHAIN_RADIUS / 100.0 == pytest.approx(math.sqrt(10.0) / 25.0)


def test_make_scenario_2_two_nodes_in_close_succession():
    spec = make_scenario(2)
    assert [i.tick for i in spec.insertions] == [0, 5]
    assert len({i.node for i in spec.insertions}) == 2


def test_make_scenario_3_coverage_fraction():
    spec = make_scenario(3)
    # each source-to-sink path is 200 units with a gateway at both ends
    for start in ("a1", "a2"):
        path = spec.graph.shortest_path(start, "f")
        assert spec.graph.path_length(path) == 200.0
    covered = 2 * BRANCH_RADIUS
    assert covered / 200.0 == pytest.approx(math.sqrt(10.0) / 50.0)
    junction_degrees = {
        j: len(spec.graph.adjacency[j]) for j in spec.graph.junctions
    }
    assert junction_degrees["m"] == 3
    assert spec.graph.gateway_at("m") is None


def test_make_scenario_4_shape():
    spec = make_scenario(4)
    assert len(spec.insertions) == 5
    merge_junctions = [j for j, adj in spec.graph.adjacency.items() if len(adj) >= 3]
    assert len(merge_junctions) >= 2
    for ins in spec.insertions:
        route = spec.graph.geodesic_distance(
            ins.position, spec.graph.position_at(spec.graph.root)
        )
        assert route > 200.0


def test_make_scenario_rejects_unknown():
    with pytest.raises(ScenarioError):
        make_scenario(9)


def test_run_instance_determinism():
    spec = make_scenario(2)
    a = run_instance(spec, 123)
    b = run_instance(spec, 123)
    sa = serialize_packages([p for batch in a.batches for p in batch.packages])
    sb = serialize_packages([p for batch in b.batches for p in batch.packages])
    assert sa == sb
    assert a.ground_truth == b.ground_truth


def test_instances_differ_across_seeds():
    spec = make_scenario(1)
    seen = set()
    for seed in range(200):
        result = run_instance(spec, seed)
        seen.add(tuple((r.position.u, r.position.offset) for r in result.ground_truth))
    assert len(seen) == 200


def test_package_conservation():
    spec = make_scenario(2)
    result = run_instance(spec, 9)
    emitted = [(p.node, p.seq) for batch in result.batches for p in batch.packages]
    assert len(emitted) == len(set(emitted))  # emitted at most once
    truth_keys = {(r.node, r.seq) for r in result.ground_truth}
    assert set(emitted) == truth_keys  # everything recorded in this run reaches a gateway
    assert len(result.ground_truth) == len(truth_keys)


def test_distance_to_root_monotone():
    spec = make_scenario(3)
    result = run_instance(spec, 4)
    root = spec.graph.position_at(spec.graph.root)
    per_node: dict[str, list[float]] = {}
    for r in result.ground_truth:
        per_node.setdefault(r.node, []).append(
            spec.graph.geodesic_distance(r.position, root)
        )
    for distances in per_node.values():
        assert all(b <= a + 1e-9 for a, b in zip(distances, distances[1:]))


def test_scenario_json_round_trip():
    spec = make_scenario(3)
    text = json.dumps(scenario_to_json(spec))
    loaded = load_scenario(text)
    assert sorted(loaded.graph.junctions) == sorted(spec.graph.junctions)
    assert loaded.noise_p == spec.noise_p
    assert [i.node for i in loaded.insertions] == [i.node for i in spec.insertions]
    again = run_instance(loaded, 3)
    original = run_instance(spec, 3)
    assert again.ground_truth == original.ground_truth


def test_scenario_json_rejects_unknown_fields():
    obj = scenario_to_json(make_scenario(1))
    obj["wind"] = 3
    with pytest.raises(ScenarioError, match="unknown field"):
        scenario_from_json(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o, bad: o.update(base_step=bad), "base_step"),
        (lambda o, bad: o.update(contact_radius=bad), "contact radius"),
        (lambda o, bad: o.update(gateway_radius_default=bad), "contact radius"),
        (lambda o, bad: o["insertions"][0]["at"].update(offset=bad), "non-finite"),
    ],
    ids=["base_step", "contact_radius", "gateway_radius_default", "insertion_offset"],
)
def test_load_scenario_rejects_non_finite(mutate, message, bad):
    obj = scenario_to_json(make_scenario(1))
    mutate(obj, bad)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(json.dumps(obj))


def test_scenario_validation():
    g = long_pipe()
    with pytest.raises(ScenarioError, match="base_step"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], base_step=0.0)
    with pytest.raises(ScenarioError, match="probability"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=1.5)
    with pytest.raises(ScenarioError, match="duplicate node"):
        ScenarioSpec(
            g,
            [Insertion("n", g.position_at("s"), 0), Insertion("n", g.position_at("s"), 1)],
        )
