import hashlib
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import gral.sim
from gral.graph import Gateway, GraphError, GraphPosition, Junction, Link, _add_up, build_graph
from gral.packages import GatewayObservation, NodeContact, Package, serialize_packages
from gral.sim import (
    BRANCH_RADIUS,
    CHAIN_RADIUS,
    GroundTruthRecord,
    Insertion,
    ScenarioError,
    ScenarioSpec,
    WorldState,
    load_scenario,
    make_scenario,
    observe,
    record_and_emit,
    run_instance,
    scenario_from_json,
    scenario_to_json,
    step,
    _NodeState,
    _gateway_observations,
    _oriented,
)

from conftest import (
    DEEP_JSON,
    LONG_INT_JSON,
    gated_tree_scenario,
    random_position,
    random_tree,
    scaled_graph,
    swarm_like_scenario,
    ungated_root_scenario,
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
        step(w)
    assert w.nodes["n"].position == GraphPosition("s", "r", 10.0, 400000.0)


def test_mean_speed_matches_noise_distribution():
    g = long_pipe()
    spec = ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=2.0 / 3.0)
    w = world_with_node(spec)
    ticks = 100_000
    for _ in range(ticks):
        step(w)
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
    step(w)
    assert w.nodes["n"].position == GraphPosition("b", "c", 0.5, 50.0)


def test_node_parks_at_root(chain_graph):
    spec = ScenarioSpec(
        chain_graph,
        [Insertion("n", GraphPosition("b", "c", 49.0, 50.0), 0)],
        noise_p=1.0,
        base_step=1.0,
    )
    w = world_with_node(spec)
    step(w)
    assert w.nodes["n"].position == chain_graph.position_at("c")
    assert w.nodes["n"].at_root


def test_node_leaves_after_root_record_and_peers_still_hear_it(chain_graph):
    spec = ScenarioSpec(
        chain_graph,
        [
            Insertion("n1", GraphPosition("b", "c", 49.0, 50.0), 0),
            Insertion("n2", GraphPosition("b", "c", 48.0, 50.0), 0),
        ],
        noise_p=0.0,
        contact_radius=3.0,
    )
    w = WorldState(spec, random.Random(0))
    for ins in spec.insertions:
        w.nodes[ins.node] = _NodeState(_oriented(spec.graph, ins.position))
    record_and_emit(w)
    step(w)
    assert w.nodes["n1"].at_root
    batches = record_and_emit(w)
    # n1 recorded its root package first, yet n2's record in the same tick hears it.
    assert list(w.nodes) == ["n2"]
    last = {b.node: b.packages[-1] for b in batches}
    assert (last["n1"].seq, last["n1"].t) == (2, 1.0)
    assert last["n2"].contacts == (NodeContact("n1", 2.0),)
    step(w)
    (batch,) = record_and_emit(w)
    assert batch.node == "n2" and batch.packages[-1].contacts == ()
    assert w.nodes == {}


def test_node_inserted_at_root_records_twice(chain_graph):
    spec = ScenarioSpec(chain_graph, [Insertion("n", chain_graph.position_at("c"), 3)])
    result = run_instance(spec, 0)
    assert not result.truncated
    assert [(b.tick, [p.t for p in b.packages]) for b in result.batches] == [(3, [3.0]), (4, [4.0])]
    assert [r.tick for r in result.ground_truth] == [3, 4]


def test_observe_maximum_strength_under_gateway(chain_graph):
    spec = ScenarioSpec(chain_graph, [Insertion("n", chain_graph.position_at("a"), 0)])
    w = world_with_node(spec)
    ((obs, contacts),) = observe(w)
    assert contacts == ()
    assert obs[0].gateway == "gw-a"
    assert obs[0].strength == pytest.approx(CHAIN_RADIUS)


def test_observe_nothing_outside_radius(chain_graph):
    spec = ScenarioSpec(
        chain_graph, [Insertion("n", GraphPosition("a", "b", 25.0, 50.0), 0)]
    )
    w = world_with_node(spec)
    ((obs, _),) = observe(w)
    assert obs == ()


def test_observe_strength_strictly_decreasing_with_distance(chain_graph):
    spec = ScenarioSpec(chain_graph, [Insertion("n", chain_graph.position_at("a"), 0)])
    w = world_with_node(spec)
    strengths = []
    for d in (0.0, 1.0, 2.0, 3.0):
        w.nodes["n"].position = GraphPosition("a", "b", d, 50.0)
        ((obs, _),) = observe(w)
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
    (_, c1), (_, c2) = observe(w)
    assert c1 == (NodeContact("n2", 2.0),)
    assert c2 == (NodeContact("n1", 2.0),)


def test_observe_gives_each_ordered_pair_its_own_geodesic():
    # On this chain the two directions of one geodesic add up to different
    # last bits, so each node's contact carries its own direction's sum.
    g = build_graph(
        [Junction("a"), Junction("b"), Junction("c"), Junction("d")],
        [Link("a", "b", 0.8), Link("b", "c", 0.8), Link("c", "d", 0.7)],
        "d",
    )
    here, there = GraphPosition("a", "b", 0.4, 0.8), GraphPosition("c", "d", 0.2, 0.7)
    spec = ScenarioSpec(g, [Insertion("n1", here, 0), Insertion("n2", there, 0)], contact_radius=3.0)
    w = WorldState(spec, random.Random(0))
    for ins in spec.insertions:
        w.nodes[ins.node] = _NodeState(_oriented(g, ins.position))
    (_, c1), (_, c2) = observe(w)
    assert g.geodesic_distance(here, there) != g.geodesic_distance(there, here)
    assert c1 == (NodeContact("n2", 3.0 - g.geodesic_distance(here, there)),)
    assert c2 == (NodeContact("n1", 3.0 - g.geodesic_distance(there, here)),)


def test_observe_keeps_contacts_on_a_long_link():
    # Levels near 1e10 round by more than 1e-6: with a fixed slack the level
    # gap of this pair came out above radius + 1e-6, although its geodesic is
    # 3.16227760918 <= sqrt(10), and neither node heard the other.
    g = long_pipe(1e10)
    here = GraphPosition("s", "r", 9.3833835098105, 1e10)
    there = GraphPosition("s", "r", 12.54566111898722, 1e10)
    spec = ScenarioSpec(g, [Insertion("n1", here, 0), Insertion("n2", there, 0)],
                        contact_radius=CHAIN_RADIUS)
    w = WorldState(spec, random.Random(0))
    for ins in spec.insertions:
        w.nodes[ins.node] = _NodeState(_oriented(g, ins.position))
    assert g.geodesic_distance(here, there) <= CHAIN_RADIUS
    (_, c1), (_, c2) = observe(w)
    assert c1 == (NodeContact("n2", CHAIN_RADIUS - g.geodesic_distance(here, there)),)
    assert c2 == (NodeContact("n1", CHAIN_RADIUS - g.geodesic_distance(there, here)),)


def scaled(graph, factor):
    """The same tree with every link length multiplied by `factor`."""
    links = [Link(link.u, link.v, link.length * factor) for link in graph.links]
    return build_graph(list(graph.junctions.values()), links, graph.root)


def test_range_tests_never_exceed_the_geodesic():
    # `observe` skips a pair when its level gap or its junction bound exceeds
    # `reach`; neither may exceed the geodesic by more than the slack, in
    # either order, also on links shorter than the radius and on long links.
    rng = random.Random(23)
    checked = 0
    for trial in range(150):
        graph = scaled(random_tree(rng, rng.randint(1, 30)), rng.choice([1.0, 1.0, 1e5, 1e10]))
        spec = ScenarioSpec(graph, [], contact_radius=CHAIN_RADIUS)
        slack = WorldState(spec, rng).reach - CHAIN_RADIUS
        dist_to_root = graph.dist_to_root
        points = [graph.position_at(graph.root)]
        if graph.links:
            points += [_oriented(graph, random_position(rng, graph)) for _ in range(12)]
        for a in points:
            for b in points:
                geodesic = graph.geodesic_distance(a, b)
                level_gap = abs((dist_to_root[a.v] + a.span - a.offset)
                                - (dist_to_root[b.v] + b.span - b.offset))
                bound = graph.junction_distance(a.u, b.u) - a.offset - b.offset
                assert level_gap <= geodesic + slack, (trial, a, b)
                assert bound <= geodesic + slack, (trial, a, b)
                checked += 1
    assert checked > 10000


def short_link_scenario(rng):
    """Links of 1-3 units under a contact radius of 5, gated at the root only,
    so a contact spans junctions."""
    n = rng.randint(4, 12)
    parents = {i: rng.randrange(i) for i in range(1, n)}
    junctions = [Junction("v0", Gateway("gw-v0", "v0", 2.0))]
    junctions += [Junction(f"v{i}") for i in range(1, n)]
    links = [Link(f"v{i}", f"v{p}", rng.uniform(1.0, 3.0)) for i, p in parents.items()]
    graph = build_graph(junctions, links, "v0")
    leaves = sorted(set(range(1, n)) - set(parents.values()))
    insertions = [
        Insertion(f"n{k}", graph.position_at(f"v{rng.choice(leaves)}"), rng.randrange(4))
        for k in range(6)
    ]
    return ScenarioSpec(graph, insertions, base_step=0.25, gateway_radius_default=2.0,
                        contact_radius=5.0)


def sibling_scenario():
    """Three sibling links of equal length and noise-free drift: nodes that
    leave together stay at equal levels, out of range until near their merge."""
    g = build_graph(
        [Junction("r", Gateway("gw-r", "r", 2.0)), Junction("p"),
         Junction("a"), Junction("b"), Junction("c")],
        [Link("p", "r", 20.0), Link("a", "p", 10.0), Link("b", "p", 10.0), Link("c", "p", 10.0)],
        "r",
    )
    insertions = [Insertion(f"n{j}", g.position_at(j), 0) for j in "abc"]
    insertions += [Insertion(f"m{j}", GraphPosition(j, "p", 3.0, 10.0), 2) for j in "ab"]
    return ScenarioSpec(g, insertions, noise_p=0.0, gateway_radius_default=2.0, contact_radius=5.0)


def all_pairs_observe(world):
    """`observe` with one geodesic from each in-flight node to every other."""
    spec = world.spec
    graph = spec.graph
    radius = spec.effective_contact_radius
    radio = []
    for node, st in world.nodes.items():
        contacts = []
        for peer, other in world.nodes.items():
            if peer == node:
                continue
            d = graph.geodesic_distance(st.position, other.position)
            if d <= radius:
                contacts.append(NodeContact(peer, radius - d))
        radio.append((_gateway_observations(graph, st.position), tuple(contacts)))
    return radio


def test_pruned_contact_scan_matches_all_pairs(monkeypatch):
    rng = random.Random(13)
    cases = [(swarm_like_scenario(rng, depth, per_leaf), seed)
             for seed, (depth, per_leaf) in enumerate([(2, 2), (3, 2), (3, 4), (3, 8)])]
    cases += [(gated_tree_scenario(random.Random(seed)), seed) for seed in range(150)]
    # A contact spans junctions; every pair is in range; equal levels on
    # sibling links, which only the junction bound keeps apart.
    spanning = [(short_link_scenario(random.Random(seed)), seed) for seed in range(20)]
    everyone = [
        (replace(swarm_like_scenario(random.Random(seed), 3, 2), contact_radius=1000.0), seed)
        for seed in range(2)
    ]
    siblings = [(sibling_scenario(), 0)]
    cases += spanning + everyone + siblings
    pruned = [run_instance(spec, seed) for spec, seed in cases]
    calls = []

    def counted(world):
        calls.append(world.tick)
        return all_pairs_observe(world)

    # `record_and_emit` reads `observe` from the module on every recording tick.
    monkeypatch.setattr(gral.sim, "observe", counted)
    contacts = recording_ticks = 0
    for (spec, seed), got in zip(cases, pruned):
        assert got == run_instance(spec, seed), seed
        contacts += sum(len(p.contacts) for b in got.batches for p in b.packages)
        recording_ticks += len({r.tick for r in got.ground_truth})
    assert contacts > 1000
    # One snapshot per tick on which some node records, never one per node.
    assert len(calls) == recording_ticks
    result_of = {id(spec): got for (spec, _), got in zip(cases, pruned)}
    for group in (spanning, everyone, siblings):
        assert any(p.contacts for spec, _ in group
                   for b in result_of[id(spec)].batches for p in b.packages)
    for spec, _ in everyone:
        # Radius 1000 puts every node in flight in range of every other.
        got = result_of[id(spec)]
        flying = {}
        for r in got.ground_truth:
            flying.setdefault(r.tick, set()).add(r.node)
        tick = {(r.node, r.seq): r.tick for r in got.ground_truth}
        for b in got.batches:
            for p in b.packages:
                assert len(p.contacts) == len(flying[tick[(p.node, p.seq)]]) - 1


def test_emitted_truth_is_the_ground_truth_of_the_emitted_packages():
    cases = [(make_scenario(k), seed) for k in (1, 2, 3, 4) for seed in range(3)]
    cases += [(gated_tree_scenario(random.Random(seed)), seed) for seed in range(150)]
    # Truncated: the run stops with packages still buffered.
    truncated = replace(make_scenario(4), max_ticks=60)
    # No gateway at the root: the buffer filled after the last gateway is
    # never flushed.
    ungated = ungated_root_scenario()
    for spec, seed in cases + [(truncated, 0), (ungated, 0)]:
        result = run_instance(spec, seed)
        # Each node's track holds the ground truth of its seqs in seq order,
        # and its batches emit a prefix 1..m of those seqs, in that order.
        recorded = {}
        for r in result.ground_truth:
            recorded.setdefault(r.node, []).append(r)
        emitted = {}
        for b in result.batches:
            emitted.setdefault(b.node, []).extend(p.seq for p in b.packages)
        assert result.tracks.keys() == recorded.keys(), seed
        for node, track in result.tracks.items():
            records = recorded[node]
            assert [r.seq for r in records] == list(range(1, len(track) + 1)), (seed, node)
            assert track == [r.position for r in records], (seed, node)
            seqs = emitted.get(node, [])
            assert seqs == list(range(1, len(seqs) + 1)), (seed, node)
    for spec, stops_early in ((truncated, True), (ungated, False)):
        result = run_instance(spec, 0)
        assert result.truncated is stops_early
        # The packages still buffered at the end are in their track and in
        # no batch.
        in_batches = {(p.node, p.seq) for b in result.batches for p in b.packages}
        buffered = [r for r in result.ground_truth if (r.node, r.seq) not in in_batches]
        assert result.batches and buffered
        for r in buffered:
            assert result.tracks[r.node][r.seq - 1] == r.position
        assert sum(map(len, result.tracks.values())) == len(result.ground_truth)


# Pinned with the simulator that called `observe` once per recording node,
# before the per-tick radio pass: the pass must not change a byte.
DENSE_SWARM_DIGEST = "c00f983b04c895dce221c7e0dd0fbabdc768f4464f524d8594a350e8f3efd8c0"


def test_dense_swarm_instances_match_golden_digest():
    digest = hashlib.sha256()
    contacts = 0
    for seed in (0, 1):
        spec = swarm_like_scenario(random.Random(seed), 3, 2)
        assert len(spec.insertions) == 16
        result = run_instance(spec, seed)
        packages = [p for b in result.batches for p in b.packages]
        contacts += sum(len(p.contacts) for p in packages)
        digest.update(serialize_packages(packages).encode())
        for r in result.ground_truth:
            digest.update(repr((r.node, r.seq, r.tick, tuple(r.position))).encode())
    assert contacts > 1000
    assert digest.hexdigest() == DENSE_SWARM_DIGEST


def test_dense_swarm_geodesics_are_the_contacts(monkeypatch):
    # On these trees the level test and the junction bound leave exactly the
    # pairs in range: one geodesic per contact. Without the bound,
    # `run_instance` made 1732 and 1468 geodesic calls.
    for seed, expected in ((0, 684), (1, 486)):
        spec = swarm_like_scenario(random.Random(seed), 3, 2)
        graph = spec.graph
        calls = []
        geodesic = graph.geodesic_distance

        def counted(p1, p2):
            calls.append(None)
            return geodesic(p1, p2)

        monkeypatch.setattr(graph, "geodesic_distance", counted)
        result = run_instance(spec, seed)
        assert len(calls) == expected
        assert sum(len(p.contacts) for b in result.batches for p in b.packages) == expected


def observations_by_geodesic(graph, position):
    """Gateway readings with one `geodesic_distance` per gateway, in id order."""
    observations = []
    for gw_id in sorted(graph.gateways):
        gateway = graph.gateways[gw_id]
        d = graph.geodesic_distance(position, graph.position_at(gateway.junction))
        if d <= gateway.radius:
            observations.append(GatewayObservation(gw_id, gateway.radius - d))
    return tuple(observations)


def sample_positions(graph):
    """Every junction, and points on every link in both orientations at offsets
    0, L/3, L - eps, L and one radius from either end."""
    positions = [graph.position_at(j) for j in graph.junctions]
    radii = {gw.radius for gw in graph.gateways.values()}
    for link in graph.links:
        length = link.length
        offsets = {0.0, length / 3, length - 1e-9, length}
        offsets |= {x for r in radii for x in (r, length - r) if 0.0 <= x <= length}
        for u, v in ((link.u, link.v), (link.v, link.u)):
            positions += [GraphPosition(u, v, x, length) for x in sorted(offsets)]
    return positions


def test_gateway_observations_match_geodesic_loop():
    specs = [make_scenario(k) for k in (1, 2, 3, 4)]
    specs += [gated_tree_scenario(random.Random(seed)) for seed in range(150)]
    checked = heard = 0
    for spec in specs:
        graph = spec.graph
        for pos in sample_positions(graph):
            observations = _gateway_observations(graph, pos)
            # `==` on the dataclasses compares every strength exactly, in order.
            assert observations == observations_by_geodesic(graph, pos), pos
            checked += 1
            heard += bool(observations)
    assert heard > checked / 4


def test_quiet_bands_skip_only_offsets_that_hear_nothing():
    # At each end of each link's quiet band, one ulp and one slack to either
    # side, on graphs scaled with and without their radii: the early return
    # gives the bits of one geodesic per gateway.
    rng = random.Random(41)
    graphs = []
    for seed in range(150):
        graph = gated_tree_scenario(random.Random(seed)).graph
        factor = rng.choice([1.0, 1e5, 1e10])
        graphs.append(rng.choice([scaled, scaled_graph])(graph, factor))
    checked = quiet = middles = 0
    for graph in graphs:
        positions = sample_positions(graph)
        for link in graph.links:
            length = link.length
            for u, v in ((link.u, link.v), (link.v, link.u)):
                quiet_from, quiet_to, _ = graph.link_gateways(u, v)
                middles += 1
                quiet += quiet_from < length / 2 < quiet_to
                for edge in (quiet_from, quiet_to):
                    probes = (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf),
                              edge - graph.slack, edge + graph.slack)
                    positions += [GraphPosition(u, v, x, length) for x in probes if 0.0 <= x <= length]
        for pos in positions:
            got = _gateway_observations(graph, pos)
            assert repr(got) == repr(observations_by_geodesic(graph, pos)), pos
            checked += 1
    assert checked > 10_000
    # Most link middles hear no gateway, and the band says so.
    assert quiet > middles / 2


def test_gateway_observations_belong_to_their_graph():
    # Graphs built one after another with the same junction ids but other
    # radii and lengths, each dropped before the next is built, so a new
    # graph may reuse an old one's id: none may read another's readings.
    def readings(radius, length):
        graph = build_graph(
            [Junction("s", Gateway("gw-s", "s", radius)), Junction("r", Gateway("gw-r", "r", radius))],
            [Link("s", "r", length)],
            "r",
        )
        pos = GraphPosition("s", "r", 3.0, length)
        return _gateway_observations(graph, pos), observations_by_geodesic(graph, pos)

    assert readings(4.0, 10.0)[0] == (GatewayObservation("gw-s", 1.0),)
    assert readings(6.0, 8.0)[0] == (GatewayObservation("gw-r", 1.0), GatewayObservation("gw-s", 3.0))
    for k in range(40):
        fast, slow = readings(4.0 + k / 8, 10.0 - k / 16)
        assert fast == slow


def test_simulated_records_have_their_exact_types():
    specs = [make_scenario(k) for k in (1, 2, 3, 4)]
    specs += [gated_tree_scenario(random.Random(seed)) for seed in range(10)]
    contacts = 0
    for spec in specs:
        result = run_instance(spec, 1)
        packages = [p for b in result.batches for p in b.packages]
        for p in packages:
            assert type(p) is Package
            assert type(p.observations) is tuple and type(p.contacts) is tuple
            assert all(type(o) is GatewayObservation for o in p.observations)
            assert all(type(c) is NodeContact for c in p.contacts)
            assert type(p.payload) is dict and p.payload == {"tick": int(p.t)}
            contacts += len(p.contacts)
        # Each package holds its own payload; all are alive, so ids differ.
        assert len({id(p.payload) for p in packages}) == len(packages)
        for r in result.ground_truth:
            assert type(r) is GroundTruthRecord and type(r.position) is GraphPosition
    assert contacts > 0


def test_simulated_observations_are_strongest_first():
    # Both gateways reach the whole link: gw-a is the stronger up to the
    # midpoint, equal there, and gw-b, the higher id, is stronger after it.
    g = build_graph(
        [Junction("s", Gateway("gw-a", "s", 10.0)), Junction("r", Gateway("gw-b", "r", 10.0))],
        [Link("s", "r", 10.0)],
        "r",
    )
    spec = ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=0.0)
    packages = [p for b in run_instance(spec, 0).batches for p in b.packages]
    expected = []
    for t in range(11):
        a, b = ("gw-a", 10.0 - t), ("gw-b", float(t))
        expected.append((a, b) if t <= 5 else (b, a))
    assert [p.observations for p in packages] == expected


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


def _degrees(graph):
    # Links meeting at each junction, counted from the graph's links.
    return Counter(j for link in graph.links for j in (link.u, link.v))


def test_make_scenario_3_coverage_fraction():
    spec = make_scenario(3)
    # each source-to-sink path is 200 units with a gateway at both ends
    for start in ("a1", "a2"):
        path = spec.graph.shortest_path(start, "f")
        assert _add_up(spec.graph.link_lengths(path)) == 200.0
    covered = 2 * BRANCH_RADIUS
    assert covered / 200.0 == pytest.approx(math.sqrt(10.0) / 50.0)
    assert _degrees(spec.graph)["m"] == 3
    assert spec.graph.junctions["m"].gateway is None


def test_make_scenario_4_shape():
    spec = make_scenario(4)
    assert len(spec.insertions) == 5
    merge_junctions = [j for j, degree in _degrees(spec.graph).items() if degree >= 3]
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


@pytest.mark.parametrize("number", [1, 2, 3, 4])
def test_shipped_scenario_file_is_the_built_in(number):
    # The file is the only definition: it is in the canonical form that
    # `scenario_to_json` writes, and holds the radii derived in `gral.sim`.
    path = Path(gral.sim.__file__).with_name("scenarios") / f"scenario{number}.json"
    spec = make_scenario(number)
    written = json.dumps(scenario_to_json(spec), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == written.encode()
    radius = CHAIN_RADIUS if number <= 2 else BRANCH_RADIUS
    assert spec.gateway_radius_default == radius
    assert spec.graph.gateways
    assert all(g.radius == radius for g in spec.graph.gateways.values())


@pytest.mark.parametrize("number", [0, 5])
def test_make_scenario_rejects_unknown_number(number):
    with pytest.raises(ScenarioError, match=f"unknown scenario {number}; expected 1..4"):
        make_scenario(number)


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
        (
            lambda o, bad: o.update(contact_radius=2.0, gateway_radius_default=bad),
            "gateway_radius_default must be positive and finite",
        ),
    ],
    ids=[
        "base_step",
        "contact_radius",
        "gateway_radius_default",
        "insertion_offset",
        "gateway_radius_default_beside_contact_radius",
    ],
)
def test_load_scenario_rejects_non_finite(mutate, message, bad):
    obj = scenario_to_json(make_scenario(1))
    mutate(obj, bad)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(json.dumps(obj))


@pytest.mark.parametrize(
    "text, message",
    [(DEEP_JSON, "maximum recursion depth exceeded"), (LONG_INT_JSON, r"Exceeds the limit \(4300")],
    ids=["deep-nesting", "long-integer"],
)
def test_load_scenario_rejects_undecodable_json(int_digit_limit, text, message):
    with pytest.raises(ScenarioError, match="^invalid JSON in scenario file: " + message):
        load_scenario(text)


@pytest.mark.parametrize("bad", [2.7, math.nan, math.inf])
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o, bad: o["insertions"][0].update(tick=bad), "insertion tick"),
        (lambda o, bad: o.update(measurement_interval=bad), "measurement_interval"),
        (lambda o, bad: o.update(max_ticks=bad), "max_ticks"),
    ],
    ids=["insertion_tick", "measurement_interval", "max_ticks"],
)
def test_load_scenario_rejects_non_integral(mutate, message, bad):
    obj = scenario_to_json(make_scenario(1))
    mutate(obj, bad)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(json.dumps(obj))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o["insertions"][0].pop("at"), "insertion object missing field 'at'"),
        (lambda o: o["insertions"][0].pop("node"), "insertion object missing field 'node'"),
        (lambda o: o.update(insertions=5), "scenario insertions: expected a JSON array, got int"),
        (lambda o: o.update(insertions=[5]), "insertion object: expected a JSON object, got int"),
        (lambda o: o["graph"]["links"][0].pop("u"), "link object missing field 'u'"),
        (lambda o: o.update(base_step=[1]), "base_step must be a number"),
    ],
    ids=[
        "insertion-at",
        "insertion-node",
        "insertions-not-array",
        "insertion-not-object",
        "link-u",
        "base_step-not-number",
    ],
)
def test_load_scenario_names_missing_field_or_container(mutate, message):
    obj = scenario_to_json(make_scenario(1))
    mutate(obj)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(json.dumps(obj))


@pytest.mark.parametrize(
    "at, message",
    [
        ({"from": "nowhere"}, "unknown junction: 'nowhere'"),
        ({"offset": 1e6}, "degenerate position with nonzero extent"),
    ],
    ids=["unknown-junction", "offset-off-the-link"],
)
def test_load_scenario_rejects_an_insertion_off_the_network(at, message):
    # The insertion parses as a position; only the spec's canonicalization
    # finds it off the graph, and that error is a scenario error too.
    obj = scenario_to_json(make_scenario(1))
    obj["insertions"][0]["at"].update(at)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(json.dumps(obj))


def test_load_scenario_reads_whole_floats_as_integers():
    obj = scenario_to_json(make_scenario(2))
    obj["insertions"][1]["tick"] = 5.0
    obj.update(measurement_interval=1.0, max_ticks=5000.0)
    loaded = load_scenario(json.dumps(obj))
    assert [i.tick for i in loaded.insertions] == [0, 5]
    assert (loaded.measurement_interval, loaded.max_ticks) == (1, 5000)
    assert run_instance(loaded, 3).ground_truth == run_instance(make_scenario(2), 3).ground_truth


def test_scenario_validation():
    g = long_pipe()
    with pytest.raises(ScenarioError, match="base_step"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], base_step=0.0)
    with pytest.raises(ScenarioError, match="probability"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], noise_p=1.5)
    with pytest.raises(ScenarioError, match="max_ticks"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], max_ticks=-5)
    with pytest.raises(ScenarioError, match="measurement interval must be >= 1"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], measurement_interval=0)
    with pytest.raises(ScenarioError, match="insertion tick must be >= 0"):
        ScenarioSpec(g, [Insertion("n", g.position_at("s"), -1)])
    with pytest.raises(ScenarioError, match="duplicate node"):
        ScenarioSpec(
            g,
            [Insertion("n", g.position_at("s"), 0), Insertion("n", g.position_at("s"), 1)],
        )
    with pytest.raises(ScenarioError, match="gateway_radius_default must be positive"):
        ScenarioSpec(
            g,
            [Insertion("n", g.position_at("s"), 0)],
            gateway_radius_default=-5.0,
            contact_radius=2.0,
        )


@pytest.mark.parametrize("bad", [1.5, math.nan, True, "3"])
@pytest.mark.parametrize(
    "field, build",
    [
        ("insertion tick", lambda g, bad: ScenarioSpec(g, [Insertion("n", g.position_at("s"), bad)])),
        (
            "measurement_interval",
            lambda g, bad: ScenarioSpec(
                g, [Insertion("n", g.position_at("s"), 0)], measurement_interval=bad
            ),
        ),
        (
            "max_ticks",
            lambda g, bad: ScenarioSpec(g, [Insertion("n", g.position_at("s"), 0)], max_ticks=bad),
        ),
    ],
    ids=["insertion_tick", "measurement_interval", "max_ticks"],
)
def test_scenario_validation_rejects_non_integral_ticks(field, build, bad):
    # The message and the rule are `check_integer`'s, as in `scenario_from_json`:
    # an insertion at tick 1.5 would never be inserted, and an interval of 1.5
    # would record on ticks 0, 3, 6, ...
    with pytest.raises(ScenarioError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
        build(long_pipe(), bad)


def test_scenario_validation_takes_whole_floats_as_scenario_from_json_does():
    g = long_pipe()
    spec = ScenarioSpec(g, [Insertion("n", g.position_at("s"), 2.0)], measurement_interval=1.0)
    assert spec.insertions[0].tick == 2 and spec.measurement_interval == 1


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("base_step", True, "base_step must be a number, got True"),
        ("base_step", "1", "base_step must be a number, got '1'"),
        ("noise_p", True, "noise_p must be a number, got True"),
        ("gateway_radius_default", [3], "gateway_radius_default must be a number, got [3]"),
        ("contact_radius", True, "contact_radius must be a number, got True"),
        ("measurement_interval", True, "measurement_interval must be an integer, got True"),
        ("max_ticks", "9", "max_ticks must be an integer, got '9'"),
        ("node", 5, "insertion node must be a string, got 5"),
        ("node", None, "insertion node must be a string, got None"),
        ("tick", "0", "insertion tick must be an integer, got '0'"),
    ],
)
def test_scenario_spec_checks_fields_as_load_scenario_does(field, bad, message):
    spec = make_scenario(2)
    obj = scenario_to_json(spec)
    if field in ("node", "tick"):
        obj["insertions"][1][field] = bad
        first, second = spec.insertions
        direct = lambda: replace(spec, insertions=[first, replace(second, **{field: bad})])
    else:
        obj[field] = bad
        direct = lambda: replace(spec, **{field: bad})
    for build in (direct, lambda: load_scenario(json.dumps(obj))):
        with pytest.raises(ScenarioError) as raised:
            build()
        assert type(raised.value) is ScenarioError
        assert str(raised.value) == message


def test_scenario_spec_reports_types_before_ranges_as_load_scenario_does():
    spec = make_scenario(1)
    obj = scenario_to_json(spec)
    obj.update(base_step=-1.0, max_ticks=True)
    for build in (
        lambda: replace(spec, base_step=-1.0, max_ticks=True),
        lambda: load_scenario(json.dumps(obj)),
    ):
        with pytest.raises(ScenarioError, match=r"^max_ticks must be an integer, got True$"):
            build()


def test_python_built_scenario_reads_back_as_written():
    g = long_pipe(10)
    spec = ScenarioSpec(
        g, [Insertion("n", g.position_at("s"), 2.0)], max_ticks=10.0, base_step=1
    )
    written = json.dumps(scenario_to_json(spec))
    assert json.dumps(scenario_to_json(load_scenario(written))) == written
    assert run_instance(load_scenario(written), 3).ground_truth == run_instance(spec, 3).ground_truth


@pytest.mark.parametrize(
    "at, message",
    [
        (GraphPosition("zz", "s", 0.0, 1.0), "unknown junction: 'zz'"),
        (GraphPosition("s", "s", 1.0, 0.0), "degenerate position with nonzero extent"),
        (GraphPosition("s", "s", math.nan, 0.0), "non-finite offset or span"),
    ],
)
def test_insertion_off_the_network_raises_a_scenario_error(at, message):
    g = long_pipe()
    with pytest.raises(ScenarioError, match=message) as raised:
        ScenarioSpec(g, [Insertion("n", at, 0)])
    assert isinstance(raised.value.__cause__, GraphError)


def test_insertion_against_the_flow_runs_as_its_flowing_form():
    # Scenario 1 flows a -> b -> c; an insertion written from b toward a is
    # turned child -> parent before the run starts.
    spec = make_scenario(1)
    runs = [
        run_instance(replace(spec, insertions=[Insertion("n1", at, 0)]), 5)
        for at in (GraphPosition("b", "a", 10.0, 50.0), GraphPosition("a", "b", 40.0, 50.0))
    ]
    assert runs[0] == runs[1]
    assert runs[0].ground_truth[0].position == GraphPosition("a", "b", 40.0, 50.0)

