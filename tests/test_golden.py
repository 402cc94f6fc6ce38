"""Golden outputs: `gral evaluate` CSVs and estimates must stay byte-identical.

The hashes pin the summary and per-instance CSVs of scenarios 1-4 (3
instances from seed 0), every variant's estimates on 150 seeded random
gated trees, and every variant's estimates on swarm-like trees, where nodes
travel in groups and hear each other on most packages. A change that alters any estimate, score or number format fails
here; one that does so on purpose updates the hashes and says why. Every
estimate hashed must also be a canonical position on the network.
"""

import hashlib
import math
import random
from itertools import pairwise
from operator import attrgetter

import pytest

from gral.cli import main
from gral.localize import VARIANTS, build_state, run_pipeline
from gral.sim import run_instance

from conftest import gated_tree_scenario, swarm_like_scenario

GOLDEN = {
    1: (
        "4f3167c84157705cd336397be5976a0f8c6d000cf61696ff957f5223b3acd279",
        "8f027e60b34b3b5fb796eed316e0ef002f0939de6eaa6addb4632134687998ad",
    ),
    2: (
        "4f744436c17001d1f06c2db9fb14eecded1704b7b94f8cad88735b8f297439c7",
        "e4addb9a5f3a2d4595ce26a484e8947ed9794ae472bcd1d77883babd84fab944",
    ),
    3: (
        "01f5eb1b3ea919454ddd64ebceff8594e5bb68f4e9a8ce99ebe110b8b6d84ecd",
        "7671fc6c10a04bd7332a2112bcc776eca4f30473fe5d8e6c6d0d05d1f44eb423",
    ),
    4: (
        "aadf9f3d941058714d385da091348bd69105a0a548ca6ebc0311b760385e2fa0",
        "97cdda594b49fd865df0b1d124281704580411b5878017f4be006434d7d6960a",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_evaluate_csvs_match_golden_hashes(scenario, tmp_path, capsys):
    summary, per_instance = tmp_path / "summary.csv", tmp_path / "per_instance.csv"
    code = main(
        [
            "evaluate",
            "--scenario", str(scenario),
            "--instances", "3",
            "--seed0", "0",
            "--out", str(summary),
            "--per-instance-out", str(per_instance),
        ]
    )
    assert code == 0
    assert (sha256(summary), sha256(per_instance)) == GOLDEN[scenario]


# -- estimates on random gated trees ---------------------------------------------

TREE_COUNT = 150
TREE_DIGEST = "d687647ad2abb406bf67e5c5bc44b920a1a769eae5bf4d508d0642eb05722b42"


def add_estimates(digest, graph, estimates):
    # Hash every estimate in node order. Each must lie on the network, at a
    # finite offset and already in canonical form.
    for node in sorted(estimates):
        for m in estimates[node]:
            digest.update(repr((m.node, m.seq, m.t, m.position, m.method)).encode())
            assert math.isfinite(m.position.offset), m
            assert graph.canonicalize(m.position) == m.position, m


def test_random_tree_estimates_match_golden_digest():
    digest = hashlib.sha256()
    for seed in range(TREE_COUNT):
        spec = gated_tree_scenario(random.Random(seed))
        streams = run_instance(spec, seed).streams()
        for variant in VARIANTS:
            estimates = run_pipeline(build_state(spec.graph, streams), streams, variant)
            add_estimates(digest, spec.graph, estimates)
    assert digest.hexdigest() == TREE_DIGEST


def test_golden_trees_see_no_estimate_move_upstream():
    # Along each node's seq order, no graph-variant estimate gets farther
    # from the root, the drain, by more than 1e-6. Rectification must not
    # cut at a confluence past the epoch's own final bound (tree 7 did).
    moves = {variant: 0 for variant in VARIANTS if variant != "baseline"}
    steps = 0
    for seed in range(TREE_COUNT):
        spec = gated_tree_scenario(random.Random(seed))
        graph = spec.graph
        root = graph.position_at(graph.root)
        streams = run_instance(spec, seed).streams()
        for variant in moves:
            estimates = run_pipeline(build_state(graph, streams), streams, variant)
            for measurements in estimates.values():
                ordered = sorted(measurements, key=attrgetter("seq"))
                dists = [graph.geodesic_distance(m.position, root) for m in ordered]
                moves[variant] += sum(b > a + 1e-6 for a, b in pairwise(dists))
                steps += max(len(dists) - 1, 0)
    assert steps > 5000
    assert moves == {variant: 0 for variant in moves}


# -- estimates where encounters are dense ----------------------------------------

# Depth-3 binary trees with 2 and 4 nodes per leaf: 16 and 32 nodes, most of
# whose packages hear a peer, so checkpoints and rectification cut often.
SWARM_TREES = [(seed, per_leaf) for seed in range(4) for per_leaf in (2, 4)]
SWARM_DIGEST = "d8eb8ceef3adab35178d265c9a2fec8cb712041198739837902b88d594b2f893"


def test_dense_swarm_estimates_match_golden_digest():
    digest = hashlib.sha256()
    for seed, per_leaf in SWARM_TREES:
        spec = swarm_like_scenario(random.Random(seed), 3, per_leaf)
        streams = run_instance(spec, seed).streams()
        for variant in VARIANTS:
            estimates = run_pipeline(build_state(spec.graph, streams), streams, variant)
            add_estimates(digest, spec.graph, estimates)
    assert digest.hexdigest() == SWARM_DIGEST
