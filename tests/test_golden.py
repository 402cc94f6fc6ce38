"""Golden outputs: `gral evaluate` CSVs and estimates must stay byte-identical.

The hashes pin the summary and per-instance CSVs of scenarios 1-4 (3
instances from seed 0), and every variant's estimates on 150 seeded random
gated trees. A change that alters any estimate, score or number format fails
here; one that does so on purpose updates the hashes and says why.
"""

import hashlib
import random

import pytest

from gral.cli import main
from gral.graph import Gateway, GraphPosition, Junction, Link, build_graph
from gral.localize import VARIANTS, build_state, run_pipeline
from gral.sim import Insertion, ScenarioSpec, run_instance

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
TREE_DIGEST = "ab3150c054e9be721041d27bad93182c131808dd3997637b082bd8a2f59dd4a9"


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


def test_random_tree_estimates_match_golden_digest():
    digest = hashlib.sha256()
    for seed in range(TREE_COUNT):
        spec = gated_tree_scenario(random.Random(seed))
        streams = run_instance(spec, seed).streams()
        for variant in VARIANTS:
            estimates = run_pipeline(build_state(spec.graph, streams), streams, variant)
            for node in sorted(estimates):
                for m in estimates[node]:
                    digest.update(repr((m.node, m.seq, m.t, m.position, m.method)).encode())
    assert digest.hexdigest() == TREE_DIGEST
