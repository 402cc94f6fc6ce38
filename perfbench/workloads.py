"""The benchmark's workloads: seeded inputs, timed items, output checks, scoring.

Every workload turns `--seed` into a list of items during set-up; those items
are scored and their results are deterministic. stream-long and swarm then
repeat the list in whole cycles, so every run does the same mix of work and
timing percentiles do not depend on where a run happened to stop. eval-s4
generates its inputs inside each item, so it goes on with fresh seeds.

- eval-s4: one item is `run_experiment(make_scenario(4), VARIANTS, 1, seed)`,
  the per-instance unit of `gral evaluate`. Its inputs are simulated inside
  the item, so the simulator, repeated `build_state` and scoring dominate.
- stream-long: one node on a single gated pipe, one stream per link length.
  An item is the `gral localize` path (parse, build_state, run_pipeline) for
  one stream and one variant. Segmentation of long silent streams dominates.
- swarm: sixteen nodes released in pairs from the leaves of a random binary
  tree. An item is the `gral localize` path for one instance and one variant.
  Dense encounters make checkpoints and rectification carry the cost, and
  this is where estimates moving upstream show.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# eval-s4: instances scored per run, and the spacing of the seeds of runs.
EVAL_SCORED = 16
EVAL_SEED_STRIDE = 1000
# stream-long: pipe lengths, doubling; the last gives about 3850 packages.
STREAM_LENGTHS = (400, 800, 1600, 3200, 6400)
STREAM_VARIANTS = ("baseline", "gral")
# swarm: random trees per run, and the tree shape.
SWARM_INSTANCES = 8
SWARM_DEPTH = 3
SWARM_LINK = (30, 60)
SWARM_PER_LEAF = 2

UPSTREAM_TOL = 1e-6


@dataclass
class Outcome:
    """What one item produced, gathered after its timer stopped."""

    estimates: dict[str, dict[str, list]]  # variant -> node -> measurements
    truth: Any  # the simulator's InstanceResult for the item's input
    packages: int
    reported: Optional[list] = None  # run_experiment's VariantResults
    input_digest: Optional[str] = None


@dataclass
class Item:
    label: str
    run: Callable[[], Any]  # the timed call
    collect: Callable[[Any], Outcome]  # untimed: turns run()'s result into an Outcome
    graph: Any  # the network the item's estimates must lie on
    size: Optional[int] = None  # stream length, for scaling fits


@dataclass
class Plan:
    items: list[Item]  # run first and scored; repeated in cycles unless `more` is set
    input_digest: str
    variants: tuple[str, ...]
    notes: dict = field(default_factory=dict)
    more: Optional[Callable[[int], Item]] = None  # k-th item, for k >= len(items)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _group(packages: list) -> dict[str, list]:
    streams: dict[str, list] = {}
    for pkg in packages:
        streams.setdefault(pkg.node, []).append(pkg)
    return streams


def _localize_item(mods, label, graph, data, variant, truth, size=None) -> Item:
    """The `gral localize` path on one serialized stream, minus file I/O."""

    def run():
        packages = mods.packages.parse_package_stream(data)
        streams = _group(packages)
        state = mods.localize.build_state(graph, streams)
        return packages, mods.localize.run_pipeline(state, streams, variant)

    def collect(raw) -> Outcome:
        packages, estimates = raw
        return Outcome({variant: estimates}, truth, len(packages))

    return Item(label, run, collect, graph, size)


def _serialize_instance(mods, spec, result) -> tuple[str, str]:
    graph_text = json.dumps(mods.graph.graph_to_json(spec.graph), sort_keys=True)
    packages = [pkg for batch in result.batches for pkg in batch.packages]
    return graph_text, mods.packages.serialize_packages(packages)


# -- eval-s4 ------------------------------------------------------------------


def setup_eval_s4(mods, seed: int, mark: Callable[[int], None]) -> Plan:
    spec = mods.sim.make_scenario(4)
    variants = tuple(mods.localize.VARIANTS)
    captured: list = []

    # run_experiment hides its estimates; record what it passes through.
    # The wrappers look the real functions up at call time, so a tracer
    # installed later still sees every call.
    def capture_instance(spec, seed):
        result = mods.sim.run_instance(spec, seed)
        captured.append(result)
        return result

    def capture_pipeline(state, streams, variant):
        estimates = mods.localize.run_pipeline(state, streams, variant)
        captured.append((variant, estimates))
        return estimates

    mods.metrics.run_instance = capture_instance
    mods.metrics.run_pipeline = capture_pipeline

    def make(instance_seed: int) -> Item:
        def run():
            captured.clear()
            return mods.metrics.run_experiment(spec, variants, 1, instance_seed)

        def collect(reported) -> Outcome:
            truth = captured[0]
            packages = [pkg for batch in truth.batches for pkg in batch.packages]
            return Outcome(
                dict(captured[1:]),
                truth,
                len(packages),
                reported=reported,
                input_digest=_sha([mods.packages.serialize_packages(packages)]),
            )

        return Item(f"s4-seed{instance_seed}", run, collect, spec.graph)

    # Every item is a fresh instance, so the timings sample scenario 4's
    # instances rather than a fixed few; the first EVAL_SCORED are scored.
    seed0 = seed * EVAL_SEED_STRIDE
    spec_text = json.dumps(mods.sim.scenario_to_json(spec), sort_keys=True)
    return Plan(
        [make(seed0 + i) for i in range(EVAL_SCORED)],
        _sha([spec_text, str(seed0)]),
        variants,
        notes={"scored_seeds": f"{seed0}..{seed0 + EVAL_SCORED - 1}"},
        more=lambda k: make(seed0 + k),
    )


# -- stream-long --------------------------------------------------------------


def setup_stream_long(mods, seed: int, mark: Callable[[int], None]) -> Plan:
    sim, G = mods.sim, mods.graph
    items, digests, sizes = [], [], []
    for k, length in enumerate(STREAM_LENGTHS):
        mark(k)
        graph = G.build_graph(
            [
                G.Junction("src", G.Gateway("gw-src", "src", sim.CHAIN_RADIUS)),
                G.Junction("dst", G.Gateway("gw-dst", "dst", sim.CHAIN_RADIUS)),
            ],
            [G.Link("src", "dst", float(length))],
            "dst",
        )
        spec = sim.ScenarioSpec(
            graph,
            [sim.Insertion("n1", graph.position_at("src"), 0)],
            gateway_radius_default=sim.CHAIN_RADIUS,
            max_ticks=2 * length,
        )
        result = sim.run_instance(spec, seed * len(STREAM_LENGTHS) + k)
        if result.truncated:
            raise RuntimeError(f"stream of length {length} truncated")
        graph_text, data = _serialize_instance(mods, spec, result)
        digests += [graph_text, data]
        loaded = G.load_graph(graph_text)
        n = sum(len(b.packages) for b in result.batches)
        sizes.append(n)
        for variant in STREAM_VARIANTS:
            label = f"L{length}/{variant}"
            items.append(_localize_item(mods, label, loaded, data, variant, result, size=n))
    return Plan(items, _sha(digests), STREAM_VARIANTS, notes={"stream_packages": sizes})


# -- swarm --------------------------------------------------------------------


def swarm_spec(mods, rng: random.Random):
    """Binary tree of depth SWARM_DEPTH, gated at the leaves and the root.

    Two nodes leave each leaf one tick apart, so pairs travel together and
    meet the pairs of sibling leaves at every merge junction.
    """
    sim, G = mods.sim, mods.graph
    radius = sim.CHAIN_RADIUS
    junctions = [G.Junction("r", G.Gateway("gw-r", "r", radius))]
    links = []
    level = ["r"]
    for depth in range(1, SWARM_DEPTH + 1):
        children = []
        for parent in level:
            for side in "ab":
                j = side if parent == "r" else parent + side
                gateway = G.Gateway(f"gw-{j}", j, radius) if depth == SWARM_DEPTH else None
                junctions.append(G.Junction(j, gateway))
                links.append(G.Link(j, parent, float(rng.randint(*SWARM_LINK))))
                children.append(j)
        level = children
    graph = G.build_graph(junctions, links, "r")
    insertions = [
        sim.Insertion(f"{leaf}{k}", graph.position_at(leaf), k)
        for leaf in level
        for k in range(SWARM_PER_LEAF)
    ]
    return sim.ScenarioSpec(graph, insertions, gateway_radius_default=radius)


def setup_swarm(mods, seed: int, mark: Callable[[int], None]) -> Plan:
    variants = tuple(mods.localize.VARIANTS)
    items, digests = [], []
    contacts = packages = 0
    for k in range(SWARM_INSTANCES):
        mark(k)
        instance_seed = seed * SWARM_INSTANCES + k
        spec = swarm_spec(mods, random.Random(instance_seed))
        result = mods.sim.run_instance(spec, instance_seed)
        if result.truncated:
            raise RuntimeError(f"swarm instance {instance_seed} truncated")
        graph_text, data = _serialize_instance(mods, spec, result)
        digests += [graph_text, data]
        loaded = mods.graph.load_graph(graph_text)
        for batch in result.batches:
            packages += len(batch.packages)
            contacts += sum(len(p.contacts) for p in batch.packages)
        for variant in variants:
            items.append(_localize_item(mods, f"i{k}/{variant}", loaded, data, variant, result))
    return Plan(
        items, _sha(digests), variants, notes={"contacts_per_pkg": round(contacts / packages, 4)}
    )


WORKLOADS = {
    "eval-s4": setup_eval_s4,
    "stream-long": setup_stream_long,
    "swarm": setup_swarm,
}


# -- checks and scoring -------------------------------------------------------


def emitted_keys(truth) -> set:
    return {(p.node, p.seq) for batch in truth.batches for p in batch.packages}


def check(mods, item: Item, outcome: Outcome, variants) -> list[str]:
    """Problems with one item's estimates; an empty list means valid.

    Every estimate must lie on the network and carry its variant's tag, and
    every (node, seq) must be a package of the input, estimated at most once
    per variant.
    """
    problems = []
    emitted = emitted_keys(outcome.truth)
    if outcome.reported is not None and set(outcome.estimates) != set(variants):
        problems.append(f"variants run {sorted(outcome.estimates)} != {sorted(variants)}")
    for variant, estimates in outcome.estimates.items():
        seen = set()
        for node, measurements in estimates.items():
            for m in measurements:
                key = (m.node, m.seq)
                if m.node != node or key not in emitted:
                    problems.append(f"{variant}: unknown package {key}")
                elif key in seen:
                    problems.append(f"{variant}: duplicate package {key}")
                seen.add(key)
                if m.method != variant:
                    problems.append(f"{variant}: {key} tagged {m.method!r}")
                if not math.isfinite(m.position.offset):
                    problems.append(f"{variant}: {key} has offset {m.position.offset}")
                    continue
                try:
                    item.graph.canonicalize(m.position)
                except mods.graph.GraphError as exc:
                    problems.append(f"{variant}: {key} off the network: {exc}")
    if outcome.reported is not None:
        for r in outcome.reported:
            if r.packages_total != outcome.packages:
                problems.append(f"{r.variant}: reported {r.packages_total} packages")
    return problems[:5]


def estimates_digest(estimates: dict[str, dict[str, list]]) -> str:
    lines = []
    for variant in sorted(estimates):
        for node in sorted(estimates[variant]):
            for m in estimates[variant][node]:
                p = m.position
                lines.append(
                    f"{variant},{m.node},{m.seq},{m.t!r},{p.u},{p.v},{p.offset!r},{p.span!r},{m.method}"
                )
    return _sha(lines)


def root_distance(graph, pos) -> float:
    p = graph.canonicalize(pos)
    if p.u == p.v:
        return graph.dist_to_root[p.u]
    if graph.parent[p.u] == p.v:
        return graph.dist_to_root[p.v] + p.span - p.offset
    return graph.dist_to_root[p.u] + p.offset


def upstream_moves(graph, estimates: dict[str, list]) -> int:
    """Consecutive estimates of one node that move away from the root."""
    moves = 0
    for measurements in estimates.values():
        ordered = sorted(measurements, key=lambda m: m.seq)
        dists = [root_distance(graph, m.position) for m in ordered]
        moves += sum(1 for a, b in zip(dists, dists[1:]) if b > a + UPSTREAM_TOL)
    return moves


class Score:
    """Accuracy over the scored items: pooled RMSE, coverage, upstream moves."""

    def __init__(self, variants) -> None:
        self.variants = variants
        self.sq: dict[str, list[float]] = {v: [] for v in variants}
        self.total = {v: 0 for v in variants}
        self.upstream = 0

    def add(self, mods, graph, outcome: Outcome) -> list[str]:
        problems = []
        emitted = len(emitted_keys(outcome.truth))
        for variant, estimates in outcome.estimates.items():
            samples, _missing = mods.metrics.instance_errors(graph, outcome.truth, estimates)
            errors = [s.error for s in samples]
            self.sq[variant].extend(e * e for e in errors)
            self.total[variant] += emitted
            if variant != "baseline":
                self.upstream += upstream_moves(graph, estimates)
            for r in outcome.reported or ():
                if r.variant != variant:
                    continue
                rms = mods.metrics.rmse(errors) if errors else float("nan")
                if r.packages_localized != len(errors) or not math.isclose(
                    r.pooled_rmse, rms, rel_tol=1e-12
                ):
                    problems.append(f"{variant}: run_experiment disagrees with rescoring")
        return problems

    def metrics(self, all_variants) -> dict[str, float]:
        """Accuracy per variant; NaN for variants the workload does not run."""
        out: dict[str, float] = {}
        for v in all_variants:
            sq, total = self.sq.get(v), self.total.get(v)
            name = v.replace("+", "-")
            out[f"drmse.{name}"] = math.sqrt(math.fsum(sq) / len(sq)) if sq else math.nan
            out[f"coverage_pct.{name}"] = 100.0 * len(sq) / total if total else math.nan
        out["upstream_moves"] = self.upstream
        return out
