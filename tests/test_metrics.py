import csv
import io
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from gral import localize, metrics
from gral.epochs import is_complete
from gral.localize import VARIANTS, BackendState, build_state, run_pipeline
from gral.metrics import VariantResult, mae, normalized_mae, rmse, run_experiment
from gral.sim import ScenarioError, make_scenario, run_instance

from conftest import gated_tree_scenario, swarm_like_scenario


def test_zero_errors():
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert mae([0.0, 0.0, 0.0]) == 0.0


def test_three_four():
    assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert mae([3.0, 4.0]) == pytest.approx(3.5, abs=1e-12)


def test_singleton():
    assert rmse([2.5]) == pytest.approx(2.5, abs=1e-12)
    assert mae([2.5]) == pytest.approx(2.5, abs=1e-12)


def test_empty_rejected():
    with pytest.raises(ValueError):
        rmse([])
    with pytest.raises(ValueError):
        mae([])


def test_rmse_dominates_mae_on_random_vectors():
    rng = random.Random(10)
    for _ in range(1000):
        values = [rng.uniform(0.0, 25.0) for _ in range(rng.randint(1, 40))]
        assert rmse(values) >= mae(values) - 1e-12


def test_metrics_match_bruteforce_through_csv():
    rng = random.Random(11)
    values = [rng.uniform(0.0, 30.0) for _ in range(500)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["error"])
    for v in values:
        writer.writerow([repr(v)])
    buf.seek(0)
    reader = csv.DictReader(buf)
    parsed = [float(row["error"]) for row in reader]
    brute_rmse = math.sqrt(sum(v * v for v in parsed) / len(parsed))
    brute_mae = sum(abs(v) for v in parsed) / len(parsed)
    assert rmse(parsed) == pytest.approx(brute_rmse, abs=1e-12)
    assert mae(parsed) == pytest.approx(brute_mae, abs=1e-12)


def test_normalized_mae():
    assert normalized_mae(4.81, 100.0) == pytest.approx(4.81)
    assert normalized_mae(0.0, 100.0) == 0.0
    assert normalized_mae(7.62, 100.0) == pytest.approx(7.62)
    with pytest.raises(ValueError):
        normalized_mae(1.0, 0.0)


def test_experiment_single_instance_drmse_equals_irmse():
    spec = make_scenario(1)
    (result,) = run_experiment(spec, ["gral"], 1, seed0=3, scenario_name="s1")
    assert len(result.instance_rmse) == 1
    assert result.pooled_rmse == pytest.approx(result.instance_rmse[0], abs=1e-12)


def test_experiment_drmse_between_min_and_max_irmse():
    spec = make_scenario(1)
    (result,) = run_experiment(spec, ["gral"], 8, seed0=0, scenario_name="s1")
    assert min(result.instance_rmse) - 1e-12 <= result.pooled_rmse <= max(result.instance_rmse) + 1e-12


def test_experiment_directional_small():
    spec = make_scenario(1)
    baseline, gral = run_experiment(spec, ["baseline", "gral"], 20, seed0=0, scenario_name="s1")
    assert gral.pooled_rmse < baseline.pooled_rmse
    assert gral.coverage_pct == 100.0


def test_experiment_segments_each_instance_once(monkeypatch):
    calls = []
    build_state = metrics.build_state

    def counting_build_state(*args, **kwargs):
        calls.append(args)
        return build_state(*args, **kwargs)

    monkeypatch.setattr(metrics, "build_state", counting_build_state)
    run_experiment(make_scenario(2), metrics.VARIANTS, 3, seed0=0)
    assert len(calls) == 3


def test_experiment_resolves_each_node_once_per_instance(monkeypatch):
    calls = []
    resolve_positions = localize.resolve_positions

    def counting_resolve(epoch_set, *args, **kwargs):
        calls.append(epoch_set.node)
        return resolve_positions(epoch_set, *args, **kwargs)

    monkeypatch.setattr(localize, "resolve_positions", counting_resolve)
    run_experiment(make_scenario(2), metrics.VARIANTS, 3, seed0=0)
    assert Counter(calls) == {"n1": 3, "n2": 3}


def test_experiment_validates_inputs():
    spec = make_scenario(1)
    with pytest.raises(ValueError):
        run_experiment(spec, ["gral"], 0)
    with pytest.raises(ValueError):
        run_experiment(spec, ["nope"], 1)
    with pytest.raises(ValueError, match="no variants given"):
        run_experiment(spec, [], 1)
    with pytest.raises(ValueError, match="variant 'gral' given more than once"):
        run_experiment(spec, ["gral", "baseline", "gral"], 1)


def variant_results(spec, n_instances, total, errors, irmse, seeds, truncated=()):
    """The `VariantResult`s of per-variant errors, iRMSEs and their seeds."""
    route = spec.route_length()
    nan = float("nan")
    truncated = list(truncated)
    return [
        VariantResult(
            "s", v, n_instances, total, len(errors[v]), irmse[v], seeds[v],
            rmse(errors[v]), mae(errors[v]), normalized_mae(mae(errors[v]), route), truncated,
        )
        if errors[v]
        else VariantResult("s", v, n_instances, total, 0, [], [], nan, nan, nan, truncated)
        for v in VARIANTS
    ]


def fresh_experiment(spec, n_instances, estimates=None):
    """`run_experiment` spelled out: a fresh `BackendState` for every variant,
    and each error scored from the instance's own records. Each variant's
    estimates are appended to `estimates`, if given."""
    errors = {v: [] for v in VARIANTS}
    irmse = {v: [] for v in VARIANTS}
    seeds = {v: [] for v in VARIANTS}
    total = 0
    for seed in range(n_instances):
        result = run_instance(spec, seed)
        streams = result.streams()
        truth = {(r.node, r.seq): r.position for r in result.ground_truth}
        emitted = {(p.node, p.seq) for b in result.batches for p in b.packages}
        total += len(emitted)
        segmented = build_state(spec.graph, streams)
        for variant in VARIANTS:
            state = BackendState(spec.graph, dict(segmented.epoch_sets))
            placed = run_pipeline(state, streams, variant)
            if estimates is not None:
                estimates.append((variant, placed))
            errs = [
                spec.graph.geodesic_distance(truth[(m.node, m.seq)], m.position)
                for measurements in placed.values()
                for m in measurements
                if (m.node, m.seq) in emitted
            ]
            errors[variant] += errs
            if errs:
                irmse[variant].append(rmse(errs))
                seeds[variant].append(seed)
    return variant_results(spec, n_instances, total, errors, irmse, seeds)


@pytest.mark.parametrize("scenario", [2, 3, 4])
def test_experiment_equals_fresh_per_variant_recomputation(scenario):
    spec = make_scenario(scenario)
    got = run_experiment(spec, VARIANTS, 10, seed0=0, scenario_name="s")
    assert got == fresh_experiment(spec, 10)


def shared_and_fresh(monkeypatch, spec, n_instances):
    """Assert that `run_experiment`'s results and its variants' estimates equal
    `fresh_experiment`'s; returns the number of cuts the shared run made."""
    shared, fresh = [], []
    splits = 0
    real_pipeline, real_split = metrics.run_pipeline, localize._split_epoch

    def recording_pipeline(state, streams, variant):
        estimates = real_pipeline(state, streams, variant)
        shared.append((variant, estimates))
        return estimates

    def counting_split(state, epoch, cuts):
        nonlocal splits
        splits += len(cuts)
        return real_split(state, epoch, cuts)

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "run_pipeline", recording_pipeline)
        patch.setattr(localize, "_split_epoch", counting_split)
        got = run_experiment(spec, VARIANTS, n_instances, seed0=0, scenario_name="s")
    expected = fresh_experiment(spec, n_instances, fresh)
    # repr compares the NaN of a variant that localized nothing, too.
    assert repr(got) == repr(expected)
    assert shared == fresh
    return splits


def test_shared_placements_equal_fresh_states_on_swarm_trees(monkeypatch):
    # Two nodes per leaf of a depth-3 binary tree meet at every merge.
    for tree_seed in range(3):
        spec = swarm_like_scenario(random.Random(tree_seed), 3, 2)
        assert len(spec.insertions) == 16
        assert shared_and_fresh(monkeypatch, spec, 3) > 50, tree_seed


def test_shared_placements_equal_fresh_states_on_gated_trees(monkeypatch):
    splits = sum(
        shared_and_fresh(monkeypatch, gated_tree_scenario(random.Random(seed)), 2)
        for seed in range(20)
    )
    assert splits > 10


def test_experiment_places_each_segmented_epoch_once(monkeypatch):
    segmented = []  # every epoch build_state returned
    cut_by = {}  # id of a fragment -> (the fragment, the first variant that cut it)
    placed = []  # (epoch, running variant) of every interpolate_epoch call
    tagged = []  # (variant, estimates) of every run_pipeline call
    running = None
    real_build, real_pipeline = metrics.build_state, metrics.run_pipeline
    real_split, real_interpolate = localize._split_epoch, localize.interpolate_epoch

    def recording_build(*args):
        state = real_build(*args)
        segmented.extend(e for epoch_set in state.epoch_sets.values() for e in epoch_set.epochs)
        return state

    def recording_pipeline(state, streams, variant):
        nonlocal running
        running = variant
        estimates = real_pipeline(state, streams, variant)
        tagged.append((variant, estimates))
        return estimates

    def recording_split(state, epoch, cuts):
        fragments = real_split(state, epoch, cuts)
        for f in fragments:
            cut_by.setdefault(id(f), (f, running))
        return fragments

    def recording_interpolate(graph, epoch):
        placed.append((epoch, running))
        return real_interpolate(graph, epoch)

    monkeypatch.setattr(metrics, "build_state", recording_build)
    monkeypatch.setattr(metrics, "run_pipeline", recording_pipeline)
    monkeypatch.setattr(localize, "_split_epoch", recording_split)
    monkeypatch.setattr(localize, "interpolate_epoch", recording_interpolate)
    run_experiment(make_scenario(4), VARIANTS, 5, seed0=0)

    # Every recorded epoch stays alive, so their ids are distinct.
    times_placed = Counter(id(epoch) for epoch, _ in placed)
    assert [times_placed[id(e)] for e in segmented] == [int(is_complete(e)) for e in segmented]
    segmented_ids = {id(e) for e in segmented}
    # The baseline places its own epochs, each once, and cuts none.
    baseline = [e for e, placer in placed if placer == "baseline"]
    assert baseline and all(id(e) not in segmented_ids for e in baseline)
    assert all(times_placed[id(e)] == 1 and id(e) not in cut_by for e in baseline)
    fragments = [
        (e, placer) for e, placer in placed if id(e) not in segmented_ids and placer != "baseline"
    ]
    assert fragments
    # Each fragment is placed once per instance, by the first variant that cut it.
    for epoch, placer in fragments:
        fragment, first_cutter = cut_by[id(epoch)]
        assert fragment is epoch and first_cutter == placer
        assert times_placed[id(epoch)] == 1
    assert [variant for variant, _ in tagged] == list(VARIANTS) * 5
    for variant, estimates in tagged:
        assert {m.method for ms in estimates.values() for m in ms} == {variant}


@pytest.mark.parametrize("tree_seed", [None, 0, 1, 2])
def test_experiment_places_no_fragment_twice_in_an_instance(monkeypatch, tree_seed):
    # None is scenario 4; the others are swarm-like trees with 16 nodes.
    if tree_seed is None:
        spec = make_scenario(4)
    else:
        spec = swarm_like_scenario(random.Random(tree_seed), 3, 2)
    # Per instance: (by the baseline, node, first seq, last seq, start, final) of
    # each placement. The baseline's epochs may share all but the first with
    # segmented epochs, and are placed apart from them.
    per_instance = []
    running = None
    real_build, real_pipeline = metrics.build_state, metrics.run_pipeline
    real_interpolate = localize.interpolate_epoch

    def recording_build(*args):
        per_instance.append([])
        return real_build(*args)

    def recording_pipeline(state, streams, variant):
        nonlocal running
        running = variant
        return real_pipeline(state, streams, variant)

    def recording_interpolate(graph, epoch):
        first, last = epoch.packages[0], epoch.packages[-1]
        by_baseline = running == "baseline"
        per_instance[-1].append(
            (by_baseline, first.node, first.seq, last.seq, epoch.start_pos, epoch.final_pos)
        )
        return real_interpolate(graph, epoch)

    monkeypatch.setattr(metrics, "build_state", recording_build)
    monkeypatch.setattr(metrics, "run_pipeline", recording_pipeline)
    monkeypatch.setattr(localize, "interpolate_epoch", recording_interpolate)
    run_experiment(spec, VARIANTS, 4, seed0=0)
    assert len(per_instance) == 4
    for placed in per_instance:
        assert len(set(placed)) == len(placed)
    assert sum(map(len, per_instance)) > 50


def test_pipeline_on_a_segmented_state_places_each_complete_epoch_once(monkeypatch):
    spec = make_scenario(4)
    placed = []
    real_interpolate = localize.interpolate_epoch

    def recording_interpolate(graph, epoch):
        placed.append(epoch)
        return real_interpolate(graph, epoch)

    monkeypatch.setattr(localize, "interpolate_epoch", recording_interpolate)
    for variant in ("gral", "gral+pr"):
        fragments = 0
        for seed in range(5):
            streams = run_instance(spec, seed).streams()
            state = build_state(spec.graph, streams)
            assert state.placements == {}
            complete = [e for es in state.epoch_sets.values() for e in es.epochs if is_complete(e)]
            placed.clear()
            first = run_pipeline(state, streams, variant)
            assert set(complete) <= set(state.placements), (variant, seed)
            ids = sorted(map(id, placed))
            # Every complete epoch is placed; rectification adds only its fragments.
            assert set(map(id, complete)) <= set(ids), (variant, seed)
            fragments += len(ids) - len(complete)
            # A second run on the same state reads what the first placed,
            # rectification fragments included, and places nothing twice.
            assert run_pipeline(state, streams, variant) == first
            assert sorted(map(id, placed)) == ids, (variant, seed)
            assert len(set(ids)) == len(ids), (variant, seed)
        assert (fragments > 0) == (variant == "gral+pr")


def test_refinements_skip_routes_and_lookups_they_cannot_use(monkeypatch):
    # `apply_checkpoints` tests "on the epoch path" without building a route,
    # and `_confluence_cuts` looks up provenance only for an epoch that heard
    # a peer, since no other epoch can be cut.
    spec = make_scenario(4)
    applying = False
    epochs_seen = Counter()  # by whether the epoch heard a peer
    current = []  # the epoch `_confluence_cuts` is looking at
    lookups = 0
    real_apply, real_cuts = localize.apply_checkpoints, localize._confluence_cuts
    real_provenance, real_route = localize._provenance_before, spec.graph.route

    def flagged_apply(state, node):
        nonlocal applying
        applying = True
        try:
            return real_apply(state, node)
        finally:
            applying = False

    def checked_route(start, end):
        assert not applying
        return real_route(start, end)

    def recording_cuts(state, node, idx):
        epoch = state.epoch_sets[node].epochs[idx]
        epochs_seen[any(p.contacts for p in epoch.packages)] += 1
        current.append(epoch)
        try:
            return real_cuts(state, node, idx)
        finally:
            current.pop()

    def checked_provenance(state, node, t):
        nonlocal lookups
        lookups += 1
        assert any(p.contacts for p in current[-1].packages)
        return real_provenance(state, node, t)

    monkeypatch.setattr(localize, "apply_checkpoints", flagged_apply)
    monkeypatch.setattr(spec.graph, "route", checked_route)
    monkeypatch.setattr(localize, "_confluence_cuts", recording_cuts)
    monkeypatch.setattr(localize, "_provenance_before", checked_provenance)
    run_experiment(spec, VARIANTS, 20, 0)
    assert epochs_seen[True] > 0 and epochs_seen[False] > 0 and lookups > 0


def test_instance_errors_keeps_its_samples_and_missing_count():
    spec = make_scenario(2)
    result = run_instance(spec, 4)
    streams = result.streams()
    estimates = run_pipeline(build_state(spec.graph, streams), streams, "gral")
    # One package left out and one estimate of a package never emitted.
    dropped = estimates["n1"].pop(3)
    estimates["n1"].append(dropped._replace(seq=10**6))
    truth = {(r.node, r.seq): r.position for r in result.ground_truth}
    samples, missing = metrics.instance_errors(spec.graph, result, estimates)
    expected = [
        (m.node, m.seq, spec.graph.geodesic_distance(truth[(m.node, m.seq)], m.position))
        for node in ("n1", "n2")
        for m in estimates[node]
        if m.seq != 10**6
    ]
    assert [(s.node, s.seq, s.error) for s in samples] == expected
    assert missing == 1


def rescored_experiment(monkeypatch, spec, n_instances):
    """`run_experiment`'s results, and the results rebuilt from its variants'
    estimates, each scored again through `instance_errors`."""
    instances, captured = [], []
    real_instance, real_pipeline = metrics.run_instance, metrics.run_pipeline

    def capture_instance(spec, seed):
        result = real_instance(spec, seed)
        instances.append((seed, result))
        return result

    def capture_pipeline(state, streams, variant):
        estimates = real_pipeline(state, streams, variant)
        captured.append((instances[-1], variant, estimates))
        return estimates

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "run_instance", capture_instance)
        patch.setattr(metrics, "run_pipeline", capture_pipeline)
        got = run_experiment(spec, VARIANTS, n_instances, seed0=0, scenario_name="s")
    errors = {v: [] for v in VARIANTS}
    irmse = {v: [] for v in VARIANTS}
    seeds = {v: [] for v in VARIANTS}
    for (seed, result), variant, estimates in captured:
        samples, _missing = metrics.instance_errors(spec.graph, result, estimates)
        errs = [s.error for s in samples]
        errors[variant] += errs
        if errs:
            irmse[variant].append(rmse(errs))
            seeds[variant].append(seed)
    total = sum(len(b.packages) for _, result in instances for b in result.batches)
    truncated = [seed for seed, result in instances if result.truncated]
    return got, variant_results(spec, n_instances, total, errors, irmse, seeds, truncated)


def test_experiment_scores_each_estimate_once_on_the_built_in_scenarios(monkeypatch):
    for scenario in (1, 2, 3, 4):
        got, expected = rescored_experiment(monkeypatch, make_scenario(scenario), 3)
        # repr compares the NaN of a variant that localized nothing, too.
        assert repr(got) == repr(expected), scenario
        assert all(r.packages_localized > 0 for r in got), scenario


def test_experiment_scores_each_estimate_once_on_gated_trees(monkeypatch):
    localized_nothing = localized_in_some = 0
    # On tree 22 the gral variants localize some instances but not all;
    # several other trees are localized by baseline only.
    for tree_seed in range(5, 25):
        spec = gated_tree_scenario(random.Random(tree_seed))
        got, expected = rescored_experiment(monkeypatch, spec, 3)
        assert repr(got) == repr(expected), tree_seed
        localized_nothing += sum(r.packages_localized == 0 for r in got)
        localized_in_some += sum(0 < len(r.instance_seeds) < r.instances for r in got)
    # Variants that localize no package of a tree, or of only some instances.
    assert localized_nothing > 0 and localized_in_some > 0


def test_experiment_scores_fragment_slices_on_dense_swarm_trees(monkeypatch):
    # Dense encounters cut fragments that start mid-epoch, so their truth is
    # a slice of the node's track from a seq inside the unsplit epoch; the
    # results must equal, bit for bit, the key-based rescoring of the
    # estimates.
    mid_epoch = set()  # the fragments scored that start inside their unsplit epoch
    real_epoch_errors = metrics.epoch_errors

    def noting_epoch_errors(state, tracks, scored):
        errors = real_epoch_errors(state, tracks, scored)
        mid_epoch.update(e for e in scored if state.origins.get(e, (e, 0))[1] > 0)
        return errors

    monkeypatch.setattr(metrics, "epoch_errors", noting_epoch_errors)
    for tree_seed in range(3):
        spec = swarm_like_scenario(random.Random(tree_seed), 3, 2)
        got, expected = rescored_experiment(monkeypatch, spec, 3)
        assert repr(got) == repr(expected), tree_seed
        assert all(r.packages_localized > 0 for r in got), tree_seed
    assert len(mid_epoch) > 100


def test_experiment_finds_each_junction_path_once(monkeypatch):
    # Routes read their junction-to-junction path from the graph's memo, so
    # over a whole experiment `shortest_path` runs at most once per ordered
    # pair of junctions, however many routes share the pair.
    specs = [(make_scenario(4), 5)]
    specs += [(swarm_like_scenario(random.Random(tree_seed), 3, 2), 3) for tree_seed in (0, 1)]
    for spec, n_instances in specs:
        graph = spec.graph
        paths, routes = Counter(), []
        real_path, real_route = graph.shortest_path, graph.route

        def counting_path(u, v):
            paths[(u, v)] += 1
            return real_path(u, v)

        def counting_route(start, end):
            routes.append(real_route(start, end))
            return routes[-1]

        with monkeypatch.context() as patch:
            patch.setattr(graph, "shortest_path", counting_path)
            patch.setattr(graph, "route", counting_route)
            run_experiment(spec, VARIANTS, n_instances, seed0=0)
        assert paths and max(paths.values()) == 1
        # Every route between two junctions read its pair from the memo.
        pairs = {(r._exit, r._enter) for r in routes if r._off_end is None}
        assert pairs <= paths.keys()
        assert len(routes) > 5 * len(paths)


def epoch_scored_experiment(monkeypatch, spec, n_instances):
    """Per variant run, the errors `run_experiment` scored through
    its epoch memo and `package_errors` over the estimates `run_pipeline`
    returned for that run, against the same instance's emitted truth: its
    per-node tracks for the one, its `(node, seq)` map for the other."""
    runs, instances, estimates = [], [], []
    real_instance, real_pipeline = metrics.run_instance, metrics.run_pipeline
    real_epoch_errors = metrics.epoch_errors

    def capture_instance(spec, seed):
        instances.append(real_instance(spec, seed))
        return instances[-1]

    def capture_pipeline(state, streams, variant):
        estimates.append(real_pipeline(state, streams, variant))
        return estimates[-1]

    def capture_epoch_errors(state, truth, scored):
        errors = real_epoch_errors(state, truth, scored)
        assert truth is instances[-1].tracks
        expected = metrics.package_errors(spec.graph, instances[-1].emitted_truth, estimates[-1])
        runs.append((errors, expected))
        return errors

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "run_instance", capture_instance)
        patch.setattr(metrics, "run_pipeline", capture_pipeline)
        patch.setattr(metrics, "epoch_errors", capture_epoch_errors)
        run_experiment(spec, VARIANTS, n_instances, seed0=0)
    assert len(runs) == n_instances * len(VARIANTS)
    return runs


def test_epoch_errors_equal_package_errors_of_the_returned_estimates(monkeypatch):
    # The memo scores epochs, not estimates, so the order may differ; the
    # errors, counted with their repeats, may not.
    specs = [make_scenario(k) for k in (1, 2, 3, 4)]
    specs += [gated_tree_scenario(random.Random(tree_seed)) for tree_seed in range(5, 25)]
    scored = 0
    for spec in specs:
        for errors, expected in epoch_scored_experiment(monkeypatch, spec, 3):
            assert len(errors) == len(expected)
            assert sorted(errors) == sorted(expected)
            scored += len(errors)
    assert scored > 0


def test_experiment_scores_each_complete_epoch_once_per_instance(monkeypatch):
    # Every variant's final epochs are scored from one memo per instance: an
    # unsplit epoch that several variants keep costs one geodesic per emitted
    # package once, and a fragment is scored by the variant that cut it.
    spec = make_scenario(4)
    scoring = False
    geodesics = 0
    kept = []  # (memo, complete epochs of the state, tracks) of each epoch_errors call
    real_epoch_errors, real_geodesic = metrics.epoch_errors, spec.graph.geodesic_distance

    def counting_geodesic(p1, p2):
        nonlocal geodesics
        geodesics += scoring
        return real_geodesic(p1, p2)

    def counting_epoch_errors(state, tracks, scored):
        nonlocal scoring
        if not kept or scored is not kept[-1][0]:
            assert scored == {}  # a new instance starts a new memo
        complete = [e for es in state.epoch_sets.values() for e in es.epochs if is_complete(e)]
        kept.append((scored, complete, tracks))
        scoring = True
        try:
            return real_epoch_errors(state, tracks, scored)
        finally:
            scoring = False

    monkeypatch.setattr(metrics, "epoch_errors", counting_epoch_errors)
    monkeypatch.setattr(spec.graph, "geodesic_distance", counting_geodesic)
    run_experiment(spec, VARIANTS, 5, seed0=0)

    assert len({id(scored) for scored, _, _ in kept}) == 5
    unique, reads = {}, 0
    for scored, complete, tracks in kept:
        reads += len(complete)
        for epoch in complete:
            assert epoch in scored
            unique[id(epoch)] = sum(0 < p.seq <= len(tracks.get(p.node, ())) for p in epoch.packages)
    assert reads > len(unique)  # some epochs are read by several variants
    assert geodesics == sum(unique.values())


def test_experiment_rejects_every_insertion_at_the_root_before_simulating(monkeypatch):
    spec = make_scenario(2)
    root = spec.graph.position_at(spec.graph.root)
    at_root = replace(spec, insertions=[replace(i, position=root) for i in spec.insertions])
    calls = []
    monkeypatch.setattr(metrics, "run_instance", lambda *a: calls.append(a) or run_instance(*a))
    with pytest.raises(ScenarioError, match="every insertion is at the root"):
        run_experiment(at_root, VARIANTS, 2)
    assert calls == []
