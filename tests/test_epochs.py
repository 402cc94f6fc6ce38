import dataclasses
import math
import random
from typing import Optional

import pytest

import gral
import gral.epochs
from gral.epochs import (
    Epoch,
    EpochError,
    EpochKind,
    EpochSet,
    classify,
    epoch_set_to_json,
    integrate_stream,
    is_complete,
    merge_same_gateway,
    resolve_positions,
)
from gral.graph import GraphPosition
from gral.localize import build_state
from gral.packages import GatewayObservation, Package, strongest
from gral.sim import make_scenario, run_instance

from conftest import same_point

R = math.sqrt(10.0)


def mk(t, *obs, node="n", seq=None):
    observations = tuple(GatewayObservation(g, s) for g, s in obs)
    return Package(node, seq if seq is not None else int(t) + 1, float(t), observations)


def stream(specs):
    return [mk(t, *obs, seq=i + 1) for i, (t, obs) in enumerate(specs)]


# -- classification -------------------------------------------------------------


def test_classify_all_silent():
    assert classify([mk(0), mk(1), mk(2)]) == EpochKind.SILENT


def test_classify_strictly_rising():
    pkgs = [mk(0, ("gA", 1.0)), mk(1, ("gA", 2.0)), mk(2, ("gA", 3.5))]
    assert classify(pkgs) == EpochKind.RISING


def test_classify_non_increasing():
    pkgs = [mk(0, ("gA", 3.0)), mk(1, ("gA", 3.0)), mk(2, ("gA", 1.0))]
    assert classify(pkgs) == EpochKind.FALLING


def test_classify_single_package_is_rising():
    assert classify([mk(0, ("gA", 1.0))]) == EpochKind.RISING


def test_classify_mixed_trend_is_none():
    pkgs = [mk(0, ("gA", 1.0)), mk(1, ("gA", 3.0)), mk(2, ("gA", 2.0))]
    assert classify(pkgs) is None


def test_classify_gateway_change_is_none():
    pkgs = [mk(0, ("gA", 1.0)), mk(1, ("gB", 2.0))]
    assert classify(pkgs) is None


def test_classify_silence_mix_is_none():
    assert classify([mk(0, ("gA", 1.0)), mk(1)]) is None
    assert classify([mk(0), mk(1, ("gA", 1.0))]) is None


def test_classify_empty_raises():
    with pytest.raises(EpochError):
        classify([])


# -- integration ----------------------------------------------------------------


def test_integrate_first_package():
    es = integrate_stream("n", [mk(0, ("gA", 1.0))])
    assert [(e.kind, e.anchor) for e in es.epochs] == [(EpochKind.RISING, "gA")]


def test_integrate_rise_then_drop_is_one_mixed_epoch():
    pkgs = stream([(0, [("gA", 1.0)]), (1, [("gA", 3.0)])])
    es = integrate_stream("n", pkgs)
    assert [e.kind for e in es.epochs] == [EpochKind.RISING]
    es = integrate_stream("n", pkgs + [mk(2, ("gA", 2.0), seq=3)])
    assert [(e.kind, e.anchor) for e in es.epochs] == [(EpochKind.MIXED, "gA")]
    assert [p.seq for p in es.epochs[0].packages] == [1, 2, 3]


def test_integrate_coalesces_reappearing_gateway():
    pkgs = stream(
        [
            (0, [("gA", 3.0)]),
            (1, [("gA", 2.0)]),  # falling at gA
            (2, []),
            (3, []),  # silence
        ]
    )
    es = integrate_stream("n", pkgs)
    assert [e.kind for e in es.epochs] == [EpochKind.FALLING, EpochKind.SILENT]
    es = integrate_stream("n", pkgs + [mk(4, ("gA", 1.5), seq=5)])
    assert len(es.epochs) == 1
    merged = es.epochs[0]
    assert merged.anchor == "gA"
    assert merged.kind == EpochKind.MIXED
    assert [p.seq for p in merged.packages] == [1, 2, 3, 4, 5]


def test_integrate_other_gateway_opens_new_epoch():
    pkgs = stream([(0, [("gA", 3.0)]), (1, [("gA", 2.0)]), (2, []), (3, [])])
    es = integrate_stream("n", pkgs + [mk(4, ("gB", 1.0), seq=5)])
    assert [(e.kind, e.anchor) for e in es.epochs] == [
        (EpochKind.FALLING, "gA"),
        (EpochKind.SILENT, None),
        (EpochKind.RISING, "gB"),
    ]


def test_integrate_rejects_out_of_order():
    pkgs = stream([(5, [])])
    integrate_stream("n", pkgs)
    with pytest.raises(EpochError, match="out-of-order"):
        integrate_stream("n", pkgs + [mk(3, seq=2)])


def random_stream(rng, n, gateways=3, levels=None, tie=0.0):
    """Random stream: silence, or one gateway at a random strength.

    `levels` draws strengths from a few values, so equal strengths repeat;
    few `gateways` make switches and coalescing re-entries frequent; `tie` is
    the chance of a second gateway heard as strongly, which the tie-break
    decides. Options at their defaults make no extra random draws, so the
    seeded streams of the tests that use none of them stay the same.
    """
    pkgs = []
    for i in range(n):
        if rng.random() < 0.4:
            obs = []
        else:
            gateway = f"g{rng.randrange(gateways)}"
            strength = rng.uniform(0.0, 5.0) if levels is None else rng.choice(levels)
            obs = [(gateway, strength)]
            if tie and rng.random() < tie:
                obs.append((f"g{rng.randrange(gateways)}", strength))
        pkgs.append(mk(i, *obs, seq=i + 1))
    return pkgs


def wide_stream(rng, n):
    return random_stream(rng, n, gateways=2, levels=(1.0, 2.0, 3.0), tie=0.2)


def first_gateway(packages):
    return next((strongest(p).gateway for p in packages if strongest(p)), None)


@dataclasses.dataclass
class Row:
    """A mutable epoch that the reference fold edits in place."""

    kind: EpochKind
    packages: list
    anchor: Optional[str] = None


def reference_integrate(epochs, package):
    """Reference segmentation: fold `package` into a list of `Row`s by
    classifying the whole open epoch again, which is quadratic but plain."""
    top = strongest(package)
    if epochs:
        last = epochs[-1]
        kind = classify(last.packages + [package])
        if kind is not None:
            last.packages.append(package)
            last.kind = kind
            last.anchor = None if kind == EpochKind.SILENT else first_gateway(last.packages)
            return
        observing = [i for i, e in enumerate(epochs) if e.kind != EpochKind.SILENT]
        if top is not None and observing and observing[-1] < len(epochs) - 1:
            candidate = observing[-1]
            if first_gateway(epochs[candidate].packages[:1]) == top.gateway:
                merged = [p for e in epochs[candidate:] for p in e.packages] + [package]
                kind = classify(merged) or EpochKind.MIXED
                epochs[candidate:] = [Row(kind, merged, anchor=top.gateway)]
                return
    fresh = Row(classify([package]), [package], anchor=top.gateway if top else None)
    if epochs and top is not None and epochs[-1].anchor == top.gateway:
        prev = strongest(epochs[-1].packages[-1])
        if prev is not None and prev.strength >= top.strength:
            fresh.kind = EpochKind.FALLING
    epochs.append(fresh)


def reference_merge(epochs):
    """Reference merge over `Row`s: collapse each gateway's stretch of epochs,
    up to the next other gateway, with the silence inside it; trailing silence
    at the end of the stream stays separate."""
    merged = []
    i = 0
    while i < len(epochs):
        e = epochs[i]
        if e.anchor is None:
            merged.append(e)
            i += 1
            continue
        j = i + 1
        last_anchored = i
        while j < len(epochs) and epochs[j].anchor in (None, e.anchor):
            if epochs[j].anchor == e.anchor:
                last_anchored = j
            j += 1
        end = j if j < len(epochs) else last_anchored + 1
        if end == i + 1:
            merged.append(e)
        else:
            packages = [p for part in epochs[i:end] for p in part.packages]
            merged.append(Row(classify(packages) or EpochKind.MIXED, packages, e.anchor))
        i = end
    return merged


def shape(epochs):
    return [(e.kind, e.anchor, [p.seq for p in e.packages]) for e in epochs]


def test_integrate_matches_reference_fold():
    # The reference fold splits a gateway's visit by trend and the reference
    # merge folds it back; the merged epochs are what the pipeline reads.
    rng = random.Random(11)
    for trial in range(300):
        gen = random_stream if trial % 3 == 0 else wide_stream
        pkgs = gen(rng, rng.randint(1, 80))
        expected = []
        for pkg in pkgs:
            reference_integrate(expected, pkg)
        got = merge_same_gateway(integrate_stream("n", pkgs))
        assert shape(got.epochs) == shape(reference_merge(expected))


def test_integrate_gives_one_epoch_per_gateway_visit():
    rng = random.Random(13)
    for trial in range(200):
        gen = random_stream if trial % 2 == 0 else wide_stream
        pkgs = gen(rng, rng.randint(1, 80))
        es = integrate_stream("n", pkgs)
        assert [p for e in es.epochs for p in e.packages] == pkgs
        anchors = [e.anchor for e in es.epochs]
        assert all(a != b for a, b in zip(anchors, anchors[1:]))
        kinds = [e.kind for e in es.epochs]
        assert (EpochKind.SILENT, EpochKind.SILENT) not in set(zip(kinds, kinds[1:]))
        for a, silence, b in zip(anchors, anchors[1:], anchors[2:]):
            assert not (a is not None and silence is None and b == a)
        merged = merge_same_gateway(es).epochs
        assert all(e.kind != EpochKind.SILENT for e in merged[1:-1])


def test_wide_streams_cover_every_integration_case():
    rng = random.Random(11)
    kinds = set()
    for _ in range(100):
        for e in integrate_stream("n", wide_stream(rng, 60)).epochs:
            kinds.add(e.kind)
    assert kinds == set(EpochKind)


def test_segmentation_work_is_linear_in_stream_length(monkeypatch):
    # Count the packages classify scans and the reads of a package's
    # observations that segmentation makes; re-scanning the open epoch per
    # package would make either grow with the square of the stream length.
    counts = {"scanned": 0, "lookups": 0}
    real_classify = gral.epochs.classify

    class CountingPackage(Package):
        __slots__ = ()

        @property
        def observations(self):
            counts["lookups"] += 1
            return tuple.__getitem__(self, 3)

    def counting_classify(packages):
        counts["scanned"] += len(packages)
        return real_classify(packages)

    monkeypatch.setattr(gral.epochs, "classify", counting_classify)
    pkgs = wide_stream(random.Random(12), 1250)
    # A node lingering at a range boundary: gA heard on every other package,
    # so each reading coalesces with the stretch before it.
    pkgs += [mk(1250 + i, *([("gA", 1.0)] if i % 2 else []), seq=1251 + i) for i in range(1250)]
    pkgs += [mk(2500 + i, seq=2501 + i) for i in range(2500)]  # a long silent stretch
    pkgs = [CountingPackage(*p) for p in pkgs]
    assert len(pkgs) == 5000
    merged = merge_same_gateway(gral.epochs.integrate_stream("n", pkgs))
    assert [p for e in merged.epochs for p in e.packages] == pkgs
    assert counts["scanned"] <= 2 * len(pkgs)
    assert counts["lookups"] <= 5 * len(pkgs)


def test_partition_invariant_over_random_streams():
    rng = random.Random(6)
    for _ in range(50):
        pkgs = random_stream(rng, rng.randint(1, 60))
        es = integrate_stream("n", pkgs)
        assert [p for e in es.epochs for p in e.packages] == pkgs  # no loss, no duplication, order kept
        merged = merge_same_gateway(es)
        assert [p for e in merged.epochs for p in e.packages] == pkgs


def test_type_soundness_after_integration():
    rng = random.Random(7)
    for _ in range(30):
        es = integrate_stream("n", random_stream(rng, rng.randint(1, 50)))
        for e in es.epochs:
            # the claimed trend must hold for the stored package run
            assert e.kind == (classify(e.packages) or EpochKind.MIXED)


def test_integration_is_deterministic():
    rng = random.Random(8)
    pkgs = random_stream(rng, 40)
    a = integrate_stream("n", pkgs)
    b = integrate_stream("n", pkgs)
    assert epoch_set_to_json(a) == epoch_set_to_json(b)


# -- same-gateway merging ---------------------------------------------------------


def test_merge_jitter_run_collapses():
    pkgs = stream(
        [
            (0, [("gA", 1.0)]),
            (1, [("gA", 2.0)]),
            (2, [("gA", 1.5)]),
            (3, [("gA", 2.5)]),
            (4, [("gA", 2.0)]),
        ]
    )
    es = integrate_stream("n", pkgs)
    # jitter at one gateway stays inside one visit, which the merge keeps
    assert [(e.kind, e.anchor) for e in es.epochs] == [(EpochKind.MIXED, "gA")]
    assert [p.seq for p in es.epochs[0].packages] == [1, 2, 3, 4, 5]
    assert merge_same_gateway(es) == es


def test_merge_stops_at_other_gateway():
    pkgs = stream(
        [
            (0, [("gA", 1.0)]),
            (1, [("gA", 2.0)]),
            (2, [("gA", 1.0)]),
            (3, [("gB", 1.0)]),
        ]
    )
    merged = merge_same_gateway(integrate_stream("n", pkgs))
    assert [(e.kind, e.anchor) for e in merged.epochs] == [
        (EpochKind.MIXED, "gA"),
        (EpochKind.RISING, "gB"),
    ]


def test_merge_single_silent_unchanged():
    es = integrate_stream("n", stream([(0, []), (1, [])]))
    merged = merge_same_gateway(es)
    assert [(e.kind, e.anchor) for e in merged.epochs] == [(EpochKind.SILENT, None)]


def test_merge_absorbs_silence_between_gateways():
    # silence after a gateway stretch joins that stretch when another gateway
    # follows; trailing silence at stream end stays separate
    pkgs = stream(
        [
            (0, [("gA", 3.0)]),
            (1, [("gA", 2.0)]),
            (2, []),
            (3, []),
            (4, [("gB", 1.0)]),
            (5, [("gB", 0.5)]),
            (6, []),
        ]
    )
    merged = merge_same_gateway(integrate_stream("n", pkgs))
    assert [(e.kind, e.anchor) for e in merged.epochs] == [
        (EpochKind.MIXED, "gA"),
        (EpochKind.FALLING, "gB"),
        (EpochKind.SILENT, None),
    ]
    assert [p.seq for p in merged.epochs[0].packages] == [1, 2, 3, 4]


# -- position resolution ----------------------------------------------------------


def test_resolve_rising_not_last_pins_junction(chain_graph):
    pkgs = stream([(0, [("gw-a", 1.0)]), (1, [("gw-a", 2.0)]), (2, []), (3, [])])
    es = integrate_stream("n", pkgs)
    es = resolve_positions(es, chain_graph)
    rising = es.epochs[0]
    assert rising.kind == EpochKind.RISING
    assert rising.final_pos is not None
    assert same_point(chain_graph, rising.final_pos, chain_graph.position_at("a"))


def test_resolve_boundary_before_next_gateway(chain_graph):
    # silent stretch followed by a rising epoch at gw-b: the silent epoch ends
    # on the a-b link exactly sqrt(10) short of b
    pkgs = stream(
        [
            (0, [("gw-a", R)]),  # full strength: initial fix at a
            (1, [("gw-a", 1.0)]),
            (2, []),
            (3, []),
            (4, [("gw-b", 0.5)]),
            (5, [("gw-b", 1.5)]),
        ]
    )
    es = merge_same_gateway(integrate_stream("n", pkgs))
    es = resolve_positions(es, chain_graph)
    first = es.epochs[0]
    assert first.anchor == "gw-a"
    assert first.start_pos is not None
    assert same_point(chain_graph, first.start_pos, chain_graph.position_at("a"))
    expected = GraphPosition("a", "b", 50.0 - R, 50.0)
    assert first.final_pos is not None
    assert same_point(chain_graph, first.final_pos, expected)
    # chaining: next epoch starts where this one ended
    assert es.epochs[1].start_pos == first.final_pos


def test_resolve_last_rising_below_max_stays_incomplete(chain_graph):
    pkgs = stream([(0, [("gw-a", R)]), (1, [("gw-a", 1.0)]), (2, []), (3, [("gw-b", 0.5)])])
    es = merge_same_gateway(integrate_stream("n", pkgs))
    es = resolve_positions(es, chain_graph)
    last = es.epochs[-1]
    assert last.kind == EpochKind.RISING
    assert last.final_pos is None
    assert not is_complete(last)


def test_resolve_last_rising_at_max_completes(chain_graph):
    pkgs = stream([(0, [("gw-a", R)]), (1, [("gw-a", 1.0)]), (2, []), (3, [("gw-b", R)])])
    es = merge_same_gateway(integrate_stream("n", pkgs))
    es = resolve_positions(es, chain_graph)
    last = es.epochs[-1]
    assert last.final_pos is not None
    assert same_point(chain_graph, last.final_pos, chain_graph.position_at("b"))
    assert is_complete(last)


def test_is_complete_cases(chain_graph):
    pkgs = stream([(0, [("gw-a", 1.0)])])
    es = integrate_stream("n", pkgs)
    epoch = es.epochs[0]
    assert not is_complete(epoch)
    epoch = dataclasses.replace(epoch, final_pos=chain_graph.position_at("a"))
    assert not is_complete(epoch)
    epoch = dataclasses.replace(epoch, start_pos=chain_graph.position_at("a"))
    assert is_complete(epoch)


def test_epoch_dump_shape(chain_graph):
    es = integrate_stream("n", stream([(0, [("gw-a", R)]), (1, [])]))
    es = resolve_positions(es, chain_graph)
    dump = epoch_set_to_json(es)
    assert dump["node"] == "n"
    assert [e["type"] for e in dump["epochs"]] == ["rising", "silent"]
    assert dump["epochs"][0]["seq_first"] == 1
    assert dump["epochs"][0]["start"]["from"] == "a"


# -- immutability -----------------------------------------------------------------


def test_segmentation_from_build_state_is_frozen():
    spec = make_scenario(4)
    state = build_state(spec.graph, run_instance(spec, 0).streams())
    assert state.epoch_sets
    for epoch_set in state.epoch_sets.values():
        assert isinstance(epoch_set.epochs, tuple)
        for f in dataclasses.fields(EpochSet):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(epoch_set, f.name, getattr(epoch_set, f.name))
        for epoch in epoch_set.epochs:
            assert isinstance(epoch.packages, tuple)
            for f in dataclasses.fields(Epoch):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(epoch, f.name, getattr(epoch, f.name))
    missing = [name for name in gral.__all__ if not hasattr(gral, name)]
    assert missing == []


# -- public surface ---------------------------------------------------------------


def test_gral_exports_the_pipeline_and_each_stage_stays_in_its_module():
    assert set(gral.__all__) == {
        "EnvironmentGraph", "Gateway", "GraphError", "GraphPosition", "Junction", "Link",
        "build_graph", "load_graph",
        "Checkpoint", "GatewayObservation", "LocalizedMeasurement", "NodeContact", "Package",
        "StreamFormatError", "parse_package_stream", "serialize_packages",
        "Epoch", "EpochKind", "EpochSet",
        "VARIANTS", "BackendState", "baseline_localize", "build_state", "run_pipeline",
        "Insertion", "InstanceResult", "ScenarioError", "ScenarioSpec",
        "load_scenario", "make_scenario", "run_instance",
        "VariantResult", "mae", "normalized_mae", "rmse", "run_experiment",
    }
    stages = {
        "packages": ["strongest"],
        "epochs": [
            "classify", "integrate_stream", "is_complete", "merge_same_gateway",
            "resolve_positions",
        ],
        "localize": [
            "apply_checkpoints", "interpolate_epoch", "issue_checkpoints", "localize_node",
            "rectify_paths",
        ],
        "metrics": ["ErrorSample"],
    }
    for module, names in stages.items():
        for name in names:
            assert hasattr(getattr(gral, module), name), f"gral.{module}.{name}"
