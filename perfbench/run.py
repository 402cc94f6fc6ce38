#!/usr/bin/env python3
"""gral benchmark: one workload, closed loop, one item in flight, one process.

    python3 perfbench/run.py --workload eval-s4 --seed 1 --seconds 30 --trace 0

Run from the repository root; it imports gral from `src/`. Set-up (importing
gral, building the scenario, generating and serializing inputs) is repeated
several times and timed. The timed phase then runs the workload's items one
at a time until `--seconds` have passed (see `Phase`), checks every item's
estimates and scores the plan's items.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json.
`--trace 1` runs half the time untraced, then sets up again with gral's layer
functions wrapped (see tracing.py) and runs the other half traced; it reports
the per-layer metrics and the tracing overhead.

Times are calibrated against the host's speed, which on shared machines
drifts by a quarter or more within seconds. A fixed pure-Python reference
loop is timed between items, and each item's wall time is multiplied by
REF_MS over the mean reference time around it (see `Calibrator`). A
calibrated time is thus the time the item would take on a host that runs the
reference loop in REF_MS. Raw wall times are printed with the prefix `wall.`.

Every metric is printed as `name value unit`, followed by the input and
estimate digests. The last line is one JSON object for machine readers. A
full report, and the spans of a traced run, go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import SPANS, GRAPH_METHODS, Tracer, loglog_slope, per_item
from workloads import WORKLOADS, Plan, Score, check, estimates_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
GRAL_MODULES = ("graph", "packages", "epochs", "localize", "sim", "metrics")

# Set-up runs at least SETUP_MIN_REPS times, and more (up to SETUP_MAX_REPS)
# until SETUP_MIN_SECONDS have been spent, so its median is steady.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_MIN_SECONDS = 2.0

REF_MS = 4.0
REF_SHARE = 0.1  # reference time spent per unit of timed time


def reference_loop() -> list:
    """Fixed interpreter work, of the same kind as gral's: dicts, tuples, str."""
    table = {}
    for i in range(20000):
        table[i % 1000] = (i, str(i))
    return sorted(table.values())


class Calibrator:
    """Host speed around timed spans, from the reference loop's time.

    Call `mark(wall)` after each span. Span k lies between reference
    measurements k and k+1 and is scaled by their mean. A measurement repeats
    the loop for about a tenth of the span just timed: single 4 ms samples
    jitter by about 10%, which would leave most of the drift uncorrected.
    """

    def __init__(self) -> None:
        self.refs = [self._reference(1)]

    @staticmethod
    def _reference(reps: int) -> float:
        t0 = perf_counter()
        for _ in range(reps):
            reference_loop()
        return (perf_counter() - t0) / reps

    def mark(self, wall: float) -> None:
        self.refs.append(self._reference(max(1, round(REF_SHARE * wall / (REF_MS / 1000.0)))))

    def scale(self, k: int) -> float:
        return REF_MS / 1000.0 / ((self.refs[k] + self.refs[k + 1]) / 2)


def fresh_import() -> types.SimpleNamespace:
    """Import gral from src/ anew, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "gral" or n.startswith("gral.")]:
        del sys.modules[name]
    gral = importlib.import_module("gral")
    if Path(gral.__file__).resolve().parent != (SRC / "gral").resolve():
        raise RuntimeError(f"imported gral from {gral.__file__}, not from {SRC}")
    mods = types.SimpleNamespace(**{m: sys.modules[f"gral.{m}"] for m in GRAL_MODULES})
    mods.all_modules = [gral] + [getattr(mods, m) for m in GRAL_MODULES]
    return mods


class Phase:
    """Timed items of one run phase.

    The plan's items run first and are scored. Then, until `seconds` have
    passed, the phase runs fresh items from `plan.more` if the plan has it,
    or else the plan's items again in whole cycles.
    """

    def __init__(self, mods, plan: Plan, seconds: float, tracer: Tracer | None = None):
        self.packages = self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.input_digests: list[str] = []
        self.deterministic = True
        self.score = Score(plan.variants)
        runs: list[tuple] = []  # (key, wall seconds, size, completed)
        # Set-up objects, such as the inputs and ground truth kept for
        # scoring, are frozen out of the garbage collector: they belong to
        # the benchmark, and would otherwise make every full collection
        # during the timed phase slower than in a `gral` process.
        gc.collect()
        gc.freeze()
        calibrator = Calibrator()
        n = len(plan.items)
        start = perf_counter()
        for k in itertools.count():
            if k >= n and (plan.more or k % n == 0) and perf_counter() - start >= seconds:
                break
            item = plan.items[k % n] if k < n or not plan.more else plan.more(k)
            runs.append(self._run_item(mods, plan, item, k, tracer, calibrator))
        gc.unfreeze()
        self.scales = {run[0]: calibrator.scale(k) for k, run in enumerate(runs)}
        done = [(key, wall, size) for key, wall, size, ok in runs if ok]
        self.wall = [wall for _, wall, _ in done]
        self.times = [wall * self.scales[key] for key, wall, _ in done]  # calibrated
        self.sized = [(size, wall * self.scales[key]) for key, wall, size in done if size]

    def _run_item(self, mods, plan, item, k, tracer, calibrator) -> tuple:
        first = k < len(plan.items)
        self.attempted += 1
        key = ("item", k)
        if tracer:
            tracer.item = key
        t0 = perf_counter()
        try:
            raw, error = item.run(), None
        except Exception:
            raw, error = None, traceback.format_exc()
        wall = perf_counter() - t0
        if tracer:
            tracer.item = None
        calibrator.mark(wall)
        if error:
            self.failed += 1
            self.problems.append(f"{item.label} raised:\n{error}")
            return key, wall, item.size, False
        outcome = item.collect(raw)
        self.packages += outcome.packages
        problems = check(mods, item, outcome, plan.variants)
        digest = estimates_digest(outcome.estimates)
        if first:
            problems += self.score.add(mods, item.graph, outcome)
            self.digests[item.label] = digest
            if outcome.input_digest:
                self.input_digests.append(outcome.input_digest)
        elif item.label in self.digests and self.digests[item.label] != digest:
            self.deterministic = False
            problems.append("estimates differ from the first run of the item")
        if problems:
            self.failed += 1
            self.problems += [f"{item.label}: {p}" for p in problems]
        return key, wall, item.size, True


def set_up(setup, seed: int):
    """Set up several times; returns the last copy and calibrated, wall times."""
    wall, digests = [], set()
    calibrator = Calibrator()
    while len(wall) < SETUP_MIN_REPS or (
        math.fsum(wall) < SETUP_MIN_SECONDS and len(wall) < SETUP_MAX_REPS
    ):
        t0 = perf_counter()
        mods = fresh_import()
        plan = setup(mods, seed, lambda k: None)
        wall.append(perf_counter() - t0)
        calibrator.mark(wall[-1])
        digests.add(plan.input_digest)
    times = [w * calibrator.scale(k) for k, w in enumerate(wall)]
    return mods, plan, times, wall, len(digests) == 1


def timings(phase: Phase, setup_times: list[float], times: list[float]) -> dict[str, float]:
    ms = [t * 1000.0 for t in times]
    if len(ms) < 2:  # the items raised, so there is nothing to time; `correct` is false
        return {"setup_s": statistics.median(setup_times), "packages_per_s": 0.0,
                "item_ms.p50": 0.0, "item_ms.p90": 0.0}
    return {
        "setup_s": statistics.median(setup_times),
        "packages_per_s": phase.packages / math.fsum(times),
        "item_ms.p50": statistics.median(ms),
        "item_ms.p90": statistics.quantiles(ms, n=10)[8],
    }


def per_layer(tracer: Tracer, scales: dict, n_items: dict[str, int], scored: int) -> dict:
    """Per-layer metrics of a traced phase.

    Times are averaged over all traced items. Counts are averaged over the
    scored items, which every run repeats exactly, so they are deterministic.
    """
    selfs = {
        item: Counter({name: t * scales[item] for name, t in times.items()})
        for item, times in tracer.self_times().items()
    }
    counts = {k: v for k, v in tracer.counts.items() if k[0] == "setup" or k[1] < scored}
    n_counts = dict(n_items, item=scored)
    out: dict[str, float] = {}
    for module, fname in SPANS:
        out[f"{module}.{fname}.ms"] = 1000.0 * per_item(selfs, f"{module}.{fname}", n_items)
    for name in (
        "sim.observe.calls",
        "epochs.classify.calls",
        "epochs.resolve_positions.calls",
        "localize.build_state.calls",
        "packages.parse_package_stream.bytes",
        "localize.checkpoints_issued",
        "localize.checkpoint_splits",
        "localize.rectify_splits",
    ):
        out[name] = per_item(counts, name, n_counts)
    out["sim.ticks"] = per_item(counts, "sim.step.calls", n_counts)
    for method in GRAPH_METHODS:
        out[f"graph.{method}.calls"] = per_item(counts, f"graph.{method}.calls", n_counts)
    integrated = per_item(counts, "epochs.integrated", n_counts)
    out["epochs.classify.scanned_per_pkg"] = (
        per_item(counts, "epochs.classify.scanned", n_counts) / integrated if integrated else 0.0
    )
    targeted = per_item(counts, "localize.checkpoints_targeted", n_counts)
    out["localize.checkpoint_yield"] = (
        out["localize.checkpoint_splits"] / targeted if targeted else 0.0
    )
    out["epochs.integrate_stream.exponent"] = loglog_slope(
        tracer.sized_durations("epochs.integrate_stream", scales)
    )
    return out


def unit_of(name: str, listed: dict[str, str]) -> str:
    """Unit of a metric, including those printed but not listed in BENCHMARK.json."""
    name = name.removeprefix("wall.")
    if name in listed:
        return listed[name]
    return "%" if name.startswith("coverage_pct.") else "fraction"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gral" / "__init__.py").is_file():
        print(f"error: gral sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    setup = WORKLOADS[args.workload]
    mods, plan, setup_times, setup_wall, setup_same = set_up(setup, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = Phase(mods, plan, seconds)
    values = timings(phase, setup_times, phase.times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, value in timings(phase, setup_wall, phase.wall).items():
        values[f"wall.{name}"] = value
    values.update(phase.score.metrics(mods.localize.VARIANTS))
    values["item_ms.exponent"] = loglog_slope(phase.sized)
    attempted, failed = phase.attempted, phase.failed
    problems = list(phase.problems)
    correct = setup_same and phase.failed == 0 and phase.deterministic
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
        marks = []

        def mark(k: int) -> None:
            marks.append(("setup", k))
            tracer.item = marks[-1]

        calibrator = Calibrator()
        t0 = perf_counter()
        traced_plan = setup(mods, args.seed, mark)
        tracer.item = None
        calibrator.mark(perf_counter() - t0)
        setup_scale = calibrator.scale(0)
        traced = Phase(mods, traced_plan, seconds, tracer)
        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
        correct = (
            correct
            and traced.failed == 0
            and traced.deterministic
            and traced_plan.input_digest == plan.input_digest
            and traced.digests == phase.digests
        )
        scales = {**traced.scales, **{key: setup_scale for key in marks}}
        n_items = {"item": traced.attempted, "setup": len(marks)}
        values.update(per_layer(tracer, scales, n_items, len(traced_plan.items)))
        if traced.packages and phase.packages:
            values["trace.overhead_pct"] = 100.0 * (
                math.fsum(traced.times) / traced.packages
                / (math.fsum(phase.times) / phase.packages)
                - 1
            )
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    values["failed_frac"] = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"set-up runs {len(setup_times)}; timed items {phase.attempted}, scored {len(plan.items)}")
    for key, value in plan.notes.items():
        print(f"note {key} {value}")
    for name, value in values.items():
        shown = "n/a" if isinstance(value, float) and math.isnan(value) else repr(value)
        print(f"{name} {shown} {unit_of(name, units)}")
    print(f"input digest {plan.input_digest} {' '.join(phase.input_digests)}".rstrip())
    for label, digest in phase.digests.items():
        print(f"estimates {label} {digest}")
    for problem in problems[:20]:
        print(f"problem {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "correct": correct,
                "setup_s_runs": setup_times,
                "setup_wall_s_runs": setup_wall,
                "item_ms": [t * 1000.0 for t in phase.times],
                "item_wall_ms": [t * 1000.0 for t in phase.wall],
                "metrics": {k: None if v != v else v for k, v in values.items()},  # NaN: n/a
                "notes": plan.notes,
                "input_digest": plan.input_digest,
                "item_input_digests": phase.input_digests,
                "estimate_digests": phase.digests,
                "problems": problems,
            },
            indent=1,
        ),
        encoding="utf-8",
    )

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        value = values.get(m["name"], 0.0)  # missing only when the items raised
        if isinstance(value, float) and math.isnan(value):
            value = 0.0  # the metric does not apply to this workload
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
