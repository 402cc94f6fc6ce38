"""Command-line surface: simulate instances, localize streams, run experiments.

All outputs are byte-reproducible for fixed flags. Exit codes: 0 success,
1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .graph import graph_to_json, load_graph
from .localize import VARIANTS, BackendState, build_state, run_pipeline
from .metrics import run_experiment
from .packages import (
    LocalizedMeasurement,
    parse_package_stream,
    serialize_packages,
)
from .sim import (
    GroundTruthRecord,
    InstanceResult,
    ScenarioSpec,
    load_scenario,
    make_scenario,
    run_instance,
)

INPUT_ERRORS = (ValueError, OSError)


def _fmt(value: float) -> str:
    # repr keeps the shortest round-trip form, so outputs stay byte-stable.
    return repr(float(value))


def _load_scenario_arg(arg: str) -> tuple[str, ScenarioSpec]:
    if arg in {"1", "2", "3", "4"}:
        return f"scenario-{arg}", make_scenario(int(arg))
    path = Path(arg)
    return path.stem, load_scenario(path.read_text(encoding="utf-8"))


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _truth_csv(records: list[GroundTruthRecord]) -> str:
    rows = []
    for r in records:
        p = r.position
        rows.append([r.node, r.seq, r.tick, p.u, p.v, _fmt(p.offset), _fmt(p.span)])
    return _csv(["node", "seq", "t", "from", "to", "offset", "span"], rows)


def _localized_csv(measurements: list[LocalizedMeasurement]) -> str:
    rows = []
    for m in measurements:
        p = m.position
        rows.append([m.node, m.seq, _fmt(m.t), p.u, p.v, _fmt(p.offset), _fmt(p.span), m.method])
    return _csv(["node", "seq", "t", "from", "to", "offset", "span", "method"], rows)


def cmd_simulate(args: argparse.Namespace) -> int:
    _, spec = _load_scenario_arg(args.scenario)
    result: InstanceResult = run_instance(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    packages = [pkg for batch in result.batches for pkg in batch.packages]
    (out / "graph.json").write_text(
        json.dumps(graph_to_json(spec.graph), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out / "packages.ndjson").write_text(serialize_packages(packages), encoding="utf-8")
    (out / "ground_truth.csv").write_text(_truth_csv(result.ground_truth), encoding="utf-8")
    if result.truncated:
        print("warning: instance truncated at max_ticks", file=sys.stderr)
    print(f"wrote {len(packages)} packages from {len(result.batches)} batches to {out}")
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    graph = load_graph(Path(args.graph).read_text(encoding="utf-8"))
    packages = parse_package_stream(Path(args.packages).read_bytes())
    streams: dict[str, list] = {}
    for pkg in packages:
        streams.setdefault(pkg.node, []).append(pkg)
    # The baseline reads only the map, so it gets no segmentation.
    state = BackendState(graph) if args.variant == "baseline" else build_state(graph, streams)
    results = run_pipeline(state, streams, args.variant)
    rows = [m for node in sorted(results) for m in results[node]]
    Path(args.out).write_text(_localized_csv(rows), encoding="utf-8")
    total = sum(len(v) for v in streams.values())
    print(f"localized {len(rows)}/{total} packages with variant {args.variant}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    name, spec = _load_scenario_arg(args.scenario)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    results = run_experiment(spec, variants, args.instances, args.seed0, scenario_name=name)
    truncated = results[0].truncated_seeds
    if truncated:
        print(
            f"warning: {len(truncated)} of {args.instances} instances truncated at max_ticks"
            f" (seeds {', '.join(map(str, truncated))})",
            file=sys.stderr,
        )

    columns = [
        "scenario",
        "variant",
        "instances",
        "packages",
        "localized",
        "coverage_pct",
        "drmse",
        "mae",
        "nmae_pct",
    ]
    summary = [
        [
            r.scenario,
            r.variant,
            r.instances,
            r.packages_total,
            r.packages_localized,
            _fmt(r.coverage_pct),
            _fmt(r.pooled_rmse),
            _fmt(r.mae),
            _fmt(r.normalized_mae_pct),
        ]
        for r in results
    ]
    Path(args.out).write_text(_csv(columns, summary), encoding="utf-8")

    if args.per_instance_out:
        per_instance = [
            [r.scenario, r.variant, seed, _fmt(value)]
            for r in results
            for seed, value in zip(r.instance_seeds, r.instance_rmse)
        ]
        Path(args.per_instance_out).write_text(
            _csv(["scenario", "variant", "seed", "irmse"], per_instance), encoding="utf-8"
        )

    # Result-table view: one row per scenario, one column per variant.
    header = f"{name} (n={args.instances})"
    cols = "  ".join(f"{r.variant:>12}" for r in results)
    vals = "  ".join(f"{r.pooled_rmse:>12.3f}" for r in results)
    print(f"{header}\n{'dRMSE':>12}  {cols}\n{'':>12}  {vals}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # bad flags are input errors: exit 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gral",
        description="Range-free localization of drifting sensors in tree-shaped pipe networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one seeded instance and dump its outputs")
    p_sim.add_argument("--scenario", required=True, help="built-in scenario 1..4 or a JSON file")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_loc = sub.add_parser("localize", help="assign positions to a package stream")
    p_loc.add_argument("--variant", required=True, choices=VARIANTS)
    p_loc.add_argument("--graph", required=True, help="environment graph JSON file")
    p_loc.add_argument("--packages", required=True, help="newline-delimited JSON package stream")
    p_loc.add_argument("--out", required=True, help="output CSV path")
    p_loc.set_defaults(func=cmd_localize)

    p_eval = sub.add_parser("evaluate", help="multi-instance variant comparison")
    p_eval.add_argument("--scenario", required=True, help="built-in scenario 1..4 or a JSON file")
    p_eval.add_argument("--instances", type=int, required=True)
    p_eval.add_argument("--seed0", type=int, default=0)
    p_eval.add_argument(
        "--variants",
        default=",".join(VARIANTS),
        help="comma-separated subset of: " + ", ".join(VARIANTS),
    )
    p_eval.add_argument("--out", required=True, help="summary CSV path")
    p_eval.add_argument("--per-instance-out", default=None, help="optional per-instance iRMSE CSV")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
