"""In-memory span tracer that wraps gral's public functions from outside.

The tracer replaces module attributes: every `gral.*` module attribute bound to
a wrapped function is rebound, so names one module imported from another (for
example `resolve_positions` in `gral.localize`) are traced too. Methods of
`EnvironmentGraph` that run once per geodesic are only counted, because a span
per call would dominate the run.

A span is `(name, start, end, parent, item, size)`; `parent` is the index of
the enclosing span or -1, `item` identifies the benchmark item that was
running, and `size` is an optional input size used for scaling fits. Spans and
counters are recorded only while `item` is set, so output checks and scoring
done by the benchmark between items are not attributed to any layer.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

# (module, function) pairs that get a span. Each span also counts its calls.
SPANS = [
    ("sim", "run_instance"),
    ("sim", "observe"),
    ("sim", "step"),
    ("sim", "record_and_emit"),
    ("packages", "parse_package_stream"),
    ("packages", "serialize_packages"),
    ("epochs", "integrate_stream"),
    ("epochs", "merge_same_gateway"),
    ("epochs", "resolve_positions"),
    ("localize", "build_state"),
    ("localize", "run_pipeline"),
    ("localize", "baseline_localize"),
    ("localize", "localize_node"),
    ("localize", "interpolate_epoch"),
    ("localize", "issue_checkpoints"),
    ("localize", "apply_checkpoints"),
    ("localize", "rectify_paths"),
    ("metrics", "instance_errors"),
    ("metrics", "run_experiment"),
]

GRAPH_METHODS = ["canonicalize", "geodesic_distance", "route", "shortest_path"]


def _epoch_count(state: Any, node: str) -> int:
    return len(state.epoch_sets[node].epochs)


class Tracer:
    def __init__(self) -> None:
        self.item: Optional[tuple] = None
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self.counts: dict[tuple, Counter] = defaultdict(Counter)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, before=None, after=None, size=None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            item = self.item
            if item is None:
                return fn(*args, **kwargs)
            memo = before(*args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, item, size(*args) if size else None)
            counts = self.counts[item]
            counts[name + ".calls"] += 1
            if after:
                after(counts, memo, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn: Callable, after=None) -> Callable:
        def counted(*args, **kwargs):
            if self.item is not None:
                counts = self.counts[self.item]
                counts[name + ".calls"] += 1
                if after:
                    after(counts, *args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, mods: Any) -> None:
        """Wrap the layer functions of one imported copy of gral."""

        def cp_before(state, node):
            targeted = sum(1 for c in state.checkpoints if c.target == node)
            return _epoch_count(state, node), targeted

        def cp_after(counts, memo, result, state, node):
            splits = _epoch_count(state, node) - memo[0]
            counts["localize.checkpoint_splits"] += splits
            counts["localize.checkpoints_targeted"] += memo[1]

        def pr_after(counts, memo, result, state, node, *rest):
            counts["localize.rectify_splits"] += _epoch_count(state, node) - memo

        hooks = {
            "packages.parse_package_stream": dict(
                # NDJSON from json.dumps is ASCII, so characters are bytes.
                after=lambda c, m, r, data: c.update({"packages.parse_package_stream.bytes": len(data)})
            ),
            "epochs.integrate_stream": dict(
                size=lambda node, packages: len(packages),
                after=lambda c, m, r, node, packages: c.update({"epochs.integrated": len(packages)}),
            ),
            "localize.issue_checkpoints": dict(
                after=lambda c, m, r, *a: c.update({"localize.checkpoints_issued": len(r)})
            ),
            "localize.apply_checkpoints": dict(before=cp_before, after=cp_after),
            "localize.rectify_paths": dict(
                before=lambda state, node, *rest: _epoch_count(state, node), after=pr_after
            ),
        }
        replace: dict[int, Callable] = {}
        for module, fname in SPANS:
            name = f"{module}.{fname}"
            fn = getattr(getattr(mods, module), fname)
            replace[id(fn)] = self._span(name, fn, **hooks.get(name, {}))
        # classify runs once per package integrated: counted, never timed.
        replace[id(mods.epochs.classify)] = self._counter(
            "epochs.classify",
            mods.epochs.classify,
            after=lambda c, packages: c.update({"epochs.classify.scanned": len(packages)}),
        )
        for m in mods.all_modules:
            for attr, value in list(vars(m).items()):
                if id(value) in replace and getattr(replace[id(value)], "__wrapped__", None) is value:
                    setattr(m, attr, replace[id(value)])
        graph_cls = mods.graph.EnvironmentGraph
        for method in GRAPH_METHODS:
            setattr(graph_cls, method, self._counter(f"graph.{method}", getattr(graph_cls, method)))

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[tuple, Counter]:
        """Self seconds per span name, per item: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, item, size) in enumerate(self.spans):
            out[item][name] += end - start - child[i]
        return out

    def sized_durations(self, name: str, scales: dict) -> list[tuple[int, float]]:
        """(size, scaled seconds) of each timed-item span of `name` with a size."""
        return [
            (size, (end - start) * scales[item])
            for n, start, end, parent, item, size in self.spans
            if n == name and size is not None and item[0] == "item"
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item", "size"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def per_item(totals: dict[tuple, Counter], name: str, n_items: dict[str, int]) -> float:
    """Mean of a per-item total across the `n_items[kind]` items of a phase.

    Timed items come first. Layers that did no work in the timed phase (the
    simulator on workloads whose inputs are generated during set-up, for
    instance) are averaged over the set-up inputs instead.
    """
    for kind in ("item", "setup"):
        total = math.fsum(v[name] for k, v in totals.items() if k[0] == kind)
        if total:
            return total / n_items[kind]
    return 0.0


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x), over the median y of each x.

    Returns 0 when the sizes span less than a factor of four, too narrow a
    range for the slope to mean anything.
    """
    by_x: dict[float, list[float]] = defaultdict(list)
    for x, y in points:
        by_x[x].append(y)
    if not by_x or max(by_x) < 4 * min(by_x):
        return 0.0
    xs, ys = [], []
    for x, values in sorted(by_x.items()):
        values.sort()
        xs.append(math.log(x))
        ys.append(math.log(values[len(values) // 2]))
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
