"""Spans around the calls into each mcms layer, taken from outside the package.

`Tracer.installed()` rebinds, for the duration of a ``with`` block, the
names through which one layer calls the next: the functions `mcms.cli`
imports from `mcms.harness`, the scenario and solver functions
`mcms.harness` imports, and `CoverageInstance.from_membership`, which
`derive_instance` calls.  Nothing under ``src/`` is edited, and leaving
the block restores every original, so untraced sweeps run the program
exactly as shipped.

A span is ``(name, start_ns, end_ns, parent, run)``: ``parent`` is the
index of the enclosing span in `Tracer.spans` (-1 for the root) and
``run`` numbers the traced sweep.  Spans stay in memory until
`Tracer.write` dumps them as JSON lines.

Besides timing, the wrappers count work where it happens: links drawn
by `sample_rates`, covered links per swept point after thresholding,
allocations `solve_exact` enumerates, and how far the greedy fell short
of the exact optimum on the same instance.  That counting runs after
the span it belongs to has closed, in a span of its own, HOOK, and
`Tracer.layer_metrics` takes HOOK time out of every span and wall time.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from collections import defaultdict

# Every span the benchmark reports, root first.  Spans that have child
# spans also get a self time.
SPANS = (
    "cli.main",
    "harness.run_sweep",
    "scenario.generate_scenario",
    "scenario.sample_rates",
    "scenario.derive_instance",
    "coverage.from_membership",
    "solvers.solve_greedy",
    "solvers.solve_sc_baseline",
    "solvers.solve_exact",
    "harness.write_csv",
    "harness.write_meta",
)
PARENT_SPANS = ("cli.main", "harness.run_sweep", "scenario.derive_instance")
# The spans of the layers' own functions.  Time in no such span is the
# self time of cli.main and harness.run_sweep.
LAYER_SPANS = (
    "scenario.generate_scenario",
    "scenario.sample_rates",
    "scenario.derive_instance",
    "solvers.solve_greedy",
    "solvers.solve_sc_baseline",
    "solvers.solve_exact",
    "harness.write_csv",
    "harness.write_meta",
)
# Spans called once per sample.  They also report their 99th percentile:
# a traced run makes at least 1000 calls of each (see run.py), so at
# least ten lie beyond it.
PER_SAMPLE_SPANS = (
    "scenario.sample_rates",
    "scenario.derive_instance",
    "coverage.from_membership",
    "solvers.solve_greedy",
    "solvers.solve_sc_baseline",
    "solvers.solve_exact",
)
HOOK = "trace.hook"


class Tracer:
    """Records spans and layer counts for the sweeps run inside `installed`."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.run = 0
        self._stack: list[int] = []
        self.links = 0
        self.covered_by_point: dict[tuple[int, float], list[int]] = (
            defaultdict(lambda: [0, 0])
        )
        self.exact_allocations = 0
        self.greedy_ratios: list[float] = []
        self._last_greedy: tuple[object, int] | None = None

    def wrap(self, name, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(result, args)``
        runs once the span has closed, timed as a HOOK span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if after is not None:
                start = clock()
                after(result, args)
                spans.append((HOOK, start, clock(), parent, self.run))
            return result

        return traced

    def _count_links(self, realization, args):
        self.links += realization.rates.size

    def _count_covered(self, instance, args):
        scenario = args[0]
        member = instance.membership_matrix()
        point = self.covered_by_point[(scenario.num_users, scenario.radius)]
        point[0] += int(member.sum())
        point[1] += member.size

    def _remember_greedy(self, result, args):
        self._last_greedy = (args[0], result.objective)

    def _compare_exact(self, result, args):
        instance = args[0]
        self.exact_allocations += instance.prbs_per_cell ** instance.num_cells
        if self._last_greedy is not None and self._last_greedy[0] is instance:
            greedy = self._last_greedy[1]
            self.greedy_ratios.append(
                greedy / result.objective if result.objective else 1.0
            )

    @contextlib.contextmanager
    def installed(self):
        """Rebind the inter-layer names to traced wrappers; restore on exit."""
        import mcms.cli as cli
        import mcms.coverage as coverage
        import mcms.harness as harness

        targets = (
            (cli, "run_sweep", "harness.run_sweep", None),
            (cli, "write_csv", "harness.write_csv", None),
            (cli, "write_meta", "harness.write_meta", None),
            (harness, "generate_scenario", "scenario.generate_scenario", None),
            (harness, "sample_rates", "scenario.sample_rates",
             self._count_links),
            (harness, "derive_instance", "scenario.derive_instance",
             self._count_covered),
            (harness, "solve_greedy", "solvers.solve_greedy",
             self._remember_greedy),
            (harness, "solve_sc_baseline", "solvers.solve_sc_baseline", None),
            (harness, "solve_exact", "solvers.solve_exact",
             self._compare_exact),
        )
        saved = []
        try:
            for owner, attr, name, after in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            cls = coverage.CoverageInstance
            original = cls.__dict__["from_membership"]
            saved.append((cls, "from_membership", original))
            cls.from_membership = classmethod(
                self.wrap("coverage.from_membership", original.__func__)
            )
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": run}) + "\n")

    def layer_metrics(self, traced_walls, overhead) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit).

        ``traced_walls`` are the outer wall times of the traced sweeps;
        per-sweep figures divide by their count and shares by their sum.
        Every time, the walls' included, is net of the HOOK spans inside
        it.  A span with no calls reports zeros.
        """
        sweeps = len(traced_walls)
        spans = self.spans
        net = [end - start for _, start, end, _, _ in spans]
        hook_ns = 0
        for name, start, end, parent, _ in spans:
            if name == HOOK:
                hook_ns += end - start
                while parent >= 0:
                    net[parent] -= end - start
                    parent = spans[parent][3]
        durations = defaultdict(list)
        child_ns = [0] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name != HOOK:
                durations[name].append(net[i])
                if parent >= 0:
                    child_ns[parent] += net[i]
        self_ns = defaultdict(int)
        for i, (name, *_) in enumerate(spans):
            self_ns[name] += net[i] - child_ns[i]
        wall_ns = sum(traced_walls) * 1e9 - hook_ns

        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            d = sorted(durations.get(name, ()))
            busy = sum(d)
            out[f"{name}.calls"] = (len(d) / sweeps, "count/sweep")
            out[f"{name}.busy_s"] = (busy / 1e9 / sweeps, "s/sweep")
            out[f"{name}.share"] = (busy / wall_ns, "ratio")
            out[f"{name}.us_p50"] = (
                statistics.median(d) / 1e3 if d else 0.0, "us")
            if name in PER_SAMPLE_SPANS:
                out[f"{name}.us_p99"] = (
                    percentile(d, 99) / 1e3 if d else 0.0, "us")
            if name in PARENT_SPANS:
                out[f"{name}.self_s"] = (self_ns[name] / 1e9 / sweeps, "s/sweep")
                out[f"{name}.self_share"] = (self_ns[name] / wall_ns, "ratio")

        rate_calls = len(durations.get("scenario.sample_rates", ()))
        out["scenario.sample_rates.links"] = (
            self.links / rate_calls if rate_calls else 0.0, "count/call")
        points = list(self.covered_by_point.values())
        densities = [c / n for c, n in points]
        out["coverage.density"] = (
            sum(c for c, _ in points) / sum(n for _, n in points)
            if points else 0.0, "ratio")
        out["coverage.density_min"] = (min(densities, default=0.0), "ratio")
        out["coverage.density_max"] = (max(densities, default=0.0), "ratio")
        exact_calls = len(durations.get("solvers.solve_exact", ()))
        out["solvers.solve_exact.allocations"] = (
            self.exact_allocations / exact_calls if exact_calls else 0.0,
            "count/call")
        ratios = self.greedy_ratios
        out["solvers.greedy_opt_ratio_min"] = (min(ratios, default=1.0), "ratio")
        out["solvers.greedy_below_opt"] = (
            sum(r < 1.0 for r in ratios) / len(ratios) if ratios else 0.0,
            "ratio")
        out["trace.layer_share"] = (
            sum(sum(durations[name]) for name in LAYER_SPANS) / wall_ns,
            "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return out


def percentile(sorted_values, pct: int) -> float:
    """The smallest value with at least ``pct`` % of the values at or below
    it."""
    n = len(sorted_values)
    return sorted_values[max(math.ceil(pct / 100 * n), 1) - 1]
