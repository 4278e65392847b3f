#!/usr/bin/env python3
"""Benchmark of the mcms Monte Carlo sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload users_default --seed 1 --seconds 30 --trace 0

It drives the ``mcms`` command in-process (``mcms.cli.main(argv)``) on
one workload for ``--seconds`` seconds, checks every sweep it runs, and
prints a table of metrics followed, as its last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics from spans taken around the calls into each layer (see
tracing.py).  ``--workload all`` runs every workload in both modes, each
in its own process.

``--seed`` picks which of the mcms seeds recorded in reference_sc.json
the run sweeps, so the same seed always gives the same inputs and every
sweep's SC column can be checked against the reference recorded when the
benchmark was defined.  ``--seed 1009`` is held out: it sweeps a block of
mcms seeds that no other ``--seed`` draws.  See README.md for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_sc.json"

# Each run sweeps up to SEEDS_PER_RUN distinct mcms seeds, drawn from
# mcms seeds 0 to SEED_POOL - 1.
SEED_POOL = 64
SEEDS_PER_RUN = 24
# A claimed gain must also hold with this --seed.  It alone sweeps mcms
# seeds SEED_POOL to SEED_POOL + SEEDS_PER_RUN - 1, which no other --seed
# draws and no run swept while the benchmark was tuned.
HELD_OUT_SEED = 1009
# reference_sc.json holds the SC column of mcms seeds 0 to REFERENCE_SEEDS - 1.
REFERENCE_SEEDS = SEED_POOL + SEEDS_PER_RUN
SETUP_PROBES = 40
# With --trace 1, the least number of traced samples, so that each span
# called once per sample has ten calls beyond its 99th percentile.
TAIL_CALLS = 1000

# The host's speed drifts: other tenants of the machine slow it by up to
# half for minutes at a time, longer than a run.  So the benchmark also
# times a fixed piece of work that does not use mcms after each sweep,
# and scales the sweep times it reports to the speed at which that work
# takes REFERENCE_WORK_S.  The work mixes the two kinds the workloads
# do: unions of Python ints in a Python loop, as solve_exact does, and
# numpy fading draws and thresholds at the default shape, in arrays too
# small to move peak_rss_mb.
REFERENCE_WORK_S = 0.04  # about its median on the machine in baseline.json
_WORK_MASKS = [[random.Random(4 * cell + prb).getrandbits(1225)
                for prb in range(4)] for cell in range(7)]


@dataclass(frozen=True)
class Workload:
    """One mcms sweep command; BENCHMARK.json says why each was chosen."""

    name: str
    axis: str  # "users" or "radius"
    values: tuple[int, ...]
    cells: int = 7
    trials: int = 1
    subframes: int = 100  # the program's default
    exact: bool = False

    def argv(self) -> list[str]:
        argv = [f"sweep-{self.axis}", "--cells", str(self.cells),
                "--prbs", "4", "--trials", str(self.trials),
                "--subframes", str(self.subframes),
                "--values", ",".join(map(str, self.values))]
        argv += (["--radius", "300"] if self.axis == "users"
                 else ["--users-per-cell", "175"])
        return argv + (["--exact"] if self.exact else [])

    @property
    def samples(self) -> int:
        return len(self.values) * self.trials * self.subframes


WORKLOADS = {w.name: w for w in (
    # The paper's users sweep; the fading draw and thresholding dominate.
    Workload("users_default", "users", (100, 125, 150, 175, 200, 225, 250)),
    # 19 cells: the greedy's C^2 term, 7x larger per-sample arrays, and
    # coverage density falling from 0.32 to 0.10 across the radii.
    Workload("cells19_radius", "radius", (200, 250, 300, 350, 400), cells=19),
    # solve_exact dominates.  Three placements of ten sub-frames per point
    # rather than the program's 1 x 100: a sweep then takes about 2 s, so
    # a run sweeps a dozen or more seeds, and a placement still costs
    # under 1 % of the time.
    Workload("exact_oracle", "users", (100, 175, 250), trials=3, subframes=10,
             exact=True),
)}

# Times, in each of {probes} children forked one after another from a
# fresh interpreter that has not imported mcms or numpy, the import of the
# command (numpy included) plus building the sweep configuration.
# Forking spares each probe the interpreter's own start-up.
SETUP_PROBE = """
import os, sys, time
for _ in range({probes}):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            start = time.perf_counter()
            import mcms.cli
            from mcms.harness import ExperimentConfig
            ExperimentConfig(num_cells={cells}, trials={trials},
                             subframes={subframes})
            elapsed = time.perf_counter() - start
            os.write(write, f"{{mcms.__file__}}\\n{{elapsed!r}}\\n".encode())
        except BaseException:
            import traceback
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        lines = fh.read()
    if os.waitpid(pid, 0)[1] != 0:
        sys.exit(1)
    sys.stdout.write(lines)
"""


def reference_work() -> float:
    """Seconds one pass of the fixed reference work takes now."""
    import numpy as np

    start = time.perf_counter()
    best = 0
    for combo in itertools.product(range(4), repeat=7):
        union = 0
        for cell, prb in enumerate(combo):
            union |= _WORK_MASKS[cell][prb]
        best = max(best, union.bit_count())
    rng = np.random.default_rng(best)
    for _ in range(20):
        gains = rng.exponential(size=(7, 4, 1225))
        best += int(np.count_nonzero(np.log2(1.0 + gains) > 1.0))
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad reference)."""


def input_seeds(seed: int) -> list[int]:
    """The mcms seeds one run sweeps, in order, a function of ``--seed``
    only."""
    if seed == HELD_OUT_SEED:
        return list(range(SEED_POOL, REFERENCE_SEEDS))
    return random.Random(seed).sample(range(SEED_POOL), SEEDS_PER_RUN)


def load_reference(workload: Workload) -> list[list[str]]:
    """SC column per pool seed, as recorded by record_reference.py."""
    try:
        entry = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no SC reference for {workload.name}: {exc}")
    if entry["argv"] != workload.argv() or len(entry["sc"]) != REFERENCE_SEEDS:
        raise BenchError(f"SC reference for {workload.name} was recorded "
                         f"for another workload definition")
    return entry["sc"]


def import_mcms():
    """Import the command from this checkout's ``src``."""
    if not (SRC / "mcms" / "cli.py").is_file():
        raise BenchError(f"no mcms sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcms.cli
    if Path(mcms.cli.__file__).resolve().parent != SRC / "mcms":
        raise BenchError(f"imported mcms from {mcms.cli.__file__}, not {SRC}")
    return mcms.cli


def measure_setup(workload: Workload, probes: int) -> list[float]:
    """Seconds to import mcms.cli and build a config, once per probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = SETUP_PROBE.format(probes=probes, cells=workload.cells,
                              trials=workload.trials,
                              subframes=workload.subframes)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 * probes:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
    for path in lines[::2]:
        if Path(path).resolve().parent != SRC / "mcms":
            raise BenchError(f"setup probe imported mcms from {path}")
    return [float(t) for t in lines[1::2]]


def read_csv(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def check_sweep(workload: Workload, csv_text: str, meta_text: str,
                sc_reference: list[str]) -> list[str]:
    """Problems with one sweep's CSV and .meta.json; empty when correct.

    Requires EXACT <= MC <= SC at every point and the SC column equal
    to the reference: SC does not depend on the MC solver, so this pins
    the seeded RNG contract without freezing solver quality.
    """
    problems = []
    header, rows = read_csv(csv_text)
    want = f"{workload.axis},SC,MC" + (",EXACT" if workload.exact else "")
    if header != want:
        return [f"header {header!r}, want {want!r}"]
    if [r[0] for r in rows] != [str(v) for v in workload.values]:
        return [f"rows {[r[0] for r in rows]}, want {list(workload.values)}"]
    for row in rows:
        if len(row) != len(want.split(",")):
            return [f"row {row} does not match header {want!r}"]
        nums = [float(x) for x in row[1:]]
        sc, mc = nums[0], nums[1]
        if not mc <= sc:
            problems.append(f"{row[0]}: MC {mc} > SC {sc}")
        if workload.exact and not nums[2] <= mc:
            problems.append(f"{row[0]}: EXACT {nums[2]} > MC {mc}")
    sc_column = [r[1] for r in rows]
    if sc_column != sc_reference:
        problems.append(f"SC column {sc_column} != reference {sc_reference}")
    points = json.loads(meta_text)["points"]
    samples = [p["samples"] for p in points]
    if samples != [workload.trials * workload.subframes] * len(rows):
        problems.append(f"meta samples {samples}")
    return problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            sc_reference: list[list[str]], setup_probes: int = SETUP_PROBES,
            tail_calls: int = TAIL_CALLS, log=print) -> dict:
    """One benchmark run; returns the result object printed last.

    Sweeps the run's mcms seeds in turn until ``seconds`` have passed, at
    least one.  Without ``trace`` the reference work follows each sweep
    for a tenth of its time.  With ``trace`` each seed is swept untraced
    and then traced, at least two seeds and ``tail_calls`` traced
    samples.  The first sweep of a seed is checked and every later sweep
    of it must reproduce its CSV and .meta.json byte for byte.
    """
    seeds = input_seeds(seed)
    cli = import_mcms()
    setup = [] if trace else measure_setup(workload, setup_probes)
    from tracing import Tracer

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    base_argv = workload.argv()
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    walls: list[float] = []
    traced_walls: list[float] = []
    work: list[float] = []
    first: dict[int, tuple[str, str]] = {}
    unserved = []
    errors: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        def sweep(slot: int, traced: bool) -> None:
            nonlocal attempted, failed
            out = Path(tmp) / f"{slot}.csv"
            meta = Path(str(out) + ".meta.json")
            argv = base_argv + ["--seed", str(seeds[slot]), "--out", str(out)]
            attempted += 1
            try:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    if traced:
                        tracer.run = attempted
                        start = time.perf_counter()
                        with tracer.installed():
                            code = traced_main(argv)
                    else:
                        start = time.perf_counter()
                        code = cli.main(argv)
                    wall = time.perf_counter() - start
                if code != 0:
                    raise RuntimeError(f"exit code {code}: {sink.getvalue()}")
                got = out.read_text(encoding="utf-8"), meta.read_text(
                    encoding="utf-8")
                out.unlink()
                meta.unlink()
                if slot in first:
                    problems = [] if got == first[slot] else [
                        "output differs from the first sweep of this seed"]
                else:
                    problems = check_sweep(workload, *got,
                                           sc_reference[seeds[slot]])
                    first[slot] = got
                    mc = [float(r[2]) for r in read_csv(got[0])[1]]
                    unserved.append(statistics.fmean(mc))
                if problems:
                    raise RuntimeError("; ".join(problems))
            except Exception as exc:  # count it and keep measuring
                failed += 1
                errors.append(f"seed {seeds[slot]}: {exc!r}")
                return
            (traced_walls if traced else walls).append(wall)

        # Fill lazy imports and numpy caches before anything is timed.
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(base_argv + ["--trials", "1", "--subframes", "1",
                                  "--values", str(workload.values[0]),
                                  "--out", str(Path(tmp) / "warm.csv")])
        min_turns = (max(2, math.ceil(tail_calls / workload.samples))
                     if trace else 1)
        deadline = time.perf_counter() + seconds
        turn = 0
        while turn < min_turns or time.perf_counter() < deadline:
            sweep(turn % len(seeds), False)
            if trace:
                sweep(turn % len(seeds), True)
            elif walls:
                spent = 0.0
                while not spent or spent < 0.1 * walls[-1]:
                    work.append(reference_work())
                    spent += work[-1]
            turn += 1
    for line in errors[:5]:
        log(f"FAILED {line}", file=sys.stderr)

    env = environment(seed, seeds)
    log("env " + json.dumps(env, sort_keys=True))
    # Means, not medians: other tenants of the machine slow whole
    # stretches of a run by up to half, and the mean moves smoothly with
    # the share of the run they take where a median jumps between levels.
    if not walls or (trace and not traced_walls):
        metrics = {}
    elif trace:
        overhead = statistics.fmean(traced_walls) / statistics.fmean(walls) - 1
        metrics = tracer.layer_metrics(traced_walls, overhead)
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
        log(f"{workload.name}: {len(traced_walls)} traced and {len(walls)} "
            f"untraced sweeps of {workload.samples} samples; "
            f"spans in {OUT.name}/spans-{workload.name}-seed{seed}.jsonl")
        print_layer_table(tracer, metrics, log)
    else:
        # Seconds at the speed at which the reference work takes
        # REFERENCE_WORK_S, from the work timed between the sweeps.
        wall = (statistics.fmean(walls) * REFERENCE_WORK_S
                / statistics.fmean(work))
        metrics = {
            "samples_per_s": (workload.samples / wall, "1/s"),
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "unserved_mc": (statistics.fmean(unserved), "users"),
        }
        log(f"{workload.name}: {len(walls)} sweeps of {workload.samples} "
            f"samples, {len(setup)} set-ups")
        for name, (value, unit) in metrics.items():
            log(f"  {name:<16} {value:>14.6g} {unit}")
        # The highest percentile, up to p99, with ten sweeps beyond it.
        ranked = sorted(walls)
        index = min(math.ceil(0.99 * len(ranked)), len(ranked) - 10) - 1
        tail = (f"p{100 * (index + 1) / len(ranked):.3g} {ranked[index]:.6g} s"
                if index >= 0 else "no percentile with ten sweeps beyond")
        log(f"  {'sweep wall':<16} median {statistics.median(walls):.6g} s, "
            f"{tail}, mean {statistics.fmean(walls):.6g} s, over "
            f"{len(walls)} sweeps, as measured")
        log(f"  {'reference work':<16} mean {statistics.fmean(work):.6g} s "
            f"over {len(work)} passes after the sweeps")
        log(f"  {'error_rate':<16} {failed / attempted:>14.6g} "
            f"failed/attempted sweeps ({failed}/{attempted})")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_layer_table(tracer, metrics: dict, log) -> None:
    """One row per span, then every other per-layer metric with its unit."""
    from tracing import PER_SAMPLE_SPANS, SPANS

    columns = ("calls", "busy_s", "share", "us_p50")
    counts = {}
    for name, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
    log(f"  {'span':<28} {'calls/sweep':>11} {'busy s/sweep':>12} "
        f"{'share':>7} {'p50 us':>10} {'tail us':>10}  tail")
    in_table = set()
    for name in SPANS:
        calls, busy, share, p50 = (metrics[f"{name}.{c}"][0] for c in columns)
        in_table.update(f"{name}.{c}" for c in columns)
        tail = "-"
        if name in PER_SAMPLE_SPANS:
            in_table.add(f"{name}.us_p99")
            n = counts.get(name, 0)
            tail = (f"{metrics[f'{name}.us_p99'][0]:>10.1f}  p99, "
                    f"{n - math.ceil(0.99 * n)} of {n} calls beyond")
        log(f"  {name:<28} {calls:>11.4g} {busy:>12.4g} {share:>7.2%} "
            f"{p50:>10.1f} {tail:>10}")
    for name, (value, unit) in metrics.items():
        if name not in in_table:
            log(f"  {name:<36} {value:>12.6g} {unit}")


def environment(seed: int, seeds: list[int]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or revision
    import numpy
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "revision": revision, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "mcms_seeds": seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One fresh process per run, as when each is invoked on its own.
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(t)]
                                ).returncode
                 for w in WORKLOADS for t in (0, 1)]
        return max(codes)
    workload = WORKLOADS[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         load_reference(workload))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
