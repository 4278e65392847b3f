"""Monte Carlo experiment harness.

An experiment sweeps one scenario knob (users per cell, or cell radius)
and reports, per swept value, the mean number of unserved users per
sub-frame under two schedulers:

* SC: no coordination, every cell picks the PRB best for its own
  primary users, and users only listen to their primary cell.
* MC: the greedy cross-cell assignment, and users decode from any cell.

Each swept point averages over ``trials`` independent user placements
times ``subframes`` independent fading draws per placement.  Randomness
is keyed by (point index, trial, sub-frame) through SeedSequence spawn
keys, so every sample is reproducible in isolation and results do not
depend on execution order.

One kernel, `_unserved_counts`, runs every sample, for `run_sweep` and
for `run_subframe` alike.  It works one placement at a time.  The mean
SNR of every link and a per-link fading-gain threshold are computed
once per placement.  Each sub-frame then draws its gains and compares
them with the threshold, with no log per link.  Gains within a narrow
guard band of the threshold get their rate computed, so coverage is
exactly that of `sample_rates` followed by `derive_instance`.
Sub-frames go in batches, capped by a fixed byte budget whatever the
number of sub-frames.  One thread per available CPU, the calling
thread and helpers from a pool, draws and thresholds the sub-frames of
a batch, each taking the next one left, and packs each one's coverage
into uint64 words (numpy's generator fills and comparisons release the
interpreter lock).  The calling thread then solves the whole batch at
once with `greedy_batch` and `sc_batch`.  With the EXACT column,
`exact_search` finds the optimum of every sub-frame of the batch from
the same coverage bits, enumerating only the users some allocations
serve and others do not.  Results depend on neither the batch size nor
the number of threads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coverage import CoverageInstance, InstanceError, whole_number
from .scenario import (
    ChannelParams,
    DEFAULT_STREAM_RATE_BPS,
    Scenario,
    StreamSpec,
    derive_instance,
    generate_scenario,
    mean_snr,
    sample_rates,
    shannon_rate_bps,
)
from .solvers import (
    EnumerationBudgetError,
    exact_search,
    greedy_batch,
    primary_words,
    sc_batch,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)

# derive_instance, sample_rates, solve_exact, solve_greedy and
# solve_sc_baseline are not called here: they stay bound so that
# perfbench/tracing.py, which rebinds this module's names of the layers
# below, finds all of them.

DEFAULT_USER_SWEEP = (100, 125, 150, 175, 200, 225, 250)
DEFAULT_RADIUS_SWEEP = (200, 250, 300, 350, 400)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every point of a sweep."""

    num_cells: int = 7
    radius_m: float = 300.0
    users_per_cell: int = 175
    num_prbs: int = 4
    subframes: int = 100
    trials: int = 20
    stream_rate_bps: float = DEFAULT_STREAM_RATE_BPS
    channel: ChannelParams = field(default_factory=ChannelParams)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_cells", "users_per_cell", "num_prbs", "subframes",
                     "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_cells not in (1, 7, 19):
            raise ValueError("num_cells must be 1, 7 or 19")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("users_per_cell", "num_prbs", "subframes", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("radius_m", "stream_rate_bps"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value <= 0):
                raise ValueError(
                    f"{name} must be a finite number > 0, got {value!r}")
        # The rate over one PRB is B * log2(1 + snr) with 1 + snr below
        # 2 ** max_exp, so no link reaches a higher stream rate.
        ceiling = self.channel.bandwidth_hz * sys.float_info.max_exp
        if self.stream_rate_bps >= ceiling:
            raise ValueError(
                f"stream_rate_bps must be below {ceiling:g} "
                f"({sys.float_info.max_exp} x the PRB bandwidth): no "
                f"finite SNR reaches it, got {self.stream_rate_bps!r}")


@dataclass(frozen=True)
class RawSample:
    """Unserved counts of one (placement, fading draw) sample."""

    value: float
    trial: int
    subframe: int
    unserved_sc: int
    unserved_mc: int
    unserved_exact: int | None = None


@dataclass(frozen=True)
class SweepPoint:
    """Mean and population std-dev of unserved users at one swept value,
    over ``samples`` = trials x subframes draws."""

    value: float
    unserved_sc: float
    unserved_mc: float
    std_sc: float
    std_mc: float
    samples: int
    trials: int
    unserved_exact: float | None = None
    std_exact: float | None = None


@dataclass(frozen=True)
class SweepResult:
    axis: str
    config: ExperimentConfig
    points: tuple[SweepPoint, ...]
    raw: tuple[RawSample, ...] = ()


def run_subframe(
    scenario: Scenario,
    params: ChannelParams,
    stream: StreamSpec,
    subframe: int,
    rng,
    num_prbs: int = 4,
) -> tuple[int, int]:
    """Sample one sub-frame and count unserved users (MC greedy, SC).

    Draws the fading of one sub-frame from ``rng`` and counts the users
    the greedy cross-cell solver (MC) and the per-cell baseline (SC)
    leave unserved: the sweep kernel run on one sub-frame.  The counts
    equal those of `sample_rates` with the same ``rng``, then
    `derive_instance`, `solve_greedy` and `solve_sc_baseline`.
    ``subframe`` only labels the draw.
    """
    mc, sc, _ = _unserved_counts(scenario, params, stream, num_prbs, [rng])
    return int(mc[0]), int(sc[0])


# Byte budget of the packed coverage words of one batch of sub-frames;
# it bounds the kernel's memory whatever the sub-frame count.
_BATCH_BYTES = 256 << 10
# Half-width, relative to 1 + x, of the band around the SNR threshold x
# inside which a link's rate is computed rather than decided by its gain.
_GUARD = 1e-9


# Threads that draw and threshold the sub-frames of a batch, the calling
# thread included: one per CPU this process may run on.  numpy's
# generator fills and ufuncs release the interpreter lock, so the draws
# run in parallel.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _thread_pool():
    """The shared pool of the _WORKERS - 1 helper threads, started on
    first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=_WORKERS - 1,
                                       thread_name_prefix="mcms-draw")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the parent's threads: the pool would
    # take tasks and never run them, and its lock may be held.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


def _batch_subframes(subframes: int, num_cells: int, num_prbs: int,
                     num_users: int) -> int:
    """Sub-frames per batch under _BATCH_BYTES, at least one."""
    per_subframe = num_cells * num_prbs * -(-num_users // 64) * 8
    return max(1, min(subframes, _BATCH_BYTES // max(per_subframe, 1)))


def _gain_bounds(snr: np.ndarray, params: ChannelParams,
                 stream: StreamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fading-gain bounds [cells, 1, users] of the decode rule.

    A link decodes when its rate ``shannon_rate_bps(snr * gain, B)``
    reaches the stream rate R, that is when ``snr * gain`` reaches
    ``x = expm1(R / B * ln 2)``, or the gain reaches ``g* = x / snr``.
    Rounding makes the two rules differ near the threshold, by a
    relative error in ``1 + snr * gain`` of about (R / B * ln 2 + 4)
    units in the last place: below 2e-13 while x is finite.  So a gain
    of at least ``hi`` decodes, a gain below ``lo`` does not, and gains
    in between, ``g*`` give or take _GUARD * (1 + x) / snr, get their
    rate computed.  The band is relative to 1 + x, not to x: at low
    SNR, ``1 + snr * gain`` keeps few bits of ``snr * gain``.  Links
    whose bounds are not finite (the threshold overflows, or a zero
    SNR) have every gain in between.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.expm1(stream.rate_bps / params.bandwidth_hz * np.log(2.0))
        half = _GUARD * (1.0 + x)
        lo = (x - half) / snr
        hi = (x + half) / snr
    exact = ~(np.isfinite(lo) & np.isfinite(hi))
    lo[exact] = -np.inf
    hi[exact] = np.inf
    return lo[:, None, :], hi[:, None, :]


def _unserved_counts(
    scenario: Scenario,
    params: ChannelParams,
    stream: StreamSpec,
    num_prbs: int,
    fading_seeds: Sequence,
    with_exact: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The Monte Carlo kernel: unserved users of one placement, per
    sub-frame.

    ``fading_seeds`` holds one seed per sub-frame, anything
    ``np.random.default_rng`` accepts.  Each sub-frame draws its
    Rayleigh gains from its seed as `sample_rates` does, and a link
    covers its user when the gain clears the threshold of
    `_gain_bounds` (the same rule as `derive_instance`, with no log
    per link).  Sub-frames go in batches of `_batch_subframes`.  The
    calling thread and up to _WORKERS - 1 helper threads of a shared
    pool draw and threshold the sub-frames of a batch, each taking the
    next sub-frame not yet taken, and pack each sub-frame's coverage
    straight into the batch's uint64 words; a helper's error is raised
    here.  The calling thread then solves the whole batch at once with
    `greedy_batch` (MC) and `sc_batch` (SC).
    With ``with_exact``, it also solves each sub-frame, unpacked, with
    `exact_search`; the caller checks that ``num_prbs ** num_cells`` is
    within its enumeration budget.  Each sub-frame's result depends on
    its seed alone, so the counts do not depend on the batch size, the
    number of threads or which thread draws which sub-frame.  A batch of
    one sub-frame, as in `run_subframe`, never touches the pool.

    Returns the unserved counts ``(mc, sc, exact)``, arrays of one entry
    per sub-frame; ``exact`` is None without ``with_exact``.
    """
    if num_prbs < 1:
        raise ValueError("num_prbs must be >= 1")
    snr = mean_snr(scenario, params)
    num_cells, num_users = snr.shape
    lo, hi = _gain_bounds(snr, params, stream)
    owners = primary_words(scenario.primary_cell, num_cells)
    subframes = len(fading_seeds)
    batch = _batch_subframes(subframes, num_cells, num_prbs, num_users)
    padded_users = -(-num_users // 64) * 64
    words = np.empty((batch, num_cells, num_prbs, padded_users // 64),
                     dtype=np.uint64)
    workers = min(_WORKERS, batch)
    # Per worker: gains, the band mask, and coverage bits padded to
    # whole words with zeros.
    buffers = [(np.ones((num_cells, num_prbs, num_users)),
                np.empty((num_cells, num_prbs, num_users), dtype=bool),
                np.zeros((num_cells, num_prbs, padded_users), dtype=bool))
               for _ in range(workers)]
    lock = threading.Lock()  # guards next() on the shared iterator

    def draw(worker: int, start: int, todo: Iterator[int]) -> None:
        # Takes sub-frames of the batch from ``todo`` until none is left.
        gains, maybe, padded = buffers[worker]
        covers = padded[:, :, :num_users]
        while True:
            with lock:
                t = next(todo, None)
            if t is None:
                return
            if params.fading == "rayleigh":
                np.random.default_rng(
                    fading_seeds[t]).standard_exponential(out=gains)
            np.greater_equal(gains, hi, out=covers)
            np.greater_equal(gains, lo, out=maybe)
            if np.count_nonzero(maybe) != np.count_nonzero(covers):
                c, j, u = np.nonzero(maybe & ~covers)
                covers[c, j, u] = shannon_rate_bps(
                    snr[c, u] * gains[c, j, u], params.bandwidth_hz
                ) >= stream.rate_bps
            words[t - start] = np.packbits(
                padded, axis=-1, bitorder="little").view(np.uint64)

    mc = np.empty(subframes, dtype=np.int64)
    sc = np.empty_like(mc)
    exact = np.empty_like(mc) if with_exact else None
    for start in range(0, subframes, batch):
        stop = min(start + batch, subframes)
        n = stop - start
        # The calling thread draws too, and each thread takes the next
        # sub-frame left: a helper idle since the last batch can start
        # ~0.25 ms late (2-vCPU Xeon VM), and fixed shares would make
        # every thread wait for it.
        todo = iter(range(start, stop))
        helpers = [_thread_pool().submit(draw, w, start, todo)
                   for w in range(1, min(workers, n))]
        draw(0, start, todo)
        for helper in helpers:
            helper.result()  # waits, and re-raises a helper's error
        mc[start:stop] = num_users - greedy_batch(words[:n])[1]
        sc[start:stop] = num_users - sc_batch(words[:n], owners)[1]
        if exact is not None:
            for t in range(n):
                member = np.unpackbits(
                    words[t].view(np.uint8), axis=-1, count=num_users,
                    bitorder="little").view(bool)
                exact[start + t] = num_users - exact_search(member)[1]
    return mc, sc, exact


def _point_config(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "users":
        return dataclasses.replace(config, users_per_cell=int(value))
    if axis == "radius":
        return dataclasses.replace(config, radius_m=float(value))
    raise ValueError(f"axis must be 'users' or 'radius', got {axis!r}")


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values: Sequence[float] | None = None,
    with_exact: bool = False,
    exact_budget: int = 10_000_000,
    collect_raw: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the Monte Carlo sweep along ``axis``.

    ``values`` must be strictly increasing and defaults to
    DEFAULT_USER_SWEEP or DEFAULT_RADIUS_SWEEP.  With ``with_exact``
    every sub-frame also gets the optimum (`exact_search`); it raises
    EnumerationBudgetError before the first sample unless
    num_prbs ** num_cells stays within ``exact_budget``.  With
    ``collect_raw`` the per-sample counts are kept on the result so the
    reported means can be recomputed from them.
    """
    if values is None:
        values = DEFAULT_USER_SWEEP if axis == "users" else DEFAULT_RADIUS_SWEEP
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError("need at least one sweep value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep values must be strictly increasing: {values}")
    if with_exact and config.num_prbs ** config.num_cells > exact_budget:
        raise EnumerationBudgetError(config.num_prbs ** config.num_cells,
                                     exact_budget)
    params = config.channel
    stream = StreamSpec(rate_bps=config.stream_rate_bps)
    points = []
    raw: list[RawSample] = []
    for pi, value in enumerate(values):
        started = time.perf_counter()
        pc = _point_config(config, axis, value)
        unserved = np.empty((3 if with_exact else 2, pc.trials, pc.subframes),
                            dtype=np.int64)
        for trial in range(pc.trials):
            placement_rng = np.random.default_rng(
                np.random.SeedSequence(pc.seed, spawn_key=(pi, trial, 0))
            )
            scenario = generate_scenario(
                pc.num_cells, pc.radius_m, pc.users_per_cell, placement_rng
            )
            fading_seeds = [
                np.random.SeedSequence(pc.seed, spawn_key=(pi, trial, 1, t))
                for t in range(pc.subframes)
            ]
            mc, sc, exact = _unserved_counts(
                scenario, params, stream, pc.num_prbs, fading_seeds,
                with_exact,
            )
            unserved[:2, trial] = mc, sc
            if with_exact:
                unserved[2, trial] = exact
        if collect_raw:
            mc, sc, *exact = unserved.tolist()
            raw.extend(
                RawSample(value=value, trial=trial, subframe=t,
                          unserved_sc=sc[trial][t], unserved_mc=mc[trial][t],
                          unserved_exact=exact[0][trial][t] if exact else None)
                for trial in range(pc.trials) for t in range(pc.subframes)
            )
        mc, sc, *exact = unserved.reshape(len(unserved), -1)
        points.append(SweepPoint(
            value=value,
            unserved_sc=float(sc.mean()),
            unserved_mc=float(mc.mean()),
            std_sc=float(sc.std()),
            std_mc=float(mc.std()),
            samples=mc.size,
            trials=pc.trials,
            unserved_exact=float(exact[0].mean()) if exact else None,
            std_exact=float(exact[0].std()) if exact else None,
        ))
        if progress is not None:
            rate = mc.size / (time.perf_counter() - started)
            progress(f"{axis}={value:g}: SC={points[-1].unserved_sc:.3f} "
                     f"MC={points[-1].unserved_mc:.3f} "
                     f"({rate:.0f} samples/s)")
    return SweepResult(axis=axis, config=config, points=tuple(points),
                       raw=tuple(raw))


def _fmt_float(x: float) -> str:
    # repr(float) switches to exponent notation below 1e-4; the CSVs
    # must stay plain decimal.
    x = float(x)
    r = repr(x)
    if "e" in r or "E" in r:
        return np.format_float_positional(x, trim="0")
    return r


def _fmt_value(x: float) -> str:
    x = float(x)
    if x.is_integer():
        return str(int(x))
    return _fmt_float(x)


def write_csv(result: SweepResult, path, axis: str | None = None) -> None:
    """Write the sweep means as CSV: one row per swept value.

    Header is ``users,SC,MC`` or ``radius,SC,MC`` depending on the
    axis, plus ``,EXACT`` when the sweep ran the brute-force solver.
    ``axis`` defaults to the axis the sweep ran over.
    """
    if not result.points:
        raise ValueError("sweep result has no points")
    if axis is None:
        axis = result.axis
    elif axis != result.axis:
        raise ValueError(
            f"axis {axis!r} does not match the sweep axis {result.axis!r}"
        )
    with_exact = result.points[0].unserved_exact is not None
    header = f"{axis},SC,MC"
    if with_exact:
        header += ",EXACT"
    lines = [header]
    for p in result.points:
        row = (f"{_fmt_value(p.value)},{_fmt_float(p.unserved_sc)},"
               f"{_fmt_float(p.unserved_mc)}")
        if with_exact:
            row += f",{_fmt_float(p.unserved_exact)}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_raw_csv(result: SweepResult, path) -> None:
    """Per-sample dump from which the means in the main CSV can be
    recomputed."""
    if not result.raw:
        raise ValueError("sweep was run without collect_raw")
    with_exact = result.raw[0].unserved_exact is not None
    header = f"{result.axis},trial,subframe,SC,MC"
    if with_exact:
        header += ",EXACT"
    lines = [header]
    for s in result.raw:
        row = (f"{_fmt_value(s.value)},{s.trial},{s.subframe},"
               f"{s.unserved_sc},{s.unserved_mc}")
        if with_exact:
            row += f",{s.unserved_exact}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_meta(result: SweepResult, csv_path) -> None:
    """Sidecar JSON describing how the CSV next to it was produced."""
    point_stats = []
    for p in result.points:
        entry = {
            "value": p.value,
            "mean_sc": p.unserved_sc,
            "mean_mc": p.unserved_mc,
            "std_sc": p.std_sc,
            "std_mc": p.std_mc,
            "samples": p.samples,
            "trials": p.trials,
        }
        if p.unserved_exact is not None:
            entry["mean_exact"] = p.unserved_exact
            entry["std_exact"] = p.std_exact
        point_stats.append(entry)
    meta = {
        "axis": result.axis,
        "config": dataclasses.asdict(result.config),
        "averaging": "unweighted mean of per-subframe unserved-user counts "
                     "over trials (fresh user placement each) x subframes "
                     "(fresh fading each) samples",
        "columns": {
            "SC": "uncoordinated per-cell choice, primary cell only",
            "MC": "greedy cross-cell choice, decode from any cell",
        },
        "points": point_stats,
    }
    if result.points[0].unserved_exact is not None:
        meta["columns"]["EXACT"] = "brute-force optimal cross-cell choice"
    path = Path(str(csv_path) + ".meta.json")
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def instance_to_dict(instance: CoverageInstance) -> dict:
    """JSON-ready dict: M users, C cells, N PRB sets per cell."""
    return {
        "M": instance.num_users,
        "C": instance.num_cells,
        "N": instance.prbs_per_cell,
        "collections": [[sorted(s) for s in cell] for cell in instance.collections],
        "primary": [int(p) for p in instance.primary_cell],
    }


def instance_from_dict(data: dict) -> CoverageInstance:
    """Instance of a JSON document; InstanceError if it is malformed,
    including any count or id that is not a whole number."""
    try:
        m, c, n = (whole_number(data[key], key) for key in ("M", "C", "N"))
        collections = data["collections"]
        primary = data["primary"]
        if len(collections) != c:
            raise InstanceError(
                f"C={c} but collections lists {len(collections)} cells"
            )
        for i, cell in enumerate(collections):
            if len(cell) != n:
                raise InstanceError(
                    f"N={n} but cell {i} lists {len(cell)} PRB sets"
                )
        return CoverageInstance(num_users=m, collections=collections,
                                primary_cell=primary)
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"bad instance document: {exc}") from exc


def load_instance(path) -> CoverageInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def dump_instance(instance: CoverageInstance, path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(instance), indent=2) + "\n",
        encoding="utf-8",
    )


def random_instance(
    rng,
    num_users: int = 30,
    num_cells: int = 4,
    num_prbs: int = 3,
    density: float = 0.3,
) -> CoverageInstance:
    """Random coverage instance; membership entries are i.i.d. Bernoulli."""
    rng = np.random.default_rng(rng)
    membership = rng.random((num_cells, num_prbs, num_users)) < density
    primary = rng.integers(0, num_cells, size=num_users)
    return CoverageInstance.from_membership(membership, primary)
