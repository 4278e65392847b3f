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

Every sample goes through one Monte Carlo kernel,
`mcms.kernel.unserved_counts`: `run_sweep` hands it all placements of
all points as one stream and reads back each placement's unserved
counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coverage import CoverageInstance, InstanceError, whole_number
from .scenario import (
    ChannelParams,
    DEFAULT_STREAM_RATE_BPS,
    StreamSpec,
    derive_instance,
    generate_scenario,
    sample_rates,
)
from .solvers import (
    EXACT_BUDGET,
    EnumerationBudgetError,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)
from .kernel import unserved_counts

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


# The columns of a sweep, in the order of SweepResult.counts and of every
# file the writers produce; EXACT only with the optimum.
_COLUMNS = ("SC", "MC", "EXACT")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Unserved users of every sample of a sweep.

    ``counts`` is a read-only int64 array [points, columns, trials,
    sub-frames]: its columns are SC and MC, plus EXACT when the sweep
    reported the optimum.  Every mean and standard deviation the writers
    report is taken over one point's column, flat in trial-major order.
    """

    axis: str
    config: ExperimentConfig
    values: tuple[float, ...]
    counts: np.ndarray


class _FadingSeeds:
    """The fading seeds of the sub-frames of placement (point, trial) of
    a sweep, each built when its sub-frame is drawn."""

    def __init__(self, seed: int, point: int, trial: int, subframes: int):
        self.seed, self.subframes = seed, subframes
        self.key = (point, trial, 1)

    def __len__(self) -> int:
        return self.subframes

    def __getitem__(self, t: int) -> np.random.SeedSequence:
        if not 0 <= t < self.subframes:
            raise IndexError(f"sub-frame {t} out of range [0, "
                             f"{self.subframes})")
        return np.random.SeedSequence(self.seed, spawn_key=(*self.key, t))


def _point_config(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "users":
        return dataclasses.replace(
            config, users_per_cell=whole_number(value, "users_per_cell"))
    if axis == "radius":
        return dataclasses.replace(config, radius_m=float(value))
    raise ValueError(f"axis must be 'users' or 'radius', got {axis!r}")


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values: Sequence[float] | None = None,
    with_exact: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the Monte Carlo sweep along ``axis``.

    ``values`` must be strictly increasing and defaults to
    DEFAULT_USER_SWEEP or DEFAULT_RADIUS_SWEEP.  With ``with_exact``
    every sub-frame also gets the optimum, certified where a 1-swap from
    the greedy's or the SC allocation serves every user some set covers
    and enumerated by `exact_search` elsewhere (see `unserved_counts`).
    It raises EnumerationBudgetError before the first sample unless
    num_prbs ** num_cells stays within EXACT_BUDGET.  Every placement
    of every point goes through one run of the kernel, `unserved_counts`,
    and its counts are copied into the result's `counts`.
    """
    if values is None:
        values = DEFAULT_USER_SWEEP if axis == "users" else DEFAULT_RADIUS_SWEEP
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError("need at least one sweep value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep values must be strictly increasing: {values}")
    if with_exact and config.num_prbs ** config.num_cells > EXACT_BUDGET:
        raise EnumerationBudgetError(config.num_prbs ** config.num_cells,
                                     EXACT_BUDGET)
    point_configs = [_point_config(config, axis, value) for value in values]

    def placements():
        for pi, pc in enumerate(point_configs):
            for trial in range(pc.trials):
                placement_rng = np.random.default_rng(
                    np.random.SeedSequence(pc.seed, spawn_key=(pi, trial, 0))
                )
                scenario = generate_scenario(
                    pc.num_cells, pc.radius_m, pc.users_per_cell,
                    placement_rng
                )
                yield scenario, _FadingSeeds(pc.seed, pi, trial, pc.subframes)

    counts = np.empty((len(values), 3 if with_exact else 2, config.trials,
                       config.subframes), dtype=np.int64)
    kernel = unserved_counts(placements(), config.channel,
                             StreamSpec(rate_bps=config.stream_rate_bps),
                             config.num_prbs, with_exact)
    with contextlib.closing(kernel):
        started = time.perf_counter()
        for pi, value in enumerate(values):
            for trial in range(config.trials):
                counts[pi, :, trial] = next(kernel)
            if progress is not None:
                now = time.perf_counter()
                rate = counts[pi, 0].size / (now - started)
                started = now
                sc, mc = _samples(counts[pi])[:2]
                progress(f"{axis}={value:g}: SC={sc.mean():.3f} "
                         f"MC={mc.mean():.3f} ({rate:.0f} samples/s)")
    counts.flags.writeable = False
    return SweepResult(axis=axis, config=config, values=values, counts=counts)


def _samples(point: np.ndarray) -> np.ndarray:
    """A point's counts [columns, trials, sub-frames] as one row of
    samples per column, in trial-major order."""
    return point.reshape(len(point), -1)


def _header(result: SweepResult, *fields: str) -> str:
    return ",".join((*fields, *_COLUMNS[:result.counts.shape[1]]))


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


def write_csv(result: SweepResult, path) -> None:
    """Write the sweep means as CSV: one row per swept value.

    Header is ``users,SC,MC`` or ``radius,SC,MC`` depending on the
    sweep's axis, plus ``,EXACT`` when the sweep also reported the
    optimum, certified by bounds or enumerated.
    """
    if not result.values:
        raise ValueError("sweep result has no points")
    lines = [_header(result, result.axis)]
    for value, point in zip(result.values, result.counts):
        lines.append(",".join([_fmt_value(value)] + [
            _fmt_float(column.mean()) for column in _samples(point)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_raw_csv(result: SweepResult, path) -> None:
    """Per-sample dump from which the means in the main CSV can be
    recomputed: one row per (value, trial, sub-frame)."""
    lines = [_header(result, result.axis, "trial", "subframe")]
    # [points, trials, sub-frames, columns]: one row of counts per sample.
    by_sample = np.moveaxis(result.counts, 1, -1).tolist()
    for value, trials in zip(result.values, by_sample):
        lines.extend(f"{_fmt_value(value)},{trial},{t},"
                     + ",".join(map(str, row))
                     for trial, rows in enumerate(trials)
                     for t, row in enumerate(rows))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_meta(result: SweepResult, csv_path) -> None:
    """Sidecar JSON describing how the CSV next to it was produced."""
    point_stats = []
    for value, point in zip(result.values, result.counts):
        _, trials, subframes = point.shape
        entry = {"value": value, "samples": trials * subframes,
                 "trials": trials}
        for name, column in zip(("sc", "mc", "exact"), _samples(point)):
            entry[f"mean_{name}"] = float(column.mean())
            entry[f"std_{name}"] = float(column.std())
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
    if result.counts.shape[1] == 3:
        meta["columns"]["EXACT"] = "brute-force optimal cross-cell choice"
    path = Path(str(csv_path) + ".meta.json")
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


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
