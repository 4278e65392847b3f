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
depend on execution order.  A placement's fading seeds, one per
sub-frame, are built a slice of sub-frames at a time in one numpy pass
(`_FadingSeeds`), word for word the states of those SeedSequences.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
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
    finite_float,
    generate_scenario,
    hex_centers,
    sample_rates,
)
from .solvers import (
    EXACT_BUDGET,
    EnumerationBudgetError,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)
from .kernel import BASE_COLUMNS, COLUMNS, unserved_counts

# derive_instance, sample_rates, solve_exact, solve_greedy and
# solve_sc_baseline are not called here: they stay bound so that
# perfbench/tracing.py, which rebinds this module's names of the layers
# below, finds all of them.

# The one table of sweep axes: each axis's ExperimentConfig field, which
# its sweep varies while it holds every other knob, its default values,
# and how a swept value becomes that field's.
SWEEP_AXES = {
    "users": ("users_per_cell", (100, 125, 150, 175, 200, 225, 250),
              lambda value: whole_number(value, "users_per_cell")),
    "radius": ("radius_m", (200, 250, 300, 350, 400),
               lambda value: finite_float(value, "radius_m", positive=True)),
}


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
            # Plain ints, as json writes the config to the .meta.json.
            object.__setattr__(self, name, int(value))
            # SeedSequence takes no negative entropy; no count is below 1.
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.subframes > MAX_SUBFRAMES:
            raise ValueError(
                f"subframes must be <= 2**32 ({MAX_SUBFRAMES}), since a "
                f"fading seed takes a sub-frame index of one uint32 word, "
                f"got {self.subframes}")
        for name in ("radius_m", "stream_rate_bps"):
            object.__setattr__(self, name, finite_float(
                getattr(self, name), name, positive=True))
        # 1, 7 or 19 cells, with finite coordinates and distances.
        hex_centers(self.num_cells, self.radius_m)
        # The rate over one PRB is B * log2(1 + snr) with 1 + snr below
        # 2 ** max_exp, so no link reaches a higher stream rate.
        ceiling = self.channel.bandwidth_hz * sys.float_info.max_exp
        if self.stream_rate_bps >= ceiling:
            raise ValueError(
                f"stream_rate_bps must be below {ceiling:g} "
                f"({sys.float_info.max_exp} x the PRB bandwidth): no "
                f"finite SNR reaches it, got {self.stream_rate_bps!r}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Unserved users of every sample of a sweep.

    ``counts`` is a read-only int64 array [points, columns, trials,
    sub-frames] whose columns ``columns`` names in order, as in
    `mcms.kernel.COLUMNS`.  Every mean and standard deviation the writers
    report is taken over one point's column, flat in trial-major order.
    """

    axis: str
    config: ExperimentConfig
    values: tuple[float, ...]
    columns: tuple[str, ...]
    counts: np.ndarray


# numpy's SeedSequence (O'Neill's seed_seq_fe) with its default pool of
# four uint32 words: the first hash constant and multiplier of
# mix_entropy (A) and of generate_state (B), and the multipliers of mix.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# The fading seeds take a sub-frame index of one uint32 word.
MAX_SUBFRAMES = 2**32


def _hash_constants(init: int, mult: int, calls: int,
                    count: int) -> np.ndarray:
    """The two uint32 constants of each of ``count`` hashes after
    ``calls`` others: the one a word is XORed with, then the one the
    result is multiplied by.  Each hash multiplies the constant, which
    starts at ``init``, by ``mult``."""
    hashes = [init * pow(mult, calls, 2**32) % 2**32]
    for _ in range(count):
        hashes.append(hashes[-1] * mult % 2**32)
    return np.array([hashes[:-1], hashes[1:]], dtype=np.uint32)


# generate_state(4, np.uint64) hashes the pool twice over into 8 words.
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL)


def _uint32_words(n: int) -> int:
    """Words of ``n`` in SeedSequence's entropy: one for 0."""
    return max(1, -(-n.bit_length() // 32))


def _parent_terms(seed: int, key: tuple[int, ...]) -> np.ndarray:
    """What the children ``SeedSequence(seed, spawn_key=(*key, t))`` of
    the parent ``SeedSequence(seed, spawn_key=key)``, ``key`` not empty,
    share: [3, 4] uint32, the parent's pool words times _MIX_L, then the
    constants each word's hash of t is XORed with and multiplied by.

    A child's entropy is its parent's and one more word, t: mix_entropy
    leaves the parent's pool as it is and mixes ``hashmix(t)`` into each
    of its four words, with the hash constant advanced by every hashmix
    call the parent made.  So a child's state words are a few vectorised
    uint32 steps from these terms.
    """
    parent = np.random.SeedSequence(seed, spawn_key=key)
    # The run entropy is padded to the pool size before a spawn key.
    entropy = (max(_uint32_words(seed), _POOL)
               + sum(map(_uint32_words, key)))
    # hashmix calls: one per pool word, one per ordered pair of pool
    # words, then one per pool word for each word beyond the pool.
    calls = _POOL + _POOL * (_POOL - 1) + _POOL * (entropy - _POOL)
    pool = [_MIX_L * int(word) % 2**32 for word in parent.pool]
    return np.vstack([np.array(pool, dtype=np.uint32),
                      _hash_constants(_INIT_A, _MULT_A, calls, _POOL)])


def _child_states(terms: np.ndarray, first: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(*key, t)).generate_state(4,
    np.uint64)`` for t in [first, stop) as [stop - first, 4], from
    ``terms = _parent_terms(seed, key)``, with ``stop <=
    MAX_SUBFRAMES``."""
    pool, xor, mul = terms
    t = np.arange(first, stop, dtype=np.uint32)[:, None]
    hashed = (t ^ xor) * mul
    hashed ^= hashed >> 16
    mixed = pool - np.uint32(_MIX_R) * hashed
    mixed ^= mixed >> 16
    state = np.tile(mixed, 2)
    state ^= _STATE_HASH[0]
    state *= _STATE_HASH[1]
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64,
                                                             copy=False)


class _SubframeSeed:
    """A seed whose state is precomputed: the first four uint64 words of
    the state of a `SeedSequence`, read-only.  `_FadingSeeds` registers
    it as an ISeedSequence, which numpy's bit generators take as a seed,
    when it builds a slice: importing mcms does not import numpy.random,
    and its ~12 ms stay off every run's set-up."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        # PCG64 asks for np.uint64 itself: the test by identity keeps
        # np.dtype off the path of every sub-frame.
        if dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("only support uint64")
        if not 0 <= n_words <= len(self.words):
            raise ValueError(f"holds {len(self.words)} words of uint64, "
                             f"asked for {n_words}")
        return self.words[:n_words]


class _FadingSeeds:
    """The fading seeds of the sub-frames of placement (point, trial) of
    a sweep, ``subframes <= MAX_SUBFRAMES`` of them, read only by slice:
    in ``seeds[start:stop]`` the seed of sub-frame t holds the state of
    ``SeedSequence(seed, spawn_key=(point, trial, 1, t))`` and so gives
    the same PCG64 stream.  A slice is built in one `_child_states` pass
    from the terms the placement's seeds share."""

    def __init__(self, seed: int, point: int, trial: int, subframes: int):
        self.subframes = subframes
        self.terms = _parent_terms(int(seed), (int(point), int(trial), 1))

    def __len__(self) -> int:
        return self.subframes

    def __getitem__(self, index: slice) -> list[_SubframeSeed]:
        start, stop, step = index.indices(self.subframes)
        if step != 1:
            raise ValueError("fading seeds are sliced with step 1")
        np.random.bit_generator.ISeedSequence.register(_SubframeSeed)
        words = _child_states(self.terms, start, stop)
        words.flags.writeable = False
        return [_SubframeSeed(row) for row in words]


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    values: Sequence[float] | None = None,
    with_exact: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the Monte Carlo sweep along ``axis``, a key of `SWEEP_AXES`.

    ``values`` must be strictly increasing and defaults to the axis's
    defaults; each must be what its `ExperimentConfig` field takes, a
    whole number of users or a finite radius > 0 (ValueError, with no
    coercion, if not).  The columns are SC and MC, and with
    ``with_exact`` EXACT too, the optimum of every sub-frame
    (`mcms.kernel.COLUMNS`); then it raises EnumerationBudgetError
    before the first sample unless num_prbs ** num_cells stays within
    EXACT_BUDGET.  Every placement of every point goes through one run
    of the kernel, `unserved_counts`, and its counts are copied into the
    result's `counts`.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be 'users' or 'radius', got {axis!r}")
    varied, defaults, convert = SWEEP_AXES[axis]
    swept = [convert(v) for v in (defaults if values is None else values)]
    values = tuple(map(float, swept))
    if not values:
        raise ValueError("need at least one sweep value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep values must be strictly increasing: {values}")
    if with_exact and config.num_prbs ** config.num_cells > EXACT_BUDGET:
        raise EnumerationBudgetError(config.num_prbs ** config.num_cells,
                                     EXACT_BUDGET)
    point_configs = [dataclasses.replace(config, **{varied: value})
                     for value in swept]

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

    columns = COLUMNS if with_exact else BASE_COLUMNS
    names = tuple(column.name for column in columns)
    counts = np.empty((len(values), len(columns), config.trials,
                       config.subframes), dtype=np.int64)
    kernel = unserved_counts(placements(), config.channel,
                             StreamSpec(rate_bps=config.stream_rate_bps),
                             config.num_prbs, columns)
    with contextlib.closing(kernel):
        started = time.perf_counter()
        for pi, value in enumerate(values):
            for trial in range(config.trials):
                counts[pi, :, trial] = next(kernel)
            if progress is not None:
                now = time.perf_counter()
                rate = counts[pi, 0].size / (now - started)
                started = now
                means = " ".join(f"{name}={column.mean():.3f}" for name,
                                 column in zip(names, _samples(counts[pi])))
                progress(f"{axis}={value:g}: {means} ({rate:.0f} samples/s)")
    counts.flags.writeable = False
    return SweepResult(axis=axis, config=config, values=values,
                       columns=names, counts=counts)


def _samples(point: np.ndarray) -> np.ndarray:
    """A point's counts [columns, trials, sub-frames] as one row of
    samples per column, in trial-major order."""
    return point.reshape(len(point), -1)


def _header(result: SweepResult, *fields: str) -> str:
    return ",".join((*fields, *result.columns))


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
        for name, column in zip(result.columns, _samples(point)):
            entry[f"mean_{name.lower()}"] = float(column.mean())
            entry[f"std_{name.lower()}"] = float(column.std())
        point_stats.append(entry)
    described = {column.name: column.description for column in COLUMNS}
    meta = {
        "axis": result.axis,
        "config": dataclasses.asdict(result.config),
        "averaging": "unweighted mean of per-subframe unserved-user counts "
                     "over trials (fresh user placement each) x subframes "
                     "(fresh fading each) samples",
        "columns": {name: described[name] for name in result.columns},
        "points": point_stats,
    }
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
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InstanceError(
                f"instance file {path} is not valid JSON: {exc}") from exc
    return instance_from_dict(data)
