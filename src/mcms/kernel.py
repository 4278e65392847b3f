"""The Monte Carlo kernel: unserved users of a stream of placements.

`unserved_counts` is the kernel that runs every sample of
`mcms.harness.run_sweep`, and `COLUMNS` the one table of a sweep's
columns.  `_Placement` holds a placement's gain bounds, `_batches` cuts
the stream into batches of sub-frames, and `_draw` draws, thresholds
and packs one sub-frame into a drawing thread's `_DrawBuffers`.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .coverage import integer_count, pack_users
from .scenario import (ChannelParams, Scenario, inverse_mean_snr, mean_snr,
                       shannon_rate_bps)
from .solvers import (exact_search, greedy_batch, primary_words, sc_batch,
                      swap_batch)


# Byte budget, per cell, of the packed coverage words of one batch of
# sub-frames; it bounds the kernel's memory whatever the sub-frame count.
# Per cell because the greedy takes one numpy step per cell over the
# whole batch: one budget for all cells would give 19-cell batches of a
# few sub-frames, each batch paying for 19 steps.
_BATCH_CELL_BYTES = 16 << 10
# Byte budget of the thresholds of the placements one batch opens, at
# least one, counted at 16 B a link: its 8 B gain bound, plus the mean
# SNR of a placement with out-of-range links.  A batch of placements of a
# few sub-frames each would otherwise keep all of theirs alive.
_BATCH_OPEN_BYTES = 1 << 20
# Byte budget of one thread's fading gains (`_DrawBuffers`, `_draw`).
_SLAB_BYTES = 512 << 10
# Half-width, relative to 1 + x, of the band around the SNR threshold x
# inside which a link's rate is computed rather than decided by its gain.
_GUARD = 1e-9


# Threads that draw and threshold sub-frames, the calling thread
# included: one per CPU this process may run on.  numpy's generator
# fills and ufuncs release the interpreter lock, so the draws run in
# parallel.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _batch_subframes(num_prbs: int, num_users: int) -> int:
    """Most sub-frames of a batch under _BATCH_CELL_BYTES, at least one."""
    per_cell = num_prbs * -(-num_users // 64) * 8
    return max(1, _BATCH_CELL_BYTES // max(per_cell, 1))


def _exact_batch(words: np.ndarray, owners: np.ndarray,
                 earlier: dict) -> tuple[np.ndarray, np.ndarray]:
    """The optimum of each row of a batch, from the MC and SC results.

    ``lower <= optimum <= upper``: ``upper`` counts the users some set
    covers, and ``lower`` is MC's union, raised where it falls short of
    ``upper`` by `swap_batch` from MC's allocation, then from SC's.
    Where the two meet the optimum is certified; `exact_search`
    enumerates every other row.  ``earlier`` is left as it is.
    """
    upper = np.bitwise_count(np.bitwise_or.reduce(words, axis=(1, 2))).sum(
        axis=-1, dtype=np.int64)
    chosen, lower = earlier["MC"][0].copy(), earlier["MC"][1].astype(np.int64)
    for start in (earlier["MC"][0], earlier["SC"][0]):
        short = np.flatnonzero(lower < upper)
        found, served = swap_batch(words[short], start[short])
        better = served > lower[short]
        chosen[short[better]] = found[better]
        lower[short[better]] = served[better]
    for row in np.flatnonzero(lower < upper):
        chosen[row], lower[row] = exact_search(words[row])
    return chosen, lower


class Column(NamedTuple):
    """A column of a sweep: its name in every file; its batch solver,
    ``(words, owners, earlier) -> (chosen, served)`` of a batch's packed
    coverage [batch, cells, prbs, words], each row's packed primary users
    [batch, cells, words] and, by name, the results of the columns
    solved before it; and its ``.meta.json`` description."""

    name: str
    solve: Callable[..., tuple[np.ndarray, np.ndarray]]
    description: str


# Every column a sweep can report, in the order of every count array and
# file.  EXACT reads the results of SC and MC, which come before it.
COLUMNS = (
    Column("SC", lambda words, owners, earlier: sc_batch(words, owners),
           "uncoordinated per-cell choice, primary cell only"),
    Column("MC", lambda words, owners, earlier: greedy_batch(words),
           "greedy cross-cell choice, decode from any cell"),
    Column("EXACT", _exact_batch,
           "optimal cross-cell choice: certified where a 1-swap search "
           "serves every coverable user, else enumerated"),
)
# The columns of a sweep that does not ask for the optimum.
BASE_COLUMNS = COLUMNS[:2]


class _Placement:
    """One placement as the kernel sees it: its scenario, each link's
    upper gain bound ``hi`` (8 B a link), one ``ratio`` of the lower
    bound to it, its mean SNRs (8 B a link) only if a link is out of
    range, its sub-frames' fading seeds and unserved counts, one row per
    column.

    A link decodes when ``shannon_rate_bps(snr * gain, B)`` reaches the
    stream rate R: when ``snr * gain`` reaches ``x = expm1(R / B * ln
    2)``, or the gain ``g* = x / snr``.  The rules' rounding differs by
    about (R / B * ln 2 + 4) ulps of ``1 + snr * gain``, 1 / snr from
    `inverse_mean_snr` by 1e-11 at most, so a gain of at least ``hi``
    decodes, one below ``hi * ratio`` does not, and those within _GUARD
    * (1 + x) / snr of g* (relative to 1 + x: at low SNR, 1 + snr * gain
    keeps few bits of snr * gain) get their rate from `mean_snr`, as do
    all gains of links out of range or whose threshold overflows, whose
    ``hi`` is NaN.  ``hi * ratio`` lies within a few ulps of (x - half)
    times `inverse_mean_snr`, far inside the band."""

    def __init__(self, scenario: Scenario, fading_seeds: Sequence,
                 params: ChannelParams, rate_bps: float, num_prbs: int,
                 num_columns: int):
        self.subframes = len(fading_seeds)
        self.seeds = fading_seeds
        # Kept for its mean SNRs, which a draw computes again on the rare
        # guard-band hit (`_draw`) rather than hold 8 B a link here.
        self.scenario = scenario
        inv = inverse_mean_snr(scenario, params)
        num_cells, self.num_users = inv.shape
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.expm1(rate_bps / params.bandwidth_hz * np.log(2.0))
            half = _GUARD * (1.0 + x)
            # In [-1, 1) while x is finite: no lower bound overflows.
            self.ratio = (x - half) / (x + half)
            hi = np.multiply(inv, x + half, out=inv)
        # hi >= 0 or NaN: a bound that is not finite shows in its maximum.
        self.snr = None
        if not np.isfinite(hi.max(initial=0.0)):
            hi[~np.isfinite(hi)] = np.nan
            self.snr = mean_snr(scenario, params)  # for every gain of those
        self.hi = hi[:, None, :]
        self.owners = primary_words(scenario.primary_cell, num_cells)
        self.word_shape = (num_cells, num_prbs, -(-self.num_users // 64))
        self.slab = max(1, min(num_cells, _SLAB_BYTES
                               // max(num_prbs * self.num_users * 8, 1)))
        self.counts = np.empty((num_columns, self.subframes), dtype=np.int64)


def _batches(placements: Iterable[tuple[Scenario, Sequence]], num_prbs: int,
             open_place) -> Iterator[list[tuple[_Placement, int, int]]]:
    """Cut a stream of placements into batches of sub-frames.

    Yields, per batch, its segments ``(place, start, stop)``: sub-frames
    start up to stop of one placement, which ``open_place(scenario,
    seeds)`` builds when its first sub-frame is cut.  A batch holds
    consecutive sub-frames of one shape, the cell and user counts, even
    across placements, at most `_batch_subframes` of them.  It ends
    early only where the shape changes, where the stream ends, or once
    it has opened the placements _BATCH_OPEN_BYTES allows, at least one:
    a run of L sub-frames takes ceil(L / `_batch_subframes`) batches
    unless that cap ends some early.  A placement is read only when the
    batch being cut needs it.
    """
    segments, size, opened = [], 0, 0
    for scenario, seeds in placements:
        if segments and (opened == most or shape != (scenario.num_cells,
                                                     scenario.num_users)):
            yield segments
            segments, size, opened = [], 0, 0
        if len(seeds) < 1:
            raise ValueError("a placement needs at least one sub-frame")
        shape = scenario.num_cells, scenario.num_users
        cap = _batch_subframes(num_prbs, shape[1])
        most = max(1, _BATCH_OPEN_BYTES // max(16 * shape[0] * shape[1], 1))
        place, start = open_place(scenario, seeds), 0
        opened += 1
        while start < place.subframes:
            stop = min(start + cap - size, place.subframes)
            segments.append((place, start, stop))
            size += stop - start
            start = stop
            if size == cap:
                yield segments
                segments, size, opened = [], 0, 0
    if segments:
        yield segments


class _DrawBuffers:
    """One drawing thread's buffers for a whole kernel call: fading gains,
    the below-bound mask, coverage bits padded to whole words and the
    lower gain bounds of a slab's links.

    They are allocated on the thread's first draw, with room for
    _SLAB_BYTES of gains or a placement's one cell if that is larger,
    and grow only when a later placement needs more.  Each slab shape
    takes C-contiguous prefix views of them; when the shape changes the
    padding bits are zeroed, which no draw writes.
    """

    def __init__(self):
        self.flat = (np.empty(0),) * 4
        self.views = self.key = None

    def of(self, place: _Placement):
        """Buffers ``(gains, below, padded, lower)`` of a slab of ``place``."""
        shape = (place.slab, place.word_shape[1], place.num_users)
        if shape != self.key:
            padded = shape[:2] + (place.word_shape[2] * 64,)
            lower = (place.slab, 1, place.num_users)
            sizes = math.prod(shape), math.prod(padded), math.prod(lower)
            held = len(self.flat[0]), len(self.flat[2]), len(self.flat[3])
            if any(size > have for size, have in zip(sizes, held)):
                # One PRB count a call: bounds get room for the gains' links.
                most = _SLAB_BYTES // 8
                room = most, most, most // shape[1]
                links, bits, bounds = map(max, sizes, held, room)
                self.flat = (np.empty(links), np.empty(links, dtype=bool),
                             np.empty(bits, dtype=bool), np.empty(bounds))
            gains, below, bits, bounds = self.flat
            self.views = (gains[:sizes[0]].reshape(shape),
                          below[:sizes[0]].reshape(shape),
                          bits[:sizes[1]].reshape(padded),
                          bounds[:sizes[2]].reshape(lower))
            self.views[2][..., place.num_users:] = False
            self.key = shape
        return self.views


def _draw(place: _Placement, seed, out: np.ndarray, buffers,
          params: ChannelParams, rate_bps: float) -> None:
    """Draw a sub-frame of a placement from its fading seed, threshold its
    gains and pack its coverage into ``out`` [cells, prbs, words]: that
    of `sample_rates` from the same seed followed by `derive_instance`.

    The gains are drawn a slab of whole cells at a time, in cell order,
    so they are those of one ``standard_exponential`` fill of [cells,
    prbs, users]; without fading they are all 1."""
    gains, under, padded, lower = buffers
    rng = np.random.default_rng(seed) if params.fading == "rayleigh" else None
    for first in range(0, len(out), len(gains)):
        slab = gains[:len(out) - first]
        if rng is None:
            slab.fill(1.0)
        else:
            rng.standard_exponential(out=slab)
        cells = slice(first, first + len(slab))
        bits = padded[:len(slab)]
        covers = bits[:, :, :place.num_users]
        below = under[:len(slab)]
        lo = np.multiply(place.hi[cells], place.ratio, out=lower[:len(slab)])
        np.greater_equal(slab, place.hi[cells], out=covers)
        np.less(slab, lo, out=below)
        # Gains in neither set, all those of a NaN bound, are in the band.
        if np.count_nonzero(below) + np.count_nonzero(covers) != slab.size:
            c, j, u = np.nonzero(~(below | covers))
            snr = (place.snr if place.snr is not None
                   else mean_snr(place.scenario, params))[first + c, u]
            covers[c, j, u] = shannon_rate_bps(
                snr * slab[c, j, u], params.bandwidth_hz) >= rate_bps
        out[cells] = pack_users(bits)


def unserved_counts(
    placements: Iterable[tuple[Scenario, Sequence]],
    params: ChannelParams,
    rate_bps: float,
    num_prbs: int,
    columns: Sequence[Column] = BASE_COLUMNS,
) -> Iterator[np.ndarray]:
    """Unserved users of a stream of placements, per sub-frame.

    ``placements`` yields ``(scenario, fading_seeds)`` pairs: one seed
    per sub-frame (`_draw`), anything ``np.random.default_rng`` accepts,
    in a sequence that slices.  Only the calling thread reads it, and
    reads ``fading_seeds[start:stop]`` once per segment of a batch.
    ValueError, on the first ``next``, unless ``num_prbs`` is an integer >= 1.

    Yields, per placement and in order, once its last sub-frame is
    solved, its unserved counts: an int64 array [columns, sub-frames],
    one row per entry of ``columns``, entries of `COLUMNS` solved in
    their order.  A sub-frame's counts depend on its seed alone, not on the
    batch or slab size, the number of threads, which thread draws it or
    the shapes that thread drew before.

    The calling thread cuts the batches (`_batches`) and draws, and so do
    helpers on a thread pool of this call's own, one thread per CPU in
    all, but helpers only draw.  Two batches are open at once: the
    calling thread solves one while the helpers draw the next.  When the
    stream ends, fails or the generator is closed, the queues of both
    open batches are emptied and the pool is shut down: tasks not yet
    started are cancelled, and a running helper stops after its current
    sub-frame.
    """
    import queue  # not at module import: a run that never sweeps skips it

    num_prbs = integer_count(num_prbs, "num_prbs")
    # Thread id -> its _DrawBuffers; fresh buffers per shape page-fault more.
    buffers = {}
    pool = None

    def draw(words, todo, until=lambda: False) -> None:
        # Draws rows of one batch until its queue is empty or until().
        mine = buffers.setdefault(threading.get_ident(), _DrawBuffers())
        while not until():
            try:
                row, place, seed = todo.get_nowait()
            except queue.Empty:
                return
            _draw(place, seed, words[row], mine.of(place), params, rate_bps)

    def open_place(scenario, seeds):
        return _Placement(scenario, seeds, params, rate_bps, num_prbs,
                          len(columns))

    def open_batches():
        nonlocal pool
        for segments in _batches(placements, num_prbs, open_place):
            todo = queue.SimpleQueue()
            rows = ((place, seed) for place, start, stop in segments
                    for seed in place.seeds[start:stop])
            for row, (place, seed) in enumerate(rows):
                todo.put((row, place, seed))
            words = np.empty((row + 1, *segments[0][0].word_shape),
                             dtype=np.uint64)
            helpers = min(_WORKERS - 1, row)
            if helpers and pool is None:
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(max_workers=_WORKERS - 1,
                                          thread_name_prefix="mcms-draw")
            yield segments, words, todo, [pool.submit(draw, words, todo)
                                          for _ in range(helpers)]

    # The batch the calling thread solves and the next one, opened as
    # the calling thread starts on the one before it.
    current = ahead = None
    try:
        for current, ahead in itertools.pairwise(
                itertools.chain(open_batches(), [None])):
            segments, words, todo, futures = current
            draw(words, todo)
            # A helper task still queued would find the queue empty.
            busy = [f for f in futures if not f.cancel()]
            if ahead is not None:
                draw(*ahead[1:3], until=lambda: all(f.done() for f in busy))
            for future in busy:
                future.result()
            owners = np.stack([place.owners for place, start, stop in segments
                               for _ in range(start, stop)])
            earlier = {}
            for column in columns:
                earlier[column.name] = column.solve(words, owners, earlier)
            unserved = segments[0][0].num_users - np.stack(
                [served for _, served in earlier.values()], dtype=np.int64)
            row = 0
            for place, start, stop in segments:
                row, first = row + stop - start, row
                place.counts[:, start:stop] = unserved[:, first:row]
                if stop == place.subframes:
                    # Only its counts outlive its last batch.
                    place.scenario = place.hi = place.snr = None
                    yield place.counts
    finally:
        for _, _, todo, _ in filter(None, (current, ahead)):
            with contextlib.suppress(queue.Empty):
                while True:
                    todo.get_nowait()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
