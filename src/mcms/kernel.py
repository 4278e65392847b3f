"""The Monte Carlo kernel: unserved users of a stream of placements.

`unserved_counts` runs every sample of `mcms.harness.run_sweep`.  It
takes the whole sweep as one stream of placements and yields each
placement's unserved counts in order.  The mean SNR of every link and a
per-link fading-gain threshold are computed once per placement.  Each
sub-frame then draws its gains, a slab of whole cells at a time, and
compares them with the threshold, with no log per link.  Gains within a
narrow guard band of the threshold get their rate computed, so coverage
is exactly that of `sample_rates` followed by `derive_instance`.

Sub-frames go in batches capped by a fixed byte budget, each with its
own packed uint64 words and a queue of its sub-frame indices.  The
calling thread and helper tasks on a shared pool, one thread per
available CPU, take indices from the queue and draw, threshold and pack
those sub-frames (numpy's generator fills and comparisons release the
interpreter lock); the calling thread draws ahead from the next batch
while the helpers finish.  It then solves the batch with `greedy_batch`
and `sc_batch` while the helpers draw the next batches, of this
placement and of the next ones.  With the EXACT column, each
sub-frame's optimum lies between a lower bound, a 1-swap local search
(`swap_batch`) from the greedy's or the SC allocation, and an upper
bound, the users some set covers.  Where the two meet, that is the
optimum; `exact_search` enumerates only the other sub-frames.  Either
way EXACT is the optimum.  Results depend on neither the batch size,
the slab size nor the number of threads.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import threading
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .scenario import (
    ChannelParams,
    Scenario,
    StreamSpec,
    mean_snr,
    shannon_rate_bps,
)
from .solvers import (exact_search, greedy_batch, primary_words, sc_batch,
                      swap_batch)


# Byte budget, per cell, of the packed coverage words of one batch of
# sub-frames; it bounds the kernel's memory whatever the sub-frame count.
# Per cell because the greedy takes one numpy step per cell over the
# whole batch: one budget for all cells would give 19-cell batches of a
# few sub-frames, each batch paying for 19 steps.
_BATCH_CELL_BYTES = 16 << 10
# Batches open at once: the one the calling thread solves and the ones
# drawn ahead of it.
_RING = 2
# Byte budget of one thread's fading gains: a sub-frame is drawn a slab
# of whole cells at a time, at least one cell.
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


def _batch_subframes(subframes: int, num_prbs: int, num_users: int) -> int:
    """Sub-frames per batch under _BATCH_CELL_BYTES, at least one."""
    per_cell = num_prbs * -(-num_users // 64) * 8
    return max(1, min(subframes, _BATCH_CELL_BYTES // max(per_cell, 1)))


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


class _Placement:
    """One placement as the kernel sees it: the per-link thresholds, the
    fading seeds of its sub-frames and their unserved counts, one row per
    column (SC, MC and, with the EXACT column, the optimum)."""

    def __init__(self, scenario: Scenario, fading_seeds: Sequence,
                 params: ChannelParams, stream: StreamSpec, num_prbs: int,
                 with_exact: bool):
        self.subframes = len(fading_seeds)
        if self.subframes < 1:
            raise ValueError("a placement needs at least one sub-frame")
        self.seeds = fading_seeds
        self.snr = mean_snr(scenario, params)
        num_cells, self.num_users = self.snr.shape
        self.lo, self.hi = _gain_bounds(self.snr, params, stream)
        self.owners = primary_words(scenario.primary_cell, num_cells)
        self.batch = _batch_subframes(self.subframes, num_prbs,
                                      self.num_users)
        self.word_shape = (num_cells, num_prbs, -(-self.num_users // 64))
        self.slab = max(1, min(num_cells, _SLAB_BYTES
                               // max(num_prbs * self.num_users * 8, 1)))
        self.counts = np.empty((3 if with_exact else 2, self.subframes),
                               dtype=np.int64)


def _buffers(place: _Placement, fading: str):
    """One drawing thread's buffers for a slab of ``place``: fading gains
    (all 1 without fading), the band mask, and coverage bits padded to
    whole words with zeros."""
    shape = (place.slab, place.word_shape[1], place.num_users)
    gains = np.empty(shape) if fading == "rayleigh" else np.ones(shape)
    padded = shape[:2] + (place.word_shape[2] * 64,)
    return gains, np.empty(shape, dtype=bool), np.zeros(padded, dtype=bool)


def _gain_slabs(rng, gains: np.ndarray, num_cells: int):
    """Fill ``gains`` from ``rng`` a slab of whole cells at a time, in
    cell order, yielding ``(first cell, slab)``; the values are those of
    one ``standard_exponential`` fill of [cells, prbs, users].  With
    ``rng`` None the gains keep their values."""
    for first in range(0, num_cells, len(gains)):
        slab = gains[:num_cells - first]
        if rng is not None:
            rng.standard_exponential(out=slab)
        yield first, slab


def _draw(place: _Placement, t: int, out: np.ndarray, buffers,
          params: ChannelParams, stream: StreamSpec) -> None:
    """Draw sub-frame ``t`` of a placement, threshold its gains and pack
    its coverage into ``out`` [cells, prbs, words]."""
    gains, maybe, padded = buffers
    num_users = place.num_users
    rng = (np.random.default_rng(place.seeds[t])
           if params.fading == "rayleigh" else None)
    for first, slab in _gain_slabs(rng, gains, len(out)):
        cells = slice(first, first + len(slab))
        bits = padded[:len(slab)]
        covers = bits[:, :, :num_users]
        band = maybe[:len(slab)]
        np.greater_equal(slab, place.hi[cells], out=covers)
        np.greater_equal(slab, place.lo[cells], out=band)
        if np.count_nonzero(band) != np.count_nonzero(covers):
            c, j, u = np.nonzero(band & ~covers)
            covers[c, j, u] = shannon_rate_bps(
                place.snr[first + c, u] * slab[c, j, u], params.bandwidth_hz
            ) >= stream.rate_bps
        out[cells] = np.packbits(bits, axis=-1,
                                 bitorder="little").view(np.uint64)


def unserved_counts(
    placements: Iterable[tuple[Scenario, Sequence]],
    params: ChannelParams,
    stream: StreamSpec,
    num_prbs: int,
    with_exact: bool = False,
) -> Iterator[np.ndarray]:
    """The Monte Carlo kernel: unserved users of a stream of placements,
    per sub-frame.

    ``placements`` yields ``(scenario, fading_seeds)`` pairs, with one
    seed per sub-frame, anything ``np.random.default_rng`` accepts; it
    is read on the calling thread, a few batches ahead of the results,
    and each seed is read by the thread that draws its sub-frame.  Each
    sub-frame draws its Rayleigh gains from its seed as `sample_rates`
    does, a slab of whole cells at a time (`_gain_slabs`), and a link
    covers its user when the gain clears the threshold of `_gain_bounds`
    (the same rule as `derive_instance`, with no log per link).

    Sub-frames go in batches of `_batch_subframes`, _RING of them open
    at once, each with its own uint64 words and a queue of its sub-frame
    indices.  A batch of n sub-frames gets min(_WORKERS - 1, n - 1)
    helper tasks on a shared thread pool, so a stream of one sub-frame
    never starts the pool.  Helpers and the calling thread take indices
    until the queue is empty and pack each sub-frame's coverage into the
    batch's words.  The calling thread drains the oldest batch's queue,
    draws from the later batches until that batch's helpers are done,
    raises a helper's error, and solves the batch alone with
    `greedy_batch` (MC) and `sc_batch` (SC) while the helpers draw the
    later batches.  With ``with_exact`` it also bounds each sub-frame's
    optimum: ``upper``, the popcount of the OR of all its words, and
    ``lower``, `swap_batch` from the greedy's allocation and, where that
    is below ``upper``, from the SC allocation.  Since ``lower <=
    optimum <= upper``, a sub-frame with ``lower == upper`` has the
    optimum ``upper``; every other one is unpacked and solved by
    `exact_search` (the caller checks that ``num_prbs ** cells`` is
    within its enumeration budget).  Each sub-frame's result depends on
    its seed alone, so the counts do not depend on the batch size, the
    number of threads or which thread draws which sub-frame.  When the
    stream ends, fails or the generator is closed, helper tasks not yet
    started are cancelled and the open queues emptied: a running helper
    stops after its current sub-frame.

    Yields, per placement, its unserved counts: an int64 array
    [columns, sub-frames] whose rows are SC, MC and, with
    ``with_exact``, the optimum.
    """
    import queue  # not at module import: a run that never sweeps skips it

    if num_prbs < 1:
        raise ValueError("num_prbs must be >= 1")
    # Unsolved batches: (placement, start, words, index queue, futures).
    opened: collections.deque[tuple] = collections.deque()
    # Thread id -> its _buffers, kept while placements of one shape
    # follow: fresh ones for each placement page-fault more.
    buffers = {}

    def draw(place, start, words, todo, until=lambda: False) -> None:
        # Draws sub-frames of one batch until its queue is empty or until().
        key = threading.get_ident()
        while not until():
            try:
                t = todo.get_nowait()
            except queue.Empty:
                return
            mine = buffers.get(key)
            if mine is None or mine[0].shape != (place.slab, num_prbs,
                                                 place.num_users):
                mine = buffers[key] = _buffers(place, params.fading)
            _draw(place, t, words[t - start], mine, params, stream)

    def open_batches():
        for pair in placements:
            place = _Placement(*pair, params, stream, num_prbs, with_exact)
            for start in range(0, place.subframes, place.batch):
                stop = min(start + place.batch, place.subframes)
                todo = queue.SimpleQueue()
                for t in range(start, stop):
                    todo.put(t)
                batch = (place, start, np.empty(
                    (stop - start, *place.word_shape), dtype=np.uint64), todo)
                helpers = range(min(_WORKERS - 1, stop - start - 1))
                yield *batch, [_thread_pool().submit(draw, *batch)
                               for _ in helpers]

    upcoming = open_batches()
    try:
        opened.extend(itertools.islice(upcoming, _RING))
        while opened:
            done, start, words, todo, futures = opened[0]
            draw(done, start, words, todo)
            # A helper task still queued would find the queue empty.
            busy = [f for f in futures if not f.cancel()]
            for later in itertools.islice(opened, 1, None):
                draw(*later[:4], until=lambda: all(f.done() for f in busy))
            for future in busy:
                future.result()
            opened.popleft()
            stop = start + len(words)
            if stop == done.subframes:
                # Every sub-frame of the placement is drawn: drop the
                # thresholds while the next placement's are alive.
                done.snr = done.lo = done.hi = None
            num_users = done.num_users
            unserved = done.counts[:, start:stop]
            mc_chosen, served, _ = greedy_batch(words)
            unserved[1] = num_users - served
            sc_chosen, served = sc_batch(words, done.owners)
            unserved[0] = num_users - served
            if len(unserved) == 3:
                # lower <= optimum <= upper: the users some set covers,
                # and 1-swaps from the greedy's allocation and, where
                # that falls short of upper, from the SC allocation.
                upper = np.bitwise_count(np.bitwise_or.reduce(
                    words, axis=(1, 2))).sum(axis=-1, dtype=np.int64)
                lower = swap_batch(words, mc_chosen)[1]
                short = np.flatnonzero(lower < upper)
                lower[short] = np.maximum(lower[short], swap_batch(
                    words[short], sc_chosen[short])[1])
                unserved[2] = num_users - upper
                for t in np.flatnonzero(lower < upper):
                    member = np.unpackbits(
                        words[t].view(np.uint8), axis=-1, count=num_users,
                        bitorder="little").view(bool)
                    unserved[2, t] = num_users - exact_search(member)[1]
            opened.extend(itertools.islice(upcoming, 1))
            if stop == done.subframes:
                yield done.counts
    finally:
        for _, _, _, todo, futures in opened:
            for future in futures:
                future.cancel()
            with contextlib.suppress(queue.Empty):
                while True:
                    todo.get_nowait()
