"""The Monte Carlo kernel: unserved users of a stream of placements.

`unserved_counts` runs every sample of `mcms.harness.run_sweep` and
`mcms.harness.run_subframe`.  It takes the whole sweep as one stream of
placements and yields each placement's unserved counts in order.  The
mean SNR of every link and a per-link fading-gain threshold are
computed once per placement.  Each sub-frame then draws its gains, a
slab of whole cells at a time, and compares them with the threshold,
with no log per link.  Gains within a narrow guard band of the
threshold get their rate computed, so coverage is exactly that of
`sample_rates` followed by `derive_instance`.

Sub-frames go in batches capped by a fixed byte budget, into a small
ring of reused word buffers.  One thread per available CPU, the calling
thread and helpers from a pool, draws and thresholds sub-frames, each
taking the next one left, and packs each one's coverage into uint64
words (numpy's generator fills and comparisons release the interpreter
lock).  While the calling thread solves a finished batch with
`greedy_batch` and `sc_batch`, the helpers go on drawing the next
batches, of this placement and of the next ones.  With the EXACT
column, each sub-frame's optimum lies between a lower bound, a 1-swap
local search (`swap_batch`) from the greedy's or the SC allocation, and
an upper bound, the users some set covers.  Where the two meet, that is
the optimum; `exact_search` enumerates only the other sub-frames.
Either way EXACT is the optimum.  Results depend on neither the batch
size, the slab size nor the number of threads.
"""

from __future__ import annotations

import collections
import math
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
# Batches whose words the kernel holds at once: the one the calling
# thread solves and the ones drawn ahead of it.
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
    fading seeds of its sub-frames and their unserved counts."""

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
        self.opened = 0  # sub-frames already put in a batch
        self.mc = np.empty(self.subframes, dtype=np.int64)
        self.sc = np.empty_like(self.mc)
        self.exact = np.empty_like(self.mc) if with_exact else None


class _DrawBuffers:
    """One drawing thread's buffers for a slab of cells: fading gains,
    the band mask, and coverage bits padded to whole words with zeros.
    The calling thread allocates them once per kernel call, for
    _SLAB_BYTES of gains; a placement whose slab needs more (one cell
    above the budget) grows them."""

    def __init__(self, fading: str):
        self.fading = fading
        self.place = None
        self.flat = [np.empty(0), np.empty(0, dtype=bool),
                     np.empty(0, dtype=bool)]
        links = _SLAB_BYTES // 8
        self._reserve(links, links, 2 * links)  # padding adds < 64 per row

    def _reserve(self, *sizes: int) -> None:
        for i, size in enumerate(sizes):
            if self.flat[i].size < size:
                self.flat[i] = np.empty(size, dtype=self.flat[i].dtype)

    def views(self, place: _Placement):
        """The buffers shaped for one slab of ``place``."""
        if place is not self.place:
            shape = (place.slab, place.word_shape[1], place.num_users)
            padded = shape[:2] + (place.word_shape[2] * 64,)
            sizes = (math.prod(shape), math.prod(shape), math.prod(padded))
            self._reserve(*sizes)
            gains, band, bits = (
                flat[:size].reshape(s)
                for flat, size, s in zip(self.flat, sizes,
                                         (shape, shape, padded)))
            bits[:, :, place.num_users:] = False
            if self.fading != "rayleigh":
                gains.fill(1.0)
            self.place, self.shaped = place, (gains, band, bits)
        return self.shaped


class _Batch:
    """Sub-frames [start, stop) of a placement and their packed words
    [stop - start, cells, prbs, words], a slice of ring slot ``slot``."""

    __slots__ = ("place", "start", "stop", "words", "slot", "next", "undrawn")

    def __init__(self, place: _Placement, start: int, stop: int,
                 words: np.ndarray, slot: int):
        self.place, self.start, self.stop = place, start, stop
        self.words, self.slot = words, slot
        self.next = start  # the next sub-frame to hand out
        self.undrawn = stop - start  # sub-frames not yet drawn


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
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
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

    Sub-frames go in batches of `_batch_subframes`, each in a slot of a
    ring of _RING word buffers reused for the whole call.  The calling
    thread and up to _WORKERS - 1 helper threads of a shared pool draw
    the sub-frames of every open batch in order, each taking the next
    one not yet taken, and pack each one's coverage straight into its
    batch's uint64 words.  The calling thread draws while the batch it
    waits for is not complete, then solves it alone with `greedy_batch`
    (MC) and `sc_batch` (SC).  With ``with_exact`` it also bounds each
    sub-frame's optimum: ``upper``, the popcount of the OR of all its
    words, and ``lower``, `swap_batch` from the greedy's allocation and,
    where that is below ``upper``, from the SC allocation.  Since
    ``lower <= optimum <= upper``, a sub-frame with ``lower == upper``
    has the optimum ``upper``; every other one is unpacked and solved by
    `exact_search` (the caller checks that ``num_prbs ** cells`` is
    within its enumeration budget).  Meanwhile the helpers draw the next
    batches, of this placement and the next.
    A helper's error is raised here.  Each sub-frame's result depends on
    its seed alone, so the counts do not depend on the batch size, the
    number of threads or which thread draws which sub-frame.  A stream
    of one sub-frame, as in `run_subframe`, never starts the pool.
    Helpers stop when the stream ends, on an error, or when the
    generator is closed.

    Yields, per placement, the unserved counts ``(mc, sc, exact)``:
    arrays of one entry per sub-frame; ``exact`` is None without
    ``with_exact``.
    """
    if num_prbs < 1:
        raise ValueError("num_prbs must be >= 1")
    placements = iter(placements)
    ring = [np.empty(0, dtype=np.uint64) for _ in range(_RING)]
    free = list(range(_RING))
    batches: collections.deque[_Batch] = collections.deque()  # not solved
    pending: collections.deque[_Batch] = collections.deque()  # not handed out
    place = None  # the placement batches are opened from
    exhausted = False
    cond = threading.Condition(threading.Lock())
    errors: list[BaseException] = []
    stopping = False
    helpers = []

    def open_batches() -> None:
        # Opens batches, and placements, while a ring slot is free.
        nonlocal place, exhausted
        while free and not exhausted:
            if place is None or place.opened == place.subframes:
                nxt = next(placements, None)
                if nxt is None:
                    exhausted = True
                    return
                place = _Placement(*nxt, params, stream, num_prbs,
                                   with_exact)
            start = place.opened
            place.opened = stop = min(start + place.batch, place.subframes)
            slot = free.pop()
            per_subframe = math.prod(place.word_shape)
            size = (stop - start) * per_subframe
            if ring[slot].size < size:  # a full batch of this placement
                ring[slot] = np.empty(place.batch * per_subframe,
                                      dtype=np.uint64)
            words = ring[slot][:size].reshape(stop - start, *place.word_shape)
            batch = _Batch(place, start, stop, words, slot)
            batches.append(batch)
            with cond:
                pending.append(batch)
                cond.notify_all()

    def take(waiting: _Batch | None, drawn: _Batch | None):
        # Counts the sub-frame just drawn of ``drawn``, then hands out the
        # next (batch, sub-frame) to draw.  The calling thread, which
        # waits for ``waiting``, gets None once that batch is drawn and
        # raises a helper's error; a helper gets None when told to stop.
        with cond:
            if drawn is not None:
                drawn.undrawn -= 1
                if not drawn.undrawn:
                    cond.notify_all()
            while True:
                if waiting is None:
                    if stopping or errors:
                        return None
                elif errors:
                    raise errors[0]
                elif not waiting.undrawn:
                    return None
                if pending:
                    batch = pending[0]
                    t = batch.next
                    batch.next += 1
                    if batch.next == batch.stop:
                        pending.popleft()
                    return batch, t
                cond.wait()

    def work(waiting: _Batch | None, buffers: _DrawBuffers) -> None:
        # Draws sub-frames until take() says stop.
        batch = None
        while (task := take(waiting, batch)) is not None:
            batch, t = task
            _draw(batch.place, t, batch.words[t - batch.start],
                  buffers.views(batch.place), params, stream)

    def helper(buffers: _DrawBuffers) -> None:
        try:
            work(None, buffers)
        except BaseException as exc:
            with cond:
                errors.append(exc)
                cond.notify_all()

    def stop_helpers() -> None:
        nonlocal stopping
        with cond:
            stopping = True
            cond.notify_all()
        for future in helpers:
            # A helper still queued behind another kernel's never starts.
            if not future.cancel():
                future.result()
        helpers.clear()

    try:
        open_batches()
        mine = _DrawBuffers(params.fading)
        if _WORKERS > 1 and sum(b.stop - b.start for b in batches) > 1:
            pool = _thread_pool()
            helpers.extend(pool.submit(helper, _DrawBuffers(params.fading))
                           for _ in range(_WORKERS - 1))
        while batches:
            batch = batches.popleft()
            work(batch, mine)
            done = batch.place
            if batch.stop == done.subframes:
                # Every sub-frame of the placement is drawn: drop the
                # thresholds while the next placement's are alive.
                done.snr = done.lo = done.hi = None
            words, num_users = batch.words, done.num_users
            counts = slice(batch.start, batch.stop)
            mc_chosen, served, _ = greedy_batch(words)
            done.mc[counts] = num_users - served
            sc_chosen, served = sc_batch(words, done.owners)
            done.sc[counts] = num_users - served
            if done.exact is not None:
                # lower <= optimum <= upper: the users some set covers,
                # and 1-swaps from the greedy's allocation and, where
                # that falls short of upper, from the SC allocation.
                upper = np.bitwise_count(np.bitwise_or.reduce(
                    words, axis=(1, 2))).sum(axis=-1, dtype=np.int64)
                lower = swap_batch(words, mc_chosen)[1]
                short = np.flatnonzero(lower < upper)
                lower[short] = np.maximum(lower[short], swap_batch(
                    words[short], sc_chosen[short])[1])
                done.exact[counts] = num_users - upper
                for t in np.flatnonzero(lower < upper):
                    member = np.unpackbits(
                        words[t].view(np.uint8), axis=-1, count=num_users,
                        bitorder="little").view(bool)
                    done.exact[batch.start + t] = (
                        num_users - exact_search(member)[1])
            free.append(batch.slot)
            open_batches()
            if batch.stop == done.subframes:
                if not batches:
                    stop_helpers()
                yield done.mc, done.sc, done.exact
    finally:
        stop_helpers()
