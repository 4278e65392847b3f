"""The batched Monte Carlo kernel against the one-instance pipeline.

The kernel decides coverage by comparing fading gains with a per-link
threshold and solves sub-frames in packed batches.  These tests hold it
to `sample_rates -> derive_instance -> solve_greedy/solve_sc_baseline`
where the two rules are hardest to keep apart (stream rates equal to
realized link rates), for every batch size, slab size and number of
drawing threads, check that the thread pool survives a fork, that a
helper's error (also one drawing ahead) reaches the caller and leaves
the next sweep unharmed, that closing the kernel stops its helpers
after their current sub-frame, and that fading seeds are built as they
are drawn, and hold the packed solvers to the boolean-tensor and big-int
solvers they replaced, the 1-swap local search to its local optimum,
and the EXACT column, certified by its bounds or enumerated, to the
optimum.
"""

import contextlib
import dataclasses
import itertools
import math
import multiprocessing
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcms.kernel as kernel
import mcms.solvers as solvers
from mcms import (
    ChannelParams,
    CoverageInstance,
    ExperimentConfig,
    Scenario,
    StreamSpec,
    derive_instance,
    generate_scenario,
    run_sweep,
    sample_rates,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)
from mcms.coverage import pack_users
from mcms.scenario import mean_snr
from mcms.solvers import (exact_search, greedy_batch, primary_words,
                          sc_batch, swap_batch)

from conftest import assert_same_sweep, run_subframe

# With one cell and one PRB every link decides whether its user is
# served, so a single misjudged link changes the unserved counts.
BOUNDARY_CONFIGS = (
    ExperimentConfig(num_cells=1, users_per_cell=60, num_prbs=1,
                     trials=2, subframes=3, seed=21),
    ExperimentConfig(num_cells=7, users_per_cell=12, num_prbs=4,
                     trials=2, subframes=3, seed=21),
    # Mean SNRs of 1e-15 to 1e-12: 1 + snr * gain keeps only a few
    # significant bits of snr * gain, so the rate rule's own rounding is
    # coarse, far beyond a band relative to the gain threshold alone.
    ExperimentConfig(num_cells=1, users_per_cell=60, num_prbs=1,
                     trials=2, subframes=3, seed=22,
                     channel=ChannelParams(tx_power_dbm=-150.0)),
)


def pipeline_counts(scenario, params, stream, rng, num_prbs):
    """Unserved (MC, SC) of one sub-frame through the public pipeline."""
    rates = sample_rates(scenario, params, rng, num_prbs)
    instance = derive_instance(scenario, rates, stream)
    m = instance.num_users
    return (m - solve_greedy(instance).objective,
            m - solve_sc_baseline(instance).objective)


def sweep_sample(config, trial, t):
    """Scenario and fading seed of sample (point 0, trial, t) of a sweep."""
    scenario = generate_scenario(
        config.num_cells, config.radius_m, config.users_per_cell,
        np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(0, trial, 0))),
    )
    fading = np.random.SeedSequence(config.seed, spawn_key=(0, trial, 1, t))
    return scenario, fading


def boundary_rates(config):
    """Stream rates equal to realized link rates of the sweep's first
    sample: each puts one link exactly on the decode threshold."""
    scenario, fading = sweep_sample(config, 0, 0)
    rates = sample_rates(scenario, config.channel,
                         np.random.default_rng(fading),
                         config.num_prbs).ravel()
    rates = np.sort(rates[rates > 0])
    return [float(r) for r in rates[:: max(1, len(rates) // 60)]]


def test_boundary_family_defeats_a_plain_gain_threshold():
    # The family must be adversarial: comparing gains with
    # expm1(R / B ln 2) / snr, with no guard band, flips some links.
    config = BOUNDARY_CONFIGS[0]
    scenario, fading = sweep_sample(config, 0, 0)
    params = config.channel
    snr = mean_snr(scenario, params)[:, None, :]
    gains = np.random.default_rng(fading).exponential(
        1.0, size=(scenario.num_cells, config.num_prbs, scenario.num_users))
    rates = sample_rates(scenario, params, np.random.default_rng(fading),
                         config.num_prbs)
    flips = 0
    for rate in boundary_rates(config):
        naive = gains >= np.expm1(rate / params.bandwidth_hz * math.log(2)) / snr
        flips += int(np.count_nonzero(naive != (rates >= rate)))
    assert flips > 0


@contextlib.contextmanager
def worker_threads(count):
    """Run the kernel with ``count`` drawing threads, the calling thread
    and helpers from a pool of its own."""
    with mock.patch.object(kernel, "_WORKERS", count), \
            mock.patch.object(kernel, "_pool", None):
        try:
            yield
        finally:
            if kernel._pool is not None:
                kernel._pool.shutdown(wait=False)


def in_helper():
    """Whether this is one of the kernel's helper threads."""
    return threading.current_thread().name.startswith("mcms-draw")


def check_sweep_at_realized_rates(boundary, with_subframe=True):
    params = boundary.channel
    for rate in boundary_rates(boundary):
        stream = StreamSpec(rate_bps=rate)
        config = dataclasses.replace(boundary, stream_rate_bps=rate)
        result = run_sweep(config, "users", values=(boundary.users_per_cell,))
        for trial, t in np.ndindex(config.trials, config.subframes):
            scenario, fading = sweep_sample(config, trial, t)
            want = pipeline_counts(scenario, params, stream,
                                   np.random.default_rng(fading),
                                   config.num_prbs)
            sc, mc = result.counts[0, :, trial, t]
            assert (mc, sc) == want, rate
            if with_subframe:
                got = run_subframe(scenario, params, stream,
                                   np.random.default_rng(fading),
                                   config.num_prbs)
                assert got == want, rate


@pytest.mark.parametrize("boundary", BOUNDARY_CONFIGS,
                         ids=["1cell_1prb", "7cells_4prbs", "low_snr"])
def test_kernel_matches_pipeline_at_realized_rates(boundary):
    check_sweep_at_realized_rates(boundary)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("boundary", BOUNDARY_CONFIGS,
                         ids=["1cell_1prb", "7cells_4prbs", "low_snr"])
def test_kernel_matches_pipeline_in_worker_threads(boundary, workers):
    with worker_threads(workers):
        check_sweep_at_realized_rates(boundary, with_subframe=False)
    # Every sub-frame below repeats one with links on the threshold.  The
    # calling thread holds its first guard-band fix-up until a helper
    # thread has made one, so helpers must compute some of the rates.
    scenario, fading = sweep_sample(boundary, 0, 0)
    params = boundary.channel
    helper_fixed = threading.Event()
    real_rate = kernel.shannon_rate_bps

    def spy(*args):
        if in_helper():
            helper_fixed.set()
        else:
            assert helper_fixed.wait(timeout=10), "no helper took a sub-frame"
        return real_rate(*args)

    for rate in boundary_rates(boundary):
        stream = StreamSpec(rate_bps=rate)
        want = pipeline_counts(scenario, params, stream,
                               np.random.default_rng(fading),
                               boundary.num_prbs)
        with worker_threads(workers), \
                mock.patch.object(kernel, "shannon_rate_bps", spy):
            sc, mc = next(kernel.unserved_counts(
                [(scenario, [fading] * 16)], params, stream,
                boundary.num_prbs))
        assert set(zip(mc.tolist(), sc.tolist())) == {want}, rate
    assert helper_fixed.is_set()


def test_kernel_matches_pipeline_without_fading():
    params = ChannelParams(fading="none")
    scenario = generate_scenario(7, 500.0, 15, 4)
    snr = mean_snr(scenario, params)
    # Rates at which some mean-SNR links sit exactly on the threshold.
    for snr_value in np.quantile(snr, [0.2, 0.5, 0.8]):
        rate = float(params.bandwidth_hz * np.log2(1.0 + snr_value))
        stream = StreamSpec(rate_bps=rate)
        assert (run_subframe(scenario, params, stream, 0)
                == pipeline_counts(scenario, params, stream, 0, 4))


def forced_batches(config, users):
    """Per-cell byte budgets that make the kernel batch 1, 3 and all
    sub-frames."""
    n, t = config.num_prbs, config.subframes
    m = config.num_cells * users
    per_cell = n * -(-m // 64) * 8
    budgets = [(1, per_cell), (min(3, t), 3 * per_cell), (t, 1 << 62)]
    for want, budget in budgets:
        with mock.patch.object(kernel, "_BATCH_CELL_BYTES", budget):
            assert kernel._batch_subframes(t, n, m) == want
    return [budget for _, budget in budgets]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 7]),
    prbs=st.integers(1, 4),
    users=st.integers(1, 12),
    subframes=st.integers(1, 9),
    rate=st.floats(2e5, 4e6),
    fading=st.sampled_from(["rayleigh", "none"]),
)
def test_results_do_not_depend_on_batch_size(seed, cells, prbs, users,
                                             subframes, rate, fading):
    config = ExperimentConfig(num_cells=cells, num_prbs=prbs, trials=2,
                              subframes=subframes, users_per_cell=users,
                              stream_rate_bps=rate, seed=seed,
                              channel=ChannelParams(fading=fading))
    with_exact = prbs ** cells <= 256
    results = []
    for budget in forced_batches(config, users):
        with mock.patch.object(kernel, "_BATCH_CELL_BYTES", budget):
            results.append(run_sweep(config, "users", values=(users,),
                                     with_exact=with_exact))
    for result in results[1:]:
        assert_same_sweep(result, results[0])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 7]),
    prbs=st.integers(1, 4),
    users=st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
    trials=st.integers(1, 3),
    subframes=st.integers(1, 9),
    rate=st.floats(2e5, 4e6),
    fading=st.sampled_from(["rayleigh", "none"]),
)
def test_results_do_not_depend_on_worker_count(seed, cells, prbs, users,
                                               trials, subframes, rate,
                                               fading):
    # Several points of several placements each: the arrays change shape
    # between placements, and helpers draw ahead across them.  Per-cell
    # budgets of 1 byte, of three sub-frames at the largest point and of
    # no limit batch 1, at least 3 and all sub-frames of each placement.
    users = sorted(users)
    config = ExperimentConfig(num_cells=cells, num_prbs=prbs, trials=trials,
                              subframes=subframes, users_per_cell=users[-1],
                              stream_rate_bps=rate, seed=seed,
                              channel=ChannelParams(fading=fading))
    with_exact = prbs ** cells <= 256
    budgets = [1, *forced_batches(config, users[-1])[1:]]
    results = []
    for workers in (1, 2, 3):
        for budget in budgets:
            with worker_threads(workers), \
                    mock.patch.object(kernel, "_BATCH_CELL_BYTES", budget):
                results.append(run_sweep(config, "users", values=users,
                                         with_exact=with_exact))
    assert results[0].counts.shape == (len(users), 2 + with_exact, trials,
                                       subframes)
    for result in results[1:]:
        assert_same_sweep(result, results[0])


def sweep_in_child(config, want):
    assert_same_sweep(run_sweep(config, "users", values=(20,)), want)


def test_sweep_runs_in_a_child_forked_after_a_sweep():
    # The child inherits the pool object but none of its threads; without
    # the fork hook its first batch waits forever.
    config = ExperimentConfig(trials=1, subframes=6, users_per_cell=20,
                              seed=4)
    with worker_threads(2):
        want = run_sweep(config, "users", values=(20,))
        assert kernel._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=sweep_in_child, args=(config, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the sweep in the forked child hung")
    assert child.exitcode == 0


class HelperGetsBadSeed(list):
    """Fading seeds whose sub-frames drawn by a helper thread have an
    invalid seed; the calling thread waits until a helper has taken one,
    then gets valid seeds."""

    def __init__(self, length):
        super().__init__(range(length))
        self.helper_took = threading.Event()

    def __getitem__(self, t):
        if in_helper():
            self.helper_took.set()
            return -1  # SeedSequence rejects negative entropy
        self.helper_took.wait(timeout=10)
        return t


class WaitsForHelperSeed(list):
    """Fading seeds whose reads on the calling thread wait until
    ``event`` is set."""

    def __init__(self, length, event):
        super().__init__(range(length))
        self.event = event

    def __getitem__(self, t):
        if not in_helper():
            self.event.wait(timeout=10)
        return t


def run_in_thread(fn):
    """Run ``fn`` in a thread of the test's own, so that a hang fails the
    test instead of blocking it; returns what it raised, or None."""
    raised = []

    def call():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the kernel hung"
    return raised[0] if raised else None


@pytest.mark.parametrize("workers", [2, 3])
def test_helper_error_reaches_the_caller(workers):
    scenario = generate_scenario(7, 300.0, 20, 5)
    seeds = HelperGetsBadSeed(8)
    with worker_threads(workers):
        error = run_in_thread(lambda: list(kernel.unserved_counts(
            [(scenario, seeds)], ChannelParams(), StreamSpec(), 4)))
    assert seeds.helper_took.is_set()
    assert isinstance(error, ValueError)


@pytest.mark.parametrize("workers", [2, 3])
def test_helper_error_in_look_ahead_placement_reaches_the_caller(workers):
    # The calling thread holds the one sub-frame of the first placement
    # until a helper has read a seed of the second placement, and that
    # seed is invalid: the error comes from a helper drawing ahead.
    first = generate_scenario(7, 300.0, 20, 5)
    second = generate_scenario(7, 300.0, 30, 6)
    bad = HelperGetsBadSeed(6)
    placements = [(first, WaitsForHelperSeed(1, bad.helper_took)),
                  (second, bad)]
    with worker_threads(workers):
        error = run_in_thread(lambda: list(kernel.unserved_counts(
            placements, ChannelParams(), StreamSpec(), 4)))
    assert bad.helper_took.is_set()
    assert isinstance(error, ValueError)


def test_sweep_after_an_error_or_an_early_stop_gives_the_same_result():
    config = ExperimentConfig(trials=3, subframes=7, users_per_cell=20,
                              seed=13)
    scenario = generate_scenario(7, 300.0, 20, 5)
    with worker_threads(2):
        want = run_sweep(config, "users", values=(20, 25))
        # A helper's error, then a kernel closed after its first placement
        # while helpers draw the second; each time, the pool's one helper
        # thread must be free again.
        bad = HelperGetsBadSeed(8)
        assert isinstance(run_in_thread(lambda: list(kernel.unserved_counts(
            [(scenario, bad)], ChannelParams(), StreamSpec(), 4))),
            ValueError)
        kernel._pool.submit(int).result(timeout=10)
        counts = kernel.unserved_counts([(scenario, range(9))] * 3,
                                        ChannelParams(), StreamSpec(), 4)
        next(counts)
        counts.close()
        kernel._pool.submit(int).result(timeout=10)
        got = []
        assert run_in_thread(lambda: got.append(run_sweep(
            config, "users", values=(20, 25)))) is None
    assert len(got) == 1
    assert_same_sweep(got[0], want)


class BlocksFirstHelperRead(list):
    """Fading seeds that record every read by a helper thread in
    ``reads``.  The first such read sets ``blocked`` and waits until
    ``release`` is set; reads on the calling thread wait for ``blocked``."""

    def __init__(self, length, reads, blocked, release):
        super().__init__(range(length))
        self.reads, self.blocked, self.release = reads, blocked, release

    def __getitem__(self, t):
        if not in_helper():
            self.blocked.wait(timeout=10)
            return t
        self.reads.append(t)
        if len(self.reads) == 1:
            self.blocked.set()
            self.release.wait(timeout=10)
        return t


def test_closing_the_kernel_stops_helpers_after_their_current_subframe():
    # The first placement has one sub-frame; the helper blocks in its
    # first seed read of a later placement while more batches are queued.
    # Once the kernel is closed, the helper finishes that sub-frame and
    # reads no other seed.
    scenario = generate_scenario(7, 300.0, 20, 5)
    reads, blocked, release = [], threading.Event(), threading.Event()
    placements = [(scenario, [0])] + [
        (scenario, BlocksFirstHelperRead(8, reads, blocked, release))
        for _ in range(2)]
    with worker_threads(2):
        counts = kernel.unserved_counts(placements, ChannelParams(),
                                        StreamSpec(), 4)
        next(counts)
        assert blocked.wait(timeout=10)
        closer = threading.Thread(target=counts.close, daemon=True)
        closer.start()
        # Closing may wait for the running helper; release it only once
        # the close has had time to take the queued sub-frames away.
        closer.join(timeout=0.5)
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        kernel._pool.submit(int).result(timeout=10)
    assert len(reads) == 1


def test_pipeline_under_thread_stress():
    # More drawing threads than cores, batches of one to four sub-frames
    # and a very short switch interval: a lost update of the shared
    # hand-out state would hang the kernel, skip a sub-frame (its words
    # stay garbage) or draw one twice, and change the result.
    config = ExperimentConfig(trials=3, subframes=12, users_per_cell=9,
                              num_prbs=2, seed=17)
    values = (9, 70, 130)
    with worker_threads(1):
        want = run_sweep(config, "users", values=values, with_exact=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = []
        with worker_threads(5), \
                mock.patch.object(kernel, "_BATCH_CELL_BYTES", 64):
            for _ in range(5):
                assert run_in_thread(lambda: got.append(run_sweep(
                    config, "users", values=values,
                    with_exact=True))) is None
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 5
    for result in got:
        assert_same_sweep(result, want)


def test_one_thread_or_one_subframe_starts_no_pool():
    config = ExperimentConfig(trials=2, subframes=5, users_per_cell=20,
                              seed=2)
    with worker_threads(1):
        one_thread = run_sweep(config, "users", values=(20, 30))
        assert kernel._pool is None
    scenario = generate_scenario(7, 300.0, 20, 5)
    with worker_threads(2):
        got = run_subframe(scenario, ChannelParams(), StreamSpec(), 3)
        assert kernel._pool is None
        assert_same_sweep(run_sweep(config, "users", values=(20, 30)),
                          one_thread)
    assert got == pipeline_counts(scenario, ChannelParams(), StreamSpec(),
                                  3, 4)


def test_sweep_builds_fading_seeds_as_it_draws():
    # One SeedSequence takes about 400 B, so building the seeds of all
    # 50,000 sub-frames up front would hold some 20 MB.  Deterministic
    # fading and one thread keep the draws themselves quick under
    # tracemalloc; the seeds are built the same way with any thread count.
    config = ExperimentConfig(num_cells=1, users_per_cell=1, trials=1,
                              subframes=50_000,
                              channel=ChannelParams(fading="none"))
    with worker_threads(1):
        tracemalloc.start()
        try:
            result = run_sweep(config, "users", values=(1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.counts.shape == (1, 2, 1, 50_000)
    assert peak < 50_000 * 400 // 4, peak


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 7, 19]),
    prbs=st.integers(1, 4),
    users=st.integers(1, 30),
    one_cell=st.booleans(),
)
def test_slab_draws_equal_one_whole_fill(seed, cells, prbs, users, one_cell):
    scenario = generate_scenario(cells, 300.0, users, seed)
    budget = prbs * scenario.num_users * 8 if one_cell else kernel._SLAB_BYTES
    with mock.patch.object(kernel, "_SLAB_BYTES", budget):
        place = kernel._Placement(scenario, [seed], ChannelParams(),
                                  StreamSpec(), prbs, False)
        gains = kernel._buffers(place, "rayleigh")[0]
    if one_cell:
        assert place.slab == 1
    drawn = np.full((cells, prbs, scenario.num_users), np.nan)
    firsts = []
    for first, slab in kernel._gain_slabs(np.random.default_rng(seed),
                                          gains, cells):
        firsts.append(first)
        drawn[first:first + len(slab)] = slab
    assert firsts == list(range(0, cells, place.slab))
    whole = np.empty_like(drawn)
    np.random.default_rng(seed).standard_exponential(out=whole)
    assert drawn.tobytes() == whole.tobytes()


@pytest.mark.parametrize("cells", [7, 19])
def test_kernel_matches_pipeline_in_one_cell_slabs(cells):
    boundary = dataclasses.replace(BOUNDARY_CONFIGS[1], num_cells=cells,
                                   users_per_cell=4)
    with mock.patch.object(kernel, "_SLAB_BYTES", 1), worker_threads(2):
        check_sweep_at_realized_rates(boundary, with_subframe=cells == 7)


# The boolean-tensor solvers the packed kernels replaced, kept as oracles.


def tensor_greedy(instance):
    member = instance.membership_matrix()
    num_cells, num_prbs, num_users = member.shape
    chosen = [-1] * num_cells
    covered = np.zeros(num_users, dtype=bool)
    remaining = np.ones(num_cells, dtype=bool)
    marginals = []
    for _ in range(num_cells):
        gains = np.count_nonzero(member & ~covered, axis=2)
        gains[~remaining] = -1
        c, j = divmod(int(np.argmax(gains)), num_prbs)
        chosen[c] = j
        remaining[c] = False
        marginals.append(int(max(gains[c, j], 0)))
        covered |= member[c, j]
    return tuple(chosen), int(np.count_nonzero(covered)), tuple(marginals)


def tensor_sc(instance):
    member = instance.membership_matrix()
    chosen, total = [], 0
    for c in range(instance.num_cells):
        counts = np.count_nonzero(member[c][:, instance.primary_cell == c],
                                  axis=1)
        chosen.append(int(np.argmax(counts)))
        total += int(counts[chosen[-1]])
    return tuple(chosen), total


def bigint_exact(instance):
    """Every allocation's union as one Python int; first maximizer wins."""
    member = instance.membership_matrix()
    masks = [[int.from_bytes(np.packbits(s, bitorder="little").tobytes(),
                             "little") for s in cell] for cell in member]
    best_count, best = -1, None
    for combo in itertools.product(range(instance.prbs_per_cell),
                                   repeat=instance.num_cells):
        union = 0
        for c, j in enumerate(combo):
            union |= masks[c][j]
        if union.bit_count() > best_count:
            best_count, best = union.bit_count(), combo
    return best, best_count


@st.composite
def instance_batches(draw):
    """Instances of one shape: random, with empty coverage sets, with no
    coverage at all, with every set equal (every step a tie), with every
    user covered by every PRB of some cell, or with no contested user
    (each user covered by every PRB of some cell, or by no set)."""
    cells = draw(st.integers(1, 4))
    prbs = draw(st.integers(1, 4))
    users = draw(st.sampled_from([0, 1, 3, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for kind in draw(st.lists(
            st.sampled_from(["random", "empty_sets", "empty", "all_tie",
                             "all_covered", "uncontested"]),
            min_size=1, max_size=4)):
        shape = (cells, prbs, users)
        if kind == "all_tie":
            member = np.broadcast_to(rng.random(users) < 0.5, shape)
        elif kind == "empty":
            member = np.zeros(shape, dtype=bool)
        else:
            member = rng.random(shape) < rng.uniform(0.05, 0.95)
            if kind == "empty_sets":
                member &= rng.random((cells, prbs, 1)) < 0.5
        if kind in ("all_covered", "uncontested"):
            # Each user gets a cell whose every PRB covers it.
            owner = rng.integers(0, cells, size=users)
            served = (np.ones(users, dtype=bool) if kind == "all_covered"
                      else rng.random(users) < 0.5)
            member[owner, :, np.arange(users)] |= served[:, None]
            if kind == "uncontested":
                member &= served
        batch.append(CoverageInstance.from_membership(
            member, rng.integers(0, cells, size=users)))
    return batch


@settings(max_examples=200, deadline=None)
@given(instance_batches())
def test_packed_solvers_match_tensor_solvers(batch):
    words = pack_users(np.stack([inst.membership_matrix() for inst in batch]))
    chosen, served, marginals = greedy_batch(words)
    for k, inst in enumerate(batch):
        want = tensor_greedy(inst)
        assert (tuple(chosen[k].tolist()), int(served[k]),
                tuple(marginals[k].tolist())) == want
        res = solve_greedy(inst)
        assert (res.alloc, res.objective,
                res.per_step_marginals) == want
        sc_chosen, sc_served = sc_batch(
            words[k:k + 1], primary_words(inst.primary_cell, inst.num_cells))
        want = tensor_sc(inst)
        assert (tuple(sc_chosen[0].tolist()), int(sc_served[0])) == want
        res = solve_sc_baseline(inst)
        assert (res.alloc, res.objective) == want


def union_of(member, chosen):
    """Users served by allocation ``chosen`` of a boolean [cells, prbs,
    users] tensor."""
    return int(np.count_nonzero(
        member[np.arange(len(chosen)), list(chosen)].any(axis=0)))


@settings(max_examples=150, deadline=None)
@given(batch=instance_batches(), seed=st.integers(0, 2**32 - 1))
def test_swap_batch_is_a_local_optimum_between_start_and_optimum(batch,
                                                                  seed):
    members = np.stack([inst.membership_matrix() for inst in batch])
    cells, prbs = members.shape[1:3]
    start = np.random.default_rng(seed).integers(0, prbs, (len(batch), cells))
    words = pack_users(members)
    chosen, served = swap_batch(words, start)
    for k, inst in enumerate(batch):
        member = members[k]
        assert served[k] == union_of(member, chosen[k])
        assert union_of(member, start[k]) <= served[k]
        assert served[k] <= bigint_exact(inst)[1]
        for c, j in itertools.product(range(cells), range(prbs)):
            move = chosen[k].copy()
            move[c] = j
            assert union_of(member, move) <= served[k], (c, j)
        # The same row alone, and in reversed order among the others.
        alone = swap_batch(words[k:k + 1], start[k:k + 1])
        assert (alone[0][0].tolist(), alone[1][0]) == (chosen[k].tolist(),
                                                       served[k])
    flipped = swap_batch(words[::-1], start[::-1])
    assert flipped[0][::-1].tolist() == chosen.tolist()
    assert flipped[1][::-1].tolist() == served.tolist()


def opt_below_union(cells, prbs, users):
    """Cell 0 covers user 0 or user 1, every other set is empty: the
    users some set covers are 2, the optimum serves 1."""
    member = np.zeros((cells, prbs, users), dtype=bool)
    member[0, 0, 0] = member[0, 1, 1] = True
    return CoverageInstance.from_membership(member, np.zeros(users, int))


def instance_placement(batch):
    """A placement whose sub-frame t has the coverage of ``batch[t]``:
    a scenario of the batch's shape (every cell at the origin, every
    user a metre away) and the sub-frame indices as fading seeds."""
    cells, _, users = batch[0].membership_matrix().shape
    scenario = Scenario(radius=300.0, cell_centers=np.zeros((cells, 2)),
                        user_positions=np.tile([1.0, 0.0], (users, 1)),
                        primary_cell=batch[0].primary_cell)
    return scenario, range(len(batch))


@contextlib.contextmanager
def counted_searches():
    """Count the kernel's `exact_search` calls: yields the list that
    gets one entry per call."""
    calls = []
    real_search = kernel.exact_search

    def counted(member):
        calls.append(member.shape)
        return real_search(member)

    with mock.patch.object(kernel, "exact_search", counted):
        yield calls


@settings(max_examples=60, deadline=None)
@given(batch=instance_batches())
def test_kernel_exact_is_the_optimum_certified_or_enumerated(batch):
    # Every placement mixes a row the bounds certify (no coverage: both
    # bounds are 0) with, where the shape allows one, a row whose optimum
    # is below the union bound, which only enumeration can settle.
    cells, prbs, users = batch[0].membership_matrix().shape
    batch = batch + [CoverageInstance.from_membership(
        np.zeros((cells, prbs, users), dtype=bool), np.zeros(users, int))]
    if prbs > 1 and users > 1:
        batch.append(opt_below_union(cells, prbs, users))
    words = pack_users(np.stack([inst.membership_matrix() for inst in batch]))
    want = [users - bigint_exact(inst)[1] for inst in batch]

    def draw(place, t, out, *args):
        out[...] = words[place.seeds[t]]

    per_cell = prbs * -(-users // 64) * 8
    for workers, budget in itertools.product(
            (1, 2), (per_cell, 3 * per_cell, 1 << 62)):
        with worker_threads(workers), \
                mock.patch.object(kernel, "_BATCH_CELL_BYTES", budget), \
                mock.patch.object(kernel, "_draw", draw), \
                counted_searches() as calls:
            exact = next(kernel.unserved_counts(
                [instance_placement(batch)], ChannelParams(), StreamSpec(),
                prbs, with_exact=True))[2]
        assert exact.tolist() == want
        assert len(calls) < len(batch)
        if prbs > 1 and users > 1:
            assert calls


def test_sweep_enumerates_only_what_the_bounds_leave_open():
    # The exact column of a seeded sweep: the bounds must settle two
    # thirds of the sub-frames (they settle 46 of 60; the greedy's start
    # alone settles 30), and enumerating every one gives the same column.
    config = ExperimentConfig(trials=2, subframes=10, seed=1)
    with counted_searches() as calls:
        got = run_sweep(config, "users", values=(100, 175, 250),
                        with_exact=True)
    samples = got.counts[:, 0].size
    assert 0 < len(calls) <= samples // 3, len(calls)
    real_swap = kernel.swap_batch

    def no_lower_bound(words, chosen):
        found, served = real_swap(words, chosen)
        return found, np.zeros_like(served)

    with mock.patch.object(kernel, "swap_batch", no_lower_bound), \
            counted_searches() as calls:
        enumerated = run_sweep(config, "users", values=(100, 175, 250),
                               with_exact=True)
    assert len(calls) == samples
    assert_same_sweep(enumerated, got)


def exact_caps(num_cells, num_prbs, num_words):
    """Byte budgets that make the exact search OR 1 head row at a time
    over a split table, several head rows at a time, and the whole
    enumeration as one table with no split."""
    row = num_words * 8
    tail = num_prbs ** (num_cells - 1) * row
    caps = {"one_row": tail, "rows": 2 * tail, "no_split": 1 << 62}
    want = {"one_row": (num_cells - 1, 1), "rows": (num_cells - 1, 2),
            "no_split": (num_cells, (1 << 62) // (tail * num_prbs))}
    for name, cap in caps.items():
        with mock.patch.object(solvers, "_EXACT_BYTES", cap):
            assert solvers._exact_split(num_cells, num_prbs,
                                        num_words) == want[name]
    return caps


@pytest.mark.parametrize("regime", ["one_row", "rows", "no_split"])
def test_exact_search_splits_as_its_byte_budget_says(regime):
    # 3 cells of 3 PRBs and 70 contested users (2 words): forced splits
    # must find the same allocation as the oracle, ties included.
    rng = np.random.default_rng(5)
    cap = exact_caps(3, 3, 2)[regime]
    users = np.arange(70)
    with mock.patch.object(solvers, "_EXACT_BYTES", cap):
        for density in (0.02, 0.2, 0.5):
            member = rng.random((3, 3, 70)) < density
            # Every user misses one PRB of each cell and is in some set.
            member[:, users % 3, users] = False
            member[users % 3, (users + 1) % 3, users] = True
            assert member.any(axis=(0, 1)).all()
            assert not member.all(axis=1).any()
            inst = CoverageInstance.from_membership(member, np.zeros(70, int))
            res = solve_exact(inst)
            assert (res.alloc, res.objective) == bigint_exact(inst)


@settings(max_examples=150, deadline=None)
@given(batch=instance_batches(),
       cap=st.sampled_from([1, 8, 16, 24, 40, 200, 4096, None]))
def test_exact_search_matches_bigint_oracle(batch, cap):
    with mock.patch.object(solvers, "_EXACT_BYTES",
                           cap or solvers._EXACT_BYTES):
        for inst in batch:
            want = bigint_exact(inst)
            assert exact_search(inst.membership_matrix()) == want
            res = solve_exact(inst)
            assert (res.alloc, res.objective) == want


def test_exact_search_builds_head_unions_a_block_at_a_time():
    # 7 cells of 4 PRBs and 512 contested users (8 words).  A 512 B
    # budget leaves one tail cell and ORs 2 head unions at a time; all
    # 4^6 head unions at once would take 256 KiB.
    rng = np.random.default_rng(3)
    users = np.arange(512)
    member = rng.random((7, 4, 512)) < 0.2
    member[:, users % 4, users] = False  # no cell covers a user always
    with mock.patch.object(solvers, "_EXACT_BYTES", 512):
        assert solvers._exact_split(7, 4, 8) == (1, 2)
        tracemalloc.start()
        try:
            found = exact_search(member)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 << 10, peak
    inst = CoverageInstance.from_membership(member, np.zeros(512, int))
    assert found == bigint_exact(inst)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 7]),
    prbs=st.integers(1, 3),
    users=st.integers(1, 30),
    rate=st.floats(2e5, 4e6),
)
def test_sweep_exact_never_leaves_more_unserved(seed, cells, prbs, users,
                                                rate):
    config = ExperimentConfig(num_cells=cells, num_prbs=prbs, trials=2,
                              subframes=3, users_per_cell=users,
                              stream_rate_bps=rate, seed=seed)
    result = run_sweep(config, "users", values=(users,), with_exact=True)
    assert result.counts.shape == (1, 3, 2, 3)
    sc, mc, exact = result.counts[0]
    assert (exact <= mc).all()
    assert (exact <= sc).all()
