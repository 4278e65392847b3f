"""The batched Monte Carlo kernel against the one-instance pipeline.

The kernel decides coverage by comparing fading gains with a per-link
threshold and solves sub-frames in packed batches.  These tests hold it
to `sample_rates -> derive_instance -> solve_greedy/solve_sc_baseline`
where the two rules are hardest to keep apart (stream rates equal to
realized link rates, subnormal mean SNRs), for every batch size, slab
size and number of drawing threads, hold its log-domain gain bounds
within a quarter of the guard band of the canonical thresholds, hold
placements batched together to the same placements one batch each and
batches to their one cutting rule, check that the kernel reads a
placement only when a batch needs it, that a sweep runs in a child
forked after a sweep, that a helper's error
(also one drawing ahead) reaches the caller and leaves the next sweep
unharmed, that a batch solver's error reaches the caller while the next
batch is drawn and opens no later batch, that closing the kernel stops
its helpers after their current sub-frame and leaves none alive, that
helpers never read fading seeds, that fading seeds are built as they
are drawn, and that a drawing thread allocates its buffers once and
reuses them across shapes without leaking into the words, and hold
the packed solvers to the boolean-tensor and big-int solvers they
replaced (SC also with one owner set per row), the 1-swap local search
to its local optimum, and the EXACT column, certified by its bounds or
enumerated, to the optimum, leaving the SC and MC results it starts
from as they are, and check that adding EXACT leaves the other columns
unchanged.
"""

import contextlib
import dataclasses
import itertools
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
import types
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
from mcms.coverage import pack_users, served
from mcms.scenario import mean_snr, shannon_rate_bps
from mcms.solvers import (exact_search, greedy_batch, primary_words,
                          sc_batch, swap_batch)

from conftest import (assert_same_sweep, helpers_alive, random_instance,
                      run_subframe)

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
    # The longest links of the benchmark's 19-cell layout: the exponent
    # of the log-domain inverse SNR, and so its rounding, is largest.
    ExperimentConfig(num_cells=19, radius_m=400.0, users_per_cell=4,
                     num_prbs=4, trials=2, subframes=3, seed=23),
)
BOUNDARY_IDS = ["1cell_1prb", "7cells_4prbs", "low_snr", "19cells_400m"]


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


def worker_threads(count):
    """Run the kernel with ``count`` drawing threads, the calling thread
    and count - 1 helpers."""
    return mock.patch.object(kernel, "_WORKERS", count)


def in_helper():
    """Whether this is one of the kernel's helper threads."""
    return threading.current_thread().name.startswith("mcms-draw")


@contextlib.contextmanager
def started_helpers():
    """Record the kernel's helper threads started inside: yields the list
    that gets the name of each."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        if thread.name.startswith("mcms-draw"):
            started.append(thread.name)
        return real_start(thread)

    with mock.patch.object(threading.Thread, "start", start):
        yield started


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


@pytest.mark.parametrize("boundary", BOUNDARY_CONFIGS, ids=BOUNDARY_IDS)
def test_kernel_matches_pipeline_at_realized_rates(boundary):
    check_sweep_at_realized_rates(boundary)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("boundary", BOUNDARY_CONFIGS, ids=BOUNDARY_IDS)
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


@contextlib.contextmanager
def counted_mean_snr():
    """Count the kernel's mean_snr calls inside: yields the list that
    gets one entry per call, from any thread."""
    calls = []
    real = kernel.mean_snr

    def spy(*args):
        calls.append(threading.current_thread().name)
        return real(*args)

    with mock.patch.object(kernel, "mean_snr", spy):
        yield calls


def test_placement_with_non_finite_bounds_computes_its_mean_snr_once():
    # At a radius of 1e100 every mean SNR underflows to 0, so every
    # link's gain bounds are infinite and every gain falls in the guard
    # band: the kernel keeps such a placement's mean SNRs rather than
    # compute them again on each of its sub-frames.
    config = ExperimentConfig(trials=2, subframes=20, users_per_cell=5,
                              radius_m=1e100, seed=4)
    with counted_mean_snr() as calls:
        result = run_sweep(config, "users", values=(5,))
    assert len(calls) == config.trials
    stream = StreamSpec(rate_bps=config.stream_rate_bps)
    for trial, t in np.ndindex(config.trials, config.subframes):
        scenario, fading = sweep_sample(config, trial, t)
        want = pipeline_counts(scenario, config.channel, stream,
                               np.random.default_rng(fading),
                               config.num_prbs)
        sc, mc = result.counts[0, :, trial, t]
        assert (mc, sc) == want


def test_placement_in_range_opens_without_mean_snr():
    # Every link of a 7-cell, 300 m placement is in range: its bounds
    # come from the log-domain inverse SNR alone, all finite.
    scenario = generate_scenario(7, 300.0, 175, 3)
    with counted_mean_snr() as calls:
        place = kernel._Placement(scenario, [0], ChannelParams(),
                                  StreamSpec(), 4, 2)
    assert calls == [] and place.snr is None
    assert np.isfinite(place.hi).all() and 0.0 < place.ratio < 1.0


def test_a_placement_holds_one_gain_bound_per_link():
    # A 19 x 175 placement holds one float64 bound a link and no lower
    # bound, and opening it peaks near one [cells, users] float64 array:
    # the distances' y term is added a cell row at a time.
    scenario = generate_scenario(19, 400.0, 175, 1)
    one = scenario.num_cells * scenario.num_users * 8
    tracemalloc.start()
    try:
        place = kernel._Placement(scenario, [0], ChannelParams(),
                                  StreamSpec(), 4, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(place, "lo") and place.snr is None
    assert place.hi.dtype == np.float64
    assert place.hi.shape == (scenario.num_cells, 1, scenario.num_users)
    assert [name for name, value in vars(place).items()
            if isinstance(value, np.ndarray) and value.nbytes >= one // 4
            ] == ["hi"]
    assert held <= 1.1 * one, held
    assert peak <= 1.3 * one, peak


def test_kernel_matches_pipeline_where_mean_snrs_are_subnormal():
    # At a radius of 1e86 mean SNRs are subnormal, some of them not zero,
    # where 1 / snr loses bits: those links go to the band, and the
    # placement keeps its mean SNRs, computed once, to decide them.
    config = ExperimentConfig(trials=2, subframes=5, users_per_cell=5,
                              radius_m=1e86, seed=4)
    snr = mean_snr(sweep_sample(config, 0, 0)[0], config.channel)
    assert ((snr > 0) & (snr < np.finfo(float).tiny)).any()
    with counted_mean_snr() as calls:
        result = run_sweep(config, "users", values=(5,))
    assert len(calls) == config.trials
    stream = StreamSpec(rate_bps=config.stream_rate_bps)
    for trial, t in np.ndindex(config.trials, config.subframes):
        scenario, fading = sweep_sample(config, trial, t)
        want = pipeline_counts(scenario, config.channel, stream,
                               np.random.default_rng(fading),
                               config.num_prbs)
        sc, mc = result.counts[0, :, trial, t]
        assert (mc, sc) == want


def test_kernel_raises_where_the_mean_snr_overflows():
    # A mean SNR beyond the float range is out of range for the inverse
    # too, so the placement computes mean_snr, which refuses it.
    config = ExperimentConfig(trials=1, subframes=2, users_per_cell=3,
                              channel=ChannelParams(tx_power_dbm=3200.0))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="mean SNR must be finite"):
        run_sweep(config, "users", values=(3,))


def test_kernel_rejects_no_prbs_and_placements_without_subframes():
    # The kernel refuses no PRBs as the one-sub-frame pipeline does.
    scenario = generate_scenario(7, 300.0, 5, 0)
    params, stream = ChannelParams(), StreamSpec()
    with pytest.raises(ValueError, match="num_prbs must be >= 1"):
        sample_rates(scenario, params, 0, num_prbs=0)
    with pytest.raises(ValueError, match="num_prbs must be >= 1"):
        next(kernel.unserved_counts([(scenario, [0])], params, stream, 0))
    with pytest.raises(ValueError, match="at least one sub-frame"):
        next(kernel.unserved_counts([(scenario, [])], params, stream, 4))


# The bounds come from numpy's log, exp and multiply, the canonical mean
# SNR from its hypot, log10 and power, whose rounding may differ by
# version: each bound must stay within a quarter of the guard band.
@pytest.mark.numpy_contract
@settings(max_examples=300, deadline=None)
@given(
    cells=st.sampled_from([1, 7, 19]),
    seed=st.integers(0, 2**32 - 1),
    log_radius=st.floats(-3.0, 150.0),
    log_min_distance=st.floats(-200.0, 200.0),
    log_rate=st.floats(-3.0, 10.0),
    tx=st.floats(-3000.0, 3000.0),
    const=st.floats(-500.0, 500.0),
    slope=st.floats(-50.0, 500.0),
    figure=st.floats(-100.0, 100.0),
)
def test_gain_bounds_bracket_the_canonical_thresholds(
        cells, seed, log_radius, log_min_distance, log_rate, tx, const,
        slope, figure):
    # Each bound from the log-domain inverse SNR lies within a quarter of
    # the guard band of (x -/+ half) / mean_snr, or its link is in the
    # band, and then its placement keeps the canonical mean SNRs.
    params = ChannelParams(tx_power_dbm=tx, pathloss_const_db=const,
                           pathloss_slope_db=slope, noise_figure_db=figure,
                           min_distance_m=10.0 ** log_min_distance)
    scenario = generate_scenario(cells, 10.0 ** log_radius, 3, seed)
    stream = StreamSpec(rate_bps=10.0 ** log_rate)
    with np.errstate(over="ignore"):
        try:
            snr = mean_snr(scenario, params)
        except ValueError:
            with pytest.raises(ValueError, match="mean SNR must be finite"):
                kernel._Placement(scenario, [0], params, stream, 1, 2)
            return
        place = kernel._Placement(scenario, [0], params, stream, 1, 2)
    assert_bounds_bracket_the_thresholds(place, snr, params, stream)


def assert_bounds_bracket_the_thresholds(place, snr, params, stream):
    """Each bound of ``place``, ``hi`` and the lower ``hi * ratio`` that
    `_draw` derives, lies within a quarter of the guard band of (x -/+
    half) / snr, or ``hi`` is NaN, and then the placement keeps the
    canonical mean SNRs ``snr``."""
    hi = place.hi[:, 0]
    band = np.isnan(hi)
    assert (band | np.isfinite(hi)).all()
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.multiply(hi, place.ratio)
        x = np.expm1(stream.rate_bps / params.bandwidth_hz * np.log(2.0))
        half = kernel._GUARD * (1.0 + x)
        # The bound times snr against x -/+ half, where no quotient
        # overflows.
        assert (band | (np.abs(lo * snr - (x - half)) <= half / 4)).all()
        assert (band | (np.abs(hi * snr - (x + half)) <= half / 4)).all()
    if band.any():
        assert np.array_equal(place.snr, snr)
    else:
        assert place.snr is None


# Stream rates at both ends of the range, with the config fields that
# make each case bite: x = expm1(R / B * ln 2) below the band's
# half-width, so the lower bound is at most 0 and every gain short of hi
# takes the rate rule, at mean SNRs that put x / snr among the gains;
# and within 1 % of ExperimentConfig's ceiling B * max_exp, over links
# of up to some 10 km, where the longest links' hi overflows to NaN.
EXTREME_RATES = [
    (1e-4, {"channel": ChannelParams(tx_power_dbm=-105.0)}),
    (0.995 * 180e3 * sys.float_info.max_exp, {"radius_m": 3000.0}),
]


# As the test above, at stream rates below the band and near the
# ceiling, on every numpy allowed.
@pytest.mark.numpy_contract
@pytest.mark.parametrize("rate, fields", EXTREME_RATES,
                         ids=["below_the_band", "near_the_ceiling"])
def test_gain_bounds_at_extreme_rates(rate, fields):
    config = ExperimentConfig(num_cells=7, users_per_cell=20, num_prbs=2,
                              trials=1, subframes=4, seed=8,
                              stream_rate_bps=rate, **fields)
    params, stream = config.channel, StreamSpec(rate_bps=rate)
    scenario = sweep_sample(config, 0, 0)[0]
    snr = mean_snr(scenario, params)
    place = kernel._Placement(scenario, [0], params, stream, 2, 2)
    assert_bounds_bracket_the_thresholds(place, snr, params, stream)
    if rate < 1:
        assert place.ratio <= 0 and place.snr is None
    else:
        assert 0 < np.isnan(place.hi).mean() < 1
    with counted_mean_snr() as calls:
        result = run_sweep(config, "users", values=(20,))
    for t in range(config.subframes):
        scenario, fading = sweep_sample(config, 0, t)
        want = pipeline_counts(scenario, params, stream,
                               np.random.default_rng(fading), 2)
        sc, mc = result.counts[0, :, 0, t]
        assert (mc, sc) == want
    if rate < 1:
        # Every sub-frame has gains short of hi: they take the rate rule,
        # which computes the mean SNRs of the placement that keeps none.
        assert len(calls) == config.subframes
        assert 0 < result.counts.min()
        assert result.counts.max() < scenario.num_users
    else:
        # No finite SNR of these links reaches x: the placement keeps the
        # mean SNRs of its NaN links, and nobody is served.
        assert len(calls) == 1
        assert (result.counts == scenario.num_users).all()


def test_kept_mean_snr_decides_links_on_the_threshold():
    # Cell 1 stands 1e100 m from cell 0, so every cross link has SNR 0
    # and infinite bounds while each cell serves its own users.  Stream
    # rates equal to realized rates of the first sub-frame put finite
    # links on the threshold, and the kept mean SNRs decide them.
    near = generate_scenario(1, 300.0, 30, 6)
    scenario = Scenario(
        radius=300.0, cell_centers=[[0.0, 0.0], [1e100, 0.0]],
        user_positions=np.vstack([near.user_positions,
                                  [[1e100, 50.0], [1e100, -120.0]]]),
        primary_cell=[0] * 30 + [1, 1])
    params, num_prbs = ChannelParams(), 2
    fadings = [np.random.SeedSequence(7, spawn_key=(t,)) for t in range(6)]
    rates = sample_rates(scenario, params, np.random.default_rng(fadings[0]),
                         num_prbs).ravel()
    rates = np.sort(rates[rates > 0])
    for rate in rates[::len(rates) // 5]:
        stream = StreamSpec(rate_bps=float(rate))
        with counted_mean_snr() as calls:
            sc, mc = next(kernel.unserved_counts([(scenario, fadings)],
                                                 params, stream, num_prbs))
        assert len(calls) == 1
        want = [pipeline_counts(scenario, params, stream,
                                np.random.default_rng(fading), num_prbs)
                for fading in fadings]
        assert list(zip(mc.tolist(), sc.tolist())) == want
        assert min(mc) < scenario.num_users


def forced_batches(config, users):
    """Per-cell byte budgets that cap the kernel's batches at 1 and 3
    sub-frames and at no fewer than a sweep point has."""
    n = config.num_prbs
    m = config.num_cells * users
    per_cell = n * -(-m // 64) * 8
    budgets = [(1, per_cell), (3, 3 * per_cell), (None, 1 << 62)]
    for want, budget in budgets:
        with mock.patch.object(kernel, "_BATCH_CELL_BYTES", budget):
            cap = kernel._batch_subframes(n, m)
        assert cap == want if want else cap >= (config.trials
                                                * config.subframes)
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
    # between points, and helpers draw ahead across them.  Per-cell
    # budgets of 1 byte, of three sub-frames at the largest point and of
    # no limit batch 1, at least 3 and all sub-frames of each point.
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


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 7]),
    prbs=st.integers(1, 4),
    axis=st.sampled_from(["users", "radius"]),
    points=st.integers(1, 3),
    trials=st.integers(1, 3),
    subframes=st.integers(1, 4),
    rate=st.floats(2e5, 4e6),
    fading=st.sampled_from(["rayleigh", "none"]),
)
def test_adding_a_column_leaves_the_other_columns_unchanged(
        seed, cells, prbs, axis, points, trials, subframes, rate, fading):
    config = ExperimentConfig(num_cells=cells, num_prbs=prbs, trials=trials,
                              subframes=subframes, users_per_cell=12,
                              stream_rate_bps=rate, seed=seed,
                              channel=ChannelParams(fading=fading))
    values = [(4, 12, 25), (250.0, 400.0, 700.0)][axis == "radius"][:points]
    base = run_sweep(config, axis, values)
    more = run_sweep(config, axis, values, with_exact=True)
    assert (base.columns, more.columns) == (("SC", "MC"),
                                            ("SC", "MC", "EXACT"))
    assert np.array_equal(base.counts, more.counts[:, :2])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 3, 7]),
    prbs=st.integers(1, 3),
    users=st.integers(1, 70),
    subframes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    budget=st.integers(1, 4096),
    open_budget=st.sampled_from([1, 10_000, 1 << 20]),
    rate=st.floats(2e5, 4e6),
    workers=st.sampled_from([1, 2]),
)
def test_batches_across_placements_match_one_placement_per_batch(
        seed, cells, prbs, users, subframes, budget, open_budget, rate,
        workers):
    # Placements of one shape whose primary cells differ: every cell sits
    # at the origin, so any user may belong to any cell, and users up to
    # 2 km away leave some unserved.  Alone, each placement is one batch;
    # together, under any budget, their sub-frames share batches and SC
    # reads each row's own primary users.
    rng = np.random.default_rng(seed)
    placements = [
        (Scenario(radius=3000.0, cell_centers=np.zeros((cells, 2)),
                  user_positions=rng.uniform(-1500.0, 1500.0, (users, 2)),
                  primary_cell=rng.integers(0, cells, users)),
         rng.integers(0, 2**32, n).tolist())
        for n in subframes]
    params, stream = ChannelParams(), StreamSpec(rate_bps=rate)
    columns = kernel.COLUMNS if prbs ** cells <= 256 else kernel.BASE_COLUMNS
    want = [next(kernel.unserved_counts([placement], params, stream, prbs,
                                        columns))
            for placement in placements]
    with worker_threads(workers), \
            mock.patch.object(kernel, "_BATCH_CELL_BYTES", budget), \
            mock.patch.object(kernel, "_BATCH_OPEN_BYTES", open_budget):
        got = list(kernel.unserved_counts(placements, params, stream, prbs,
                                          columns))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_a_batch_opens_the_placements_its_byte_budget_allows():
    # Twelve placements of one sub-frame each fit one batch by words;
    # thresholds of 2.5 placements cap each batch at two, and the cutter
    # reads a batch's placements plus one to peek.
    scenario = generate_scenario(7, 300.0, 20, 5)
    read = []

    def pairs():
        for t in range(12):
            read.append(t)
            yield scenario, [t]

    def open_place(scenario, seeds):
        return types.SimpleNamespace(subframes=len(seeds), seeds=seeds)

    cost = 16 * scenario.num_cells * scenario.num_users
    batches, seen = [], []
    with mock.patch.object(kernel, "_BATCH_OPEN_BYTES", 5 * cost // 2):
        for segments in kernel._batches(pairs(), 4, open_place):
            batches.append(segments)
            seen.append(len(read))
    assert [len(segments) for segments in batches] == [2] * 6
    assert [place.seeds[t] for segments in batches
            for place, start, stop in segments
            for t in range(start, stop)] == list(range(12))
    assert seen == [3, 5, 7, 9, 11, 12]
    # One placement a batch and three sub-frames a batch: the second
    # batch finishes the first placement and opens the second, and the
    # placements read ahead run out before three sub-frames are cut.
    uneven = [(scenario, list(range(n))) for n in (1, 4, 1, 1)]
    with mock.patch.object(kernel, "_BATCH_OPEN_BYTES", cost), \
            mock.patch.object(kernel, "_BATCH_CELL_BYTES", 3 * 4 * 3 * 8):
        cut = [[(place.subframes, start, stop)
                for place, start, stop in segments]
               for segments in kernel._batches(uneven, 4, open_place)]
    assert cut == [[(1, 0, 1)], [(4, 0, 3)], [(4, 3, 4), (1, 0, 1)],
                   [(1, 0, 1)]]


def test_kernel_reads_placements_only_as_batches_need_them():
    # Six placements of exactly one batch of sub-frames each: when the
    # kernel yields a placement's counts it may have read only that
    # placement and the next, the batch it solved and the one it opened.
    scenario = generate_scenario(7, 300.0, 20, 5)
    read, seen = [], []

    def pairs():
        for k in range(6):
            read.append(k)
            yield scenario, [np.random.SeedSequence(k, spawn_key=(t,))
                             for t in range(3)]

    with mock.patch.object(kernel, "_BATCH_CELL_BYTES", 3 * 4 * 3 * 8):
        assert kernel._batch_subframes(4, scenario.num_users) == 3
        for counts in kernel.unserved_counts(pairs(), ChannelParams(),
                                             StreamSpec(), 4):
            assert counts.shape == (2, 3)
            seen.append(len(read))
    assert len(seen) == 6
    assert all(reads <= min(k + 2, 6) for k, reads in enumerate(seen)), seen


# Shapes (cells, users) of the placements the cutting rule is tested on.
CUT_SHAPES = ((1, 3), (7, 20), (7, 70), (19, 5))


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(st.tuples(st.sampled_from(CUT_SHAPES),
                              st.integers(1, 12)), min_size=1, max_size=12),
    cell_bytes=st.integers(1, 2 * 3 * 8 * 12),
    open_bytes=st.integers(1, 16 * 7 * 70 * 4) | st.just(1 << 40),
)
def test_batches_follow_the_cutting_rule(stream, cell_bytes, open_bytes):
    # A stream of placements of mixed shapes and sub-frame counts, cut
    # under random byte budgets, with 2 PRBs.
    read = []

    def pairs():
        for k, ((cells, users), n) in enumerate(stream):
            read.append(k)
            yield (types.SimpleNamespace(num_cells=cells, num_users=users),
                   [(k, t) for t in range(n)])

    def open_place(scenario, seeds):
        return types.SimpleNamespace(
            subframes=len(seeds), seeds=seeds,
            shape=(scenario.num_cells, scenario.num_users))

    with mock.patch.object(kernel, "_BATCH_CELL_BYTES", cell_bytes), \
            mock.patch.object(kernel, "_BATCH_OPEN_BYTES", open_bytes):
        batches = [(segments, len(read))
                   for segments in kernel._batches(pairs(), 2, open_place)]
        caps = {shape: kernel._batch_subframes(2, shape[1])
                for shape in CUT_SHAPES}
    # The segments concatenate to the stream, in order.
    assert [seed for segments, _ in batches
            for place, start, stop in segments
            for seed in place.seeds[start:stop]] == [
        (k, t) for k, (_, n) in enumerate(stream) for t in range(n)]
    # Batches of each run of placements of one shape, by run.
    runs = [k for k in range(len(stream))
            if k == 0 or stream[k][0] != stream[k - 1][0]]
    by_run = {}
    for segments, reads in batches:
        shapes = {place.shape for place, _, _ in segments}
        assert len(shapes) == 1
        shape = shapes.pop()
        cap = caps[shape]
        most = max(1, open_bytes // (16 * shape[0] * shape[1]))
        size = sum(stop - start for _, start, stop in segments)
        opened = sum(start == 0 for _, start, _ in segments)
        assert all(stop > start for _, start, stop in segments)
        assert size <= cap and opened <= most
        place, _, stop = segments[-1]
        last = place.seeds[0][0]
        if size < cap:
            # Short only at the end of the stream, at a shape change or
            # at the open cap.
            assert stop == place.subframes
            assert (last == len(stream) - 1 or stream[last + 1][0] != shape
                    or opened == most)
        # The cutter reads at most one placement beyond the batch.
        assert reads <= last + 2
        first = segments[0][0].seeds[0][0]
        run = max(k for k in runs if k <= first)
        by_run.setdefault(run, []).append(opened < most)
    for run, uncapped in by_run.items():
        end = min([k for k in runs if k > run] + [len(stream)])
        if all(uncapped):
            length = sum(n for _, n in stream[run:end])
            assert len(uncapped) == -(-length // caps[stream[run][0]])


def sweep_in_child(config, want):
    assert_same_sweep(run_sweep(config, "users", values=(20,)), want)


def test_sweep_runs_in_a_child_forked_after_a_sweep():
    # The parent's sweep starts helpers and shuts them down, so the child
    # inherits no helper thread and no pool, and starts helpers its own.
    config = ExperimentConfig(trials=1, subframes=6, users_per_cell=20,
                              seed=4)
    with worker_threads(2), started_helpers() as started:
        want = run_sweep(config, "users", values=(20,))
        assert started
        child = multiprocessing.get_context("fork").Process(
            target=sweep_in_child, args=(config, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the sweep in the forked child hung")
    assert child.exitcode == 0


class HookedSeed(np.random.bit_generator.ISeedSequence):
    """A fading seed that calls ``hook()`` each time a thread uses it,
    then gives the state of ``SeedSequence(entropy)``."""

    def __init__(self, entropy, hook):
        self.entropy, self.hook = entropy, hook

    def generate_state(self, n_words, dtype=np.uint32):
        self.hook()
        return np.random.SeedSequence(self.entropy).generate_state(n_words,
                                                                   dtype)


class HelperGetsBadSeed(list):
    """Fading seeds that fail when a helper thread uses one; uses on the
    calling thread wait until a helper has taken one, then work."""

    def __init__(self, length):
        self.helper_took = threading.Event()
        super().__init__(HookedSeed(t, self.use) for t in range(length))

    def use(self):
        if in_helper():
            self.helper_took.set()
            raise ValueError("a seed no generator takes")
        self.helper_took.wait(timeout=10)


class WaitsForHelperSeed(list):
    """Fading seeds whose uses on the calling thread wait until ``event``
    is set."""

    def __init__(self, length, event):
        self.event = event
        super().__init__(HookedSeed(t, self.use) for t in range(length))

    def use(self):
        if not in_helper():
            self.event.wait(timeout=10)


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
    assert not helpers_alive()


@pytest.mark.parametrize("workers", [2, 3])
def test_helper_error_in_look_ahead_placement_reaches_the_caller(workers):
    # The calling thread holds the one sub-frame of the first placement
    # until a helper has used a seed of the second placement, and that
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
        # while helpers draw the second; each time, no helper thread may
        # be left behind.
        bad = HelperGetsBadSeed(8)
        assert isinstance(run_in_thread(lambda: list(kernel.unserved_counts(
            [(scenario, bad)], ChannelParams(), StreamSpec(), 4))),
            ValueError)
        assert not helpers_alive()
        counts = kernel.unserved_counts([(scenario, range(9))] * 3,
                                        ChannelParams(), StreamSpec(), 4)
        next(counts)
        counts.close()
        assert not helpers_alive()
        got = []
        assert run_in_thread(lambda: got.append(run_sweep(
            config, "users", values=(20, 25)))) is None
    assert len(got) == 1
    assert_same_sweep(got[0], want)


def test_solver_error_reaches_the_caller_while_the_next_batch_is_drawn():
    # Batches of three sub-frames of one placement of twelve.  The BAD
    # column raises on the first batch once the helper has started on
    # the second, and holds that sub-frame while the failed kernel empties
    # the queues: the helper draws no other sub-frame of the second batch,
    # and the third batch is never opened.
    scenario = generate_scenario(7, 300.0, 20, 5)
    uses, ahead = [], threading.Event()

    def use(t):
        helper = in_helper()
        uses.append((t, helper))
        if t < 3:
            return
        if helper and not ahead.is_set():
            ahead.set()
            time.sleep(0.5)
        elif not helper:
            ahead.wait(timeout=10)

    def bad(words, owners, earlier):
        assert ahead.wait(timeout=10)
        raise RuntimeError("a failing batch solver")

    seeds = [HookedSeed(t, lambda t=t: use(t)) for t in range(12)]
    columns = (kernel.COLUMNS[0], kernel.Column("BAD", bad, ""))
    with worker_threads(2), \
            mock.patch.object(kernel, "_BATCH_CELL_BYTES", 3 * 4 * 3 * 8):
        error = run_in_thread(lambda: list(kernel.unserved_counts(
            [(scenario, seeds)], ChannelParams(), StreamSpec(), 4, columns)))
    assert isinstance(error, RuntimeError)
    assert not helpers_alive()
    drawn = [t for t, _ in uses]
    assert len(drawn) == len(set(drawn))
    assert set(range(3)) <= set(drawn) <= set(range(6))
    assert len([t for t, helper in uses if helper and t >= 3]) == 1


class BlocksFirstHelperUse(list):
    """Fading seeds that record every use by a helper thread in ``uses``.
    The first such use sets ``blocked`` and waits until ``release`` is
    set; uses on the calling thread wait for ``blocked``."""

    def __init__(self, length, uses, blocked, release):
        self.uses, self.blocked, self.release = uses, blocked, release
        super().__init__(HookedSeed(t, self.use) for t in range(length))

    def use(self):
        if not in_helper():
            self.blocked.wait(timeout=10)
            return
        self.uses.append(threading.current_thread().name)
        if len(self.uses) == 1:
            self.blocked.set()
            self.release.wait(timeout=10)


def test_closing_the_kernel_stops_helpers_after_their_current_subframe():
    # The first placement has one sub-frame and a shape of its own, so it
    # is a batch alone; the helper blocks in its first seed use of a
    # later placement while more batches of three sub-frames are queued.
    # Once the kernel is closed, the helper finishes that sub-frame,
    # uses no other seed and ends.
    scenario = generate_scenario(7, 300.0, 20, 5)
    uses, blocked, release = [], threading.Event(), threading.Event()
    placements = [(generate_scenario(7, 300.0, 21, 5), [0])] + [
        (scenario, BlocksFirstHelperUse(8, uses, blocked, release))
        for _ in range(2)]
    with worker_threads(2), \
            mock.patch.object(kernel, "_BATCH_CELL_BYTES", 3 * 4 * 3 * 8):
        counts = kernel.unserved_counts(placements, ChannelParams(),
                                        StreamSpec(), 4)
        next(counts)
        assert blocked.wait(timeout=10)
        closer = threading.Thread(target=counts.close, daemon=True)
        closer.start()
        # Closing waits for the running helper; release it only once the
        # close has had time to take the queued sub-frames away.
        closer.join(timeout=0.5)
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert not helpers_alive()
    assert len(uses) == 1


class ReadsRecorded(list):
    """Fading seeds that record, for every read, whether a helper thread
    made it."""

    def __init__(self, seeds, reads):
        self.reads = reads
        super().__init__(seeds)

    def __getitem__(self, index):
        self.reads.append(in_helper())
        return super().__getitem__(index)


# numpy's bit generators must take the seeds of classes of our own that
# the kernel's rows carry.
@pytest.mark.numpy_contract
def test_helpers_never_read_fading_seeds():
    # The calling thread reads each segment's seeds once, as it queues a
    # batch; helpers only use the seeds their rows carry.  Three
    # placements of eight sub-frames in batches of three make ten
    # segments.  The calling thread's seed uses wait until a helper has
    # used one, so helpers draw.
    scenario = generate_scenario(7, 300.0, 20, 5)
    helper_used = threading.Event()

    def use():
        if in_helper():
            helper_used.set()
        else:
            helper_used.wait(timeout=10)

    reads = []
    placements = [(scenario, ReadsRecorded(
        [HookedSeed(8 * k + t, use) for t in range(8)], reads))
        for k in range(3)]
    with mock.patch.object(kernel, "_BATCH_CELL_BYTES", 3 * 4 * 3 * 8):
        with worker_threads(3), started_helpers() as started:
            got = []
            assert run_in_thread(lambda: got.extend(kernel.unserved_counts(
                placements, ChannelParams(), StreamSpec(), 4))) is None
        assert started and helper_used.is_set()
        assert reads == [False] * 10
        want = list(kernel.unserved_counts(
            [(scenario, [np.random.SeedSequence(8 * k + t)
                         for t in range(8)]) for k in range(3)],
            ChannelParams(), StreamSpec(), 4))
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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
    with worker_threads(1), started_helpers() as started:
        one_thread = run_sweep(config, "users", values=(20, 30))
    assert not started
    scenario = generate_scenario(7, 300.0, 20, 5)
    with worker_threads(2):
        with started_helpers() as started:
            got = run_subframe(scenario, ChannelParams(), StreamSpec(), 3)
        assert not started
        assert_same_sweep(run_sweep(config, "users", values=(20, 30)),
                          one_thread)
    assert got == pipeline_counts(scenario, ChannelParams(), StreamSpec(),
                                  3, 4)


def test_sweep_builds_fading_seeds_as_it_draws():
    # Building the fading seeds of all 50,000 sub-frames up front, in one
    # pass, would peak at some 5 MB, 1.6 MB of them state words; a block
    # of seeds is built only when one of its sub-frames is drawn.
    # Deterministic fading and one thread keep the draws themselves quick
    # under tracemalloc; the seeds are built the same way with any thread
    # count.
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


# Slab fills of the fading gains must continue numpy's generator stream
# as one standard_exponential fill does, on every numpy allowed.
@pytest.mark.numpy_contract
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 7, 19]),
    prbs=st.integers(1, 4),
    users=st.integers(1, 30),
    one_cell=st.booleans(),
)
def test_slab_draws_equal_one_whole_fill(seed, cells, prbs, users, one_cell):
    # In one-cell slabs or in _SLAB_BYTES ones, _draw packs the words of
    # one whole standard_exponential fill thresholded by the same bounds.
    scenario = generate_scenario(cells, 300.0, users, seed)
    params, stream = ChannelParams(), StreamSpec()
    budget = prbs * scenario.num_users * 8 if one_cell else kernel._SLAB_BYTES
    with mock.patch.object(kernel, "_SLAB_BYTES", budget):
        place = kernel._Placement(scenario, [seed], params, stream, prbs,
                                  len(kernel.COLUMNS))
        buffers = kernel._DrawBuffers().of(place, "rayleigh")
    gains = buffers[0]
    assert gains.shape == (place.slab, prbs, scenario.num_users)
    if one_cell:
        assert place.slab == 1
    got = np.empty(place.word_shape, dtype=np.uint64)
    kernel._draw(place, seed, got, buffers, params, stream)
    whole = np.empty((cells, prbs, scenario.num_users))
    np.random.default_rng(seed).standard_exponential(out=whole)
    # The gains left in the buffer are the last slab's.
    last = range(0, cells, place.slab)[-1]
    assert gains[:cells - last].tobytes() == whole[last:].tobytes()
    covers = whole >= place.hi
    band = ~covers & ~(whole < place.hi * place.ratio)
    rates = shannon_rate_bps(mean_snr(scenario, params)[:, None, :] * whole,
                             params.bandwidth_hz)
    covers[band] = rates[band] >= stream.rate_bps
    bits = np.zeros((cells, prbs, place.word_shape[2] * 64), dtype=bool)
    bits[..., :scenario.num_users] = covers
    want = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
    assert got.tobytes() == want.tobytes()


@contextlib.contextmanager
def counted_buffer_allocations():
    """Count the kernel's draw-buffer allocations inside: yields the list
    that gets the name of the allocating thread, once per allocation."""
    calls = []
    real = kernel._DrawBuffers.of

    def spy(self, *args):
        held = self.flat
        views = real(self, *args)
        if self.flat is not held:
            calls.append(threading.current_thread().name)
        return views

    with mock.patch.object(kernel._DrawBuffers, "of", spy):
        yield calls


def test_reused_draw_buffers_never_leak_into_the_words():
    # One thread's buffers serve 7-cell placements of 250, then 100 users
    # per cell (the larger shape's bits lie where the smaller one's
    # padding is), a 19-cell placement, and one without fading after
    # fading gains: each word must be the one fresh arrays give, and the
    # lower-bound view, a prefix of its flat buffer whatever stale bounds
    # that held, ends each draw with the last slab's hi * ratio.
    cases = [(7, 250, "rayleigh"), (7, 100, "rayleigh"),
             (19, 175, "rayleigh"), (7, 100, "none")]
    mine = kernel._DrawBuffers()
    stream = StreamSpec()
    with counted_buffer_allocations() as calls:
        for seed, (cells, users, fading) in enumerate(cases):
            params = ChannelParams(fading=fading)
            scenario = generate_scenario(cells, 300.0, users, seed)
            seeds = [np.random.SeedSequence(seed, spawn_key=(t,))
                     for t in range(3)]
            place = kernel._Placement(scenario, seeds, params, stream, 4,
                                      len(kernel.COLUMNS))
            shape = (place.slab, 4, scenario.num_users)
            padded = (place.slab, 4, place.word_shape[2] * 64)
            for fading_seed in seeds:
                fresh = (np.empty(shape) if fading == "rayleigh"
                         else np.ones(shape),
                         np.empty(shape, dtype=bool),
                         np.zeros(padded, dtype=bool),
                         np.empty((place.slab, 1, scenario.num_users)))
                want = np.empty(place.word_shape, dtype=np.uint64)
                got = np.empty_like(want)
                kernel._draw(place, fading_seed, want, fresh, params, stream)
                views = mine.of(place, fading)
                mine.flat[3].fill(np.inf)
                kernel._draw(place, fading_seed, got, views, params, stream)
                assert np.array_equal(got, want), (cells, users, fading)
                assert np.count_nonzero(want), (cells, users, fading)
                lower, last = views[3], range(0, cells, place.slab)[-1]
                assert lower.shape == (place.slab, 1, scenario.num_users)
                assert np.shares_memory(lower, mine.flat[3])
                assert np.array_equal(lower[:cells - last],
                                      place.hi[last:] * place.ratio)
    # Every shape fits the slab budget: all four reused one allocation.
    assert len(calls) == 1


def test_users_sweep_allocates_draw_buffers_once_per_thread():
    config = ExperimentConfig(trials=1, subframes=6, seed=3)
    with worker_threads(2), counted_buffer_allocations() as calls:
        result = run_sweep(config, "users")
    assert result.counts.shape == (7, 2, 1, 6)
    # The caller and its helper each allocate at their first draw, once.
    assert "MainThread" in calls
    assert len(calls) == len(set(calls)) <= 2


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
    chosen, served = greedy_batch(words)
    for k, inst in enumerate(batch):
        want = tensor_greedy(inst)[:2]
        assert (tuple(chosen[k].tolist()), int(served[k])) == want
        res = solve_greedy(inst)
        assert (res.alloc, res.objective) == want
        sc_chosen, sc_served = sc_batch(
            words[k:k + 1], primary_words(inst.primary_cell, inst.num_cells))
        want = tensor_sc(inst)
        assert (tuple(sc_chosen[0].tolist()), int(sc_served[0])) == want
        res = solve_sc_baseline(inst)
        assert (res.alloc, res.objective) == want


def test_greedy_marginals_non_increasing_and_sum_to_objective(rng):
    # The oracle's gain per step: no step gains more than the one before,
    # the gains add up to the served count, and greedy_batch (through
    # solve_greedy) picks the oracle's allocation.
    for _ in range(100):
        inst = random_instance(rng,
                               num_users=int(rng.integers(1, 40)),
                               num_cells=int(rng.integers(1, 6)),
                               num_prbs=int(rng.integers(1, 5)))
        alloc, objective, marg = tensor_greedy(inst)
        assert len(marg) == inst.num_cells
        assert all(a >= b for a, b in zip(marg, marg[1:]))
        assert sum(marg) == objective
        assert objective == served(inst, alloc)[0].sum()
        res = solve_greedy(inst)
        assert (res.alloc, res.objective) == (alloc, objective)


@settings(max_examples=100, deadline=None)
@given(instance_batches())
def test_sc_batch_takes_the_owners_of_each_row(batch):
    words = pack_users(np.stack([inst.membership_matrix() for inst in batch]))
    owners = np.stack([primary_words(inst.primary_cell, inst.num_cells)
                       for inst in batch])
    chosen, served = sc_batch(words, owners)
    for k, inst in enumerate(batch):
        alone = sc_batch(words[k:k + 1], owners[k])
        assert (chosen[k].tolist(), served[k]) == (alone[0][0].tolist(),
                                                   alone[1][0])
        assert (tuple(chosen[k].tolist()), int(served[k])) == tensor_sc(inst)


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

    def counted(words):
        calls.append(words.shape)
        return real_search(words)

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
                prbs, kernel.COLUMNS))[2]
        assert exact.tolist() == want
        assert len(calls) < len(batch)
        if prbs > 1 and users > 1:
            assert calls


@settings(max_examples=60, deadline=None)
@given(instance_batches())
def test_exact_column_serves_the_optimum_and_leaves_earlier_results(batch):
    # EXACT starts from the SC and MC results it is handed: it must leave
    # them as they are, and return an allocation serving the optimum.
    words = pack_users(np.stack([inst.membership_matrix() for inst in batch]))
    owners = np.stack([primary_words(inst.primary_cell, inst.num_cells)
                       for inst in batch])
    earlier = {}
    for column in kernel.BASE_COLUMNS:
        earlier[column.name] = column.solve(words, owners, earlier)
    kept = {name: [array.copy() for array in result]
            for name, result in earlier.items()}
    exact = dict((column.name, column) for column in kernel.COLUMNS)["EXACT"]
    chosen, served = exact.solve(words, owners, earlier)
    for name, result in earlier.items():
        assert all(map(np.array_equal, result, kept[name])), name
    for k, inst in enumerate(batch):
        optimum = bigint_exact(inst)[1]
        assert served[k] == union_of(inst.membership_matrix(),
                                     chosen[k]) == optimum


def test_sweep_enumerates_only_what_the_bounds_leave_open():
    # The exact column of a seeded sweep: the bounds must settle two
    # thirds of the sub-frames (they settle 46 of 60; the greedy's union
    # alone settles 15), and enumerating every one gives the same column.
    config = ExperimentConfig(trials=2, subframes=10, seed=1)
    with counted_searches() as calls:
        got = run_sweep(config, "users", values=(100, 175, 250),
                        with_exact=True)
    samples = got.counts[:, 0].size
    assert 0 < len(calls) <= samples // 3, len(calls)
    real_greedy, real_swap = kernel.greedy_batch, kernel.swap_batch

    def no_greedy_bound(words):
        chosen, served = real_greedy(words)
        return chosen, np.zeros_like(served)

    def no_swap_bound(words, chosen):
        found, served = real_swap(words, chosen)
        return found, np.zeros_like(served)

    # Without either lower bound every sub-frame is enumerated.  The MC
    # column then reads every user unserved, so only SC and EXACT compare.
    with mock.patch.object(kernel, "greedy_batch", no_greedy_bound), \
            mock.patch.object(kernel, "swap_batch", no_swap_bound), \
            counted_searches() as calls:
        enumerated = run_sweep(config, "users", values=(100, 175, 250),
                               with_exact=True)
    assert len(calls) == samples
    assert np.array_equal(enumerated.counts[:, ::2], got.counts[:, ::2])


def exact_caps(num_cells, num_prbs, num_words):
    """Byte budgets that make the exact search OR 1 head tuple at a time
    with a split table, and build the whole enumeration as one table
    with no split."""
    tail = num_prbs ** (num_cells - 1) * num_words * 8
    caps = {"one_row": tail, "no_split": 1 << 62}
    want = {"one_row": num_cells - 1, "no_split": num_cells}
    for name, cap in caps.items():
        with mock.patch.object(solvers, "_EXACT_BYTES", cap):
            assert solvers._tail_cells(num_cells, num_prbs,
                                       num_words) == want[name]
    return caps


@pytest.mark.parametrize("regime", ["one_row", "no_split"])
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


# Pins the exact search's unions on every numpy allowed.
@pytest.mark.numpy_contract
@settings(max_examples=150, deadline=None)
@given(batch=instance_batches(),
       cap=st.sampled_from([1, 8, 16, 24, 40, 200, 4096, None]))
def test_exact_search_matches_bigint_oracle(batch, cap):
    with mock.patch.object(solvers, "_EXACT_BYTES",
                           cap or solvers._EXACT_BYTES):
        for inst in batch:
            want = bigint_exact(inst)
            member = inst.membership_matrix()
            assert exact_search(pack_users(member)) == want
            # A bool, or any dtype but uint64, is not read as words.
            for other in (member, pack_users(member).astype(np.int64)):
                with pytest.raises(ValueError, match="uint64"):
                    exact_search(other)
            res = solve_exact(inst)
            assert (res.alloc, res.objective) == want


# Pins the exact search's unions, with no head cell, on every numpy
# allowed.
@pytest.mark.numpy_contract
def test_exact_search_builds_head_unions_one_tuple_at_a_time():
    # 7 cells of 4 PRBs and 512 contested users (8 words).  A 512 B
    # budget leaves one tail cell and ORs the 4^6 head unions with it two
    # at a time; all of them at once would take 256 KiB.
    rng = np.random.default_rng(3)
    users = np.arange(512)
    member = rng.random((7, 4, 512)) < 0.2
    member[:, users % 4, users] = False  # no cell covers a user always
    words = pack_users(member)
    with mock.patch.object(solvers, "_EXACT_BYTES", 512):
        assert solvers._tail_cells(7, 4, 8) == 1
        tracemalloc.start()
        try:
            found = exact_search(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 << 10, peak
    inst = CoverageInstance.from_membership(member, np.zeros(512, int))
    assert found == bigint_exact(inst)


@pytest.mark.parametrize("cells, prbs, users, cap, counts", [
    # 10 PRBs, one word: a table of 3 cells (8,000 B) and blocks of 5, the
    # largest divisor of 10 of which that many ORed tables fit 64 KiB.
    (5, 10, 60, None, 10**2 // 5),
    # 4 PRBs, 8 words: one tail cell (256 B) and blocks of 2 under 512 B.
    (7, 4, 512, 512, 4**6 // 2),
    # 4 PRBs, 8 words: a table of 5 cells (64 KiB) and blocks of 1.
    (7, 4, 512, None, 4**2),
])
def test_exact_search_ors_blocks_of_head_tuples(cells, prbs, users, cap,
                                                counts):
    # Every head PRB tuple, in blocks that fit the byte budget: one count
    # per block, ceil(head tuples / block) in all.
    rng = np.random.default_rng(8)
    ids = np.arange(users)
    member = rng.random((cells, prbs, users)) < 0.2
    member[:, ids % prbs, ids] = False  # no cell covers a user always
    member[ids % cells, (ids + 1) % prbs, ids] = True  # every one contested
    calls = []
    real_count = solvers._count_words

    def counted(unions):
        calls.append(unions.shape)
        return real_count(unions)

    with mock.patch.object(solvers, "_EXACT_BYTES",
                           cap or solvers._EXACT_BYTES), \
            mock.patch.object(solvers, "_count_words", counted):
        found = exact_search(pack_users(member))
    assert len(calls) == counts, len(calls)
    inst = CoverageInstance.from_membership(member, np.zeros(users, int))
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
