"""Geometry, channel model and instance-derivation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcms import (
    ChannelParams,
    Scenario,
    StreamSpec,
    derive_instance,
    generate_scenario,
    sample_rates,
    served,
    solve_exact,
)
from mcms.coverage import InstanceError
from mcms.scenario import (
    _HEX_AXES,
    _sample_cells,
    hex_centers,
    in_hexagon,
    mean_snr,
    pathloss_db,
    shannon_rate_bps,
)

from conftest import coverage_sets

SQRT3 = math.sqrt(3.0)


class ZeroFadeRng(np.random.Generator):
    """Generator whose fading draws are all zero (forced deep fade)."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def exponential(self, scale=1.0, size=None):
        return np.zeros(size)


def test_hex_centers_single_cell():
    centers = hex_centers(1, 300.0)
    assert centers.shape == (1, 2)
    assert np.allclose(centers[0], (0.0, 0.0))


def test_hex_centers_seven_cells():
    centers = hex_centers(7, 300.0)
    assert centers.shape == (7, 2)
    assert np.allclose(centers[0], (0.0, 0.0))
    dist = np.hypot(centers[1:, 0], centers[1:, 1])
    assert np.allclose(dist, SQRT3 * 300.0)  # inter-site distance
    angles = np.degrees(np.arctan2(centers[1:, 1], centers[1:, 0])) % 360
    assert np.allclose(sorted(angles), [0, 60, 120, 180, 240, 300], atol=1e-9)


def test_hex_centers_nineteen_cells():
    centers = hex_centers(19, 100.0)
    assert centers.shape == (19, 2)
    dist = np.sort(np.hypot(centers[:, 0], centers[:, 1]))
    assert np.allclose(dist[0], 0.0)
    assert np.allclose(dist[1:7], SQRT3 * 100.0)
    # outer ring alternates between straight-through and diagonal cells
    assert np.allclose(np.sort(dist[7:]), sorted([2 * SQRT3 * 100.0] * 6
                                                 + [300.0] * 6))


@pytest.mark.parametrize("cells, farthest", [(1, 0.0), (7, SQRT3),
                                             (19, 2 * SQRT3)])
def test_largest_radius_a_layout_takes_keeps_every_distance_finite(
        cells, farthest):
    # hex_centers takes a radius while twice its reach, the farthest
    # station plus one radius, is finite.  Users dropped in such a layout
    # and their links stay finite, with no overflow warning.
    largest = np.finfo(float).max / (2 * (farthest + 1)) * (1 - 1e-9)
    scenario = generate_scenario(cells, largest, 20, 1)
    assert np.isfinite(scenario.user_positions).all()
    assert np.isfinite(mean_snr(scenario, ChannelParams())).all()
    with pytest.raises(ValueError, match=f"too large for a {cells}-cell"):
        hex_centers(cells, largest * 1.01)


def test_hex_centers_rejects_unsupported_layouts():
    for bad in (0, 2, 6, 8, 37):
        with pytest.raises(ValueError):
            hex_centers(bad, 300.0)
    with pytest.raises(ValueError):
        hex_centers(7, -1.0)


def test_in_hexagon_boundaries():
    r = 200.0
    apothem = SQRT3 / 2.0 * r
    assert in_hexagon((0.0, 0.0), (0.0, 0.0), r)
    # top vertex (pointy-top) is at distance r
    assert in_hexagon((0.0, 0.999 * r), (0.0, 0.0), r)
    assert not in_hexagon((0.0, 1.001 * r), (0.0, 0.0), r)
    # flat side: apothem away along x
    assert in_hexagon((0.999 * apothem, 0.0), (0.0, 0.0), r)
    assert not in_hexagon((1.001 * apothem, 0.0), (0.0, 0.0), r)
    # vectorized form with an offset center
    pts = np.array([[500.0, 0.0], [500.0 + 2 * r, 0.0]])
    assert list(in_hexagon(pts, (500.0, 0.0), r)) == [True, False]


def test_in_hexagon_equals_the_all_reduce_over_the_three_axes():
    r = 200.0
    apothem = SQRT3 / 2.0 * r
    rng = np.random.default_rng(11)
    edge = [(apothem, 0.0), (-apothem, 0.0), (0.0, apothem),
            (np.nextafter(apothem, np.inf), 0.0)]
    nan = [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan)]
    for pts in (rng.uniform(-1.2 * r, 1.2 * r, size=(6, 50, 2)),
                np.array(edge + nan), np.array(edge[0])):
        old = np.all(np.abs(pts @ _HEX_AXES.T) <= apothem, axis=-1)
        new = in_hexagon(pts, (0.0, 0.0), r)
        assert new.shape == old.shape and new.dtype == old.dtype
        assert np.array_equal(new, old)
    assert list(in_hexagon(np.array(edge + nan), (0.0, 0.0), r)) == [
        True, True, True, False, False, False, False]


def test_generate_scenario_empty_system():
    s = generate_scenario(1, 250.0, 0, 7)
    assert s.num_users == 0
    assert s.num_cells == 1
    assert np.allclose(s.cell_centers[0], (0.0, 0.0))


def test_generate_scenario_blocks_and_containment():
    s = generate_scenario(7, 300.0, 40, 11)
    assert s.num_users == 280
    assert np.array_equal(s.primary_cell,
                          np.repeat(np.arange(7), 40))
    for c in range(7):
        block = s.user_positions[c * 40:(c + 1) * 40]
        assert in_hexagon(block, s.cell_centers[c], 300.0).all()


def test_generated_users_nearest_station_is_primary():
    # hexagons tile the plane as Voronoi cells of the centers
    s = generate_scenario(7, 300.0, 60, 3)
    delta = s.user_positions[:, None, :] - s.cell_centers[None, :, :]
    nearest = np.argmin(np.hypot(delta[..., 0], delta[..., 1]), axis=1)
    assert np.array_equal(nearest, s.primary_cell)


def test_generate_scenario_deterministic_per_seed():
    a = generate_scenario(7, 300.0, 25, 99)
    b = generate_scenario(7, 300.0, 25, 99)
    assert np.array_equal(a.user_positions, b.user_positions)
    c = generate_scenario(7, 300.0, 25, 100)
    assert not np.array_equal(a.user_positions, c.user_positions)


def test_generate_scenario_accepts_generator_or_seed():
    a = generate_scenario(1, 300.0, 10, np.random.default_rng(5))
    b = generate_scenario(1, 300.0, 10, 5)
    assert np.array_equal(a.user_positions, b.user_positions)


def per_cell_points(num_cells, radius, n, rng):
    """Points [cells, n, 2] around the origin as cell after cell of
    rejection sampling, each drawing its own rounds from ``rng`` with
    ``rng.uniform``: the sampler `generate_scenario` replaced, kept as
    its oracle."""
    half_w = SQRT3 / 2.0 * radius
    out = np.empty((num_cells, n, 2))
    for c in range(num_cells):
        filled = 0
        while filled < n:
            need = n - filled
            pts = rng.uniform((-half_w, -radius), (half_w, radius),
                              size=(max(2 * need, 16), 2))
            pts = pts[in_hexagon(pts, (0.0, 0.0), radius)][:need]
            out[c, filled:filled + len(pts)] = pts
            filled += len(pts)
    return out


def per_cell_positions(num_cells, radius, n, rng):
    """User positions of `per_cell_points`, cell after cell."""
    centers = hex_centers(num_cells, radius)
    points = per_cell_points(num_cells, radius, n, rng)
    return (points + centers[:, None, :]).reshape(-1, 2)


def falls_short(num_cells, radius, n, seed):
    """Whether some cell's first round of max(2n, 16) points, drawn for
    every cell at once from ``seed``, holds fewer than n in its hexagon."""
    half_w = SQRT3 / 2.0 * radius
    first = max(2 * n, 16)
    pts = np.random.default_rng(seed).uniform(
        (-half_w, -radius), (half_w, radius), size=(num_cells * first, 2))
    inside = in_hexagon(pts, (0.0, 0.0), radius).reshape(num_cells, first)
    return bool((inside.sum(axis=1) < n).any())


def check_same_draws(num_cells, radius, n, seed):
    got_rng, want_rng = (np.random.default_rng(seed),
                         np.random.default_rng(seed))
    got = generate_scenario(num_cells, radius, n, got_rng)
    want = per_cell_positions(num_cells, radius, n, want_rng)
    assert got.user_positions.tobytes() == want.tobytes()
    # The generator ends in the same state: its next draw is the same.
    assert got_rng.random() == want_rng.random()


# One uniform block of user positions must equal per-cell rounds of
# numpy's generator on every numpy allowed.
@pytest.mark.numpy_contract
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_cells=st.sampled_from([1, 7, 19]),
    n=st.one_of(st.integers(0, 10), st.just(175)),
    radius=st.floats(1.0, 1e4),
)
def test_generate_scenario_draws_as_the_per_cell_sampler(seed, num_cells, n,
                                                         radius):
    check_same_draws(num_cells, radius, n, seed)


# One uniform block of user positions must equal per-cell rounds of
# numpy's generator on every numpy allowed.
@pytest.mark.numpy_contract
def test_generate_scenario_draws_as_the_per_cell_sampler_when_cells_fall_short():
    # With n = 8 a cell's first round of 16 points holds fewer than 8 in
    # the hexagon about 0.75 % of the time: the cells from the first such
    # one on take their points round by round.
    seeds = [s for s in range(300) if falls_short(19, 300.0, 8, s)]
    assert len(seeds) >= 10
    for seed in seeds:
        check_same_draws(19, 300.0, 8, seed)


# The points scale rng.random as numpy's uniform does, low + (high - low)
# * u, which must hold on every numpy allowed.
@pytest.mark.numpy_contract
@pytest.mark.parametrize("radius", [300.0, 1e-3, 7.0 / 3.0, 1e150])
def test_sample_cells_draws_what_numpy_uniform_draws(radius):
    # _sample_cells scales doubles of rng.random in place, as numpy's
    # uniform computes low + (high - low) * u: its points and the
    # generator's final state must be those of rng.uniform rounds, bit
    # for bit, also when a cell falls short and the rounds go one by one.
    short = [s for s in range(400) if falls_short(19, radius, 8, s)][:4]
    assert len(short) == 4
    for num_cells, n, seeds in ((7, 175, range(4)), (19, 8, short)):
        for seed in seeds:
            assert falls_short(num_cells, radius, n, seed) == (n == 8)
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = _sample_cells(num_cells, n, radius, got_rng)
            want = per_cell_points(num_cells, radius, n, want_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("users", [2.5, True, np.float64(0.5), "3", None])
def test_generate_scenario_rejects_users_that_are_not_whole(users):
    with pytest.raises(InstanceError, match="users_per_cell"):
        generate_scenario(7, 300.0, users, 1)


def test_generate_scenario_takes_whole_numbers_of_users():
    want = generate_scenario(7, 300.0, 3, 1).user_positions
    for users in (3.0, np.int64(3), np.float64(3.0)):
        got = generate_scenario(7, 300.0, users, 1)
        assert got.user_positions.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=">= 0"):
        generate_scenario(7, 300.0, -1, 1)


def test_scenario_rejects_user_outside_its_hexagon():
    with pytest.raises(ValueError, match="outside"):
        Scenario(
            radius=100.0,
            cell_centers=np.array([[0.0, 0.0]]),
            user_positions=np.array([[150.0, 0.0]]),
            primary_cell=np.array([0]),
        )
    with pytest.raises(ValueError, match="out of range"):
        Scenario(
            radius=100.0,
            cell_centers=np.array([[0.0, 0.0]]),
            user_positions=np.array([[10.0, 0.0]]),
            primary_cell=np.array([3]),
        )


def test_pathloss_reference_values():
    params = ChannelParams()
    assert pathloss_db(1000.0, params) == pytest.approx(128.1, abs=1e-12)
    assert pathloss_db(100.0, params) == pytest.approx(90.5, abs=1e-9)


def test_pathloss_clamps_below_min_distance():
    params = ChannelParams()
    assert pathloss_db(5.0, params) == pathloss_db(10.0, params)
    assert pathloss_db(0.0, params) == pathloss_db(10.0, params)


def test_pathloss_monotone(rng):
    params = ChannelParams()
    d = np.sort(rng.uniform(0.0, 2000.0, 200))
    pl = pathloss_db(d, params)
    assert (np.diff(pl) >= 0).all()


def test_noise_power_reference_value():
    # -174 dBm/Hz + 10*log10(180 kHz) + 9 dB
    assert ChannelParams().noise_power_dbm == pytest.approx(
        -112.44727494896694, abs=1e-9
    )


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(fading="lognormal")
    with pytest.raises(ValueError):
        ChannelParams(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        ChannelParams(min_distance_m=0.0)


@pytest.mark.parametrize("field", [
    "bandwidth_hz", "min_distance_m", "tx_power_dbm", "noise_figure_db",
    "noise_psd_dbm_hz", "pathloss_const_db", "pathloss_slope_db"])
@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf,
    # float() of these raises OverflowError, not ValueError.
    pytest.param(10**400, id="int-beyond-floats"),
    pytest.param(-10**400, id="-int-beyond-floats")])
def test_channel_params_rejects_non_finite(field, value):
    # Raised at construction, not by the first mean SNR of a sweep.
    with pytest.raises(ValueError, match=field):
        ChannelParams(**{field: value})


def test_shannon_rate_zero_snr_is_zero():
    assert shannon_rate_bps(0.0, 180e3) == 0.0


def _line_scenario(xs, radius=300.0):
    pos = np.array([[x, 0.0] for x in xs])
    return Scenario(
        radius=radius,
        cell_centers=np.array([[0.0, 0.0]]),
        user_positions=pos,
        primary_cell=np.zeros(len(xs), dtype=np.intp),
    )


def test_sample_rates_deterministic_fading_monotone_in_distance():
    s = _line_scenario([20.0, 50.0, 100.0, 200.0])
    params = ChannelParams(fading="none")
    rates = sample_rates(s, params, 1, num_prbs=3)
    assert rates.shape == (1, 3, 4)
    assert (np.diff(rates[0, 0]) < 0).all()
    # no fading: all PRBs carry identical rates
    assert np.array_equal(rates[0, 0], rates[0, 1])
    assert np.array_equal(rates[0, 0], rates[0, 2])


def test_sample_rates_clamped_distances_tie():
    s = _line_scenario([3.0, 8.0])
    rates = sample_rates(s, ChannelParams(fading="none"), 1, num_prbs=1)
    assert rates[0, 0, 0] == rates[0, 0, 1]


def test_sample_rates_deterministic_per_seed():
    s = generate_scenario(7, 300.0, 12, 4)
    params = ChannelParams()
    a = sample_rates(s, params, np.random.default_rng(77), num_prbs=4)
    b = sample_rates(s, params, np.random.default_rng(77), num_prbs=4)
    assert np.array_equal(a, b)


def test_sample_rates_forced_deep_fade_gives_zero_rate():
    s = generate_scenario(7, 300.0, 8, 4)
    rates = sample_rates(s, ChannelParams(), ZeroFadeRng(), num_prbs=2)
    assert (rates == 0.0).all()


def test_derive_instance_validates_rates():
    s = _line_scenario([20.0, 50.0])
    for rates in (np.full((1, 1, 2), -1.0), np.full((1, 1, 2), np.nan),
                  np.full((1, 1, 2), np.inf), np.zeros((1, 2))):
        with pytest.raises(ValueError, match="rates"):
            derive_instance(s, rates, StreamSpec())


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        StreamSpec(rate_bps=0.0)
    with pytest.raises(ValueError):
        StreamSpec(rate_bps=-5.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_stream_rate_and_radius_must_be_finite(value):
    # An infinite rate would leave every user unserved without an error;
    # a NaN radius gave NaN cell centres or a misleading hexagon error.
    with pytest.raises(ValueError, match="rate_bps"):
        StreamSpec(rate_bps=value)
    with pytest.raises(ValueError, match="radius"):
        hex_centers(7, value)
    with pytest.raises(ValueError, match="radius"):
        generate_scenario(7, value, 5, 0)
    with pytest.raises(ValueError, match="radius"):
        Scenario(radius=value, cell_centers=np.zeros((1, 2)),
                 user_positions=np.zeros((1, 2)), primary_cell=[0])


def test_derive_instance_threshold_extremes():
    s = generate_scenario(1, 300.0, 10, 8)
    rates = sample_rates(s, ChannelParams(), 8, num_prbs=2)
    everything = derive_instance(s, rates, StreamSpec(rate_bps=1e-12))
    assert all(st == frozenset(range(10))
               for cell in coverage_sets(everything) for st in cell)
    nothing = derive_instance(
        s, rates, StreamSpec(rate_bps=float(rates.max()) * 2)
    )
    assert all(st == frozenset()
               for cell in coverage_sets(nothing) for st in cell)


def test_derive_instance_boundary_is_inclusive():
    r = 1.4e6
    s = _line_scenario([20.0, 50.0, 100.0])
    inst = derive_instance(s, np.array([[[2 * r, r, r / 2]]]),
                           StreamSpec(rate_bps=r))
    assert coverage_sets(inst)[0][0] == {0, 1}


def test_derive_instance_dimension_mismatch():
    s = _line_scenario([20.0, 50.0])
    with pytest.raises(ValueError, match="users"):
        derive_instance(s, np.zeros((1, 1, 3)), StreamSpec())
    with pytest.raises(ValueError, match="cells"):
        derive_instance(s, np.zeros((2, 1, 2)), StreamSpec())


def test_threshold_monotonicity_of_membership_and_objective(rng):
    s = generate_scenario(7, 300.0, 10, 21)
    for _ in range(10):
        rates = sample_rates(s, ChannelParams(), rng, num_prbs=2)
        r1 = float(rng.uniform(0.5e6, 1.5e6))
        lo = derive_instance(s, rates, StreamSpec(rate_bps=r1))
        hi = derive_instance(s, rates, StreamSpec(rate_bps=2 * r1))
        for cell_lo, cell_hi in zip(coverage_sets(lo), coverage_sets(hi)):
            for set_lo, set_hi in zip(cell_lo, cell_hi):
                assert set_hi <= set_lo
        exact_lo, exact_hi = solve_exact(lo), solve_exact(hi)
        assert exact_hi.objective <= exact_lo.objective
        for inst, res in ((lo, exact_lo), (hi, exact_hi)):
            assert res.objective == served(inst, res.alloc)[0].sum()
