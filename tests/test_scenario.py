"""Geometry, channel model and instance-derivation tests."""

import math

import numpy as np
import pytest

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
from mcms.scenario import (
    RateRealization,
    hex_centers,
    in_hexagon,
    pathloss_db,
    shannon_rate_bps,
)

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


@pytest.mark.parametrize("field", ["bandwidth_hz", "min_distance_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_channel_params_rejects_non_finite(field, value):
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
    real = sample_rates(s, params, 0, 1, num_prbs=3)
    rates = real.rates[0, 0]
    assert (np.diff(rates) < 0).all()
    # no fading: all PRBs carry identical rates
    assert np.array_equal(real.rates[0, 0], real.rates[0, 1])
    assert np.array_equal(real.rates[0, 0], real.rates[0, 2])


def test_sample_rates_clamped_distances_tie():
    s = _line_scenario([3.0, 8.0])
    real = sample_rates(s, ChannelParams(fading="none"), 0, 1, num_prbs=1)
    assert real.rates[0, 0, 0] == real.rates[0, 0, 1]


def test_sample_rates_deterministic_per_seed():
    s = generate_scenario(7, 300.0, 12, 4)
    params = ChannelParams()
    a = sample_rates(s, params, 5, np.random.default_rng(77), num_prbs=4)
    b = sample_rates(s, params, 5, np.random.default_rng(77), num_prbs=4)
    assert np.array_equal(a.rates, b.rates)
    assert a.subframe == 5


def test_sample_rates_forced_deep_fade_gives_zero_rate():
    s = generate_scenario(7, 300.0, 8, 4)
    real = sample_rates(s, ChannelParams(), 0, ZeroFadeRng(), num_prbs=2)
    assert (real.rates == 0.0).all()


def test_rate_realization_validation():
    with pytest.raises(ValueError):
        RateRealization(0, np.full((1, 1, 2), -1.0))
    with pytest.raises(ValueError):
        RateRealization(0, np.full((1, 1, 2), np.nan))
    with pytest.raises(ValueError):
        RateRealization(0, np.zeros((2, 3)))


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        StreamSpec(rate_bps=0.0)
    with pytest.raises(ValueError):
        StreamSpec(rate_bps=-5.0)


def test_derive_instance_threshold_extremes():
    s = generate_scenario(1, 300.0, 10, 8)
    real = sample_rates(s, ChannelParams(), 0, 8, num_prbs=2)
    everything = derive_instance(s, real, StreamSpec(rate_bps=1e-12))
    assert all(st == frozenset(range(10))
               for cell in everything.collections for st in cell)
    nothing = derive_instance(
        s, real, StreamSpec(rate_bps=float(real.rates.max()) * 2)
    )
    assert all(st == frozenset()
               for cell in nothing.collections for st in cell)


def test_derive_instance_boundary_is_inclusive():
    r = 1.4e6
    s = _line_scenario([20.0, 50.0, 100.0])
    real = RateRealization(0, np.array([[[2 * r, r, r / 2]]]))
    inst = derive_instance(s, real, StreamSpec(rate_bps=r))
    assert inst.collections[0][0] == {0, 1}


def test_derive_instance_dimension_mismatch():
    s = _line_scenario([20.0, 50.0])
    with pytest.raises(ValueError, match="users"):
        derive_instance(s, RateRealization(0, np.zeros((1, 1, 3))),
                        StreamSpec())
    with pytest.raises(ValueError, match="cells"):
        derive_instance(s, RateRealization(0, np.zeros((2, 1, 2))),
                        StreamSpec())


def test_threshold_monotonicity_of_membership_and_objective(rng):
    s = generate_scenario(7, 300.0, 10, 21)
    for _ in range(10):
        real = sample_rates(s, ChannelParams(), 0, rng, num_prbs=2)
        r1 = float(rng.uniform(0.5e6, 1.5e6))
        lo = derive_instance(s, real, StreamSpec(rate_bps=r1))
        hi = derive_instance(s, real, StreamSpec(rate_bps=2 * r1))
        for cell_lo, cell_hi in zip(lo.collections, hi.collections):
            for set_lo, set_hi in zip(cell_lo, cell_hi):
                assert set_hi <= set_lo
        exact_lo, exact_hi = solve_exact(lo), solve_exact(hi)
        assert exact_hi.objective <= exact_lo.objective
        for inst, res in ((lo, exact_lo), (hi, exact_hi)):
            assert res.objective == served(inst, res.alloc)[0].sum()
