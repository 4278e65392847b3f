"""The radio pipeline against its closed form, which shares none of its
code.

Under Rayleigh fading one PRB of cell c covers user u with probability
p[c, u] = exp(-(2^(R/B) - 1) / snr[c, u]), independently across cells,
PRBs, users and sub-frames, with snr from `mean_snr`.  With one PRB per
cell every allocation is forced, so a sub-frame's SC and MC unserved
counts are sums of independent Bernoulli variables with known means.
Seeds, sizes and bounds were fixed before the first run.
"""

import math

import numpy as np
import pytest

from mcms import (ChannelParams, ExperimentConfig, StreamSpec,
                  generate_scenario, run_sweep)
from mcms.kernel import Column, unserved_counts
from mcms.scenario import mean_snr


def cover_probability(scenario, params, stream):
    """p[c, u]: the chance that one PRB of cell c covers user u."""
    x = 2.0 ** (stream.rate_bps / params.bandwidth_hz) - 1.0
    with np.errstate(divide="ignore"):
        return np.exp(-x / mean_snr(scenario, params))


@pytest.mark.parametrize("cells, users", [(7, 100), (19, 20)])
def test_one_prb_sweep_means_match_the_closed_form(cells, users):
    """Per placement, E[SC unserved] = sum_u (1 - p[primary(u), u]) and
    E[MC unserved] = sum_u prod_c (1 - p[c, u]); a placement's mean over
    S sub-frames has variance sum_u q (1 - q) / S, q each user's chance
    of staying unserved.  Each of the 40 (placement, column) means must
    lie within 4.5 standard errors: under the normal approximation a
    correct kernel fails a case with probability about 40 * 6.8e-6, or
    3e-4."""
    config = ExperimentConfig(num_cells=cells, num_prbs=1, radius_m=400.0,
                              users_per_cell=users, trials=20,
                              subframes=200, seed=5)
    result = run_sweep(config, "users", values=(users,))
    stream = StreamSpec(rate_bps=config.stream_rate_bps)
    expected = {"SC": 0.0, "MC": 0.0}
    for trial in range(config.trials):
        # The README's seeding: placement (point, trial) draws its users
        # from SeedSequence(seed, spawn_key=(point, trial, 0)).
        scenario = generate_scenario(
            cells, config.radius_m, users, np.random.default_rng(
                np.random.SeedSequence(config.seed,
                                       spawn_key=(0, trial, 0))))
        miss = 1.0 - cover_probability(scenario, config.channel, stream)
        unserved = {
            "SC": miss[scenario.primary_cell, np.arange(scenario.num_users)],
            "MC": miss.prod(axis=0),
        }
        for column, q in unserved.items():
            mean = result.counts[0, result.columns.index(column), trial].mean()
            error = math.sqrt(np.sum(q * (1.0 - q)) / config.subframes)
            assert abs(mean - q.sum()) <= 4.5 * error, (column, trial, mean,
                                                         q.sum())
            expected[column] += q.sum()
    # Neither column is trivial: each leaves users unserved on average.
    assert min(expected.values()) > config.trials


def test_each_link_covers_with_its_closed_form_probability():
    """Over 2,000 sub-frames of one 7-cell, 4-PRB placement, each link
    (cell, PRB, user) covers its user a Binomial(2000, p[c, u]) number
    of times.  Pearson's statistic over the links that expect at least 5
    hits and 5 misses has one degree of freedom per link; the kernel is
    rejected only below an upper-tail p-value of 1e-4 (Wilson-Hilferty),
    fixed beforehand."""
    scenario = generate_scenario(7, 400.0, 30, 8)
    params, stream = ChannelParams(), StreamSpec()
    num_prbs, subframes = 4, 2000
    seeds = [np.random.SeedSequence(21, spawn_key=(t,))
             for t in range(subframes)]
    num_users = scenario.num_users
    hits = np.zeros((scenario.num_cells, num_prbs, num_users), dtype=np.int64)

    def count(words, owners, earlier):
        # A column that records each batch's coverage bits and serves no
        # one.
        bits = np.unpackbits(words.view(np.uint8), axis=-1,
                             bitorder="little")[..., :num_users]
        hits[...] += bits.sum(axis=0, dtype=np.int64)
        return (np.zeros((len(words), scenario.num_cells), dtype=np.int64),
                np.zeros(len(words), dtype=np.int64))

    counts = list(unserved_counts([(scenario, seeds)], params, stream,
                                  num_prbs, (Column("HITS", count, ""),)))
    assert np.array_equal(counts[0], np.full((1, subframes), num_users))
    p = np.broadcast_to(cover_probability(scenario, params, stream)[:, None],
                        hits.shape)
    expected = subframes * p
    tested = (expected >= 5) & (subframes - expected >= 5)
    links = int(np.count_nonzero(tested))
    assert links >= 200
    chi2 = float(np.sum((hits[tested] - expected[tested]) ** 2
                        / (expected[tested] * (1.0 - p[tested]))))
    # Wilson-Hilferty: (chi2 / k)^(1/3) is nearly normal.
    scale = 2.0 / (9.0 * links)
    z = ((chi2 / links) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)
    p_value = 0.5 * math.erfc(z / math.sqrt(2.0))
    assert p_value >= 1e-4, (chi2, links)
