"""Acceptance suite: the end-to-end guarantees this package promises.

Each test prints one PASS line with its measured evidence; a failure
anywhere is a real defect, not a tolerance to retune.
"""

import subprocess
import sys
import time

import numpy as np

from mcms import (
    ChannelParams,
    ExperimentConfig,
    StreamSpec,
    derive_instance,
    generate_scenario,
    greedy_bound,
    run_sweep,
    sample_rates,
    served,
    solve_exact,
    solve_greedy,
)

from conftest import make_gap_instance, random_instance


def test_greedy_approximation_bound_holds_everywhere():
    # >= 1000 random instances, zero tolerance for bound violations
    rng = np.random.default_rng(2024)
    n = 1000
    t0 = time.time()
    violations = 0
    for _ in range(n):
        inst = random_instance(
            rng,
            num_users=int(rng.integers(1, 26)),
            num_cells=int(rng.integers(1, 6)),
            num_prbs=int(rng.integers(1, 5)),
            density=float(rng.uniform(0.05, 0.95)),
        )
        greedy_result, exact_result = solve_greedy(inst), solve_exact(inst)
        greedy, opt = greedy_result.objective, exact_result.objective
        # each solver's objective is what the evaluator counts
        for result in (greedy_result, exact_result):
            assert result.objective == served(inst, result.alloc)[0].sum()
        if not (opt >= greedy >= greedy_bound(opt)):
            violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 10.0
    print(f"\nPASS: greedy within 1/2 of optimum on {n}/{n} "
          f"random instances in {elapsed:.1f}s")


def test_known_gap_instance_exact_values():
    inst = make_gap_instance()
    greedy = solve_greedy(inst)
    exact = solve_exact(inst)
    assert greedy.objective == 6
    assert exact.objective == 7
    print(f"\nPASS: known-gap instance gives greedy={greedy.objective}, "
          f"exact={exact.objective}")


def test_single_connectivity_serves_subset_of_multi():
    rng = np.random.default_rng(41)
    n = 500
    for _ in range(n):
        inst = random_instance(
            rng,
            num_users=int(rng.integers(1, 30)),
            num_cells=int(rng.integers(1, 6)),
            num_prbs=int(rng.integers(1, 5)),
            density=float(rng.uniform(0.05, 0.95)),
        )
        alloc = rng.integers(0, inst.prbs_per_cell, inst.num_cells)
        mc, sc = served(inst, alloc)
        assert not (sc & ~mc).any()
    print(f"\nPASS: the SC served users were a subset of the MC ones on "
          f"{n}/{n} random allocations")


def test_unserved_user_trends_over_default_sweeps():
    # full default sweeps: 20 trials x 100 subframes = 2000 samples/point
    config = ExperimentConfig()
    t0 = time.time()
    users_sweep = run_sweep(config, "users")
    radius_sweep = run_sweep(config, "radius")
    elapsed = time.time() - t0
    assert elapsed < 300.0

    def means(result):
        # value -> (SC, MC) means, each over the point's samples
        return {value: tuple(float(column.mean())
                             for column in point.reshape(2, -1))
                for value, point in zip(result.values, result.counts)}

    users, radius = means(users_sweep), means(radius_sweep)
    # calibration anchor: mid-sweep SC mean sits in the visible regime
    anchor = users[175.0][0]
    assert 5.0 <= anchor <= 60.0

    for result in (users_sweep, radius_sweep):
        assert result.counts[0, 0].size >= 2000
    for sc, mc in (*users.values(), *radius.values()):
        assert mc <= sc

    sc_200, sc_400 = radius[200.0][0], radius[400.0][0]
    gap_200 = sc_200 - radius[200.0][1]
    gap_400 = sc_400 - radius[400.0][1]
    assert sc_400 > sc_200
    assert gap_400 > gap_200

    print(f"\nPASS: trends over {len(users)} user points and "
          f"{len(radius)} radius points in {elapsed:.0f}s "
          f"(anchor SC={anchor:.2f}, "
          f"coordination gap {gap_200:.2f} -> {gap_400:.2f})")


def test_cli_sweep_is_byte_deterministic(tmp_path):
    args = [sys.executable, "-m", "mcms", "sweep-users", "--seed", "1",
            "--trials", "2", "--subframes", "5"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        r = subprocess.run(args + ["--out", str(p)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert a.decode().splitlines()[0] == "users,SC,MC"
    print("\nPASS: repeated seeded CLI sweeps produced byte-identical CSVs")


def test_exact_objective_never_grows_with_stream_rate():
    # same realization, doubled rate requirement: coverage can only shrink
    params = ChannelParams()
    n = 100
    for i in range(n):
        scenario = generate_scenario(
            7, 300.0, 10, np.random.default_rng((500, i, 0))
        )
        rates = sample_rates(scenario, params,
                             np.random.default_rng((500, i, 1)), num_prbs=2)
        rate = float(np.random.default_rng((500, i, 2)).uniform(4e5, 2e6))
        at_rate = solve_exact(derive_instance(scenario, rates,
                                              StreamSpec(rate_bps=rate)))
        doubled = solve_exact(derive_instance(scenario, rates,
                                              StreamSpec(rate_bps=2 * rate)))
        assert doubled.objective <= at_rate.objective
    print(f"\nPASS: doubling the stream rate never increased the exact "
          f"objective ({n}/{n} realizations)")
