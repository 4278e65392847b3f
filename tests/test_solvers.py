"""Solver tests, cross-checked against independent brute-force oracles.

The reference implementations here deliberately avoid the library's
internals (plain Python sets, itertools) so a bug in the fast paths
cannot hide in its own oracle.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcms import (
    Allocation,
    CoverageInstance,
    EnumerationBudgetError,
    greedy_bound,
    served,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)
from mcms.harness import random_instance


def reference_exact(inst):
    """Set-based enumeration of every allocation; first maximizer wins."""
    best_alloc = None
    best = -1
    for combo in itertools.product(range(inst.prbs_per_cell),
                                   repeat=inst.num_cells):
        covered = set()
        for c, j in enumerate(combo):
            covered |= inst.collections[c][j]
        if len(covered) > best:
            best = len(covered)
            best_alloc = combo
    return best_alloc, best


# greedy


def test_greedy_single_cell_takes_largest_set():
    inst = CoverageInstance(3, [[{0}, {0, 1}, {2}]], [0, 0, 0])
    res = solve_greedy(inst)
    assert res.alloc.chosen == (1,)
    assert res.objective == 2
    assert res.per_step_marginals == (2,)


def test_greedy_on_gap_instance(gap_instance):
    res = solve_greedy(gap_instance)
    assert res.objective == 6
    assert res.alloc.chosen == (1, 0)
    assert res.per_step_marginals == (5, 1)


def test_greedy_disjoint_sets_is_optimal(rng):
    # no overlap anywhere, so per-cell maxima are globally optimal
    for _ in range(20):
        num_cells = int(rng.integers(1, 4))
        num_prbs = int(rng.integers(1, 4))
        pool = iter(range(1000))
        collections = [
            [set(itertools.islice(pool, int(rng.integers(0, 4))))
             for _ in range(num_prbs)]
            for _ in range(num_cells)
        ]
        used = sorted(set().union(*[s for cell in collections for s in cell]))
        relabel = {u: i for i, u in enumerate(used)}
        collections = [[{relabel[u] for u in s} for s in cell]
                       for cell in collections]
        num_users = max(1, len(used))
        inst = CoverageInstance(num_users, collections, [0] * num_users)
        assert solve_greedy(inst).objective == solve_exact(inst).objective


def test_greedy_marginals_non_increasing_and_sum_to_objective(rng):
    for _ in range(100):
        inst = random_instance(rng,
                               num_users=int(rng.integers(1, 40)),
                               num_cells=int(rng.integers(1, 6)),
                               num_prbs=int(rng.integers(1, 5)))
        res = solve_greedy(inst)
        marg = res.per_step_marginals
        assert len(marg) == inst.num_cells
        assert all(a >= b for a, b in zip(marg, marg[1:]))
        assert sum(marg) == res.objective
        assert res.objective == served(inst, res.alloc)[0].sum()


def test_greedy_tie_break_lowest_cell_then_lowest_prb():
    # every set has gain 1: cell 0 PRB 0 must win the first step
    inst = CoverageInstance(3, [[{0}, {1}], [{0}, {1}]], [0, 0, 0])
    res = solve_greedy(inst)
    assert res.alloc.chosen == (0, 1)  # step 2: cell 1 PRB 0 has gain 0, PRB 1 gains 1
    inst2 = CoverageInstance(2, [[{0}, {0}], [{0}, {0}]], [0, 0])
    assert solve_greedy(inst2).alloc.chosen == (0, 0)


def test_greedy_zero_gain_cells_still_allocate():
    inst = CoverageInstance(1, [[{0}, set()], [set(), set()]], [0])
    res = solve_greedy(inst)
    assert res.alloc.chosen == (0, 0)
    assert res.per_step_marginals == (1, 0)


def test_greedy_is_deterministic(rng):
    inst = random_instance(rng, num_users=25, num_cells=4, num_prbs=3)
    assert solve_greedy(inst) == solve_greedy(inst)


# exact


def test_exact_on_gap_instance(gap_instance):
    res = solve_exact(gap_instance)
    assert res.objective == 7
    assert res.alloc.chosen == (0, 1)


def test_exact_single_cell_equals_greedy(rng):
    for _ in range(20):
        inst = random_instance(rng, num_users=15, num_cells=1, num_prbs=4)
        assert solve_exact(inst).objective == solve_greedy(inst).objective


def test_exact_single_prb_forced_allocation(rng):
    inst = random_instance(rng, num_users=20, num_cells=3, num_prbs=1)
    res = solve_exact(inst)
    assert res.alloc.chosen == (0, 0, 0)
    union = frozenset().union(*(cell[0] for cell in inst.collections))
    assert res.objective == len(union)


def test_exact_tie_break_lexicographic():
    # both PRBs of both cells cover the same single user
    inst = CoverageInstance(1, [[{0}, {0}], [{0}, {0}]], [0])
    assert solve_exact(inst).alloc.chosen == (0, 0)


def test_exact_matches_reference_enumeration(rng):
    for _ in range(50):
        inst = random_instance(rng,
                               num_users=int(rng.integers(1, 20)),
                               num_cells=int(rng.integers(1, 4)),
                               num_prbs=int(rng.integers(1, 4)),
                               density=float(rng.uniform(0.1, 0.7)))
        ref_alloc, ref_best = reference_exact(inst)
        res = solve_exact(inst)
        assert res.objective == ref_best == served(inst, res.alloc)[0].sum()
        assert res.alloc.chosen == ref_alloc


def test_exact_budget_error_reports_size():
    inst = CoverageInstance(1, [[{0}] * 4] * 7, [0])
    with pytest.raises(EnumerationBudgetError) as err:
        solve_exact(inst, budget=1000)
    assert err.value.num_allocations == 4 ** 7
    assert err.value.budget == 1000


# SC baseline


def test_sc_baseline_single_cell():
    inst = CoverageInstance(2, [[{0}, {0, 1}]], [0, 0])
    res = solve_sc_baseline(inst)
    assert res.alloc.chosen == (1,)
    assert res.objective == 2


def test_sc_baseline_objective_is_sc_objective(gap_instance):
    res = solve_sc_baseline(gap_instance)
    assert res.alloc.chosen == (0, 0)
    assert res.objective == 4
    assert res.objective == served(gap_instance, res.alloc)[1].sum()


def test_sc_baseline_cannot_serve_user_covered_only_elsewhere():
    # user 1's primary is cell 1, but only cell 0's sets contain it
    inst = CoverageInstance(2, [[{0, 1}], [{0}]], [0, 1])
    res = solve_sc_baseline(inst)
    assert 1 not in set(np.flatnonzero(
        [k in inst.collections[inst.primary_cell[k]][res.alloc[inst.primary_cell[k]]]
         for k in range(2)]
    ))
    for alloc in itertools.product(range(1), repeat=2):
        assert served(inst, Allocation(alloc))[1].sum() <= 1


def test_sc_baseline_never_beats_exact_mc(rng):
    for _ in range(50):
        inst = random_instance(rng,
                               num_users=int(rng.integers(1, 25)),
                               num_cells=int(rng.integers(1, 4)),
                               num_prbs=int(rng.integers(1, 4)))
        assert solve_sc_baseline(inst).objective <= solve_exact(inst).objective


def test_sc_baseline_is_optimal_for_sc(rng):
    # cells are decoupled under SC, so enumerating allocations cannot win
    for _ in range(25):
        inst = random_instance(rng, num_users=12, num_cells=3, num_prbs=3)
        best = max(
            served(inst, Allocation(a))[1].sum()
            for a in itertools.product(range(3), repeat=3)
        )
        assert solve_sc_baseline(inst).objective == best


# approximation bound


def test_greedy_bound_values():
    # ceil(opt / 2): the partition-matroid greedy's bound
    assert greedy_bound(0) == 0
    assert greedy_bound(1) == 1
    assert greedy_bound(2) == 1
    assert greedy_bound(7) == 4
    assert greedy_bound(100) == 50


def half_gap_instance(block, extra_cells=0):
    """The greedy serves exactly half of the optimum.

    Cell 0 covers block A or block B, cell 1 covers A or nothing, and
    ``extra_cells`` more cells cover nothing.  The greedy ties A and B,
    takes A for cell 0 and then has nothing to add; the optimum gives B
    to cell 0 and A to cell 1.
    """
    a = set(range(block))
    b = set(range(block, 2 * block))
    collections = ([[a, b], [a, set()]]
                   + [[set(), set()] for _ in range(extra_cells)])
    return CoverageInstance(2 * block, collections, [0] * (2 * block))


@settings(max_examples=40, deadline=None)
@given(block=st.integers(1, 130), extra_cells=st.integers(0, 3))
def test_greedy_is_only_a_half_approximation(block, extra_cells):
    inst = half_gap_instance(block, extra_cells)
    greedy = solve_greedy(inst)
    exact = solve_exact(inst)
    assert greedy.objective == block
    assert exact.objective == 2 * block
    assert exact.alloc.chosen[:2] == (1, 0)
    assert greedy.objective == greedy_bound(exact.objective)
    # the (1 - 1/e) claim this family refutes
    assert greedy.objective < math.ceil(
        (1 - 1 / math.e) * exact.objective - 1e-9)


def test_greedy_meets_bound_on_random_instances(rng):
    for _ in range(200):
        inst = random_instance(rng,
                               num_users=int(rng.integers(1, 25)),
                               num_cells=int(rng.integers(1, 5)),
                               num_prbs=int(rng.integers(1, 4)),
                               density=float(rng.uniform(0.05, 0.9)))
        g = solve_greedy(inst).objective
        opt = solve_exact(inst).objective
        assert opt >= g >= greedy_bound(opt)
