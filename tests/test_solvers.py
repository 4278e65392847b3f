"""Solver tests, cross-checked against independent brute-force oracles.

The reference implementations here deliberately avoid the library's
internals (plain Python sets, itertools) so a bug in the fast paths
cannot hide in its own oracle.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcms import (
    CoverageInstance,
    EnumerationBudgetError,
    greedy_bound,
    served,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)
from mcms.coverage import pack_users
from mcms.solvers import exact_search

from conftest import coverage_sets, random_instance


def reference_exact(inst):
    """Set-based enumeration of every allocation; first maximizer wins."""
    best_alloc = None
    best = -1
    sets = coverage_sets(inst)
    for combo in itertools.product(range(inst.prbs_per_cell),
                                   repeat=inst.num_cells):
        covered = set()
        for c, j in enumerate(combo):
            covered |= sets[c][j]
        if len(covered) > best:
            best = len(covered)
            best_alloc = combo
    return best_alloc, best


# greedy


def test_greedy_single_cell_takes_largest_set():
    inst = CoverageInstance(3, [[{0}, {0, 1}, {2}]], [0, 0, 0])
    res = solve_greedy(inst)
    assert res.alloc == (1,)
    assert res.objective == 2


def test_greedy_on_gap_instance(gap_instance):
    res = solve_greedy(gap_instance)
    assert res.objective == 6
    assert res.alloc == (1, 0)


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


def test_greedy_tie_break_lowest_cell_then_lowest_prb():
    # every set has gain 1: cell 0 PRB 0 must win the first step
    inst = CoverageInstance(3, [[{0}, {1}], [{0}, {1}]], [0, 0, 0])
    res = solve_greedy(inst)
    assert res.alloc == (0, 1)  # step 2: cell 1 PRB 0 has gain 0, PRB 1 gains 1
    inst2 = CoverageInstance(2, [[{0}, {0}], [{0}, {0}]], [0, 0])
    assert solve_greedy(inst2).alloc == (0, 0)


def test_greedy_zero_gain_cells_still_allocate():
    inst = CoverageInstance(1, [[{0}, set()], [set(), set()]], [0])
    res = solve_greedy(inst)
    assert res.alloc == (0, 0)


def test_greedy_is_deterministic(rng):
    inst = random_instance(rng, num_users=25, num_cells=4, num_prbs=3)
    assert solve_greedy(inst) == solve_greedy(inst)


# exact


def test_exact_on_gap_instance(gap_instance):
    res = solve_exact(gap_instance)
    assert res.objective == 7
    assert res.alloc == (0, 1)


def test_exact_single_cell_equals_greedy(rng):
    for _ in range(20):
        inst = random_instance(rng, num_users=15, num_cells=1, num_prbs=4)
        assert solve_exact(inst).objective == solve_greedy(inst).objective


def test_exact_single_prb_forced_allocation(rng):
    inst = random_instance(rng, num_users=20, num_cells=3, num_prbs=1)
    res = solve_exact(inst)
    assert res.alloc == (0, 0, 0)
    union = frozenset().union(*(cell[0] for cell in coverage_sets(inst)))
    assert res.objective == len(union)


def test_exact_tie_break_lexicographic():
    # both PRBs of both cells cover the same single user
    inst = CoverageInstance(1, [[{0}, {0}], [{0}, {0}]], [0])
    assert solve_exact(inst).alloc == (0, 0)


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
        assert res.alloc == ref_alloc


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
    assert res.alloc == (1,)
    assert res.objective == 2


def test_sc_baseline_objective_is_sc_objective(gap_instance):
    res = solve_sc_baseline(gap_instance)
    assert res.alloc == (0, 0)
    assert res.objective == 4
    assert res.objective == served(gap_instance, res.alloc)[1].sum()


def test_sc_baseline_cannot_serve_user_covered_only_elsewhere():
    # user 1's primary is cell 1, but only cell 0's sets contain it
    inst = CoverageInstance(2, [[{0, 1}], [{0}]], [0, 1])
    res = solve_sc_baseline(inst)
    sets = coverage_sets(inst)
    assert 1 not in set(np.flatnonzero(
        [k in sets[inst.primary_cell[k]][res.alloc[inst.primary_cell[k]]]
         for k in range(2)]
    ))
    for alloc in itertools.product(range(1), repeat=2):
        assert served(inst, alloc)[1].sum() <= 1


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
            served(inst, a)[1].sum()
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
    assert exact.alloc[:2] == (1, 0)
    assert greedy.objective == greedy_bound(exact.objective)
    # the (1 - 1/e) claim this family refutes
    assert greedy.objective < math.ceil(
        (1 - 1 / math.e) * exact.objective - 1e-9)


def max_k_coverage_instance(sets, num_users, k):
    """The reduction from max-k-coverage: k identical cells, each with one
    PRB per set, so an allocation is a choice of k sets."""
    return CoverageInstance(num_users, [sets] * k, [0] * num_users)


def max_k_coverage(sets, k):
    """Brute-force max-k-coverage: the largest union of at most k sets."""
    return max(len(set().union(*chosen)) for chosen in
               itertools.combinations(sets, min(k, len(sets))))


def greedy_floor(opt, k):
    """Fewest users the classical greedy serves on max-k-coverage with
    optimum ``opt``: ceil((1 - (1 - 1/k)^k) * opt), exactly."""
    return math.ceil((1 - Fraction(k - 1, k) ** k) * opt)


# The max-k-coverage claims must hold on every numpy allowed.
@pytest.mark.numpy_contract
@settings(max_examples=200, deadline=None)
@given(data=st.data(), num_users=st.integers(4, 39),
       num_sets=st.integers(2, 6), k=st.integers(1, 5))
def test_greedy_earns_one_minus_one_over_e_on_max_k_coverage(
        data, num_users, num_sets, k):
    sets = [data.draw(st.sets(st.integers(0, num_users - 1)))
            for _ in range(num_sets)]
    inst = max_k_coverage_instance(sets, num_users, k)
    opt = max_k_coverage(sets, k)
    alloc, found = exact_search(pack_users(inst.membership_matrix()))
    assert found == opt == len(set().union(*(sets[j] for j in alloc)))
    assert solve_exact(inst).objective == opt
    greedy = solve_greedy(inst).objective
    assert opt >= greedy >= greedy_floor(opt, k)
    assert greedy >= math.ceil((1 - 1 / math.e) * opt)


def tight_sets(k):
    """Sets on which the greedy, taking the first maximum, serves exactly
    1 - (1 - 1/k)^k of the optimum: its own sets come first, at the
    lowest PRB indices, and tie with the optimum's k disjoint blocks."""
    if k == 2:  # PRBs [G, A, B]
        return [{0, 1, 4, 5}, set(range(4)), set(range(4, 8))]
    blocks = [range(27 * b, 27 * (b + 1)) for b in range(3)]
    greedy = [{u for block in blocks for u in block[lo:hi]}
              for lo, hi in ((0, 9), (9, 15), (15, 19))]
    return greedy + [set(block) for block in blocks]  # [G1, G2, G3, O1, O2, O3]


# The max-k-coverage claims must hold on every numpy allowed.
@pytest.mark.numpy_contract
@pytest.mark.parametrize("k, num_users, greedy_served",
                         [(2, 8, 6), (3, 81, 57)])
def test_greedy_is_tight_on_max_k_coverage(k, num_users, greedy_served):
    sets = tight_sets(k)
    inst = max_k_coverage_instance(sets, num_users, k)
    greedy = solve_greedy(inst)
    assert greedy.alloc == tuple(range(k))
    assert greedy.objective == greedy_served
    assert solve_exact(inst).objective == num_users
    assert max_k_coverage(sets, k) == num_users
    assert Fraction(greedy_served, num_users) == 1 - Fraction(k - 1, k) ** k


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
