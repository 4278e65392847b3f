import threading

import numpy as np
import pytest

from mcms import CoverageInstance
from mcms.kernel import unserved_counts


def make_gap_instance() -> CoverageInstance:
    """Two-cell instance where greedy lands on 6 but the optimum is 7.

    Greedy grabs cell 1's PRB 0 (covers 5 users), after which the best
    cell 0 can add is 1 more; picking cell 0 PRB 0 and cell 1 PRB 1
    instead covers all 7.
    """
    return CoverageInstance(
        num_users=7,
        collections=[
            [{0, 1, 2, 3}, {4, 5}],
            [{0, 1, 2, 3, 4}, {4, 5, 6}],
        ],
        primary_cell=[0] * 7,
    )


def random_instance(
    rng,
    num_users: int = 30,
    num_cells: int = 4,
    num_prbs: int = 3,
    density: float = 0.3,
) -> CoverageInstance:
    """Random coverage instance; membership entries are i.i.d. Bernoulli."""
    rng = np.random.default_rng(rng)
    membership = rng.random((num_cells, num_prbs, num_users)) < density
    primary = rng.integers(0, num_cells, size=num_users)
    return CoverageInstance.from_membership(membership, primary)


def coverage_sets(instance: CoverageInstance):
    """Per cell, per PRB, the frozenset of user ids the PRB covers, read
    from the membership tensor."""
    return tuple(tuple(frozenset(np.flatnonzero(users).tolist())
                       for users in cell)
                 for cell in instance.membership_matrix())


def run_subframe(scenario, params, stream, rng, num_prbs=4):
    """Unserved (MC, SC) counts of one sub-frame drawn from ``rng``: the
    sweep kernel on a stream of one placement with one sub-frame."""
    sc, mc = next(unserved_counts([(scenario, [rng])], params, stream,
                                  num_prbs))
    return int(mc[0]), int(sc[0])


def assert_same_sweep(got, want):
    """Two sweep results are equal: axis, config, swept values and every
    count.  `SweepResult` holds an array, so ``==`` cannot compare them."""
    assert (got.axis, got.config, got.values) == (want.axis, want.config,
                                                   want.values)
    assert got.counts.shape == want.counts.shape
    assert np.array_equal(got.counts, want.counts)


@pytest.fixture
def gap_instance() -> CoverageInstance:
    return make_gap_instance()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def helpers_alive():
    """Names of the kernel's helper threads alive now."""
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("mcms-draw")]


@pytest.fixture(autouse=True)
def no_helper_thread_left_alive():
    """Fail any test that leaves one of the kernel's helper threads
    alive: the kernel shuts its pool down when it ends or is closed."""
    yield
    assert not helpers_alive(), helpers_alive()
