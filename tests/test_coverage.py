"""Problem-representation tests: construction, validation, served sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcms import (
    Allocation,
    AllocationError,
    CoverageInstance,
    InstanceError,
    served,
)
from mcms.coverage import pack_users


def served_ids(inst, alloc):
    """The MC and SC served users as sets of ids."""
    return tuple(set(np.flatnonzero(mask).tolist())
                 for mask in served(inst, alloc))


def test_minimal_instance_is_valid():
    inst = CoverageInstance(3, [[{0, 1, 2}]], [0, 0, 0])
    assert inst.num_users == 3
    assert inst.num_cells == 1
    assert inst.prbs_per_cell == 1


def test_user_id_out_of_range_rejected():
    with pytest.raises(InstanceError, match="out of range"):
        CoverageInstance(2, [[{5}]], [0, 0])


def test_ragged_collections_rejected():
    # cell 1 has one PRB set where cell 0 has two
    with pytest.raises(InstanceError, match="ragged"):
        CoverageInstance(2, [[{0}, {1}], [{0}]], [0, 0])


def test_primary_assignment_must_cover_every_user():
    with pytest.raises(InstanceError):
        CoverageInstance(3, [[{0, 1, 2}]], [0, 0])
    with pytest.raises(InstanceError):
        CoverageInstance(2, [[{0}]], [0, 3])


def test_at_least_one_cell_and_prb():
    with pytest.raises(InstanceError):
        CoverageInstance(1, [], [0])
    with pytest.raises(InstanceError):
        CoverageInstance(1, [[]], [0])


def test_collections_view_round_trips():
    inst = CoverageInstance(4, [[{0, 1}, {1, 2}], [{2, 3}, {0, 3}]], [0, 0, 1, 1])
    assert inst.collections == (
        (frozenset({0, 1}), frozenset({1, 2})),
        (frozenset({2, 3}), frozenset({0, 3})),
    )


def test_from_membership_matches_set_constructor():
    member = np.zeros((2, 2, 4), dtype=bool)
    member[0, 0, [0, 1]] = True
    member[0, 1, [1, 2]] = True
    member[1, 0, [2, 3]] = True
    member[1, 1, [0, 3]] = True
    a = CoverageInstance.from_membership(member, [0, 0, 1, 1])
    b = CoverageInstance(4, [[{0, 1}, {1, 2}], [{2, 3}, {0, 3}]], [0, 0, 1, 1])
    assert a.collections == b.collections
    assert np.array_equal(a.membership_matrix(), b.membership_matrix())


def test_from_membership_rejects_bad_shapes():
    with pytest.raises(InstanceError):
        CoverageInstance.from_membership(np.zeros((2, 3), dtype=bool), [0])
    with pytest.raises(InstanceError):
        CoverageInstance.from_membership(np.zeros((1, 1, 2), dtype=bool), [0, 9])


@pytest.mark.parametrize("primary", [[0, 1.7], np.array([0.0, 0.5]),
                                     [0, True], np.array([False, True]),
                                     [0, "1"]])
def test_from_membership_rejects_non_integral_primary_cells(primary):
    with pytest.raises(InstanceError, match="whole number"):
        CoverageInstance.from_membership(np.ones((2, 1, 2), dtype=bool),
                                         primary)


@pytest.mark.parametrize("primary", [[0, 1], (0, 1.0), np.array([0, 1]),
                                     np.array([0, 1], dtype=np.uint8),
                                     np.array([0.0, 1.0]), iter([0, 1])])
def test_from_membership_accepts_whole_primary_cells(primary):
    inst = CoverageInstance.from_membership(np.ones((2, 1, 2), dtype=bool),
                                            primary)
    assert inst.primary_cell.tolist() == [0, 1]
    assert inst.primary_cell.dtype == np.intp


def test_membership_is_immutable():
    inst = CoverageInstance(2, [[{0}]], [0, 0])
    with pytest.raises(ValueError):
        inst.membership_matrix()[0, 0, 1] = True
    with pytest.raises(ValueError):
        inst.primary_cell[0] = 1


def test_allocation_coerces_to_plain_ints():
    alloc = Allocation(np.array([1, 0], dtype=np.int64))
    assert alloc.chosen == (1, 0)
    assert all(type(j) is int for j in alloc)
    assert len(alloc) == 2
    assert alloc[0] == 1


def test_validate_allocation_length_and_range():
    inst = CoverageInstance(2, [[{0}, {1}]], [0, 0])
    served(inst, Allocation((1,)))
    with pytest.raises(AllocationError, match="length"):
        served(inst, Allocation((0, 0)))
    with pytest.raises(AllocationError, match="out of range"):
        served(inst, Allocation((2,)))
    with pytest.raises(AllocationError, match="out of range"):
        served(inst, Allocation((-1,)))


def test_served_mc_single_set():
    inst = CoverageInstance(3, [[{0, 1, 2}]], [0, 0, 0])
    assert served_ids(inst, Allocation((0,)))[0] == {0, 1, 2}


def test_served_mc_empty_coverage():
    inst = CoverageInstance(2, [[set()], [set()]], [0, 1])
    mc, sc = served(inst, Allocation((0, 0)))
    assert mc.tolist() == sc.tolist() == [False, False]


def test_served_mc_is_the_union():
    inst = CoverageInstance(4, [[{0, 1}, {1, 2}], [{2, 3}, {0, 3}]], [0, 0, 1, 1])
    assert served_ids(inst, Allocation((0, 0)))[0] == {0, 1, 2, 3}
    # {1,2} | {0,3} also covers everyone
    assert served(inst, Allocation((1, 1)))[0].sum() == 4


def test_served_sc_uses_only_the_primary_cell():
    # user 1 appears in cell 0's set, but its primary is cell 1 whose
    # chosen set excludes it
    inst = CoverageInstance(2, [[{0, 1}], [{0}]], [0, 1])
    assert served_ids(inst, Allocation((0, 0)))[1] == {0}


def test_served_sc_single_primary_collapse():
    inst = CoverageInstance(4, [[{0, 1}, {1, 2}], [{2, 3}, {0, 3}]], [0] * 4)
    for j in range(2):
        for j2 in range(2):
            assert (served_ids(inst, Allocation((j, j2)))[1]
                    == inst.collections[0][j])


def test_served_under_both_rules():
    inst = CoverageInstance(4, [[{0, 1}, {1, 2}], [{2, 3}, {0, 3}]], [0, 0, 1, 1])
    # user 0 not in {1,2}; user 2 not in {0,3}
    assert served_ids(inst, Allocation((1, 1))) == ({0, 1, 2, 3}, {1, 3})


def _random_case(rng):
    num_cells = int(rng.integers(1, 5))
    num_prbs = int(rng.integers(1, 4))
    num_users = int(rng.integers(1, 30))
    member = rng.random((num_cells, num_prbs, num_users)) < rng.uniform(0.1, 0.9)
    primary = rng.integers(0, num_cells, num_users)
    inst = CoverageInstance.from_membership(member, primary)
    alloc = Allocation(tuple(rng.integers(0, num_prbs, num_cells)))
    return inst, alloc


def test_served_sc_subset_of_served_mc(rng):
    for _ in range(200):
        inst, alloc = _random_case(rng)
        mc, sc = served(inst, alloc)
        assert not (sc & ~mc).any()


def test_objective_bounds(rng):
    # MC objective is at most M and at least the largest chosen set
    for _ in range(100):
        inst, alloc = _random_case(rng)
        mc, sc = (int(mask.sum()) for mask in served(inst, alloc))
        assert 0 <= mc <= inst.num_users
        assert mc >= max(len(inst.collections[c][j]) for c, j in enumerate(alloc))
        assert sc <= mc


def test_objective_invariant_under_user_permutation(rng):
    # relabel user k as perm[k] everywhere; the served masks move with
    # the users and nothing else changes
    for _ in range(50):
        inst, alloc = _random_case(rng)
        perm = rng.permutation(inst.num_users)
        member = inst.membership_matrix()[:, :, np.argsort(perm)]
        primary = np.empty(inst.num_users, dtype=np.intp)
        primary[perm] = inst.primary_cell
        relabeled = CoverageInstance.from_membership(member, primary)
        for before, after in zip(served(inst, alloc),
                                 served(relabeled, alloc)):
            assert np.array_equal(after[perm], before)


@st.composite
def instance_and_alloc(draw):
    c = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 12))
    bits = draw(st.lists(st.booleans(), min_size=c * n * m, max_size=c * n * m))
    member = np.array(bits, dtype=bool).reshape(c, n, m)
    primary = draw(st.lists(st.integers(0, c - 1), min_size=m, max_size=m))
    alloc = draw(st.lists(st.integers(0, n - 1), min_size=c, max_size=c))
    return CoverageInstance.from_membership(member, primary), Allocation(tuple(alloc))


@settings(max_examples=100, deadline=None)
@given(instance_and_alloc())
def test_served_sc_subset_of_served_mc_for_any_allocation(case):
    inst, alloc = case
    mc, sc = served(inst, alloc)
    assert not (sc & ~mc).any()


@settings(max_examples=60, deadline=None)
@given(instance_and_alloc())
def test_served_sets_are_consistent(case):
    # each mask is the rule applied user by user to the set view
    inst, alloc = case
    mc, sc = served(inst, alloc)
    assert mc.dtype == sc.dtype == bool
    assert mc.shape == sc.shape == (inst.num_users,)
    sets = [inst.collections[c][j] for c, j in enumerate(alloc)]
    for k in range(inst.num_users):
        assert mc[k] == any(k in s for s in sets)
        assert sc[k] == (k in sets[inst.primary_cell[k]])


def test_enlarging_a_chosen_set_never_hurts_mc(rng):
    for _ in range(50):
        inst, alloc = _random_case(rng)
        before = served(inst, alloc)[0]
        member = inst.membership_matrix().copy()
        c = int(rng.integers(0, inst.num_cells))
        extra = rng.random(inst.num_users) < 0.3
        member[c, alloc[c]] |= extra
        grown = CoverageInstance.from_membership(member, inst.primary_cell)
        assert not (before & ~served(grown, alloc)[0]).any()


def _unpack(words, num_users):
    return np.unpackbits(words.view(np.uint8), axis=-1,
                         bitorder="little")[..., :num_users].astype(bool)


@pytest.mark.parametrize("num_users", [64, 128])
def test_pack_users_accepts_non_contiguous_masks(num_users):
    rng = np.random.default_rng(num_users)
    transposed = (rng.random((num_users, 3)) < 0.5).T
    wide = rng.random((3, num_users + 37)) < 0.5
    keep = np.ones(num_users + 37, dtype=bool)
    keep[rng.choice(num_users + 37, 37, replace=False)] = False
    selected = wide[:, keep]
    for mask in (transposed, selected):
        assert not mask.flags.c_contiguous
        words = pack_users(mask)
        assert words.shape == (3, num_users // 64)
        assert np.array_equal(_unpack(words, num_users), mask)
