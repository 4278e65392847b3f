"""Problem representation for one-PRB-per-cell multicast coverage.

A coverage instance records, for every (cell, PRB) pair, the set of users
that could decode the multicast stream if that PRB carried it.  An
allocation picks exactly one PRB per cell.  Under multi-connectivity (MC)
a user is served when any chosen pair covers it; under single
connectivity (SC) only when its own primary cell's chosen PRB does.
`served` evaluates both rules.

Instances and allocations are immutable after construction, so every
operation here is a pure function that is safe to call concurrently.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


class InstanceError(ValueError):
    """Coverage-instance data violates a structural invariant."""


class AllocationError(ValueError):
    """An allocation does not fit the instance it is evaluated against."""


@dataclass(frozen=True)
class Allocation:
    """One chosen PRB index per cell; entry c is the PRB used by cell c."""

    chosen: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple(int(j) for j in self.chosen))

    def __len__(self) -> int:
        return len(self.chosen)

    def __iter__(self):
        return iter(self.chosen)

    def __getitem__(self, cell: int) -> int:
        return self.chosen[cell]


class CoverageInstance:
    """Universe of ``num_users`` users plus N candidate coverage sets per cell.

    The canonical store is a boolean membership tensor of shape
    ``[num_cells, prbs_per_cell, num_users]``; the set-of-user-ids view in
    :attr:`collections` is materialized lazily.  User, cell and PRB indices
    are all 0-based and dense.
    """

    __slots__ = ("_membership", "_primary", "_collections")

    def __init__(
        self,
        num_users: int,
        collections: Iterable[Iterable[Iterable[int]]],
        primary_cell: Iterable[int],
    ):
        # Every check on the counts, the shape and the primary cells runs
        # before the tensor is allocated, so a document claiming a huge
        # num_users fails on its primary cells, not on memory.
        num_users = whole_number(num_users, "num_users")
        if num_users < 0:
            raise InstanceError("num_users must be >= 0")
        cells = [list(cell) for cell in collections]
        if not cells:
            raise InstanceError("need at least one cell")
        num_prbs = len(cells[0])
        for c, cell in enumerate(cells):
            if len(cell) != num_prbs:
                raise InstanceError(
                    f"ragged collections: cell {c} has {len(cell)} PRB sets, "
                    f"cell 0 has {num_prbs}"
                )
        if num_prbs < 1:
            raise InstanceError("need at least one PRB set per cell")
        primary = _primary_array(primary_cell)
        _check_primary(primary, num_users, len(cells))

        membership = np.zeros((len(cells), num_prbs, num_users), dtype=bool)
        for c, cell in enumerate(cells):
            for j, users in enumerate(cell):
                for u in users:
                    u = whole_number(u, "user id")
                    if not 0 <= u < num_users:
                        raise InstanceError(
                            f"user id {u} out of range [0, {num_users}) "
                            f"in coverage set of cell {c}, PRB {j}"
                        )
                    membership[c, j, u] = True
        self._store(membership, primary)

    def _store(self, membership: np.ndarray, primary: np.ndarray) -> None:
        membership.setflags(write=False)
        primary.setflags(write=False)
        self._membership = membership
        self._primary = primary
        self._collections: tuple[tuple[frozenset[int], ...], ...] | None = None

    @classmethod
    def from_membership(
        cls, membership: np.ndarray, primary_cell: Iterable[int]
    ) -> "CoverageInstance":
        """Build an instance directly from a boolean [C, N, M] tensor.

        The tensor is copied.  Primary cells must be whole numbers, as
        for the constructor; an integer array is taken as it is.
        """
        membership = np.asarray(membership, dtype=bool)
        if membership.ndim != 3:
            raise InstanceError(
                f"membership tensor must be [cells, prbs, users], "
                f"got shape {membership.shape}"
            )
        num_cells, num_prbs, num_users = membership.shape
        if num_cells < 1 or num_prbs < 1:
            raise InstanceError("need at least one cell and one PRB per cell")
        primary = _primary_array(primary_cell)
        _check_primary(primary, num_users, num_cells)
        obj = cls.__new__(cls)
        obj._store(membership.copy(), primary)
        return obj

    @property
    def num_users(self) -> int:
        return self._membership.shape[2]

    @property
    def num_cells(self) -> int:
        return self._membership.shape[0]

    @property
    def prbs_per_cell(self) -> int:
        return self._membership.shape[1]

    @property
    def collections(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """Per cell, the ordered user-id sets covered by each PRB."""
        if self._collections is None:
            self._collections = tuple(
                tuple(frozenset(np.flatnonzero(self._membership[c, j]).tolist())
                      for j in range(self.prbs_per_cell))
                for c in range(self.num_cells)
            )
        return self._collections

    @property
    def primary_cell(self) -> np.ndarray:
        """Read-only array mapping user id -> primary cell index."""
        return self._primary

    def membership_matrix(self) -> np.ndarray:
        """Read-only boolean tensor [cells, prbs, users] of coverage."""
        return self._membership

    def __repr__(self) -> str:
        return (f"CoverageInstance(M={self.num_users}, C={self.num_cells}, "
                f"N={self.prbs_per_cell})")


def pack_users(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean [..., M] array into uint64 words [..., ceil(M / 64)].

    Each user is one bit and padding bits are zero, so unions and
    intersections are word-wise OR/AND and set sizes are
    ``np.bitwise_count`` sums.  A C-contiguous last axis that is already
    a multiple of 64 long is packed without a copy; any other layout is
    copied first, as the uint64 view needs contiguous bytes.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    num_users = mask.shape[-1]
    padded_len = -(-num_users // 64) * 64
    if padded_len != num_users:
        padded = np.zeros(mask.shape[:-1] + (padded_len,), dtype=bool)
        padded[..., :num_users] = mask
        mask = padded
    return np.packbits(mask, axis=-1, bitorder="little").view(np.uint64)


def whole_number(value, what: str) -> int:
    """``value`` as an int; InstanceError unless it is a whole number.

    Integral floats such as 2.0 pass; fractions, non-finite numbers,
    bools and strings do not, so no id is silently truncated.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not whole or isinstance(value, (bool, np.bool_)):
        raise InstanceError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _primary_array(primary_cell: Iterable[int]) -> np.ndarray:
    if (isinstance(primary_cell, np.ndarray)
            and primary_cell.dtype.kind in "iu"):  # no per-id check
        return primary_cell.astype(np.intp)
    return np.asarray([whole_number(p, "primary cell") for p in primary_cell],
                      dtype=np.intp)


def _check_primary(primary: np.ndarray, num_users: int, num_cells: int) -> None:
    if primary.shape != (num_users,):
        raise InstanceError(
            f"primary_cell must assign every one of the {num_users} users, "
            f"got {primary.shape[0] if primary.ndim == 1 else primary.shape}"
        )
    if num_users and (primary.min() < 0 or primary.max() >= num_cells):
        bad = int(primary[(primary < 0) | (primary >= num_cells)][0])
        raise InstanceError(
            f"primary cell index {bad} out of range [0, {num_cells})"
        )


def served(instance: CoverageInstance,
           alloc: Allocation) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks ``(mc, sc)`` over the users that ``alloc`` serves.

    ``mc[k]`` holds when some cell's chosen PRB covers user k, ``sc[k]``
    only when its primary cell's chosen PRB does, so ``sc`` implies
    ``mc``.  Served counts are ``mask.sum()``.  Raises AllocationError
    unless ``alloc`` picks one in-range PRB per cell.  This is plain
    boolean-tensor code, apart from the packed solvers, so tests can
    hold every solver's objective to it.
    """
    if len(alloc) != instance.num_cells:
        raise AllocationError(
            f"allocation length {len(alloc)} != {instance.num_cells} cells"
        )
    for c, j in enumerate(alloc):
        if not 0 <= j < instance.prbs_per_cell:
            raise AllocationError(
                f"PRB index {j} for cell {c} out of range "
                f"[0, {instance.prbs_per_cell})"
            )
    covered = instance.membership_matrix()[np.arange(instance.num_cells),
                                           list(alloc.chosen)]
    return (covered.any(axis=0),
            covered[instance.primary_cell, np.arange(instance.num_users)])
