"""Solvers for one-PRB-per-cell coverage and plain maximum coverage.

`solve_greedy` is the cross-cell greedy: each step scans every
(cell, PRB) pair of the cells not yet assigned and commits the pair
covering the most still-uncovered users.  It returns an allocation whose
union coverage is at least (1 - 1/e) of the optimum.  `solve_exact` is a
brute-force oracle over all N^C allocations, usable for small instances
and for auditing the greedy.  `solve_sc_baseline` models cells that
cannot cooperate: each cell independently picks the PRB that covers the
most of its own primary users.  `solve_mcp_greedy` is the classic greedy
for budgeted maximum coverage over a flat list of sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coverage import Allocation, CoverageInstance, pack_users


class EnumerationBudgetError(RuntimeError):
    """Exact search would exceed the allocation-count budget."""

    def __init__(self, num_allocations: int, budget: int):
        super().__init__(
            f"exact search needs {num_allocations} allocation evaluations, "
            f"budget is {budget}"
        )
        self.num_allocations = num_allocations
        self.budget = budget


@dataclass(frozen=True)
class SolveResult:
    """An allocation plus the served-user count the solver optimized."""

    alloc: Allocation
    objective: int
    per_step_marginals: tuple[int, ...] | None = None


def greedy_bound(opt: int) -> int:
    """Smallest served count the greedy is guaranteed to reach when the
    optimum is ``opt``: ceil((1 - 1/e) * opt), with a small slack so the
    ceiling never rounds up on floating-point dust."""
    return math.ceil((1.0 - 1.0 / math.e) * opt - 1e-9)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set sizes of packed user sets: bit counts summed over the last axis."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def greedy_batch(
    words: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`solve_greedy` on a batch of instances at once.

    ``words`` is a uint64 tensor [batch, cells, prbs, words] of packed
    coverage sets (see `pack_users`).  Returns ``(chosen, served,
    marginals)``: the PRB per cell [batch, cells], the union coverage
    [batch] and the gain of each step in commit order [batch, cells].
    """
    batch, num_cells, num_prbs, _ = words.shape
    rows = np.arange(batch)
    chosen = np.zeros((batch, num_cells), dtype=np.intp)
    marginals = np.zeros((batch, num_cells), dtype=np.int64)
    remaining = np.ones((batch, num_cells), dtype=bool)
    covered = np.zeros((batch, words.shape[3]), dtype=np.uint64)
    for step in range(num_cells):
        gains = _popcount(words & ~covered[:, None, None, :])
        gains[~remaining] = -1  # assigned cells never win again
        # First maximum in row-major order: lowest cell, then lowest PRB.
        c, j = np.divmod(gains.reshape(batch, -1).argmax(axis=1), num_prbs)
        chosen[rows, c] = j
        remaining[rows, c] = False
        marginals[:, step] = gains[rows, c, j]
        covered |= words[rows, c, j]
    return chosen, _popcount(covered), marginals


def sc_batch(
    words: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`solve_sc_baseline` on a batch of instances at once.

    ``words`` is as for `greedy_batch`; ``owners`` [cells, words] packs,
    per cell, the users whose primary cell it is (see `primary_words`).
    Returns ``(chosen, served)``: the PRB per cell [batch, cells] and the
    SC served count [batch].
    """
    counts = _popcount(words & owners[:, None, :])
    return counts.argmax(axis=2), counts.max(axis=2).sum(axis=1)


def primary_words(primary_cell: np.ndarray, num_cells: int) -> np.ndarray:
    """Packed primary-user set of every cell, [cells, words]."""
    return pack_users(np.asarray(primary_cell)[None, :]
                      == np.arange(num_cells)[:, None])


def solve_greedy(instance: CoverageInstance) -> SolveResult:
    """Greedy cross-cell PRB assignment maximizing union (MC) coverage.

    Each of the C steps picks the (cell, PRB) pair with the largest
    marginal gain over the users covered so far, restricted to cells
    without an assignment yet.  Ties go to the lowest cell index, then
    the lowest PRB index.  Runs in O(C^2 * N * M / 64) time on the
    packed membership words; this is `greedy_batch` on a batch of one.

    Returns a SolveResult whose ``per_step_marginals`` holds the C gains
    in commit order; they are non-increasing.
    """
    chosen, served, marginals = greedy_batch(
        pack_users(instance.membership_matrix())[None])
    return SolveResult(
        alloc=Allocation(tuple(chosen[0].tolist())),
        objective=int(served[0]),
        per_step_marginals=tuple(marginals[0].tolist()),
    )


def _cell_masks(member: np.ndarray) -> list[list[int]]:
    # Pack each coverage set into one Python int so candidate unions are
    # single big-int ORs instead of M-length array ops.
    num_cells, num_prbs, _ = member.shape
    masks: list[list[int]] = []
    for c in range(num_cells):
        row = []
        for j in range(num_prbs):
            packed = np.packbits(member[c, j], bitorder="little")
            row.append(int.from_bytes(packed.tobytes(), "little"))
        masks.append(row)
    return masks


def solve_exact(
    instance: CoverageInstance, budget: int = 10_000_000
) -> SolveResult:
    """Optimal allocation by exhaustive search over all N^C allocations.

    Ties break toward the lexicographically smallest PRB tuple.  Raises
    EnumerationBudgetError if N^C exceeds ``budget``; the exception
    carries the allocation count so callers can report it.
    """
    member = instance.membership_matrix()
    num_cells, num_prbs, _ = member.shape
    total = num_prbs ** num_cells
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    masks = _cell_masks(member)
    best_count = -1
    best: tuple[int, ...] | None = None
    for combo in itertools.product(range(num_prbs), repeat=num_cells):
        union = 0
        for c, j in enumerate(combo):
            union |= masks[c][j]
        count = union.bit_count()
        if count > best_count:  # strict: first (lex-smallest) winner kept
            best_count = count
            best = combo
    assert best is not None
    return SolveResult(alloc=Allocation(best), objective=best_count)


def solve_sc_baseline(instance: CoverageInstance) -> SolveResult:
    """Each cell alone picks the PRB serving most of its own primary users.

    No coordination between cells; the stored objective is the SC served
    count (sum of the per-cell winners, which partition the users).
    Per-cell ties go to the lowest PRB index.  This is `sc_batch` on a
    batch of one.
    """
    chosen, served = sc_batch(
        pack_users(instance.membership_matrix())[None],
        primary_words(instance.primary_cell, instance.num_cells),
    )
    return SolveResult(alloc=Allocation(tuple(chosen[0].tolist())),
                       objective=int(served[0]))


@dataclass(frozen=True)
class MCPInstance:
    """Budgeted maximum coverage: pick at most ``budget`` of the sets."""

    universe: frozenset[int]
    sets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "universe", frozenset(self.universe))
        object.__setattr__(
            self, "sets", tuple(frozenset(s) for s in self.sets)
        )
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        for i, s in enumerate(self.sets):
            if not s <= self.universe:
                raise ValueError(f"set {i} is not a subset of the universe")


@dataclass(frozen=True)
class MCPResult:
    chosen: tuple[int, ...]
    covered: frozenset[int]

    @property
    def covered_count(self) -> int:
        return len(self.covered)


def solve_mcp_greedy(instance: MCPInstance) -> MCPResult:
    """Greedy maximum coverage: repeatedly take the set adding the most
    uncovered elements, stopping early once no set adds anything.  Ties
    go to the lowest set index.  Guarantees a (1 - 1/e) fraction of the
    optimal coverage."""
    covered: set[int] = set()
    chosen: list[int] = []
    picks = min(instance.budget, len(instance.sets))
    for _ in range(picks):
        best_gain = 0
        best_idx = -1
        for i, s in enumerate(instance.sets):
            gain = len(s - covered)
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx < 0:
            break
        chosen.append(best_idx)
        covered |= instance.sets[best_idx]
    return MCPResult(chosen=tuple(chosen), covered=frozenset(covered))
