"""Solvers for one-PRB-per-cell coverage.

`solve_greedy` is the cross-cell greedy: each step scans every
(cell, PRB) pair of the cells not yet assigned and commits the pair
covering the most still-uncovered users.  One PRB per cell is a
partition matroid, and for it the greedy is a 1/2-approximation (Fisher,
Nemhauser & Wolsey 1978): it serves at least ``greedy_bound(opt)`` =
ceil(opt / 2) users, and no more can be promised.  Two users show it:
cell 0 covers {0} or {1}, cell 1 covers {0} or nothing; the greedy takes
{0} first and serves 1, the optimum serves 2.  `solve_exact` finds the
optimum over all N^C allocations: `exact_search` drops the users whose
service no allocation changes and enumerates the unions of the others
as packed words.  `swap_batch` is a best-improvement 1-swap local
search over a batch, whose result lies between its start and the
optimum.  `solve_sc_baseline` models cells that cannot
cooperate: each cell independently picks the PRB that covers the most
of its own primary users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverage import Allocation, CoverageInstance, pack_users

# Most allocations (N^C) an exact search may enumerate unless told more.
EXACT_BUDGET = 10_000_000


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
    """Smallest served count `solve_greedy` is guaranteed to reach when
    the optimum is ``opt``: ceil(opt / 2), the greedy's bound under a
    partition matroid."""
    return -(-opt // 2)


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


def swap_batch(
    words: np.ndarray, chosen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-improvement 1-swap local search on a batch of instances.

    ``words`` is as for `greedy_batch` and ``chosen`` [batch, cells] the
    starting PRB per cell.  Each pass ORs, per row and cell, the other
    cells' chosen sets from prefix and suffix ORs, counts the union of
    every (cell, PRB) move at once and applies each row's best move (the
    first maximum, lowest cell then lowest PRB) if it serves more.
    Passes stop when no row improves.  Returns ``(chosen, served)``: the
    final PRB per cell [batch, cells] and its union coverage [batch], at
    least the start's and at most the optimum; no single (cell, PRB)
    change serves more.  A row's result depends on its own words and
    start alone.
    """
    batch, num_cells, num_prbs, num_words = words.shape
    chosen = np.array(chosen, dtype=np.intp)
    served = np.zeros(batch, dtype=np.int64)
    active, sub = np.arange(batch), words  # the rows the last pass improved
    while active.size:
        rows = np.arange(active.size)
        # Cell-major [cells, rows, words]: the ORs run over whole rows.
        picked = sub[rows, np.arange(num_cells)[:, None], chosen[active].T]
        # before[c]: OR of the cells below c; after[c]: of c and above.
        before = np.zeros((num_cells + 1, len(rows), num_words), np.uint64)
        after = np.zeros_like(before)
        np.bitwise_or.accumulate(picked, axis=0, out=before[1:])
        np.bitwise_or.accumulate(picked[::-1], axis=0, out=after[-2::-1])
        others = (before[:-1] | after[1:]).transpose(1, 0, 2)
        served[active] = _popcount(before[-1])
        moves = _popcount(sub | others[:, :, None, :]).reshape(len(rows), -1)
        best = moves.argmax(axis=1)
        better = moves[rows, best] > served[active]
        active, sub = active[better], sub[better]
        chosen[active, best[better] // num_prbs] = best[better] % num_prbs
    return chosen, served


def primary_words(primary_cell: np.ndarray, num_cells: int) -> np.ndarray:
    """Packed primary-user set of every cell, [cells, words]."""
    return pack_users(np.asarray(primary_cell)[None, :]
                      == np.arange(num_cells)[:, None])


def solve_greedy(instance: CoverageInstance) -> SolveResult:
    """Greedy cross-cell PRB assignment maximizing union (MC) coverage.

    Each of the C steps picks the (cell, PRB) pair with the largest
    marginal gain over the users covered so far, restricted to cells
    without an assignment yet.  Ties go to the lowest cell index, then
    the lowest PRB index.  The result serves at least half of the
    optimum (`greedy_bound`); (1 - 1/e) does not hold under the
    one-PRB-per-cell constraint.  Runs in O(C^2 * N * M / 64) time on the
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


# Byte budget of each temporary of the exact search: the table of tail
# unions and each block of head unions ORed with it.
_EXACT_BYTES = 64 << 10


def _exact_split(num_cells: int, num_prbs: int, num_words: int
                 ) -> tuple[int, int]:
    """``(tail_cells, head_rows)`` of the exact search under _EXACT_BYTES.

    The last ``tail_cells`` cells, as many as fit, form the table of tail
    unions; ``head_rows`` unions of the other cells are built and ORed
    with the whole table at a time, at least one.
    """
    row_bytes = num_words * 8
    tail_cells = 0
    while (tail_cells < num_cells
           and num_prbs ** (tail_cells + 1) * row_bytes <= _EXACT_BYTES):
        tail_cells += 1
    return tail_cells, max(1, _EXACT_BYTES
                           // (num_prbs ** tail_cells * row_bytes))


def _unions(words: np.ndarray) -> np.ndarray:
    """Unions [words, prbs ** cells] of one set per cell of ``words``
    [cells, words, prbs], in lexicographic order of the PRB tuples with
    cell 0 most significant.  Words lead so that every OR and count runs
    over the long union axis."""
    unions = np.zeros((words.shape[1], 1), dtype=np.uint64)
    for cell in words[::-1]:  # each earlier cell is a more significant digit
        unions = (cell[:, :, None] | unions[:, None, :]).reshape(
            len(unions), -1)
    return unions


def _union_block(words: np.ndarray, start: int, rows: int) -> np.ndarray:
    """Columns ``start`` up to ``start + rows`` of `_unions` of ``words``,
    built without the rest of the table."""
    num_prbs = words.shape[2]
    index = np.arange(start, min(start + rows, num_prbs ** len(words)))
    block = np.zeros((words.shape[1], len(index)), dtype=np.uint64)
    for cell in words[::-1]:
        index, digit = np.divmod(index, num_prbs)
        block |= cell[:, digit]
    return block


def _count_words(unions: np.ndarray) -> np.ndarray:
    """Set sizes of word-major packed sets [words, ...]."""
    counts = np.bitwise_count(unions[0]).astype(np.intp)
    for word in unions[1:]:
        counts += np.bitwise_count(word)
    return counts


def exact_search(member: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Optimal allocation of one boolean coverage tensor [cells, prbs,
    users]: the lexicographically smallest optimal PRB tuple and its
    union coverage.

    Only the contested users can change the answer.  A user covered by
    every PRB of some cell is served by every allocation and is counted
    as a constant; a user in no set is never served and is dropped.  The
    contested users are packed into uint64 words and every union of one
    set per cell is enumerated with word-wise ORs and popcounted.  The
    last cells form one table of unions (`_exact_split`); blocks of
    unions of the other cells are built one at a time and ORed with all
    of it, so no temporary outgrows _EXACT_BYTES by more than one row.
    The first maximum wins, within a block by ``argmax`` and across
    blocks by a strict ``>``, which keeps the lexicographically smallest
    tuple.
    """
    num_cells, num_prbs, _ = member.shape
    always = member.all(axis=1).any(axis=0)
    words = pack_users(member[:, :, member.any(axis=(0, 1)) & ~always])
    if words.shape[2] == 0:  # no contested user: one all-zero word
        words = np.zeros((num_cells, num_prbs, 1), dtype=np.uint64)
    words = np.ascontiguousarray(words.transpose(0, 2, 1))
    tail_cells, head_rows = _exact_split(num_cells, num_prbs, words.shape[1])
    head_cells = num_cells - tail_cells
    tail = _unions(words[head_cells:])
    best, best_index = -1, 0
    for start in range(0, num_prbs ** head_cells, head_rows):
        head = _union_block(words[:head_cells], start, head_rows)
        counts = _count_words(head[:, :, None] | tail[:, None, :]).ravel()
        i = int(counts.argmax())
        if counts[i] > best:  # strict: the earlier block keeps a tie
            best, best_index = int(counts[i]), start * tail.shape[1] + i
    chosen = np.unravel_index(best_index, (num_prbs,) * num_cells)
    return tuple(int(j) for j in chosen), int(np.count_nonzero(always)) + best


def solve_exact(
    instance: CoverageInstance, budget: int = EXACT_BUDGET
) -> SolveResult:
    """Optimal allocation by exhaustive search over all N^C allocations.

    Ties break toward the lexicographically smallest PRB tuple.  Raises
    EnumerationBudgetError if N^C exceeds ``budget``, before any search;
    the exception carries the allocation count so callers can report it.
    The search is `exact_search`.
    """
    total = instance.prbs_per_cell ** instance.num_cells
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    chosen, served = exact_search(instance.membership_matrix())
    return SolveResult(alloc=Allocation(chosen), objective=served)


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
