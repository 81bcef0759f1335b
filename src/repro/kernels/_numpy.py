"""Pure-numpy kernel backend — the always-available fallback.

These are the vectorized implementations the library shipped before the
C backend existed, extracted behind the
:mod:`repro.kernels.dispatch` contract so every caller reaches them
through the same shim as the C variants. They are the *semantic
anchor*: the differential fuzz suite pins every other backend
bit-identical to this one, and this one is pinned (transitively,
through :mod:`repro.power.idleness` and the engine tests) to the
reference simulator.

All functions operate on int64 arrays and produce int64 counters —
REPRO001 (integer-counter purity) applies here exactly as it does in
``power/idleness.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Dispatch-level backend identity (``repro engines`` and the bench
#: report read it off the module).
NAME = "numpy"


def gap_extract(
    cycles: np.ndarray,
    splits: np.ndarray,
    start_cycle: int,
    end_cycle: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract every bank's positive idle gaps from the sorted stream.

    Returns ``(gap_values, gap_banks, accesses, idle_intervals,
    idle_cycles)``; see :func:`repro.kernels.dispatch.gap_extract` for
    the contract (the caller has already validated the splits
    partition and the window sign).
    """
    num_banks = splits.size - 1
    window = int(end_cycle - start_cycle)
    accesses = np.diff(splits)
    occupied_ids = np.flatnonzero(accesses > 0)
    empty_ids = np.flatnonzero(accesses == 0)
    if cycles.size:
        if cycles.min() < start_cycle or cycles.max() >= end_cycle:
            raise SimulationError("access cycles outside the observation window")
        bank_of = np.repeat(np.arange(num_banks), accesses)
        same_bank = bank_of[1:] == bank_of[:-1]
        deltas = np.diff(cycles)
        if np.any(deltas[same_bank] <= 0):
            raise SimulationError("access cycles must be strictly increasing")
        interior = deltas[same_bank] - 1
        interior_banks = bank_of[1:][same_bank]
        leading = cycles[splits[occupied_ids]] - start_cycle
        trailing = end_cycle - cycles[splits[occupied_ids + 1] - 1] - 1
    else:
        interior = np.empty(0, dtype=np.int64)
        interior_banks = np.empty(0, dtype=np.int64)
        leading = trailing = np.empty(0, dtype=np.int64)

    # A never-accessed bank idles the whole window in one gap.
    gap_values = np.concatenate(
        [interior, leading, trailing, np.full(empty_ids.size, window, dtype=np.int64)]
    )
    gap_banks = np.concatenate([interior_banks, occupied_ids, occupied_ids, empty_ids])
    positive = gap_values > 0
    gap_values = gap_values[positive]
    gap_banks = gap_banks[positive]

    idle_intervals = np.bincount(gap_banks, minlength=num_banks)
    idle_cycles = np.zeros(num_banks, dtype=np.int64)
    np.add.at(idle_cycles, gap_banks, gap_values)
    return gap_values, gap_banks, accesses, idle_intervals, idle_cycles


def gap_threshold_batch(
    gap_values: np.ndarray,
    gap_banks: np.ndarray,
    num_banks: int,
    breakevens: np.ndarray,
    useful: np.ndarray,
    sleep: np.ndarray,
) -> None:
    """Threshold the gap multiset at each breakeven row (``-1`` = infinite).

    Accumulates into the caller-zeroed ``(n_be, num_banks)`` int64
    buffers ``useful``/``sleep``.
    """
    for row in range(breakevens.size):
        breakeven = int(breakevens[row])
        if breakeven < 0:
            continue
        mask = gap_values > breakeven
        banks = gap_banks[mask]
        useful[row] += np.bincount(banks, minlength=num_banks)
        np.add.at(sleep[row], banks, gap_values[mask] - breakeven)


def stream_gap_update(
    cycles: np.ndarray,
    splits: np.ndarray,
    last_event: np.ndarray,
    accesses: np.ndarray,
    idle_intervals: np.ndarray,
    idle_cycles: np.ndarray,
    breakevens: np.ndarray,
    useful: np.ndarray,
    sleep: np.ndarray,
) -> None:
    """Fold one bank-sorted chunk into streaming carry-state counters.

    Mutates every counter array in place; ``last_event`` advances to
    each occupied bank's final cycle. Trailing gaps stay open.
    """
    num_banks = last_event.size
    counts = np.diff(splits)
    occupied = np.flatnonzero(counts > 0)
    firsts = cycles[splits[occupied]]
    lasts = cycles[splits[occupied + 1] - 1]
    if np.any(firsts <= last_event[occupied]):
        raise SimulationError("chunk accesses must be later than every prior access")
    bank_of = np.repeat(np.arange(num_banks), counts)
    same_bank = bank_of[1:] == bank_of[:-1]
    deltas = np.diff(cycles)
    if np.any(deltas[same_bank] <= 0):
        raise SimulationError("access cycles must be strictly increasing")
    interior = deltas[same_bank] - 1
    interior_banks = bank_of[1:][same_bank]
    leading = firsts - last_event[occupied] - 1
    gap_values = np.concatenate([interior, leading])
    gap_banks = np.concatenate([interior_banks, occupied])
    positive = gap_values > 0
    gap_values = gap_values[positive]
    gap_banks = gap_banks[positive]
    if gap_values.size:
        idle_intervals += np.bincount(gap_banks, minlength=num_banks)
        np.add.at(idle_cycles, gap_banks, gap_values)
        gap_threshold_batch(
            gap_values, gap_banks, num_banks, breakevens, useful, sleep
        )
    accesses[occupied] += counts[occupied]
    last_event[occupied] = lasts


def lru_walk(
    tags: np.ndarray, starts: np.ndarray, ways: int
) -> tuple[int, np.ndarray]:
    """Cold-started lockstep LRU over contiguous tag groups.

    ``tags`` is sorted by (group, arrival); group ``g`` owns
    ``tags[starts[g]:starts[g + 1]]``. The LRU stacks of all groups
    advance in lockstep, one within-group access *rank* per Python
    iteration, with the compare/shift work vectorized across every
    group still active at that rank. Exact because an LRU set's
    contents are history-independent: after any prefix the set holds
    precisely its ``ways`` most recently accessed distinct tags.

    Returns ``(hits, lines_per_group)`` with
    ``lines_per_group[g] = min(distinct tags, ways)`` — each miss
    allocates one line and evicts only when the set is already full.
    """
    num_groups = starts.size - 1
    if num_groups == 0 or starts[-1] == 0:
        return 0, np.zeros(num_groups, dtype=np.int64)
    lengths = np.diff(starts)

    # Surviving lines: distinct tags per group, capped at the ways.
    group_of = np.repeat(np.arange(num_groups), lengths)
    pair_order = np.lexsort((tags, group_of))
    pair_group = group_of[pair_order]
    pair_tag = tags[pair_order]
    n = tags.size
    first_pair = np.empty(n, dtype=bool)
    first_pair[0] = True
    first_pair[1:] = (pair_group[1:] != pair_group[:-1]) | (pair_tag[1:] != pair_tag[:-1])
    distinct_tags = np.bincount(pair_group[first_pair], minlength=num_groups)
    lines_per_group = np.minimum(distinct_tags, ways).astype(np.int64)

    # Longest groups first, so the groups active at rank r are always a
    # leading slice of the stack matrix.
    by_length = np.argsort(-lengths, kind="stable")
    starts_by_length = starts[by_length]
    lengths_by_length = lengths[by_length]
    stacks = np.full((num_groups, ways), -1, dtype=np.int64)  # -1 = invalid
    hits = 0
    for rank in range(int(lengths_by_length[0])):
        active = int(np.searchsorted(-lengths_by_length, -rank, side="left"))
        current = tags[starts_by_length[:active] + rank]
        live = stacks[:active]
        matches = live == current[:, None]
        hit_mask = matches.any(axis=1)
        hits += int(np.count_nonzero(hit_mask))
        # A hit rotates the stack above the matched way; a miss rotates
        # the whole stack, evicting the LRU way.
        depth = np.where(hit_mask, matches.argmax(axis=1), ways - 1)
        for way in range(ways - 1, 0, -1):
            rotate = depth >= way
            live[rotate, way] = live[rotate, way - 1]
        live[:, 0] = current
    return hits, lines_per_group


def lru_segment(
    idx: np.ndarray, tags: np.ndarray, stacks: np.ndarray
) -> int:
    """Advance carried LRU stacks through one set-sorted segment.

    ``idx``/``tags`` are sorted by (set, arrival); ``stacks`` is the
    carried ``(num_sets, ways)`` recency matrix (``-1`` invalid),
    mutated in place. Returns the segment's hits.
    """
    n = idx.size
    if n == 0:
        return 0
    ways = stacks.shape[1]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = idx[1:] != idx[:-1]
    starts = np.flatnonzero(new_group)
    group_sets = idx[starts]
    lengths = np.diff(np.append(starts, n))
    by_length = np.argsort(-lengths, kind="stable")
    sets_bl = group_sets[by_length]
    starts_bl = starts[by_length]
    lengths_bl = lengths[by_length]
    hits = 0
    for rank in range(int(lengths_bl[0])):
        active = int(np.searchsorted(-lengths_bl, -rank, side="left"))
        current = tags[starts_bl[:active] + rank]
        rows = sets_bl[:active]
        live = stacks[rows]
        matches = live == current[:, None]
        hit_mask = matches.any(axis=1)
        hits += int(np.count_nonzero(hit_mask))
        depth = np.where(hit_mask, matches.argmax(axis=1), ways - 1)
        for way in range(ways - 1, 0, -1):
            rotate = depth >= way
            live[rotate, way] = live[rotate, way - 1]
        live[:, 0] = current
        stacks[rows] = live
    return hits
