"""Output checks: integer-counter digests and exact comparisons.

Every simulated point is reduced to its integer counters (cache hits,
misses, flushes, updates, flush invalidations and every per-bank idleness
counter). Passes must produce the same digest, sampled points must equal
the reference engine's counters, and any mismatch raises
:class:`CheckFailed` — the run then exits non-zero instead of reporting a
slow sample.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

Counters = tuple


class CheckFailed(Exception):
    """A benchmark output disagrees with its oracle."""


def result_counters(result: Any) -> Counters:
    """Integer counters of a ``SimulationResult``."""
    stats = result.cache_stats
    banks = tuple(
        (
            bank.accesses,
            bank.idle_intervals,
            bank.useful_intervals,
            bank.idle_cycles,
            bank.sleep_cycles,
            bank.transitions,
            bank.total_cycles,
        )
        for bank in result.bank_stats
    )
    return (
        stats.hits,
        stats.misses,
        stats.flushes,
        result.updates_applied,
        result.flush_invalidations,
        banks,
    )


def record_counters(record: Any) -> Counters:
    """Integer counters of a stored ``ResultRecord`` (same layout)."""
    banks = tuple(
        zip(
            record.bank_accesses,
            record.bank_idle_intervals,
            record.bank_useful_intervals,
            record.bank_idle_cycles,
            record.bank_sleep_cycles,
            record.bank_transitions,
            record.bank_total_cycles,
        )
    )
    return (
        record.hits,
        record.misses,
        record.flushes,
        record.updates_applied,
        record.flush_invalidations,
        banks,
    )


def digest(counters: Sequence[Counters]) -> str:
    """SHA-256 over the counters of every point, in order."""
    return hashlib.sha256(repr(list(counters)).encode("ascii")).hexdigest()


def expect_equal(label: str, got: Counters, want: Counters) -> None:
    """Raise :class:`CheckFailed` unless two counter tuples are identical."""
    if got != want:
        raise CheckFailed(f"{label}: counters {got!r} != oracle {want!r}")


def expect_same_digests(digests: Sequence[str]) -> None:
    """Every pass of a workload must produce identical counters."""
    if len(set(digests)) > 1:
        raise CheckFailed(f"passes disagree: {len(set(digests))} distinct digests")
