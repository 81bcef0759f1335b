"""Cross-validation of the reference and fast simulation engines.

The fast engine's correctness argument rests on exact agreement with
the event-by-event reference engine; these tests hold the two together
over policies, bank counts, update periods and random traces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.fastsim import FastSimulator
from repro.core.simulator import ReferenceSimulator, simulate
from repro.trace.trace import Trace
from tests.conftest import make_random_trace


def assert_results_equal(a, b):
    """Exact-equality assertions for everything both engines measure."""
    assert a.cache_stats.hits == b.cache_stats.hits
    assert a.cache_stats.misses == b.cache_stats.misses
    assert a.cache_stats.flushes == b.cache_stats.flushes
    assert a.updates_applied == b.updates_applied
    assert a.flush_invalidations == b.flush_invalidations
    assert a.bank_stats == b.bank_stats
    assert a.energy_pj == pytest.approx(b.energy_pj, rel=1e-12)
    assert a.baseline_energy_pj == pytest.approx(b.baseline_energy_pj, rel=1e-12)
    assert a.lifetime_years == pytest.approx(b.lifetime_years, rel=1e-12)


def run_both(config, trace, lut):
    return (
        ReferenceSimulator(config, lut).run(trace),
        FastSimulator(config, lut).run(trace),
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["static", "probing", "scrambling"])
    @pytest.mark.parametrize("banks", [2, 4, 8])
    def test_policies_and_banks(self, policy, banks, lut):
        trace = make_random_trace(seed=banks * 7 + len(policy))
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=banks,
            policy=policy,
            update_period_cycles=7000 if policy != "static" else None,
        )
        assert_results_equal(*run_both(config, trace, lut))

    def test_unmanaged(self, lut):
        trace = make_random_trace(seed=5)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16), num_banks=4, power_managed=False
        )
        assert_results_equal(*run_both(config, trace, lut))

    def test_monolithic(self, lut):
        trace = make_random_trace(seed=6)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16), num_banks=1, power_managed=False
        )
        reference, fast = run_both(config, trace, lut)
        assert_results_equal(reference, fast)
        assert reference.lifetime_years == pytest.approx(2.93, rel=1e-6)

    def test_empty_trace(self, lut):
        trace = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=1000)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
        assert_results_equal(*run_both(config, trace, lut))

    def test_update_period_shorter_than_gaps(self, lut):
        """Several updates can become due between two accesses; the
        reference drains them one at a time and the fast engine must
        count identically."""
        cycles = np.array([0, 10_000, 10_001, 50_000], dtype=np.int64)
        addresses = np.array([0x100, 0x200, 0x100, 0x300], dtype=np.int64)
        trace = Trace(cycles, addresses)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=1000,
        )
        reference, fast = run_both(config, trace, lut)
        assert_results_equal(reference, fast)
        assert reference.updates_applied == 50

    def test_update_on_exact_boundary_cycle(self, lut):
        """An access exactly on the boundary belongs to the new epoch."""
        cycles = np.array([0, 1000, 2000], dtype=np.int64)
        addresses = np.array([0x100, 0x100, 0x100], dtype=np.int64)
        trace = Trace(cycles, addresses)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=1000,
        )
        reference, fast = run_both(config, trace, lut)
        assert_results_equal(reference, fast)
        # Every epoch starts flushed, so every access misses.
        assert reference.cache_stats.misses == 3

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_property_random_traces(self, lut, seed):
        trace = make_random_trace(seed=seed, length=600)
        config = ArchitectureConfig(
            CacheGeometry(4 * 1024, 16),
            num_banks=4,
            policy="scrambling",
            update_period_cycles=3000,
        )
        assert_results_equal(*run_both(config, trace, lut))


class TestSimulateFrontend:
    def test_engine_selection(self, lut, random_trace):
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
        fast = simulate(config, random_trace, lut, engine="fast")
        reference = simulate(config, random_trace, lut, engine="reference")
        assert_results_equal(reference, fast)

    def test_auto_is_default_and_agrees(self, lut, random_trace):
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
        auto = simulate(config, random_trace, lut)
        reference = simulate(config, random_trace, lut, engine="reference")
        assert_results_equal(reference, auto)

    def test_engine_names_registry(self):
        from repro.core.simulator import ENGINE_NAMES

        assert ENGINE_NAMES == ("auto", "estimate", "fast", "finegrain", "reference")

    def test_unknown_engine(self, lut, random_trace):
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
        with pytest.raises(ValueError):
            simulate(config, random_trace, lut, engine="warp")
