"""Compiled kernel backends: differential fuzz, engine wiring, sharding.

The load-bearing property is **bit-identity across backends**: every
kernel in :mod:`repro.kernels` must produce exactly the numpy
backend's integer counters when the compiled backend (the on-demand C
extension) serves it — including error behavior, carry-state
streaming, the ``fast`` engine end to end under
:func:`~repro.kernels.dispatch.use_backend`, and the sharded parallel
pass. The hypothesis classes below
pin that across banks, ways > 1, breakeven vectors (including
infinite), one-cycle chunk alignment and shard merge order.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.engine import resolve_engine
from repro.core.simulator import simulate
from repro.core.streamsim import (
    StreamShardPartial,
    merge_shard_partials,
    simulate_stream,
    stream_selected,
)
from repro.errors import ConfigurationError, ReproWarning, SimulationError
from repro.kernels import dispatch
from repro.power.idleness import (
    StreamingGapAccumulator,
    batch_stats_from_sorted_accesses,
)
from repro.trace.stream import InMemoryTraceStream
from repro.trace.trace import Trace

COMPILED_BACKENDS = [
    name for name in dispatch.available_backends() if name != "numpy"
]

needs_compiled = pytest.mark.skipif(
    not COMPILED_BACKENDS,
    reason="no compiled kernel backend available (no C compiler)",
)


def random_trace(rng: np.random.Generator, accesses: int) -> Trace:
    gaps = rng.choice([1, 1, 1, 2, 3, 7, 25, 90], size=accesses).astype(np.int64)
    cycles = np.cumsum(gaps) - 1
    addresses = (rng.integers(0, 1 << 14, size=accesses) * 16).astype(np.int64)
    horizon = int(cycles[-1]) + 1 + int(rng.integers(0, 50))
    return Trace(cycles, addresses, horizon=horizon, name="fuzz")


# ---------------------------------------------------------------------------
# Hypothesis strategies: bank-sorted access streams and breakeven vectors.
# ---------------------------------------------------------------------------

@st.composite
def bank_streams(draw):
    """(cycles, splits, num_banks, end_cycle): a valid bank-sorted stream."""
    num_banks = draw(st.integers(min_value=1, max_value=6))
    end_cycle = draw(st.integers(min_value=1, max_value=400))
    per_bank = [
        sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=end_cycle - 1),
                    unique=True,
                    max_size=40,
                )
            )
        )
        for _ in range(num_banks)
    ]
    cycles = np.array(
        [c for bank in per_bank for c in bank], dtype=np.int64
    )
    splits = np.cumsum([0] + [len(bank) for bank in per_bank]).astype(np.int64)
    return cycles, splits, num_banks, end_cycle


breakeven_vectors = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
    min_size=1,
    max_size=4,
)


def gap_multiset(gap_values, gap_banks):
    """Backend-independent view of a gap batch (ordering is backend-defined)."""
    return sorted(zip(gap_banks.tolist(), gap_values.tolist()))


# ---------------------------------------------------------------------------
# Differential fuzz: every compiled backend against numpy, bit-identical.
# ---------------------------------------------------------------------------

@needs_compiled
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestKernelDifferential:
    @settings(max_examples=60, deadline=None)
    @given(stream=bank_streams())
    def test_gap_extract(self, backend, stream):
        cycles, splits, num_banks, end = stream
        ref = dispatch.gap_extract(cycles, splits, 0, end, backend="numpy")
        got = dispatch.gap_extract(cycles, splits, 0, end, backend=backend)
        assert gap_multiset(got[0], got[1]) == gap_multiset(ref[0], ref[1])
        for mine, theirs in zip(got[2:], ref[2:]):
            assert np.array_equal(mine, theirs)
            assert mine.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(stream=bank_streams(), breakevens=breakeven_vectors)
    def test_gap_threshold_batch(self, backend, stream, breakevens):
        cycles, splits, num_banks, end = stream
        values, banks, *_ = dispatch.gap_extract(
            cycles, splits, 0, end, backend="numpy"
        )
        be = np.array(
            [-1 if b is None else b for b in breakevens], dtype=np.int64
        )
        outs = {}
        for name in ("numpy", backend):
            useful = np.zeros((len(breakevens), num_banks), dtype=np.int64)
            sleep = np.zeros((len(breakevens), num_banks), dtype=np.int64)
            dispatch.gap_threshold_batch(
                values, banks, num_banks, be, useful, sleep, backend=name
            )
            outs[name] = (useful, sleep)
        assert np.array_equal(outs[backend][0], outs["numpy"][0])
        assert np.array_equal(outs[backend][1], outs["numpy"][1])

    @settings(max_examples=60, deadline=None)
    @given(
        stream=bank_streams(),
        breakevens=breakeven_vectors,
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_streaming_carry_state(self, backend, stream, breakevens, chunk):
        """Chunked accumulators agree chunk by chunk AND with the one-shot.

        ``chunk=1`` degenerates to one access per update — the
        alignment case where every gap closes against carried state.
        """
        cycles, splits, num_banks, end = stream
        accs = {}
        for name in ("numpy", backend):
            with dispatch.use_backend(name):
                accs[name] = StreamingGapAccumulator(num_banks, breakevens)
        # Re-chunk the bank-sorted stream by cycle windows of `chunk`.
        for lo in range(0, end, chunk):
            hi = min(lo + chunk, end)
            parts, counts = [], []
            for b in range(num_banks):
                mine = cycles[splits[b]:splits[b + 1]]
                window = mine[(mine >= lo) & (mine < hi)]
                parts.append(window)
                counts.append(len(window))
            chunk_cycles = np.concatenate(parts) if parts else np.empty(0, np.int64)
            chunk_splits = np.cumsum([0] + counts).astype(np.int64)
            for name, acc in accs.items():
                with dispatch.use_backend(name):
                    acc.update(chunk_cycles, chunk_splits)
        finals = {name: acc.finalize(end) for name, acc in accs.items()}
        assert finals[backend] == finals["numpy"]
        with dispatch.use_backend(backend):
            one_shot = batch_stats_from_sorted_accesses(
                cycles, splits, breakevens, 0, end
            )
        assert finals[backend] == one_shot

    @settings(max_examples=60, deadline=None)
    @given(
        tags=st.lists(st.integers(min_value=0, max_value=7), max_size=60),
        bounds=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
        ways=st.integers(min_value=1, max_value=8),
    )
    def test_lru_walk(self, backend, tags, bounds, ways):
        tag_arr = np.array(tags, dtype=np.int64)
        starts = np.array(
            sorted({0, len(tags), *[b for b in bounds if b <= len(tags)]}),
            dtype=np.int64,
        )
        ref = dispatch.lru_walk(tag_arr, starts, ways, backend="numpy")
        got = dispatch.lru_walk(tag_arr, starts, ways, backend=backend)
        assert got[0] == ref[0]
        assert np.array_equal(got[1], ref[1])

    @settings(max_examples=60, deadline=None)
    @given(
        segments=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=9),
                ),
                max_size=30,
            ),
            min_size=1,
            max_size=4,
        ),
        ways=st.integers(min_value=1, max_value=4),
    )
    def test_lru_segment_carried_stacks(self, backend, segments, ways):
        """Carried (num_sets, ways) stacks advance identically per segment."""
        num_sets = 4
        stacks = {
            name: np.full((num_sets, ways), -1, dtype=np.int64)
            for name in ("numpy", backend)
        }
        for segment in segments:
            pairs = sorted((s, i) for i, (s, _) in enumerate(segment))
            idx = np.array([s for s, _ in pairs], dtype=np.int64)
            tags = np.array(
                [segment[i][1] for _, i in pairs], dtype=np.int64
            )
            hits = {
                name: dispatch.lru_segment(idx, tags, stacks[name], backend=name)
                for name in ("numpy", backend)
            }
            assert hits[backend] == hits["numpy"]
            assert np.array_equal(stacks[backend], stacks["numpy"])


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestErrorParity:
    """Invalid inputs raise SimulationError with the numpy message."""

    def _message(self, fn, *args, **kwargs):
        with pytest.raises(SimulationError) as excinfo:
            fn(*args, **kwargs)
        return str(excinfo.value)

    def test_non_monotonic(self, backend):
        cycles = np.array([5, 5], dtype=np.int64)
        splits = np.array([0, 2], dtype=np.int64)
        messages = {
            name: self._message(
                dispatch.gap_extract, cycles, splits, 0, 10, backend=name
            )
            for name in ("numpy", backend)
        }
        assert messages[backend] == messages["numpy"]
        assert "strictly increasing" in messages[backend]

    def test_outside_window(self, backend):
        cycles = np.array([12], dtype=np.int64)
        splits = np.array([0, 1], dtype=np.int64)
        messages = {
            name: self._message(
                dispatch.gap_extract, cycles, splits, 0, 10, backend=name
            )
            for name in ("numpy", backend)
        }
        assert messages[backend] == messages["numpy"]
        assert "observation window" in messages[backend]

    def test_not_later_than_carry(self, backend):
        messages = {}
        for name in ("numpy", backend):
            with dispatch.use_backend(name):
                acc = StreamingGapAccumulator(1, [10])
                acc.update(
                    np.array([5], dtype=np.int64), np.array([0, 1], dtype=np.int64)
                )
                with pytest.raises(SimulationError) as excinfo:
                    acc.update(
                        np.array([5], dtype=np.int64), np.array([0, 1], dtype=np.int64)
                    )
            messages[name] = str(excinfo.value)
        assert messages[backend] == messages["numpy"]
        assert "later than" in messages[backend]


# ---------------------------------------------------------------------------
# Backend dispatch behavior.
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_numpy_always_available(self):
        assert "numpy" in dispatch.available_backends()
        assert dispatch.backend_status()["numpy"] is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="kernel backend"):
            dispatch.gap_extract(
                np.empty(0, np.int64),
                np.array([0, 0], dtype=np.int64),
                0,
                1,
                backend="warp",
            )

    def test_use_backend_scopes_the_override(self):
        before = dispatch.active_backend()
        with dispatch.use_backend("numpy"):
            assert dispatch.active_backend() == "numpy"
        assert dispatch.active_backend() == before

    def test_env_override_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        dispatch.set_backend(None)
        try:
            assert dispatch.active_backend() == "numpy"
        finally:
            monkeypatch.delenv("REPRO_KERNELS")
            dispatch.set_backend(None)

    def test_bogus_env_override_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "warp")
        dispatch.set_backend(None)
        try:
            with pytest.raises(SimulationError, match="warp"):
                dispatch.active_backend()
        finally:
            monkeypatch.delenv("REPRO_KERNELS")
            dispatch.set_backend(None)


# ---------------------------------------------------------------------------
# The fast engine on the compiled backend vs on numpy.
# ---------------------------------------------------------------------------

def _counters(result):
    return (
        result.bank_stats,
        result.cache_stats.hits,
        result.cache_stats.misses,
        result.updates_applied,
        result.flush_invalidations,
        result.energy_pj,
        result.lifetime_years,
    )


class TestCompiledEngine:
    """``fast`` runs on the active backend; each backend gives the same counters."""

    def test_fast_follows_the_active_backend(self, monkeypatch):
        used = []
        resolve = dispatch._resolve

        def spy(name):
            module = resolve(name)
            used.append(module.NAME)
            return module

        monkeypatch.setattr(dispatch, "_resolve", spy)
        trace = random_trace(np.random.default_rng(5), 200)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16, ways=2), num_banks=4)
        for backend in dispatch.available_backends():
            used.clear()
            with dispatch.use_backend(backend):
                simulate(config, trace, engine="fast")
            assert used and set(used) == {backend}

    @needs_compiled
    def test_engine_differential_vs_fast(self):
        rng = np.random.default_rng(2011)
        for ways in (1, 2, 4):
            trace = random_trace(rng, 400)
            config = ArchitectureConfig(
                CacheGeometry(8 * 1024, 16, ways=ways),
                num_banks=4,
                policy="probing",
                update_period_cycles=256,
            )
            with dispatch.use_backend("numpy"):
                anchor = simulate(config, trace, engine="fast")
            for backend in COMPILED_BACKENDS:
                with dispatch.use_backend(backend):
                    compiled = simulate(config, trace, engine="fast")
                assert _counters(compiled) == _counters(anchor)

    @needs_compiled
    def test_engine_differential_streaming(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 300)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=2),
            num_banks=4,
            policy="probing",
            update_period_cycles=128,
        )
        with dispatch.use_backend("numpy"):
            anchor = simulate_stream(config, InMemoryTraceStream(trace, 97))
        for backend in COMPILED_BACKENDS:
            with dispatch.use_backend(backend):
                compiled = simulate_stream(config, InMemoryTraceStream(trace, 97))
            assert _counters(compiled) == _counters(anchor)


# ---------------------------------------------------------------------------
# Sharded parallel streaming.
# ---------------------------------------------------------------------------

def _stream_case(seed=3, accesses=500):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, accesses)
    base = ArchitectureConfig(
        CacheGeometry(8 * 1024, 16, ways=2),
        num_banks=4,
        policy="probing",
        update_period_cycles=256,
    )
    names = ("breakeven_override", "num_banks")
    combos = [(10, 4), (40, 4), (None, 8)]
    return trace, base, names, combos


class TestParallelStreaming:
    def assert_identical(self, serial, parallel):
        for s, p in zip(serial, parallel):
            assert s.bank_stats == p.bank_stats
            assert s.cache_stats.hits == p.cache_stats.hits
            assert s.cache_stats.misses == p.cache_stats.misses
            assert s.cache_stats.flushes == p.cache_stats.flushes
            assert s.updates_applied == p.updates_applied
            assert s.flush_invalidations == p.flush_invalidations
            assert s.energy_pj == p.energy_pj
            assert s.lifetime_years == p.lifetime_years

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_is_bit_identical_to_serial(self, workers):
        trace, base, names, combos = _stream_case()

        def factory(trace=trace):
            return InMemoryTraceStream(trace, 200)

        serial = stream_selected(base, factory, names, combos)
        parallel = stream_selected(
            base, factory, names, combos, parallel=workers
        )
        self.assert_identical(serial, parallel)

    def test_picklable_stream_instance_shards(self):
        trace, base, names, combos = _stream_case()
        stream = InMemoryTraceStream(trace, 200)
        assert pickle.dumps(stream)
        serial = stream_selected(base, lambda: InMemoryTraceStream(trace, 200),
                                 names, combos)
        parallel = stream_selected(base, stream, names, combos, parallel=2)
        self.assert_identical(serial, parallel)

    def test_unshardable_stream_warns_and_runs_serial(self):
        trace, base, names, combos = _stream_case()

        class Unpicklable(InMemoryTraceStream):
            def __init__(self, trace, chunk_cycles):
                super().__init__(trace, chunk_cycles)
                self._blocker = lambda: None

        serial = stream_selected(
            base, lambda: InMemoryTraceStream(trace, 200), names, combos
        )
        with pytest.warns(ReproWarning, match="cannot be sharded"):
            fell_back = stream_selected(
                base, Unpicklable(trace, 200), names, combos, parallel=2
            )
        self.assert_identical(serial, fell_back)

    def test_invalid_worker_count_rejected(self):
        trace, base, names, combos = _stream_case()
        with pytest.raises(ConfigurationError, match="positive worker count"):
            stream_selected(
                base,
                lambda: InMemoryTraceStream(trace, 200),
                names,
                combos,
                parallel=0,
            )

    def test_parallel_one_is_the_serial_pass(self):
        trace, base, names, combos = _stream_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproWarning)
            results = stream_selected(
                base,
                lambda: InMemoryTraceStream(trace, 200),
                names,
                combos,
                parallel=1,
            )
        serial = stream_selected(
            base, lambda: InMemoryTraceStream(trace, 200), names, combos
        )
        self.assert_identical(serial, results)

    def test_merge_is_order_invariant(self):
        """Shard merge is elementwise counter addition: any order works."""
        trace, base, names, combos = _stream_case()
        engine = resolve_engine("auto", base)
        from repro.core.plan import StreamingPlan
        from dataclasses import replace

        partials_by_order = []
        for order in ([0, 1, 2], [2, 0, 1]):
            shards = []
            for worker in order:
                stream = InMemoryTraceStream(trace, 200)
                plan = StreamingPlan()
                config = replace(base, **dict(zip(names, combos[0])))
                cursor = engine.open_stream_cursor(
                    [config], plan, shard=(worker, 3)
                )
                for chunk in stream.chunks():
                    plan.begin_chunk(chunk)
                    cursor.process(plan)
                shards.append(cursor.finalize_partial(stream.horizon))
            merged = merge_shard_partials(
                [replace(base, **dict(zip(names, combos[0])))],
                shards,
                stream.horizon,
                stream.name,
                None,
            )
            partials_by_order.append(merged[0])
        first, second = partials_by_order
        assert first.bank_stats == second.bank_stats
        assert first.cache_stats.hits == second.cache_stats.hits

    def test_sharded_cursor_refuses_full_finalize(self):
        trace, base, names, combos = _stream_case()
        engine = resolve_engine("auto", base)
        from repro.core.plan import StreamingPlan

        stream = InMemoryTraceStream(trace, 200)
        plan = StreamingPlan()
        cursor = engine.open_stream_cursor([base], plan, shard=(0, 2))
        with pytest.raises(SimulationError, match="finalize_partial"):
            cursor.finalize(stream.horizon, stream.name, None)

    def test_disagreeing_shards_rejected(self):
        trace, base, names, combos = _stream_case()
        zero = StreamShardPartial(
            accesses=1,
            hits=0,
            flush_invalidations=0,
            updates_applied=0,
            stats_batch=[[]],
        )
        other = StreamShardPartial(
            accesses=2,
            hits=0,
            flush_invalidations=0,
            updates_applied=0,
            stats_batch=[[]],
        )
        with pytest.raises(SimulationError, match="disagree"):
            merge_shard_partials([base], [zero, other], 100, "t", None)


class TestShardedAccumulator:
    def test_non_owned_bank_access_rejected(self):
        owned = np.array([True, False], dtype=bool)
        acc = StreamingGapAccumulator(2, [10], owned_banks=owned)
        with pytest.raises(SimulationError, match="does not own"):
            acc.update(
                np.array([5], dtype=np.int64),
                np.array([0, 0, 1], dtype=np.int64),
            )

    def test_non_owned_banks_finalize_to_zero(self):
        owned = np.array([True, False], dtype=bool)
        acc = StreamingGapAccumulator(2, [10], owned_banks=owned)
        acc.update(
            np.array([5], dtype=np.int64), np.array([0, 1, 1], dtype=np.int64)
        )
        ((mine, theirs),) = acc.finalize(100)
        assert mine.total_cycles == 100
        assert theirs.total_cycles == 0
        assert theirs.idle_intervals == 0
        assert theirs.idle_cycles == 0

    def test_disjoint_shards_merge_to_the_unsharded_stats(self):
        rng = np.random.default_rng(11)
        num_banks, end = 4, 300
        per_bank = [
            np.unique(rng.integers(0, end, size=rng.integers(0, 30)))
            for _ in range(num_banks)
        ]
        cycles = np.concatenate(per_bank).astype(np.int64)
        splits = np.cumsum([0] + [len(b) for b in per_bank]).astype(np.int64)
        whole = StreamingGapAccumulator(num_banks, [10, None])
        whole.update(cycles, splits)
        expected = whole.finalize(end)

        shards = []
        for worker in range(2):
            owned = (np.arange(num_banks) % 2) == worker
            acc = StreamingGapAccumulator(num_banks, [10, None], owned_banks=owned)
            parts = [
                per_bank[b] if owned[b] else np.empty(0, np.int64)
                for b in range(num_banks)
            ]
            acc.update(
                np.concatenate(parts).astype(np.int64),
                np.cumsum([0] + [len(p) for p in parts]).astype(np.int64),
            )
            shards.append(acc.finalize(end))
        merged = [
            [
                shards[0][row][bank].merge(shards[1][row][bank])
                for bank in range(num_banks)
            ]
            for row in range(2)
        ]
        assert merged == expected
