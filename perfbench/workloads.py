"""The benchmark's three workloads, driven through the library's public API.

Each workload is built from its seed alone, runs in one process without
process pools, and exposes the same small protocol to :mod:`perfbench.run`:

``setup()``
    Everything a user pays before the first result: the library import
    side effects it triggers (kernel-backend probe, lifetime LUT), input
    generation and, for the service, starting the server. Timed as part of
    ``setup_s``.
``run_pass(ops)``
    One pass of the workload; returns the nanoseconds of its timed section.
    Operations attempted and failures by kind go to ``ops``.
``collect(ops)``
    After the timed section: the integer counters of every point the pass
    produced, plus any failure only visible afterwards.
``check(rng)``
    The output check against the reference engine (and, for the service,
    the guided-search best-point check); raises ``CheckFailed``.
``close()``
    Stop whatever ``setup()`` started.

``LAYERS`` names the traced layers each workload must exercise; the traced
run fails its integrity check if one of them records no call.
"""

from __future__ import annotations

import http.client
import json
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any

from perfbench.checks import CheckFailed, expect_equal, record_counters, result_counters

#: Synthetic workload profile shared by every workload (Table I's dijkstra).
PROFILE = "dijkstra"
#: Headline metrics whose best value a guided search must preserve.
HEADLINE_METRICS = ("hit_rate", "energy_savings", "lifetime_years")


@dataclass
class Ops:
    """Operations attempted and failures by kind, for ``failed_frac``."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    def fail(self, kind: str) -> None:
        self.failures[kind] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _geometries():
    from repro.cache.geometry import CacheGeometry

    return CacheGeometry(16 * 1024, 16), CacheGeometry(16 * 1024, 16, ways=4)


def _probe_backend() -> None:
    """Load the kernel backend (compiled when available), as first use does."""
    from repro.kernels import dispatch

    dispatch.active_backend()


class Workload:
    """Defaults shared by the workloads: no client latencies to collect."""

    name = ""
    LAYERS: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "") -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir or tempfile.gettempdir()
        self.reset_samples()

    def reset_samples(self) -> None:
        """Forget client latencies gathered so far (e.g. by the warm-up)."""
        self.latencies: list[float] = []
        self.read_seconds = 0.0
        self.reads = 0

    def enough_samples(self) -> bool:
        return True

    def close(self) -> None:
        pass


class SweepGrid(Workload):
    """In-memory ``sweep()`` of a 128-point grid over one synthetic trace.

    Axes: bank count × policy × update period × breakeven × geometry
    (direct-mapped and 4-way). Bank-order sorting, in-memory hit tracking,
    the gap/LRU kernels and per-point result assembly do nearly all the
    work; the trace is generated once, during set-up.
    """

    name = "sweep-grid"
    LAYERS = (
        "aging.lut_build", "trace.generate", "plan.bank_order", "plan.decode",
        "plan.idle_gaps", "plan.cache_lookups", "fastsim.group",
        "kernels.gap_extract", "kernels.gap_threshold_batch", "kernels.lru_walk",
        "assembly.assemble_result", "assembly.metrics", "assembly.lut_lookups",
    )

    def setup(self) -> None:
        from repro.aging.lut import LifetimeLUT
        from repro.core.config import ArchitectureConfig
        from repro.trace.generator import WorkloadGenerator
        from repro.trace.mediabench import profile_for

        _probe_backend()
        self.lut = LifetimeLUT.default()
        direct, four_way = _geometries()
        self.trace = WorkloadGenerator(
            direct, num_windows=40 if self.tiny else 300, master_seed=self.seed
        ).generate(profile_for(PROFILE))
        horizon = self.trace.horizon
        self.base = ArchitectureConfig(
            direct, num_banks=4, policy="probing", update_period_cycles=horizon // 16
        )
        self.axes = {
            "num_banks": [2, 4, 8, 16],
            "policy": ["static", "probing"],
            "update_period_cycles": [horizon // 8, horizon // 16],
            "breakeven_override": [5, 20, 80, 320],
            "geometry": [direct, four_way],
        }

    def run_pass(self, ops: Ops) -> int:
        from repro.analysis.sweep import sweep

        start = time.perf_counter_ns()
        self.result = sweep(self.base, self.trace, self.axes, lut=self.lut, parallel=None)
        elapsed = time.perf_counter_ns() - start
        ops.attempted += len(self.result)
        return elapsed

    def collect(self, ops: Ops) -> list:
        return [result_counters(point.result) for point in self.result]

    def check(self, rng) -> None:
        from repro.core.simulator import simulate

        point = rng.choice(self.result.points)
        config = replace(self.base, **point.parameters)
        reference = simulate(config, self.trace, self.lut, engine="reference")
        expect_equal(
            f"{self.name} {point.parameters}",
            result_counters(point.result),
            result_counters(reference),
        )


class StreamLong(Workload):
    """``stream_sweep()`` of 4 points over a long streamed synthetic trace.

    The trace (6000 windows, about 4.4M accesses) is never materialized:
    ``WorkloadGenerator.stream`` yields fixed 32768-cycle chunks, so trace
    generation and the streaming cursor with its kernels dominate, and the
    peak resident set stays bounded by the chunk size.
    """

    name = "stream-long"
    CHUNK_CYCLES = 32768
    LAYERS = (
        "aging.lut_build", "trace.generate", "plan.decode", "streamsim.process",
        "streamsim.finalize", "kernels.stream_gap_update", "kernels.lru_segment",
        "assembly.assemble_result", "assembly.metrics", "assembly.lut_lookups",
    )

    def _generator(self, windows: int):
        from repro.trace.generator import WorkloadGenerator

        return WorkloadGenerator(self.direct, num_windows=windows, master_seed=self.seed)

    def setup(self) -> None:
        from repro.aging.lut import LifetimeLUT
        from repro.core.config import ArchitectureConfig
        from repro.trace.mediabench import profile_for

        _probe_backend()
        self.lut = LifetimeLUT.default()
        self.direct, four_way = _geometries()
        self.profile = profile_for(PROFILE)
        self.generator = self._generator(60 if self.tiny else 6000)
        self.base = ArchitectureConfig(
            self.direct,
            num_banks=4,
            policy="probing",
            update_period_cycles=self.generator.horizon // 64,
        )
        self.axes = {"geometry": [self.direct, four_way], "breakeven_override": [20, 80]}

    def run_pass(self, ops: Ops) -> int:
        from repro.analysis.sweep import stream_sweep

        start = time.perf_counter_ns()
        stream = self.generator.stream(self.profile, self.CHUNK_CYCLES)
        self.result = stream_sweep(self.base, stream, self.axes, lut=self.lut, parallel=None)
        elapsed = time.perf_counter_ns() - start
        ops.attempted += len(self.result)
        return elapsed

    def collect(self, ops: Ops) -> list:
        return [result_counters(point.result) for point in self.result]

    def check(self, rng) -> None:
        """Long stream against the in-memory engine; streaming against reference.

        The reference engine walks one access at a time, far too slowly for
        millions of accesses, so the long stream's points are compared with
        the in-memory engine on the materialized trace, and the streaming
        path itself is compared with the reference engine on a short stream
        of the same generator and seed.
        """
        from repro.analysis.sweep import stream_sweep, sweep
        from repro.core.simulator import simulate

        trace = self.generator.generate(self.profile)
        in_memory = sweep(self.base, trace, self.axes, lut=self.lut)
        for streamed, materialized in zip(self.result, in_memory):
            expect_equal(
                f"{self.name} {streamed.parameters} vs in-memory",
                result_counters(streamed.result),
                result_counters(materialized.result),
            )
        short = self._generator(120)
        streamed = stream_sweep(
            self.base, short.stream(self.profile, self.CHUNK_CYCLES), self.axes, lut=self.lut
        )
        point = rng.choice(streamed.points)
        reference = simulate(
            replace(self.base, **point.parameters),
            short.generate(self.profile),
            self.lut,
            engine="reference",
        )
        expect_equal(
            f"{self.name} short stream {point.parameters} vs reference",
            result_counters(point.result),
            result_counters(reference),
        )


class _Client:
    """One closed-loop HTTP client on loopback: next request after the reply."""

    def __init__(self, host: str, port: int, ops: Ops) -> None:
        self.host, self.port, self.ops = host, port, ops

    def request(self, method: str, path: str, payload: Any = None) -> tuple[int, bytes]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        self.ops.attempted += 1
        try:
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            data = response.read()
        except OSError as exc:
            self.ops.fail(f"exception:{type(exc).__name__}")
            return 0, b""
        finally:
            connection.close()
        if not 200 <= response.status < 300:
            self.ops.fail(f"http_{response.status}")
        return response.status, data


class CampaignService(Workload):
    """An in-process ``CampaignServer`` on a fresh store per pass.

    One closed-loop client submits an exhaustive 160-point spec over two
    traces (drained through the claim-lease queue), then an
    ``estimator-pruned`` spec over a larger 180-point grid, resubmits the
    first spec (every point reused from the store), and finally sends a
    fixed sequence of ``/records``, ``/metrics`` and ``/status`` reads.
    Drains are awaited with ``wait_idle()``. Codec hashing, store writes
    and the SQLite index dominate; the claim-lease queue is exercised on
    every point but takes about 1% of a pass, and simulation a minor share.
    """

    name = "campaign-service"
    #: Times the fixed read block repeats per pass (30 reads each).
    READ_REPEATS = 12
    #: Client latencies needed for a p99 with ten samples beyond it.
    MIN_QUERY_SAMPLES = 1000
    LAYERS = (
        "aging.lut_build", "trace.generate", "plan.bank_order", "plan.decode",
        "plan.idle_gaps", "plan.cache_lookups", "fastsim.group",
        "kernels.gap_extract", "kernels.gap_threshold_batch",
        "assembly.assemble_result", "assembly.metrics", "assembly.lut_lookups",
        "estimate.run", "planner.select", "campaign.run", "codec.content_hash",
        "store.put", "store.lookup", "queue.claim", "queue.commit", "index.add",
        "index.where", "server.handler.specs", "server.handler.status",
        "server.handler.records", "server.handler.metrics",
    )

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "") -> None:
        super().__init__(seed, tiny, workdir)
        self.windows = 40 if tiny else 120
        self.read_repeats = 1 if tiny else self.READ_REPEATS
        self.server = None
        self.status_body = b""

    def setup(self) -> None:
        from repro.aging.lut import LifetimeLUT
        from repro.analysis.planner import SearchSpec
        from repro.campaign import CampaignSpec, TraceSpec
        from repro.core.config import ArchitectureConfig

        _probe_backend()
        self.lut = LifetimeLUT.default()
        direct, _ = _geometries()
        horizon = self.windows * 1024
        traces = tuple(
            TraceSpec.synthetic(benchmark, num_windows=self.windows, master_seed=self.seed)
            for benchmark in (PROFILE, "sha")
        )
        base = ArchitectureConfig(
            direct, num_banks=4, policy="probing", update_period_cycles=horizon // 16
        )
        exhaustive_axes = {
            "num_banks": [2, 4, 8, 16],
            "policy": ["static", "probing"],
            "update_period_cycles": [horizon // 8, horizon // 16],
            "breakeven_override": [5, 20, 80, 320, 1280],
        }
        guided_axes = {
            **exhaustive_axes,
            "policy": ["static", "probing", "scrambling"],
            "update_period_cycles": [horizon // 4, horizon // 8, horizon // 16],
        }
        if self.tiny:
            exhaustive_axes = {name: values[:2] for name, values in exhaustive_axes.items()}
            guided_axes = {name: values[:2] for name, values in guided_axes.items()}
        self.exhaustive = CampaignSpec(
            name="bench-exhaustive", traces=traces, base=base, axes=exhaustive_axes
        )
        self.guided = CampaignSpec(
            name="bench-guided",
            traces=traces[:1],
            base=base,
            axes=guided_axes,
            search=SearchSpec(strategy="estimator-pruned"),
        )
        self.reads_block = self._read_block()
        self._start_server()

    @staticmethod
    def _read_block() -> list[str]:
        paths = [
            f"/records?num_banks={banks}&policy={policy}&limit=20"
            for banks in (2, 4, 8, 16)
            for policy in ("static", "probing", "scrambling")
        ]
        paths += [
            f"/records?breakeven_override={breakeven}&fidelity=simulate&limit=50"
            for breakeven in (5, 20, 80, 320, 1280)
        ]
        paths += [f"/records?trace_name={name}&limit=100" for name in (PROFILE, "sha")]
        paths += [f"/records?num_banks={banks}&limit=200" for banks in (2, 4, 8, 16)]
        paths += ["/records?limit=500", "/metrics", "/metrics", "/metrics"]
        paths += ["/records?policy=probing&num_banks=8", "/records?policy=static", "/status"]
        return paths

    def _start_server(self) -> None:
        from repro.campaign.service.server import CampaignServer

        self.directory = tempfile.mkdtemp(prefix="campaign-", dir=self.workdir)
        self.server = CampaignServer(self.directory, workers=1, parallel=None, lut=self.lut)
        self._serving = threading.Thread(
            target=self.server.serve_forever, name="bench-server", daemon=True
        )
        self._serving.start()

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self._serving.join(timeout=60)
        self.server = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def _submit(self, client: _Client, spec) -> None:
        client.request("POST", "/specs", spec.to_dict())
        self.server.service.wait_idle()

    def run_pass(self, ops: Ops) -> int:
        host, port = self.server.server_address[:2]
        client = _Client(host, port, ops)
        latencies = []
        start = time.perf_counter_ns()
        self._submit(client, self.exhaustive)
        self._submit(client, self.guided)
        self._submit(client, self.exhaustive)
        reads_start = time.perf_counter()
        for _ in range(self.read_repeats):
            for path in self.reads_block:
                sent = time.perf_counter()
                _, body = client.request("GET", path)
                latencies.append(time.perf_counter() - sent)
                if path == "/status":
                    self.status_body = body
        elapsed = time.perf_counter_ns() - start
        self.read_seconds += time.perf_counter() - reads_start
        self.latencies.extend(latencies)
        self.reads += len(latencies)
        ops.attempted += self.exhaustive.num_points() * 2 + self.guided.num_points()
        return elapsed

    def collect(self, ops: Ops) -> list:
        """Failures visible in ``/status`` and the store, every point's counters.

        Then the pass's server is stopped and the next pass's server started
        on a fresh store, outside the timed section.
        """
        from repro.campaign.store import CampaignStore

        status = json.loads(self.status_body or b"{}")
        if status.get("last_error"):
            ops.fail("last_error")
        store = CampaignStore(self.directory)
        counters = []
        self.exhaustive_records = {}
        for point in self.exhaustive.points():
            record = store.get_record(point.key())
            if record is None:
                ops.fail("missing_after_drain")
                continue
            self.exhaustive_records[point.key()] = record
            counters.append(record_counters(record))
        self.guided_records = []
        for point in self.guided.points():
            record = store.get_record(point.key())
            if record is not None:
                self.guided_records.append(record)
                counters.append(record_counters(record))
        self._stop_server()
        self._start_server()
        return counters

    def enough_samples(self) -> bool:
        return self.tiny or len(self.latencies) >= self.MIN_QUERY_SAMPLES

    def check(self, rng) -> None:
        """Reference sample, then the guided best against the exhaustive best."""
        from repro.analysis.sweep import sweep
        from repro.core.simulator import simulate

        trace_spec = self.exhaustive.traces[0]
        trace = trace_spec.build()
        point = rng.choice(list(self.exhaustive.trace_points(trace_spec)))
        record = self.exhaustive_records.get(point.key())
        if record is None:
            raise CheckFailed(f"{self.name}: sampled point {point.parameters} not stored")
        reference = simulate(point.config, trace, self.lut, engine="reference")
        expect_equal(
            f"{self.name} {point.parameters}",
            record_counters(record),
            result_counters(reference),
        )
        exhaustive = sweep(self.guided.base, trace, self.guided.axes, lut=self.lut)
        simulated = [r for r in self.guided_records if r.fidelity == "simulate"]
        for metric in HEADLINE_METRICS:
            want = exhaustive.best(metric).value(metric)
            got = max(getattr(record, metric) for record in simulated)
            if got != want:
                raise CheckFailed(
                    f"{self.name}: guided best {metric} {got!r} != exhaustive best {want!r}"
                )

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {cls.name: cls for cls in (SweepGrid, StreamLong, CampaignService)}
