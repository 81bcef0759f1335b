"""Campaign execution: run only what the store does not already hold.

:func:`run_campaign` walks a :class:`~repro.campaign.spec.CampaignSpec`
point by point, asks the :class:`~repro.campaign.store.CampaignStore`
for each ``(trace_hash, config_hash)`` identity, and simulates *only*
the missing points — through
:func:`repro.analysis.sweep.simulate_selected`, so missing points on
one trace still share a single :class:`~repro.core.plan.TracePlan`,
points differing only in ``breakeven_override`` collapse into one
batched gap computation, and ``parallel=N`` fans chunks out over
processes. Chunked (streaming) traces run through
:func:`repro.core.streamsim.stream_selected` instead, where
``parallel=N`` shards the single shared pass by set/bank partition —
still bit-identical to the serial and in-memory paths.

Consequences (pinned by the tests):

* running the same spec twice simulates **zero** points the second
  time — including after an interruption, because every finished point
  was already persisted atomically;
* widening an axis simulates only the new points;
* a trace is not even materialized unless one of its points is missing,
  so resuming a finished campaign costs only hash computations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.aging.lut import LifetimeLUT
from repro.analysis.planner import (
    PlanContext,
    SearchSpec,
    breakeven_group_ids,
    get_strategy,
    plan_grid,
)
from repro.analysis.sweep import simulate_selected
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.tracespec import TraceSpec
from repro.core.plan import TracePlan
from repro.core.serialize import ResultRecord, write_json_atomic


@dataclass(frozen=True)
class CampaignPoint:
    """One finished campaign point and its stored record."""

    trace: TraceSpec
    parameters: dict
    trace_hash: str
    config_hash: str
    record: ResultRecord

    def value(self, metric: str):
        """Read a metric off the record by attribute name."""
        return getattr(self.record, metric)


@dataclass(frozen=True)
class CampaignResult:
    """All points of one campaign run, plus what the run actually did.

    ``estimated`` counts fresh estimator evaluations performed by a
    guided (non-exhaustive) run; exhaustive runs never estimate. For a
    guided run ``points`` holds only the grid points with a
    *simulated* record (survivors plus anything already stored) — the
    estimated tier lives in the store under its own keys.
    """

    spec: CampaignSpec
    points: tuple[CampaignPoint, ...]
    simulated: int
    reused: int
    estimated: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def records(self) -> list[ResultRecord]:
        """The records in grid order."""
        return [p.record for p in self.points]


@dataclass(frozen=True)
class CampaignStatus:
    """Store coverage of a spec without running anything.

    ``estimated`` counts grid points covered at the *estimate* fidelity
    tier (guided runs screen points there first); ``done`` counts only
    the spec's own fidelity — an estimated record never satisfies a
    simulating spec's point.
    """

    total: int
    done: int
    estimated: int = 0

    @property
    def missing(self) -> int:
        """Points not yet in the store."""
        return self.total - self.done


def _streaming_source(spec: CampaignSpec, trace_spec: TraceSpec):
    """A factory for the chunked stream, or ``None`` for in-memory.

    A spec opts in per trace (``chunk_cycles > 0`` on the trace
    source); the opt-in is honored only when the spec's engine exposes
    the streaming capability for the base configuration — otherwise the
    runner quietly falls back to materializing, since the stored
    records are bit-identical either way. The *factory* (the spec's
    bound ``stream`` method, picklable) is returned rather than an
    opened stream so a ``parallel=N`` sharded pass can re-open the
    stream once per worker.
    """
    stream_factory = getattr(trace_spec, "stream", None)
    if stream_factory is None:
        return None
    from repro.campaign.tracespec import trace_source
    from repro.core.engine import resolve_engine, supports_streaming

    source = trace_source(trace_spec.kind)
    if source.stream_build is None or not trace_spec.params.get("chunk_cycles", 0):
        return None
    if not supports_streaming(resolve_engine(spec.engine, spec.base)):
        return None
    return stream_factory


def campaign_status(spec: CampaignSpec, store: CampaignStore) -> CampaignStatus:
    """How much of ``spec`` the store already holds."""
    total = 0
    done = 0
    estimated = 0
    for point in spec.points():
        total += 1
        if point.key() in store:
            done += 1
        if point.fidelity != "estimate" and point.key_at("estimate") in store:
            estimated += 1
    return CampaignStatus(total=total, done=done, estimated=estimated)


def status_payload(spec: CampaignSpec, store: CampaignStore) -> dict:
    """Machine-readable status — one code path for CLI and HTTP server.

    ``repro campaign status --json`` prints exactly this payload and
    the service front-end's ``GET /status`` embeds it per spec, so the
    CI smoke and a remote client read the same numbers. Served from
    membership checks only: no result file is opened.
    """
    status = campaign_status(spec, store)
    return {
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "total": status.total,
        "done": status.done,
        "missing": status.missing,
        "estimated": status.estimated,
        "strategy": spec.search.strategy if spec.search is not None else "exhaustive",
        "traces": len(spec.traces),
        "points_per_trace": len(spec.combos()),
    }


def _write_manifest(spec: CampaignSpec, store: CampaignStore) -> None:
    """Record the latest spec (and its hash) in the campaign directory."""
    if store.directory is None:
        return
    os.makedirs(store.directory, exist_ok=True)
    write_json_atomic(
        os.path.join(store.directory, "campaign.json"),
        {"spec": spec.to_dict(), "spec_hash": spec.spec_hash()},
    )


def _collect_points(spec: CampaignSpec, store: CampaignStore) -> tuple[CampaignPoint, ...]:
    """Materialize every grid point's stored record, in grid order."""
    collected: list[CampaignPoint] = []
    for trace_spec in spec.traces:
        for point in spec.trace_points(trace_spec):
            key = point.key()
            collected.append(
                CampaignPoint(
                    trace=trace_spec,
                    parameters=point.parameters,
                    trace_hash=key[0],
                    config_hash=key[1],
                    record=store.get_record(key),
                )
            )
    return tuple(collected)


def _resolve_search(
    spec: CampaignSpec, search: "SearchSpec | str | None"
) -> SearchSpec | None:
    """The effective search block: call-site override, then the spec's.

    Returns ``None`` for exhaustive execution (also when the resolved
    block names the ``exhaustive`` strategy — that *is* the classic
    path, bit-identically).
    """
    if search is None:
        search = spec.search
    elif isinstance(search, str):
        search = SearchSpec(strategy=search)
    if search is None or search.strategy == "exhaustive":
        return None
    return search


def _run_guided(
    spec: CampaignSpec,
    store: CampaignStore,
    search: SearchSpec,
    lut: LifetimeLUT,
    parallel: int | None,
) -> CampaignResult:
    """Strategy-guided execution: estimate the grid, simulate survivors.

    Every estimator evaluation is persisted under the point's
    *estimate*-fidelity key and every simulation under its plain
    simulated key, so a guided run and an exhaustive run of the same
    spec share simulated records — and a later exhaustive run only
    fills in the points the strategy pruned.
    """
    from repro.core.engine import get_engine, result_family, result_fidelity
    from repro.errors import ConfigurationError

    if result_family(spec.engine) != "banked":
        raise ConfigurationError(
            f"guided search needs a banked-family engine — the estimator "
            f"predicts the banked machine, so its screening is "
            f"meaningless for {spec.engine!r}; run strategy 'exhaustive' "
            "instead"
        )
    if result_fidelity(spec.engine) == "estimate":
        raise ConfigurationError(
            "guided search screens with the estimator and simulates "
            "survivors; a campaign whose engine is already the "
            "estimator has nothing to prune — use strategy 'exhaustive'"
        )

    grid = plan_grid(spec.axes, allow_empty=True)
    estimator = get_engine("estimate")

    all_points: list[CampaignPoint] = []
    simulated = 0
    estimated = 0
    reused = 0
    for trace_spec in spec.traces:
        points = spec.trace_points(trace_spec)
        keys = [point.key() for point in points]
        present = {i for i, key in enumerate(keys) if key in store}
        reused += len(present)
        if len(present) < len(points):
            trace = trace_spec.build()
            plan = TracePlan(trace)
            est_keys = [point.key_at("estimate") for point in points]
            counters = {"simulated": 0, "estimated": 0}

            def run_estimate(indices, _trace=trace, _plan=plan,
                             _points=points, _est_keys=est_keys,
                             _counters=counters):
                out = []
                for i in indices:
                    result = store.get_result(_est_keys[i], lut=lut)
                    if result is None:
                        result = estimator.run(
                            _points[i].config, _trace, lut=lut, plan=_plan
                        )
                        store.put(_est_keys[i], result)
                        _counters["estimated"] += 1
                    out.append(result)
                return out

            def run_simulate(indices, _trace=trace, _plan=plan,
                             _keys=keys, _counters=counters):
                fresh = [i for i in indices if _keys[i] not in store]
                if fresh:
                    simulate_selected(
                        spec.base,
                        _trace,
                        list(grid.names),
                        [grid.combos[i] for i in fresh],
                        group_ids=grid.subset_group_ids(fresh),
                        lut=lut,
                        engine=spec.engine,
                        parallel=parallel,
                        plan=_plan,
                        on_result=lambda j, result: store.put(
                            _keys[fresh[j]], result
                        ),
                    )
                    _counters["simulated"] += len(fresh)
                return [store.get_result(_keys[i], lut=lut) for i in indices]

            context = PlanContext(
                grid=grid,
                search=search,
                simulate=run_simulate,
                estimate=run_estimate,
            )
            get_strategy(search.strategy).select(context)
            simulated += counters["simulated"]
            estimated += counters["estimated"]
        for point, key in zip(points, keys):
            record = store.get_record(key)
            if record is None:
                continue  # pruned by the strategy — no simulated record
            all_points.append(
                CampaignPoint(
                    trace=trace_spec,
                    parameters=point.parameters,
                    trace_hash=key[0],
                    config_hash=key[1],
                    record=record,
                )
            )
    return CampaignResult(
        spec=spec,
        points=tuple(all_points),
        simulated=simulated,
        reused=reused,
        estimated=estimated,
    )


def run_campaign(
    spec: CampaignSpec,
    directory: str | os.PathLike | None = None,
    store: CampaignStore | None = None,
    lut: LifetimeLUT | None = None,
    parallel: int | None = None,
    workers: int | None = None,
    search: "SearchSpec | str | None" = None,
) -> CampaignResult:
    """Execute ``spec``, simulating only points absent from the store.

    Parameters
    ----------
    spec:
        The declarative campaign description.
    directory:
        Campaign directory for persistence; ``None`` runs in memory
        (every point simulates, nothing survives the process). Ignored
        when an explicit ``store`` is passed.
    store:
        An already-open store to run against (shared with e.g. an
        :class:`~repro.experiments.runner.ExperimentRunner`).
    lut:
        Lifetime LUT; defaults to the calibrated shared instance.
        Stored integer counters are LUT-independent; derived lifetime
        fields assume the same LUT across runs.
    parallel:
        Worker processes for the missing points of each trace. For an
        in-memory trace the missing points fan out across workers; a
        trace that opts into chunked loading (``chunk_cycles > 0``)
        instead shards its single shared streaming pass by set/bank
        partition across the workers, each re-opening the stream from
        the spec's factory — bit-identical to the serial pass, with
        peak memory still bounded by the chunk size. When a streaming
        pass cannot be sharded (the engine lacks shard support, or the
        stream cannot travel to workers) a
        :class:`~repro.errors.ReproWarning` is emitted and that
        trace's pass runs serially.
    workers:
        Claim-loop worker processes (the campaign service's work
        queue). ``None`` keeps the classic single-process path with no
        claim files. Any value >= 1 routes through
        :func:`repro.campaign.service.queue.drain_campaign`:
        missing points are leased (TTL + heartbeat), simulated, and
        committed, so several invocations — across processes or hosts
        sharing ``directory`` — drain one campaign without
        double-simulating. Requires a directory-backed store.
    search:
        Search strategy override: a
        :class:`~repro.analysis.planner.SearchSpec`, a strategy name,
        or ``None`` to use the spec's own ``search`` block (and
        exhaustive execution when the spec has none). Anything other
        than exhaustive routes through :func:`_run_guided`: the whole
        grid is estimated (records persisted under estimate-fidelity
        keys), the strategy picks survivors, and only those are
        simulated.

    Returns
    -------
    CampaignResult
        Every point of the grid (reused and new alike) in grid order,
        with ``simulated``/``reused`` counting what this call did.
    """
    if store is None:
        store = CampaignStore(directory)
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    _write_manifest(spec, store)

    effective_search = _resolve_search(spec, search)
    if effective_search is not None:
        if workers is not None:
            import warnings

            from repro.errors import ReproWarning

            # The claim queue leases points independently; a strategy
            # decides *which* points to lease only after estimating, so
            # guided runs stay single-process (parallelism still fans
            # out inside each simulate batch).
            warnings.warn(
                "guided search ignores workers=…; running single-process "
                "(simulate batches still honor parallel=…)",
                ReproWarning,
                stacklevel=2,
            )
        return _run_guided(spec, store, effective_search, shared_lut, parallel)

    if workers is not None:
        from repro.campaign.service.queue import drain_campaign
        from repro.errors import ConfigurationError

        if store.directory is None:
            raise ConfigurationError(
                "run_campaign(workers=...) needs a directory-backed store; "
                "claims and commit logs live beside results/"
            )
        simulated = drain_campaign(
            spec,
            store.directory,
            lut=shared_lut,
            workers=workers,
            parallel=parallel,
        )
        points = _collect_points(spec, store)
        return CampaignResult(
            spec=spec,
            points=points,
            simulated=simulated,
            reused=len(points) - simulated,
        )

    names = spec.axis_names
    combos = spec.combos()
    group_ids = breakeven_group_ids(names, spec.axes)

    all_points: list[CampaignPoint] = []
    simulated = 0
    reused = 0
    for trace_spec in spec.traces:
        points = spec.trace_points(trace_spec)
        keys = [point.key() for point in points]
        missing = [i for i, key in enumerate(keys) if key not in store]
        if missing:
            missing_combos = [combos[i] for i in missing]
            missing_groups = (
                [group_ids[i] for i in missing] if group_ids is not None else None
            )
            # Persist each result the moment it exists (per point /
            # breakeven group / parallel chunk): an interruption
            # loses at most the in-flight batch, and the rerun
            # resumes from everything already stored.
            on_result = lambda j, result: store.put(keys[missing[j]], result)
            stream = _streaming_source(spec, trace_spec)
            if stream is not None:
                # Chunked loading: the trace is never materialized;
                # every missing point advances through one shared pass
                # over the stream (results — and therefore stored
                # records — are bit-identical to the in-memory path,
                # so chunked and unchunked runs resume each other).
                from repro.core.streamsim import stream_selected

                stream_selected(
                    spec.base,
                    stream,
                    names,
                    missing_combos,
                    group_ids=missing_groups,
                    lut=shared_lut,
                    engine=spec.engine,
                    on_result=on_result,
                    parallel=parallel,
                )
            else:
                # Materialize the trace only now — a fully covered
                # trace costs nothing to resume.
                trace = trace_spec.build()
                simulate_selected(
                    spec.base,
                    trace,
                    names,
                    missing_combos,
                    group_ids=missing_groups,
                    lut=shared_lut,
                    engine=spec.engine,
                    parallel=parallel,
                    plan=TracePlan(trace),
                    on_result=on_result,
                )
            simulated += len(missing)
        reused += len(combos) - len(missing)
        for point, key in zip(points, keys):
            record = store.get_record(key)
            all_points.append(
                CampaignPoint(
                    trace=trace_spec,
                    parameters=point.parameters,
                    trace_hash=key[0],
                    config_hash=key[1],
                    record=record,
                )
            )
    return CampaignResult(
        spec=spec,
        points=tuple(all_points),
        simulated=simulated,
        reused=reused,
    )
