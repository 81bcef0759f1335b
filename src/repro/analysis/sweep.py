"""Declarative parameter sweeps over the simulator.

A sweep is a cartesian product of named parameter axes applied to a
base :class:`~repro.core.config.ArchitectureConfig` via
``dataclasses.replace``, each point simulated on a shared trace through
the :func:`~repro.core.simulator.simulate` dispatcher (so any engine —
and any geometry, including set-associative ones — works). Results come
back as :class:`SweepResult`, a small query-friendly container used by
the ablation benches and the exploration example.

The grid does not pay the full per-point cost: a shared
:class:`~repro.core.plan.TracePlan` memoizes the address decode, epoch
boundaries and bank-sorted access stream across points, and points that
differ only in ``breakeven_override`` are simulated as one
:func:`~repro.core.fastsim.run_breakeven_group` — one gap computation
for the whole breakeven axis. Every result stays bit-identical to an
independent per-point simulation (the tests hold the two together).

Large grids can be fanned out over processes with ``parallel=N``: the
cartesian product is split into contiguous chunks, simulated by a
:class:`~concurrent.futures.ProcessPoolExecutor`, and reassembled in
the exact order the serial path would have produced. The trace and LUT
travel to each worker once, through the pool initializer; chunk payloads
carry only the parameter combinations, so fanning out a big trace no
longer re-pickles it per chunk.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro.aging.lut import LifetimeLUT
from repro.analysis.planner import (
    PlanContext,
    PlannedGrid,
    SearchOutcome,
    SearchSpec,
    breakeven_group_ids,
    get_strategy,
    plan_grid,
)
from repro.core.config import ArchitectureConfig
from repro.core.engine import resolve_engine, validate_engine
from repro.core.plan import TracePlan
from repro.core.results import SimulationResult
from repro.core.simulator import simulate
from repro.errors import ConfigurationError
from repro.trace.trace import Trace


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point: the parameter assignment and its result."""

    parameters: dict
    result: SimulationResult

    def value(self, metric: str):
        """Read a metric off the result by attribute name."""
        return getattr(self.result, metric)


@dataclass(frozen=True)
class SweepResult:
    """All points of one sweep."""

    points: tuple[SweepPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def where(self, **constraints) -> "SweepResult":
        """Filter points whose parameters match all ``constraints``."""
        kept = tuple(
            p
            for p in self.points
            if all(p.parameters.get(k) == v for k, v in constraints.items())
        )
        return SweepResult(points=kept)

    def series(self, axis: str, metric: str) -> list[tuple[object, float]]:
        """(axis value, metric) pairs sorted by axis value.

        Axes may mix ``None`` with other values (e.g. the natural
        static-vs-dynamic sweep ``update_period_cycles: [None, 50000]``);
        ``None`` sorts first, numbers numerically, anything else by type
        then repr, so the key is total without comparing across types.
        """
        pairs = [(p.parameters[axis], p.value(metric)) for p in self.points]
        return sorted(pairs, key=lambda pair: _axis_sort_key(pair[0]))

    def best(self, metric: str, maximize: bool = True) -> SweepPoint:
        """The point optimizing ``metric``."""
        if not self.points:
            raise ConfigurationError("empty sweep has no best point")
        chooser = max if maximize else min
        return chooser(self.points, key=lambda p: p.value(metric))


def _axis_sort_key(value) -> tuple:
    """None-first, type-stable total ordering key for axis values."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, bool):
        return (1, float(value), "")
    if isinstance(value, (int, float)):
        return (2, float(value), "")
    return (3, 0.0, f"{type(value).__name__}:{value!r}")


#: Per-worker shared state, installed once by :func:`_init_worker` so
#: chunk payloads never carry the trace or the LUT.
_worker_trace: Trace | None = None
_worker_lut: LifetimeLUT | None = None
_worker_plan: TracePlan | None = None


def _init_worker(
    trace: Trace,
    lut: LifetimeLUT,
    engines: tuple = (),
    metrics: tuple = (),
    templates: tuple = (),
) -> None:
    """Pool initializer: shared trace/LUT plus the parent's plugins.

    Built-in engines/metrics/templates re-register themselves in every
    process via imports, but plugin registrations only exist in the
    parent — under a ``spawn``/``forkserver`` start method a worker
    would otherwise not know a custom engine name (crash) or silently
    drop a custom metric's values. The parent's custom registry entries
    therefore travel here, once per worker (they must pickle).
    """
    from repro.core.engine import install_engines
    from repro.core.metrics import install_metrics, install_templates

    install_templates(templates)
    install_metrics(metrics)
    install_engines(engines)
    global _worker_trace, _worker_lut, _worker_plan
    _worker_trace = trace
    _worker_lut = lut
    _worker_plan = TracePlan(trace)


def _simulate_chunk(payload) -> list[SimulationResult]:
    """Worker for the parallel sweep: simulate one chunk of the grid.

    Module-level (not a closure) so it pickles into pool workers; the
    trace, LUT and plan come from :func:`_init_worker`, not the payload.
    """
    base, names, combos, group_ids, engine = payload
    return _simulate_combos(
        base, _worker_trace, names, combos, group_ids, _worker_lut, engine, _worker_plan
    )


def _simulate_combos(
    base: ArchitectureConfig,
    trace: Trace,
    names: list[str],
    combos: list[tuple],
    group_ids: list[int] | None,
    lut: LifetimeLUT | None,
    engine: str,
    plan: TracePlan | None,
    on_result=None,
) -> list[SimulationResult]:
    """Simulate combos in order, batching breakeven-only groups.

    The breakeven-group fast path is an engine *capability*: it is
    taken only when the engine resolved for this grid exposes a
    ``run_group`` method (the fast engine does, and ``auto`` resolves
    to it for every banked configuration). Engines without one — the
    reference oracle, the fine-grain template, any registered custom
    engine — and grids without a breakeven axis fall back to per-point
    dispatch. ``on_result(position, result)`` is invoked as soon as
    each point's result exists (per point, or per breakeven group),
    which is what lets a campaign persist finished work before the
    batch completes.
    """
    if group_ids is None:
        results = []
        for position, combo in enumerate(combos):
            result = simulate(
                replace(base, **dict(zip(names, combo))),
                trace,
                lut,
                engine=engine,
                plan=plan,
            )
            results.append(result)
            if on_result is not None:
                on_result(position, result)
        return results
    groups: dict[int, list[int]] = {}
    for position, group_id in enumerate(group_ids):
        groups.setdefault(group_id, []).append(position)
    results: list[SimulationResult | None] = [None] * len(combos)
    for members in groups.values():
        configs = [
            replace(base, **dict(zip(names, combos[position])))
            for position in members
        ]
        # Resolve per group, not per grid: other axes (geometry, bank
        # count, ...) vary across groups and may resolve "auto" — or an
        # explicit engine's supports() — differently; within a group,
        # configs differ only in breakeven_override.
        run_group = getattr(resolve_engine(engine, configs[0]), "run_group", None)
        if run_group is None:
            for position, config in zip(members, configs):
                result = simulate(config, trace, lut, engine=engine, plan=plan)
                results[position] = result
                if on_result is not None:
                    on_result(position, result)
            continue
        for position, result in zip(
            members, run_group(configs, trace, lut=lut, plan=plan)
        ):
            results[position] = result
            if on_result is not None:
                on_result(position, result)
    return results


def _chunk_payloads(
    base: ArchitectureConfig,
    names: list[str],
    combos: list[tuple],
    group_ids: list[int] | None,
    engine: str,
    workers: int,
) -> list[tuple]:
    """Contiguous chunk payloads for the worker pool.

    Deliberately trace-free: a payload is (base config, axis names, the
    chunk's combos and group ids, engine) — a few hundred bytes no
    matter how long the trace is. Tests pin this with a pickle-size
    assertion.
    """
    chunk_size = -(-len(combos) // workers)  # ceil division
    payloads = []
    for start in range(0, len(combos), chunk_size):
        chunk = combos[start : start + chunk_size]
        ids = (
            group_ids[start : start + chunk_size] if group_ids is not None else None
        )
        payloads.append((base, names, chunk, ids, engine))
    return payloads


def simulate_selected(
    base: ArchitectureConfig,
    trace: Trace,
    names: list[str],
    combos: list[tuple],
    group_ids: list[int] | None = None,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
    plan: TracePlan | None = None,
    on_result=None,
) -> list[SimulationResult]:
    """Simulate an explicit list of grid points on one trace.

    The reusable core of :func:`sweep`: ``combos`` need not be a full
    cartesian product — the campaign layer passes only the points its
    store is missing — yet every batching lever still applies: a shared
    :class:`TracePlan`, the breakeven-group fast path (points sharing a
    ``group_ids`` entry differ only in ``breakeven_override`` and are
    evaluated from one gap computation), and the ``parallel`` process
    fan-out with trace-free chunk payloads. Results come back in
    ``combos`` order, bit-identical to per-point :func:`simulate` calls.

    ``on_result(position, result)`` fires as results become available —
    per point or breakeven group serially, per finished chunk in
    parallel mode — so callers can persist progress incrementally
    instead of waiting for the whole batch.
    """
    # Validate up front: the breakeven-grouped path never reaches
    # simulate()'s own engine check, and a typo'd engine must not
    # silently fall through to the fast engine.
    validate_engine(engine)
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be a positive worker count")
    if not combos:
        return []
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    workers = min(parallel or 1, len(combos))
    if workers > 1:
        from repro.core.engine import custom_engines
        from repro.core.metrics import custom_metrics, custom_templates

        payloads = _chunk_payloads(base, names, combos, group_ids, engine, workers)
        with ProcessPoolExecutor(
            max_workers=len(payloads),
            initializer=_init_worker,
            initargs=(
                trace,
                shared_lut,
                custom_engines(),
                custom_metrics(),
                custom_templates(),
            ),
        ) as pool:
            results: list[SimulationResult] = []
            # pool.map yields chunks in submission order as they
            # finish; reporting per chunk keeps progress durable even
            # if a later chunk (or the caller) dies.
            for chunk in pool.map(_simulate_chunk, payloads):
                if on_result is not None:
                    for offset, result in enumerate(chunk):
                        on_result(len(results) + offset, result)
                results.extend(chunk)
            return results
    if plan is None:
        plan = TracePlan(trace)
    return _simulate_combos(
        base, trace, names, combos, group_ids, shared_lut, engine, plan, on_result
    )


def _grid(axes: dict[str, list]) -> tuple[list[str], list[tuple]]:
    """Validated axis names and their cartesian product (planner-backed)."""
    grid = plan_grid(axes)
    return list(grid.names), list(grid.combos)


def stream_sweep(
    base: ArchitectureConfig,
    stream,
    axes: dict[str, list],
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
) -> SweepResult:
    """Out-of-core :func:`sweep`: the whole grid in one pass over a stream.

    ``stream`` is a :class:`~repro.trace.stream.TraceStream` — or a
    zero-argument callable producing one, which is what ``parallel=N``
    wants: each worker re-opens its own stream. Every grid point's
    carried state (one cursor per breakeven group) advances chunk by
    chunk through a shared :class:`~repro.core.plan.StreamingPlan`, so
    peak memory is bounded by the chunk size plus per-point state —
    never the trace length — and every result is bit-identical to
    :func:`sweep` on the materialized trace (the streaming fuzz suite
    holds the two together). Engines join via the streaming
    capabilities documented on :class:`~repro.core.engine.Engine`.

    ``parallel=N`` shards the single pass across ``N`` worker
    processes by set/bank partition (see
    :func:`repro.core.streamsim.stream_selected`); results stay
    bit-identical to the serial pass. When the pass cannot be sharded
    (engine without shard support, or a stream that neither pickles
    nor came from a factory) a :class:`~repro.errors.ReproWarning` is
    emitted and the serial single pass runs instead.
    """
    from repro.core.streamsim import stream_selected

    names, combos = _grid(axes)
    results = stream_selected(
        base,
        stream,
        names,
        combos,
        group_ids=breakeven_group_ids(names, axes),
        lut=lut,
        engine=engine,
        parallel=parallel,
    )
    points = tuple(
        SweepPoint(parameters=dict(zip(names, combo)), result=result)
        for combo, result in zip(combos, results)
    )
    return SweepResult(points=points)


def sweep(
    base: ArchitectureConfig,
    trace: Trace,
    axes: dict[str, list],
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
) -> SweepResult:
    """Simulate the cartesian product of ``axes`` over ``base``.

    Parameters
    ----------
    base:
        Configuration template; each axis name must be a field of
        :class:`ArchitectureConfig` (e.g. ``num_banks``, ``policy``,
        ``breakeven_override``, ``update_period_cycles``, ``geometry``).
    trace:
        Shared workload.
    axes:
        Mapping of field name to the values to explore.
    engine:
        Engine selector forwarded to
        :func:`~repro.core.simulator.simulate` for every point.
    parallel:
        Fan the grid out over up to this many worker processes
        (contiguous chunks, results reassembled in deterministic grid
        order). ``None`` or ``1`` runs serially. The trace and LUT are
        shipped once per worker via the pool initializer; chunk
        payloads carry only parameter combinations.

    >>> # doctest-style sketch (not executed here):
    >>> # result = sweep(cfg, trace, {"num_banks": [2, 4, 8]}, parallel=4)
    """
    names, combos = _grid(axes)
    results = simulate_selected(
        base,
        trace,
        names,
        combos,
        group_ids=breakeven_group_ids(names, axes),
        lut=lut,
        engine=engine,
        parallel=parallel,
    )
    points = tuple(
        SweepPoint(parameters=dict(zip(names, combo)), result=result)
        for combo, result in zip(combos, results)
    )
    return SweepResult(points=points)


@dataclass(frozen=True)
class SearchSweepResult:
    """Outcome of a strategy-guided sweep (see :func:`search_sweep`).

    ``simulated`` holds the full-fidelity points the strategy chose (a
    subset of the grid, in grid order); ``estimates`` holds every
    estimate-fidelity point the strategy consulted (empty for
    ``exhaustive``). ``outcome`` records the raw grid indices per tier.
    """

    search: SearchSpec
    simulated: SweepResult
    estimates: SweepResult
    outcome: SearchOutcome

    @property
    def simulations_avoided(self) -> int:
        """Grid points that never paid full simulation."""
        return len(set(self.outcome.estimated) - set(self.outcome.simulated))


def search_sweep(
    base: ArchitectureConfig,
    trace: Trace,
    axes: dict[str, list],
    search: SearchSpec | str | None = None,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
) -> SearchSweepResult:
    """Strategy-guided :func:`sweep`: simulate only what the search asks.

    ``search`` selects and tunes the strategy (a
    :class:`~repro.analysis.planner.SearchSpec`, a bare strategy name,
    or ``None`` for exhaustive). Estimates come from the ``"estimate"``
    fidelity tier (:mod:`repro.estimate`); simulations run through
    :func:`simulate_selected` with the usual plan sharing, breakeven
    batching over the surviving subset, and ``parallel`` fan-out.
    Simulated points are bit-identical to a full :func:`sweep`'s points
    at the same grid positions.
    """
    if search is None:
        spec = SearchSpec()
    elif isinstance(search, str):
        spec = SearchSpec(strategy=search)
    else:
        spec = search
    validate_engine(engine)
    grid: PlannedGrid = plan_grid(axes)
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    plan = TracePlan(trace)
    simulated: dict[int, SimulationResult] = {}
    estimated: dict[int, SimulationResult] = {}

    def run_simulate(indices):
        chosen = [int(i) for i in indices]
        results = simulate_selected(
            base,
            trace,
            list(grid.names),
            [grid.combos[i] for i in chosen],
            group_ids=grid.subset_group_ids(chosen),
            lut=shared_lut,
            engine=engine,
            parallel=parallel,
            plan=plan,
        )
        for index, result in zip(chosen, results):
            simulated[index] = result
        return results

    def run_estimate(indices):
        from repro.core.engine import get_engine

        estimator = get_engine("estimate")
        results = []
        for index in (int(i) for i in indices):
            config = replace(base, **grid.parameters(index))
            result = estimator.run(config, trace, lut=shared_lut, plan=plan)
            estimated[index] = result
            results.append(result)
        return results

    context = PlanContext(
        grid=grid, search=spec, simulate=run_simulate, estimate=run_estimate
    )
    outcome = get_strategy(spec.strategy).select(context)
    return SearchSweepResult(
        search=spec,
        simulated=SweepResult(
            points=tuple(
                SweepPoint(parameters=grid.parameters(i), result=simulated[i])
                for i in outcome.simulated
            )
        ),
        estimates=SweepResult(
            points=tuple(
                SweepPoint(parameters=grid.parameters(i), result=estimated[i])
                for i in outcome.estimated
            )
        ),
        outcome=outcome,
    )
