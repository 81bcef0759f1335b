"""Span tracing from outside the program: wrappers around public functions.

The traced run of the benchmark wraps public functions of the library's
layers (see :data:`TARGETS`) and records one span per call: name, start,
end, parent span and run id. Spans stay in memory until the run ends and
are then written out as JSON lines.

A wrapper must patch every module-level binding of the function it wraps,
because ``from x import f`` gives the importing module its own reference:
:meth:`Tracer.install` scans every loaded ``repro`` module for the original
function object and rebinds each hit, and :meth:`Tracer.uninstall` restores
exactly what it replaced, so untraced phases run the unmodified program.

Self time of a layer is its spans' time minus the time of their child spans
(children are recorded in the same thread, nested inside the parent), kept
in integer nanoseconds so that ``self >= 0`` holds exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``attr`` is ``"name"`` for a module function or ``"Class.name"`` for a
    method. ``span`` is the layer name; ``None`` records counters only (for
    functions too small and frequent to time without distorting them).
    ``observe`` is called as ``observe(tracer, args, result)`` after each
    call; ``generator`` times every ``next()`` of the returned iterator;
    ``factory(tracer, original)`` replaces the generic wrapper outright.
    """

    module: str
    attr: str
    span: str | None
    observe: Callable[["Tracer", tuple, Any], None] | None = None
    generator: bool = False
    factory: Callable[["Tracer", Callable], Callable] | None = None


def _count_lut(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("assembly.lut_lookups")


def _count_claim(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result:
        tracer.count("queue.claims_won")


def _count_lookup(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result:
        tracer.count("store.lookup_hits")


def _count_campaign(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("campaign.points_reused", result.reused)
    tracer.count("campaign.points_requested", args[0].num_points())


def _count_search(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("planner.points_simulated", len(result.simulated))
    tracer.count("planner.points_estimated", len(result.estimated))


def _plan_cache_probe(tracer: "Tracer", original: Callable) -> Callable:
    """``TracePlan.cached`` wrapper counting lookups and hits."""

    @functools.wraps(original)
    def cached(self, key, compute):
        tracer.count("plan.cache_lookups")
        if key in self._cache:
            tracer.count("plan.cache_hits")
        return original(self, key, compute)

    return cached


#: Every wrapped callable. ``TracePlan._compute_bank_order`` is the body of
#: the public ``TracePlan.bank_order``; the engines reach the sort only
#: through ``idle_gaps``, so the sort is wrapped where both paths meet.
TARGETS: tuple[Target, ...] = (
    Target("repro.aging.lut", "LifetimeLUT.default", "aging.lut_build"),
    Target("repro.aging.lut", "LifetimeLUT.lifetime_years", None, _count_lut),
    Target("repro.aging.lut", "LifetimeLUT.lifetime_years_batch", None, _count_lut),
    Target("repro.trace.generator", "WorkloadGenerator.generate", "trace.generate"),
    Target("repro.trace.stream", "SyntheticTraceStream.chunks", "trace.generate",
           generator=True),
    Target("repro.core.plan", "TracePlan._compute_bank_order", "plan.bank_order"),
    Target("repro.core.plan", "TracePlan.decode", "plan.decode"),
    Target("repro.core.plan", "StreamingPlan.decode", "plan.decode"),
    Target("repro.core.plan", "TracePlan.idle_gaps", "plan.idle_gaps"),
    Target("repro.core.plan", "TracePlan.cached", None, factory=_plan_cache_probe),
    Target("repro.core.fastsim", "run_breakeven_group", "fastsim.group"),
    Target("repro.core.streamsim", "StreamCursor.process", "streamsim.process"),
    Target("repro.core.streamsim", "StreamCursor.finalize", "streamsim.finalize"),
    Target("repro.kernels.dispatch", "gap_extract", "kernels.gap_extract"),
    Target("repro.kernels.dispatch", "gap_threshold_batch", "kernels.gap_threshold_batch"),
    Target("repro.kernels.dispatch", "lru_walk", "kernels.lru_walk"),
    Target("repro.kernels.dispatch", "stream_gap_update", "kernels.stream_gap_update"),
    Target("repro.kernels.dispatch", "lru_segment", "kernels.lru_segment"),
    Target("repro.core.simulator", "assemble_result", "assembly.assemble_result"),
    Target("repro.core.metrics", "compute_metrics", "assembly.metrics"),
    Target("repro.estimate.engine", "EstimateEngine.run", "estimate.run"),
    Target("repro.analysis.planner", "EstimatorPrunedStrategy.select", "planner.select",
           _count_search),
    Target("repro.campaign.run", "run_campaign", "campaign.run", _count_campaign),
    Target("repro.campaign.codec", "content_hash", "codec.content_hash"),
    Target("repro.campaign.store", "CampaignStore.put", "store.put"),
    Target("repro.campaign.store", "CampaignStore.__contains__", "store.lookup",
           _count_lookup),
    Target("repro.campaign.service.queue", "WorkQueue.try_claim", "queue.claim",
           _count_claim),
    Target("repro.campaign.service.queue", "WorkQueue.log_commit", "queue.commit"),
    Target("repro.campaign.service.index", "CampaignIndex.add", "index.add"),
    Target("repro.campaign.service.index", "CampaignIndex.where", "index.where"),
    Target("repro.campaign.service.index", "CampaignIndex.rebuild", "index.rebuild"),
    Target("repro.campaign.service.server", "CampaignService.submit",
           "server.handler.specs"),
    Target("repro.campaign.service.server", "CampaignService.status",
           "server.handler.status"),
    Target("repro.campaign.service.server", "CampaignService.records",
           "server.handler.records"),
    Target("repro.campaign.service.server", "CampaignService.metrics",
           "server.handler.metrics"),
)

#: Span names that are reported as one layer (all routes of the handler).
LAYER_OF_SPAN = {
    name: "server.handler"
    for name in (
        "server.handler.specs",
        "server.handler.status",
        "server.handler.records",
        "server.handler.metrics",
    )
}


def _repro_modules() -> list:
    """Every loaded module of the library."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str
    thread: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerTotals:
    """Aggregate of one layer's spans."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """In-memory span recorder plus the wrapper installer.

    ``run_id`` names the phase the spans belong to (``"setup"``,
    ``"pass-3"``, ...); spans opened while it is set carry it, so the
    spans of one pass share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(run_id, name) -> count``
        self.counters: Counter[tuple[str, str]] = Counter()
        self.run_id = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.run_id, name)
        with self._counter_lock:
            self.counters[key] += amount

    def counted(self, name: str, run_ids: set[str]) -> int:
        """Sum of counter ``name`` over the phases in ``run_ids``."""
        return sum(
            value
            for (run_id, counter), value in self.counters.items()
            if counter == name and run_id in run_ids
        )

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        run_id = self.run_id
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, run_id, threading.get_ident())
            )

    def iterate(self, name: str, iterator: Iterator) -> Iterator:
        """Yield from ``iterator``, timing each ``next()`` as a span."""
        iterator = iter(iterator)
        while True:
            try:
                item = self.call(name, next, (iterator,), {})
            except StopIteration:
                return
            self.count(name + ".items")
            yield item

    # -- wrapping -------------------------------------------------------
    def _wrap(self, target: Target, original: Callable) -> Callable:
        if target.factory is not None:
            return target.factory(self, original)
        tracer = self

        if target.generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.iterate(target.span, original(*args, **kwargs))
        elif target.span is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if target.observe is not None:
                    target.observe(tracer, args, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = tracer.call(target.span, original, args, kwargs)
                if target.observe is not None:
                    target.observe(tracer, args, result)
                return result

        return wrapper

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target, rebinding each module-level reference."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        functions: dict[int, Callable] = {}
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    replacement = type(raw)(self._wrap(target, raw.__func__))
                else:
                    replacement = self._wrap(target, raw)
                self._patch(owner, attr, replacement)
            else:
                original = getattr(module, attr)
                functions[id(original)] = self._wrap(target, original)
        # One scan of every loaded repro module rebinds all references to
        # each wrapped module-level function, wherever it was imported.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None and callable(value):
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced.

        A module imported while the wrappers were installed may have
        copied a wrapper with ``from x import f``; those copies are found
        by identity and restored too.
        """
        originals = {
            id(getattr(owner, attr)): original for owner, attr, original in self._patches
        }
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)

    # -- aggregation ----------------------------------------------------
    def layers(self, run_ids: set[str]) -> dict[str, LayerTotals]:
        """Calls, total and self nanoseconds per layer over ``run_ids``."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span in self.spans:
            if span.run_id not in run_ids:
                continue
            for name in {span.name, LAYER_OF_SPAN.get(span.name, span.name)}:
                layer = totals[name]
                layer.calls += 1
                layer.total_ns += span.duration_ns
                layer.self_ns += span.duration_ns - child_ns[span.span_id]
        return dict(totals)

    def write(self, path: str, extra: dict[str, Any]) -> None:
        """Write a header line and one JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            counters = [
                {"run": run_id, "name": name, "value": value}
                for (run_id, name), value in sorted(self.counters.items())
            ]
            handle.write(json.dumps({"header": extra, "counters": counters}) + "\n")
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start_ns": span.start_ns,
                            "end_ns": span.end_ns,
                            "parent": span.parent,
                            "run": span.run_id,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )
