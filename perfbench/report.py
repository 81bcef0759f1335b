"""Metric definitions and the per-layer report of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric names,
units and directions; ``BENCHMARK.json`` lists the same metrics and a
self-test holds the two together.

Per-layer values describe "set up once, then one pass": a layer's calls and
seconds are its set-up spans plus the mean over the traced passes. Self
seconds subtract the layer's child spans. ``share.<group>`` is the self time
of a group's layers per traced pass divided by the traced pass wall time.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

from perfbench.tracing import LAYER_OF_SPAN, Tracer

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: Layers reported with ``_s``, ``_self_s`` and ``_calls``.
LAYERS: tuple[str, ...] = (
    "aging.lut_build",
    "trace.generate",
    "plan.bank_order",
    "plan.decode",
    "plan.idle_gaps",
    "fastsim.group",
    "streamsim.process",
    "streamsim.finalize",
    "kernels.gap_extract",
    "kernels.gap_threshold_batch",
    "kernels.lru_walk",
    "kernels.stream_gap_update",
    "kernels.lru_segment",
    "assembly.assemble_result",
    "assembly.metrics",
    "estimate.run",
    "planner.select",
    "campaign.run",
    "codec.content_hash",
    "store.put",
    "store.lookup",
    "queue.claim",
    "queue.commit",
    "index.add",
    "index.where",
    "index.rebuild",
    "server.handler",
)

#: Call counts reported under the name the layer's work is known by.
CALLS_ALIAS = {
    "estimate.run": "estimate.points",
    "queue.claim": "queue.claim_attempts",
    "index.rebuild": "index.rebuilds",
}

ROUTES = ("specs", "status", "records", "metrics")
READ_ROUTES = ("status", "records", "metrics")

#: Groups whose self-time share of a traced pass is reported.
SHARE_GROUPS = (
    "trace", "plan", "fastsim", "streamsim", "kernels", "assembly", "estimate",
    "planner", "campaign", "codec", "store", "queue", "index", "server",
)

#: (name, unit, better) of the derived per-layer metrics.
DERIVED: tuple[tuple[str, str, str], ...] = (
    ("trace.chunks", "count", "lower"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("assembly.lut_lookups", "count", "lower"),
    ("planner.simulated_fraction", "ratio", "lower"),
    ("codec.hash_calls_per_point", "count", "lower"),
    ("store.reuse_ratio", "ratio", "higher"),
    ("queue.claim_success_ratio", "ratio", "higher"),
    *((f"server.handler_s.{route}", "s", "lower") for route in ROUTES),
    ("server.overhead_ms", "ms", "lower"),
    ("server.query_p50_ms", "ms", "lower"),
    ("server.query_p99_ms", "ms", "lower"),
    ("server.query_samples", "count", "higher"),
    ("pass.untraced_wall_s", "s", "lower"),
    ("pass.traced_wall_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    *((f"share.{group}", "ratio", "lower") for group in SHARE_GROUPS),
)


def _layer_metrics() -> list[tuple[str, str, str]]:
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}_s", "s", "lower"))
        metrics.append((f"{layer}_self_s", "s", "lower"))
        metrics.append((CALLS_ALIAS.get(layer, f"{layer}_calls"), "count", "lower"))
    return metrics


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (*_layer_metrics(), *DERIVED)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer: Tracer,
    traced_passes: list[str],
    traced_walls: list[float],
    untraced_walls: list[float],
    query_latencies: list[float],
    read_seconds: float,
    reads: int,
    failed_frac: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans of a traced run."""
    passes = set(traced_passes)
    count = len(traced_passes)
    setup = tracer.layers({"setup"})
    traced = tracer.layers(passes)

    def once_plus_pass(layer: str, field: str) -> float:
        one = getattr(setup[layer], field) if layer in setup else 0
        each = getattr(traced[layer], field) if layer in traced else 0
        return one + each / count

    def counted(name: str) -> float:
        return tracer.counted(name, {"setup"}) + tracer.counted(name, passes) / count

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}_s"] = once_plus_pass(layer, "total_ns") / 1e9
        values[f"{layer}_self_s"] = once_plus_pass(layer, "self_ns") / 1e9
        values[CALLS_ALIAS.get(layer, f"{layer}_calls")] = once_plus_pass(layer, "calls")

    def pass_counted(name: str) -> int:
        return tracer.counted(name, passes)

    def pass_calls(span: str) -> int:
        return traced[span].calls if span in traced else 0

    def pass_ns(span: str) -> int:
        return traced[span].total_ns if span in traced else 0

    values["trace.chunks"] = counted("trace.generate.items")
    values["plan.cache_hit_ratio"] = _ratio(
        pass_counted("plan.cache_hits"), pass_counted("plan.cache_lookups")
    )
    values["assembly.lut_lookups"] = counted("assembly.lut_lookups")
    values["planner.simulated_fraction"] = _ratio(
        pass_counted("planner.points_simulated"), pass_counted("planner.points_estimated")
    )
    requested = pass_counted("campaign.points_requested")
    values["codec.hash_calls_per_point"] = _ratio(pass_calls("codec.content_hash"), requested)
    values["store.reuse_ratio"] = _ratio(pass_counted("campaign.points_reused"), requested)
    values["queue.claim_success_ratio"] = _ratio(
        pass_counted("queue.claims_won"), pass_calls("queue.claim")
    )
    for route in ROUTES:
        values[f"server.handler_s.{route}"] = pass_ns(f"server.handler.{route}") / 1e9 / count
    handler_read_s = sum(pass_ns(f"server.handler.{route}") for route in READ_ROUTES) / 1e9
    values["server.overhead_ms"] = _ratio(read_seconds - handler_read_s, reads) * 1e3
    values["server.query_p50_ms"] = (
        percentile(query_latencies, 0.50) * 1e3 if query_latencies else 0.0
    )
    values["server.query_p99_ms"] = (
        percentile(query_latencies, 0.99) * 1e3 if query_latencies else 0.0
    )
    values["server.query_samples"] = len(query_latencies)
    untraced = statistics.median(untraced_walls)
    traced_wall = statistics.median(traced_walls)
    values["pass.untraced_wall_s"] = untraced
    values["pass.traced_wall_s"] = traced_wall
    values["trace_overhead_frac"] = traced_wall / untraced - 1.0
    values["failed_frac"] = failed_frac
    mean_wall = statistics.fmean(traced_walls)
    merged = set(LAYER_OF_SPAN.values())
    for group in SHARE_GROUPS:
        self_ns = sum(
            totals.self_ns
            for span, totals in traced.items()
            if span.split(".", 1)[0] == group and span not in merged
        )
        values[f"share.{group}"] = self_ns / 1e9 / count / mean_wall
    return values


def as_metrics(values: dict[str, float], definitions) -> dict[str, dict[str, Any]]:
    """``{"name": {"value": v, "unit": u}}`` in definition order."""
    return {
        definition[0]: {"value": values[definition[0]], "unit": definition[1]}
        for definition in definitions
    }
