"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands reproduce the paper's artifacts from the terminal::

    repro table1            # Table I  (idleness distribution)
    repro table2            # Table II (energy + lifetime vs cache size)
    repro table3            # Table III (vs line size)
    repro table4            # Table IV (vs number of banks)
    repro headline          # Sections I/V summary claims
    repro cell              # aging curve of the calibrated 6T cell
    repro arch              # structural summary / overhead report
    repro policies          # probing vs scrambling uniformity convergence
    repro profile <bench>   # characterize a synthetic workload
    repro engines           # registered simulation engines
    repro metrics           # registered derived metrics
    repro sweep             # design-space sweep on one workload
    repro campaign run s.json --dir DIR     # resumable spec-file campaign
    repro campaign status s.json --dir DIR  # store coverage of a spec
    repro campaign show PATH [--metric X]   # render a campaign dir or results file
    repro campaign migrate DIR              # flat store -> sharded layout + index
    repro campaign serve DIR --port N       # HTTP/JSON front-end over a store
    repro campaign submit s.json --url U    # send a spec to a running service

``--quick`` runs a reduced benchmark set with shorter traces — useful
for smoke checks; the full run takes a couple of minutes.

``repro sweep`` exercises the shared trace-plan sweep engine: one
decode/sort of the trace feeds every grid point, a breakeven axis is
batched into single gap computations, and ``--parallel N`` fans chunks
out over processes without re-pickling the trace per chunk. ``--save``
persists the results as a (v2, exactly resimulable) JSON file.
``--chunk-cycles N`` runs the whole grid out-of-core: the workload is
generated and simulated in N-cycle chunks in a single pass, with peak
memory bounded by the chunk size instead of the trace length — and
bit-identical results.

``repro campaign`` takes a declarative JSON spec file (see
:class:`repro.campaign.CampaignSpec`); running the same spec twice
against the same ``--dir`` simulates nothing the second time, and
widening an axis simulates only the new points. ``run --workers N``
drains through the claim-based work queue, so several invocations (or
hosts sharing the directory) cooperate without double-simulating;
``serve``/``submit`` put the same machinery behind a stdlib HTTP/JSON
service (see :mod:`repro.campaign.service`).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import engine_names
from repro.experiments.compare import (
    compare_table1,
    compare_table2,
    compare_table3,
    compare_table4,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.suite import ExperimentSettings
from repro.experiments.tables import headline, table1, table2, table3, table4

_TABLES = {
    "table1": (table1, compare_table1),
    "table2": (table2, compare_table2),
    "table3": (table3, compare_table3),
    "table4": (table4, compare_table4),
}


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    settings = ExperimentSettings(master_seed=args.seed, engine=args.engine)
    if args.quick:
        settings = settings.quick()
    return ExperimentRunner(settings=settings)


def _cmd_table(name: str, args: argparse.Namespace) -> int:
    build, compare = _TABLES[name]
    runner = _make_runner(args)
    result = build(runner)
    print(result.render())
    if args.compare:
        from repro.experiments.compare import render_comparison

        cells, summary = compare(result)
        print()
        print(render_comparison(cells, summary, f"{name} vs paper"))
    else:
        cells, summary = compare(result)
        print(
            f"\nvs paper: cells={summary['count']} "
            f"mean|Δ|={summary['mean_abs_delta']:.2f} "
            f"max|Δ|={summary['max_abs_delta']:.2f}"
        )
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    print(headline(runner).render())
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    from repro.aging.cell import CharacterizationFramework

    framework = CharacterizationFramework()
    print(f"fresh read SNM        : {framework.snm_fresh * 1000:.1f} mV")
    print(f"failure threshold     : {framework.snm_failure_threshold * 1000:.1f} mV (-20%)")
    print(f"drowsy stress factor  : {framework.nbti.sleep_stress_factor:.3f}")
    print(f"calibrated lifetime   : {framework.lifetime_years(0.5, 0.0):.2f} years")
    curve = framework.aging_curve(p0=args.p0, psleep=args.psleep, points=13)
    print(f"\nSNM(t) at p0={args.p0}, Psleep={args.psleep}:")
    for t, snm in zip(curve.times_years, curve.snm_volts):
        print(f"  t={t:5.1f}y  SNM={snm * 1000:6.1f} mV")
    print(f"lifetime: {curve.lifetime_years:.2f} years")
    return 0


def _cmd_arch(args: argparse.Namespace) -> int:
    from repro.cache.geometry import CacheGeometry
    from repro.core.architecture import summarize
    from repro.core.config import ArchitectureConfig

    config = ArchitectureConfig(
        geometry=CacheGeometry(args.size * 1024, args.line_size),
        num_banks=args.banks,
        policy="probing",
        update_period_cycles=1,
    )
    summary = summarize(config)
    print(f"{args.size}kB cache, {args.line_size}B lines, M={args.banks}:")
    print(f"  index bits (n)        : {summary.index_bits}")
    print(f"  bank bits (p)         : {summary.bank_bits}")
    print(f"  lines per bank        : {summary.lines_per_bank}")
    print(f"  tag bits per line     : {summary.tag_bits_per_line}")
    print(f"  breakeven time        : {summary.breakeven_cycles} cycles")
    print(f"  idle counter width    : {summary.counter_width_bits} bits (paper: 5-6)")
    print(f"  wiring energy overhead: {summary.wiring_energy_overhead:.1%}")

    from repro.hw.overhead import estimate_overhead

    overhead = estimate_overhead(config)
    print("added hardware (gate-equivalents):")
    print(f"  1-hot encoder         : {overhead.encoder_ge:.0f} GE")
    print(f"  remap f()             : {overhead.remap_ge:.0f} GE")
    print(f"  Block Control counters: {overhead.control_ge:.0f} GE")
    print(f"  supply selector       : {overhead.selector_ge:.0f} GE")
    print(f"  total ~{overhead.total_ge:.0f} GE (~{overhead.area_um2:.0f} um2 at 45nm), "
          f"access-path depth {overhead.critical_path_gates} gates")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.core.engine import registered_engines, supports_streaming

    print("registered simulation engines (select with --engine):")
    print(f"  {'auto':<12} highest-priority auto-eligible engine "
          "supporting the configuration")
    for engine in registered_engines():
        flags = []
        if not getattr(engine, "auto_eligible", True):
            flags.append("explicit-only")
        if supports_streaming(engine):
            flags.append("streaming")
        family = getattr(engine, "family", "banked")
        if family != "banked":
            flags.append(f"family={family}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(f"  {engine.name:<12} {engine.description}{suffix}")
        requires = getattr(engine, "requires", "")
        if requires:
            print(f"  {'':<12} requires {requires}")
    from repro.kernels import dispatch

    active = dispatch.active_backend()
    print(f"kernel backends (active: {active}; pin with REPRO_KERNELS=numpy|cext):")
    for name, reason in dispatch.backend_status().items():
        if reason is None:
            marker = " (active)" if name == active else ""
            print(f"  {name:<12} available{marker}")
        else:
            print(f"  {name:<12} unavailable: {reason}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.core.metrics import registered_metrics

    print("registered derived metrics (values recomputable from stored "
          "counters; select values with campaign show --metric):")
    for metric in registered_metrics():
        mode = "eager" if metric.eager else "lazy"
        print(f"  {metric.name:<18} [{mode}] {metric.description}")
        print(f"  {'':<18} values: {', '.join(metric.provides)}")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.indexing.analysis import mapping_histogram, uniformity_error
    from repro.indexing.policies import make_policy

    print(f"uniformity error vs number of updates (M = {args.banks}):")
    print(f"{'updates':>8} {'probing':>10} {'scrambling':>11}")
    for updates in (0, args.banks - 1, args.banks, 4 * args.banks, 16 * args.banks, 64 * args.banks):
        errors = []
        for name in ("probing", "scrambling"):
            policy = make_policy(name, args.banks)
            errors.append(uniformity_error(mapping_histogram(policy, updates)))
        print(f"{updates:>8} {errors[0]:>10.3f} {errors[1]:>11.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.sweep import sweep
    from repro.cache.geometry import CacheGeometry
    from repro.core.config import ArchitectureConfig
    from repro.trace.generator import WorkloadGenerator
    from repro.trace.mediabench import profile_for

    if args.updates < 1:
        print("error: --updates must be >= 1", file=sys.stderr)
        return 2
    try:
        bank_axis = [int(v) for v in args.banks.split(",")]
        breakeven_axis = (
            [int(v) for v in args.breakevens.split(",")] if args.breakevens else None
        )
    except ValueError:
        print(
            "error: --banks and --breakevens take comma-separated integers",
            file=sys.stderr,
        )
        return 2
    if args.chunk_cycles < 0:
        print(
            "error: --chunk-cycles must be >= 0 (0 = in-memory)",
            file=sys.stderr,
        )
        return 2
    geometry = CacheGeometry(args.size * 1024, args.line_size)
    generator = WorkloadGenerator(
        geometry, num_windows=args.windows, master_seed=args.seed
    )
    profile = profile_for(args.benchmark)
    horizon = generator.horizon
    if args.updates >= horizon:
        print(
            f"error: --updates {args.updates} exceeds the trace horizon "
            f"({horizon:,} cycles); use fewer updates or more --windows",
            file=sys.stderr,
        )
        return 2
    axes: dict[str, list] = {
        "num_banks": bank_axis,
        "policy": args.policies.split(","),
    }
    if breakeven_axis is not None:
        axes["breakeven_override"] = breakeven_axis
    from repro.errors import ReproError

    start = time.perf_counter()
    try:
        base = ArchitectureConfig(
            geometry,
            num_banks=axes["num_banks"][0],
            policy="static",
            update_period_cycles=horizon // args.updates,
        )
        if args.chunk_cycles:
            # Out-of-core: the trace is generated, decoded and
            # simulated chunk by chunk in one pass; it is never
            # resident in full. Results are bit-identical to the
            # in-memory path. A factory (not an opened stream) goes
            # in so --parallel can shard the pass, each worker
            # re-opening its own stream.
            import functools

            from repro.analysis.sweep import stream_sweep

            stream = functools.partial(
                generator.stream, profile, args.chunk_cycles
            )
            result = stream_sweep(
                base, stream, axes, engine=args.engine, parallel=args.parallel
            )
        else:
            trace = generator.generate(profile)
            result = sweep(
                base, trace, axes, engine=args.engine, parallel=args.parallel
            )
    except ReproError as error:
        # e.g. --banks 1 with a dynamic policy axis, or a non-power-of-two
        # bank count: surface the validation message, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - start

    first = result.points[0].result
    accesses = first.cache_stats.hits + first.cache_stats.misses
    print(
        f"{args.benchmark}: {accesses:,} accesses, "
        f"{horizon:,} cycles, {len(result)} points"
        + (f" [streamed, {args.chunk_cycles:,}-cycle chunks]"
           if args.chunk_cycles else "")
    )
    print(f"{'banks':>5} {'policy':>11} {'breakeven':>9} "
          f"{'hit-rate':>8} {'Esav':>7} {'LT':>7}")
    for point in result:
        breakeven = point.parameters.get("breakeven_override", "auto")
        r = point.result
        print(
            f"{point.parameters['num_banks']:>5} "
            f"{point.parameters['policy']:>11} "
            f"{str(breakeven):>9} "
            f"{r.hit_rate:>8.2%} {r.energy_savings:>7.2%} "
            f"{r.lifetime_years:>6.2f}y"
        )
    best = result.best("lifetime_years")
    print(f"best lifetime: {best.value('lifetime_years'):.2f}y at {best.parameters}")
    print(f"swept {len(result)} points in {seconds:.2f}s "
          f"({len(result) / seconds:.1f} points/s)")
    if args.save:
        from repro.core.serialize import save_results

        save_results([point.result for point in result], args.save)
        print(f"saved {len(result)} results to {args.save}")
    return 0


def _format_metric_cell(value) -> str:
    """18-wide cell for a metric value (payloads may be non-numeric)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:>18.6g}"
    return f"{str(value):>18}"


def _render_records(records, metrics: tuple[str, ...] = ()) -> None:
    """Shared results table for ``campaign run`` and ``campaign show``.

    ``metrics`` adds one column per named metric *value*, recomputed
    from each record's stored counters (so metrics registered after the
    store was written still render). v1 records, whose counters are
    incomplete, show ``-``.
    """
    from repro.core.serialize import SerializationError

    header = (f"{'trace':>12} {'banks':>5} {'policy':>11} {'hit-rate':>8} "
              f"{'Esav':>7} {'LT':>7}")
    for name in metrics:
        header += f" {name:>18}"
    print(header)
    for record in records:
        row = (
            f"{record.trace_name:>12} "
            f"{record.config.get('num_banks', '?'):>5} "
            f"{record.config.get('policy', '?'):>11} "
            f"{record.hit_rate:>8.2%} {record.energy_savings:>7.2%} "
            f"{record.lifetime_years:>6.2f}y"
        )
        if metrics:
            try:
                # One rebuild per record, however many columns.
                result = record.to_result()
            except SerializationError:
                result = None  # v1: counters incomplete
            for name in metrics:
                if result is None:
                    row += f" {'-':>18}"
                else:
                    row += f" {_format_metric_cell(result.metric(name))}"
        print(row)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, CampaignStore, campaign_status, run_campaign
    from repro.core.serialize import load_results
    from repro.errors import ReproError

    try:
        if args.campaign_command == "show":
            import os

            path = args.path
            if os.path.isdir(path):
                records = CampaignStore(path).records()
                print(f"{path}: {len(records)} stored records")
            else:
                records = load_results(path)
                print(f"{path}: {len(records)} saved results")
            _render_records(records, metrics=tuple(args.metric))
            return 0

        if args.campaign_command == "migrate":
            store = CampaignStore(args.dir)
            moved = store.migrate()
            indexed = store.rebuild_index()
            print(f"{args.dir}: migrated {moved} records, indexed {indexed}")
            return 0

        if args.campaign_command == "serve":
            from repro.campaign.service.server import serve

            serve(
                args.dir,
                host=args.host,
                port=args.port,
                workers=args.workers,
                parallel=args.parallel,
            )
            return 0

        if args.campaign_command == "submit":
            import json

            from repro.campaign.service.client import ServiceClient

            spec = CampaignSpec.load(args.spec)
            client = ServiceClient(args.url)
            response = client.submit(spec.to_dict())
            spec_hash = response["spec_hash"]
            if args.wait:
                entry = client.wait_drained(spec_hash, timeout=args.timeout)
                print(json.dumps(entry, indent=2, sort_keys=True))
            else:
                print(f"submitted {spec.name or args.spec} (spec {spec_hash[:12]})")
            return 0

        spec = CampaignSpec.load(args.spec)
        if args.campaign_command == "status":
            import json
            import os

            from repro.campaign.run import status_payload

            store = CampaignStore(args.dir) if args.dir else CampaignStore()
            if args.json:
                print(json.dumps(status_payload(spec, store), indent=2, sort_keys=True))
                return 0
            status = campaign_status(spec, store)
            note = ""
            if args.dir and not os.path.isdir(args.dir):
                note = f" [directory {args.dir} does not exist yet]"
            print(
                f"{spec.name or args.spec}: {status.done}/{status.total} points "
                f"done, {status.missing} missing "
                f"(spec {spec.spec_hash()[:12]}){note}"
            )
            return 0

        # campaign run
        result = run_campaign(
            spec,
            directory=args.dir or None,
            parallel=args.parallel,
            workers=args.workers,
            search=args.strategy,
        )
        estimated = f", estimated {result.estimated}" if result.estimated else ""
        print(
            f"{spec.name or args.spec}: {len(result)} points, "
            f"simulated {result.simulated}, reused {result.reused}{estimated}"
            + (f" (store: {args.dir})" if args.dir else " (in memory)")
        )
        _render_records(result.records)
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace stats``: characterize a benchmark or a trace file."""
    import json
    import os

    from repro.cache.geometry import CacheGeometry
    from repro.errors import ReproError
    from repro.trace.stats import describe_profile, profile_trace

    try:
        geometry = CacheGeometry(args.size * 1024, args.line_size)
        if os.path.isfile(args.workload):
            from repro.trace.io import load_trace

            trace = load_trace(args.workload)
        else:
            from repro.trace.generator import WorkloadGenerator
            from repro.trace.mediabench import profile_for

            kwargs = {} if args.windows is None else {"num_windows": args.windows}
            generator = WorkloadGenerator(geometry, **kwargs)
            trace = generator.generate(profile_for(args.workload))
        profile = profile_trace(trace, geometry, num_banks=args.banks)
        if args.json:
            payload = {
                "workload": args.workload,
                "size_bytes": geometry.size_bytes,
                "line_size": geometry.line_size,
                "num_banks": args.banks,
                "accesses": profile.accesses,
                "horizon": profile.horizon,
                "access_density": profile.access_density,
                "distinct_lines": profile.distinct_lines,
                "footprint_bytes": profile.footprint_bytes,
                "bank_shares": list(profile.bank_shares),
                "gap_percentiles": {
                    str(q): v for q, v in profile.gap_percentiles.items()
                },
                "reuse_distance_median": (
                    None
                    if profile.reuse_distance_median == float("inf")
                    else profile.reuse_distance_median
                ),
                "bank_gap_histograms": [
                    [list(triple) for triple in bank]
                    for bank in profile.bank_gap_histograms
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(
                f"{args.workload} on a {args.size}kB cache "
                f"({args.banks} banks):"
            )
            print(describe_profile(profile))
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_estimate(args: argparse.Namespace) -> int:
    """``repro estimate validate``: score the estimator vs simulation."""
    import json

    from repro.cache.geometry import CacheGeometry
    from repro.core.config import ArchitectureConfig
    from repro.errors import ReproError
    from repro.estimate.validate import validate_estimator
    from repro.trace.generator import WorkloadGenerator
    from repro.trace.mediabench import profile_for

    try:
        geometry = CacheGeometry(args.size * 1024, args.line_size)
        base = ArchitectureConfig(geometry=geometry, num_banks=4, policy="static")
        axes: dict = {}
        if args.banks:
            axes["num_banks"] = [int(v) for v in args.banks.split(",")]
        if args.policies:
            axes["policy"] = args.policies.split(",")
        if args.breakevens:
            axes["breakeven_override"] = [
                None if v == "none" else int(v) for v in args.breakevens.split(",")
            ]
        if not axes:
            axes["num_banks"] = [2, 4, 8]
        generator = WorkloadGenerator(geometry, num_windows=args.windows)
        traces = [
            generator.generate(profile_for(name))
            for name in args.benchmarks.split(",")
        ]
        report = validate_estimator(
            base, traces, axes, engine=args.engine, parallel=args.parallel
        )
        rendered = json.dumps(report, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"wrote {args.output}")
        if args.json or not args.output:
            print(rendered)
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.cache.geometry import CacheGeometry
    from repro.trace.generator import WorkloadGenerator
    from repro.trace.mediabench import profile_for
    from repro.trace.stats import describe_profile, profile_trace

    geometry = CacheGeometry(args.size * 1024, 16)
    trace = WorkloadGenerator(geometry).generate(profile_for(args.benchmark))
    print(f"{args.benchmark} on a {args.size}kB cache:")
    print(describe_profile(profile_trace(trace, geometry)))
    return 0


def _cmd_lint(args) -> int:
    """``repro lint``: forward to the reprolint CLI.

    reprolint is a sibling package (``tools/reprolint``), installed by
    ``pip install -e .``; an uninstalled source checkout finds it via
    the repo-relative ``tools`` directory so ``repro lint`` works in
    both layouts.
    """
    try:
        from reprolint.cli import main as lint_main
    except ImportError:
        import os

        tools_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "tools",
        )
        if not os.path.isdir(os.path.join(tools_dir, "reprolint")):
            print(
                "repro lint: the reprolint package is not importable "
                "(install with `pip install -e .` or run from a source checkout)",
                file=sys.stderr,
            )
            return 2
        sys.path.insert(0, tools_dir)
        from reprolint.cli import main as lint_main

    lint_args = list(args.lint_args)
    if lint_args and lint_args[0] == "--":
        lint_args = lint_args[1:]
    return lint_main(lint_args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Partitioned Cache Architectures for "
        "Reduced NBTI-Induced Aging' (DATE 2011)",
    )
    parser.add_argument("--seed", type=int, default=2011, help="workload master seed")
    parser.add_argument("--quick", action="store_true", help="reduced benchmark set")
    parser.add_argument(
        "--engine",
        choices=list(engine_names()),
        default="auto",
        help="simulation engine (auto picks the fastest supporting one; "
        "see `repro engines`)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _TABLES:
        p = sub.add_parser(name, help=f"reproduce the paper's {name}")
        p.add_argument("--compare", action="store_true", help="print per-cell deltas")

    sub.add_parser("headline", help="Sections I/V summary claims")

    p_cell = sub.add_parser("cell", help="6T cell aging curve")
    p_cell.add_argument("--p0", type=float, default=0.5, help="probability of storing 0")
    p_cell.add_argument("--psleep", type=float, default=0.0, help="sleep fraction")

    p_arch = sub.add_parser("arch", help="architecture overhead summary")
    p_arch.add_argument("--size", type=int, default=16, help="cache size in kB")
    p_arch.add_argument("--line-size", type=int, default=16, help="line size in bytes")
    p_arch.add_argument("--banks", type=int, default=4, help="number of banks M")

    p_pol = sub.add_parser("policies", help="probing vs scrambling uniformity")
    p_pol.add_argument("--banks", type=int, default=4, help="number of banks M")

    sub.add_parser("engines", help="list registered simulation engines")
    sub.add_parser("metrics", help="list registered derived metrics")

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's AST-based invariant linter",
        description="Forwards to `python -m reprolint`; see "
        "`repro lint -- --list-rules` for the rule catalogue.",
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments passed through to reprolint (prefix with --)",
    )

    p_prof = sub.add_parser("profile", help="characterize a benchmark workload")
    p_prof.add_argument("benchmark", help="benchmark name (e.g. adpcm.dec)")
    p_prof.add_argument("--size", type=int, default=16, help="cache size in kB")

    p_trace = sub.add_parser(
        "trace", help="trace utilities (statistics used by the estimator)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tstats = trace_sub.add_parser(
        "stats",
        help="profile a workload: shares, gaps, footprint, reuse distance",
    )
    p_tstats.add_argument(
        "workload", help="benchmark name (e.g. dijkstra) or a trace file path"
    )
    p_tstats.add_argument("--size", type=int, default=16, help="cache size in kB")
    p_tstats.add_argument("--line-size", type=int, default=16, help="line size in bytes")
    p_tstats.add_argument("--banks", type=int, default=4, help="bank split M")
    p_tstats.add_argument(
        "--windows",
        type=int,
        default=None,
        help="schedule windows for a generated benchmark workload "
        "(ignored for trace files; default: the generator's full run)",
    )
    p_tstats.add_argument(
        "--json",
        action="store_true",
        help="machine-readable profile (includes per-bank gap histograms)",
    )

    p_est = sub.add_parser(
        "estimate", help="the closed-form analytical fidelity tier"
    )
    est_sub = p_est.add_subparsers(dest="estimate_command", required=True)
    p_eval = est_sub.add_parser(
        "validate",
        help="score the estimator against full simulation over a grid",
    )
    p_eval.add_argument(
        "--benchmarks",
        default="dijkstra,susan,adpcm.dec",
        help="comma-separated benchmark workloads",
    )
    p_eval.add_argument("--size", type=int, default=16, help="cache size in kB")
    p_eval.add_argument("--line-size", type=int, default=16, help="line size in bytes")
    p_eval.add_argument(
        "--banks", default="2,4,8", help="comma-separated num_banks axis"
    )
    p_eval.add_argument(
        "--policies", default="", help="comma-separated policy axis"
    )
    p_eval.add_argument(
        "--breakevens",
        default="",
        help="comma-separated breakeven_override axis ('none' for computed)",
    )
    p_eval.add_argument(
        "--windows", type=int, default=300, help="workload schedule windows"
    )
    p_eval.add_argument(
        "--parallel", type=int, default=None, help="worker processes for the grid"
    )
    p_eval.add_argument(
        "--json", action="store_true", help="print the JSON report (default unless --output)"
    )
    p_eval.add_argument(
        "--output", default="", help="also write the JSON report to this file"
    )

    p_sweep = sub.add_parser(
        "sweep", help="design-space sweep (shared trace-plan engine)"
    )
    p_sweep.add_argument(
        "--benchmark", default="dijkstra", help="workload profile to sweep on"
    )
    p_sweep.add_argument("--size", type=int, default=16, help="cache size in kB")
    p_sweep.add_argument("--line-size", type=int, default=16, help="line size in bytes")
    p_sweep.add_argument(
        "--banks", default="2,4,8", help="comma-separated num_banks axis"
    )
    p_sweep.add_argument(
        "--policies", default="static,probing", help="comma-separated policy axis"
    )
    p_sweep.add_argument(
        "--breakevens",
        default="",
        help="comma-separated breakeven_override axis (empty: computed breakeven)",
    )
    p_sweep.add_argument(
        "--updates", type=int, default=16, help="re-indexing updates over the trace"
    )
    p_sweep.add_argument(
        "--windows", type=int, default=200, help="workload schedule windows"
    )
    p_sweep.add_argument(
        "--parallel", type=int, default=None, help="worker processes for the grid"
    )
    p_sweep.add_argument(
        "--chunk-cycles",
        type=int,
        default=0,
        help="stream the workload out-of-core in windows of this many "
        "cycles (one pass for the whole grid, peak memory bounded by "
        "the chunk; --parallel shards the pass by set/bank partition; "
        "0 = in-memory)",
    )
    p_sweep.add_argument(
        "--save",
        default="",
        help="write the sweep results to this JSON file (save_results format)",
    )

    p_camp = sub.add_parser(
        "campaign", help="declarative, resumable campaigns from JSON spec files"
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_run = camp_sub.add_parser("run", help="run a spec; skip points already stored")
    p_run.add_argument("spec", help="campaign spec JSON file")
    p_run.add_argument(
        "--dir", default="", help="campaign directory (content-addressed store)"
    )
    p_run.add_argument(
        "--parallel", type=int, default=None, help="worker processes per trace"
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="claim-loop worker processes (work-queue drain: leased claims, "
        "safe across concurrent invocations sharing --dir; requires --dir)",
    )
    from repro.analysis.planner import strategy_names

    p_run.add_argument(
        "--strategy",
        choices=list(strategy_names()),
        default=None,
        help="search strategy override: estimator-guided strategies "
        "estimate the whole grid, then simulate only the survivors "
        "(default: the spec's own 'search' block, else exhaustive)",
    )

    p_status = camp_sub.add_parser("status", help="store coverage of a spec")
    p_status.add_argument("spec", help="campaign spec JSON file")
    p_status.add_argument("--dir", default="", help="campaign directory")
    p_status.add_argument(
        "--json",
        action="store_true",
        help="machine-readable status (same payload the service's "
        "GET /status serves per spec)",
    )

    p_migrate = camp_sub.add_parser(
        "migrate",
        help="rewrite a flat (pre-shard) store into the sharded layout "
        "in place (atomic per record, resumable) and rebuild index.db",
    )
    p_migrate.add_argument("dir", help="campaign directory")

    p_serve = camp_sub.add_parser(
        "serve", help="expose a campaign directory over HTTP/JSON"
    )
    p_serve.add_argument("dir", help="campaign directory")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8437, help="bind port")
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="claim-loop worker processes draining submitted specs",
    )
    p_serve.add_argument(
        "--parallel", type=int, default=None, help="worker processes per trace"
    )

    p_submit = camp_sub.add_parser(
        "submit", help="submit a spec file to a running campaign service"
    )
    p_submit.add_argument("spec", help="campaign spec JSON file")
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8437", help="service base URL"
    )
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the service reports the spec fully drained",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="--wait deadline in seconds",
    )

    p_show = camp_sub.add_parser(
        "show", help="render a campaign directory or a saved results file"
    )
    p_show.add_argument("path", help="campaign --dir or a save_results JSON file")
    p_show.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="VALUE",
        help="extra column: a metric value recomputed from the stored "
        "counters (repeatable; see `repro metrics`)",
    )

    args = parser.parse_args(argv)
    if args.command in _TABLES:
        return _cmd_table(args.command, args)
    if args.command == "headline":
        return _cmd_headline(args)
    if args.command == "cell":
        return _cmd_cell(args)
    if args.command == "arch":
        return _cmd_arch(args)
    if args.command == "policies":
        return _cmd_policies(args)
    if args.command == "engines":
        return _cmd_engines(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
