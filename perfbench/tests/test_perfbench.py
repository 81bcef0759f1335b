"""Tiny-size self-tests of the benchmark.

Every workload runs in-process at tiny size (short traces, small grids,
one pass per phase) on a small lifetime LUT, untraced and traced. A
benchmark run on a kernel backend that is not compiled counts as failed,
so the tests that need a complete run are skipped on such a host. The
tests pin the output contract (every metric of ``BENCHMARK.json`` printed
with its unit), the span invariants (self time >= 0, children nested in
and no longer than their parent), the tracer's rebinding of imported
functions, and that the output checks fire on a corrupted counter.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from perfbench import report
from perfbench.checks import CheckFailed, digest, expect_same_digests, result_counters
from perfbench.run import COMPILED_BACKENDS, run_benchmark
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Ops

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.filterwarnings("ignore:guided search ignores workers")


@pytest.fixture(scope="module", autouse=True)
def small_lut():
    """Install a small LUT as the library default for the whole module."""
    import repro.aging.lut as lut_module
    from repro.aging.cell import CharacterizationFramework

    saved = lut_module._DEFAULT_LUT
    lut_module._DEFAULT_LUT = lut_module.LifetimeLUT(
        CharacterizationFramework(), p0_points=3, psleep_points=21
    )
    yield lut_module._DEFAULT_LUT
    lut_module._DEFAULT_LUT = saved


@pytest.fixture
def compiled_backend():
    """Skip where only an interpreted kernel backend loads."""
    from repro.kernels import dispatch

    backend = dispatch.active_backend()
    if backend not in COMPILED_BACKENDS:
        pytest.skip(f"kernel backend {backend!r} is not compiled")
    return backend


def _tiny(tmp_path, name: str, trace: bool):
    return run_benchmark(name, 7, 0.0, trace, tiny=True, setup_samples=1, workdir=tmp_path)


def test_benchmark_json_matches_the_metric_definitions():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert config["paths"] == ["perfbench"]
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in config["end_to_end"]
    ] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == list(
        report.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(tmp_path, compiled_backend, name, trace):
    result, details = _tiny(tmp_path, name, trace)
    assert result["correct"], details
    assert result["failed"] == 0 and result["attempted"] >= 1
    definitions = report.PER_LAYER if trace else report.END_TO_END
    printed = json.loads(json.dumps(result))["metrics"]
    assert list(printed) == [definition[0] for definition in definitions]
    for definition in definitions:
        metric = printed[definition[0]]
        assert metric["unit"] == definition[1]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in printed.values())
    assert details["provenance"]["backend"] == compiled_backend
    assert details["failed_frac"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_self_times_are_non_negative(tmp_path, compiled_backend, name):
    result, details = _tiny(tmp_path, name, True)
    assert result["correct"], details
    lines = Path(details["spans"]).read_text().splitlines()
    header, spans = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    assert header["header"]["workload"] == name and spans
    by_id = {span["id"]: span for span in spans}
    children = defaultdict(int)
    for span in spans:
        assert span["end_ns"] >= span["start_ns"] and span["run"]
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
            children[parent["id"]] += span["end_ns"] - span["start_ns"]
    for span in spans:
        assert children[span["id"]] <= span["end_ns"] - span["start_ns"]
    for metric, value in result["metrics"].items():
        if metric.endswith("_self_s"):
            assert 0 <= value["value"] <= result["metrics"][metric[: -len("self_s")] + "s"]["value"]


def test_wrappers_rebind_imported_copies_and_restore_them():
    import repro.campaign.codec as codec
    import repro.campaign.spec as spec
    import repro.campaign.store as store
    from repro import ArchitectureConfig, CacheGeometry

    original = codec.content_hash
    assert spec.content_hash is original and store.content_hash is original
    tracer = Tracer()
    tracer.install()
    try:
        assert codec.content_hash is not original
        assert spec.content_hash is codec.content_hash is store.content_hash
        codec.config_hash(
            ArchitectureConfig(CacheGeometry(8192, 16), num_banks=2, policy="static")
        )
    finally:
        tracer.uninstall()
    assert codec.content_hash is spec.content_hash is store.content_hash is original
    assert tracer.layers({"setup"})["codec.content_hash"].calls >= 1


def test_integrity_check_names_a_silent_layer(tmp_path, compiled_backend, monkeypatch):
    workload = WORKLOADS["sweep-grid"]
    monkeypatch.setattr(workload, "LAYERS", (*workload.LAYERS, "store.put"))
    result, details = _tiny(tmp_path, "sweep-grid", True)
    assert not result["correct"]
    assert "store.put" in details["check_failed"]


def test_output_check_fires_on_a_corrupted_counter(tmp_path):
    workload = WORKLOADS["sweep-grid"](3, tiny=True, workdir=str(tmp_path))
    workload.setup()
    ops = Ops()
    workload.run_pass(ops)
    good = digest(workload.collect(ops))
    workload.check(random.Random(3))
    corrupted = tuple(
        dataclasses.replace(
            point,
            result=dataclasses.replace(
                point.result,
                cache_stats=dataclasses.replace(
                    point.result.cache_stats, hits=point.result.cache_stats.hits + 1
                ),
            ),
        )
        for point in workload.result.points
    )
    workload.result = dataclasses.replace(workload.result, points=corrupted)
    with pytest.raises(CheckFailed):
        workload.check(random.Random(3))
    bad = digest([result_counters(point.result) for point in corrupted])
    with pytest.raises(CheckFailed):
        expect_same_digests([good, bad])


def test_checkout_without_sources_exits_non_zero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_run_on_an_interpreted_backend_counts_as_failed(tmp_path, monkeypatch):
    from repro.kernels import dispatch

    monkeypatch.setattr(dispatch, "active_backend", lambda: "numpy")
    result, details = _tiny(tmp_path, "sweep-grid", False)
    assert not result["correct"] and result["failed"] >= 1
    assert details["failures"]["backend_not_compiled"] == 1
