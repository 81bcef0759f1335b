"""Tests for the campaign service layer (PR 8).

Covers the four layers of ``repro.campaign.service``: the sharded store
layout and its in-place flat-store migration, the SQLite index (file-free
queries, rebuild after deletion/corruption), the claim-based work queue
(lease exclusivity, TTL expiry after a killed worker, zero
double-simulations across concurrent processes — asserted from the
commit logs), and the stdlib HTTP front-end with its thin client.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    campaign_status,
    point_hash,
    run_campaign,
    status_payload,
)
from repro.campaign.codec import short_hash
from repro.campaign.service.client import ServiceClient
from repro.campaign.service.index import INDEX_FILENAME
from repro.campaign.service.queue import WorkQueue, drain_campaign
from repro.campaign.service.server import MAX_BODY_BYTES, CampaignServer
from repro.campaign.store import RESULTS_DIRNAME
from repro.campaign.tracespec import TraceSpec
from repro.cache.geometry import CacheGeometry
from repro.cli import main
from repro.core.config import ArchitectureConfig
from repro.errors import ConfigurationError, ServiceError

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_campaign import small_campaign  # noqa: E402  (shared spec helper)


def drain_dir(spec: CampaignSpec, directory) -> None:
    run_campaign(spec, directory)


def legacy_path(directory, key) -> str:
    name = f"{short_hash(key[0])}-{short_hash(key[1])}.json"
    return os.path.join(os.fspath(directory), RESULTS_DIRNAME, name)


def shard_path(directory, key) -> str:
    digest = point_hash(key)
    return os.path.join(
        os.fspath(directory), RESULTS_DIRNAME, digest[:2], f"{digest[2:]}.json"
    )


def flatten_store(directory) -> list[tuple[str, str]]:
    """Rewrite a sharded store into the PR-3 flat layout (for tests)."""
    store = CampaignStore(directory)
    keys = list(store.keys())
    for key in keys:
        os.replace(shard_path(directory, key), legacy_path(directory, key))
    for entry in os.listdir(os.path.join(os.fspath(directory), RESULTS_DIRNAME)):
        path = os.path.join(os.fspath(directory), RESULTS_DIRNAME, entry)
        if os.path.isdir(path):
            os.rmdir(path)
    index_path = os.path.join(os.fspath(directory), INDEX_FILENAME)
    if os.path.exists(index_path):
        os.unlink(index_path)
    return keys


def read_commit_log(directory) -> list[tuple[str, str, str]]:
    """(trace_hash, config_hash, worker) per committed simulation."""
    log_dir = os.path.join(os.fspath(directory), "queue-log")
    commits = []
    if not os.path.isdir(log_dir):
        return commits
    for name in sorted(os.listdir(log_dir)):
        with open(os.path.join(log_dir, name), "r", encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                commits.append(
                    (entry["trace_hash"], entry["config_hash"], entry["worker"])
                )
    return commits


# ----------------------------------------------------------------------
# Sharded layout + migration
# ----------------------------------------------------------------------
class TestShardedLayout:
    def test_put_writes_sharded_files(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        store = CampaignStore(tmp_path)
        for point in spec.points():
            key = point.key()
            path = shard_path(tmp_path, key)
            assert os.path.isfile(path), "record must land at its shard path"
            assert len(os.path.basename(os.path.dirname(path))) == 2
            assert store.get_record(key) is not None

    def test_reads_flat_layout_transparently(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        keys = flatten_store(tmp_path)
        store = CampaignStore(tmp_path)
        assert len(store) == len(keys)
        for key in keys:
            assert key in store
            assert store.get_record(key) is not None
        assert campaign_status(spec, store).missing == 0

    def test_put_supersedes_flat_file(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        keys = flatten_store(tmp_path)
        # Re-running against the flat store rewrites nothing (all
        # points are found), so force one rewrite via put().
        store = CampaignStore(tmp_path)
        result = store.get_result(keys[0])
        store.put(keys[0], result)
        assert os.path.isfile(shard_path(tmp_path, keys[0]))
        assert not os.path.exists(legacy_path(tmp_path, keys[0]))
        assert keys[0] in CampaignStore(tmp_path)

    def test_migrate_is_byte_identical_and_idempotent(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        keys = flatten_store(tmp_path)
        flat_bytes = {
            key: open(legacy_path(tmp_path, key), "rb").read() for key in keys
        }
        store = CampaignStore(tmp_path)
        assert store.migrate() == len(keys)
        for key in keys:
            assert not os.path.exists(legacy_path(tmp_path, key))
            with open(shard_path(tmp_path, key), "rb") as handle:
                assert handle.read() == flat_bytes[key], "migration moves bytes"
        # Records round-trip identically after migration.
        migrated = CampaignStore(tmp_path)
        assert campaign_status(spec, migrated).missing == 0
        assert set(migrated.keys()) == set(keys)
        assert len(migrated.records()) == len(keys)
        # A second migrate finds nothing flat to move.
        assert CampaignStore(tmp_path).migrate() == 0

    def test_migrate_resumes_after_interruption(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        keys = flatten_store(tmp_path)
        # "Interrupted" migration: one record already moved by hand.
        first = keys[0]
        os.makedirs(os.path.dirname(shard_path(tmp_path, first)), exist_ok=True)
        os.replace(legacy_path(tmp_path, first), shard_path(tmp_path, first))
        store = CampaignStore(tmp_path)
        assert store.migrate() == len(keys) - 1
        assert campaign_status(spec, CampaignStore(tmp_path)).missing == 0

    def test_cli_migrate(self, tmp_path, capsys):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        keys = flatten_store(tmp_path)
        assert main(["campaign", "migrate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"migrated {len(keys)} records" in out
        for key in keys:
            assert os.path.isfile(shard_path(tmp_path, key))


# ----------------------------------------------------------------------
# Lazy open + file-free status
# ----------------------------------------------------------------------
class TestLazyStore:
    def test_membership_and_status_open_no_files(self, tmp_path, monkeypatch):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        CampaignStore(tmp_path).rebuild_index()
        # From here on, reading any record file is an error: status,
        # membership and counting must run purely on paths + index.
        import repro.campaign.store as store_module

        def _forbidden(path):
            raise AssertionError(f"record file opened: {path}")

        monkeypatch.setattr(store_module, "read_record_file", _forbidden)
        store = CampaignStore(tmp_path)
        status = campaign_status(spec, store)
        assert status.missing == 0
        assert len(store) == status.total
        payload = status_payload(spec, store)
        assert payload["done"] == status.total
        assert store.where(num_banks=2)  # index-served, no JSON opened

    def test_open_missing_directory_creates_nothing(self, tmp_path):
        missing = tmp_path / "nope.d"
        store = CampaignStore(missing)
        assert len(store) == 0
        assert list(store.keys()) == []
        assert store.where(num_banks=2) == []
        assert not missing.exists()


# ----------------------------------------------------------------------
# SQLite index
# ----------------------------------------------------------------------
class TestIndex:
    def test_where_and_best(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        store = CampaignStore(tmp_path)
        rows = store.where(num_banks=4)
        assert len(rows) == 1 and rows[0]["num_banks"] == 4
        assert store.where(num_banks=32) == []
        best = store.best("hit_rate")
        worst = store.best("hit_rate", minimize=True)
        assert best["hit_rate"] >= worst["hit_rate"]
        assert {row["num_banks"] for row in store.where()} == {2, 4}

    def test_memory_store_where_matches_disk(self, tmp_path):
        spec = small_campaign()
        disk = CampaignStore(tmp_path)
        run_campaign(spec, store=disk)
        memory = CampaignStore()
        run_campaign(spec, store=memory)
        for filters in ({}, {"num_banks": 2}, {"num_banks": 32}):
            disk_rows = {
                (r["trace_hash"], r["config_hash"]) for r in disk.where(**filters)
            }
            memory_rows = {
                (r["trace_hash"], r["config_hash"]) for r in memory.where(**filters)
            }
            assert disk_rows == memory_rows
        assert (
            disk.best("hit_rate")["config_hash"]
            == memory.best("hit_rate")["config_hash"]
        )

    def test_unknown_column_is_rejected(self, tmp_path):
        drain_dir(small_campaign(), tmp_path)
        store = CampaignStore(tmp_path)
        with pytest.raises(ServiceError, match="unknown index column"):
            store.where(banksz=2)
        with pytest.raises(ServiceError, match="unknown index column"):
            store.best("hit_rate; DROP TABLE records")

    def test_rebuild_after_deleting_index_db(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        store = CampaignStore(tmp_path)
        before = store.where()
        index_path = os.path.join(str(tmp_path), INDEX_FILENAME)
        assert os.path.exists(index_path)
        os.unlink(index_path)
        fresh = CampaignStore(tmp_path)
        assert fresh.where() == before, "index must rebuild from the files"
        assert os.path.exists(index_path)

    def test_rebuild_after_corrupting_index_db(self, tmp_path):
        spec = small_campaign()
        drain_dir(spec, tmp_path)
        index_path = os.path.join(str(tmp_path), INDEX_FILENAME)
        with open(index_path, "wb") as handle:
            handle.write(b"this is not a database")
        store = CampaignStore(tmp_path)
        assert len(store.where()) == len(list(store.keys()))
        assert campaign_status(spec, store).missing == 0


# ----------------------------------------------------------------------
# Work queue: leases
# ----------------------------------------------------------------------
KEY = ("t" * 64, "c" * 64)


class TestWorkQueue:
    def test_claims_are_exclusive(self, tmp_path):
        with WorkQueue(tmp_path, worker_id="a") as qa, WorkQueue(
            tmp_path, worker_id="b"
        ) as qb:
            assert qa.try_claim(KEY)
            assert not qb.try_claim(KEY)
            qa.release(KEY)
            assert qb.try_claim(KEY)

    def test_release_is_scoped_to_the_holder(self, tmp_path):
        with WorkQueue(tmp_path, worker_id="a") as qa, WorkQueue(
            tmp_path, worker_id="b"
        ) as qb:
            assert qa.try_claim(KEY)
            qb.release(KEY)  # not b's claim: must be a no-op
            assert not qb.try_claim(KEY)

    def test_fresh_lease_is_not_stolen(self, tmp_path):
        with WorkQueue(tmp_path, worker_id="a", lease_ttl=60.0) as qa, WorkQueue(
            tmp_path, worker_id="b", lease_ttl=60.0
        ) as qb:
            assert qa.try_claim(KEY)
            assert not qb.try_claim(KEY)

    def test_expired_lease_is_stolen(self, tmp_path):
        qa = WorkQueue(tmp_path, worker_id="a", lease_ttl=5.0)
        assert qa.try_claim(KEY)
        # Simulate a dead worker: stop the heartbeat without releasing,
        # then age the claim past its TTL.
        qa._stop.set()
        qa._heartbeat.join(timeout=5.0)
        path = qa._claim_path(KEY)
        os.utime(path, (1, 1))
        with WorkQueue(tmp_path, worker_id="b", lease_ttl=5.0) as qb:
            assert qb.try_claim(KEY), "an expired lease must be reclaimable"

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        with WorkQueue(tmp_path, worker_id="a", lease_ttl=0.4) as qa:
            assert qa.try_claim(KEY)
            path = qa._claim_path(KEY)
            before = os.stat(path).st_mtime
            time.sleep(0.6)  # > TTL: without heartbeats this would expire
            with WorkQueue(tmp_path, worker_id="b", lease_ttl=0.4) as qb:
                assert not qb.try_claim(KEY)
            assert os.stat(path).st_mtime > before


# ----------------------------------------------------------------------
# Work queue: draining campaigns
# ----------------------------------------------------------------------
class TestDrain:
    def test_workers_pool_drains_without_duplicates(self, tmp_path):
        spec = small_campaign()
        result = run_campaign(spec, tmp_path, workers=2)
        assert result.simulated == len(result)
        assert campaign_status(spec, CampaignStore(tmp_path)).missing == 0
        commits = read_commit_log(tmp_path)
        keys = [commit[:2] for commit in commits]
        assert sorted(keys) == sorted(set(keys)), "a point simulated twice"
        assert len(keys) == len(result)

    def test_rerun_simulates_zero(self, tmp_path):
        spec = small_campaign()
        run_campaign(spec, tmp_path, workers=2)
        again = run_campaign(spec, tmp_path, workers=2)
        assert again.simulated == 0
        assert again.reused == len(again)

    def test_workers_require_directory(self):
        with pytest.raises(ConfigurationError, match="directory-backed"):
            run_campaign(small_campaign(), workers=1)

    def test_streaming_traces_drain_through_the_queue(self, tmp_path):
        streaming = CampaignSpec(
            name="stream",
            traces=(
                TraceSpec.synthetic("sha", num_windows=40, chunk_cycles=4096),
            ),
            base=ArchitectureConfig(
                CacheGeometry(8 * 1024, 16),
                num_banks=4,
                policy="probing",
                update_period_cycles=5120,
            ),
            axes={"num_banks": [2, 4]},
            engine="auto",
        )
        result = run_campaign(streaming, tmp_path, workers=2)
        assert result.simulated == len(result) == 2
        commits = read_commit_log(tmp_path)
        keys = [commit[:2] for commit in commits]
        assert sorted(keys) == sorted(set(keys))
        assert run_campaign(streaming, tmp_path, workers=2).simulated == 0

    def test_concurrent_cli_drains_share_one_campaign(self, tmp_path):
        """Two independent CLI processes drain one directory: together
        they simulate each point exactly once (the acceptance claim)."""
        spec = small_campaign(axes={"num_banks": [2, 4], "breakeven_override": [20, 80]})
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)
        directory = tmp_path / "campaign.d"
        env = dict(os.environ, PYTHONPATH="src")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "run",
            str(spec_file),
            "--dir",
            str(directory),
            "--workers",
            "1",
        ]
        procs = [
            subprocess.Popen(argv, cwd=os.path.dirname(os.path.dirname(__file__)),
                             env=env, stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outputs = [proc.communicate()[0] for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), outputs
        store = CampaignStore(directory)
        assert campaign_status(spec, store).missing == 0
        commits = read_commit_log(directory)
        keys = [commit[:2] for commit in commits]
        assert sorted(keys) == sorted(set(keys)), "zero double-simulations"
        assert len(keys) == len(spec.combos())
        assert len({commit[2] for commit in commits}) >= 1

    def test_killed_worker_lease_is_reclaimed(self, tmp_path):
        """A worker dying mid-claim must not wedge the campaign: its
        lease expires and another worker finishes the point."""
        spec = small_campaign()
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)
        directory = tmp_path / "campaign.d"
        key = next(iter(spec.points())).key()
        # A separate process claims one point, then dies without
        # releasing (no heartbeat survives it).
        script = (
            "import json, os, sys\n"
            "from repro.campaign import CampaignSpec\n"
            "from repro.campaign.service.queue import WorkQueue\n"
            "spec = CampaignSpec.load(sys.argv[1])\n"
            "queue = WorkQueue(sys.argv[2], worker_id='doomed', lease_ttl=600.0)\n"
            "assert queue.try_claim(next(iter(spec.points())).key())\n"
            "os._exit(9)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(spec_file), str(directory)],
            cwd=os.path.dirname(os.path.dirname(__file__)),
            env=env,
        )
        assert proc.returncode == 9
        claim_dir = os.path.join(str(directory), "claims")
        (claim_name,) = os.listdir(claim_dir)
        claim_path = os.path.join(claim_dir, claim_name)
        # The lease is orphaned; age it past any TTL the drain uses.
        os.utime(claim_path, (1, 1))
        result = run_campaign(spec, directory, workers=1)
        assert result.simulated == len(result)
        assert key in CampaignStore(directory)

    def test_two_processes_put_into_one_store(self, tmp_path):
        """Concurrent put() from separate processes: both records land,
        files and index agree."""
        spec = small_campaign()
        script = (
            "import sys\n"
            "from repro.campaign import CampaignSpec, CampaignStore\n"
            "from repro.campaign.tracespec import TraceSpec\n"
            "from repro.core.simulator import simulate\n"
            "from repro.campaign.codec import config_result_hash\n"
            "spec = CampaignSpec.load(sys.argv[1])\n"
            "point = list(spec.points())[int(sys.argv[3])]\n"
            "trace = spec.traces[0].build()\n"
            "result = simulate(point.config, trace)\n"
            "store = CampaignStore(sys.argv[2])\n"
            "store.put(point.key(), result)\n"
        )
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)
        directory = tmp_path / "store.d"
        env = dict(os.environ, PYTHONPATH="src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(spec_file), str(directory), str(i)],
                cwd=os.path.dirname(os.path.dirname(__file__)),
                env=env,
            )
            for i in range(2)
        ]
        for proc in procs:
            assert proc.wait() == 0
        store = CampaignStore(directory)
        assert len(store) == 2
        assert len(store.where()) == 2
        for point in spec.points():
            assert point.key() in store
            assert store.get_record(point.key()) is not None


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
def raw_post(server, body: bytes, headers: dict) -> tuple[int, dict]:
    """POST ``/specs`` with hand-set headers; ``(status, JSON reply)``."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.putrequest("POST", "/specs")
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture()
def server(tmp_path):
    instance = CampaignServer(tmp_path / "served.d", port=0, workers=2)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


class TestHTTPService:
    def test_submit_drain_and_query(self, server):
        spec = small_campaign()
        client = ServiceClient(server.url)
        empty = client.status()
        assert empty["records"] == 0 and empty["specs"] == []
        response = client.submit(spec.to_dict())
        entry = client.wait_drained(response["spec_hash"], timeout=120.0)
        assert entry["missing"] == 0 and entry["total"] == len(spec.combos())
        status = client.status()
        assert status["records"] == len(spec.combos())
        assert [s["spec_hash"] for s in status["specs"]] == [response["spec_hash"]]
        records = client.records(num_banks=4)
        assert records["count"] == 1
        assert records["records"][0]["num_banks"] == 4
        limited = client.records(limit=1)
        assert limited["count"] == 1
        metrics = client.metrics()
        assert metrics["records"] == len(spec.combos())
        assert metrics["metrics"]["hit_rate"]["count"] == len(spec.combos())
        assert (
            metrics["metrics"]["hit_rate"]["max"]
            >= metrics["metrics"]["hit_rate"]["min"]
        )

    def test_resubmission_simulates_nothing(self, server, tmp_path):
        spec = small_campaign()
        client = ServiceClient(server.url)
        spec_hash = client.submit(spec.to_dict())["spec_hash"]
        client.wait_drained(spec_hash, timeout=120.0)
        # Drain the same spec again: the store already covers it.
        client.submit(spec.to_dict())
        client.wait_drained(spec_hash, timeout=120.0)
        server.service.wait_idle()
        commits = read_commit_log(tmp_path / "served.d")
        keys = [commit[:2] for commit in commits]
        assert sorted(keys) == sorted(set(keys))

    def test_error_paths(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="invalid campaign spec"):
            client.submit({"surprise": True})
        with pytest.raises(ServiceError, match="unknown index column"):
            client.records(nope=1)
        with pytest.raises(ServiceError, match="unknown path"):
            client._request("GET", "/teapot")

    def test_negative_limit_is_rejected(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="limit must be >= 0"):
            client.records(limit=-1)
        with pytest.raises(ServiceError, match="invalid literal"):
            client.records(limit="many")

    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_malformed_content_length_is_a_400(self, server, declared):
        status, payload = raw_post(server, b"{}", {"Content-Length": declared})
        assert status == 400
        assert "invalid Content-Length" in payload["error"]

    def test_oversize_body_is_a_413(self, server):
        declared = str(MAX_BODY_BYTES + 1)
        status, payload = raw_post(server, b"{}", {"Content-Length": declared})
        assert status == 413
        assert "exceeds" in payload["error"]
        # The server keeps serving after refusing the body.
        assert ServiceClient(server.url).status()["records"] == 0

    def test_cli_submit_wait(self, server, tmp_path, capsys):
        spec = small_campaign()
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)
        assert main(
            [
                "campaign",
                "submit",
                str(spec_file),
                "--url",
                server.url,
                "--wait",
                "--timeout",
                "120",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["missing"] == 0
        assert payload["total"] == len(spec.combos())


# ----------------------------------------------------------------------
# CLI status --json
# ----------------------------------------------------------------------
class TestStatusJSON:
    def test_status_json_payload(self, tmp_path, capsys):
        spec = small_campaign()
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)
        directory = tmp_path / "campaign.d"
        assert main(
            ["campaign", "status", str(spec_file), "--dir", str(directory), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "name": "t",
            "spec_hash": spec.spec_hash(),
            "total": 2,
            "done": 0,
            "estimated": 0,
            "missing": 2,
            "traces": 1,
            "points_per_trace": 2,
            "strategy": "exhaustive",
        }
        drain_dir(spec, directory)
        assert main(
            ["campaign", "status", str(spec_file), "--dir", str(directory), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 2 and payload["missing"] == 0

    def test_status_json_matches_server_payload(self, tmp_path):
        spec = small_campaign()
        directory = tmp_path / "campaign.d"
        drain_dir(spec, directory)
        store = CampaignStore(directory)
        assert status_payload(spec, store)["spec_hash"] == spec.spec_hash()
