"""Claim-based work queue: many workers drain one campaign directory.

The campaign runner's resume contract (PR 3) already makes reruns cheap
— finished points are skipped — but two *concurrent* processes pointed
at one directory would both see the same missing points and simulate
them twice. This module adds the missing coordination with nothing but
the shared filesystem:

claim → simulate → commit
    A worker takes a point by atomically creating
    ``claims/<point_hash>.json`` (``O_CREAT | O_EXCL`` — exactly one
    creator wins), simulates it, commits the record through
    :meth:`~repro.campaign.store.CampaignStore.put`, appends the commit
    to its ``queue-log/<worker>.jsonl`` line log, and only then releases
    the claim. A point is therefore simulated by at most one live
    worker, on one host or many sharing the directory.

leases (TTL + heartbeat)
    A claim is a *lease*, not a lock: its file's mtime is refreshed by a
    heartbeat thread every quarter TTL while the worker lives. A worker
    that dies mid-claim stops heartbeating; once the mtime is older than
    the TTL any other worker may steal the claim (atomic rename into a
    private tombstone, so two stealers cannot both win) and simulate the
    point itself. After stealing — or winning any claim — a worker
    re-checks the store before simulating, so a claim left behind
    *after* a successful commit is released without recomputation.

The commit logs exist for auditability: concatenating every
``queue-log/*.jsonl`` line must name each point identity at most once —
the tests assert exactly that across concurrent drains.

:func:`drain_campaign` is the entry point ``run_campaign(workers=N)``
delegates to; ``workers > 1`` fans complete claim→simulate→commit loops
out over a process pool (state shipped via the pool initializer, as
everywhere else in the tree), while each worker may additionally use
``parallel=M`` to shard its own streaming passes.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.aging.lut import LifetimeLUT
from repro.analysis.planner import breakeven_group_ids
from repro.analysis.sweep import simulate_selected
from repro.campaign.run import _streaming_source, _write_manifest, campaign_status
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, point_hash
from repro.core.plan import TracePlan
from repro.core.results import SimulationResult
from repro.errors import ServiceError

#: Subdirectory of a campaign directory holding one lease file per
#: in-flight point.
CLAIMS_DIRNAME = "claims"

#: Subdirectory holding one append-only JSONL commit log per worker.
LOG_DIRNAME = "queue-log"

#: Default lease time-to-live in seconds; a claim whose file mtime is
#: older than this is considered abandoned and may be stolen.
DEFAULT_LEASE_TTL = 60.0


def _lease_clock() -> float:
    """Wall-clock seconds, for comparing against claim-file mtimes.

    Lease scheduling is the one sanctioned wall-clock read in the
    library: it decides only *who simulates*, never *what is simulated*
    — stored results remain bit-identical regardless of clock skew.
    """
    return time.time()  # reprolint: disable=REPRO007


class WorkQueue:
    """Leased claims over one campaign directory's missing points.

    Parameters
    ----------
    directory:
        The shared campaign directory (claims and commit logs live in
        ``claims/`` and ``queue-log/`` beside ``results/``).
    worker_id:
        Identity written into claims and the commit log; defaults to
        ``<hostname>-<pid>``, unique per worker process.
    lease_ttl:
        Seconds a claim survives without a heartbeat before any other
        worker may steal it.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.directory = os.fspath(directory)
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        self.lease_ttl = float(lease_ttl)
        self._held: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._heartbeat: threading.Thread | None = None

    # -- paths ----------------------------------------------------------
    @property
    def claims_dir(self) -> str:
        return os.path.join(self.directory, CLAIMS_DIRNAME)

    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, LOG_DIRNAME, f"{self.worker_id}.jsonl")

    def _claim_path(self, key: tuple[str, str]) -> str:
        return os.path.join(self.claims_dir, f"{point_hash(key)}.json")

    # -- leases ---------------------------------------------------------
    def _read_holder(self, path: str) -> str | None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return str(json.load(handle).get("worker"))
        except (OSError, ValueError, AttributeError):
            # Mid-write, already stolen, or garbage: holder unknown.
            return None

    def _steal_if_stale(self, path: str) -> bool:
        """Take down an expired claim; ``True`` if *we* removed it.

        The holder observed before the expiry check must match the
        holder found after the atomic rename — otherwise the claim was
        re-created by a live worker in the window and is handed back.
        """
        observed = self._read_holder(path)
        try:
            age = _lease_clock() - os.stat(path).st_mtime
        except OSError:
            return False  # released (or stolen) under us
        if age <= self.lease_ttl:
            return False
        tomb = f"{path}.{self.worker_id}.steal"
        try:
            os.rename(path, tomb)
        except OSError:
            return False  # another stealer won the rename
        stolen = self._read_holder(tomb)
        if observed is not None and stolen is not None and stolen != observed:
            # The stale claim was released and re-claimed between our
            # check and our rename; restore the live claim untouched.
            try:
                os.rename(tomb, path)
            except OSError:
                pass
            return False
        try:
            os.unlink(tomb)
        except OSError:
            pass
        return True

    def try_claim(self, key: tuple[str, str]) -> bool:
        """Atomically lease ``key``; ``False`` if someone else holds it."""
        os.makedirs(self.claims_dir, exist_ok=True)
        path = self._claim_path(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._steal_if_stale(path):
                return False
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False  # another worker re-claimed first
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "worker": self.worker_id,
                        "trace_hash": key[0],
                        "config_hash": key[1],
                    }
                )
            )
        with self._lock:
            self._held[key] = path
        self._ensure_heartbeat()
        return True

    def release(self, key: tuple[str, str]) -> None:
        """Give up a held lease (no-op for keys this queue never won)."""
        with self._lock:
            path = self._held.pop(key, None)
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass

    def log_commit(self, key: tuple[str, str]) -> None:
        """Append one committed simulation to this worker's line log."""
        os.makedirs(os.path.dirname(self.log_path), exist_ok=True)
        line = json.dumps(
            {
                "worker": self.worker_id,
                "trace_hash": key[0],
                "config_hash": key[1],
            }
        )
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    # -- heartbeat ------------------------------------------------------
    def _ensure_heartbeat(self) -> None:
        if self._heartbeat is not None and self._heartbeat.is_alive():
            return
        self._stop.clear()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="workqueue-heartbeat", daemon=True
        )
        self._heartbeat.start()

    def _heartbeat_loop(self) -> None:
        interval = max(self.lease_ttl / 4.0, 0.05)
        while not self._stop.wait(interval):
            with self._lock:
                paths = list(self._held.values())
            for path in paths:
                try:
                    os.utime(path, None)
                except OSError:
                    pass

    def close(self) -> None:
        """Stop the heartbeat and release every held lease."""
        self._stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=5.0)
            self._heartbeat = None
        with self._lock:
            held = list(self._held)
        for key in held:
            self.release(key)

    def __enter__(self) -> WorkQueue:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _drain_pass(
    spec: CampaignSpec,
    store: CampaignStore,
    queue: WorkQueue,
    lut: LifetimeLUT,
    parallel: int | None,
    claim_batch: int,
) -> int:
    """One claim→simulate→commit sweep; returns points simulated here.

    Walks every trace, leases whatever missing points it can win, and
    simulates them through the exact batch machinery of the plain
    runner — breakeven groups still collapse, streaming traces still
    run one shared pass (over the *claimed* subset) and may shard it
    with ``parallel``. Points leased by other live workers are left
    alone; the caller loops until the campaign is covered.
    """
    names = spec.axis_names
    combos = spec.combos()
    group_ids = breakeven_group_ids(names, spec.axes)
    simulated = 0
    for trace_spec in spec.traces:
        points = spec.trace_points(trace_spec)
        keys = [point.key() for point in points]
        stream = _streaming_source(spec, trace_spec)
        trace = None
        plan = None
        while True:
            missing = [i for i, key in enumerate(keys) if key not in store]
            if not missing:
                break
            # Streaming traces amortize one pass over every claimable
            # point; in-memory traces lease small batches so concurrent
            # workers interleave within a single trace too.
            want = len(missing) if stream is not None else max(claim_batch, 1)
            batch: list[int] = []
            for i in missing:
                if len(batch) >= want:
                    break
                if not queue.try_claim(keys[i]):
                    continue
                if keys[i] in store:
                    # Claim outlived its commit (or we stole one left
                    # behind by a crash after put): nothing to redo.
                    queue.release(keys[i])
                    continue
                batch.append(i)
            if not batch:
                break  # everything left is leased to live workers
            try:
                batch_combos = [combos[i] for i in batch]
                batch_groups = (
                    [group_ids[i] for i in batch] if group_ids is not None else None
                )

                def on_result(
                    j: int,
                    result: SimulationResult,
                    _batch: list[int] = batch,
                    _keys: list[tuple[str, str]] = keys,
                ) -> None:
                    key = _keys[_batch[j]]
                    store.put(key, result)
                    queue.log_commit(key)
                    queue.release(key)

                if stream is not None:
                    from repro.core.streamsim import stream_selected

                    stream_selected(
                        spec.base,
                        stream,
                        names,
                        batch_combos,
                        group_ids=batch_groups,
                        lut=lut,
                        engine=spec.engine,
                        on_result=on_result,
                        parallel=parallel,
                    )
                else:
                    if trace is None:
                        trace = trace_spec.build()
                        plan = TracePlan(trace)
                    simulate_selected(
                        spec.base,
                        trace,
                        names,
                        batch_combos,
                        group_ids=batch_groups,
                        lut=lut,
                        engine=spec.engine,
                        parallel=parallel,
                        plan=plan,
                        on_result=on_result,
                    )
                simulated += len(batch)
            finally:
                # Normally a no-op (on_result released each lease);
                # after a failure this frees the un-simulated leases so
                # other workers can take over immediately.
                for i in batch:
                    queue.release(keys[i])
    return simulated


def drain_worker(
    spec: CampaignSpec,
    directory: str | os.PathLike[str],
    lut: LifetimeLUT | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    claim_batch: int = 1,
    parallel: int | None = None,
    poll_interval: float = 0.1,
    timeout: float | None = None,
    worker_id: str | None = None,
) -> int:
    """Run one worker's claim loop until the campaign is fully covered.

    Returns the number of points *this* worker simulated. Blocks (poll
    + sleep) while the remaining points are leased to other workers —
    their commits, or their leases expiring, make progress; ``timeout``
    (seconds, monotonic) bounds the wait and raises
    :class:`~repro.errors.ServiceError` on a stall.
    """
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    store = CampaignStore(directory)
    deadline = time.monotonic() + timeout if timeout is not None else None
    simulated = 0
    with WorkQueue(directory, worker_id=worker_id, lease_ttl=lease_ttl) as queue:
        while True:
            simulated += _drain_pass(
                spec, store, queue, shared_lut, parallel, claim_batch
            )
            if campaign_status(spec, store).missing == 0:
                return simulated
            if deadline is not None and time.monotonic() > deadline:
                status = campaign_status(spec, store)
                raise ServiceError(
                    f"campaign drain stalled: {status.missing} of "
                    f"{status.total} points still missing after timeout"
                )
            time.sleep(poll_interval)


@dataclass
class _DrainState:
    """Per-worker drain parameters shipped via the pool initializer."""

    spec: CampaignSpec
    directory: str
    lut: LifetimeLUT
    lease_ttl: float
    claim_batch: int
    parallel: int | None
    timeout: float | None


#: Installed once by the pool initializer so task payloads carry only
#: the worker ordinal.
_drain_state: _DrainState | None = None


def _init_drain_worker(
    spec_payload: dict[str, Any],
    directory: str,
    lut: LifetimeLUT,
    lease_ttl: float,
    claim_batch: int,
    parallel: int | None,
    timeout: float | None,
    engines: tuple[Any, ...] = (),
    metrics: tuple[Any, ...] = (),
    templates: tuple[Any, ...] = (),
) -> None:
    """Pool initializer: the spec, LUT and the parent's plugins.

    Mirrors the sweep pool's initializer — under spawn the worker
    process knows nothing, so the parent's custom engine/metric/template
    registrations travel here once per worker, and the spec travels as
    its payload dict (always picklable) rather than as live objects.
    """
    from repro.core.engine import install_engines
    from repro.core.metrics import install_metrics, install_templates

    install_templates(templates)
    install_metrics(metrics)
    install_engines(engines)
    global _drain_state
    _drain_state = _DrainState(
        spec=CampaignSpec.from_dict(spec_payload),
        directory=directory,
        lut=lut,
        lease_ttl=lease_ttl,
        claim_batch=claim_batch,
        parallel=parallel,
        timeout=timeout,
    )


def _drain_task(ordinal: int) -> int:
    """Pool task: run one full drain worker (module-level, picklable)."""
    assert _drain_state is not None  # installed by _init_drain_worker
    state = _drain_state
    return drain_worker(
        state.spec,
        state.directory,
        lut=state.lut,
        lease_ttl=state.lease_ttl,
        claim_batch=state.claim_batch,
        parallel=state.parallel,
        timeout=state.timeout,
        worker_id=f"{socket.gethostname()}-{os.getpid()}-w{ordinal}",
    )


def drain_campaign(
    spec: CampaignSpec,
    directory: str | os.PathLike[str],
    lut: LifetimeLUT | None = None,
    workers: int = 1,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    claim_batch: int = 1,
    parallel: int | None = None,
    timeout: float | None = None,
) -> int:
    """Drain ``spec`` with ``workers`` claim-loop processes.

    ``workers=1`` runs the claim loop in-process (still safe alongside
    other hosts' workers on a shared directory); ``workers>1`` fans
    complete loops out over a process pool. Returns the total number of
    points simulated by the workers of *this* call — a fully covered
    campaign drains with zero.
    """
    if workers < 1:
        raise ServiceError(f"workers must be >= 1, got {workers}")
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    store = CampaignStore(directory)
    _write_manifest(spec, store)
    if campaign_status(spec, store).missing == 0:
        return 0
    if workers == 1:
        return drain_worker(
            spec,
            directory,
            lut=shared_lut,
            lease_ttl=lease_ttl,
            claim_batch=claim_batch,
            parallel=parallel,
            timeout=timeout,
        )
    from repro.core.engine import custom_engines
    from repro.core.metrics import custom_metrics, custom_templates

    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_drain_worker,
        initargs=(
            spec.to_dict(),
            os.fspath(directory),
            shared_lut,
            lease_ttl,
            claim_batch,
            parallel,
            timeout,
            custom_engines(),
            custom_metrics(),
            custom_templates(),
        ),
    ) as pool:
        counts = list(pool.map(_drain_task, range(workers)))
    return sum(counts)
