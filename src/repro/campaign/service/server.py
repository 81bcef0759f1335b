"""Stdlib HTTP/JSON front-end over one campaign directory.

``repro campaign serve <dir>`` turns a campaign directory into a small
service (think Pitwall's result server): clients submit specs and read
status, records and metric aggregates over plain HTTP — no dependency
beyond the standard library on either side.

Endpoints
---------
``POST /specs``
    Body: a campaign-spec payload (``CampaignSpec.to_dict`` form). The
    spec is validated, persisted to ``<dir>/specs/<spec_hash>.json``,
    and queued for draining by the server's background worker loop
    (which runs the claim-based work queue, so external workers may
    drain the same directory concurrently). Responds ``202`` with the
    spec hash; a body above :data:`MAX_BODY_BYTES` gets ``413``.
``GET /status``
    Store-wide record count plus one
    :func:`~repro.campaign.run.status_payload` per known spec (every
    spec ever submitted or served from ``<dir>/specs/``), and the drain
    backlog.
``GET /records``
    Indexed record rows. Query parameters are equality filters on
    index columns (``?num_banks=4&policy=plru``), plus ``limit`` (a
    non-negative integer);
    values are coerced to numbers when they look numeric. Served from
    the SQLite index — no record file is opened.
``GET /metrics``
    Aggregates (count / min / max / mean) of every indexed metric.

Errors are JSON too: ``{"error": ...}`` with a 4xx status for client
mistakes (unknown path, bad spec payload or ``Content-Length``,
unknown filter column, bad ``limit``).
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from repro.aging.lut import LifetimeLUT
from repro.campaign.run import run_campaign, status_payload
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.core.serialize import write_json_atomic
from repro.errors import ReproError, ServiceError

#: Subdirectory of a campaign directory holding one file per submitted spec.
SPECS_DIRNAME = "specs"

#: Largest request body ``POST /specs`` reads; a larger declared
#: ``Content-Length`` is answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(ServiceError):
    """A request declared a body above :data:`MAX_BODY_BYTES` (HTTP 413)."""


def _coerce(value: str) -> int | float | str | None:
    """Query-string value → the type the index stores (int/float/str)."""
    if value == "null":
        return None
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


class CampaignService:
    """Shared state behind the HTTP handlers: store, specs, drain loop.

    One background thread drains submitted specs in arrival order with
    ``run_campaign(workers=...)`` — i.e. through the claim-based work
    queue, so a drain started here never double-simulates against
    external workers pointed at the same directory.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        workers: int = 1,
        parallel: int | None = None,
        lut: LifetimeLUT | None = None,
    ) -> None:
        self.directory = os.fspath(directory)
        self.workers = workers
        self.parallel = parallel
        self.lut = lut
        self.store = CampaignStore(self.directory)
        #: None is the stop sentinel (see :meth:`stop`).
        self._backlog: queue_module.Queue[CampaignSpec | None] = queue_module.Queue()
        self._active: str | None = None
        self._last_error: str | None = None
        self._lock = threading.Lock()
        self._drainer = threading.Thread(
            target=self._drain_loop, name="campaign-drainer", daemon=True
        )
        self._drainer.start()

    # -- specs ----------------------------------------------------------
    @property
    def specs_dir(self) -> str:
        return os.path.join(self.directory, SPECS_DIRNAME)

    def known_specs(self) -> list[CampaignSpec]:
        """Every spec ever submitted to (or dropped into) ``specs/``."""
        if not os.path.isdir(self.specs_dir):
            return []
        specs: list[CampaignSpec] = []
        for name in sorted(os.listdir(self.specs_dir)):
            if name.endswith(".json"):
                specs.append(CampaignSpec.load(os.path.join(self.specs_dir, name)))
        return specs

    def submit(self, payload: dict[str, Any]) -> str:
        """Validate, persist and enqueue one spec; returns its hash."""
        try:
            spec = CampaignSpec.from_dict(payload)
        except ReproError as exc:
            raise ServiceError(f"invalid campaign spec: {exc}") from exc
        spec_hash = spec.spec_hash()
        os.makedirs(self.specs_dir, exist_ok=True)
        write_json_atomic(
            os.path.join(self.specs_dir, f"{spec_hash}.json"), spec.to_dict()
        )
        self._backlog.put(spec)
        return spec_hash

    # -- drain loop -----------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            spec = self._backlog.get()
            if spec is None:
                return
            with self._lock:
                self._active = spec.spec_hash()
            try:
                run_campaign(
                    spec,
                    store=self.store,
                    lut=self.lut,
                    parallel=self.parallel,
                    workers=self.workers,
                )
            except Exception as exc:  # surface in /status, keep serving
                with self._lock:
                    self._last_error = f"{spec.name}: {exc}"
            finally:
                with self._lock:
                    self._active = None
                self._backlog.task_done()

    def wait_idle(self) -> None:
        """Block until every queued spec has been drained (for tests)."""
        self._backlog.join()

    def stop(self) -> None:
        self._backlog.put(None)

    # -- views ----------------------------------------------------------
    def status(self) -> dict[str, Any]:
        with self._lock:
            active = self._active
            last_error = self._last_error
        return {
            "directory": self.directory,
            "records": len(self.store),
            "specs": [status_payload(spec, self.store) for spec in self.known_specs()],
            "draining": active,
            "backlog": self._backlog.unfinished_tasks,
            "last_error": last_error,
        }

    def records(
        self, filters: dict[str, Any], limit: int | None
    ) -> dict[str, Any]:
        rows = self.store.where(limit=limit, **filters)
        return {"count": len(rows), "records": rows}

    def metrics(self) -> dict[str, Any]:
        index = self.store.index
        if index is None or not os.path.isdir(
            os.path.join(self.directory, "results")
        ):
            return {"records": 0, "traces": 0, "metrics": {}}
        index.ensure_built()
        return index.summary()


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`CampaignService` on the server."""

    server: CampaignServer  # type: ignore[assignment]

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, code: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise ServiceError(f"invalid Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            # The unread body makes the connection unusable; close it.
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        service = self.server.service
        url = urlsplit(self.path)
        try:
            if url.path == "/status":
                self._send_json(200, service.status())
            elif url.path == "/records":
                params = dict(parse_qsl(url.query))
                limit_raw = params.pop("limit", None)
                limit = int(limit_raw) if limit_raw is not None else None
                if limit is not None and limit < 0:
                    raise ServiceError(f"limit must be >= 0, got {limit}")
                filters = {name: _coerce(value) for name, value in params.items()}
                self._send_json(200, service.records(filters, limit))
            elif url.path == "/metrics":
                self._send_json(200, service.metrics())
            else:
                self._send_json(404, {"error": f"unknown path {url.path}"})
        except (ServiceError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})

    def do_POST(self) -> None:
        service = self.server.service
        url = urlsplit(self.path)
        try:
            if url.path == "/specs":
                spec_hash = service.submit(self._read_json())
                self._send_json(
                    202, {"spec_hash": spec_hash, "status": "/status"}
                )
            else:
                self._send_json(404, {"error": f"unknown path {url.path}"})
        except _BodyTooLarge as exc:
            self._send_json(413, {"error": str(exc)})
        except ServiceError as exc:
            self._send_json(400, {"error": str(exc)})


class CampaignServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`CampaignService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address either way.
    """

    daemon_threads = True

    def __init__(
        self,
        directory: str | os.PathLike[str],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        parallel: int | None = None,
        lut: LifetimeLUT | None = None,
        verbose: bool = False,
    ) -> None:
        self.service = CampaignService(
            directory, workers=workers, parallel=parallel, lut=lut
        )
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        self.service.stop()
        super().shutdown()


def serve(
    directory: str | os.PathLike[str],
    host: str = "127.0.0.1",
    port: int = 8437,
    workers: int = 1,
    parallel: int | None = None,
    verbose: bool = True,
) -> None:
    """Run the campaign service until interrupted (the CLI entry)."""
    server = CampaignServer(
        directory,
        host=host,
        port=port,
        workers=workers,
        parallel=parallel,
        verbose=verbose,
    )
    print(f"serving campaign {os.fspath(directory)} at {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", flush=True)
    finally:
        server.shutdown()
        server.server_close()
