"""The live observability endpoint: /metrics, /healthz, /readyz, /status.

A dependency-free HTTP server (stdlib :mod:`http.server` on a daemon
thread) that turns the in-process :class:`~repro.obs.registry
.MetricsRegistry` into a scrapeable service while the engine steps:

``/metrics``
    Prometheus text exposition (format 0.0.4) rendered by
    :mod:`repro.obs.exposition` under the registry lock — scrapes are
    atomic against the stepping engine, which holds the lock per step.
``/healthz``
    Liveness: 200 whenever the server thread is serving.
``/readyz``
    Readiness: 200 after the owner calls :meth:`ObservabilityServer
    .set_ready`, 503 before that and again after it flips readiness off
    (the service front-end does so on SIGTERM, before the final
    snapshot, so orchestrators stop routing to a draining process).
``/status``
    A JSON summary assembled from the owner's ``status_fn`` (the
    engine's :meth:`~repro.sim.engine.SimulationEngine.status`) plus
    server-side facts: readiness and the age of the newest engine
    snapshot (:meth:`ObservabilityServer.note_snapshot`).
``POST /admin/faults``
    Live fault-spec reload, enabled only when the server was built with
    an ``admin_token`` *and* the owner wired a ``fault_reload_fn``
    (``repro serve --admin-token``).  The request must carry the token
    in ``X-Admin-Token`` (403 otherwise); the body is a fault spec in
    the ``--faults`` k=v language and is enqueued for the engine loop to
    splice between steps (202).  Disabled, the route 404s like any
    unknown path, so an unconfigured endpoint exposes nothing.

The server binds before :meth:`~ObservabilityServer.start` returns (port
``0`` picks a free port, surfaced via :attr:`~ObservabilityServer.port`),
handles requests on daemon threads, and never touches simulation state —
it only reads the registry under its lock and calls the status callable.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.exposition import CONTENT_TYPE, render
from repro.obs.registry import MetricsRegistry

__all__ = ["ObservabilityServer", "parse_listen"]

DEFAULT_PORT = 9418
"""Default exposition port for ``--listen`` specs that omit one."""


def parse_listen(spec: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` / ``:PORT`` / ``HOST`` listen spec.

    ``repro serve --listen 0.0.0.0:9418`` and friends; a bare host gets
    :data:`DEFAULT_PORT`, a bare ``:port`` binds localhost only.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty --listen spec")
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        return spec, DEFAULT_PORT
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"invalid port in --listen spec {spec!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in --listen spec {spec!r}")
    return host, port


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"  # type: ignore[assignment]

    # Silence the default stderr access log: the endpoint may be scraped
    # several times a second and the CLI owns the process's output.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        owner = self.server.owner
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            body = render(owner.registry).encode("utf-8")
            self._send(200, body, CONTENT_TYPE)
        elif path == "/healthz":
            self._send(200, b"ok\n", "text/plain; charset=utf-8")
        elif path == "/readyz":
            if owner.ready:
                self._send(200, b"ready\n", "text/plain; charset=utf-8")
            else:
                self._send(503, b"not ready\n", "text/plain; charset=utf-8")
        elif path == "/status":
            body = json.dumps(owner.status_payload(), sort_keys=True).encode(
                "utf-8"
            )
            self._send(200, body, "application/json")
        else:
            self._send(404, b"not found\n", "text/plain; charset=utf-8")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        owner = self.server.owner
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if (
            path != "/admin/faults"
            or owner.admin_token is None
            or owner.fault_reload_fn is None
        ):
            # An unconfigured admin route is indistinguishable from a
            # missing one.
            self._send(404, b"not found\n", "text/plain; charset=utf-8")
            return
        token = self.headers.get("X-Admin-Token", "")
        if not _token_ok(token, owner.admin_token):
            self._send(403, b"forbidden\n", "text/plain; charset=utf-8")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        spec = self.rfile.read(max(0, length)).decode("utf-8", "replace").strip()
        if not spec:
            self._send(400, b"empty fault spec\n", "text/plain; charset=utf-8")
            return
        owner.fault_reload_fn(spec)
        self._send(202, b"accepted\n", "text/plain; charset=utf-8")


def _token_ok(given: str, expected: str) -> bool:
    import hmac

    return hmac.compare_digest(given.encode("utf-8"), expected.encode("utf-8"))


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    owner: "ObservabilityServer"


class ObservabilityServer:
    """Owns the listener thread and the readiness/snapshot-age state."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        status_fn: Optional[Callable[[], dict]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        admin_token: Optional[str] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.status_fn = status_fn
        self.admin_token = admin_token
        """Shared secret for ``POST /admin/faults``; None disables it."""
        self.fault_reload_fn: Optional[Callable[[str], None]] = None
        """Callback receiving a posted fault spec (set by the run loop);
        must be thread-safe — requests arrive on server threads."""
        self._requested = (host, port)
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = False
        self._snapshot_note: Optional[tuple[str, float]] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle --
    def start(self) -> tuple[str, int]:
        """Bind and serve on a daemon thread; returns the bound (host, port)."""
        if self._httpd is not None:
            raise RuntimeError("observability server already started")
        httpd = _Server(self._requested, _Handler)
        httpd.owner = self
        self._httpd = httpd
        thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self.address

    def stop(self) -> None:
        """Shut the listener down and join the serving thread (idempotent)."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        self._ready = False
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); the requested pair before :meth:`start`."""
        if self._httpd is None:
            return self._requested
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------- readiness --
    @property
    def ready(self) -> bool:
        return self._ready

    def set_ready(self, ready: bool) -> None:
        """Flip ``/readyz``: True once the engine is serving, False to drain."""
        self._ready = bool(ready)

    # ------------------------------------------------------------- snapshots --
    def note_snapshot(self, path: str) -> None:
        """Record that an engine snapshot was just written (for ``/status``).

        Wall-clock (monotonic) on purpose: snapshot *age* is an
        operational freshness signal about this process, not simulation
        state — it never feeds back into scheduling.
        """
        with self._lock:
            self._snapshot_note = (str(path), time.monotonic())

    def status_payload(self) -> dict:
        payload: dict = {}
        if self.status_fn is not None:
            payload.update(self.status_fn())
        with self._lock:
            note = self._snapshot_note
        if note is None:
            payload["newest_snapshot"] = None
            payload["newest_snapshot_age_s"] = None
        else:
            path, when = note
            payload["newest_snapshot"] = path
            payload["newest_snapshot_age_s"] = round(
                time.monotonic() - when, 3
            )
        payload["ready"] = self._ready
        return payload
