"""Stdlib HTTP face of the planning service.

One POST endpoint does the planning; two GETs make the service operable:

``POST /v1/plan``
    Body: :class:`~repro.service.api.PlanRequest` JSON.  Blocks until the
    broker answers (or the ticket's deadline, the request's ``deadline_s``
    or :data:`~repro.service.api.DEFAULT_DEADLINE_S`, expires) and returns a
    :class:`~repro.service.api.PlanResponse` JSON.  Identical concurrent
    bodies coalesce into one synthesis.
``GET /healthz``
    Liveness: ``{"status": "ok"}`` once the worker pool is running.
``GET /v1/stats``
    A JSON view of the metrics registry that ``/v1/metrics`` exposes
    (requests and coalescing, job outcomes, resolver ladder rungs, cache
    hit rate, all counted since its ``since``) plus live state: queue depth, jobs in flight, memoized
    tables, cache entries and active faults.
``GET /v1/metrics``
    The process-wide :mod:`repro.telemetry` registry in Prometheus text
    exposition format (``repro_solver_calls_total``,
    ``repro_broker_requests_total``, ...) — point a scraper at it.

Everything is standard library (``http.server`` + ``http.client``): the
container bakes no web framework, and a ThreadingHTTPServer in front of
the coalescing broker is exactly enough — concurrency is bounded by the
worker pool, not the accept loop.  Connections are HTTP/1.1 keep-alive on
both sides: the handler answers each request in one write (Nagle off) and
hangs up a connection idle for :data:`IDLE_TIMEOUT_S`; the client functions
(:func:`request_plan` behind ``repro request``, and its siblings) keep one
connection per thread and server, and reconnect once when it was closed
under them.  A client that opens a connection per call (``Connection:
close``) is served the same way.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional, Tuple
from urllib.parse import urlsplit

from .api import (
    DEFAULT_DEADLINE_S,
    FaultRequest,
    FaultResponse,
    PlanRequest,
    PlanResponse,
    ServiceError,
)

if TYPE_CHECKING:
    from .workers import PlanningService

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8315

#: Seconds a kept-alive connection may sit between requests (and a declared
#: body may take to arrive) before the handler hangs up and frees its thread.
IDLE_TIMEOUT_S = 10.0

#: Largest request body read into memory; a plan or fault request is a few
#: hundred bytes.
MAX_BODY_BYTES = 1 << 20


class PlanningHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`PlanningService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: PlanningService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        # Kept-alive connections outlive the accept loop: server_close hangs
        # them up too, or a stopped server would go on answering on them.
        self._open: set = set()
        self._open_lock = threading.Lock()
        self.closed = False

    def finish_request(self, request, client_address) -> None:
        with self._open_lock:
            if self.closed:  # accepted while the server was closing
                return
            self._open.add(request)
        try:
            super().finish_request(request, client_address)
        finally:
            with self._open_lock:
                self._open.discard(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            self.closed = True
            connections = list(self._open)
        for connection in connections:
            try:
                # Read side only: an answer being written still goes out,
                # then the handler reads end-of-file and leaves.  (A request
                # that slips in first is dropped by ``parse_request``.)
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass


class _Handler(BaseHTTPRequestHandler):
    server: PlanningHTTPServer
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # One write per response and no Nagle: a kept-alive peer would otherwise
    # sit out a delayed ACK (about 40 ms) between the header and body segments.
    disable_nagle_algorithm = True

    def parse_request(self) -> bool:
        # A request reaching a kept connection after server_close gets no
        # answer: hung up on, the client reconnects to whoever listens now.
        if self.server.closed:
            self.close_connection = True
            return False
        return super().parse_request()

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        elif self.path == "/v1/stats":
            self._send(200, self.server.service.stats())
        elif self.path == "/v1/metrics":
            from ..telemetry import get_metrics  # the server's, not a client's import

            self._send_text(
                200, get_metrics().render_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        # The declared body is read before the path is looked at: whatever
        # the answer, the next request on this connection starts after it.
        body = self._read_body()
        if body is None:
            return
        if self.path == "/v1/fault":
            self._handle_fault(body)
            return
        if self.path != "/v1/plan":
            self._send(404, {"error": f"no such endpoint {self.path!r}"})
            return
        try:
            request = PlanRequest.from_json(json.loads(body))
        except (ValueError, ServiceError) as exc:
            self._send(400, {"error": str(exc)})
            return
        try:
            response = self.server.service.request(request)
        except ServiceError as exc:  # e.g. a closed broker
            self._send(503, {"error": str(exc)})
            return
        status = 200 if response.ok else (504 if response.status == "timeout" else 422)
        self._send(status, response.to_json())

    def _handle_fault(self, body: bytes) -> None:
        try:
            request = FaultRequest.from_json(json.loads(body))
        except (ValueError, ServiceError) as exc:
            self._send(400, {"error": str(exc)})
            return
        response = self.server.service.fault(request)
        self._send(200 if response.ok else 422, response.to_json())

    def _read_body(self) -> Optional[bytes]:
        """The declared body, or None after answering why it was not read.

        ``Content-Length`` is outside input: a length that is not a
        non-negative integer leaves no way to tell where the body ends, one
        over :data:`MAX_BODY_BYTES` is not worth reading — both are refused
        and the connection closed.
        """
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": f"invalid Content-Length {declared!r}"}, close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._send(
                413,
                {"error": f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"},
                close=True,
            )
            return None
        return self.rfile.read(length) if length else b""

    # ------------------------------------------------------------------
    def _send(self, status: int, payload: dict, *, close: bool = False) -> None:
        self._send_text(
            status, json.dumps(payload), content_type="application/json", close=close
        )

    def _send_text(
        self, status: int, text: str, *, content_type: str, close: bool = False
    ) -> None:
        blob = text.encode("utf-8")
        head = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(blob)}",
        ]
        if close:
            self.close_connection = True
            head.append("Connection: close")
        # Status line, headers and body leave in one write.
        self.wfile.write("\r\n".join(head + ["", ""]).encode("latin-1") + blob)

    def log_message(self, format: str, *args) -> None:
        # Quiet by default; the CLI prints its own serving banner.  Errors
        # still surface through the JSON payloads.
        pass


# ----------------------------------------------------------------------
# Lifecycle helpers
# ----------------------------------------------------------------------
def make_server(
    service: PlanningService,
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> PlanningHTTPServer:
    """Bind (``port=0`` picks a free port) — call ``serve_forever`` next."""
    return PlanningHTTPServer((host, port), service)


class ServerThread:
    """Run a :class:`PlanningHTTPServer` on a background thread (tests)."""

    def __init__(self, server: PlanningHTTPServer) -> None:
        self.server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="planning-http", daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _KeptAlive(threading.local):
    """Each thread's open connections, by (scheme, "host:port")."""

    def __init__(self) -> None:
        self.connections: dict = {}


_kept_alive = _KeptAlive()


def _exchange(
    url: str, path: str, *, body: Optional[bytes] = None, timeout: float
) -> Tuple[int, str, bytes]:
    """One request over this thread's kept-alive connection to ``url``;
    returns the answer's ``(status, reason, body)``.

    The server may have closed a kept connection since its last use (idle
    timeout, restart).  That shows as a connection error before any answer,
    and the request is sent once more on a new connection — safe, because
    planning requests are content-addressed and idempotent.  A timeout, or
    any error on a new connection, is not retried.
    """
    parts = urlsplit(url)
    address = (parts.scheme, parts.netloc)
    connections = _kept_alive.connections

    def attempt(connection: http.client.HTTPConnection) -> Tuple[int, str, bytes]:
        try:
            connection.request(
                "GET" if body is None else "POST",
                parts.path.rstrip("/") + path,
                body=body,
                headers={} if body is None else {"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            answer = (reply.status, reply.reason, reply.read())
        except BaseException:
            connection.close()
            raise
        if reply.will_close:
            connection.close()
        else:
            connections[address] = connection
        return answer

    kept = connections.pop(address, None)
    if kept is not None:
        kept.sock.settimeout(timeout)
        try:
            return attempt(kept)
        except ConnectionError:
            pass  # closed by the server since its last use
    factory = (
        http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    )
    return attempt(factory(parts.netloc, timeout=timeout))


def _post(url: str, path: str, message: dict, *, timeout: float, what: str) -> dict:
    """POST a JSON message; the decoded answer of any status that carries one."""
    try:
        status, _, raw = _exchange(
            url, path, body=json.dumps(message).encode("utf-8"), timeout=timeout
        )
    except (OSError, http.client.HTTPException) as exc:
        raise ServiceError(f"cannot reach planning service at {url}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ServiceError(f"service returned HTTP {status}") from exc
    # 4xx/5xx still carry a JSON body (a response object or an error dict).
    if status >= 400 and "status" not in payload:
        raise ServiceError(
            f"service rejected the {what} (HTTP {status}): {payload.get('error', '?')}"
        )
    return payload


def _get(url: str, path: str, *, timeout: float, what: str, parse=str):
    """GET ``path``; the answer's text through ``parse``."""
    try:
        status, reason, raw = _exchange(url, path, timeout=timeout)
        if status >= 400:
            raise OSError(f"HTTP Error {status}: {reason}")
        return parse(raw.decode("utf-8"))
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise ServiceError(f"cannot fetch {what} from {url}: {exc}") from exc


def request_plan(
    url: str, request: PlanRequest, *, timeout: Optional[float] = None
) -> PlanResponse:
    """POST a :class:`PlanRequest` to a running service and decode the answer.

    The HTTP timeout is the request deadline plus slack (the server
    enforces the deadline itself and answers with a ``timeout`` response
    we want to receive, not race).
    """
    if timeout is None:
        timeout = (request.deadline_s or DEFAULT_DEADLINE_S) + 10.0
    return PlanResponse.from_json(
        _post(url, "/v1/plan", request.to_json(), timeout=timeout, what="request")
    )


def request_fault(
    url: str, request: FaultRequest, *, timeout: float = 30.0
) -> FaultResponse:
    """POST a :class:`FaultRequest` to a running service (``repro fault``)."""
    return FaultResponse.from_json(
        _post(url, "/v1/fault", request.to_json(), timeout=timeout, what="fault request")
    )


def fetch_stats(url: str, *, timeout: float = 10.0) -> dict:
    """GET ``/v1/stats`` from a running service (``repro request --stats``)."""
    return _get(url, "/v1/stats", timeout=timeout, what="stats", parse=json.loads)


def fetch_metrics(url: str, *, timeout: float = 10.0) -> str:
    """GET the Prometheus text exposition from ``/v1/metrics``."""
    return _get(url, "/v1/metrics", timeout=timeout, what="metrics")


def check_health(url: str, *, timeout: float = 2.0) -> bool:
    """True when a planning service answers ``/healthz`` at ``url``."""
    try:
        answer = _get(url, "/healthz", timeout=timeout, what="health", parse=json.loads)
        return answer.get("status") == "ok"
    except Exception:
        return False
