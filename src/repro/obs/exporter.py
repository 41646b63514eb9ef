"""Opt-in HTTP exposition of a :class:`~repro.obs.metrics.MetricsRegistry`.

:class:`MetricsExporter` serves two views of one registry from a
background thread:

- ``GET /metrics`` (or ``/``)          — Prometheus text exposition
  (``text/plain; version=0.0.4``), the scrape target;
- ``GET /metrics.json`` (or ``/json``) — the JSON snapshot
  (``application/json``, the payload the ``repro monitor`` CLI view
  prints).

The query string is ignored.  Any other path is ``404``; another method
is ``405`` (``Allow: GET``); a malformed request line is ``400``; a
request line over :data:`MAX_REQUEST_BYTES` is ``414`` and headers over
it ``431``.  Every response carries ``Content-Length`` and
``Connection: close``; a connection that stays silent for
:data:`REQUEST_TIMEOUT` seconds is closed without one.

The endpoint speaks only that much HTTP, on :mod:`socketserver` — one
thread per connection, so a stalled scraper never blocks another.
``http.server`` would cost every process that serves ``/metrics``
~30 ms of start-up for ``http.client``, ``email`` and ``ssl`` it never
uses (DESIGN.md §13.2).

The server binds ``127.0.0.1`` by default and picks an ephemeral port
when ``port=0``, so tests and side-by-side services never collide.  It
is strictly opt-in: nothing in the monitor constructs one.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsExporter"]

#: Most bytes read for the request line, and again for all its headers.
MAX_REQUEST_BYTES = 8192

#: Seconds a connection may stay silent before it is closed.
REQUEST_TIMEOUT = 10.0

_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 414: "URI Too Long",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


def _response(status: int, body: bytes, content_type: str,
              *extra: str) -> bytes:
    head = [f"HTTP/1.0 {status} {_REASONS[status]}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close", *extra, "", ""]
    return "\r\n".join(head).encode("latin-1") + body


def _error(status: int, message: str, *extra: str) -> bytes:
    return _response(status, f"{status} {message}\n".encode(),
                     "text/plain; charset=utf-8", *extra)


class _Handler(socketserver.StreamRequestHandler):
    """One request per connection (the server answers, then closes)."""

    timeout = REQUEST_TIMEOUT  # StreamRequestHandler.setup applies it

    def handle(self) -> None:
        server: _Server = self.server  # type: ignore[assignment]
        thread = threading.current_thread()
        with server.lock:
            if server.serving is None:
                return  # stop() has begun
            server.serving[self.connection] = thread
        thread.name = "rushmon-metrics-exporter-request"
        try:
            self.wfile.write(self._reply(server.registry))
        except OSError:  # the timeout, or a peer that went away
            pass
        except Exception:
            try:
                self.wfile.write(
                    _error(500, "the registry could not be rendered"))
            except OSError:
                pass
            raise  # the server prints it, as for any failed request
        finally:
            with server.lock:
                if server.serving is not None:
                    del server.serving[self.connection]

    def _reply(self, registry: MetricsRegistry) -> bytes:
        line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
        if not line:
            return b""  # connected and closed: a port probe
        if len(line) > MAX_REQUEST_BYTES:
            return _error(414, "request line too long")
        # Read the headers through (unread input makes close() send a
        # reset the client may see before the reply), without parsing.
        budget = MAX_REQUEST_BYTES
        while True:
            header = self.rfile.readline(budget + 1)
            if header in (b"\r\n", b"\n", b""):
                break
            budget -= len(header)
            if budget < 0:
                return _error(431, "request headers too large")
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
            return _error(400, "malformed request line")
        if parts[0] != b"GET":
            return _error(405, "only GET is served", "Allow: GET")
        path = parts[1].split(b"?", 1)[0]
        if path in (b"/metrics", b"/"):
            body, content_type = registry.render_prometheus(), _PROMETHEUS
        elif path in (b"/metrics.json", b"/json"):
            body = json.dumps(registry.snapshot(), sort_keys=True) + "\n"
            content_type = "application/json"
        else:
            return _error(404, "unknown path (try /metrics or /metrics.json)")
        return _response(200, body.encode(), content_type)


class _Server(socketserver.ThreadingTCPServer):
    """A ``ThreadingTCPServer`` whose ``server_close`` also ends the
    requests still being served, so ``stop()`` leaves no thread behind
    even when a client stalled mid-request."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 registry: MetricsRegistry) -> None:
        self.registry = registry
        self.lock = threading.Lock()
        #: connection -> the thread serving it; None once closed.
        self.serving: dict[socket.socket, threading.Thread] | None = {}
        super().__init__(address, _Handler)

    def server_close(self) -> None:
        super().server_close()
        with self.lock:
            serving, self.serving = self.serving or {}, None
        for connection in serving:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in serving.values():
            thread.join()


class MetricsExporter:
    """Serve a registry over HTTP from a daemon thread.

    >>> from repro.obs import MetricsRegistry, MetricsExporter
    >>> registry = MetricsRegistry()
    >>> _ = registry.counter("demo_total").inc()
    >>> exporter = MetricsExporter(registry)   # port=0: pick a free port
    >>> exporter.start().port > 0
    True
    >>> exporter.stop()
    """

    def __init__(self, registry: MetricsRegistry, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._bound_port: int | None = None
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "MetricsExporter":
        """Bind and start serving (idempotent).  Raises ``RuntimeError``
        with the offending address when the port is already bound, so a
        misconfigured deployment fails with an actionable message rather
        than a bare ``OSError``."""
        if self._server is not None:
            return self
        try:
            server = _Server((self.host, self._requested_port), self.registry)
        except OSError as exc:
            raise RuntimeError(
                f"metrics exporter could not bind "
                f"{self.host}:{self._requested_port}: {exc.strerror or exc} "
                f"— is another exporter (or service) already listening "
                f"there?  Pass port=0 to pick a free ephemeral port."
            ) from exc
        # Cache the resolved port: with port=0 the kernel assigns it at
        # bind time, and callers need it after stop() too (to report
        # where the exporter *was*), so it must not die with _server.
        self._bound_port = server.server_address[1]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="rushmon-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end the connections still open, and join every
        thread of the exporter (idempotent)."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one the kernel picked when
        constructed with ``port=0``).  Stays readable after ``stop()``;
        raises only if the exporter never started."""
        if self._bound_port is None:
            raise RuntimeError("exporter is not running")
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()
