"""Unix-socket and localhost-HTTP transports for the mapping service.

Both transports are thin shells over :class:`~repro.service.core.ServiceCore`:

* **Unix socket** (``--socket PATH``): newline-delimited JSON — one
  request object per line, one response object per line, any number of
  requests per connection. The natural transport for same-host clients
  and the load bench.
* **HTTP** (``--port N``): ``POST`` a JSON body to any path on
  ``127.0.0.1:N``; the response body is the same JSON object the socket
  transport writes, and the HTTP status mirrors the structured error
  status (200 / 400 / 429 / 500 / 503).

Connections are handled on daemon threads (the core's admission control
bounds actual concurrency); :meth:`ServiceServer.stop` performs the
graceful-shutdown path shared with the CLI's signal handling — stop
accepting, drain in-flight requests, flush the coalescers, shut the
persistent pools down, unlink the socket.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.distributed import wire
from repro.errors import ServiceError
from repro.service.core import ServiceCore

__all__ = ["ServiceServer"]


class _UnixJSONHandler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, answer JSON lines.

    Framing is the shared :mod:`repro.distributed.wire` protocol — the
    same newline-JSON link the distributed scheduler/worker pair speaks.
    """

    def handle(self) -> None:  # noqa: D102 — socketserver plumbing
        while True:
            frame = wire.read_frame(self.rfile)
            if frame is None:
                return
            body, _status = self.server.core.handle_json(frame)
            try:
                wire.write_message(self.wfile, body)
            except (BrokenPipeError, ConnectionError, OSError):
                return  # client hung up mid-response; request already served


class _UnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, path: str, core: ServiceCore):
        self.core = core
        self._connections = set()
        self._connections_lock = threading.Lock()
        super().__init__(path, _UnixJSONHandler)

    def get_request(self):
        request, client_address = super().get_request()
        with self._connections_lock:
            self._connections.add(request)
        return request, client_address

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Drop every persistent client connection (used by stop()).

        Without this, clients idling on a keep-alive connection would
        hang on a daemon that has already drained and stopped serving —
        closing the sockets hands them the EOF their reconnect logic
        keys on.
        """
        with self._connections_lock:
            victims = list(self._connections)
            self._connections.clear()
        for sock in victims:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class _HTTPHandler(BaseHTTPRequestHandler):
    """POST-only JSON endpoint mirroring the socket framing."""

    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: D102 — http.server plumbing
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        body, status = self.server.core.handle_json(
            self.rfile.read(length) if length else b""
        )
        payload = json.dumps(body, separators=(",", ":")).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionError, OSError):
            pass  # client hung up; nothing to salvage

    def do_GET(self) -> None:  # noqa: D102 — convenience: GET == stats
        body, status = self.server.core.handle({"kind": "stats"})
        payload = json.dumps(body, separators=(",", ":")).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):  # noqa: A002,D102 — quiet by default
        pass


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, port: int, core: ServiceCore):
        self.core = core
        super().__init__(("127.0.0.1", port), _HTTPHandler)


class ServiceServer:
    """One running daemon: a core plus exactly one bound transport.

    Parameters
    ----------
    core : ServiceCore
        The dispatcher holding the resident state.
    socket_path : str, optional
        Unix-socket path to bind (a stale file at the path is
        unlinked first — the daemon owns its socket path).
    port : int, optional
        Localhost TCP port for the HTTP transport. Exactly one of
        ``socket_path`` / ``port`` must be given. ``port=0`` binds an
        ephemeral port, exposed as :attr:`port` afterwards.
    """

    def __init__(
        self,
        core: ServiceCore,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ServiceError(
                "exactly one of socket_path / port must be given"
            )
        self.core = core
        self.socket_path = socket_path
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        if socket_path is not None:
            if os.path.exists(socket_path):
                os.unlink(socket_path)  # stale socket from a dead daemon
            self._server = _UnixServer(socket_path, core)
            self.port = None
        else:
            self._server = _HTTPServer(int(port), core)
            self.port = self._server.server_address[1]

    @property
    def address(self) -> str:
        """Human-readable bound address (socket path or host:port)."""
        if self.socket_path is not None:
            return self.socket_path
        return f"127.0.0.1:{self.port}"

    def start(self) -> None:
        """Serve on a background thread (tests, benches, embedding)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="phonocmap-serve",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI path)."""
        self._server.serve_forever()

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful shutdown (idempotent): drain, release, unlink.

        The exact sequence the daemon's signal handling rides: stop
        accepting connections, drain in-flight requests and flush the
        coalescers (:meth:`ServiceCore.close`), shut the persistent
        worker pools down so their processes exit before the daemon,
        then unlink the unix socket.
        """
        if self._stopped:
            return
        self._stopped = True
        self._server.shutdown()  # stops serve_forever (any thread's)
        self._server.server_close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=timeout)
        self.core.close(timeout=timeout)
        # In-flight requests have drained; drop lingering keep-alive
        # connections so their clients fail over instead of hanging.
        close_connections = getattr(self._server, "close_connections", None)
        if close_connections is not None:
            close_connections()
        from repro.core.pool import shutdown_pools

        shutdown_pools()
        if self.socket_path is not None and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def __enter__(self) -> "ServiceServer":
        """Start serving on entry to a ``with`` block."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Gracefully stop on ``with``-block exit."""
        self.stop()


def _connect_unix(path: str, timeout: float) -> socket.socket:
    """Dial a unix socket (shared with the client module)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(path)
    return sock
