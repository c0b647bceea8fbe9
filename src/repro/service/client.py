"""A small synchronous client for the mapping service.

Speaks both transports — newline-delimited JSON over a unix socket, or
HTTP POST against the localhost port — and is what the tests, the load
bench and the README quickstart use. Requests are encoded with stdlib
``json`` (a caller's values, big integers included, reach the daemon as
written); responses are decoded with the :mod:`repro.distributed.wire`
codec that wrote them. One call, one response dict::

    from repro.service import ServiceClient

    with ServiceClient(socket_path="/tmp/phonocmap.sock") as client:
        response = client.request({
            "kind": "optimize", "app": "vopd",
            "strategy": "rs", "budget": 2000, "seed": 7,
        })
    assert response["ok"], response["error"]
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Optional

from repro.distributed import wire
from repro.errors import ServiceError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking JSON client for one daemon (unix socket or localhost HTTP).

    Parameters
    ----------
    socket_path : str, optional
        Unix-socket path of the daemon.
    port : int, optional
        Localhost HTTP port of the daemon. Exactly one of the two must
        be given.
    timeout : float, optional
        Per-request *read* timeout in seconds (default 300 — optimize
        requests legitimately run long).
    connect_timeout : float, optional
        Timeout for *dialing* the daemon (default 10). Separate from
        ``timeout`` on purpose: a dead daemon should fail a health
        check in seconds, not block for the read timeout the socket
        default would imply.
    retries : int, optional
        How many times a **reused** connection that failed mid-request
        may be transparently redialed (default 1, the historical
        retry-once). Applies only to idempotent requests
        (:meth:`_idempotent`); retries are spaced by capped exponential
        backoff (0.2 s doubling, capped at 2 s). A *freshly* dialed
        connection failing still raises immediately — the daemon is
        genuinely unreachable, and hammering it helps nobody.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 300.0,
        connect_timeout: float = 10.0,
        retries: int = 1,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ServiceError("exactly one of socket_path / port must be given")
        self.socket_path = socket_path
        self.port = port
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        self.retries = max(0, int(retries))
        self._sock: Optional[socket.socket] = None
        self._reader = None

    #: Backoff shape between idempotent retries.
    _BACKOFF_BASE_S = 0.2
    _BACKOFF_CAP_S = 2.0

    def _backoff(self, retry: int) -> float:
        """Delay before the ``retry``-th redial (1-based), capped."""
        return min(self._BACKOFF_CAP_S, self._BACKOFF_BASE_S * (2 ** (retry - 1)))

    def request(self, payload: dict) -> dict:
        """Send one request object; block for and return its response.

        Transport failures raise :class:`~repro.errors.ServiceError`;
        application-level failures come back as the daemon's structured
        ``{"ok": false, "error": {...}}`` body without raising, so
        callers can branch on ``response["ok"]``.
        """
        if self.socket_path is not None:
            return self._request_unix(payload)
        return self._request_http(payload)

    @staticmethod
    def _idempotent(payload: dict) -> bool:
        """Whether a request may be transparently retried once.

        A retried request must be unable to produce a *different*
        answer or a double side effect. ``stats`` is read-only;
        ``evaluate``/``distribution``/``optimize`` requests are pure
        functions of their body **only when deterministic** — explicit
        mappings, or an explicit seed (a ``seed: null`` request draws
        fresh OS entropy per execution, so it is not retried).
        """
        if not isinstance(payload, dict):
            return False
        if payload.get("kind") == "stats":
            return True
        if payload.get("mappings") is not None:
            return True
        return payload.get("seed") is not None

    def _request_unix(self, payload: dict) -> dict:
        """One request over the persistent unix connection.

        A connection that was reused from an earlier request may have
        been dropped server-side (daemon restart, idle reap) without
        this client noticing; when that happens mid-request the client
        reconnects and retries up to :attr:`retries` times with capped
        backoff, and only for idempotent requests (:meth:`_idempotent`)
        — a freshly dialed connection failing means the daemon is
        genuinely unreachable, so that raises immediately.
        """
        retried = 0
        while True:
            fresh = self._sock is None
            if fresh:
                from repro.service.server import _connect_unix

                try:
                    self._sock = _connect_unix(
                        self.socket_path, self.connect_timeout
                    )
                    self._sock.settimeout(self.timeout)
                except OSError as error:
                    raise ServiceError(
                        f"cannot reach daemon at {self.socket_path}: {error}",
                        status=503,
                        kind="unreachable",
                    ) from None
                self._reader = self._sock.makefile("rb")
            line = None
            try:
                self._sock.sendall(
                    json.dumps(payload, separators=(",", ":")).encode() + b"\n"
                )
                line = self._reader.readline()
            except OSError as error:
                self.close()
                if not fresh and retried < self.retries and self._idempotent(payload):
                    retried += 1
                    time.sleep(self._backoff(retried))
                    continue
                raise ServiceError(
                    f"daemon connection failed: {error}",
                    status=503,
                    kind="unreachable",
                ) from None
            if not line:
                self.close()
                if not fresh and retried < self.retries and self._idempotent(payload):
                    retried += 1
                    time.sleep(self._backoff(retried))
                    continue
                raise ServiceError(
                    "daemon closed the connection", status=503, kind="unreachable"
                )
            return wire.decode_message(line)

    def _request_http(self, payload: dict) -> dict:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=self.connect_timeout
        )
        try:
            connection.connect()  # dial under connect_timeout...
            if connection.sock is not None:
                connection.sock.settimeout(self.timeout)  # ...read under timeout
            connection.request(
                "POST",
                "/",
                body=json.dumps(payload, separators=(",", ":")),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return wire.decode_message(response.read())
        except OSError as error:
            raise ServiceError(
                f"cannot reach daemon at 127.0.0.1:{self.port}: {error}",
                status=503,
                kind="unreachable",
            ) from None
        finally:
            connection.close()

    def close(self) -> None:
        """Drop the persistent unix connection (if any); idempotent."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        """Enter a ``with`` block; the connection dials lazily."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the connection on ``with``-block exit."""
        self.close()
