"""Every connection the hub's handshake refuses is counted.

Each test drives one way a handshake can end without admitting a
worker over a raw socket, and checks that the hub counts it under its
own :data:`~repro.distributed.scheduler.HANDSHAKE_DROPS` path, that the
``stats`` snapshot shows it, and that no other fate was counted. The
last test holds the chaos settle wait to failing at once on a drop.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.distributed import chaos, scheduler, wire
from repro.distributed.scheduler import HANDSHAKE_DROPS, WorkerHub

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def hub():
    hub = WorkerHub("127.0.0.1", 0, heartbeat_interval_s=60.0)
    yield hub
    hub.close()


def _wait_dropped(hub, path: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while hub.workers_dropped[path] == 0:
        assert time.monotonic() < deadline, f"no {path!r} drop counted"
        time.sleep(0.01)


def _assert_only_dropped(hub, path: str) -> None:
    stats = hub.stats()
    assert stats["workers_dropped"] == {
        name: int(name == path) for name in HANDSHAKE_DROPS
    }
    assert stats["workers_connected"] == 0
    assert stats["workers_lost"] == 0
    assert stats["workers_rejected_auth"] == 0


def _sends(hub, payload: bytes, path: str) -> None:
    with socket.create_connection(("127.0.0.1", hub.port)) as sock:
        sock.sendall(payload)
        _wait_dropped(hub, path)
    _assert_only_dropped(hub, path)


def test_silent_peer_is_dropped_on_hello_timeout(hub, monkeypatch):
    monkeypatch.setattr(scheduler, "HELLO_TIMEOUT_S", 0.2)
    with socket.create_connection(("127.0.0.1", hub.port)):
        _wait_dropped(hub, "timeout")
    _assert_only_dropped(hub, "timeout")


def test_oversized_hello_is_dropped_as_protocol_error(hub):
    _sends(hub, b"x" * (scheduler.HELLO_MAX_BYTES + 2) + b"\n", "protocol")


def test_hang_up_before_hello_is_dropped_as_eof(hub):
    with socket.create_connection(("127.0.0.1", hub.port)) as sock:
        sock.shutdown(socket.SHUT_WR)
        _wait_dropped(hub, "eof")
    _assert_only_dropped(hub, "eof")


@pytest.mark.parametrize(
    "frame", [b'{"op": "ping"}\n', b"not json\n", b"[1, 2]\n"],
    ids=["ping", "not-json", "not-an-object"],
)
def test_first_frame_that_is_not_hello_is_dropped(hub, frame):
    _sends(hub, frame, "not_hello")


def test_a_hello_is_admitted_and_not_dropped(hub):
    with socket.create_connection(("127.0.0.1", hub.port)) as sock:
        wire.write_message(sock.makefile("wb"), {"op": "hello", "pid": 0})
        deadline = time.monotonic() + 10
        while hub.workers_connected == 0:
            assert time.monotonic() < deadline, "hello never admitted"
            time.sleep(0.01)
        assert hub.stats()["workers_dropped"] == dict.fromkeys(HANDSHAKE_DROPS, 0)


def test_a_closed_hub_refuses_connections(hub):
    """Closing stops the listener for good: no connection reaches a hub
    that would serve and count nothing (the fixture closes it again)."""
    hub.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", hub.port), timeout=5.0)
    stats = hub.stats()
    assert stats["workers_connected"] == 0
    assert stats["workers_dropped"] == dict.fromkeys(HANDSHAKE_DROPS, 0)


class _Unspawned:
    """Stands in for a spawned worker process in the settle wait's error."""

    pid = 0
    stderr_path = "/nonexistent/worker.stderr"

    def poll(self):
        return None


def test_settle_wait_fails_at_once_naming_the_drop(hub):
    with socket.create_connection(("127.0.0.1", hub.port)) as sock:
        sock.sendall(b'{"op": "ping"}\n')
        _wait_dropped(hub, "not_hello")
    started = time.monotonic()
    with pytest.raises(ConnectionError) as raised:
        chaos._wait_for_workers(hub, [_Unspawned()], timeout=60.0)
    assert time.monotonic() - started < 5.0
    message = str(raised.value)
    assert "{'not_hello': 1}" in message
    assert "0/1 workers connected" in message
