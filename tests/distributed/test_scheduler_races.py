"""Edge-race tests for the WorkerHub's failure handling.

Each test drives the hub with a *fake* worker — a raw socket speaking
just enough of the wire protocol to reach the interesting instant, then
misbehaving deterministically — plus real in-thread workers
(:func:`repro.distributed.worker.run_worker`) where recovery needs a
worker that actually computes. The contracts under test:

* a worker disconnecting **during init** fails the in-hand task with a
  typed :class:`WorkerLostError` when nobody is left (and the hub
  survives to serve a later worker);
* workers joining **while a retry is in flight** pick the retried task
  up: the deadline reaps the silent worker, survivors get the requeue,
  and the result is bit-identical to inline execution;
* a pong later than one heartbeat timeout but inside the miss budget
  keeps its worker, and silence past the whole budget retires it.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core import parallel as _parallel
from repro.core.executor import InlineBackend, WorkerLostError
from repro.core.mapping import random_assignment_batch
from repro.core.problem import MappingProblem
from repro.distributed import wire
from repro.distributed.scheduler import RemoteTcpBackend, get_hub
from repro.distributed.worker import run_worker
from repro.models.coupling import CouplingModel
from tests.conftest import model_cache_at

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.filterwarnings("ignore::ResourceWarning"),
]


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    """One small problem with a pre-seeded model cache, shared per module:
    the cache is the process's while the module runs, so the in-thread
    workers load the model from it."""
    cache_dir = str(tmp_path_factory.mktemp("races-model-cache"))
    cg = load_benchmark("mwd")
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")
    CouplingModel.for_network(network).save_cached(cache_dir)
    with model_cache_at(cache_dir):
        yield {"problem": problem}


class FakeWorker:
    """A raw-socket peer that plays worker up to a scripted betrayal."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        wire.write_message(
            self.wfile, {"op": "hello", "pid": 0, "host": "fake"}
        )

    def read(self, timeout: float = 30.0) -> dict:
        self.sock.settimeout(timeout)
        message = wire.read_message(self.rfile)
        assert message is not None, "hub hung up on the fake worker"
        return message

    def close(self) -> None:
        # makefile() handles hold duplicate fds: every one must go, or
        # the hub never sees EOF and the "disconnect" does not happen.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for handle in (self.rfile, self.wfile, self.sock):
            try:
                handle.close()
            except OSError:
                pass


def _wait_connected(hub, count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while hub.workers_connected < count:
        assert time.monotonic() < deadline, "workers never connected"
        time.sleep(0.01)


def _start_thread_worker(port: int) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker,
        args=(f"127.0.0.1:{port}",),
        daemon=True,
    )
    thread.start()
    return thread


def _rows(problem, n=8, seed=5):
    return random_assignment_batch(
        n, problem.cg.n_tasks, problem.n_tiles, np.random.default_rng(seed)
    )


def _inline_reference(problem, rows):
    backend = InlineBackend(("races-ref",), problem, 2)
    try:
        return backend.submit(_parallel.evaluate_shard_task, rows).result()
    finally:
        backend.close()


def _make_backend(rig, spec, key):
    return RemoteTcpBackend((key,), rig["problem"], 2, executor=spec)


def test_disconnect_during_init_fails_typed_then_hub_recovers(rig):
    hub = get_hub("tcp://127.0.0.1:0", heartbeat_interval_s=60.0)
    spec = f"tcp://127.0.0.1:{hub.port}"
    rows = _rows(rig["problem"])
    threads = []
    try:
        fake = FakeWorker(hub.port)
        _wait_connected(hub, 1)
        backend = _make_backend(rig, spec, "races-init")
        future = backend.submit(_parallel.evaluate_shard_task, rows)
        init = fake.read()
        assert init["op"] == "init"
        fake.close()  # hang up with the init unanswered

        with pytest.raises(WorkerLostError):
            future.result(timeout=30)
        assert hub.workers_lost == 1
        assert backend.broken  # the done-callback saw BrokenExecutor

        # The hub itself must survive the race: a real worker joining
        # afterwards serves a fresh backend bit-identically.
        threads.append(_start_thread_worker(hub.port))
        _wait_connected(hub, 1)
        recovered = _make_backend(rig, spec, "races-init-2")
        result = recovered.submit(
            _parallel.evaluate_shard_task, rows
        ).result(timeout=60)
        reference = _inline_reference(rig["problem"], rows)
        for got, want in zip(result, reference):
            np.testing.assert_array_equal(got, want)
        backend.close()
        recovered.close()
    finally:
        hub.close()
        for thread in threads:
            thread.join(timeout=10)


def test_workers_joining_while_retry_in_flight_complete_the_task(rig):
    hub = get_hub(
        "tcp://127.0.0.1:0", heartbeat_interval_s=60.0, task_deadline_s=2.0
    )
    spec = f"tcp://127.0.0.1:{hub.port}"
    rows = _rows(rig["problem"], seed=7)
    threads = []
    try:
        fake = FakeWorker(hub.port)
        _wait_connected(hub, 1)
        backend = _make_backend(rig, spec, "races-retry")
        future = backend.submit(_parallel.evaluate_shard_task, rows)
        init = fake.read()
        assert init["op"] == "init"
        # Two real workers join while the fake sits on the task in
        # silence; the init deadline reaps it and the survivors get the
        # requeue.
        threads.append(_start_thread_worker(hub.port))
        threads.append(_start_thread_worker(hub.port))
        _wait_connected(hub, 3)

        result = future.result(timeout=60)
        reference = _inline_reference(rig["problem"], rows)
        for got, want in zip(result, reference):
            np.testing.assert_array_equal(got, want)
        assert hub.tasks_timed_out >= 1
        assert hub.tasks_retried >= 1
        assert hub.workers_lost >= 1
        assert not backend.broken  # the retry rescued it: nothing broke
        fake.close()
        backend.close()
    finally:
        hub.close()
        for thread in threads:
            thread.join(timeout=10)


def test_late_pong_inside_the_miss_budget_keeps_the_worker():
    hub = get_hub(
        "tcp://127.0.0.1:0",
        heartbeat_interval_s=0.2,
        heartbeat_timeout_s=0.5,
        heartbeat_misses=4,
    )
    fake = FakeWorker(hub.port)
    try:
        _wait_connected(hub, 1)
        assert fake.read()["op"] == "ping"
        # Answer one whole timeout late, well inside 4 x 0.5 s: a slow
        # worker, not a lost one.
        time.sleep(0.75)
        wire.write_message(fake.wfile, {"op": "pong"})
        assert fake.read()["op"] == "ping"  # still in the fleet
        assert hub.workers_lost == 0
        missed = hub.stats()["heartbeats_missed"]
        assert 1 <= missed < 4

        # Silence past the whole budget retires it, with every window
        # of the budget counted as missed.
        pinged = time.monotonic()
        deadline = pinged + 30
        while hub.workers_lost == 0:
            assert time.monotonic() < deadline, "silent worker never retired"
            time.sleep(0.01)
        assert time.monotonic() - pinged > 0.5  # more than one timeout
        assert hub.stats()["heartbeats_missed"] == missed + 4
    finally:
        fake.close()
        hub.close()
