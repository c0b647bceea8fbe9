"""Executor-protocol tests: backends, pool keys, and failure recovery.

Covers the local side of the executor abstraction — the
:class:`InlineBackend`, the pool-key / registry plumbing,
:func:`executor_stats` — plus the regression tests for backend-owned
failure handling: a killed pool worker mid-batch (or mid-compare) is
absorbed by exactly one automatic resubmission against the rebuilt
pool, with bit-identical results — and the :class:`FanOut` retry policy
itself, pinned against fake backends.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, Future

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core import pool as pool_registry
from repro.core.dse import DesignSpaceExplorer
from repro.core.evaluator import MappingEvaluator
from repro.core.executor import (
    SUBMIT_ATTEMPTS,
    FanOut,
    InlineBackend,
    LocalProcessBackend,
    WorkerLostError,
)
from repro.core.mapping import random_assignment_batch
from repro.core.pool import (
    executor_stats,
    flight_key,
    get_pool,
    pool_key,
    release_pools,
    shutdown_pools,
)
from repro.core.problem import MappingProblem


@pytest.fixture(scope="module")
def problem():
    cg = load_benchmark("mwd")
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    return MappingProblem(cg, network, "snr")


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    shutdown_pools()


def _rows(problem, n, seed):
    rng = np.random.default_rng(seed)
    return random_assignment_batch(n, problem.cg.n_tasks, problem.n_tiles, rng)


class _FakeBackend:
    """Registry stand-in recording the retries charged to it."""

    def __init__(self) -> None:
        self.broken = False
        self.retries = []

    def note_retry(self, n_tasks: int = 1) -> None:
        self.retries.append(n_tasks)


class _Acquire:
    """``acquire`` callable handing out a fresh fake backend per call."""

    def __init__(self) -> None:
        self.backends = []

    def __call__(self) -> _FakeBackend:
        self.backends.append(_FakeBackend())
        return self.backends[-1]


def _done(value) -> Future:
    future = Future()
    future.set_result(value)
    return future


def _failed(error) -> Future:
    future = Future()
    future.set_exception(error)
    return future


def _kill_one_pool_worker(pool) -> None:
    """SIGKILL one live process of a local pool (spawning it first)."""
    executor = pool.executor
    executor.submit(os.getpid).result()  # force at least one worker up
    pid = next(iter(executor._processes))
    os.kill(pid, signal.SIGKILL)
    time.sleep(0.1)  # let the executor's management thread notice


class TestPoolKey:
    def test_executor_spec_is_the_last_component(self, problem):
        key = pool_key(problem, 2)
        assert key[-1] == "local"
        inline = pool_key(problem, 2, executor="inline")
        assert inline[:-1] == key[:-1]
        assert inline[-1] == "inline"

    def test_objective_free_prefix_is_stable(self, problem):
        # The service coalescer groups on flight_key, the prefix every
        # pool key extends with n_workers and the executor spec.
        key = pool_key(problem, 1)
        assert key[:3] == flight_key(problem)
        assert key[2] == ""  # no variation spec on this problem
        assert len(key) == 5

    def test_variation_fingerprint_in_the_key(self, problem):
        from repro.photonics import VariationSpec

        varied = MappingProblem(
            problem.cg,
            problem.network,
            "robust_snr",
            variation=VariationSpec(n_samples=4, seed=3),
        )
        key = pool_key(varied, 1)
        assert key[2] == varied.variation_fingerprint
        assert key[2].startswith("n=4,")
        # The fingerprint is objective-free context: same spec, same slot.
        assert key[:2] == pool_key(problem, 1)[:2]

    def test_tcp_spec_is_normalized_into_the_key(self, problem):
        key = pool_key(problem, 2, executor="tcp://h:9")
        assert key[-1] == "tcp://h:9"


class TestInlineBackend:
    def test_get_pool_dispatches_to_inline(self, problem):
        pool = get_pool(problem, 2, executor="inline")
        assert isinstance(pool, InlineBackend)
        assert pool.kind == "inline"
        # Same spec: same instance. Different spec: different backend.
        assert get_pool(problem, 2, executor="inline") is pool
        local = get_pool(problem, 2)
        assert isinstance(local, LocalProcessBackend)
        assert local is not pool

    def test_inline_futures_complete_synchronously(self, problem):
        from repro.core.parallel import evaluate_shard_task

        pool = get_pool(problem, 2, executor="inline")
        rows = _rows(problem, 8, seed=1)
        future = pool.submit(evaluate_shard_task, rows)
        assert future.done()
        tables = future.result()
        reference = MappingEvaluator(problem)._evaluate_rows(rows)
        for expected, got in zip(reference, tables):
            np.testing.assert_array_equal(expected, got)
        assert pool.tasks_dispatched == 1

    def test_inline_task_error_does_not_break_the_backend(self, problem):
        from repro.core.parallel import evaluate_shard_task

        pool = get_pool(problem, 2, executor="inline")
        future = pool.submit(evaluate_shard_task, "not an array")
        assert future.exception() is not None
        assert not pool.broken  # task-level failure, not executor-level

    def test_closed_inline_backend_is_replaced(self, problem):
        pool = get_pool(problem, 2, executor="inline")
        pool.close()
        assert not pool.alive()
        with pytest.raises(RuntimeError):
            pool.submit(os.getpid)
        assert pool.broken  # submit-time failure marks it
        rebuilt = get_pool(problem, 2, executor="inline")
        assert rebuilt is not pool

    def test_evaluator_inline_matches_sequential(self, problem):
        rows = _rows(problem, 256, seed=5)
        sequential = MappingEvaluator(problem).evaluate_batch(rows)
        inline = MappingEvaluator(
            problem, n_workers=4, executor="inline"
        ).submit_batch(rows, min_shard_rows=32).result()
        np.testing.assert_array_equal(sequential.score, inline.score)
        np.testing.assert_array_equal(
            sequential.worst_snr_db, inline.worst_snr_db
        )


class TestExecutorStats:
    def test_stats_snapshot_live_backends(self, problem):
        get_pool(problem, 2, executor="inline")
        stats = executor_stats()
        kinds = [entry["kind"] for entry in stats["backends"]]
        assert "inline" in kinds
        assert set(stats["totals"]) == {
            "tasks_dispatched", "tasks_retried", "workers",
            "tasks_degraded", "degraded",
        }

    def test_tcp_backends_sharing_a_hub_count_it_once(self, problem):
        # Two TCP pools on one hub and one in-thread worker: each
        # backend reports its own tasks, and the shared fleet counts once.
        from repro.core.parallel import evaluate_shard_task
        from repro.distributed.scheduler import get_hub
        from repro.distributed.worker import run_worker

        shutdown_pools()
        hub = get_hub("tcp://127.0.0.1:0")
        spec = f"tcp://127.0.0.1:{hub.port}"
        worker = threading.Thread(
            target=run_worker, args=(f"127.0.0.1:{hub.port}",), daemon=True
        )
        worker.start()
        pip_cg = load_benchmark("pip")
        pip = MappingProblem(
            pip_cg,
            build_case_study_network("mesh", grid_side_for(pip_cg), "crux"),
            "snr",
        )
        try:
            pools = []
            for served in (pip, problem):
                pool = get_pool(served, 2, executor=spec)
                futures = [
                    pool.submit(evaluate_shard_task, _rows(served, 4, seed))
                    for seed in range(3)
                ]
                for future in futures:
                    future.result(timeout=60)
                pools.append(pool)
            assert [pool.info()["tasks_dispatched"] for pool in pools] == [3, 3]
            totals = executor_stats()["totals"]
            assert totals["tasks_dispatched"] == 6
            assert totals["workers"] == 1
            hub_stats = pools[0].info()["hub"]
            assert hub_stats["tasks_dispatched"] == 6
            assert hub_stats["workers_connected"] == 1
        finally:
            shutdown_pools()
            hub.close()
            worker.join(timeout=30)
        assert not worker.is_alive()

    def test_stats_skips_registry_stand_ins(self, problem):
        class Fake:
            broken = False

            def close(self, wait=True):
                pass

        key = ("fake", "fake")
        pool_registry._register_pool(key, Fake())
        try:
            executor_stats()  # must not raise on info-less stand-ins
        finally:
            pool_registry._POOLS.pop(key, None)


class TestFanOut:
    """The one caller-side retry policy, against scripted fake backends."""

    def test_submit_failures_retry_through_fresh_backends(self):
        acquire = _Acquire()

        def submit(backend):
            if len(acquire.backends) < SUBMIT_ATTEMPTS:
                raise RuntimeError("pool has been shut down")
            return [_done("a"), _done("b")]

        fanout = FanOut(acquire, submit, 2)
        assert len(acquire.backends) == SUBMIT_ATTEMPTS
        assert fanout.backend is acquire.backends[-1]
        assert fanout.done()
        assert fanout.results() == ["a", "b"]
        # Nothing had run yet: a submit retry is not a resubmission.
        assert all(backend.retries == [] for backend in acquire.backends)

    def test_last_submit_error_surfaces(self):
        acquire = _Acquire()
        errors = [RuntimeError(f"attempt {i}") for i in range(SUBMIT_ATTEMPTS)]

        def submit(backend):
            raise errors[len(acquire.backends) - 1]

        with pytest.raises(RuntimeError) as excinfo:
            FanOut(acquire, submit, 1)
        assert excinfo.value is errors[-1]
        assert len(acquire.backends) == SUBMIT_ATTEMPTS

    @pytest.mark.parametrize("failure", ["broken_executor", "marked_broken"])
    def test_executor_failure_resubmits_once(self, failure):
        acquire = _Acquire()

        def submit(backend):
            if len(acquire.backends) > 1:
                return [_done(1), _done(2), _done(3)]
            if failure == "marked_broken":
                backend.broken = True
                error = ConnectionError("worker gone")
            else:
                error = BrokenExecutor("worker died")
            return [_done(1), _failed(error), _done(3)]

        fanout = FanOut(acquire, submit, 3)
        assert fanout.results() == [1, 2, 3]
        first, second = acquire.backends
        assert first.retries == []
        assert second.retries == [3]
        assert fanout.backend is second

    def test_second_executor_failure_surfaces(self):
        acquire = _Acquire()
        fanout = FanOut(
            acquire,
            lambda backend: [_failed(BrokenExecutor("worker died"))] * 2,
            2,
        )
        with pytest.raises(BrokenExecutor):
            fanout.results()
        assert [backend.retries for backend in acquire.backends] == [[], [2]]
        # Collecting again re-raises: one resubmission per fan-out, ever.
        with pytest.raises(BrokenExecutor):
            fanout.results()
        assert len(acquire.backends) == 2


class TestEmptyFleet:
    """A TCP executor without workers waits out the fleet once per call.

    The backend raises :class:`WorkerLostError` only after waiting
    ``PHONOCMAP_WORKER_WAIT_TIMEOUT_S`` for a worker; a fresh backend on
    the same hub would wait again, so a submit that lost its fleet is
    not retried.
    """

    @pytest.mark.parametrize("call", ["evaluate_batch", "compare"])
    def test_fleet_is_awaited_once(self, problem, monkeypatch, call):
        from repro.distributed.scheduler import WorkerHub, get_hub

        monkeypatch.setenv("PHONOCMAP_WORKER_WAIT_TIMEOUT_S", "0.2")
        waits = []
        ensure_worker = WorkerHub.ensure_worker

        def counted(hub, *args, **kwargs):
            waits.append(hub)
            return ensure_worker(hub, *args, **kwargs)

        monkeypatch.setattr(WorkerHub, "ensure_worker", counted)
        hub = get_hub("tcp://127.0.0.1:0")
        spec = f"tcp://127.0.0.1:{hub.port}"
        try:
            with pytest.raises(WorkerLostError):
                if call == "evaluate_batch":
                    MappingEvaluator(problem, executor=spec).evaluate_batch(
                        _rows(problem, 8, seed=1), n_workers=2, min_shard_rows=1
                    )
                else:
                    DesignSpaceExplorer(problem, executor=spec).compare(
                        ["rs", "ga"], budget=200, seed=1, n_workers=2
                    )
        finally:
            shutdown_pools()
            hub.close()
        assert waits == [hub]


class TestBrokenPoolRecovery:
    """Satellite: one automatic resubmit against the rebuilt pool."""

    def test_batch_survives_worker_killed_mid_batch(self, problem):
        rows = _rows(problem, 512, seed=9)
        reference = MappingEvaluator(problem).evaluate_batch(rows)
        evaluator = MappingEvaluator(problem, n_workers=2)
        # Warm the pool, then kill one of its workers: the in-flight
        # futures fail with BrokenProcessPool and the pending batch must
        # transparently resubmit against the rebuilt pool.
        pool = get_pool(problem, 2)
        _kill_one_pool_worker(pool)
        metrics = evaluator.submit_batch(rows, min_shard_rows=32).result()
        np.testing.assert_array_equal(reference.score, metrics.score)
        np.testing.assert_array_equal(
            reference.worst_snr_db, metrics.worst_snr_db
        )
        assert pool.broken
        rebuilt = get_pool(problem, 2)
        assert rebuilt is not pool
        assert not rebuilt.broken

    def test_task_error_is_not_retried(self):
        # A deterministic task-level failure would fail identically on a
        # fresh backend, so it surfaces at once: no second acquire, no
        # retry charged.
        acquire = _Acquire()
        fanout = FanOut(
            acquire, lambda backend: [_failed(ValueError("deterministic"))], 1
        )
        with pytest.raises(ValueError, match="deterministic"):
            fanout.results()
        assert len(acquire.backends) == 1
        assert acquire.backends[0].retries == []

    def test_dse_compare_survives_worker_kill(self, problem):
        explorer = DesignSpaceExplorer(problem, n_workers=2)
        reference = DesignSpaceExplorer(
            problem, n_workers=2, executor="inline"
        ).compare(["rs", "ga"], budget=400, seed=13)
        pool = get_pool(problem, 2)
        _kill_one_pool_worker(pool)
        results = explorer.compare(["rs", "ga"], budget=400, seed=13)
        for name in reference:
            assert results[name].best_score == reference[name].best_score
            assert results[name].history == reference[name].history
            assert results[name].evaluations == reference[name].evaluations
        assert pool.broken

    def test_dse_chain_run_survives_worker_kill(self, problem):
        explorer = DesignSpaceExplorer(problem, n_workers=2)
        reference = DesignSpaceExplorer(problem, n_workers=2).run(
            "sa", budget=600, seed=21
        )
        pool = get_pool(problem, 2)
        _kill_one_pool_worker(pool)
        result = explorer.run("sa", budget=600, seed=21)
        assert result.best_score == reference.best_score
        assert result.evaluations == reference.evaluations
        assert result.history == reference.history
