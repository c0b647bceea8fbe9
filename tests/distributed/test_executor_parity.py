"""Cross-backend parity suite: inline == local pool == TCP workers.

The determinism contract of the executor abstraction: for a given
``(seed, n_workers)`` every backend — serial in-process, persistent
process pool, remote TCP workers — produces bit-identical best
mappings, scores, convergence histories and evaluation counts,
regardless of task placement, worker loss or retry. Also asserted
here: remote workers resolve coupling models themselves by cache key,
from their on-disk cache or by a build saved there, so the hub never
writes model arrays to the wire and its ``init`` frames stay small.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core.dse import DesignSpaceExplorer
from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import random_assignment_batch
from repro.core.pool import get_pool, shutdown_pools
from repro.core.problem import MappingProblem
from repro.distributed import wire
from repro.distributed.scheduler import get_hub
from repro.errors import ExecutorError
from repro.models.coupling import CouplingModel

pytestmark = [
    pytest.mark.slow,
    pytest.mark.filterwarnings("ignore::ResourceWarning"),
]

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _spawn_worker(port: int, cache_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--model-cache",
            cache_dir,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_workers(hub, count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while hub.workers_connected < count:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"only {hub.workers_connected}/{count} workers connected"
            )
        time.sleep(0.05)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A hub with two subprocess workers sharing a pre-seeded model cache.

    The cache is seeded *before* the workers start, so every worker
    resolves the model from disk instead of building it on its first
    task.
    """
    cache_dir = str(tmp_path_factory.mktemp("model-cache"))
    cg = load_benchmark("mwd")
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")
    # Seed the disk cache explicitly: for_network alone would return a
    # process-cached model (warm from earlier tests) without persisting.
    CouplingModel.for_network(network, cache_dir=cache_dir).save_cached(cache_dir)
    hub = get_hub("tcp://127.0.0.1:0")
    spec = f"tcp://127.0.0.1:{hub.port}"
    workers = [_spawn_worker(hub.port, cache_dir) for _ in range(2)]
    try:
        _wait_for_workers(hub, 2)
        yield {
            "hub": hub,
            "spec": spec,
            "problem": problem,
            "cache_dir": cache_dir,
        }
    finally:
        shutdown_pools()
        hub.close()
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=10)


BACKENDS = ("inline", "local", "tcp")


def _explorer(cluster, executor_name: str, n_workers: int) -> DesignSpaceExplorer:
    spec = cluster["spec"] if executor_name == "tcp" else executor_name
    return DesignSpaceExplorer(
        cluster["problem"],
        n_workers=n_workers,
        executor=spec,
        model_cache_dir=cluster["cache_dir"],
    )


class TestRunParity:
    def test_strategy_runs_bit_identical_across_backends(self, cluster):
        results = {}
        for name in BACKENDS:
            explorer = _explorer(cluster, name, n_workers=2)
            results[name] = explorer.run("rs", budget=1200, seed=17, n_workers=2)
        reference = results["inline"]
        for name in ("local", "tcp"):
            result = results[name]
            assert result.best_score == reference.best_score, name
            assert result.evaluations == reference.evaluations, name
            assert result.history == reference.history, name
            assert np.array_equal(
                result.best_mapping.assignment,
                reference.best_mapping.assignment,
            ), name

    def test_compare_bit_identical_across_backends(self, cluster):
        names = ["rs", "ga"]
        per_backend = {}
        for name in BACKENDS:
            explorer = _explorer(cluster, name, n_workers=2)
            per_backend[name] = explorer.compare(
                names, budget=900, seed=3, n_workers=2
            )
        for strategy in names:
            reference = per_backend["inline"][strategy]
            for backend_name in ("local", "tcp"):
                result = per_backend[backend_name][strategy]
                assert result.best_score == reference.best_score
                assert result.evaluations == reference.evaluations
                assert result.history == reference.history


class TestShardParity:
    def test_sharded_batches_bit_identical_across_backends(self, cluster):
        problem = cluster["problem"]
        rng = np.random.default_rng(29)
        rows = random_assignment_batch(
            384, problem.cg.n_tasks, problem.n_tiles, rng
        )
        tables = {}
        for name in BACKENDS:
            spec = cluster["spec"] if name == "tcp" else name
            evaluator = MappingEvaluator(
                problem,
                n_workers=4,
                executor=spec,
                model_cache_dir=cluster["cache_dir"],
            )
            pending = evaluator.submit_batch(rows, min_shard_rows=32)
            tables[name] = pending.tables()
        for name in ("local", "tcp"):
            for reference, column in zip(tables["inline"], tables[name]):
                np.testing.assert_array_equal(reference, column)


@pytest.fixture
def hub_frames(monkeypatch):
    """``(op, bytes, field names)`` of every frame written in this process.

    The workers are subprocesses, so in this process only the hubs
    write frames.
    """
    frames = []
    write = wire.write_message

    def recording(wfile, message):
        size = len(json.dumps(message, separators=(",", ":"))) + 1
        frames.append((message.get("op"), size, set(message)))
        write(wfile, message)

    monkeypatch.setattr(wire, "write_message", recording)
    return frames


class TestCacheKeyedHydration:
    def test_no_matrix_bytes_on_wire_on_cache_hit(self, cluster, hub_frames):
        """Workers load models from their disk cache; init frames stay small."""
        problem = cluster["problem"]
        # A shard width no other test here uses: the pool key, and so
        # the context, is new to both workers, and its init frames go
        # out during this test.
        evaluator = MappingEvaluator(
            problem,
            n_workers=5,
            executor=cluster["spec"],
            model_cache_dir=cluster["cache_dir"],
        )
        rows = random_assignment_batch(
            384, problem.cg.n_tasks, problem.n_tiles, np.random.default_rng(7)
        )
        evaluator.submit_batch(rows, min_shard_rows=32).tables()
        pool = get_pool(
            problem,
            5,
            model_cache_dir=cluster["cache_dir"],
            executor=cluster["spec"],
        )
        assert pool.tasks_dispatched >= 5  # shards really went remote
        ops = [op for op, _, _ in hub_frames]
        assert "model" not in ops
        assert set(ops) <= {"goodbye", "ping", "init", "task"}
        init_sizes = [size for op, size, _ in hub_frames if op == "init"]
        assert init_sizes
        # No kernel on the wire: a worker resolves it from the problem.
        for op, _, fields in hub_frames:
            if op == "init":
                assert fields == {"op", "ctx_id", "problem"}
        # The problem ships as its netlist, never its derived path cache
        # (the evaluator above has built every path of this network).
        assert max(init_sizes) < 64 * 1024

    def test_cold_worker_builds_model_once_then_caches(
        self, cluster, tmp_path, hub_frames
    ):
        """A worker with an empty cache builds the model and saves it."""
        hub = get_hub("tcp://127.0.0.1:0")
        spec = f"tcp://127.0.0.1:{hub.port}"
        cold_cache = str(tmp_path / "cold-cache")
        os.makedirs(cold_cache)
        worker = _spawn_worker(hub.port, cold_cache)
        problem = cluster["problem"]
        try:
            _wait_for_workers(hub, 1)
            rows = random_assignment_batch(
                256, problem.cg.n_tasks, problem.n_tiles,
                np.random.default_rng(11),
            )
            remote = MappingEvaluator(
                problem,
                n_workers=2,
                executor=spec,
                model_cache_dir=cluster["cache_dir"],
            ).submit_batch(rows, min_shard_rows=32).tables()
            assert "model" not in [op for op, _, _ in hub_frames]
            # The worker saved the model it built into its own cache.
            key = CouplingModel.disk_key(problem.network.signature)
            assert key in os.listdir(cold_cache)
            # And a worker-built model scores bit-identically.
            inline = MappingEvaluator(
                problem,
                n_workers=2,
                executor="inline",
                model_cache_dir=cluster["cache_dir"],
            ).submit_batch(rows, min_shard_rows=32).tables()
            for reference, column in zip(inline, remote):
                np.testing.assert_array_equal(reference, column)
        finally:
            hub.close()
            worker.terminate()
            worker.wait(timeout=10)


class TestWorkerLoss:
    def test_worker_kill_mid_run_preserves_results(self, cluster):
        """Killing one worker mid-run changes nothing but placement."""
        hub = cluster["hub"]
        expendable = _spawn_worker(hub.port, cluster["cache_dir"])
        try:
            _wait_for_workers(hub, 3)
            lost_before = hub.workers_lost
            reference = _explorer(cluster, "inline", n_workers=3).compare(
                ["rs", "sa", "ga"], budget=12000, seed=8, n_workers=3
            )
            explorer = _explorer(cluster, "tcp", n_workers=3)
            results = {}

            def run():
                results["tcp"] = explorer.compare(
                    ["rs", "sa", "ga"], budget=12000, seed=8, n_workers=3
                )

            dispatched_before = hub.tasks_dispatched
            thread = threading.Thread(target=run)
            thread.start()
            # Kill as soon as tasks hit the queue, while they are still
            # in flight (a sleep would race warm caches: the whole
            # compare can finish in well under a second).
            deadline = time.monotonic() + 30
            while hub.tasks_dispatched == dispatched_before:
                if time.monotonic() > deadline:
                    raise TimeoutError("compare never dispatched tasks")
                time.sleep(0.002)
            expendable.send_signal(signal.SIGKILL)
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert hub.workers_lost > lost_before
            for strategy, result in reference.items():
                remote = results["tcp"][strategy]
                assert remote.best_score == result.best_score
                assert remote.evaluations == result.evaluations
                assert remote.history == result.history
        finally:
            if expendable.poll() is None:
                expendable.kill()
            expendable.wait(timeout=10)
            _wait_for_workers(hub, 2)


class TestProtocolGuards:
    def test_unregistered_task_function_is_rejected(self, cluster):
        pool = get_pool(
            cluster["problem"],
            2,
            model_cache_dir=cluster["cache_dir"],
            executor=cluster["spec"],
        )
        with pytest.raises(ExecutorError):
            pool.submit(print, "not a task")
        # The failed submit marks the backend broken; the registry hands
        # back a fresh one on the next request.
        assert pool.broken
        rebuilt = get_pool(
            cluster["problem"],
            2,
            model_cache_dir=cluster["cache_dir"],
            executor=cluster["spec"],
        )
        assert rebuilt is not pool
        assert not rebuilt.broken
