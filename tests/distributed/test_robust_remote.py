"""robust_snr over TCP workers: placement and worker loss change nothing.

The remote leg of the robust-objective determinism grid
(``tests/core/test_robust_determinism.py``): variation sample models are
hydrated *inside* each worker from ``(network params, VariationSpec)`` —
pure functions of the problem — so shards scored remotely are
bit-identical to inline scoring, even when a worker is SIGKILLed with
the batch in flight and its shards are redispatched.
"""

from __future__ import annotations

import signal
import threading
import time

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import random_assignment_batch
from repro.core.pool import shutdown_pools
from repro.core.problem import MappingProblem
from repro.distributed.scheduler import get_hub
from repro.models.coupling import CouplingModel
from repro.photonics import VariationSpec

from tests.conftest import model_cache_at
from tests.distributed.test_executor_parity import (
    _spawn_worker,
    _wait_for_workers,
)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.filterwarnings("ignore::ResourceWarning"),
]

VARIATION = VariationSpec(n_samples=3, sigma=0.03, seed=23)


@pytest.fixture(scope="module")
def robust_cluster(tmp_path_factory):
    """Two TCP workers plus a robust_snr problem with a pre-seeded cache.

    The nominal *and* every variation-sample model are saved to the
    shared disk cache up front, so worker hydration is key-only for the
    whole model family.
    """
    cache_dir = str(tmp_path_factory.mktemp("robust-model-cache"))
    cg = load_benchmark("mwd")
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "robust_snr", variation=VARIATION)
    CouplingModel.for_network(network).save_cached(cache_dir)
    for params in VARIATION.samples(network.params):
        CouplingModel.for_network(network.with_params(params)).save_cached(
            cache_dir
        )
    hub = get_hub("tcp://127.0.0.1:0")
    workers = [_spawn_worker(hub.port, cache_dir) for _ in range(2)]
    try:
        _wait_for_workers(hub, 2)
        with model_cache_at(cache_dir):
            yield {
                "hub": hub,
                "spec": f"tcp://127.0.0.1:{hub.port}",
                "problem": problem,
                "cache_dir": cache_dir,
            }
    finally:
        shutdown_pools()
        hub.close()
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=10)


def _rows(problem, n, seed):
    return random_assignment_batch(
        n, problem.cg.n_tasks, problem.n_tiles, np.random.default_rng(seed)
    )


def test_remote_robust_shards_match_inline(robust_cluster):
    problem = robust_cluster["problem"]
    rows = _rows(problem, 256, seed=41)
    inline = MappingEvaluator(problem).evaluate_batch(rows).score
    remote = MappingEvaluator(
        problem,
        n_workers=4,
        executor=robust_cluster["spec"],
    ).evaluate_batch(rows, min_shard_rows=32).score
    np.testing.assert_array_equal(remote, inline)


def test_sigkilled_worker_mid_batch_changes_nothing(robust_cluster):
    """Kill a worker with robust shards in flight: same bits come back."""
    hub = robust_cluster["hub"]
    problem = robust_cluster["problem"]
    expendable = _spawn_worker(hub.port, robust_cluster["cache_dir"])
    rows = _rows(problem, 512, seed=43)
    inline = MappingEvaluator(problem).evaluate_batch(rows).score
    try:
        _wait_for_workers(hub, 3)
        lost_before = hub.workers_lost
        evaluator = MappingEvaluator(
            problem,
            n_workers=6,
            executor=robust_cluster["spec"],
        )
        dispatched_before = hub.tasks_dispatched
        scores = {}

        def collect():
            pending = evaluator.submit_batch(rows, min_shard_rows=16)
            scores["remote"] = pending.result().score

        thread = threading.Thread(target=collect)
        thread.start()
        deadline = time.monotonic() + 30
        while hub.tasks_dispatched == dispatched_before:
            if time.monotonic() > deadline:
                raise TimeoutError("batch never dispatched shards")
            time.sleep(0.002)
        expendable.send_signal(signal.SIGKILL)
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert hub.workers_lost > lost_before
        np.testing.assert_array_equal(scores["remote"], inline)
    finally:
        if expendable.poll() is None:
            expendable.kill()
        expendable.wait(timeout=10)
        _wait_for_workers(hub, 2)
