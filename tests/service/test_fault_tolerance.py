"""Service-layer fault tolerance: structured 503s, degradation, timeouts.

The daemon's contract when its execution backend misbehaves: never hang
a request, never crash the process. Policy ``"raise"`` turns an
unavailable remote fleet into a structured 503 ``executor_unavailable``;
policy ``"degrade"`` finishes the request on the local fallback with the
*same bits* the fleet would have produced, and says so in ``stats``.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core import pool as pool_registry
from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import random_assignment_batch
from repro.core.problem import MappingProblem
from repro.errors import ServiceError
from repro.service import ServiceClient, ServiceCore

pytestmark = [pytest.mark.chaos]

#: Enough random rows that the evaluate path genuinely shards across the
#: pool (>= 2 x MIN_SHARD_ROWS) instead of running inline.
ROWS = 160


def _offline_scores(app, seed, n_random):
    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")
    evaluator = MappingEvaluator(problem)
    rows = random_assignment_batch(
        n_random, evaluator.n_tasks, evaluator.n_tiles,
        np.random.default_rng(seed),
    )
    return evaluator.evaluate_batch(rows).score


class TestPolicyRaise:
    def test_unreachable_fleet_answers_structured_503(self, monkeypatch):
        monkeypatch.setenv("PHONOCMAP_WORKER_WAIT_TIMEOUT_S", "0.5")
        core = ServiceCore(n_workers=2, executor="tcp://127.0.0.1:0")
        try:
            started = time.monotonic()
            body, status = core.handle(
                {"kind": "evaluate", "app": "pip", "seed": 3, "n_random": ROWS}
            )
            elapsed = time.monotonic() - started
            assert status == 503
            assert body["ok"] is False
            assert body["error"]["kind"] == "executor_unavailable"
            assert elapsed < 30  # the wait timeout bounds it, not a hang
            # The daemon survives: observability still answers.
            stats, stats_status = core.handle({"kind": "stats"})
            assert stats_status == 200
            assert stats["result"]["on_worker_loss"] == "raise"
        finally:
            core.close(timeout=30)
            pool_registry.shutdown_pools()


class TestPolicyDegrade:
    def test_degraded_request_is_bit_identical_and_reported(self, monkeypatch):
        monkeypatch.setenv("PHONOCMAP_WORKER_WAIT_TIMEOUT_S", "0.5")
        monkeypatch.setenv("PHONOCMAP_DEGRADE_TO", "inline")
        monkeypatch.setenv("PHONOCMAP_ON_WORKER_LOSS", "degrade")
        core = ServiceCore(n_workers=2, executor="tcp://127.0.0.1:0")
        try:
            body, status = core.handle(
                {"kind": "evaluate", "app": "pip", "seed": 3, "n_random": ROWS}
            )
            assert status == 200, body
            offline = _offline_scores("pip", seed=3, n_random=ROWS)
            np.testing.assert_array_equal(
                np.asarray(body["result"]["score"]), offline
            )
            stats, _ = core.handle({"kind": "stats"})
            assert stats["result"]["degraded"] is True
            assert stats["result"]["on_worker_loss"] == "degrade"
        finally:
            core.close(timeout=30)
            pool_registry.shutdown_pools()


class TestClientTimeouts:
    def test_dead_port_fails_within_connect_timeout(self):
        # Grab a port that is definitely not listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(port=port, connect_timeout=0.5, timeout=1.0)
        started = time.monotonic()
        with pytest.raises(ServiceError) as info:
            client.request({"kind": "stats"})
        assert time.monotonic() - started < 10
        assert info.value.kind == "unreachable"
        assert info.value.status == 503

    def test_missing_socket_fails_fast_and_typed(self, tmp_path):
        client = ServiceClient(
            socket_path=str(tmp_path / "nope.sock"), connect_timeout=0.5
        )
        started = time.monotonic()
        with pytest.raises(ServiceError) as info:
            client.request({"kind": "stats"})
        assert time.monotonic() - started < 10
        assert info.value.kind == "unreachable"

    def test_backoff_is_capped(self):
        client = ServiceClient(port=1, retries=10)
        delays = [client._backoff(retry) for retry in range(1, 11)]
        assert delays[0] == pytest.approx(0.2)
        assert max(delays) <= 2.0
        assert delays == sorted(delays)
