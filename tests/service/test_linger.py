"""How long a coalesced flight waits, and what a cold build blocks.

A flight lingers only while a *co-traveller* exists: a request holding a
run slot that has not bound to a key yet, or a request bound to the
flight's key, scored in batches, with no block pending. The cases below
run with a 30 s window and a 5 s bound, so a flight that waits out the
window fails them by a wide margin, and none depends on timing.

Each concurrent case seats its requests together: a barrier inside
``ServiceRequest.problem`` holds every request after admission (run slot
taken, not yet bound) until all of them are there.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.core import pool as pool_registry
from repro.models import coupling
from repro.models.coupling import CouplingModel, clear_model_cache
from repro.service import BatchCoalescer, ServiceCore
from repro.service.schema import ServiceRequest

WINDOW_S = 30.0
BOUND_S = 5.0


@pytest.fixture
def slow_core():
    core = ServiceCore(n_workers=1, coalesce_window_s=WINDOW_S)
    yield core
    core.close(timeout=120)
    pool_registry.shutdown_pools()


@pytest.fixture
def seat_together(monkeypatch):
    """Hold each request in ``problem()`` until ``parties`` are seated."""

    def arm(parties):
        barrier = threading.Barrier(parties, timeout=30)
        original = ServiceRequest.problem

        def problem(self):
            barrier.wait()
            return original(self)

        monkeypatch.setattr(ServiceRequest, "problem", problem)

    return arm


def run_together(core, payloads):
    """Handle ``payloads`` concurrently; return ``(body, status, seconds)``s."""
    results = [None] * len(payloads)

    def call(index, payload):
        began = time.monotonic()
        body, status = core.handle(payload)
        results[index] = (body, status, time.monotonic() - began)

    threads = [
        threading.Thread(target=call, args=(index, payload), daemon=True)
        for index, payload in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=BOUND_S)
    assert not any(thread.is_alive() for thread in threads), (
        f"a request was still running after {BOUND_S} s: a flight waited "
        "for a request that could not join it"
    )
    return results


def key_stats(core):
    """The ``stats`` entry of the pip x mesh3 coalescer."""
    (entry,) = [
        entry
        for entry in core.stats()["coalescing"]["per_key"]
        if entry["application"] == "pip" and entry["network"].startswith("mesh")
    ]
    return entry


class TestCoTravellerLinger:
    def test_requests_on_other_architectures_do_not_hold_a_flight(
        self, slow_core, seat_together
    ):
        payloads = [
            {"kind": "evaluate", "app": "pip", "topology": topology,
             "n_random": 64, "seed": 5}
            for topology in ("mesh", "torus")
        ]
        alone = [slow_core.handle(payload) for payload in payloads]
        seat_together(len(payloads))
        together = run_together(slow_core, payloads)
        for (body, status), (body_t, status_t, seconds) in zip(alone, together):
            assert status == status_t == 200, body_t
            assert body_t == body
            assert seconds < BOUND_S

    def test_a_delta_search_does_not_hold_a_batch_flight(
        self, slow_core, seat_together
    ):
        tabu = {"kind": "optimize", "app": "pip", "strategy": "tabu",
                "budget": 20_000, "seed": 3}
        distribution = {"kind": "distribution", "app": "pip", "samples": 256,
                        "seed": 4}
        slow_core.handle(distribution)
        before = key_stats(slow_core)
        seat_together(2)
        (tabu_body, tabu_status, _), (body, status, seconds) = run_together(
            slow_core, [tabu, distribution]
        )
        assert tabu_status == status == 200, (tabu_body, body)
        assert seconds < BOUND_S
        after = key_stats(slow_core)
        # The tabu search scored every move through its delta engine:
        # the key's flights carried the distribution's one batch only.
        assert after["batches"] - before["batches"] == 1

    def test_same_key_batches_share_one_flight(self, slow_core, seat_together):
        payloads = [
            {"kind": "distribution", "app": "pip", "samples": 256, "seed": seed}
            for seed in (7, 8)
        ]
        alone = [slow_core.handle(payload) for payload in payloads]
        before = key_stats(slow_core)
        seat_together(len(payloads))
        together = run_together(slow_core, payloads)
        for (body, _), (body_t, status_t, seconds) in zip(alone, together):
            assert status_t == 200, body_t
            assert body_t == body
            assert seconds < BOUND_S
        after = key_stats(slow_core)
        assert after["flights"] - before["flights"] == 1
        assert after["batches"] - before["batches"] == 2
        assert after["coalesced_batches"] - before["coalesced_batches"] == 2

    def test_a_failed_request_leaves_no_co_traveller(self, slow_core):
        # Rows naming tile 9 pass the schema but fail in the handler,
        # after the request bound to pip x mesh3's coalescer.
        bad = {"kind": "evaluate", "app": "pip",
               "mappings": [[0, 1, 2, 3, 4, 5, 6, 9]]}
        body, status = slow_core.handle(bad)
        assert status == 400 and body["error"]["kind"] == "infeasible", body
        ((_, status, seconds),) = run_together(
            slow_core,
            [{"kind": "distribution", "app": "pip", "samples": 256, "seed": 9}],
        )
        assert status == 200
        assert seconds < BOUND_S
        assert key_stats(slow_core)["lingered_flights"] == 0


class TestLingerStats:
    def test_standalone_coalescer_lingers_its_window(self):
        from repro.core.evaluator import MappingEvaluator
        from repro.core.mapping import random_assignment_batch
        from repro.core.problem import MappingProblem
        from repro.appgraph.benchmarks import load_benchmark

        problem = MappingProblem(
            load_benchmark("pip"), build_case_study_network("mesh", 3), "snr"
        )
        shared = MappingEvaluator(problem)
        coalescer = BatchCoalescer(shared, window_s=0.05)
        try:
            rng = np.random.default_rng(0)
            first = coalescer.submit(
                random_assignment_batch(5, shared.n_tasks, shared.n_tiles, rng)
            )
            second = coalescer.submit(
                random_assignment_batch(3, shared.n_tasks, shared.n_tiles, rng)
            )
            first.tables()
            second.tables()
            snapshot = coalescer.stats.as_dict()
            assert snapshot["lingered_flights"] == 1
            assert snapshot["linger_ms"] > 0.0
        finally:
            coalescer.close()
            shared.close()

    def test_lone_request_never_lingers(self):
        core = ServiceCore(n_workers=1)
        try:
            body, status = core.handle(
                {"kind": "evaluate", "app": "pip", "n_random": 16, "seed": 1}
            )
            assert status == 200, body
            stats = core.stats()["coalescing"]
            assert stats["totals"]["flights"] == 1
            assert stats["totals"]["lingered_flights"] == 0
            assert stats["totals"]["linger_ms"] == 0.0
            (entry,) = stats["per_key"]
            assert entry["lingered_flights"] == 0
        finally:
            core.close(timeout=30)
            pool_registry.shutdown_pools()


class TestModelResolveLock:
    def test_cold_build_blocks_only_its_own_architecture(
        self, monkeypatch, model_cache
    ):
        """A held cold build stalls its own key, not a warm one."""
        clear_model_cache()
        core = ServiceCore(n_workers=1)
        warm = {"kind": "evaluate", "app": "pip", "n_random": 4, "seed": 1}
        cold = {"kind": "evaluate", "app": "pip", "topology": "torus",
                "n_random": 4, "seed": 2}
        target = build_case_study_network("torus", 3).signature
        started, release = threading.Event(), threading.Event()
        build = CouplingModel._build

        def held_build(model):
            if model.network.signature == target:
                started.set()
                release.wait(timeout=60)
            build(model)

        results = {}

        def call(name, payload):
            results[name] = core.handle(payload)

        threads = {
            name: threading.Thread(target=call, args=(name, payload), daemon=True)
            for name, payload in (("cold_a", cold), ("cold_b", cold), ("warm", warm))
        }
        try:
            assert core.handle(warm)[1] == 200  # pip x mesh3 is now warm
            monkeypatch.setattr(CouplingModel, "_build", held_build)
            builds = coupling.BUILD_COUNT
            try:
                threads["cold_a"].start()
                assert started.wait(timeout=30), "the cold build never started"
                threads["cold_b"].start()
                threads["warm"].start()
                threads["warm"].join(timeout=10)
                assert not threads["warm"].is_alive(), (
                    "a warm request waited for another architecture's build"
                )
                assert results["warm"][1] == 200
                assert "cold_a" not in results
            finally:
                release.set()
            for name in ("cold_a", "cold_b"):
                threads[name].join(timeout=60)
                assert results[name][1] == 200, results[name]
            assert results["cold_a"] == results["cold_b"]
            # Two concurrent first requests for one key: one build, one
            # coalescer.
            assert coupling.BUILD_COUNT - builds == 1
            torus_keys = [
                entry for entry in core.stats()["coalescing"]["per_key"]
                if entry["network"].startswith("torus")
            ]
            assert len(torus_keys) == 1
        finally:
            release.set()
            core.close(timeout=60)
            pool_registry.shutdown_pools()
            clear_model_cache()
