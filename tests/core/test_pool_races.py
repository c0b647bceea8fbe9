"""Registry lifecycle races: release/shutdown vs in-flight batches.

The ``serve`` daemon evicts tenants with :func:`release_pools` while
request-handler threads are mid-``submit_batch``. Pools close with
``wait=True`` (in-flight futures complete, never fail) and the dispatch
path absorbs submit-after-shutdown errors by re-fetching a pool from the
registry — so a release storm can cost time, never correctness. Both
fan-out callers (sharded batches and DSE strategy tasks) share that
dispatch path.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core import pool as pool_registry
from repro.core.dse import DesignSpaceExplorer
from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import random_assignment_batch
from repro.core.pool import release_pools, shutdown_pools
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


class TestReleaseRaces:
    def test_release_after_submit_never_loses_in_flight_futures(self, problem):
        """Pools close with ``wait=True``: a release between submit and
        collect lets the in-flight shards finish."""
        rows = _rows(problem, 256, seed=31)
        reference = MappingEvaluator(problem).evaluate_batch(rows)
        evaluator = MappingEvaluator(problem, n_workers=2)
        pending = evaluator.submit_batch(rows, min_shard_rows=32)
        assert release_pools(problem) >= 1  # closes the pool serving it
        metrics = pending.result()
        np.testing.assert_array_equal(reference.score, metrics.score)
        np.testing.assert_array_equal(
            reference.worst_snr_db, metrics.worst_snr_db
        )

    @pytest.mark.parametrize("evict", ["release", "shutdown"])
    def test_concurrent_batches_survive_registry_eviction_storm(
        self, problem, evict
    ):
        """Threads hammer ``submit_batch`` while another thread evicts
        the registry; every batch must come back bit-identical."""
        rows = _rows(problem, 256, seed=37)
        reference = MappingEvaluator(problem).evaluate_batch(rows)
        errors = []
        results = {}
        start = threading.Barrier(4)

        def submitter(slot):
            evaluator = MappingEvaluator(problem, n_workers=2)
            start.wait()
            try:
                batches = [
                    evaluator.submit_batch(rows, min_shard_rows=32)
                    for _ in range(3)
                ]
                results[slot] = [pending.result() for pending in batches]
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        def evictor():
            start.wait()
            for _ in range(8):
                if evict == "release":
                    release_pools(problem)
                else:
                    shutdown_pools()
                time.sleep(0.005)

        threads = [
            threading.Thread(target=submitter, args=(slot,)) for slot in range(3)
        ]
        threads.append(threading.Thread(target=evictor))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
            assert not thread.is_alive()
        assert not errors, errors
        assert set(results) == {0, 1, 2}
        for batches in results.values():
            for metrics in batches:
                np.testing.assert_array_equal(reference.score, metrics.score)
                np.testing.assert_array_equal(
                    reference.worst_snr_db, metrics.worst_snr_db
                )


class TestDseReleaseRace:
    def test_compare_survives_release_racing_its_dispatch(
        self, problem, monkeypatch
    ):
        """A ``release_pools`` landing between the DSE's ``get_pool`` and
        its submit closes the backend under it; the dispatch must fetch a
        fresh pool and return exactly the unraced results."""
        def explorer():
            return DesignSpaceExplorer(problem, n_workers=2, executor="inline")

        reference = explorer().compare(["rs", "ga"], budget=200, seed=1)
        original = pool_registry.get_pool
        fetched = []

        def racing_get_pool(*args, **kwargs):
            backend = original(*args, **kwargs)
            fetched.append(backend)
            if len(fetched) == 1:
                release_pools()
            return backend

        monkeypatch.setattr(pool_registry, "get_pool", racing_get_pool)
        results = explorer().compare(["rs", "ga"], budget=200, seed=1)
        assert len(fetched) == 2  # the race hit and one re-fetch absorbed it
        assert not fetched[0].alive()
        for name, expected in reference.items():
            assert results[name].best_score == expected.best_score
            assert results[name].history == expected.history
            assert results[name].evaluations == expected.evaluations
