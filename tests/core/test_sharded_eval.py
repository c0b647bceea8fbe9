"""Shard-boundary parity of the persistent-pool batch evaluation engine.

The contract (module docstring of :mod:`repro.core.evaluator`): sharded
``evaluate_batch`` / ``submit_batch`` results are **bit-identical** to the
sequential path for any ``n_workers`` — including the awkward boundaries
(empty batch, batch smaller than the worker count, non-divisible shard
sizes) — and evaluation counts are charged exactly once per batch, in
collection order.

Pool lifecycle guarantees of :mod:`repro.core.pool` are covered here too:
keyed reuse across calls and objectives, LRU bounding, and deterministic
shutdown through ``close()`` / ``release_pools``.
"""

import numpy as np
import pytest

from repro.analysis.distribution import random_mapping_distribution
from repro.core import (
    DesignSpaceExplorer,
    MappingEvaluator,
    MappingProblem,
    random_assignment_batch,
)
from repro.core import evaluator as evaluator_module
from repro.core import pool as pool_registry
from repro.errors import MappingError


@pytest.fixture()
def problem(pip_cg, mesh3_network):
    return MappingProblem(pip_cg, mesh3_network, "snr")


@pytest.fixture()
def evaluator(problem):
    ev = MappingEvaluator(problem)
    yield ev
    ev.close()


def batch_of(evaluator, rows, seed=7):
    rng = np.random.default_rng(seed)
    return random_assignment_batch(
        rows, evaluator.n_tasks, evaluator.n_tiles, rng
    )


def assert_metrics_equal(actual, expected):
    np.testing.assert_array_equal(
        actual.worst_insertion_loss_db, expected.worst_insertion_loss_db
    )
    np.testing.assert_array_equal(actual.worst_snr_db, expected.worst_snr_db)
    np.testing.assert_array_equal(actual.score, expected.score)


class TestShardParity:
    @pytest.mark.parametrize("n_workers", [2, 3, 4])
    def test_bit_identical_for_any_worker_count(self, evaluator, n_workers):
        batch = batch_of(evaluator, 101)
        sequential = evaluator.evaluate_batch(batch)
        sharded = evaluator.evaluate_batch(
            batch, n_workers=n_workers, min_shard_rows=1
        )
        assert_metrics_equal(sharded, sequential)

    def test_non_divisible_shard_sizes(self, evaluator):
        # 10 rows over 4 workers: shards of 3/2/3/2 — boundaries must not
        # shift, duplicate or drop any row.
        batch = batch_of(evaluator, 10)
        sequential = evaluator.evaluate_batch(batch)
        sharded = evaluator.evaluate_batch(batch, n_workers=4, min_shard_rows=1)
        assert_metrics_equal(sharded, sequential)

    def test_batch_smaller_than_worker_count(self, evaluator):
        batch = batch_of(evaluator, 3)
        sequential = evaluator.evaluate_batch(batch)
        sharded = evaluator.evaluate_batch(batch, n_workers=8, min_shard_rows=1)
        assert_metrics_equal(sharded, sequential)

    def test_single_row_stays_inline(self, evaluator):
        # One row cannot shard; the inline path must serve it unchanged.
        batch = batch_of(evaluator, 1)
        sequential = evaluator.evaluate_batch(batch)
        sharded = evaluator.evaluate_batch(batch, n_workers=4, min_shard_rows=1)
        assert_metrics_equal(sharded, sequential)

    def test_empty_batch(self, evaluator):
        empty = np.empty((0, evaluator.n_tasks), dtype=np.int64)
        sequential = evaluator.evaluate_batch(empty)
        sharded = evaluator.evaluate_batch(empty, n_workers=4, min_shard_rows=1)
        assert sequential.score.shape == (0,)
        assert_metrics_equal(sharded, sequential)

    def test_default_floor_keeps_small_batches_inline(self, problem):
        # Below MIN_SHARD_ROWS per shard, the process round-trip costs
        # more than the work: a small batch must not even build a pool.
        pool_registry.shutdown_pools()
        ev = MappingEvaluator(problem)
        metrics = ev.evaluate_batch(batch_of(ev, 16), n_workers=4)
        assert metrics.score.shape == (16,)
        assert len(pool_registry._POOLS) == 0

    def test_invalid_worker_count_rejected(self, evaluator):
        with pytest.raises(MappingError, match="n_workers"):
            evaluator.evaluate_batch(batch_of(evaluator, 2), n_workers=0)
        with pytest.raises(MappingError, match="n_workers"):
            MappingEvaluator(evaluator.problem, n_workers=-2)


class TestEvaluationCounting:
    def test_sharded_batch_counts_once(self, evaluator):
        batch = batch_of(evaluator, 20)
        evaluator.reset_count()
        evaluator.evaluate_batch(batch, n_workers=3, min_shard_rows=1)
        assert evaluator.evaluations == 20

    def test_pending_batch_counts_on_first_result_only(self, evaluator):
        batch = batch_of(evaluator, 12)
        evaluator.reset_count()
        handle = evaluator.submit_batch(batch, n_workers=3, min_shard_rows=1)
        assert evaluator.evaluations == 0  # charged at collection
        first = handle.result()
        assert evaluator.evaluations == 12
        assert handle.result() is first  # cached, not re-charged
        assert evaluator.evaluations == 12

    def test_collection_order_reproduces_sequential_counter(self, evaluator):
        evaluator.reset_count()
        first = evaluator.submit_batch(
            batch_of(evaluator, 5, seed=1), n_workers=2, min_shard_rows=1
        )
        second = evaluator.submit_batch(
            batch_of(evaluator, 7, seed=2), n_workers=2, min_shard_rows=1
        )
        first.result()
        assert evaluator.evaluations == 5
        second.result()
        assert evaluator.evaluations == 12


class TestAsyncSubmission:
    def test_submit_batch_eager_path_matches(self, evaluator):
        batch = batch_of(evaluator, 9)
        sequential = evaluator.evaluate_batch(batch)
        handle = evaluator.submit_batch(batch)  # n_workers=1: eager
        assert handle.done()
        assert_metrics_equal(handle.result(), sequential)

    def test_caller_may_reuse_its_buffer(self, evaluator):
        # submit_batch snapshots the rows at submit time.
        batch = batch_of(evaluator, 24)
        expected = evaluator.evaluate_batch(batch.copy())
        handle = evaluator.submit_batch(batch, n_workers=3, min_shard_rows=1)
        batch[:] = 0  # clobber after submit
        assert_metrics_equal(handle.result(), expected)

    def test_distribution_sweep_identical_across_workers(
        self, pip_cg, mesh3_network
    ):
        sequential = random_mapping_distribution(
            pip_cg, mesh3_network, n_samples=500, seed=42
        )
        sharded = random_mapping_distribution(
            pip_cg, mesh3_network, n_samples=500, seed=42, n_workers=3
        )
        np.testing.assert_array_equal(
            sharded.worst_snr_db, sequential.worst_snr_db
        )
        np.testing.assert_array_equal(
            sharded.worst_loss_db, sequential.worst_loss_db
        )


class TestShardsComputeWhatTheBatchReads:
    """Sharded batches compute only the tables their caller reads."""

    def test_sharded_fig3_sweep_computes_only_worst_il_and_worst_snr(
        self, pip_cg, mesh3_network, monkeypatch
    ):
        reference = random_mapping_distribution(
            pip_cg, mesh3_network, n_samples=60, seed=11, batch_size=16
        )
        monkeypatch.setattr(evaluator_module, "MIN_SHARD_ROWS", 1)
        caller = MappingEvaluator(
            MappingProblem(pip_cg, mesh3_network, "snr"),
            n_workers=2,
            executor="inline",
        )
        computed = []
        table = MappingEvaluator._table

        def spy(self, name, il, snr):
            computed.append((self, name))
            return table(self, name, il, snr)

        monkeypatch.setattr(MappingEvaluator, "_table", spy)
        try:
            sharded = random_mapping_distribution(
                pip_cg, mesh3_network, n_samples=60, seed=11, batch_size=16,
                evaluator=caller,
            )
        finally:
            caller.close()
        assert {name for _, name in computed} == {"worst_il", "worst_snr"}
        # Every table came from the inline backend's worker context.
        assert all(owner is not caller for owner, _ in computed)
        np.testing.assert_array_equal(sharded.worst_snr_db, reference.worst_snr_db)
        np.testing.assert_array_equal(
            sharded.worst_loss_db, reference.worst_loss_db
        )

    def test_sharded_score_only_loss_batch_never_runs_the_noise_contraction(
        self, pip_cg, mesh3_network, monkeypatch
    ):
        evaluator = MappingEvaluator(
            MappingProblem(pip_cg, mesh3_network, "loss"),
            n_workers=2,
            executor="inline",
        )
        batch = batch_of(evaluator, 40)
        want = evaluator.evaluate_batch(batch, score_only=True)
        contractions = []
        monkeypatch.setattr(
            MappingEvaluator, "_tables_from_pairs",
            lambda *args: contractions.append(args) or 1 / 0,
        )
        try:
            pending = evaluator.submit_batch(
                batch, min_shard_rows=1, score_only=True
            )
            assert pending._pool is not None  # really sharded
            got = pending.result()
        finally:
            evaluator.close()
        assert contractions == []
        np.testing.assert_array_equal(got.score, want.score)
        np.testing.assert_array_equal(
            got.worst_insertion_loss_db, want.worst_insertion_loss_db
        )
        assert got.worst_snr_db is want.worst_snr_db is None


class TestBatchShardableStrategies:
    @pytest.mark.parametrize("strategy", ["rs", "ga"])
    def test_run_bit_identical_across_worker_counts(self, problem, strategy):
        # RS/GA declare batch_shardable: run(n_workers=k) shards their
        # population scoring; best mapping, counts AND histories must
        # match the sequential run exactly.
        with DesignSpaceExplorer(problem) as explorer:
            sequential = explorer.run(strategy, budget=3000, seed=3)
            sharded = explorer.run(strategy, budget=3000, seed=3, n_workers=3)
            assert sharded.best_score == sequential.best_score
            np.testing.assert_array_equal(
                sharded.best_mapping.assignment,
                sequential.best_mapping.assignment,
            )
            assert sharded.evaluations == sequential.evaluations
            assert sharded.history == sequential.history

    def test_run_restores_evaluator_shard_width(self, problem):
        explorer = DesignSpaceExplorer(problem)
        try:
            explorer.run("rs", budget=256, seed=1, n_workers=4)
            assert explorer.evaluator.n_workers == 1
        finally:
            explorer.close()


class TestPersistentPools:
    def test_pool_reused_across_calls(self, evaluator):
        batch = batch_of(evaluator, 16)
        evaluator.evaluate_batch(batch, n_workers=2, min_shard_rows=1)
        pool_a = pool_registry.get_pool(evaluator.problem, 2)
        evaluator.evaluate_batch(batch, n_workers=2, min_shard_rows=1)
        pool_b = pool_registry.get_pool(evaluator.problem, 2)
        assert pool_a is pool_b

    def test_pool_key_ignores_objective(self, pip_cg, mesh3_network):
        snr = MappingProblem(pip_cg, mesh3_network, "snr")
        loss = MappingProblem(pip_cg, mesh3_network, "loss")
        key_snr = pool_registry.pool_key(snr, 2)
        key_loss = pool_registry.pool_key(loss, 2)
        assert key_snr == key_loss

    def test_objective_flip_reuses_warm_pool(self, pip_cg, mesh3_network):
        snr = MappingProblem(pip_cg, mesh3_network, "snr")
        loss = MappingProblem(pip_cg, mesh3_network, "loss")
        try:
            pool_a = pool_registry.get_pool(snr, 2)
            pool_b = pool_registry.get_pool(loss, 2)
            assert pool_a is pool_b
            # And the shared pool scores the loss objective correctly:
            ev = MappingEvaluator(loss)
            batch = batch_of(ev, 8)
            sequential = ev.evaluate_batch(batch)
            sharded = ev.evaluate_batch(batch, n_workers=2, min_shard_rows=1)
            assert_metrics_equal(sharded, sequential)
            np.testing.assert_array_equal(
                sharded.score, sharded.worst_insertion_loss_db
            )
        finally:
            pool_registry.release_pools(snr)

    def test_lru_bounds_live_pools(self, evaluator):
        batch = batch_of(evaluator, 8)
        for workers in (2, 3, 4, 5):
            evaluator.evaluate_batch(batch, n_workers=workers, min_shard_rows=1)
        assert len(pool_registry._POOLS) <= pool_registry.MAX_POOLS

    def test_close_shuts_down_this_problems_pools(self, problem):
        ev = MappingEvaluator(problem)
        ev.evaluate_batch(batch_of(ev, 8), n_workers=2, min_shard_rows=1)
        assert pool_registry.release_pools(problem) >= 1
        ev.evaluate_batch(batch_of(ev, 8), n_workers=2, min_shard_rows=1)
        ev.close()
        key = pool_registry.pool_key(problem, 2)
        assert key not in pool_registry._POOLS
        # evaluator stays usable: next sharded call builds a fresh pool
        metrics = ev.evaluate_batch(batch_of(ev, 8), n_workers=2, min_shard_rows=1)
        assert metrics.score.shape == (8,)
        ev.close()

    def test_explorer_close_is_idempotent(self, problem):
        with DesignSpaceExplorer(problem) as explorer:
            explorer.run("rs", budget=64, seed=1, n_workers=2)
        explorer.close()  # second close: no-op
        assert pool_registry.pool_key(problem, 2) not in pool_registry._POOLS

    def test_shutdown_pools_clears_everything(self, evaluator):
        evaluator.evaluate_batch(batch_of(evaluator, 8), n_workers=2, min_shard_rows=1)
        pool_registry.shutdown_pools()
        assert len(pool_registry._POOLS) == 0


class _FakePool:
    """Registry stand-in recording how it was closed (no real workers)."""

    def __init__(self):
        self.broken = False
        self.closed_with = None

    def close(self, wait=True):
        self.closed_with = wait


class TestReleaseFilters:
    """Selective eviction for multi-tenant (daemon) pool registries."""

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        pool_registry.shutdown_pools()
        yield
        pool_registry._POOLS.clear()

    def _plant(self, problem, n_workers=2):
        key = pool_registry.pool_key(problem, n_workers)
        pool = _FakePool()
        pool_registry._POOLS[key] = pool
        return key, pool

    def test_problem_filter_keeps_other_problems_warm(
        self, problem, pip_cg, torus3_network
    ):
        other = MappingProblem(pip_cg, torus3_network, "snr")
        key, pool = self._plant(problem)
        other_key, other_pool = self._plant(other)
        assert pool_registry.release_pools(problem) == 1
        assert key not in pool_registry._POOLS
        assert other_key in pool_registry._POOLS
        assert pool.closed_with is True  # reaped synchronously
        assert other_pool.closed_with is None

    def test_unfiltered_release_clears_everything(self, problem):
        self._plant(problem, n_workers=2)
        self._plant(problem, n_workers=3)
        assert pool_registry.release_pools() == 2
        assert len(pool_registry._POOLS) == 0

    def test_broken_pool_replacement_reaps_with_wait(self, problem, evaluator):
        batch = batch_of(evaluator, 8)
        evaluator.evaluate_batch(batch, n_workers=2, min_shard_rows=1)
        key = pool_registry.pool_key(problem, 2)
        stale = pool_registry._POOLS[key]
        stale.broken = True
        fresh = pool_registry.get_pool(problem, 2)
        assert fresh is not stale
        assert pool_registry._POOLS[key] is fresh
        # the broken pool's workers were reaped synchronously
        assert stale._executor is None or stale._executor._shutdown_thread is None

    def test_registry_is_thread_safe_under_churn(self, problem):
        import threading

        errors = []

        def churn(n_workers):
            try:
                for _ in range(50):
                    key = pool_registry.pool_key(problem, n_workers)
                    pool_registry._register_pool(key, _FakePool())
                    pool_registry.release_pools(problem)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=churn, args=(n_workers,))
            for n_workers in (2, 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        pool_registry.release_pools()
