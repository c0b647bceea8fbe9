"""Determinism and bookkeeping of multi-process design-space exploration.

The contract (module docstring of :mod:`repro.core.dse`):

* ``compare()`` is bit-identical across worker counts — every strategy's
  RNG stream is spawned from the seed by list position, never from
  scheduling;
* ``run()`` of a chain-decomposable strategy is bit-identical for a given
  ``(seed, n_workers)`` and equals the plain sequential path at
  ``n_workers=1``;
* evaluation counts aggregate exactly, so budget comparisons stay fair.
"""

import numpy as np
import pytest

from repro.core import DesignSpaceExplorer, MappingProblem
from repro.core.parallel import merge_chain_results, spawn_seeds, split_budget
from repro.errors import OptimizationError

STRATEGIES = ("rs", "r-pbla", "tabu")


@pytest.fixture()
def problem(pip_cg, mesh3_network):
    return MappingProblem(pip_cg, mesh3_network, "snr")


class TestCompareAcrossWorkerCounts:
    def test_bit_identical_for_1_2_4_workers(self, problem):
        explorer = DesignSpaceExplorer(problem)
        by_workers = {
            n: explorer.compare(STRATEGIES, budget=300, seed=11, n_workers=n)
            for n in (1, 2, 4)
        }
        reference = by_workers[1]
        for n in (2, 4):
            for name in STRATEGIES:
                assert (
                    by_workers[n][name].best_score == reference[name].best_score
                ), f"{name}: best score differs at n_workers={n}"
                np.testing.assert_array_equal(
                    by_workers[n][name].best_mapping.assignment,
                    reference[name].best_mapping.assignment,
                    err_msg=f"{name}: assignment differs at n_workers={n}",
                )
                assert (
                    by_workers[n][name].evaluations
                    == reference[name].evaluations
                ), f"{name}: evaluation count differs at n_workers={n}"
                assert by_workers[n][name].history == reference[name].history

    def test_constructor_default_worker_count(self, problem):
        sequential = DesignSpaceExplorer(problem).compare(
            ("rs", "r-pbla"), budget=200, seed=5
        )
        pooled = DesignSpaceExplorer(problem, n_workers=2).compare(
            ("rs", "r-pbla"), budget=200, seed=5
        )
        for name in sequential:
            assert sequential[name].best_score == pooled[name].best_score
            assert sequential[name].evaluations == pooled[name].evaluations

    def test_escape_hatch_respected_in_workers(self, problem):
        explorer = DesignSpaceExplorer(problem)
        full = explorer.compare(
            ("r-pbla", "tabu"), budget=200, seed=7, use_delta=False, n_workers=2
        )
        for result in full.values():
            assert result.evaluations <= 200


class TestChainDecomposedRun:
    def test_reproducible_for_fixed_seed_and_workers(self, problem):
        explorer = DesignSpaceExplorer(problem)
        first = explorer.run("r-pbla", budget=400, seed=3, n_workers=2)
        second = explorer.run("r-pbla", budget=400, seed=3, n_workers=2)
        assert first.best_score == second.best_score
        np.testing.assert_array_equal(
            first.best_mapping.assignment, second.best_mapping.assignment
        )
        assert first.evaluations == second.evaluations
        assert first.history == second.history

    def test_one_worker_is_the_sequential_path(self, problem):
        explorer = DesignSpaceExplorer(problem)
        plain = explorer.run("r-pbla", budget=300, seed=9)
        one = explorer.run("r-pbla", budget=300, seed=9, n_workers=1)
        assert plain.best_score == one.best_score
        np.testing.assert_array_equal(
            plain.best_mapping.assignment, one.best_mapping.assignment
        )
        assert plain.evaluations == one.evaluations

    def test_evaluations_aggregate_to_budget(self, problem):
        explorer = DesignSpaceExplorer(problem)
        result = explorer.run("r-pbla", budget=401, seed=2, n_workers=4)
        # R-PBLA honours its budget exactly, chain by chain.
        assert result.evaluations == 401
        assert [e for e, _ in result.history] == sorted(
            e for e, _ in result.history
        )
        scores = [s for _, s in result.history]
        assert scores == sorted(scores)  # strictly improving waypoints
        # history holds tracked (delta-path) scores; best_score is the
        # final full re-evaluation — identical up to float associativity
        assert result.best_score == pytest.approx(scores[-1], rel=1e-12)

    def test_sa_chains_respect_budget(self, problem):
        explorer = DesignSpaceExplorer(problem)
        result = explorer.run("sa", budget=400, seed=2, n_workers=2)
        assert result.evaluations <= 400
        assert np.isfinite(result.best_score)

    def test_sa_tiny_budget_never_overspends(self, problem):
        """min_chain_budget caps the chain count: SA chains pay >= 2
        calibration evaluations each, so budget 4 across 4 workers must
        decompose into at most 2 chains (and spend exactly 4, like the
        sequential path) instead of 4 chains spending 8."""
        explorer = DesignSpaceExplorer(problem)
        sequential = explorer.run("sa", budget=4, seed=1)
        parallel = explorer.run("sa", budget=4, seed=1, n_workers=4)
        assert sequential.evaluations == 4
        assert parallel.evaluations <= 4

    def test_non_decomposable_strategy_falls_back_to_sequential(self, problem):
        explorer = DesignSpaceExplorer(problem)
        sequential = explorer.run("tabu", budget=300, seed=4)
        pooled = explorer.run("tabu", budget=300, seed=4, n_workers=4)
        assert sequential.best_score == pooled.best_score
        np.testing.assert_array_equal(
            sequential.best_mapping.assignment, pooled.best_mapping.assignment
        )
        assert sequential.evaluations == pooled.evaluations

    def test_invalid_worker_count_rejected(self, problem):
        with pytest.raises(OptimizationError, match="n_workers"):
            DesignSpaceExplorer(problem, n_workers=0)
        explorer = DesignSpaceExplorer(problem)
        with pytest.raises(OptimizationError, match="n_workers"):
            explorer.run("rs", budget=100, seed=1, n_workers=-1)


class TestSeedSpawning:
    def test_streams_are_independent_of_worker_count(self):
        # The same seed must spawn the same per-strategy children however
        # many workers consume them.
        a = spawn_seeds(11, 3)
        b = spawn_seeds(11, 3)
        for child_a, child_b in zip(a, b):
            assert child_a.generate_state(4).tolist() == child_b.generate_state(
                4
            ).tolist()

    def test_none_seed_spawns_fresh_entropy(self):
        assert spawn_seeds(None, 3) == [None, None, None]

    def test_nearby_seeds_do_not_collide(self):
        """Regression for the old ``seed + 7919 * index`` scheme, where
        strategy index 1 at seed ``s`` reused the stream of strategy
        index 0 at seed ``s + 7919`` exactly. Spawned streams keep the
        (seed, index) pairs distinct."""
        colliding_old = 11 + 7919 * 1 == (11 + 7919) + 7919 * 0
        assert colliding_old  # the failure mode being fixed
        stream_a = spawn_seeds(11, 2)[1].generate_state(8).tolist()
        stream_b = spawn_seeds(11 + 7919, 2)[0].generate_state(8).tolist()
        assert stream_a != stream_b


class TestBudgetSplit:
    def test_near_even_with_remainder_up_front(self):
        assert split_budget(10, 4) == [3, 3, 2, 2]
        assert split_budget(4, 4) == [1, 1, 1, 1]
        assert split_budget(7, 2) == [4, 3]

    def test_rejects_zero_chains(self):
        with pytest.raises(OptimizationError):
            split_budget(10, 0)


class TestChainMerge:
    def test_merge_bookkeeping(self, problem):
        explorer = DesignSpaceExplorer(problem)
        chains = [
            explorer.run("r-pbla", budget=150, seed=seed)
            for seed in (1, 2, 3)
        ]
        merged = merge_chain_results(chains)
        assert merged.evaluations == sum(c.evaluations for c in chains)
        assert merged.best_score == max(c.best_score for c in chains)
        assert merged.restarts == sum(c.restarts for c in chains) + 2
        scores = [s for _, s in merged.history]
        assert scores == sorted(scores)
        # tracked vs re-evaluated score: equal up to float associativity
        assert merged.history[-1][1] == pytest.approx(
            merged.best_score, rel=1e-12
        )

    def test_merge_rejects_empty(self):
        with pytest.raises(OptimizationError):
            merge_chain_results([])


class TestWorkerModelHydration:
    def test_pools_leave_shared_memory_unimported(self):
        # Local workers inherit the parent's coupling model through fork;
        # no pool path may export it into shared-memory segments.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = """
import sys
import numpy as np
from repro.appgraph import load_benchmark
from repro.core import DesignSpaceExplorer, MappingProblem
from repro.core.mapping import random_assignment_batch
from repro.noc import PhotonicNoC, mesh

problem = MappingProblem(load_benchmark("pip"), PhotonicNoC(mesh(3, 3)), "snr")
with DesignSpaceExplorer(problem) as explorer:
    evaluator = explorer.evaluator
    rows = random_assignment_batch(
        64, evaluator.n_tasks, evaluator.n_tiles, np.random.default_rng(0)
    )
    evaluator.evaluate_batch(rows, n_workers=2, min_shard_rows=1)
    explorer.compare(("rs", "sa"), budget=100, seed=1, n_workers=2)
print("multiprocessing.shared_memory" in sys.modules)
"""
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"
