"""The Design Space Exploration engine (paper Fig. 1, box 4).

:class:`DesignSpaceExplorer` wires a :class:`MappingProblem` to the
strategy registry and the mapping evaluator: it runs a strategy by name
under an evaluation budget, or runs several strategies under the *same*
budget for a fair comparison — which is exactly the experiment of the
paper's Table II.

Parallel execution and the determinism contract
-----------------------------------------------

Both entry points accept ``n_workers`` (constructor default, per-call
override). The guarantees, enforced by
``tests/core/test_parallel_dse.py`` on top of the sequential guarantees
of ``tests/core/test_dse_determinism.py``:

* :meth:`compare` fans one worker task out per strategy. Every strategy's
  RNG stream is spawned from ``np.random.SeedSequence(seed)`` by its
  position in the strategy list — never from the worker count or the
  scheduling order — so for a fixed seed the best scores, best
  assignments, histories and evaluation counts are **bit-identical for
  every** ``n_workers`` (including the sequential ``n_workers=1`` path).
* :meth:`run` with ``n_workers > 1`` decomposes strategies that declare
  :attr:`~repro.core.strategy.MappingStrategy.chain_decomposable`
  (R-PBLA's random restarts, independent SA chains) into up to
  ``n_workers`` independent chains over a near-even budget split (capped
  so every chain covers the strategy's
  :attr:`~repro.core.strategy.MappingStrategy.min_chain_budget` and the
  merged spend never exceeds the budget), each chain seeded by
  its spawn index; the merge (see
  :func:`~repro.core.parallel.merge_chain_results`) is deterministic, so
  results are bit-identical for a given ``(seed, n_workers)``.
  ``n_workers=1`` takes today's sequential path unchanged. Strategies
  without a chain decomposition (GA's single population, tabu's single
  trajectory, RS's already-batched sampling) run sequentially whatever
  ``n_workers`` says.
* evaluation counts aggregate across workers into the returned
  :class:`~repro.core.result.OptimizationResult`\\ s (chains sum), so
  budget comparisons stay fair in every configuration.

Workers share the read-only coupling matrices they inherit from the
parent's process cache through fork (see :mod:`repro.core.parallel`) and
each worker builds its own strategy instance — ``optimize`` is documented
non-reentrant, one instance must never serve two concurrent runs.

Since PR 3 the executors are *persistent* (:mod:`repro.core.pool`): one
lazily created pool per (CG, network, n_workers) key serves
``compare()`` fan-outs, chain decompositions **and** the row sharding of
giant ``evaluate_batch`` calls, instead of a fresh pool per call. Batch
strategies (random search, the GA) declare
:attr:`~repro.core.strategy.MappingStrategy.batch_shardable`; for those,
``run(n_workers=k)`` shards their population scoring across the pool and
overlaps candidate generation with evaluation via
:meth:`~repro.core.evaluator.MappingEvaluator.submit_batch` — still
bit-identical to the sequential run for any worker count. Call
:meth:`DesignSpaceExplorer.close` (or use the explorer as a context
manager) to release the pools deterministically.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.core import parallel as _parallel
from repro.core import pool as _pool
from repro.core.evaluator import MappingEvaluator
from repro.core.executor import FanOut
from repro.core.problem import MappingProblem
from repro.core.registry import PAPER_STRATEGIES, create_strategy
from repro.core.result import OptimizationResult
from repro.core.strategy import MappingStrategy
from repro.errors import OptimizationError

__all__ = ["DesignSpaceExplorer"]


class DesignSpaceExplorer:
    """Runs mapping optimization strategies on one problem instance.

    ``use_delta`` (default True) lets local-search strategies score
    neighbourhoods through the incremental
    :class:`~repro.core.delta.DeltaEvaluator`; pass ``use_delta=False``
    (or override per call) as the escape hatch that forces every
    candidate through the full evaluator. Evaluation counting is
    identical either way, so budgets stay comparable.

    ``n_workers`` (default 1, per-call override) fans work out across a
    process pool — per-strategy runs in :meth:`compare`, independent
    chains of decomposable strategies in :meth:`run`; see the module
    docstring for the determinism contract.
    """

    def __init__(
        self,
        problem: MappingProblem,
        use_delta: bool = True,
        n_workers: int = 1,
        executor: str = "local",
    ) -> None:
        self.problem = problem
        self.evaluator = MappingEvaluator(problem, executor=executor)
        self.executor = self.evaluator.executor
        self.use_delta = bool(use_delta)
        self.n_workers = self._check_workers(n_workers)

    @staticmethod
    def _check_workers(n_workers: int) -> int:
        n_workers = int(n_workers)
        if n_workers < 1:
            raise OptimizationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        return n_workers

    def _resolve_workers(self, n_workers: Optional[int]) -> int:
        if n_workers is None:
            return self.n_workers
        return self._check_workers(n_workers)

    def run(
        self,
        strategy: Union[str, MappingStrategy],
        budget: int = 20_000,
        seed: Optional[int] = None,
        use_delta: Optional[bool] = None,
        n_workers: Optional[int] = None,
        **hyperparameters,
    ) -> OptimizationResult:
        """Run one strategy within ``budget`` mapping evaluations.

        Parameters
        ----------
        strategy : str or MappingStrategy
            Registry name (``"rs"``, ``"ga"``, ``"r-pbla"``, ``"sa"``,
            ``"tabu"``, or a user-registered one) or an instance.
        budget : int, optional
            Mapping-evaluation budget, the fair-comparison currency
            (default 20,000, the paper's Table II budget).
        seed : int, optional
            RNG seed; ``None`` draws fresh OS entropy.
        use_delta : bool, optional
            Override the explorer's delta-evaluation default for this
            run.
        n_workers : int, optional
            Override the explorer's worker count for this run.
        **hyperparameters
            Forwarded to the strategy constructor (only when ``strategy``
            is a name).

        Returns
        -------
        OptimizationResult
            Best mapping, metrics, convergence history and the exact
            evaluation spend.

        Notes
        -----
        With ``n_workers > 1`` and a
        :attr:`~repro.core.strategy.MappingStrategy.chain_decomposable`
        strategy, the budget is split into ``n_workers`` independent
        seeded chains executed in parallel and merged (bit-identical per
        ``(seed, n_workers)``); ``evaluations`` on the merged result is
        the summed per-chain spend. For
        :attr:`~repro.core.strategy.MappingStrategy.batch_shardable`
        strategies (RS, GA) the population scoring is sharded across the
        persistent pool instead — **bit-identical to the sequential run
        for any** ``n_workers``. Other strategies run sequentially
        whatever ``n_workers`` says.
        """
        if isinstance(strategy, str):
            strategy = create_strategy(strategy, **hyperparameters)
        elif hyperparameters:
            raise OptimizationError(
                "pass hyperparameters only when naming the strategy"
            )
        flag = self.use_delta if use_delta is None else bool(use_delta)
        workers = self._resolve_workers(n_workers)
        # Every chain must get at least the strategy's minimum spend, so
        # the merged evaluation count never exceeds the budget. getattr:
        # third-party strategies predating MappingStrategy's chain
        # attributes are plain non-decomposable callables.
        min_chain = getattr(strategy, "min_chain_budget", 1)
        decomposable = getattr(strategy, "chain_decomposable", False)
        n_chains = min(workers, budget // max(1, min_chain))
        if workers > 1 and decomposable and n_chains >= 2:
            return self._run_chains(strategy, budget, seed, flag, n_chains)
        rng = np.random.default_rng(seed)
        shardable = getattr(strategy, "batch_shardable", False)
        if workers > 1 and shardable:
            # Batch strategies (RS, GA) shard their population scoring
            # across the persistent pool instead: set the evaluator's
            # default shard width for the duration of this run.
            # Bit-identical to sequential for any worker count.
            previous = self.evaluator.n_workers
            self.evaluator.n_workers = workers
            try:
                return strategy.optimize(
                    self.evaluator, budget, rng, use_delta=flag
                )
            finally:
                self.evaluator.n_workers = previous
        return strategy.optimize(self.evaluator, budget, rng, use_delta=flag)

    def _run_chains(
        self,
        strategy: MappingStrategy,
        budget: int,
        seed,
        use_delta: bool,
        n_chains: int,
    ) -> OptimizationResult:
        """Fan ``n_chains`` independent chains of one strategy out and merge."""
        budgets = _parallel.split_budget(budget, n_chains)
        seeds = _parallel.spawn_seeds(seed, n_chains)
        tasks = [
            (strategy, chain_budget, chain_seed, use_delta, self.problem.objective)
            for chain_budget, chain_seed in zip(budgets, seeds)
        ]
        chain_results = self._run_tasks(n_chains, tasks)
        return _parallel.merge_chain_results(chain_results)

    def _run_tasks(self, n_workers: int, tasks) -> list:
        """Run one :func:`run_strategy_task` per argument tuple on the pool.

        Retries follow :class:`~repro.core.executor.FanOut`'s policy; a
        resubmitted task is bit-identical to the lost one because each
        task's RNG stream depends only on its seed.
        """
        return FanOut(
            lambda: _pool.get_pool(self.problem, n_workers, executor=self.executor),
            lambda pool: [
                pool.submit(_parallel.run_strategy_task, *task_args)
                for task_args in tasks
            ],
            len(tasks),
        ).results()

    def compare(
        self,
        strategies: Iterable[str] = PAPER_STRATEGIES,
        budget: int = 20_000,
        seed: Optional[int] = None,
        use_delta: Optional[bool] = None,
        n_workers: Optional[int] = None,
    ) -> Dict[str, OptimizationResult]:
        """Run several strategies under the same budget and seed base.

        Parameters
        ----------
        strategies : iterable of str, optional
            Strategy registry names (default: the paper's RS, GA,
            R-PBLA).
        budget : int, optional
            Evaluation budget granted to *each* strategy (default
            20,000).
        seed : int, optional
            Base seed; every strategy receives its own stream spawned
            from ``np.random.SeedSequence(seed)`` by list position.
        use_delta : bool, optional
            Override the explorer's delta-evaluation default.
        n_workers : int, optional
            Override the explorer's worker count.

        Returns
        -------
        dict of str to OptimizationResult
            One result per strategy name, in input order.

        Notes
        -----
        This is the reproducible analogue of the paper's
        equal-running-time comparison (Table II). With ``n_workers > 1``
        the strategies run concurrently, one persistent-pool task each;
        results are **bit-identical for every** ``n_workers`` because
        the RNG streams depend only on the seed and the list position,
        never on the worker count or scheduling order.
        """
        names = list(strategies)
        seeds = _parallel.spawn_seeds(seed, len(names))
        flag = self.use_delta if use_delta is None else bool(use_delta)
        workers = self._resolve_workers(n_workers)
        results: Dict[str, OptimizationResult] = {}
        if workers <= 1 or len(names) <= 1:
            for name, strategy_seed in zip(names, seeds):
                results[name] = self.run(
                    name,
                    budget=budget,
                    seed=strategy_seed,
                    use_delta=flag,
                    n_workers=1,
                )
            return results
        pool_size = min(workers, len(names))
        tasks = [
            (name, budget, strategy_seed, flag, self.problem.objective)
            for name, strategy_seed in zip(names, seeds)
        ]
        return dict(zip(names, self._run_tasks(pool_size, tasks)))

    def close(self) -> None:
        """Release the persistent worker pools serving this problem.

        Pools created by parallel :meth:`run` / :meth:`compare` calls (or
        by sharded batch evaluation through this explorer's evaluator)
        stay warm for reuse; ``close()`` shuts the ones keyed to this
        problem down deterministically, and their worker processes exit
        before it returns. Idempotent, and the explorer remains usable
        afterwards (the next parallel call builds a fresh pool). Also
        available as a context manager::

            with DesignSpaceExplorer(problem, n_workers=4) as explorer:
                results = explorer.compare(budget=20_000, seed=2016)
        """
        _pool.release_pools(self.problem)

    def __enter__(self) -> "DesignSpaceExplorer":
        """Enter a ``with`` block; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release this problem's pools on ``with``-block exit."""
        self.close()
