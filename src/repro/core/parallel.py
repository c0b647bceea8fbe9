"""Multi-process plumbing for the design-space exploration engine.

:class:`~repro.core.dse.DesignSpaceExplorer` parallelizes two workloads:

* the per-strategy runs of ``compare()`` — one worker task per strategy,
  so the results are bit-identical to the sequential loop for *any*
  worker count (each strategy's RNG stream depends only on the seed and
  its position in the strategy list, never on scheduling);
* the chain decomposition of a single ``run()`` for strategies that
  declare ``chain_decomposable`` (R-PBLA's random restarts, independent
  SA chains): the budget is split across ``n_workers`` independent
  chains, each with its own spawned RNG stream, and the chain results are
  merged deterministically — bit-identical for a given
  ``(seed, n_workers)``.

The heavy read-only state — the :class:`~repro.models.coupling.CouplingModel`
matrices — reaches a worker the way it reaches every evaluator, through
:meth:`CouplingModel.for_network` by cache key. A local pool resolves the
model (plus the transpose or CSR arrays its noise kernel reads) before
its workers fork, so each worker finds it in the inherited process cache,
copy-on-write, and never pickles or rebuilds the O(n_pairs^2) coupling
matrix. A worker that did not fork from the parent, such as a
``phonocmap worker``, loads the model from its process's on-disk model
cache or, at worst, builds it and saves it there.

Since PR 3 the executors themselves are owned by :mod:`repro.core.pool`
and persist across calls: each worker holds a :class:`WorkerContext`
built from a *problem* (not an evaluator), which builds evaluators
lazily per objective, and :func:`evaluate_shard_task` lets the same
pool score row shards of one giant ``evaluate_batch`` call (see
:meth:`repro.core.evaluator.MappingEvaluator.evaluate_batch`). A task
function takes the context of the worker that runs it as its first
argument, which every backend supplies; :data:`TASKS` names the task
functions on the TCP wire.

Budget accounting: every worker task returns an
:class:`~repro.core.result.OptimizationResult` whose ``evaluations`` field
counts that task's actual spend; :func:`merge_chain_results` sums them, so
a merged parallel run reports exactly what it consumed and budget
comparisons against sequential runs stay fair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.core.problem import MappingProblem
from repro.core.registry import create_strategy
from repro.core.result import OptimizationResult
from repro.core.strategy import MappingStrategy
from repro.errors import OptimizationError
from repro.models.coupling import set_model_cache_dir

__all__ = [
    "TASKS",
    "WorkerContext",
    "split_budget",
    "spawn_seeds",
    "merge_chain_results",
    "run_strategy_task",
    "evaluate_shard_task",
]


def spawn_seeds(
    seed: Optional[int], n: int
) -> List[Optional[np.random.SeedSequence]]:
    """``n`` independent child seed sequences of ``seed``.

    ``np.random.SeedSequence.spawn`` gives statistically independent
    streams whatever the parent seed is — unlike arithmetic schemes such
    as ``seed + 7919 * index``, whose streams collide across nearby
    seeds. ``seed=None`` yields ``None`` children (fresh OS entropy per
    run, the sequential convention).
    """
    if seed is None:
        return [None] * n
    return list(np.random.SeedSequence(seed).spawn(n))


def split_budget(budget: int, n_chains: int) -> List[int]:
    """Near-even budget split; earlier chains absorb the remainder."""
    if n_chains < 1:
        raise OptimizationError(f"need at least one chain, got {n_chains}")
    base, extra = divmod(budget, n_chains)
    return [base + (1 if i < extra else 0) for i in range(n_chains)]


def merge_chain_results(
    chain_results: Sequence[OptimizationResult],
) -> OptimizationResult:
    """Merge independent chains as if they had run back to back.

    * the winner is the first chain reaching the maximum best score (ties
      break on chain order, which is deterministic);
    * ``evaluations`` sums the per-chain spends, so the merged result
      reports exactly the budget consumed;
    * ``history`` replays the chains in order with cumulative evaluation
      offsets, keeping only strictly improving waypoints — the
      convergence curve an equivalent sequential multi-start run would
      have recorded;
    * ``restarts`` sums the per-chain restarts plus one per extra chain
      (every chain after the first began from a fresh random point).
    """
    if not chain_results:
        raise OptimizationError("no chain produced a result")
    winner = max(chain_results, key=lambda r: r.best_score)
    history = []
    best_so_far = -np.inf
    offset = 0
    for result in chain_results:
        for evaluations, score in result.history:
            if score > best_so_far:
                best_so_far = score
                history.append((offset + evaluations, score))
        offset += result.evaluations
    return OptimizationResult(
        strategy=winner.strategy,
        best_mapping=winner.best_mapping,
        best_metrics=winner.best_metrics,
        evaluations=offset,
        history=history,
        restarts=sum(r.restarts for r in chain_results)
        + (len(chain_results) - 1),
    )


# ---------------------------------------------------------------------------
# Worker contexts
# ---------------------------------------------------------------------------


class WorkerContext:
    """The state one executor worker holds to evaluate a problem.

    A context is everything :func:`run_strategy_task` and
    :func:`evaluate_shard_task` need to run: the problem and a
    per-objective evaluator cache (evaluators are built lazily — one
    warm context serves e.g. both the SNR and the power-loss pass of a
    Table II cell, because executors are keyed objective-free). Its
    evaluators resolve models through the process's caches, so a
    context carries no cache directory.

    Where a context lives depends on the backend: a pool worker process
    holds exactly one (installed by :func:`_init_worker`); the inline
    backend holds one per backend instance; a ``phonocmap worker``
    process holds one per scheduler-initialized pool key. Each backend
    passes its context to every task function it runs.
    """

    def __init__(self, problem: MappingProblem):
        self.problem = problem
        self.evaluators: Dict[object, MappingEvaluator] = {}

    def evaluator(self, objective=None) -> MappingEvaluator:
        """This context's evaluator for ``objective`` (built once, cached)."""
        from repro.core.objectives import Objective

        problem = self.problem
        objective = (
            problem.objective if objective is None else Objective.parse(objective)
        )
        evaluator = self.evaluators.get(objective)
        if evaluator is None:
            if problem.objective is objective:
                target = problem
            else:
                # Keep the variation plan on objective flips: the pool
                # key includes it, so every evaluator of this context
                # must produce the same metric-table set.
                target = problem.with_objective(objective)
            evaluator = MappingEvaluator(target)
            self.evaluators[objective] = evaluator
        return evaluator


#: A pool worker process's context, installed by :func:`_init_worker`.
_PROCESS_CONTEXT: Optional[WorkerContext] = None


def _init_worker(problem: MappingProblem, cache_dir: Optional[str]) -> None:
    """Pool initializer: apply the parent's model cache directory and
    install the process context.

    The context's evaluators resolve the coupling model lazily through
    :meth:`~repro.models.coupling.CouplingModel.for_network`: a forked
    worker finds it in the process cache it inherited (and the cache
    directory with it), any other worker loads it from ``cache_dir`` or
    rebuilds it. Each resolves the noise kernel from the same CG and
    model as the parent, so shard results are bit-identical to the
    inline path.
    """
    global _PROCESS_CONTEXT
    set_model_cache_dir(cache_dir)
    _PROCESS_CONTEXT = WorkerContext(problem)


def _run_in_worker(fn, *args):
    """Pool-worker trampoline: ``fn`` against this process's context."""
    return fn(_PROCESS_CONTEXT, *args)


def run_strategy_task(
    context: WorkerContext,
    strategy: Union[str, MappingStrategy],
    budget: int,
    seed,
    use_delta: bool,
    objective=None,
) -> OptimizationResult:
    """One worker task: run one strategy (or one chain of one) to completion.

    Parameters
    ----------
    context : WorkerContext
        The running worker's state; supplies the evaluator.
    strategy : str or MappingStrategy
        A registry name (instantiated here, so hyperparameter defaults
        apply) or a pickled strategy instance — either way this worker
        gets its own instance, which is what makes the non-reentrant
        ``optimize`` contract (the ``_use_delta`` stash) safe under
        parallelism.
    budget : int
        Evaluation budget for this run or chain.
    seed : int, SeedSequence or None
        Exactly as ``np.random.default_rng`` accepts.
    use_delta : bool
        Whether local-search strategies may use the incremental
        delta evaluator.
    objective : Objective or str, optional
        Objective to optimize; defaults to the pool's initial problem
        objective. Passed explicitly by the DSE because persistent pools
        are shared across objectives.

    Returns
    -------
    OptimizationResult
        The completed run, with its actual evaluation spend.
    """
    evaluator = context.evaluator(objective)
    if isinstance(strategy, str):
        strategy = create_strategy(strategy)
    rng = np.random.default_rng(seed)
    return strategy.optimize(evaluator, budget, rng, use_delta=use_delta)


def evaluate_shard_task(
    context: WorkerContext, assignments: np.ndarray, names=None
):
    """One worker task: score one shard of an ``evaluate_batch`` call.

    Parameters
    ----------
    context : WorkerContext
        The running worker's state; supplies the evaluator.
    assignments : numpy.ndarray
        ``(m, n_tasks)`` slice of the parent's batch (rows are trusted
        valid, exactly like ``evaluate_batch``).
    names : tuple of str, optional
        The tables the parent's batch reads (default: every table);
        the shard computes only those.

    Returns
    -------
    tuple of numpy.ndarray
        Per-row metric vectors, one per name in the context evaluator's
        ``table_names`` (the base tables, plus the robust column when
        the pool's problem carries a variation plan — identical to the
        parent's set because the variation fingerprint is part of the
        pool key), ``None`` for each table not in ``names``. The
        objective-dependent score is applied by the parent, which keeps
        this task — and therefore the pool — objective-free.

    Notes
    -----
    Row results are independent of chunking and of shard boundaries
    (every reduction runs within a row), so the parent's concatenation
    is bit-identical to evaluating the whole batch sequentially.
    """
    evaluator = context.evaluator()
    return evaluator._evaluate_rows(np.asarray(assignments, dtype=np.int64), names)


#: Task functions by wire name: what a TCP scheduler sends and a
#: ``phonocmap worker`` runs. The one registry both sides read.
TASKS = {"strategy": run_strategy_task, "shard": evaluate_shard_task}
