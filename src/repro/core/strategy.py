"""Strategy base class and shared optimizer utilities (paper §II-D.2).

"PhoNoCMap is designed to allow users to choose between a number of mapping
optimization algorithms, or extend the library themselves with other
algorithms" — a strategy is a class with a ``name``, hyperparameters set in
``__init__``, and an :meth:`MappingStrategy.optimize` method driven purely
by the evaluator and an evaluation budget. New strategies plug in through
:mod:`repro.core.registry`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import Mapping
from repro.core.result import OptimizationResult
from repro.errors import OptimizationError

__all__ = ["MappingStrategy", "BestTracker"]


class BestTracker:
    """Tracks the incumbent solution and the convergence history."""

    def __init__(self, evaluator: MappingEvaluator):
        self._evaluator = evaluator
        self.best_assignment: Optional[np.ndarray] = None
        self.best_score = -np.inf
        self.history = []

    def offer(self, assignment: np.ndarray, score: float) -> bool:
        """Submit a candidate; returns True when it becomes the incumbent."""
        if score > self.best_score:
            self.best_score = float(score)
            self.best_assignment = np.array(assignment, dtype=np.int64)
            self.history.append((self._evaluator.evaluations, self.best_score))
            return True
        return False

    def offer_batch(self, assignments: np.ndarray, scores: np.ndarray) -> bool:
        """Submit a batch; returns True when the incumbent improved."""
        index = int(np.argmax(scores))
        return self.offer(assignments[index], float(scores[index]))

    def result(self, strategy_name: str, restarts: int = 0) -> OptimizationResult:
        """Package the incumbent into an :class:`OptimizationResult`."""
        if self.best_assignment is None:
            raise OptimizationError(
                f"{strategy_name}: no candidate was ever evaluated"
            )
        evaluator = self._evaluator
        vector = self.best_assignment
        mapping = Mapping(
            evaluator.cg, vector[: evaluator.n_tasks], evaluator.n_tiles
        )
        if len(vector) > evaluator.n_tasks:
            # Joint search: the tail of the vector is the route genes; the
            # metrics must be re-scored under them, not the base routes.
            metrics = evaluator.evaluate(vector)
            route_genes = vector[evaluator.n_tasks :].copy()
        else:
            metrics = evaluator.evaluate(mapping)
            route_genes = None
        evaluator.evaluations -= 1  # bookkeeping: re-scoring is not search
        return OptimizationResult(
            strategy=strategy_name,
            best_mapping=mapping,
            best_metrics=metrics,
            evaluations=evaluator.evaluations,
            history=list(self.history),
            restarts=restarts,
            route_genes=route_genes,
        )


class MappingStrategy:
    """Base class for mapping optimization strategies."""

    #: Registry name; subclasses must override.
    name = "abstract"

    #: Whether local-search strategies may score neighbourhoods through the
    #: incremental :class:`~repro.core.delta.DeltaEvaluator` instead of the
    #: full ``evaluate_batch`` path. Population strategies (RS, GA) have no
    #: incumbent-relative moves and ignore the flag. Evaluation counts are
    #: identical either way, so budget comparisons stay fair.
    _use_delta = True

    #: Whether a budget-``B`` run of this strategy is equivalent to ``k``
    #: independent runs of budget ``~B/k`` whose results are merged —
    #: true for multi-start searches whose state does not span restarts
    #: (R-PBLA's random restarts, independent SA chains), false when one
    #: stateful trajectory or population consumes the whole budget (GA,
    #: tabu). Parallel DSE (``DesignSpaceExplorer.run(n_workers=k)``)
    #: only fans out strategies that set this; the rest run sequentially.
    chain_decomposable = False

    #: Smallest per-chain budget under which one chain still spends no
    #: more than its budget (SA's temperature calibration needs 2
    #: evaluations, for example). Chain decomposition never splits a
    #: budget below this floor, so merged evaluation counts stay within
    #: the requested budget and comparisons stay fair.
    min_chain_budget = 1

    #: Whether this strategy scores large candidate batches that are
    #: worth sharding across the persistent worker pool — true for the
    #: population strategies (RS, GA), whose ``evaluate_batch`` calls
    #: span thousands of rows; false for local searches, whose small
    #: neighbourhood batches would be dominated by IPC overhead.
    #: ``DesignSpaceExplorer.run(n_workers=k)`` sets the evaluator's
    #: shard width only for strategies that set this; results stay
    #: bit-identical either way.
    batch_shardable = False

    def optimize(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: Optional[np.random.Generator] = None,
        use_delta: bool = True,
    ) -> OptimizationResult:
        """Search for the best mapping within ``budget`` evaluations.

        Parameters
        ----------
        evaluator : MappingEvaluator
            The evaluator to score candidates with (and charge the
            budget to). If its ``n_workers`` is above one, batch
            strategies shard their scoring across the persistent worker
            pool — results are bit-identical for any shard width.
        budget : int
            Maximum mapping evaluations to spend; must be >= 1.
        rng : numpy.random.Generator, optional
            Source of all randomness; ``None`` draws fresh OS entropy.
        use_delta : bool, optional
            ``False`` is the escape hatch that forces every candidate
            through the full evaluator (bitwise-reference scoring; O(E^2)
            per candidate for SNR-family objectives, whose score reads
            the noise contraction, O(E) for loss-family ones).

        Returns
        -------
        OptimizationResult
            Best mapping found, its metrics, the convergence history and
            the exact evaluation spend.

        Notes
        -----
        The delta flag is stashed on the instance for ``_run`` (keeping
        the subclass contract unchanged), so a single strategy instance
        is **not re-entrant** across concurrent ``optimize`` calls —
        parallel DSE uses one instance per worker.
        """
        if budget < 1:
            raise OptimizationError(f"budget must be >= 1, got {budget}")
        rng = rng if rng is not None else np.random.default_rng()
        self._use_delta = bool(use_delta)
        evaluator.reset_count()
        return self._run(evaluator, budget, rng)

    def _run(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: np.random.Generator,
    ) -> OptimizationResult:
        raise NotImplementedError
