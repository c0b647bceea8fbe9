"""Randomized Priority-Based List Algorithm (R-PBLA) — paper §II-D.2.

The paper's purpose-built heuristic: "the priority-based list approach
tries, at each step, to make the best move as possible within a list of
admitted moves, i.e. the moves consisting on swapping the tasks mapped onto
two different tiles. The list is ordered according to the worst-case power
loss or SNR associated with any potential move. The algorithm does not
allow uphill moves ... when the algorithm finds a local minimum, it records
the solution and generates another random starting point."

Implementation notes:

* the admitted moves are all tile-content swaps: two mapped tasks exchange
  tiles, or one task moves to an empty tile;
* the full move list is evaluated as one batch (the "priority list" is the
  score-ordered batch) and the best strictly improving move is taken —
  steepest descent;
* at a local minimum the incumbent is recorded and the search restarts
  from a fresh random mapping (the "randomized" part), until the
  evaluation budget is exhausted;
* moves are scored through the incremental
  :class:`~repro.core.delta.DeltaEvaluator` by default (identical scores
  and evaluation counts, O(E * affected) per move); ``use_delta=False``
  restores the full batched evaluation;
* the restarts are independent: no state carries across them except the
  incumbent record, so a budget-``B`` run decomposes into ``k`` merged
  runs of budget ``~B/k`` (``chain_decomposable``), which is what
  parallel DSE exploits to spread one run across worker processes;
* with a routed evaluator (``routes > 1``) the admitted moves also
  include the reroute moves of every multi-route CG edge
  (:meth:`~repro.core.evaluator.MappingEvaluator.move_array_for`), so the
  descent jointly refines placement and route choice; at ``routes == 1``
  the move list, RNG draws and results are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta import delta_engine, incumbent_score, score_neighbourhood
from repro.core.evaluator import MappingEvaluator
from repro.core.moves import Move, apply_move, swap_moves
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy

__all__ = ["PriorityBasedListAlgorithm", "Move", "swap_moves", "apply_move"]


class PriorityBasedListAlgorithm(MappingStrategy):
    """Steepest-descent over tile swaps with random restarts (R-PBLA)."""

    name = "r-pbla"
    chain_decomposable = True  # restarts share nothing but the incumbent

    def _run(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: np.random.Generator,
    ) -> OptimizationResult:
        tracker = BestTracker(evaluator)
        engine = delta_engine(evaluator, self._use_delta)
        restarts = -1  # the first start is not a restart
        current = None
        current_score = -np.inf
        while evaluator.evaluations < budget:
            if current is None:
                restarts += 1
                current = evaluator.random_vector(rng)
                current_score = incumbent_score(engine, evaluator, current)
                tracker.offer(current, current_score)
                continue
            moves = evaluator.move_array_for(current)
            remaining = budget - evaluator.evaluations
            if remaining <= 0:
                break
            if len(moves) > remaining:
                # Not enough budget for a full step: evaluate a random
                # subset so the budget is honoured exactly.
                picks = rng.choice(len(moves), size=remaining, replace=False)
                moves = moves[picks]
            scores = score_neighbourhood(engine, evaluator, current, moves)
            best_index = int(np.argmax(scores))
            if scores[best_index] > current_score:
                current = apply_move(current, moves[best_index])
                if engine is not None:
                    engine.commit(moves[best_index])
                current_score = float(scores[best_index])
                tracker.offer(current, current_score)
            else:
                # Local minimum: record and restart from a random point.
                current = None
        return tracker.result(self.name, restarts=max(restarts, 0))
