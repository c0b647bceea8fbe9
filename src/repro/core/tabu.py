"""Tabu search — an "Other Strategies" extension (paper Fig. 1).

A sampled-neighbourhood tabu search over the same move set as R-PBLA:
each iteration evaluates a random sample of swap/relocation moves, discards
recently reversed moves (the tabu list, keyed by (task, target tile))
unless they beat the incumbent (aspiration), and takes the best admissible
move even when it is uphill.

Neighbourhoods are scored through the incremental
:class:`~repro.core.delta.DeltaEvaluator` by default (identical scores and
evaluation counts, O(E * affected) per move); ``use_delta=False`` restores
the full batched evaluation.

With a routed evaluator (``routes > 1``) the sampled neighbourhood also
covers the reroute moves of every multi-route CG edge
(:meth:`~repro.core.evaluator.MappingEvaluator.moves_for`), and the tabu
list keys reroute reversals on (gene slot, previous gene). At
``routes == 1`` the move list, RNG draws and results are unchanged.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.delta import (
    delta_engine,
    incumbent_score,
    score_neighbourhood,
)
from repro.core.evaluator import MappingEvaluator
from repro.core.moves import apply_move, reroute_moves, swap_moves
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy
from repro.errors import OptimizationError

__all__ = ["TabuSearch"]


class TabuSearch(MappingStrategy):
    """Best-admissible-move search with a fixed-tenure tabu list."""

    name = "tabu"

    def __init__(self, neighbourhood_size: int = 64, tenure: int = 24):
        if neighbourhood_size < 1:
            raise OptimizationError("neighbourhood size must be >= 1")
        if tenure < 1:
            raise OptimizationError("tabu tenure must be >= 1")
        self.neighbourhood_size = int(neighbourhood_size)
        self.tenure = int(tenure)

    @staticmethod
    def _reversal_keys(move, current: np.ndarray):
        """The (task, target tile) keys that would undo ``move``.

        For a relocation that is the moved task returning to its old
        tile; for a swap *both* tasks' returns go tabu. The same swap
        can be expressed with either task as the primary ((a, old_a, b)
        and (b, old_b, a) are one move), so keying only the primary
        leaves the partner orientation admissible — today's
        ``swap_moves`` happens to enumerate swaps lower-index-first,
        which hides the exact next-iteration undo, but the ``Move``
        contract allows either orientation (SA's proposer emits both).
        While in tenure the partner's key also blocks any move it
        *leads* back to its old tile (a relocation, or a swap with a
        third task where it is the primary); admissibility keys on the
        primary only, so it can still return as the partner of a third
        task's move. Each swap consumes two tenure slots.

        A reroute move keys on (gene slot, current gene) — the same
        shape, since gene slots (``n_tasks + edge``) never collide with
        task indices — so undoing a route choice is tabu exactly like
        undoing a relocation.
        """
        keys = [(move[0], int(current[move[0]]))]
        if move[2] >= 0:
            keys.append((move[2], int(current[move[2]])))
        return keys

    def _run(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: np.random.Generator,
    ) -> OptimizationResult:
        tracker = BestTracker(evaluator)
        engine = delta_engine(evaluator, self._use_delta)
        current = evaluator.random_vector(rng)
        current_score = incumbent_score(engine, evaluator, current)
        tracker.offer(current, current_score)
        tabu: deque = deque(maxlen=self.tenure)
        tabu_set = set()

        def push_tabu(key) -> None:
            if len(tabu) == tabu.maxlen:
                tabu_set.discard(tabu[0])
            tabu.append(key)
            tabu_set.add(key)

        while evaluator.evaluations < budget:
            # The mapping moves stay a module-level swap_moves call (a
            # patchable seam); reroutes extend them when routed.
            moves = swap_moves(
                current[: evaluator.n_tasks], evaluator.n_tiles
            )
            if evaluator.routes > 1:
                moves += reroute_moves(
                    current,
                    evaluator.n_tasks,
                    evaluator.edge_menu_sizes(current),
                )
            sample_size = min(
                self.neighbourhood_size,
                len(moves),
                budget - evaluator.evaluations,
            )
            if sample_size < 1:
                break
            picks = rng.choice(len(moves), size=sample_size, replace=False)
            sampled = [moves[p] for p in picks.tolist()]
            scores = score_neighbourhood(engine, evaluator, current, sampled)
            order = np.argsort(scores)[::-1]
            chosen = None
            for index in order:
                move = sampled[int(index)]
                key = (move[0], move[1])
                aspiration = scores[index] > tracker.best_score
                if key not in tabu_set or aspiration:
                    chosen = int(index)
                    break
            if chosen is None:
                chosen = int(order[0])  # everything tabu: take the best anyway
            move = sampled[chosen]
            for key in self._reversal_keys(move, current):
                push_tabu(key)
            current = apply_move(current, move)
            if engine is not None:
                engine.commit(move)
            current_score = float(scores[chosen])
            tracker.offer(current, current_score)
        return tracker.result(self.name)
