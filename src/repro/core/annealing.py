"""Simulated annealing — an "Other Strategies" extension (paper Fig. 1).

The paper's R-PBLA explicitly forbids uphill moves and compensates with
restarts; simulated annealing is the classic alternative that escapes local
minima by accepting uphill moves with a temperature-controlled probability.
Included as one of the pluggable extension strategies the tool invites.

The initial temperature is calibrated from the score spread of a small
random sample, so the strategy works untouched across objectives whose
scales differ (dB of SNR vs dB of loss). Each run is one self-contained
chain (calibration included), so a budget splits into independent chains
(``chain_decomposable``) that parallel DSE can merge across workers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.delta import delta_engine, score_neighbourhood
from repro.core.evaluator import MappingEvaluator
from repro.core.moves import REROUTE, Move, apply_move
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy
from repro.errors import OptimizationError

__all__ = ["SimulatedAnnealing"]


class SimulatedAnnealing(MappingStrategy):
    """Metropolis search over tile swaps with geometric cooling.

    With a routed evaluator (``routes > 1``) the proposal distribution
    widens to the joint neighbourhood: move sites cover the tasks plus
    every reroutable CG edge, so one chain explores placements and route
    choices together. At ``routes == 1`` proposals, RNG consumption and
    results are bit-identical to mapping-only search.
    """

    name = "sa"
    chain_decomposable = True  # chains are independent, calibration included
    min_chain_budget = 2  # a chain pays >= 2 calibration evaluations

    def __init__(
        self,
        calibration_samples: int = 32,
        final_temperature_ratio: float = 1e-3,
        batch_size: int = 64,
    ):
        if calibration_samples < 2:
            raise OptimizationError("SA needs at least 2 calibration samples")
        if not (0 < final_temperature_ratio < 1):
            raise OptimizationError("final temperature ratio must be in (0, 1)")
        self.calibration_samples = int(calibration_samples)
        self.final_temperature_ratio = float(final_temperature_ratio)
        self.batch_size = int(batch_size)

    def _propose_move(self, assignment: np.ndarray, n_tiles: int,
                      rng: np.random.Generator) -> Move:
        """One random swap/relocation move (task, target tile, other)."""
        task = int(rng.integers(0, len(assignment)))
        tile = int(rng.integers(0, n_tiles))
        if tile == assignment[task]:
            # Proposed its own tile: swap with another random task instead.
            other = int(
                (task + 1 + rng.integers(0, len(assignment) - 1))
                % len(assignment)
            )
            return (task, int(assignment[other]), other)
        holder = np.nonzero(assignment == tile)[0]
        if len(holder):
            return (task, tile, int(holder[0]))
        return (task, tile, -1)

    def _propose_joint_move(
        self,
        vector: np.ndarray,
        menus: np.ndarray,
        n_tasks: int,
        n_tiles: int,
        rng: np.random.Generator,
    ) -> Move:
        """One random move over the joint mapping x routing neighbourhood.

        A move site is drawn uniformly over the tasks plus the edges
        whose current tile pair offers more than one route; a task site
        delegates to the mapping proposer, an edge site redraws that
        edge's route gene uniformly among the other menu entries. Only
        reached when ``routes > 1``, so mapping-only runs consume the
        RNG exactly as before.
        """
        rerouteable = np.flatnonzero(menus > 1)
        site = int(rng.integers(0, n_tasks + len(rerouteable)))
        if site < n_tasks:
            return self._propose_move(vector[:n_tasks], n_tiles, rng)
        edge = int(rerouteable[site - n_tasks])
        menu = int(menus[edge])
        gene = int(rng.integers(0, menu - 1))
        if gene >= int(vector[n_tasks + edge]) % menu:
            gene += 1
        return (n_tasks + edge, gene, REROUTE)

    def _propose(self, assignment: np.ndarray, n_tiles: int,
                 rng: np.random.Generator) -> np.ndarray:
        """One random swap/relocation neighbour."""
        return apply_move(
            assignment, self._propose_move(assignment, n_tiles, rng)
        )

    def _run(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: np.random.Generator,
    ) -> OptimizationResult:
        tracker = BestTracker(evaluator)
        engine = delta_engine(evaluator, self._use_delta)
        # Clamp to the budget too: a budget of 1 must not pay a
        # 2-evaluation calibration (std of one sample is simply 0).
        samples = min(self.calibration_samples, max(2, budget // 4), budget)
        calibration = evaluator.random_vector_batch(samples, rng)
        calibration_scores = evaluator.evaluate_batch(
            calibration, score_only=True
        ).score
        tracker.offer_batch(calibration, calibration_scores)
        spread = float(np.std(calibration_scores))
        initial_temperature = max(spread, 1e-3)
        current = calibration[int(np.argmax(calibration_scores))].copy()
        current_score = float(calibration_scores.max())
        if engine is not None:
            # The incumbent's score was already paid for by the
            # calibration batch; don't charge the reset again.
            engine.reset(current, count=False)

        total_steps = max(1, budget - samples)
        cooling = self.final_temperature_ratio ** (1.0 / total_steps)
        temperature = initial_temperature
        while evaluator.evaluations < budget:
            count = min(self.batch_size, budget - evaluator.evaluations)
            base = current
            if evaluator.routes > 1:
                menus = evaluator.edge_menu_sizes(base)
                moves = [
                    self._propose_joint_move(
                        base, menus, evaluator.n_tasks, evaluator.n_tiles, rng
                    )
                    for _ in range(count)
                ]
            else:
                moves = [self._propose_move(base, evaluator.n_tiles, rng)
                         for _ in range(count)]
            scores = score_neighbourhood(engine, evaluator, base, moves)
            # Every proposal is a neighbour of the batch's base, so an
            # acceptance replaces the incumbent with base + that move;
            # only the last accepted move survives the batch and only it
            # needs committing to the delta engine.
            accepted = None
            for k in range(count):
                gain = float(scores[k]) - current_score
                if gain >= 0 or rng.random() < math.exp(gain / temperature):
                    accepted = k
                    current = apply_move(base, moves[k])
                    current_score = float(scores[k])
                    tracker.offer(current, current_score)
                temperature = max(
                    temperature * cooling,
                    initial_temperature * self.final_temperature_ratio,
                )
            if engine is not None and accepted is not None:
                engine.commit(moves[accepted])
        return tracker.result(self.name)
