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
from typing import List, Optional, Sequence

import numpy as np

from repro.core.delta import delta_engine, score_neighbourhood
from repro.core.evaluator import MappingEvaluator
from repro.core.moves import REROUTE, Move, apply_move
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy
from repro.errors import OptimizationError

__all__ = ["SimulatedAnnealing"]

_WORD = 1 << 32


class _Words:
    """A generator's 32-bit words, fetched in blocks but never ahead of use.

    numpy's ``Generator.integers(0, n)`` for ``1 < n <= 2**32`` takes one
    32-bit word ``w`` and returns ``(w * n) >> 32``, drawing again while
    the low half of ``w * n`` is below ``(2**32 - n) % n`` (Lemire's
    rule); ``n == 1`` takes no word. :meth:`below` applies that rule to
    words fetched with ``integers(0, 2**32, dtype=uint32)``, which hands
    out exactly the words those scalar calls would read. Callers
    :meth:`reserve` only words certain to be used, so once they are
    done every fetched word has been used, and the generator is in the
    state the scalar calls leave.
    """

    __slots__ = ("_rng", "_words", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._words: list = []
        self._next = 0

    def reserve(self, count: int) -> None:
        """Hold at least ``count`` unused words; fetch only the shortfall."""
        short = count - len(self._words) + self._next
        if short > 0:
            fetched = self._rng.integers(0, _WORD, size=short, dtype=np.uint32)
            self._words = self._words[self._next:] + fetched.tolist()
            self._next = 0

    def below(self, n: int) -> int:
        """``int(rng.integers(0, n))`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        threshold = (_WORD - n) % n
        while True:
            if self._next == len(self._words):
                self.reserve(1)  # a rejected word's redraw
            product = self._words[self._next] * n
            self._next += 1
            if product & 0xFFFFFFFF >= threshold:
                return product >> 32


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

    @staticmethod
    def _holders(assignment: np.ndarray, n_tiles: int) -> list:
        """Tile -> task table of an assignment (-1 marks an empty tile)."""
        holder = np.full(n_tiles, -1, dtype=np.int64)
        holder[assignment] = np.arange(len(assignment))
        return holder.tolist()

    @staticmethod
    def _propose_moves(
        count: int,
        vector: list,
        holder: list,
        n_tasks: int,
        rng: np.random.Generator,
        menus: Optional[list] = None,
        rerouteable: Sequence[int] = (),
    ) -> List[Move]:
        """``count`` random moves (task, target tile, other) from ``vector``.

        A mapping move draws a task and a tile; a tile the task already
        holds becomes a swap with another random task, any other tile a
        swap with its holder (``holder`` lists each tile's task, -1 when
        empty, so a relocation). With ``menus`` (a routed evaluator's
        per-edge menu sizes) each move first draws a site over the tasks
        plus the ``rerouteable`` edges: a task site makes a mapping
        move, an edge site redraws that edge's route gene uniformly
        among the other menu entries. Mapping-only runs pass no
        ``menus`` and draw no site.

        Every draw is the ``rng.integers(0, n)`` a one-move-at-a-time
        proposer would make, in the same order, taken from blocks of the
        generator's words (:class:`_Words`): the moves and the
        generator's final state are the scalar calls' exactly. A CG has
        at least two tasks, so a mapping move takes at least two words
        and a site one.
        """
        words = _Words(rng)
        n_tiles = len(holder)
        n_sites = n_tasks + len(rerouteable)
        moves = []
        for k in range(count):
            left = count - k
            if menus is not None:
                words.reserve(left)
                site = words.below(n_sites)
                if site >= n_tasks:
                    edge = rerouteable[site - n_tasks]
                    menu = menus[edge]
                    gene = words.below(menu - 1)
                    if gene >= vector[n_tasks + edge] % menu:
                        gene += 1
                    moves.append((n_tasks + edge, gene, REROUTE))
                    continue
                words.reserve(left + 1)
            else:
                words.reserve(2 * left)
            task = words.below(n_tasks)
            tile = words.below(n_tiles)
            if tile == vector[task]:
                # Proposed its own tile: swap with another random task.
                other = (task + 1 + words.below(n_tasks - 1)) % n_tasks
                moves.append((task, vector[other], other))
            else:
                moves.append((task, tile, holder[tile]))
        return moves

    def _propose(self, assignment: np.ndarray, n_tiles: int,
                 rng: np.random.Generator) -> np.ndarray:
        """One random swap/relocation neighbour."""
        (move,) = self._propose_moves(
            1, assignment.tolist(), self._holders(assignment, n_tiles),
            len(assignment), rng,
        )
        return apply_move(assignment, move)

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
        floor = initial_temperature * self.final_temperature_ratio
        n_tasks = evaluator.n_tasks
        while evaluator.evaluations < budget:
            count = min(self.batch_size, budget - evaluator.evaluations)
            base = current
            vector = base.tolist()
            holder = self._holders(base[:n_tasks], evaluator.n_tiles)
            if evaluator.routes > 1:
                menus = evaluator.edge_menu_sizes(base)
                moves = self._propose_moves(
                    count, vector, holder, n_tasks, rng,
                    menus.tolist(), np.flatnonzero(menus > 1).tolist(),
                )
            else:
                moves = self._propose_moves(count, vector, holder, n_tasks, rng)
            scores = score_neighbourhood(engine, evaluator, base, moves).tolist()
            # Every proposal is a neighbour of the batch's base, so an
            # acceptance replaces the incumbent with base + that move;
            # only the last accepted move survives the batch and only it
            # needs committing to the delta engine.
            accepted = None
            for k in range(count):
                gain = scores[k] - current_score
                if gain >= 0 or rng.random() < math.exp(gain / temperature):
                    accepted = k
                    current_score = scores[k]
                    if tracker.improves(current_score):
                        tracker.offer(apply_move(base, moves[k]), current_score)
                temperature = max(temperature * cooling, floor)
            if accepted is not None:
                current = apply_move(base, moves[accepted])
                if engine is not None:
                    engine.commit(moves[accepted])
        return tracker.result(self.name)
