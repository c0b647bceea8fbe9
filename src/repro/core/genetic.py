"""Genetic Algorithm (GA) — paper §II-D.2.

"The genetic algorithm creates a fixed-sized population of candidate
solutions that, using the crossover and mutation operators, evolves over a
number of generations toward better solutions."

Encoding: a chromosome is a permutation of *all* tiles; the first
``n_tasks`` genes are the task assignments and the rest are the unused
tiles. Keeping the full permutation lets the classic PMX (partially mapped
crossover) operator preserve injectivity — eq. (6) — by construction, and
lets mutation move tasks onto empty tiles by swapping into the tail.

With a routed evaluator (``routes > 1``) the chromosome grows a route-gene
segment: one gene per CG edge, appended after the permutation. PMX still
operates on the permutation alone; route genes cross over uniformly and
mutate by redrawing one edge's gene. Every route-gene draw is gated on
``routes > 1``, so at ``routes == 1`` the chromosome, RNG draws and
results are bit-identical to mapping-only GA.

Each generation is bred as one array program: every tournament comes from
a single draw, crossover and mutation are whole-generation masks, and one
:func:`pmx_crossover_batch` call crosses every selected pair, so breeding
costs a fixed number of numpy calls whatever the population size.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy
from repro.errors import OptimizationError

__all__ = ["GeneticAlgorithm", "pmx_crossover", "pmx_crossover_batch"]


def _distinct_pairs(rng: np.random.Generator, n: int, count: int):
    """``count`` pairs ``lo < hi`` of distinct values in ``range(n)``.

    Each pair is uniform over the ``n * (n - 1) / 2`` unordered pairs —
    the distribution of ``sorted(rng.choice(n, 2, replace=False))`` —
    and all of them come from one draw: a uniform index into the
    ``n * (n - 1)`` ordered pairs, split into a first value and a
    second one among the remaining ``n - 1``.
    """
    first, second = np.divmod(rng.integers(0, n * (n - 1), size=count), n - 1)
    second += second >= first
    return np.minimum(first, second), np.maximum(first, second)


def pmx_crossover_batch(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Row-wise partially mapped crossover at explicit cut points.

    Parameters
    ----------
    parents_a, parents_b : numpy.ndarray
        ``(M, n)`` batches of permutations of ``range(n)``.
    lo, hi : numpy.ndarray
        ``(M,)`` cut points, ``0 <= lo[r] < hi[r] <= n``.

    Returns
    -------
    numpy.ndarray
        ``(M, n)`` int64 children: row ``r`` carries ``parents_a[r]``'s
        slice ``lo[r]:hi[r]`` and parent B's genes everywhere else,
        with PMX conflict resolution, so every row is a permutation.
    """
    parents_a = np.asarray(parents_a, dtype=np.int64)
    parents_b = np.asarray(parents_b, dtype=np.int64)
    n_rows, size = parents_a.shape
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    passes = int((hi - lo).max(initial=1) - 1).bit_length()
    # Flat cell index of row r, column c: r * size + c.
    columns = np.arange(size)
    offset = np.arange(n_rows)[:, None] * size
    cells = (columns + offset).ravel()
    in_slice = ((columns >= lo[:, None]) & (columns < hi[:, None])).ravel()
    cell_in_a = np.empty(n_rows * size, dtype=np.int64)
    cell_in_a[(parents_a + offset).ravel()] = cells
    # One PMX step from a cell: to the cell where A holds B's gene of
    # that cell. Outside the slice, B's gene clashes when the step lands
    # in the slice (A's slice already placed it); the chain then goes on
    # through the slice and ends on the first slice cell whose B gene A's
    # slice displaced. Every other cell is a fixed point. The step map is
    # a permutation of each row, so a chain from outside the slice never
    # revisits a cell and has at most ``hi - lo`` steps: pointer doubling
    # reaches every chain's end in ceil(log2(hi - lo)) passes.
    step = cell_in_a[(parents_b + offset).ravel()]
    jump = np.where(in_slice[step], step, cells)
    for _ in range(passes):
        jump = jump[jump]
    child = np.where(in_slice, parents_a.ravel(), parents_b.ravel()[jump])
    return child.reshape(n_rows, size)


def pmx_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Partially mapped crossover of two permutations of equal length.

    Copies a random slice from parent A and fills the remaining positions
    with parent B's genes, following PMX's conflict-resolution chain so the
    child is again a permutation (one row of :func:`pmx_crossover_batch`).
    """
    lo, hi = sorted(rng.choice(len(parent_a) + 1, size=2, replace=False))
    return pmx_crossover_batch(
        np.asarray(parent_a)[None], np.asarray(parent_b)[None], [lo], [hi]
    )[0]


class GeneticAlgorithm(MappingStrategy):
    """Tournament-selection GA with PMX crossover and swap mutation.

    Parameters
    ----------
    population_size : int, optional
        Individuals per generation (default 40).
    tournament_size : int, optional
        Contenders per tournament selection (default 3).
    crossover_rate : float, optional
        Probability a child is bred by PMX rather than cloned (default 0.9).
    mutation_rate : float, optional
        Probability a child receives one swap mutation (default 0.3).
    elite_count : int, optional
        Best-of-generation survivors copied unchanged (default 2).

    Notes
    -----
    Each generation is scored with one
    :meth:`~repro.core.evaluator.MappingEvaluator.evaluate_batch` call,
    which shards across the evaluator's worker pool once the generation
    is large enough; results are bit-identical to the sequential path
    for any shard width.
    """

    name = "ga"
    batch_shardable = True

    def __init__(
        self,
        population_size: int = 40,
        tournament_size: int = 3,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.3,
        elite_count: int = 2,
    ):
        if population_size < 4:
            raise OptimizationError("GA population must be at least 4")
        if tournament_size < 1:
            raise OptimizationError("GA tournament size must be at least 1")
        if not (0 <= crossover_rate <= 1 and 0 <= mutation_rate <= 1):
            raise OptimizationError("GA rates must lie in [0, 1]")
        if elite_count < 0:
            raise OptimizationError("GA elite count must be non-negative")
        if elite_count >= population_size:
            raise OptimizationError("GA elite count must be below population size")
        self.population_size = int(population_size)
        self.tournament_size = int(tournament_size)
        self.crossover_rate = float(crossover_rate)
        self.mutation_rate = float(mutation_rate)
        self.elite_count = int(elite_count)

    # -- operators -----------------------------------------------------------

    def _breed(
        self,
        population: np.ndarray,
        scores: np.ndarray,
        count: int,
        n_tiles: int,
        routes: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``count`` children of one generation, bred as whole arrays."""
        # Both parents of every child from one tournament draw (A in the
        # first ``count`` rows, B in the rest); argmax keeps the first of
        # tied contenders.
        contenders = rng.integers(
            0, len(scores), size=(2 * count, self.tournament_size)
        )
        winners = contenders[
            np.arange(2 * count), np.argmax(scores[contenders], axis=1)
        ]
        parent_a, parent_b = winners[:count], winners[count:]
        crossed = np.flatnonzero(rng.random(count) < self.crossover_rate)
        mutated = np.flatnonzero(rng.random(count) < self.mutation_rate)
        children = population[parent_a]
        mates = population[parent_b[crossed]]
        lo, hi = _distinct_pairs(rng, n_tiles + 1, len(crossed))
        children[crossed, :n_tiles] = pmx_crossover_batch(
            children[crossed, :n_tiles], mates[:, :n_tiles], lo, hi
        )
        if routes > 1:
            take_b = rng.random((len(crossed), mates.shape[1] - n_tiles)) < 0.5
            children[crossed, n_tiles:] = np.where(
                take_b, mates[:, n_tiles:], children[crossed, n_tiles:]
            )
        # Swap mutation (task<->task or task<->empty tile).
        i, j = _distinct_pairs(rng, n_tiles, len(mutated))
        children[mutated, i], children[mutated, j] = (
            children[mutated, j],
            children[mutated, i],
        )
        if routes > 1:
            edge, gene = rng.integers(
                0, (children.shape[1] - n_tiles, routes), size=(len(mutated), 2)
            ).T
            children[mutated, n_tiles + edge] = gene
        return children

    # -- main loop ------------------------------------------------------------

    @staticmethod
    def _design_rows(
        population: np.ndarray, n_tasks: int, n_tiles: int
    ) -> np.ndarray:
        """Chromosomes -> evaluator design vectors (drop the tile tail)."""
        if population.shape[1] == n_tiles:
            return population[:, :n_tasks]
        return np.hstack([population[:, :n_tasks], population[:, n_tiles:]])

    def _run(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: np.random.Generator,
    ) -> OptimizationResult:
        n_tasks = evaluator.n_tasks
        n_tiles = evaluator.n_tiles
        population_size = min(self.population_size, budget)
        # Initial population: random tile permutations.
        population = np.stack(
            [rng.permutation(n_tiles) for _ in range(population_size)]
        ).astype(np.int64)
        if evaluator.routes > 1:
            # Route-gene segment: one uniform draw per edge, within the
            # menu of the edge's tile pair under that chromosome.
            menus = np.stack(
                [evaluator.edge_menu_sizes(row[:n_tasks]) for row in population]
            )
            genes = rng.integers(0, menus, dtype=np.int64)
            population = np.hstack([population, genes])
        tracker = BestTracker(evaluator)
        rows = self._design_rows(population, n_tasks, n_tiles)
        scores = evaluator.evaluate_batch(rows).score
        tracker.offer_batch(rows, scores)
        remaining = budget - population_size
        while remaining > 0:
            count = min(population_size - self.elite_count, remaining)
            children = self._breed(
                population, scores, count, n_tiles, evaluator.routes, rng
            )
            rows = self._design_rows(children, n_tasks, n_tiles)
            child_scores = evaluator.evaluate_batch(rows).score
            tracker.offer_batch(rows, child_scores)
            remaining -= count
            # Elitist replacement: keep the best of the old generation.
            elite_indices = np.argsort(scores)[len(scores) - self.elite_count :]
            population = np.concatenate([population[elite_indices], children])
            scores = np.concatenate([scores[elite_indices], child_scores])
        return tracker.result(self.name)
