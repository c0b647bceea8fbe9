"""Genetic algorithm tests, including the PMX validity property."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appgraph import load_benchmark
from repro.core import (
    DesignSpaceExplorer,
    GeneticAlgorithm,
    MappingEvaluator,
    MappingProblem,
    pmx_crossover,
    pmx_crossover_batch,
)
from repro.core.genetic import _distinct_pairs
from repro.errors import OptimizationError


def reference_pmx(parent_a, parent_b, lo, hi):
    """One child by the textbook PMX loop: the batch kernel's oracle."""
    size = len(parent_a)
    child = np.full(size, -1, dtype=np.int64)
    child[lo:hi] = parent_a[lo:hi]
    position_in_b = np.empty(size, dtype=np.int64)
    position_in_b[parent_b] = np.arange(size)
    in_slice = np.zeros(size, dtype=bool)
    in_slice[parent_a[lo:hi]] = True
    for index in range(lo, hi):
        gene = parent_b[index]
        if in_slice[gene]:
            continue
        # Follow the PMX chain: the displaced gene parent_a[position] sits
        # at position_in_b of parent B; stop at the first slot outside the
        # copied slice.
        position = index
        while lo <= position < hi:
            position = position_in_b[parent_a[position]]
        child[position] = gene
    empty = child == -1
    child[empty] = parent_b[empty]
    return child


@st.composite
def pmx_batches(draw):
    """Parents and cuts for one batch: mixed widths, full cuts included."""
    size = draw(st.integers(min_value=2, max_value=64))
    n_rows = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents_a = np.stack([rng.permutation(size) for _ in range(n_rows)])
    parents_b = np.stack([rng.permutation(size) for _ in range(n_rows)])
    cut = st.tuples(
        st.integers(0, size), st.integers(0, size)
    ).filter(lambda pair: pair[0] != pair[1])
    pairs = draw(st.lists(cut, min_size=n_rows, max_size=n_rows))
    cuts = [sorted(pair) for pair in pairs]
    if draw(st.booleans()):
        cuts[0] = [0, size]  # a full-length slice: the child is parent A
    lo, hi = np.array(cuts).T
    return parents_a, parents_b, lo, hi


class TestPMX:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_child_is_always_a_permutation(self, size, seed):
        rng = np.random.default_rng(seed)
        parent_a = rng.permutation(size)
        parent_b = rng.permutation(size)
        child = pmx_crossover(parent_a, parent_b, rng)
        assert sorted(child.tolist()) == list(range(size))

    def test_child_inherits_slice_from_parent_a(self):
        parent_a = np.arange(10)
        parent_b = np.array([3, 7, 0, 9, 1, 5, 8, 2, 6, 4])
        for lo, hi in ((0, 1), (2, 7), (4, 5), (0, 10), (9, 10)):
            child = pmx_crossover_batch(
                parent_a[None], parent_b[None], [lo], [hi]
            )[0]
            np.testing.assert_array_equal(child[lo:hi], parent_a[lo:hi])
            assert sorted(child.tolist()) == list(range(10))

    def test_identical_parents_identity(self):
        rng = np.random.default_rng(3)
        parent = np.random.default_rng(1).permutation(12)
        child = pmx_crossover(parent, parent.copy(), rng)
        assert np.array_equal(child, parent)

    @given(pmx_batches())
    @settings(max_examples=200, deadline=None)
    def test_batch_kernel_matches_reference_row_by_row(self, batch):
        parents_a, parents_b, lo, hi = batch
        children = pmx_crossover_batch(parents_a, parents_b, lo, hi)
        assert children.dtype == np.int64
        for row, child in enumerate(children):
            np.testing.assert_array_equal(
                child,
                reference_pmx(parents_a[row], parents_b[row], lo[row], hi[row]),
            )

    def test_single_row_keeps_its_cut_draw(self):
        # The one-row call takes its cuts from a single rng.choice draw.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            parent_a, parent_b = rng.permutation(15), rng.permutation(15)
            state = rng.bit_generator.state
            lo, hi = sorted(rng.choice(16, size=2, replace=False))
            rng.bit_generator.state = state
            np.testing.assert_array_equal(
                pmx_crossover(parent_a, parent_b, rng),
                reference_pmx(parent_a, parent_b, lo, hi),
            )


class _EveryIndex:
    """Stands in for a Generator: ``integers`` returns its whole range once."""

    def integers(self, low, high, size):
        assert size == high - low
        return np.arange(low, high)


class TestDistinctPairs:
    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_every_unordered_pair_is_equally_likely(self, n):
        # Each of the n * (n - 1) equally likely draws maps to a pair; every
        # unordered pair must come out exactly twice, so the distribution
        # is that of sorted(rng.choice(n, 2, replace=False)).
        lo, hi = _distinct_pairs(_EveryIndex(), n, n * (n - 1))
        counts = Counter(zip(lo.tolist(), hi.tolist()))
        assert set(counts) == {(a, b) for a in range(n) for b in range(a + 1, n)}
        assert set(counts.values()) == {2}


class RecordingGA(GeneticAlgorithm):
    """GA that keeps each generation's breeding pool and children."""

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self.generations = []

    def _breed(self, population, scores, *args):
        children = super()._breed(population, scores, *args)
        self.generations.append((population, scores, children))
        return children


class TestGeneticAlgorithm:
    def test_respects_budget(self, pip_cg, mesh3_network):
        explorer = DesignSpaceExplorer(MappingProblem(pip_cg, mesh3_network))
        result = explorer.run("ga", budget=500, seed=0)
        assert result.evaluations <= 500

    def test_improves_over_first_generation(self, pip_cg, mesh3_network):
        explorer = DesignSpaceExplorer(MappingProblem(pip_cg, mesh3_network))
        result = explorer.run("ga", budget=3000, seed=1)
        first_score = result.history[0][1]
        assert result.best_score >= first_score

    def test_deterministic_with_seed(self, pip_cg, mesh3_network):
        explorer = DesignSpaceExplorer(MappingProblem(pip_cg, mesh3_network))
        a = explorer.run("ga", budget=1000, seed=7)
        b = explorer.run("ga", budget=1000, seed=7)
        assert a.best_score == b.best_score
        assert a.best_mapping == b.best_mapping

    def test_best_mapping_is_valid(self, pip_cg, mesh3_network):
        explorer = DesignSpaceExplorer(MappingProblem(pip_cg, mesh3_network))
        result = explorer.run("ga", budget=800, seed=2)
        assignment = result.best_mapping.assignment
        assert len(np.unique(assignment)) == pip_cg.n_tasks

    def test_hyperparameter_validation(self):
        with pytest.raises(OptimizationError):
            GeneticAlgorithm(population_size=2)
        with pytest.raises(OptimizationError):
            GeneticAlgorithm(crossover_rate=1.5)
        with pytest.raises(OptimizationError):
            GeneticAlgorithm(population_size=10, elite_count=10)
        with pytest.raises(OptimizationError, match="tournament"):
            GeneticAlgorithm(tournament_size=0)
        with pytest.raises(OptimizationError, match="elite"):
            GeneticAlgorithm(elite_count=-1)
        GeneticAlgorithm(tournament_size=1, elite_count=0)

    @pytest.mark.parametrize("elite_count", [0, 2])
    def test_tournament_pool_stays_at_population_size(
        self, pip_cg, mesh3_network, elite_count
    ):
        ga = RecordingGA(population_size=10, elite_count=elite_count)
        evaluator = MappingEvaluator(MappingProblem(pip_cg, mesh3_network))
        result = ga.optimize(evaluator, budget=200, rng=np.random.default_rng(4))
        assert result.evaluations == 200
        assert len(ga.generations) == -(-190 // (10 - elite_count))
        for population, scores, _ in ga.generations:
            assert len(population) == len(scores) == 10

    def test_zero_rates_only_select(self, pip_cg, mesh3_network):
        # No crossover and no mutation: every child is a clone of a
        # tournament winner, so no new chromosome ever appears.
        ga = RecordingGA(crossover_rate=0.0, mutation_rate=0.0, tournament_size=1)
        evaluator = MappingEvaluator(MappingProblem(pip_cg, mesh3_network))
        ga.optimize(evaluator, budget=300, rng=np.random.default_rng(2))
        assert ga.generations
        for population, _, children in ga.generations:
            pool = {tuple(row) for row in population.tolist()}
            assert all(tuple(row) in pool for row in children.tolist())

    def test_routed_children_stay_valid(self, torus4_network):
        problem = MappingProblem(load_benchmark("mpeg4"), torus4_network, routes=3)
        evaluator = MappingEvaluator(problem)
        ga = RecordingGA(mutation_rate=1.0)
        ga.optimize(evaluator, budget=400, rng=np.random.default_rng(6))
        n_tiles = evaluator.n_tiles
        assert ga.generations
        for _, _, children in ga.generations:
            assert children.shape[1] == n_tiles + evaluator.n_edges
            np.testing.assert_array_equal(
                np.sort(children[:, :n_tiles], axis=1),
                np.broadcast_to(np.arange(n_tiles), (len(children), n_tiles)),
            )
            genes = children[:, n_tiles:]
            assert genes.min() >= 0 and genes.max() < 3

    def test_small_budget_smaller_than_population(self, pip_cg, mesh3_network):
        explorer = DesignSpaceExplorer(MappingProblem(pip_cg, mesh3_network))
        result = explorer.run("ga", budget=10, seed=0)
        assert result.evaluations <= 10
