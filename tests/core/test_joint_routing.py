"""Joint mapping x routing design-vector tests.

Three contracts protect the refactor that promoted per-edge route choice
into the design vector:

* **k=1 bit-identity** — a ``routes=1`` problem takes exactly the code
  paths (and RNG draws) of the historical mapping-only search;
* **widened-vector correctness** — routed evaluators score joint
  vectors consistently across the single, batched, padded and delta
  paths;
* **vocabulary parity** — the vectorized ``swap_moves`` reproduces the
  reference enumeration bit-for-bit, and ``reroute_moves`` enumerates
  exactly the non-current menu entries.
"""

import numpy as np
import pytest

from repro.appgraph import load_benchmark
from repro.core import (
    DeltaEvaluator,
    MappingEvaluator,
    MappingProblem,
)
from repro.core.mapping import random_assignment, random_assignment_batch
from repro.core.moves import (
    REROUTE,
    apply_move,
    normalize_move,
    reroute_moves,
    swap_moves,
)
from repro.core.pool import get_pool, pool_key, release_pools
from repro.core.registry import available_strategies, create_strategy
from repro.errors import MappingError
from repro.models import coupling as coupling_module

TOLERANCE = 1e-9


def reference_swap_moves(assignment, n_tiles):
    """The historical pure-python enumeration (pre-vectorization)."""
    n_tasks = len(assignment)
    occupied = {int(tile): task for task, tile in enumerate(assignment)}
    empty_tiles = [t for t in range(n_tiles) if t not in occupied]
    moves = []
    for task in range(n_tasks):
        for tile in empty_tiles:
            moves.append((task, tile, -1))
    for task_a in range(n_tasks):
        for task_b in range(task_a + 1, n_tasks):
            moves.append((task_a, int(assignment[task_b]), task_b))
    return moves


class TestSwapMovesVectorized:
    @pytest.mark.parametrize("n_tasks,n_tiles", [(3, 9), (8, 9), (9, 9), (12, 16)])
    def test_matches_reference_enumeration(self, n_tasks, n_tiles):
        rng = np.random.default_rng(n_tasks * 100 + n_tiles)
        for _ in range(5):
            assignment = random_assignment(n_tasks, n_tiles, rng)
            assert swap_moves(assignment, n_tiles) == reference_swap_moves(
                assignment, n_tiles
            )

    def test_elements_are_python_ints(self):
        assignment = random_assignment(4, 9, np.random.default_rng(0))
        for move in swap_moves(assignment, 9):
            assert all(type(x) is int for x in move)

    def test_full_board_has_no_relocations(self):
        assignment = random_assignment(9, 9, np.random.default_rng(1))
        moves = swap_moves(assignment, 9)
        assert all(move[2] >= 0 for move in moves)
        assert len(moves) == 9 * 8 // 2


class TestRerouteMoves:
    def test_enumerates_non_current_genes_edge_major(self):
        # Three tasks, then one gene per edge (three edges, mixed menus).
        vector = np.array([0, 1, 2, 0, 2, 0], dtype=np.int64)
        menus = np.array([1, 3, 2], dtype=np.int64)
        moves = reroute_moves(vector, 3, menus)
        # Edge 0 has menu 1: no moves. Edge 1 current gene 2: genes 0, 1.
        # Edge 2 current gene 0: gene 1.
        assert moves == [(4, 0, REROUTE), (4, 1, REROUTE), (5, 1, REROUTE)]

    def test_stale_gene_resolves_modulo_menu(self):
        vector = np.array([0, 1, 5], dtype=np.int64)  # gene 5, menu 2 -> 1
        moves = reroute_moves(vector, 2, np.array([2], dtype=np.int64))
        assert moves == [(2, 0, REROUTE)]

    def test_normalize_symbolic_reroute(self):
        assert normalize_move(("reroute", 3, 1), n_tasks=8) == (11, 1, REROUTE)

    def test_apply_move_sets_the_gene(self):
        vector = np.array([0, 1, 2, 0, 0], dtype=np.int64)
        result = apply_move(vector, (4, 2, REROUTE))
        assert result.tolist() == [0, 1, 2, 0, 2]
        assert vector.tolist() == [0, 1, 2, 0, 0]  # copy, not in place


class TestJointVectors:
    @pytest.fixture(scope="class")
    def routed(self, torus4_network):
        problem = MappingProblem(
            load_benchmark("pip"), torus4_network, routes=3
        )
        return MappingEvaluator(problem)

    @pytest.fixture(scope="class")
    def plain(self, torus4_network):
        problem = MappingProblem(load_benchmark("pip"), torus4_network)
        return MappingEvaluator(problem)

    def test_vector_width(self, routed, plain):
        assert plain.vector_width == plain.n_tasks
        assert routed.vector_width == routed.n_tasks + routed.n_edges

    def test_random_vector_k1_rng_parity(self, plain):
        a = plain.random_vector(np.random.default_rng(7))
        b = random_assignment(plain.n_tasks, plain.n_tiles, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_random_vector_batch_k1_rng_parity(self, plain):
        a = plain.random_vector_batch(6, np.random.default_rng(7))
        b = random_assignment_batch(
            6, plain.n_tasks, plain.n_tiles, np.random.default_rng(7)
        )
        assert np.array_equal(a, b)

    def test_random_vector_genes_within_menus(self, routed):
        rng = np.random.default_rng(3)
        for _ in range(10):
            vector = routed.random_vector(rng)
            assert vector.shape == (routed.vector_width,)
            menus = routed.edge_menu_sizes(vector)
            genes = vector[routed.n_tasks :]
            assert np.all(genes >= 0)
            assert np.all(genes < menus)

    def test_moves_for_k1_is_swap_moves(self, plain):
        assignment = random_assignment(
            plain.n_tasks, plain.n_tiles, np.random.default_rng(5)
        )
        assert plain.moves_for(assignment) == swap_moves(
            assignment, plain.n_tiles
        )

    def test_moves_for_routed_appends_reroutes(self, routed):
        vector = routed.random_vector(np.random.default_rng(5))
        moves = routed.moves_for(vector)
        head = swap_moves(vector[: routed.n_tasks], routed.n_tiles)
        assert moves[: len(head)] == head
        tail = moves[len(head) :]
        assert tail == reroute_moves(
            vector, routed.n_tasks, routed.edge_menu_sizes(vector)
        )
        assert len(tail) > 0  # torus4 offers reroutable pairs

    def test_zero_genes_match_mapping_only_scores(self, routed, plain):
        batch = random_assignment_batch(
            8, plain.n_tasks, plain.n_tiles, np.random.default_rng(11)
        )
        reference = plain.evaluate_batch(batch).score
        padded = np.hstack(
            [batch, np.zeros((8, routed.n_edges), dtype=np.int64)]
        )
        assert np.array_equal(routed.evaluate_batch(padded).score, reference)
        # Plain-width rows through the routed evaluator pad implicitly.
        assert np.array_equal(routed.evaluate_batch(batch).score, reference)

    def test_single_evaluate_accepts_widened_vector(self, routed):
        vector = routed.random_vector(np.random.default_rng(13))
        single = routed.evaluate(vector)
        batch = routed.evaluate_batch(vector[None, :])
        assert single.score == pytest.approx(float(batch.score[0]), abs=0)

    def test_nonzero_genes_change_scores_somewhere(self, routed):
        rng = np.random.default_rng(17)
        for _ in range(20):
            vector = routed.random_vector(rng)
            zeroed = vector.copy()
            zeroed[routed.n_tasks :] = 0
            if routed.evaluate(vector).score != routed.evaluate(zeroed).score:
                return
        pytest.fail("no sampled route genes ever changed the score on torus4")


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestRoutedDeltaParity:
    def test_mixed_walk_matches_full_evaluation(self, torus4_network, backend):
        """Seeded walk over the joint neighbourhood: every sampled
        neighbourhood (mapping and reroute moves together) and every
        committed incumbent scores identically under delta and full."""
        problem = MappingProblem(
            load_benchmark("pip"), torus4_network, routes=3
        )
        evaluator = MappingEvaluator(problem, backend=backend)
        engine = DeltaEvaluator(evaluator)
        rng = np.random.default_rng(29)
        vector = evaluator.random_vector(rng)
        engine.reset(vector)
        for _step in range(25):
            moves = evaluator.moves_for(vector)
            picks = rng.choice(len(moves), size=12, replace=False)
            sampled = [moves[int(p)] for p in picks]
            delta_scores = engine.score_moves(sampled)
            full = np.stack([apply_move(vector, m) for m in sampled])
            full_scores = evaluator.evaluate_batch(full).score
            np.testing.assert_allclose(
                delta_scores, full_scores, atol=TOLERANCE, rtol=0
            )
            chosen = sampled[int(np.argmax(delta_scores))]
            vector = apply_move(vector, chosen)
            engine.commit(chosen)
        final_delta = engine.reset(vector)
        final_full = float(evaluator.evaluate_batch(vector[None, :]).score[0])
        assert final_delta == pytest.approx(final_full, abs=TOLERANCE)

    def test_reroute_only_walk(self, torus4_network, backend):
        problem = MappingProblem(
            load_benchmark("pip"), torus4_network, routes=3
        )
        evaluator = MappingEvaluator(problem, backend=backend)
        engine = DeltaEvaluator(evaluator)
        rng = np.random.default_rng(31)
        vector = evaluator.random_vector(rng)
        engine.reset(vector)
        for _step in range(10):
            moves = reroute_moves(
                vector, evaluator.n_tasks, evaluator.edge_menu_sizes(vector)
            )
            delta_scores = engine.score_moves(moves)
            full = np.stack([apply_move(vector, m) for m in moves])
            full_scores = evaluator.evaluate_batch(full).score
            np.testing.assert_allclose(
                delta_scores, full_scores, atol=TOLERANCE, rtol=0
            )
            chosen = moves[int(rng.integers(0, len(moves)))]
            vector = apply_move(vector, chosen)
            engine.commit(chosen)


class TestJointStrategies:
    @pytest.mark.parametrize("name", sorted(available_strategies()))
    def test_routed_run_is_deterministic(self, torus4_network, name):
        problem = MappingProblem(
            load_benchmark("pip"), torus4_network, routes=3
        )
        results = []
        for _ in range(2):
            evaluator = MappingEvaluator(problem)
            result = create_strategy(name).optimize(
                evaluator, budget=200, rng=np.random.default_rng(23)
            )
            results.append(result)
        first, second = results
        assert first.best_score == second.best_score
        assert np.array_equal(
            first.best_mapping.assignment, second.best_mapping.assignment
        )
        assert first.route_genes is not None
        assert np.array_equal(first.route_genes, second.route_genes)
        assert first.history == second.history

    @pytest.mark.parametrize("name", sorted(available_strategies()))
    def test_k1_explicit_routes_matches_default(self, torus4_network, name):
        cg = load_benchmark("pip")
        scores = []
        for routes in (None, 1):
            problem = (
                MappingProblem(cg, torus4_network)
                if routes is None
                else MappingProblem(cg, torus4_network, routes=routes)
            )
            evaluator = MappingEvaluator(problem)
            result = create_strategy(name).optimize(
                evaluator, budget=200, rng=np.random.default_rng(19)
            )
            assert result.route_genes is None
            scores.append(
                (
                    result.best_score,
                    result.best_mapping.assignment.tolist(),
                    result.history,
                )
            )
        assert scores[0] == scores[1]

    def test_use_delta_false_matches_delta_run(self, torus4_network):
        problem = MappingProblem(
            load_benchmark("pip"), torus4_network, routes=3
        )
        scores = []
        for use_delta in (True, False):
            evaluator = MappingEvaluator(problem)
            result = create_strategy("tabu").optimize(
                evaluator,
                budget=150,
                rng=np.random.default_rng(37),
                use_delta=use_delta,
            )
            scores.append(
                (round(result.best_score, 9), result.best_mapping.assignment.tolist())
            )
        assert scores[0] == scores[1]


class TestRoutedPoolKey:
    def test_routes_fork_the_pool_key(self, torus4_network):
        cg = load_benchmark("pip")
        plain = pool_key(MappingProblem(cg, torus4_network), np.float64, 1, "dense")
        routed = pool_key(
            MappingProblem(cg, torus4_network, routes=3), np.float64, 1, "dense"
        )
        assert plain != routed

    def test_k1_pool_key_is_legacy(self, torus4_network):
        cg = load_benchmark("pip")
        key = pool_key(
            MappingProblem(cg, torus4_network, routes=1), np.float64, 1, "dense"
        )
        assert not any("routes" in str(part) for part in key)


def _worker_model_routes():
    """Pool task: the route count of the worker evaluator's model."""
    from repro.core.parallel import worker_evaluator

    return worker_evaluator().model.routes


class TestRoutedPools:
    def test_pools_resolve_the_routed_model(self, mesh4_network, monkeypatch):
        # Every pool must resolve the problem's routes=3 model, the one
        # its workers read; resolving routes=1 builds a model nobody uses.
        monkeypatch.setattr(coupling_module, "_CACHE", {})
        monkeypatch.setattr(coupling_module, "_MODEL_CACHE_DIR", None)
        problem = MappingProblem(load_benchmark("mpeg4"), mesh4_network, routes=3)
        release_pools(problem)
        before = coupling_module.BUILD_COUNT
        evaluator = MappingEvaluator(problem)
        try:
            for executor in ("local", "inline"):
                pool = get_pool(
                    problem, evaluator.dtype, 2, evaluator.backend,
                    executor=executor,
                )
                assert pool.submit(_worker_model_routes).result() == 3
            assert coupling_module.BUILD_COUNT - before == 1
        finally:
            release_pools(problem)


class TestProblemValidation:
    def test_routes_below_one_rejected(self, torus4_network):
        with pytest.raises(MappingError):
            MappingProblem(load_benchmark("pip"), torus4_network, routes=0)

    def test_repr_mentions_routes(self, torus4_network):
        problem = MappingProblem(load_benchmark("pip"), torus4_network, routes=3)
        assert "routes=3" in repr(problem)
        plain = MappingProblem(load_benchmark("pip"), torus4_network)
        assert "routes" not in repr(plain)
