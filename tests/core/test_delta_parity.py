"""Randomized parity oracle: DeltaEvaluator vs the full MappingEvaluator.

Delta evaluation is numerically subtle — noise accumulators can drift,
and the serialization-mask bookkeeping must follow moved edges exactly —
so this suite drives seeded random swap/relocation walks across several
benchmark CGs and topologies and asserts that the incremental scores
match full evaluation to 1e-9 after every move and after hundreds of
commits.
"""

import numpy as np
import pytest

from repro.appgraph import load_benchmark
from repro.core import (
    DeltaEvaluator,
    MappingEvaluator,
    MappingProblem,
    TabuSearch,
)
from repro.core.mapping import random_assignment
from repro.core.moves import apply_move, swap_moves
from repro.errors import MappingError

TOLERANCE = 1e-9

#: At least 3 benchmark CGs x 2 topologies (all fit on 16 tiles).
CASES = [
    (cg_name, topology)
    for cg_name in ("pip", "vopd", "mpeg4")
    for topology in ("mesh4_network", "torus4_network")
]


def _evaluator(request, cg_name, topology, objective="snr"):
    network = request.getfixturevalue(topology)
    problem = MappingProblem(load_benchmark(cg_name), network, objective)
    return MappingEvaluator(problem)


def _full_scores(evaluator, assignment, moves):
    candidates = np.stack([apply_move(assignment, m) for m in moves])
    return evaluator.evaluate_batch(candidates).score


@pytest.mark.parametrize("cg_name,topology", CASES)
class TestRandomWalkParity:
    def test_scores_match_full_after_every_move(
        self, request, cg_name, topology
    ):
        """Seeded walk: every sampled neighbourhood and every committed
        incumbent scores identically under delta and full evaluation."""
        evaluator = _evaluator(request, cg_name, topology)
        engine = DeltaEvaluator(evaluator)
        rng = np.random.default_rng(sum(map(ord, cg_name + topology)))
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        engine.reset(assignment)
        for _step in range(30):
            moves = swap_moves(assignment, evaluator.n_tiles)
            picks = rng.choice(len(moves), size=min(24, len(moves)),
                               replace=False)
            sampled = [moves[int(p)] for p in picks]
            delta_scores = engine.score_moves(sampled)
            full_scores = _full_scores(evaluator, assignment, sampled)
            np.testing.assert_allclose(
                delta_scores, full_scores, rtol=0, atol=TOLERANCE
            )
            chosen = sampled[int(rng.integers(0, len(sampled)))]
            assignment = apply_move(assignment, chosen)
            committed = engine.commit(chosen)
            reference = float(
                evaluator.evaluate_batch(assignment[None, :]).score[0]
            )
            assert committed == pytest.approx(reference, abs=TOLERANCE)
            np.testing.assert_array_equal(engine.assignment, assignment)

    def test_relocations_and_swaps_both_exercised(
        self, request, cg_name, topology
    ):
        """The 16-tile fabrics leave empty tiles for pip/mpeg4, so the
        walk above must cover both move kinds; make that explicit."""
        evaluator = _evaluator(request, cg_name, topology)
        rng = np.random.default_rng(5)
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        moves = swap_moves(assignment, evaluator.n_tiles)
        kinds = {move[2] == -1 for move in moves}
        if evaluator.n_tasks < evaluator.n_tiles:
            assert kinds == {True, False}
        else:
            assert kinds == {False}


@pytest.mark.parametrize(
    "cg_name,topology",
    [("vopd", "mesh4_network"), ("mpeg4", "torus4_network")],
)
class TestSparseBackendParity:
    """CSR rows drive ``score_moves``/``commit`` (sparse kernel, pinned).

    In sparse mode the delta engine's dense row sums come from CSR row
    dots instead of dense-transpose walks, and commits update them with
    strided column gathers; the walk below proves the incremental scores
    still track full (sparse-kernel) evaluation move for move.
    """

    def test_walk_matches_full_evaluation(
        self, pin_kernel, request, cg_name, topology
    ):
        pin_kernel("sparse")
        evaluator = _evaluator(request, cg_name, topology)
        assert evaluator.backend == "sparse"
        engine = DeltaEvaluator(evaluator)
        assert engine._sparse is not None  # CSR rows, not coupling_linear_T
        rng = np.random.default_rng(len(cg_name + topology))
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        engine.reset(assignment)
        for _step in range(15):
            moves = swap_moves(assignment, evaluator.n_tiles)
            picks = rng.choice(len(moves), size=min(16, len(moves)),
                               replace=False)
            sampled = [moves[int(p)] for p in picks]
            np.testing.assert_allclose(
                engine.score_moves(sampled),
                _full_scores(evaluator, assignment, sampled),
                rtol=0,
                atol=TOLERANCE,
            )
            chosen = sampled[int(rng.integers(0, len(sampled)))]
            assignment = apply_move(assignment, chosen)
            committed = engine.commit(chosen)
            reference = float(
                evaluator.evaluate_batch(assignment[None, :]).score[0]
            )
            assert committed == pytest.approx(reference, abs=TOLERANCE)

    def test_sparse_and_dense_engines_agree(
        self, pin_kernel, request, cg_name, topology
    ):
        pin_kernel("sparse")
        sparse_ev = _evaluator(request, cg_name, topology)
        pin_kernel("dense")
        dense_ev = _evaluator(request, cg_name, topology)
        sparse_engine = DeltaEvaluator(sparse_ev)
        dense_engine = DeltaEvaluator(dense_ev)
        rng = np.random.default_rng(23)
        assignment = random_assignment(
            sparse_ev.n_tasks, sparse_ev.n_tiles, rng
        )
        assert sparse_engine.reset(assignment) == pytest.approx(
            dense_engine.reset(assignment), abs=TOLERANCE
        )
        for _step in range(10):
            moves = swap_moves(assignment, sparse_ev.n_tiles)
            sampled = [moves[int(p)] for p in
                       rng.choice(len(moves), size=12, replace=False)]
            np.testing.assert_allclose(
                sparse_engine.score_moves(sampled),
                dense_engine.score_moves(sampled),
                rtol=0,
                atol=TOLERANCE,
            )
            chosen = sampled[0]
            assignment = apply_move(assignment, chosen)
            assert sparse_engine.commit(chosen) == pytest.approx(
                dense_engine.commit(chosen), abs=TOLERANCE
            )


class TestAccumulatorDrift:
    @pytest.mark.parametrize("refresh_interval", [64, None])
    def test_hundreds_of_commits_stay_within_tolerance(
        self, request, refresh_interval
    ):
        """300 commits, checked against full evaluation throughout — with
        the periodic refresh disabled entirely, the raw accumulator drift
        itself must stay within tolerance."""
        evaluator = _evaluator(request, "vopd", "mesh4_network")
        engine = DeltaEvaluator(evaluator, refresh_interval=refresh_interval)
        rng = np.random.default_rng(99)
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        engine.reset(assignment)
        for step in range(300):
            moves = swap_moves(assignment, evaluator.n_tiles)
            chosen = moves[int(rng.integers(0, len(moves)))]
            assignment = apply_move(assignment, chosen)
            engine.commit(chosen)
            if step % 25 == 0 or step == 299:
                reference = float(
                    evaluator.evaluate_batch(assignment[None, :]).score[0]
                )
                assert engine.score == pytest.approx(
                    reference, abs=TOLERANCE
                )

    @pytest.mark.parametrize(
        "objective", ["snr", "loss", "mean_snr", "weighted_loss", "laser_power"]
    )
    def test_every_objective_tracks_full_evaluation(self, request, objective):
        evaluator = _evaluator(
            request, "mpeg4", "mesh4_network", objective=objective
        )
        engine = DeltaEvaluator(evaluator)
        rng = np.random.default_rng(17)
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        engine.reset(assignment)
        for _step in range(20):
            moves = swap_moves(assignment, evaluator.n_tiles)
            picks = rng.choice(len(moves), size=16, replace=False)
            sampled = [moves[int(p)] for p in picks]
            np.testing.assert_allclose(
                engine.score_moves(sampled),
                _full_scores(evaluator, assignment, sampled),
                rtol=0,
                atol=TOLERANCE,
            )
            chosen = sampled[0]
            assignment = apply_move(assignment, chosen)
            engine.commit(chosen)


class TestZeroNoiseEdges:
    def test_sparse_cg_with_noiseless_edges_stays_capped(self, mesh4_network):
        """Isolated communications have exactly zero noise and hit the
        SNR cap; the delta reconstruction subtracts equal-magnitude
        terms, so without the cancellation guard a ~1e-19 residue would
        defeat the cap and diverge from full evaluation by tens of dB."""
        from repro.appgraph import CommunicationGraph
        from repro.core import SNR_CAP_DB

        cg = CommunicationGraph(
            "iso", ["a", "b", "c", "d"], [(0, 1), (2, 3)]
        )
        evaluator = MappingEvaluator(
            MappingProblem(cg, mesh4_network, "snr")
        )
        engine = DeltaEvaluator(evaluator)
        # Opposite corners: both edges noiseless, score == cap.
        assignment = np.array([0, 1, 14, 15])
        assert engine.reset(assignment) == SNR_CAP_DB
        rng = np.random.default_rng(4)
        for _step in range(60):
            moves = swap_moves(assignment, evaluator.n_tiles)
            picks = rng.choice(len(moves), size=16, replace=False)
            sampled = [moves[int(p)] for p in picks]
            np.testing.assert_allclose(
                engine.score_moves(sampled),
                _full_scores(evaluator, assignment, sampled),
                rtol=0,
                atol=TOLERANCE,
            )
            chosen = sampled[int(rng.integers(0, len(sampled)))]
            assignment = apply_move(assignment, chosen)
            committed = engine.commit(chosen)
            reference = float(
                evaluator.evaluate_batch(assignment[None, :]).score[0]
            )
            assert committed == pytest.approx(reference, abs=TOLERANCE)


class TestEvaluationAccounting:
    """Budget fairness: delta charges exactly what the full path would."""

    def test_reset_charges_one_evaluation(self, pip_evaluator, rng):
        engine = DeltaEvaluator(pip_evaluator)
        pip_evaluator.reset_count()
        engine.reset(random_assignment(8, 9, rng))
        assert pip_evaluator.evaluations == 1
        engine.reset(random_assignment(8, 9, rng), count=False)
        assert pip_evaluator.evaluations == 1

    def test_score_moves_charges_per_move(self, pip_evaluator, rng):
        engine = DeltaEvaluator(pip_evaluator)
        assignment = random_assignment(8, 9, rng)
        engine.reset(assignment, count=False)
        pip_evaluator.reset_count()
        moves = swap_moves(assignment, 9)[:13]
        engine.score_moves(moves)
        assert pip_evaluator.evaluations == 13
        engine.commit(moves[0])  # commits are free: already scored
        assert pip_evaluator.evaluations == 13
        assert engine.score_moves([]).shape == (0,)
        assert pip_evaluator.evaluations == 13

    def test_strategy_budgets_identical_with_and_without_delta(
        self, pip_cg, mesh3_network
    ):
        problem = MappingProblem(pip_cg, mesh3_network, "snr")
        counts = {}
        for use_delta in (True, False):
            evaluator = MappingEvaluator(problem)
            result = TabuSearch(neighbourhood_size=16).optimize(
                evaluator,
                budget=300,
                rng=np.random.default_rng(3),
                use_delta=use_delta,
            )
            counts[use_delta] = result.evaluations
            assert result.evaluations <= 300
        assert counts[True] == counts[False]


class TestApiGuards:
    def test_score_moves_requires_incumbent(self, pip_evaluator):
        engine = DeltaEvaluator(pip_evaluator)
        with pytest.raises(MappingError, match="incumbent"):
            engine.score_moves([(0, 1, -1)])
        with pytest.raises(MappingError, match="incumbent"):
            engine.commit((0, 1, -1))

    def test_reset_rejects_wrong_shape(self, pip_evaluator):
        engine = DeltaEvaluator(pip_evaluator)
        with pytest.raises(MappingError):
            engine.reset(np.arange(5))

    def test_bad_refresh_interval_rejected(self, pip_evaluator):
        with pytest.raises(MappingError):
            DeltaEvaluator(pip_evaluator, refresh_interval=0)

    def test_assignment_returns_copy(self, pip_evaluator, rng):
        engine = DeltaEvaluator(pip_evaluator)
        assignment = random_assignment(8, 9, rng)
        engine.reset(assignment, count=False)
        copy = engine.assignment
        copy[0] = -1
        np.testing.assert_array_equal(engine.assignment, assignment)

    def test_chunked_scoring_matches_unchunked(
        self, pip_evaluator, rng, monkeypatch
    ):
        """A tiny chunk budget forces move-by-move chunks through the
        width-sorted path; scores must not depend on chunking."""
        import repro.core.delta as delta_module

        engine = DeltaEvaluator(pip_evaluator)
        assignment = random_assignment(8, 9, rng)
        engine.reset(assignment, count=False)
        moves = swap_moves(assignment, 9)
        expected = engine.score_moves(moves)
        monkeypatch.setattr(delta_module, "_SCORE_CHUNK_BYTES", 1)
        chunked = engine.score_moves(moves)
        np.testing.assert_allclose(chunked, expected, rtol=0, atol=1e-12)
