"""Randomized parity oracle: DeltaEvaluator vs the full MappingEvaluator.

Delta scoring is numerically subtle — the serialization-mask bookkeeping
must follow moved edges exactly — so this suite drives seeded random
swap/relocation walks across several benchmark CGs and topologies and
asserts that move scores match full evaluation to 1e-9, and that every
incumbent (a reset or a commit) *is* full evaluation, bit for bit, even
after hundreds of commits.
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
from repro.core.moves import REROUTE, apply_move, swap_moves
from repro.errors import MappingError

TOLERANCE = 1e-9

#: Every objective the delta engine supports.
DELTA_OBJECTIVES = ("snr", "loss", "mean_snr", "weighted_loss", "laser_power")

#: At least 3 benchmark CGs x 2 topologies (all fit on 16 tiles).
CASES = [
    (cg_name, topology)
    for cg_name in ("pip", "vopd", "mpeg4")
    for topology in ("mesh4_network", "torus4_network")
]


def _evaluator(request, cg_name, topology, objective="snr", routes=1):
    network = request.getfixturevalue(topology)
    problem = MappingProblem(
        load_benchmark(cg_name), network, objective, routes=routes
    )
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
    dots instead of dense-transpose walks, and commits rebuild through
    the sparse kernel; the walk below proves the incremental scores
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


@pytest.mark.parametrize("routes", [1, 2])
@pytest.mark.parametrize("kernel", ["dense", "sparse"])
@pytest.mark.parametrize("objective", DELTA_OBJECTIVES)
@pytest.mark.parametrize(
    "cg_name,topology",
    [
        ("mpeg4", "mesh4_network"),
        ("mpeg4", "torus4_network"),
        ("vopd", "torus4_network"),
    ],
)
class TestIncumbentIsFullEvaluation:
    """An incumbent's tables are the evaluator's own, on either kernel.

    A seeded walk of swaps, relocations (mpeg4 leaves tiles free) and,
    at routes 2 on the torus, reroutes (a Crux mesh routes XY only, so
    it offers none): ``reset`` and every ``commit`` must return
    ``evaluate_batch``'s score of the same vector exactly, the
    engine's IL, signal and noise tables must be byte-equal to
    ``_tables_from_pairs`` of it, and its victim-column matrix and
    coupling row sums byte-equal to a fresh reset's.
    """

    def test_every_reset_and_commit_is_a_full_evaluation(
        self, pin_kernel, request, cg_name, topology, objective, kernel, routes
    ):
        pin_kernel(kernel)
        evaluator = _evaluator(request, cg_name, topology, objective, routes)
        assert evaluator.backend == kernel
        engine = DeltaEvaluator(evaluator)
        fresh = DeltaEvaluator(evaluator)
        rng = np.random.default_rng(sum(map(ord, cg_name + objective)))
        vector = evaluator.random_vector(rng)

        def check(score):
            full = evaluator.evaluate_batch(vector[None, :]).score[0]
            assert score.hex() == full.hex()
            pairs = evaluator._pair_table(vector[None, :])
            il, noise, signal = evaluator._tables_from_pairs(
                pairs, evaluator.model, evaluator._sparse
            )
            assert engine._il.tobytes() == il[0].tobytes()
            if evaluator.objective.is_snr_based:
                assert engine._signal.tobytes() == signal[0].tobytes()
                assert engine._noise.tobytes() == noise[0].tobytes()
                fresh.reset(vector, count=False)
                assert engine._cols_inc.tobytes() == fresh._cols_inc.tobytes()
                assert engine._rowsum.tobytes() == fresh._rowsum.tobytes()
            else:
                assert engine._signal is None and engine._noise is None

        check(engine.reset(vector))
        taken = set()
        for step in range(40):
            moves = evaluator.move_array_for(vector)
            # Cycle swap (0), relocation (1) and reroute (2) moves,
            # taking a swap when the wanted kind is not offered.
            kinds = np.where(
                moves[:, 2] >= 0, 0, np.where(moves[:, 2] == REROUTE, 2, 1)
            )
            kind = step % 3 if (kinds == step % 3).any() else 0
            pool = moves[kinds == kind]
            move = tuple(int(x) for x in pool[int(rng.integers(len(pool)))])
            taken.add(kind)
            vector = apply_move(vector, move)
            check(engine.commit(move))
        expected = {0}
        if cg_name == "mpeg4":
            expected.add(1)
        if routes > 1 and topology == "torus4_network":
            expected.add(2)
        assert taken == expected


@pytest.mark.parametrize("objective", ["snr", "mean_snr"])
def test_an_snr_commit_reduces_one_snr_row(request, monkeypatch, objective):
    """A rebuild applies the SNR formula once and keeps the score it
    reduces: ``commit`` and a later ``score`` read compute no second
    SNR row."""
    from repro.core import delta as delta_module
    from repro.core import evaluator as evaluator_module

    evaluator = _evaluator(request, "vopd", "mesh4_network", objective)
    engine = DeltaEvaluator(evaluator)
    vector = evaluator.random_vector(np.random.default_rng(5))
    engine.reset(vector)
    move = tuple(int(x) for x in evaluator.move_array_for(vector)[0])
    snr_db = evaluator_module._snr_db
    calls = []

    def counting(signal, noise):
        calls.append(signal.shape)
        return snr_db(signal, noise)

    monkeypatch.setattr(delta_module, "_snr_db", counting)
    monkeypatch.setattr(evaluator_module, "_snr_db", counting)
    score = engine.commit(move)
    assert engine.score == score
    assert calls == [(1, evaluator.n_edges)]
    monkeypatch.undo()
    full = evaluator.evaluate_batch(apply_move(vector, move)[None, :]).score[0]
    assert score.hex() == full.hex()


class TestAccumulatorDrift:
    def test_hundreds_of_commits_stay_within_tolerance(self, request):
        """300 commits, checked against full evaluation throughout: each
        commit rebuilds the incumbent, so nothing accumulates and every
        checkpoint matches exactly."""
        evaluator = _evaluator(request, "vopd", "mesh4_network")
        engine = DeltaEvaluator(evaluator)
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
                assert engine.score == reference

    @pytest.mark.parametrize("objective", DELTA_OBJECTIVES)
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
        defeat the cap and diverge from full evaluation by tens of dB.
        A committed incumbent is full evaluation, exactly."""
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
            assert committed == reference


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

    def test_assignment_returns_copy(self, pip_evaluator, rng):
        engine = DeltaEvaluator(pip_evaluator)
        assignment = random_assignment(8, 9, rng)
        engine.reset(assignment, count=False)
        copy = engine.assignment
        copy[0] = -1
        np.testing.assert_array_equal(engine.assignment, assignment)

    @pytest.mark.parametrize(
        "cg_name,topology,objective",
        [
            ("pip", "mesh3_network", "snr"),
            ("mpeg4", "mesh4_network", "mean_snr"),
            ("vopd", "torus4_network", "mean_snr"),
            ("263enc_mp3enc", "torus4_network", "mean_snr"),
        ],
    )
    def test_chunked_scoring_matches_unchunked(
        self, request, monkeypatch, cg_name, topology, objective
    ):
        """A tiny chunk budget forces move-by-move chunks through the
        width-sorted path; every score must keep its bits. The three
        16-tile neighbourhoods hold moves whose affected-victim sums are
        padded to a different length alone than beside wider moves; a
        native sum blocks its accumulation by length and would round
        them differently."""
        import repro.core.delta as delta_module

        evaluator = _evaluator(request, cg_name, topology, objective)
        engine = DeltaEvaluator(evaluator)
        vector = evaluator.random_vector(np.random.default_rng(5))
        engine.reset(vector, count=False)
        moves = evaluator.move_array_for(vector)
        expected = engine.score_moves(moves)
        monkeypatch.setattr(delta_module, "_SCORE_CHUNK_BYTES", 1)
        chunked = engine.score_moves(moves)
        assert chunked.tobytes() == expected.tobytes()
