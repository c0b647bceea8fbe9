"""The objective contract: properties every registered objective must pass.

This is the enforcement half of the PR 8 objective registry
(:mod:`repro.core.objectives`): any objective added to
:data:`~repro.core.objectives.OBJECTIVE_SPECS` is automatically swept
through every property below — per-seed determinism, batch-vs-single-row
bit-identity, chunk / shard / coalesce invariance, dense-vs-sparse
parity, delta parity (or a declared, enforced opt-out) and score-cap
sanity. A new objective that violates the cross-layer determinism
contract fails here before it can ship. The batch properties also run
with ``score_only`` both ways: a batch that computes only the score's
own table must return the full path's score byte for byte.

Randomized but reproducible: every test draws its rows from a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.evaluator as evaluator_module
from repro.core import (
    DeltaEvaluator,
    MappingEvaluator,
    MappingProblem,
    Objective,
    SNR_CAP_DB,
    delta_engine,
    random_assignment_batch,
    spec_for,
)
from repro.core.moves import swap_moves
from repro.core.objectives import BASE_TABLES, OBJECTIVE_SPECS, VARIATION_TABLES
from repro.errors import MappingError
from repro.photonics import VariationSpec

OBJECTIVES = list(Objective)

#: Small, fast variation plan shared by every robust-objective case.
VARIATION = VariationSpec(n_samples=3, sigma=0.05, seed=11)

#: The tables whose kernels run the crosstalk-noise contraction.
NOISE_TABLES = ("worst_snr", "mean_snr", "robust_snr")


def _problem(cg, network, objective):
    variation = VARIATION if spec_for(objective).requires_variation else None
    return MappingProblem(cg, network, objective, variation=variation)


def _evaluator(cg, network, objective, **kwargs):
    return MappingEvaluator(_problem(cg, network, objective), **kwargs)


def _rows(evaluator, n, seed=123):
    rng = np.random.default_rng(seed)
    return random_assignment_batch(
        n, evaluator.n_tasks, evaluator.n_tiles, rng
    )


@pytest.fixture(scope="module", params=[obj.value for obj in OBJECTIVES])
def objective(request):
    return Objective.parse(request.param)


class TestRegistry:
    def test_every_objective_has_a_spec(self):
        assert set(OBJECTIVE_SPECS) == set(Objective)

    def test_objective_names_enumerate_the_registry(self):
        from repro.core import objective_names

        assert objective_names() == tuple(obj.value for obj in Objective)

    @pytest.mark.parametrize("obj", OBJECTIVES)
    def test_spec_table_is_a_wire_column(self, obj):
        spec = OBJECTIVE_SPECS[obj]
        tables = VARIATION_TABLES if spec.requires_variation else BASE_TABLES
        assert spec.table in tables
        assert spec.objective is obj

    @pytest.mark.parametrize("obj", OBJECTIVES)
    def test_snr_based_exactly_when_the_table_reads_noise(self, obj):
        """``is_snr_based`` selects the kernels a score runs, so it must
        agree with the spec's table."""
        assert obj.is_snr_based == (OBJECTIVE_SPECS[obj].table in NOISE_TABLES)

    @pytest.mark.parametrize("obj", OBJECTIVES)
    def test_requires_variation_attaches_a_default_plan(
        self, obj, pip_cg, mesh3_network
    ):
        problem = MappingProblem(pip_cg, mesh3_network, obj)
        if spec_for(obj).requires_variation:
            assert problem.variation is not None
            assert problem.variation_fingerprint
        else:
            assert problem.variation is None
            assert problem.variation_fingerprint == ""


class TestDeterminism:
    def test_same_seed_same_scores(self, objective, pip_cg, mesh3_network):
        """Two fresh evaluators, same rows: bit-identical score columns."""
        first = _evaluator(pip_cg, mesh3_network, objective)
        second = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(first, 40)
        np.testing.assert_array_equal(
            first.evaluate_batch(rows).score, second.evaluate_batch(rows).score
        )

    def test_batch_matches_single_row(self, objective, pip_cg, mesh3_network):
        """Row i of a batch == evaluate() of row i, bit for bit.

        A ``score_only`` batch returns the full batch's score bytes and
        leaves ``None`` in each metric field its score does not read.
        """
        table = spec_for(objective).table
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(evaluator, 12)
        batch = evaluator.evaluate_batch(rows)
        for index in range(rows.shape[0]):
            metrics = evaluator.evaluate(rows[index])
            assert metrics.score == batch.score[index]
            assert metrics.worst_snr_db == batch.worst_snr_db[index]
            assert (
                metrics.worst_insertion_loss_db
                == batch.worst_insertion_loss_db[index]
            )
        scored = evaluator.evaluate_batch(rows, score_only=True)
        assert scored.score.tobytes() == batch.score.tobytes()
        for field, name in (
            ("worst_insertion_loss_db", "worst_il"),
            ("worst_snr_db", "worst_snr"),
        ):
            column = getattr(scored, field)
            if name == table:
                assert column.tobytes() == getattr(batch, field).tobytes()
            else:
                assert column is None, field

    def test_chunk_size_invariance(
        self, objective, pip_cg, mesh3_network, monkeypatch
    ):
        """Forcing 1-row chunks must not move a single bit of a full or
        a ``score_only`` batch."""
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        expected = evaluator.evaluate_batch(_rows(evaluator, 25)).score
        monkeypatch.setattr(evaluator_module, "_CHUNK_BYTES", 1)
        chunked = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(chunked, 25)
        for score_only in (False, True):
            got = chunked.evaluate_batch(rows, score_only=score_only).score
            assert got.tobytes() == expected.tobytes(), score_only

    def test_shard_count_invariance(self, objective, pip_cg, mesh3_network):
        """Inline-executor sharding at any worker count is bit-identical."""
        sequential = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(sequential, 64)
        expected = sequential.evaluate_batch(rows).score
        for n_workers in (2, 3):
            sharded = _evaluator(
                pip_cg,
                mesh3_network,
                objective,
                n_workers=n_workers,
                executor="inline",
            )
            got = sharded.evaluate_batch(rows, min_shard_rows=1).score
            np.testing.assert_array_equal(got, expected)
            sharded.close()

    def test_coalesced_flights_are_bit_identical(
        self, objective, pip_cg, mesh3_network
    ):
        """Rows riding a merged flight score exactly like direct rows."""
        from repro.service.coalesce import BatchCoalescer, CoalescingEvaluator

        direct = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(direct, 30)
        expected = direct.evaluate_batch(rows).score
        shared = _evaluator(pip_cg, mesh3_network, objective)
        coalescer = BatchCoalescer(shared, window_s=0.001)
        try:
            rider = CoalescingEvaluator(
                _problem(pip_cg, mesh3_network, objective), coalescer=coalescer
            )
            batches = [
                rider.submit_batch(rows[:11]),
                rider.submit_batch(rows[11:17]),
                rider.submit_batch(rows[17:]),
            ]
            got = np.concatenate([b.result().score for b in batches])
        finally:
            coalescer.close()
        np.testing.assert_array_equal(got, expected)


class TestBackendParity:
    def test_dense_and_sparse_agree(
        self, objective, pip_cg, mesh3_network, pin_kernel
    ):
        """The kernels agree, and each one's ``score_only`` score is its
        own full score byte for byte."""
        scores = {}
        for backend in ("dense", "sparse"):
            pin_kernel(backend)
            evaluator = _evaluator(pip_cg, mesh3_network, objective)
            rows = _rows(evaluator, 40)
            scores[backend] = evaluator.evaluate_batch(rows).score
            scored = evaluator.evaluate_batch(rows, score_only=True).score
            assert scored.tobytes() == scores[backend].tobytes(), backend
        np.testing.assert_allclose(
            scores["sparse"], scores["dense"], rtol=1e-9, atol=1e-9
        )

    def test_sparse_is_chunk_invariant_too(
        self, objective, pip_cg, mesh3_network, monkeypatch, pin_kernel
    ):
        pin_kernel("sparse")
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(evaluator, 20)
        expected = evaluator.evaluate_batch(rows).score
        monkeypatch.setattr(evaluator_module, "_CHUNK_BYTES", 1)
        chunked = _evaluator(pip_cg, mesh3_network, objective)
        np.testing.assert_array_equal(
            chunked.evaluate_batch(rows).score, expected
        )


class TestDeltaContract:
    def test_delta_parity_or_declared_opt_out(
        self, objective, pip_cg, mesh3_network
    ):
        """Supported objectives: delta == full. Unsupported: loud opt-out."""
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        if not spec_for(objective).supports_delta:
            assert delta_engine(evaluator) is None
            with pytest.raises(MappingError):
                DeltaEvaluator(evaluator)
            return
        engine = delta_engine(evaluator)
        assert isinstance(engine, DeltaEvaluator)
        rng = np.random.default_rng(29)
        assignment = _rows(evaluator, 1, seed=29)[0]
        engine.reset(assignment)
        moves = swap_moves(assignment, evaluator.n_tiles)
        picks = rng.choice(len(moves), size=12, replace=False)
        sampled = [moves[int(p)] for p in picks]
        from repro.core.moves import apply_move

        full = np.array(
            [
                evaluator.evaluate_batch(
                    apply_move(assignment, move)[None, :]
                ).score[0]
                for move in sampled
            ]
        )
        np.testing.assert_allclose(
            engine.score_moves(sampled), full, rtol=0, atol=1e-9
        )

    def test_delta_engine_respects_the_flag(
        self, objective, pip_cg, mesh3_network
    ):
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        assert delta_engine(evaluator, use_delta=False) is None


class TestScoreSanity:
    def test_scores_are_finite(self, objective, pip_cg, mesh3_network):
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        scores = evaluator.evaluate_batch(_rows(evaluator, 50)).score
        assert np.isfinite(scores).all()

    def test_snr_scores_respect_the_cap(self, objective, pip_cg, mesh3_network):
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        scores = evaluator.evaluate_batch(_rows(evaluator, 50)).score
        if objective.is_snr_based:
            assert (scores <= SNR_CAP_DB).all()

    def test_score_is_the_declared_table(self, objective, pip_cg, mesh3_network):
        """The wire table named by the spec IS the score column."""
        evaluator = _evaluator(pip_cg, mesh3_network, objective)
        rows = _rows(evaluator, 15)
        tables = evaluator._submit(rows).tables()
        index = evaluator.table_names.index(spec_for(objective).table)
        np.testing.assert_array_equal(
            evaluator.evaluate_batch(rows).score, tables[index]
        )
