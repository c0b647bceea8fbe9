"""Mapping evaluator tests: the worst-case metrics of eqs. (3)-(4)."""

import numpy as np
import pytest

from repro.core import (
    Mapping,
    MappingEvaluator,
    MappingProblem,
    Objective,
    SNR_CAP_DB,
    random_assignment_batch,
)
from repro.errors import MappingError
from repro.models import pairwise_coupling_linear


class TestSingleEvaluation:
    def test_worst_loss_is_min_edge_loss(self, pip_evaluator, pip_cg, mesh3_network):
        mapping = Mapping(pip_cg, list(range(8)), 9)
        metrics = pip_evaluator.evaluate(mapping, with_edges=True)
        assert metrics.worst_insertion_loss_db == pytest.approx(
            metrics.edges.insertion_loss_db.min()
        )

    def test_worst_snr_is_min_edge_snr(self, pip_evaluator, pip_cg):
        mapping = Mapping(pip_cg, list(range(8)), 9)
        metrics = pip_evaluator.evaluate(mapping, with_edges=True)
        assert metrics.worst_snr_db == pytest.approx(metrics.edges.snr_db.min())

    def test_edge_losses_match_paths(self, pip_evaluator, pip_cg, mesh3_network):
        mapping = Mapping(pip_cg, list(range(8)), 9)
        metrics = pip_evaluator.evaluate(mapping, with_edges=True)
        for index, edge in enumerate(pip_cg.edges):
            expected = mesh3_network.path(
                mapping.tile_of(edge.src), mapping.tile_of(edge.dst)
            ).loss_db
            assert metrics.edges.insertion_loss_db[index] == pytest.approx(expected)

    def test_noise_respects_serialization_mask(
        self, pip_evaluator, pip_cg, mesh3_network
    ):
        """Edge noise equals the masked sum of pairwise couplings."""
        mapping = Mapping(pip_cg, [3, 4, 5, 0, 1, 6, 7, 8], 9)
        metrics = pip_evaluator.evaluate(mapping, with_edges=True)
        mask = pip_cg.serialization_mask()
        paths = {
            (s, d): mesh3_network.path(mapping.tile_of(s), mapping.tile_of(d))
            for s, d in pip_cg.edge_pairs()
        }
        pairs = pip_cg.edge_pairs()
        for v, victim_key in enumerate(pairs):
            expected = sum(
                pairwise_coupling_linear(
                    mesh3_network, paths[victim_key], paths[aggressor_key]
                )
                for a, aggressor_key in enumerate(pairs)
                if mask[v, a]
            )
            assert metrics.edges.noise_linear[v] == pytest.approx(
                expected, rel=1e-9, abs=1e-18
            )

    def test_accepts_raw_array(self, pip_evaluator):
        metrics = pip_evaluator.evaluate(np.arange(8))
        assert metrics.worst_insertion_loss_db < 0

    def test_rejects_invalid_array(self, pip_evaluator):
        with pytest.raises(MappingError):
            pip_evaluator.evaluate(np.zeros(8, dtype=int))


class TestBatchEvaluation:
    def test_batch_matches_single(self, pip_evaluator, rng):
        batch = random_assignment_batch(16, 8, 9, rng)
        results = pip_evaluator.evaluate_batch(batch)
        for index in range(16):
            single = pip_evaluator.evaluate(batch[index])
            assert results.worst_snr_db[index] == pytest.approx(
                single.worst_snr_db
            )
            assert results.worst_insertion_loss_db[index] == pytest.approx(
                single.worst_insertion_loss_db
            )

    def test_wrong_width_rejected(self, pip_evaluator):
        with pytest.raises(MappingError):
            pip_evaluator.evaluate_batch(np.zeros((4, 3), dtype=int))

    def test_too_wide_batch_rejected(self, pip_evaluator):
        with pytest.raises(MappingError):
            pip_evaluator.evaluate_batch(np.zeros((4, 9), dtype=int))

    def test_one_dimensional_wrong_length_rejected(self, pip_evaluator):
        with pytest.raises(MappingError):
            pip_evaluator.evaluate_batch(np.arange(5))

    def test_empty_batch_rejected(self, pip_evaluator):
        with pytest.raises(MappingError):
            pip_evaluator.evaluate_batch(np.empty((0,), dtype=int))

    def test_chunked_equals_unchunked(self, pip_evaluator, rng, monkeypatch):
        """A one-byte chunk budget forces single-mapping chunks; results
        must match the unchunked evaluation bit for bit (every reduction
        is row-local; the odd batch size exercises an uneven final
        chunk)."""
        import repro.core.evaluator as evaluator_module

        batch = random_assignment_batch(17, 8, 9, rng)
        expected = pip_evaluator.evaluate_batch(batch)
        monkeypatch.setattr(evaluator_module, "_CHUNK_BYTES", 1)
        chunked = pip_evaluator.evaluate_batch(batch)
        np.testing.assert_array_equal(chunked.score, expected.score)
        np.testing.assert_array_equal(
            chunked.worst_insertion_loss_db, expected.worst_insertion_loss_db
        )
        np.testing.assert_array_equal(
            chunked.worst_snr_db, expected.worst_snr_db
        )

    def test_chunk_boundary_straddling(self, pip_evaluator, rng, monkeypatch):
        """Chunk sizes that do not divide the batch leave a short tail."""
        import repro.core.evaluator as evaluator_module

        batch = random_assignment_batch(10, 8, 9, rng)
        expected = pip_evaluator.evaluate_batch(batch)
        # 3 mappings per chunk -> chunks of 3, 3, 3, 1.
        n_edges = len(pip_evaluator._edges)
        monkeypatch.setattr(
            evaluator_module, "_CHUNK_BYTES", 3 * 16 * n_edges * n_edges
        )
        assert pip_evaluator._chunk_rows() == 3
        chunked = pip_evaluator.evaluate_batch(batch)
        np.testing.assert_array_equal(chunked.score, expected.score)

    def test_snr_capped_when_noiseless(self, params):
        """Two isolated communications on a big mesh: zero noise."""
        from repro.appgraph import CommunicationGraph
        from repro.noc import PhotonicNoC, mesh

        cg = CommunicationGraph("iso", ["a", "b", "c", "d"], [(0, 1), (2, 3)])
        network = PhotonicNoC(mesh(4, 4), params=params)
        evaluator = MappingEvaluator(MappingProblem(cg, network, Objective.SNR))
        # a->b in the south-west corner, c->d in the north-east corner
        metrics = evaluator.evaluate(np.array([0, 1, 14, 15]))
        assert metrics.worst_snr_db == SNR_CAP_DB

    def test_evaluation_counter(self, pip_evaluator, rng):
        pip_evaluator.reset_count()
        pip_evaluator.evaluate_batch(random_assignment_batch(10, 8, 9, rng))
        pip_evaluator.evaluate(np.arange(8))
        assert pip_evaluator.evaluations == 11


class TestChunking:
    """Dense chunk sizing charges 16 bytes per grid element: the int64
    gather index plus the float64 coupling it reads."""

    def test_chunk_rows_fill_the_byte_budget(
        self, pip_cg, mesh3_network, monkeypatch
    ):
        import repro.core.evaluator as evaluator_module

        evaluator = MappingEvaluator(MappingProblem(pip_cg, mesh3_network))
        n_edges = len(evaluator._edges)
        monkeypatch.setattr(
            evaluator_module, "_CHUNK_BYTES", 16 * n_edges * n_edges * 6
        )
        assert evaluator._chunk_rows() == 6

    @pytest.mark.parametrize("routes", [1, 3])
    def test_pair_table_is_row_major(self, vopd_cg, mesh4_network, routes):
        """The dense kernel's flat gather is only fast through a row-major
        index, and no bit-identity test can see the layout."""
        evaluator = MappingEvaluator(
            MappingProblem(vopd_cg, mesh4_network, routes=routes)
        )
        batch = evaluator.random_vector_batch(33, np.random.default_rng(4))
        pairs = evaluator._pair_table(batch)
        assert pairs.shape == (33, evaluator.n_edges)
        assert pairs.flags.c_contiguous

    def test_mask_cast_hoisted_to_float64(self, pip_cg, mesh3_network):
        problem = MappingProblem(pip_cg, mesh3_network)
        assert MappingEvaluator(problem)._mask_linear.dtype == np.float64


class TestObjectives:
    def test_snr_objective_score(self, pip_cg, mesh3_network):
        evaluator = MappingEvaluator(
            MappingProblem(pip_cg, mesh3_network, Objective.SNR)
        )
        metrics = evaluator.evaluate(np.arange(8))
        assert metrics.score == metrics.worst_snr_db

    def test_loss_objective_score(self, pip_cg, mesh3_network):
        evaluator = MappingEvaluator(
            MappingProblem(pip_cg, mesh3_network, Objective.INSERTION_LOSS)
        )
        metrics = evaluator.evaluate(np.arange(8))
        assert metrics.score == metrics.worst_insertion_loss_db

    def test_mean_snr_objective(self, pip_cg, mesh3_network):
        evaluator = MappingEvaluator(
            MappingProblem(pip_cg, mesh3_network, Objective.MEAN_SNR)
        )
        metrics = evaluator.evaluate(np.arange(8))
        assert metrics.score == pytest.approx(metrics.mean_snr_db)
        assert metrics.mean_snr_db >= metrics.worst_snr_db

    def test_weighted_loss_objective(self, pip_cg, mesh3_network):
        evaluator = MappingEvaluator(
            MappingProblem(pip_cg, mesh3_network, Objective.WEIGHTED_LOSS)
        )
        metrics = evaluator.evaluate(np.arange(8))
        assert metrics.score == pytest.approx(metrics.weighted_loss_db)
        assert metrics.weighted_loss_db >= metrics.worst_insertion_loss_db

    def test_objective_parse(self):
        assert Objective.parse("snr") is Objective.SNR
        assert Objective.parse(Objective.INSERTION_LOSS) is Objective.INSERTION_LOSS
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Objective.parse("bogus")

    def test_objective_descriptions(self):
        for member in Objective:
            assert member.description
