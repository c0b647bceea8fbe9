"""Vectorized coupling-matrix tests: cross-validation against the reference.

The CouplingModel must agree with the pure-Python pairwise reference on
every architecture — this is the guard that keeps the fast path honest.
"""

import numpy as np
import pytest

from repro.models import CouplingModel, clear_model_cache, pairwise_coupling_linear
from repro.noc import PhotonicNoC, mesh, torus


@pytest.fixture(scope="module")
def mesh3_model(mesh3_network):
    return CouplingModel.for_network(mesh3_network)


class TestAgainstReference:
    def _check(self, network, model, sample_pairs):
        paths = network.all_paths()
        for victim_key, aggressor_key in sample_pairs:
            reference = pairwise_coupling_linear(
                network, paths[victim_key], paths[aggressor_key]
            )
            vectorized = model.coupling_linear[
                model.pair_index(*victim_key), model.pair_index(*aggressor_key)
            ]
            assert vectorized == pytest.approx(reference, rel=1e-9, abs=1e-18), (
                victim_key,
                aggressor_key,
            )

    def test_mesh3_sampled_pairs(self, mesh3_network, mesh3_model, rng):
        keys = sorted(mesh3_network.all_paths())
        picks = rng.choice(len(keys), size=25, replace=False)
        sample = [
            (keys[int(a)], keys[int(b)])
            for a in picks[:5]
            for b in picks
        ]
        self._check(mesh3_network, mesh3_model, sample)

    def test_torus_sampled_pairs(self, torus4_network, rng):
        model = CouplingModel.for_network(torus4_network)
        keys = sorted(torus4_network.all_paths())
        picks = rng.choice(len(keys), size=15, replace=False)
        sample = [
            (keys[int(a)], keys[int(b)]) for a in picks[:3] for b in picks
        ]
        self._check(torus4_network, model, sample)

    def test_crossbar_network_pairs(self, params, rng):
        network = PhotonicNoC(mesh(2, 2), router="crossbar", params=params)
        model = CouplingModel.for_network(network, use_cache=False)
        keys = sorted(network.all_paths())
        sample = [(v, a) for v in keys for a in keys]
        self._check(network, model, sample)


class TestMatrixProperties:
    def test_signal_matches_paths(self, mesh3_network, mesh3_model):
        for (src, dst), path in mesh3_network.all_paths().items():
            pair = mesh3_model.pair_index(src, dst)
            assert mesh3_model.signal_linear[pair] == pytest.approx(
                path.total_linear
            )
            assert mesh3_model.insertion_loss_db[pair] == pytest.approx(
                path.loss_db
            )

    def test_diagonal_is_zero(self, mesh3_model):
        assert np.all(np.diag(mesh3_model.coupling_linear) == 0.0)

    def test_no_negative_couplings(self, mesh3_model):
        assert mesh3_model.coupling_linear.min() >= 0.0

    def test_invalid_pairs_have_no_signal(self, mesh3_model):
        for tile in range(9):
            pair = mesh3_model.pair_index(tile, tile)
            assert mesh3_model.signal_linear[pair] == 0.0
            assert np.isnan(mesh3_model.insertion_loss_db[pair])

    def test_pair_indices_vectorized(self, mesh3_model):
        src = np.array([0, 1, 2])
        dst = np.array([3, 4, 5])
        expected = [mesh3_model.pair_index(s, d) for s, d in zip(src, dst)]
        assert list(mesh3_model.pair_indices(src, dst)) == expected

    def test_couplings_bounded_by_ring_grade(self, mesh3_model, params):
        """No single coupling can exceed Kp,off-grade by much: the noise is
        attenuated along both paths."""
        peak = mesh3_model.coupling_linear.max()
        assert peak < 10 ** (params.pse_off_crosstalk_db / 10) * 2.5


class TestCaching:
    def test_cache_returns_same_object(self, mesh3_network):
        a = CouplingModel.for_network(mesh3_network)
        b = CouplingModel.for_network(mesh3_network)
        assert a is b

    def test_no_cache_builds_fresh(self, mesh3_network):
        a = CouplingModel.for_network(mesh3_network)
        b = CouplingModel.for_network(mesh3_network, use_cache=False)
        assert a is not b

    def test_clear_cache(self, params):
        network = PhotonicNoC(mesh(2, 2), params=params)
        a = CouplingModel.for_network(network)
        clear_model_cache()
        b = CouplingModel.for_network(network)
        assert a is not b
