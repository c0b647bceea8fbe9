"""Coupling-model process cache and CSR view guarantees.

The process cache is global state: a model built with
``use_cache=False`` must stay out of the cache, and dtype keys must never
alias. The CSR triplet must describe exactly the dense matrix's nonzeros.
"""

import numpy as np
import pytest

from repro.models import coupling as coupling_module
from repro.models.coupling import CouplingModel, clear_model_cache


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_model_cache()
    yield
    clear_model_cache()


class TestProcessCache:
    def test_for_network_seeds_cache_by_default(self, mesh3_network):
        model = CouplingModel.for_network(mesh3_network)
        key = CouplingModel.cache_key(mesh3_network, np.float64)
        assert coupling_module._CACHE[key] is model
        assert CouplingModel.for_network(mesh3_network) is model

    def test_use_cache_false_does_not_seed_cache(self, mesh3_network):
        key = CouplingModel.cache_key(mesh3_network, np.float64)
        model = CouplingModel.for_network(mesh3_network, use_cache=False)
        assert key not in coupling_module._CACHE
        # ...and does not read a previously cached instance either.
        cached = CouplingModel.for_network(mesh3_network)
        assert (
            CouplingModel.for_network(mesh3_network, use_cache=False)
            is not cached
        )
        assert model is not cached

    def test_dtype_keys_do_not_alias(self, mesh3_network):
        m64 = CouplingModel.for_network(mesh3_network)
        m32 = CouplingModel.for_network(mesh3_network, dtype=np.float32)
        assert m64 is not m32
        assert m32.coupling_linear.dtype == np.float32


class TestCouplingCSR:
    def test_csr_structure_matches_dense_matrix(self, mesh3_network):
        model = CouplingModel.for_network(mesh3_network)
        csr = model.csr()
        dense = model.coupling_linear
        assert csr.nnz == np.count_nonzero(dense)
        for row in (0, 3, model.n_pairs - 1):
            lo, hi = csr.indptr[row], csr.indptr[row + 1]
            cols = csr.indices[lo:hi]
            assert (np.diff(cols) > 0).all()  # column-sorted, no dupes
            np.testing.assert_array_equal(cols, np.nonzero(dense[row])[0])
            np.testing.assert_array_equal(
                csr.values[lo:hi], dense[row, cols]
            )

    def test_row_dots_matches_dense_matvec(self, mesh3_network):
        model = CouplingModel.for_network(mesh3_network)
        csr = model.csr()
        rng = np.random.default_rng(3)
        weights = rng.random(model.n_pairs)
        expected = model.coupling_linear @ weights
        np.testing.assert_allclose(
            csr.row_dots(weights), expected, rtol=1e-12, atol=0
        )
