"""Coupling-model process cache and CSR view guarantees.

The process cache is global state: a resolved model is the one every
later resolve of the same network returns. The CSR triplet must
describe exactly the dense matrix's nonzeros.
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
        key = CouplingModel.cache_key(mesh3_network)
        assert coupling_module._CACHE[key] is model
        assert CouplingModel.for_network(mesh3_network) is model


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
