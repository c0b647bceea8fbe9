"""Coupling model vs torus symmetry: an oracle that needs no second builder.

Every tile of a torus sees the same neighbourhood, and dimension-order
routing and the k-path menus depend only on the relative offset of a pair.
Translating every tile by ``(dx, dy)`` with wrap-around therefore maps the
network onto itself, and the model must be invariant under the induced
pair permutation ``T[s] * n + T[d]`` (times ``routes``, plus the route
index, for routed slots) — exactly, bit for bit. A mesh has edges, so the
same check must fail there: that negative case proves it can.
"""

import numpy as np
import pytest

from repro.models.coupling import CouplingModel
from repro.noc import PhotonicNoC, mesh, torus


def slot_permutation(topology, routes, dx, dy):
    """Model-slot index of every slot's image under the translation."""
    rows, cols = topology.rows, topology.cols
    n = topology.n_tiles
    tile = np.arange(n)
    moved = ((tile // cols + dy) % rows) * cols + (tile % cols + dx) % cols
    pair = moved[:, None] * n + moved[None, :]
    return (pair.reshape(-1, 1) * routes + np.arange(routes)).reshape(-1)


def invariant(model, dx, dy):
    """Whether the model is exactly unchanged by translating every tile."""
    perm = slot_permutation(model.network.topology, model.routes, dx, dy)
    return (
        np.array_equal(
            model.insertion_loss_db[perm], model.insertion_loss_db, equal_nan=True
        )
        and np.array_equal(model.signal_linear[perm], model.signal_linear)
        and np.array_equal(
            model.coupling_linear[np.ix_(perm, perm)], model.coupling_linear
        )
    )


@pytest.mark.parametrize("routes", [1, 2])
@pytest.mark.parametrize("side", [3, 4])
def test_torus_model_is_translation_invariant(params, side, routes):
    model = CouplingModel(PhotonicNoC(torus(side, side), params=params), routes=routes)
    for dy in range(side):
        for dx in range(side):
            assert invariant(model, dx, dy), (side, routes, dx, dy)


def test_mesh_model_is_not(params):
    model = CouplingModel(PhotonicNoC(mesh(4, 4), params=params))
    assert not invariant(model, 1, 0)
