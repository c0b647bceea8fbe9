"""Routed coupling-model tests (the ``routes > 1`` pair axis).

The joint mapping x routing evaluator trusts three model properties:
route-0 slots are byte-identical to the single-route model (that is what
makes k=1 bit-identity possible), out-of-menu slots alias their
``route % menu`` entry (stale genes resolve via matrix content), and the
process/disk caches never alias routed and mapping-only models.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import coupling as coupling_module
from repro.models.coupling import CouplingModel, clear_model_cache

ROUTES = 3


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_model_cache()
    yield
    clear_model_cache()


@pytest.fixture(scope="module")
def legacy(torus4_network):
    return CouplingModel(torus4_network)


@pytest.fixture(scope="module")
def routed(torus4_network):
    return CouplingModel(torus4_network, routes=ROUTES)


def route0_slots(model):
    return np.arange(model.n_tiles * model.n_tiles) * model.routes


class TestRouteZeroIdentity:
    def test_pair_axis_widened(self, routed, legacy):
        assert routed.n_pairs == legacy.n_pairs * ROUTES

    def test_signal_linear_route0_submatrix(self, routed, legacy):
        slots = route0_slots(routed)
        assert np.array_equal(routed.signal_linear[slots], legacy.signal_linear)

    def test_insertion_loss_route0_submatrix(self, routed, legacy):
        slots = route0_slots(routed)
        assert np.array_equal(
            routed.insertion_loss_db[slots],
            legacy.insertion_loss_db,
            equal_nan=True,
        )

    def test_coupling_route0_submatrix(self, routed, legacy):
        slots = route0_slots(routed)
        assert np.array_equal(
            routed.coupling_linear[np.ix_(slots, slots)],
            legacy.coupling_linear,
        )

    def test_out_of_menu_slots_alias_modulo(self, routed, torus4_network):
        """Every route slot r >= menu repeats slot r % menu, column and
        row alike — this is what lets stale genes survive remaps."""
        counts = torus4_network.route_counts(ROUTES).reshape(16, 16)
        src, dst = map(int, np.argwhere(counts == 1)[1])
        base = (src * 16 + dst) * ROUTES
        for extra in (1, 2):
            assert routed.signal_linear[base + extra] == routed.signal_linear[base]
            assert np.array_equal(
                routed.coupling_linear[:, base + extra],
                routed.coupling_linear[:, base],
            )
            assert np.array_equal(
                routed.coupling_linear[base + extra],
                routed.coupling_linear[base],
            )

    def test_alternate_routes_differ_where_menus_grow(
        self, routed, torus4_network
    ):
        counts = torus4_network.route_counts(ROUTES).reshape(16, 16)
        src, dst = map(int, np.argwhere(counts > 1)[0])
        base = (src * 16 + dst) * ROUTES
        assert routed.signal_linear[base + 1] > 0.0
        assert not np.array_equal(
            routed.coupling_linear[:, base + 1],
            routed.coupling_linear[:, base],
        )

    def test_pair_index_strides_by_routes(self, routed, legacy):
        assert legacy.pair_index(2, 5) == 2 * 16 + 5
        assert routed.pair_index(2, 5) == (2 * 16 + 5) * ROUTES
        src = np.array([0, 3], dtype=np.int64)
        dst = np.array([1, 7], dtype=np.int64)
        assert np.array_equal(
            routed.pair_indices(src, dst),
            (src * 16 + dst) * ROUTES,
        )


class TestRoutedValidation:
    def test_routes_below_one_rejected(self, torus4_network):
        with pytest.raises(ModelError):
            CouplingModel(torus4_network, routes=0)

    def test_legacy_builder_rejects_routed(self, torus4_network):
        with pytest.raises(ModelError):
            CouplingModel(torus4_network, builder="legacy", routes=ROUTES)


class TestRoutedCacheKeys:
    def test_process_cache_keys_do_not_alias(self, torus4_network):
        plain = CouplingModel.cache_key(torus4_network, np.float64)
        routed_key = CouplingModel.cache_key(
            torus4_network, np.float64, routes=ROUTES
        )
        assert plain != routed_key
        assert "routes" not in plain  # k=1 keys are the historical bytes
        assert CouplingModel.cache_key(torus4_network, np.float64, routes=1) == plain

    def test_disk_keys_do_not_alias(self, torus4_network):
        signature = torus4_network.signature
        plain = CouplingModel.disk_key(signature, np.float64)
        routed_key = CouplingModel.disk_key(signature, np.float64, routes=ROUTES)
        assert plain != routed_key
        assert CouplingModel.disk_key(signature, np.float64, routes=1) == plain

    def test_for_network_caches_per_routes(self, torus4_network):
        plain = CouplingModel.for_network(torus4_network)
        routed_model = CouplingModel.for_network(torus4_network, routes=ROUTES)
        assert plain is not routed_model
        assert routed_model.routes == ROUTES
        assert (
            CouplingModel.for_network(torus4_network, routes=ROUTES)
            is routed_model
        )
        assert CouplingModel.for_network(torus4_network) is plain


class TestRoutedDiskCache:
    def test_round_trip(self, torus4_network, routed, tmp_path):
        assert routed.save_cached(str(tmp_path)) is not None
        loaded = CouplingModel.load_cached(
            torus4_network, np.float64, str(tmp_path), routes=ROUTES
        )
        assert loaded is not None
        assert loaded.routes == ROUTES
        assert np.array_equal(loaded.coupling_linear, routed.coupling_linear)
        assert np.array_equal(loaded.signal_linear, routed.signal_linear)
        assert np.array_equal(
            loaded.insertion_loss_db, routed.insertion_loss_db, equal_nan=True
        )

    def test_routed_entry_invisible_to_plain_lookup(
        self, torus4_network, routed, tmp_path
    ):
        routed.save_cached(str(tmp_path))
        assert (
            CouplingModel.load_cached(torus4_network, np.float64, str(tmp_path))
            is None
        )
        assert (
            CouplingModel.load_cached(
                torus4_network, np.float64, str(tmp_path), routes=2
            )
            is None
        )


class TestRoutedArrayStreaming:
    def test_export_arrays_round_trip(self, torus4_network, routed):
        payload = routed.export_arrays()
        assert payload["routes"] == ROUTES
        rebuilt = CouplingModel.from_arrays(torus4_network, payload)
        assert rebuilt.routes == ROUTES
        assert np.array_equal(rebuilt.coupling_linear, routed.coupling_linear)

    def test_from_arrays_rejects_width_mismatch(self, torus4_network, routed):
        payload = routed.export_arrays()
        payload["routes"] = 2  # arrays are sized for 3 menus per pair
        with pytest.raises(ModelError):
            CouplingModel.from_arrays(torus4_network, payload)
