"""Network assembly and path elaboration tests."""

import pickle

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.models.coupling import CouplingModel
from repro.noc import Floorplan, PhotonicNoC, XYRouting, YXRouting, line, mesh, torus
from repro.photonics import ElementKind, TraversalState


class TestAssembly:
    def test_element_count(self, mesh3_network):
        router_elements = len(mesh3_network.router_spec.elements)
        links = len(list(mesh3_network.topology.links()))
        assert mesh3_network.n_elements == 9 * router_elements + links

    def test_ring_instances(self, mesh3_network):
        rings = sum(
            1 for e in mesh3_network.elements if e.kind is ElementKind.CPSE
        )
        assert rings == 9 * 12

    def test_link_lengths(self, mesh3_network, torus4_network):
        mesh_links = [
            e for e in mesh3_network.elements if e.label.startswith("link.")
        ]
        assert all(e.length_cm == pytest.approx(0.25) for e in mesh_links)
        torus_links = [
            e for e in torus4_network.elements if e.label.startswith("link.")
        ]
        assert all(e.length_cm == pytest.approx(0.5) for e in torus_links)

    def test_tile_of_element(self, mesh3_network):
        local = len(mesh3_network.router_spec.elements)
        assert mesh3_network.tile_of_element(0) == 0
        assert mesh3_network.tile_of_element(local) == 1
        link_gid = 9 * local  # first link element
        assert mesh3_network.tile_of_element(link_gid) is None

    def test_crossbar_network(self, params):
        network = PhotonicNoC(mesh(2, 2), router="crossbar", params=params)
        assert network.router_spec.name == "crossbar"
        assert network.path(0, 3).loss_db < 0


class TestPaths:
    def test_path_starts_at_injection_ends_at_detector(self, mesh3_network):
        path = mesh3_network.path(0, 4)
        first = mesh3_network.element(path.traversals[0].element)
        last = mesh3_network.element(path.traversals[-1].element)
        assert first.label.startswith("t0.")
        assert last.label.startswith("t4.")

    def test_loss_is_sum_of_traversal_losses(self, mesh3_network):
        path = mesh3_network.path(0, 8)
        assert path.loss_db == pytest.approx(float(np.sum(path.losses_db)))

    def test_adjacent_pair_cheaper_than_distant(self, mesh3_network):
        assert mesh3_network.path(0, 1).loss_db > mesh3_network.path(0, 8).loss_db

    def test_path_cached(self, mesh3_network):
        assert mesh3_network.path(0, 5) is mesh3_network.path(0, 5)

    def test_all_paths_count(self, mesh3_network):
        assert len(mesh3_network.all_paths()) == 9 * 8

    def test_self_path_rejected(self, mesh3_network):
        with pytest.raises(RoutingError):
            mesh3_network.path(3, 3)

    def test_exactly_two_on_rings_for_adjacent(self, line2_network):
        """Adjacent-tile communication: inject ON + eject ON."""
        path = line2_network.path(0, 1)
        on_count = sum(
            1 for t in path.traversals if t.state is TraversalState.ON
        )
        assert on_count == 2

    def test_turn_adds_one_on_ring(self, mesh3_network):
        path = mesh3_network.path(0, 4)  # east then north: one turn
        on_count = sum(
            1 for t in path.traversals if t.state is TraversalState.ON
        )
        assert on_count == 3

    def test_cumulative_arrays_consistent(self, mesh3_network):
        path = mesh3_network.path(0, 7)
        assert path.cum_in_linear[0] == 1.0
        assert path.cum_out_linear[-1] == pytest.approx(path.total_linear)
        assert np.all(path.cum_out_linear <= path.cum_in_linear + 1e-15)
        expected_total = 10 ** (path.loss_db / 10)
        assert path.total_linear == pytest.approx(expected_total)

    def test_torus_wrap_path_shorter(self, params):
        mesh_net = PhotonicNoC(mesh(1, 4), params=params)
        # 1x4 torus is a ring of 4
        from repro.noc import ring

        ring_net = PhotonicNoC(ring(4), params=params)
        assert len(ring_net.path(0, 3)) < len(mesh_net.path(0, 3))


class TestRoutingChoice:
    def test_yx_needs_crossbar(self, params):
        network = PhotonicNoC(
            mesh(3, 3), router="crossbar", routing=YXRouting(), params=params
        )
        path = network.path(0, 8)
        assert path.loss_db < 0

    def test_yx_on_crux_fails(self, params):
        from repro.errors import ConfigurationError

        network = PhotonicNoC(mesh(3, 3), routing=YXRouting(), params=params)
        with pytest.raises(ConfigurationError, match="no connection"):
            network.path(0, 8)  # Crux has no Y->X turn


class TestSignature:
    def test_signature_distinguishes_router(self, params):
        a = PhotonicNoC(mesh(2, 2), router="crux", params=params)
        b = PhotonicNoC(mesh(2, 2), router="crossbar", params=params)
        assert a.signature != b.signature

    def test_signature_distinguishes_floorplan(self, params):
        a = PhotonicNoC(mesh(2, 2), params=params)
        b = PhotonicNoC(mesh(2, 2), params=params, floorplan=Floorplan(0.3))
        assert a.signature != b.signature

    def test_signature_stable(self, params):
        a = PhotonicNoC(mesh(2, 2), params=params)
        b = PhotonicNoC(mesh(2, 2), params=params)
        assert a.signature == b.signature


class TestPickling:
    def test_pickle_drops_derived_caches(self, params):
        """A network that has built its paths pickles no larger than a
        fresh one, and its copy rebuilds the same paths and model."""
        fresh = PhotonicNoC(torus(4, 4), params=params)
        used = PhotonicNoC(torus(4, 4), params=params)
        routed = used.all_paths_routed(2)
        # Every lazily derived cache is filled.
        assert used._paths and used._routed_paths and used._route_sets
        assert used._turn_keys
        assert len(pickle.dumps(used)) <= len(pickle.dumps(fresh))

        copy = pickle.loads(pickle.dumps(used))
        assert copy.signature == used.signature
        for (src, dst, route), path in routed.items():
            twin = copy.routed_path(src, dst, route, 2)
            assert twin.traversals == path.traversals
            np.testing.assert_array_equal(twin.losses_db, path.losses_db)
        for routes in (1, 2):
            original = CouplingModel(used, routes=routes)
            rebuilt = CouplingModel(copy, routes=routes)
            for name in ("signal_linear", "insertion_loss_db", "coupling_linear"):
                np.testing.assert_array_equal(
                    getattr(rebuilt, name), getattr(original, name)
                )
