"""The netlist-sharing contract of ``build_case_study_network``.

While the process holds a coupling model for an architecture, every call
with the same arguments hands back that model's network instead of
assembling a new one. Nothing else is retained: clearing the model cache
releases the netlist, and a request that fails before its model resolves
leaves no netlist behind. A shared netlist elaborates from many threads
exactly as a fresh one does.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import build_case_study_network
from repro.core import pool as pool_registry
from repro.models import coupling
from repro.models.coupling import CouplingModel, cached_network, clear_model_cache
from repro.noc import PhotonicNoC, torus
from repro.photonics import PhysicalParameters
from repro.service import ServiceCore

BASE = ("mesh", 3, "crux", None)
VARIANTS = {
    "topology": ("torus", 3, "crux", None),
    "side": ("mesh", 4, "crux", None),
    "router": ("mesh", 3, "crossbar", None),
    "params": (
        "mesh", 3, "crux", PhysicalParameters().with_overrides(crossing_loss_db=-0.05)
    ),
}


@pytest.fixture
def empty_model_cache():
    clear_model_cache()
    experiments._HELD_SIGNATURES.clear()
    yield
    clear_model_cache()


def build(topology, side, router, params):
    return build_case_study_network(topology, side, router, params=params)


class TestSharing:
    def test_same_arguments_share_once_a_model_is_held(self, empty_model_cache):
        first = build(*BASE)
        # No model yet: nothing to share, so every call assembles.
        assert build(*BASE) is not first
        CouplingModel.for_network(first)
        assert build(*BASE) is first
        # params=None and the default parameter set are one architecture.
        assert build("mesh", 3, "crux", PhysicalParameters()) is first

    @pytest.mark.parametrize("changed", sorted(VARIANTS))
    def test_changing_one_argument_gives_another_netlist(
        self, empty_model_cache, changed
    ):
        base = build(*BASE)
        CouplingModel.for_network(base)
        variant = build(*VARIANTS[changed])
        assert variant is not base
        assert variant.signature != base.signature
        CouplingModel.for_network(variant)
        assert build(*VARIANTS[changed]) is variant
        assert build(*BASE) is base

    def test_clear_model_cache_releases_the_netlist(self, empty_model_cache):
        network = build(*BASE)
        CouplingModel.for_network(network)
        signature = network.signature
        assert cached_network(signature) is network
        clear_model_cache()
        assert cached_network(signature) is None
        rebuilt = build(*BASE)
        assert rebuilt is not network
        released = weakref.ref(network)
        del network
        gc.collect()
        assert released() is None

    @pytest.mark.parametrize(
        "payload",
        [
            # VOPD (16 tasks) cannot fit a 3x3 grid: the problem is infeasible.
            {"kind": "evaluate", "app": "vopd", "side": 3},
            {"kind": "evaluate", "app": "pip", "router": "no-such-router"},
        ],
        ids=["infeasible", "unknown-router"],
    )
    def test_failed_request_leaves_nothing_behind(self, empty_model_cache, payload):
        core = ServiceCore()
        try:
            body, status = core.handle(payload)
        finally:
            core.close(timeout=30)
            pool_registry.shutdown_pools()
        assert status == 400, body
        assert coupling._CACHE == {}
        assert coupling._NETWORKS == {}
        assert not experiments._HELD_SIGNATURES
        assert build(*BASE) is not build(*BASE)


class TestThreadSafety:
    def test_threads_elaborate_a_shared_netlist_like_a_fresh_one(self):
        shared = PhotonicNoC(torus(4, 4))
        n_threads = 8
        start = threading.Barrier(n_threads, timeout=30)
        results = [None] * n_threads
        errors = []

        def elaborate(index):
            try:
                start.wait()
                results[index] = shared.all_paths_routed(3)
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [
            threading.Thread(target=elaborate, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)

        fresh = PhotonicNoC(torus(4, 4)).all_paths_routed(3)
        for paths in results:
            assert list(paths) == list(fresh)
            for slot, path in paths.items():
                np.testing.assert_array_equal(path.steps, fresh[slot].steps)
                np.testing.assert_array_equal(path.losses_db, fresh[slot].losses_db)
        # all_paths keeps the build's (src, dst) order whatever order the
        # threads elaborated the pairs in.
        assert list(shared.all_paths()) == list(PhotonicNoC(torus(4, 4)).all_paths())

    def test_pairs_elaborated_first_do_not_reorder_the_model_build(self):
        """A shared netlist may have some paths elaborated before its
        first model build; the build must not see them first."""
        early = PhotonicNoC(torus(3, 3))
        early.path(5, 1)
        early.path(2, 7)
        fresh = PhotonicNoC(torus(3, 3))
        assert list(early.all_paths()) == list(fresh.all_paths())
        built = CouplingModel(early)
        reference = CouplingModel(fresh)
        for name in ("signal_linear", "insertion_loss_db", "coupling_linear"):
            assert getattr(built, name).tobytes() == getattr(reference, name).tobytes()
