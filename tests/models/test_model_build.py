"""Walk-once vectorized builder: legacy parity and the disk cache.

The vectorized ``CouplingModel._build`` must be **bit-identical** to the
seed per-aggressor walk loop (kept as ``builder="legacy"``) on meshes and
tori, at float64 and float32 — and the on-disk model cache must only ever
be a fast path: hits are memory-mapped loads of identical arrays, misses
(signature / dtype / version changes), corruption and unwritable
directories all fall back to a correct build.
"""

import json
import os

import numpy as np
import pytest

from repro.models import coupling as coupling_module
from repro.models import pairwise_coupling_linear
from repro.models.coupling import CouplingModel, clear_model_cache
from repro.noc import PhotonicNoC, mesh


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_model_cache()
    yield
    clear_model_cache()


@pytest.fixture(
    scope="module",
    # The torus4 legacy oracle builds take ~10 s per dtype: slow lane.
    params=["mesh3", "mesh4", pytest.param("torus4", marks=pytest.mark.slow)],
)
def network_pair(request):
    """(name, network) for every architecture of the parity matrix."""
    return request.param, request.getfixturevalue(f"{request.param}_network")


@pytest.fixture(scope="module", params=["float64", "float32"])
def legacy_and_vectorized(request, network_pair):
    name, network = network_pair
    dtype = np.dtype(request.param)
    legacy = CouplingModel(network, dtype=dtype, builder="legacy")
    vectorized = CouplingModel(network, dtype=dtype)
    return name, legacy, vectorized


class TestLegacyParity:
    def test_coupling_bit_identical(self, legacy_and_vectorized):
        name, legacy, vectorized = legacy_and_vectorized
        np.testing.assert_array_equal(
            vectorized.coupling_linear, legacy.coupling_linear, err_msg=name
        )

    def test_signal_bit_identical(self, legacy_and_vectorized):
        name, legacy, vectorized = legacy_and_vectorized
        np.testing.assert_array_equal(
            vectorized.signal_linear, legacy.signal_linear, err_msg=name
        )

    def test_insertion_loss_bit_identical(self, legacy_and_vectorized):
        name, legacy, vectorized = legacy_and_vectorized
        # NaN on the src == dst diagonal pairs in both builders.
        np.testing.assert_array_equal(
            vectorized.insertion_loss_db, legacy.insertion_loss_db, err_msg=name
        )

    def test_unknown_builder_rejected(self, mesh3_network):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            CouplingModel(mesh3_network, builder="quantum")


class TestTorusCrossValidation:
    """Wrap-around walks exercise the cutoff-terminated orbit paths."""

    def test_torus_walks_orbit_until_cutoff(self, torus4_network):
        """On a torus some emission walk revisits elements (a wrap orbit)
        and ends by attenuation, not absorption — the regime the walk-once
        builder's cycle detection must get right."""
        from repro.models import emission_walk

        orbits = 0
        for path in list(torus4_network.all_paths().values())[:40]:
            for step in path.traversals:
                seen = set()
                for element, _i, _o, _loss in emission_walk(
                    torus4_network, step.element, step.out_port
                ):
                    if element in seen:
                        orbits += 1
                        break
                    seen.add(element)
                if orbits:
                    break
            if orbits:
                break
        assert orbits, "no wrap-around orbit found on the torus"

    def test_vectorized_matches_reference_on_wrap_pairs(self, torus4_network):
        model = CouplingModel.for_network(torus4_network)
        paths = torus4_network.all_paths()
        # Edge-column tiles route over the wrap links under XY on a 4x4
        # torus (distance 3 > wrap distance 1).
        keys = [(0, 3), (3, 0), (12, 15), (0, 12), (3, 15), (1, 2), (5, 6)]
        for victim_key in keys[:4]:
            for aggressor_key in keys:
                if victim_key == aggressor_key:
                    continue
                reference = pairwise_coupling_linear(
                    torus4_network, paths[victim_key], paths[aggressor_key]
                )
                vectorized = model.coupling_linear[
                    model.pair_index(*victim_key),
                    model.pair_index(*aggressor_key),
                ]
                assert vectorized == pytest.approx(
                    reference, rel=1e-9, abs=1e-18
                ), (victim_key, aggressor_key)


class TestDiskCache:
    def _network(self, params):
        return PhotonicNoC(mesh(2, 2), params=params)

    def test_cold_build_persists_then_warm_load_memory_maps(
        self, params, tmp_path, monkeypatch
    ):
        network = self._network(params)
        built = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        key = CouplingModel.disk_key(network.signature, np.float64)
        assert (tmp_path / key / "meta.json").is_file()

        # A warm load must not build: poison the builder.
        def no_build(self):
            raise AssertionError("cache hit must not rebuild")

        monkeypatch.setattr(CouplingModel, "_build", no_build)
        loaded = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        assert isinstance(loaded.coupling_linear, np.memmap)
        assert not loaded.coupling_linear.flags.writeable
        np.testing.assert_array_equal(
            np.asarray(loaded.coupling_linear), built.coupling_linear
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.signal_linear), built.signal_linear
        )
        assert loaded._nnz == built.nnz  # seeded from the cache metadata

    def test_miss_on_dtype_and_signature(self, params, tmp_path):
        network = self._network(params)
        CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        assert (
            CouplingModel.load_cached(network, np.float32, str(tmp_path))
            is None
        )
        other = PhotonicNoC(mesh(3, 3), params=params)
        assert (
            CouplingModel.load_cached(other, np.float64, str(tmp_path))
            is None
        )

    def test_miss_on_model_version_bump(self, params, tmp_path, monkeypatch):
        network = self._network(params)
        built = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        monkeypatch.setattr(
            coupling_module, "MODEL_VERSION", coupling_module.MODEL_VERSION + 1
        )
        assert (
            CouplingModel.load_cached(network, np.float64, str(tmp_path))
            is None
        )
        # ... and for_network transparently rebuilds (and re-persists
        # under the new key).
        rebuilt = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        np.testing.assert_array_equal(
            rebuilt.coupling_linear, built.coupling_linear
        )
        assert len(list(tmp_path.iterdir())) == 2  # one entry per version

    def test_stale_metadata_signature_misses(self, params, tmp_path):
        """A key collision (or hand-edited entry) is caught by the
        metadata check, not trusted on file name alone."""
        network = self._network(params)
        CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        key = CouplingModel.disk_key(network.signature, np.float64)
        meta_path = tmp_path / key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["signature"] = "somebody-else's-architecture"
        meta_path.write_text(json.dumps(meta))
        assert (
            CouplingModel.load_cached(network, np.float64, str(tmp_path))
            is None
        )

    def test_corrupted_entry_falls_back_to_rebuild(self, params, tmp_path):
        network = self._network(params)
        built = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        key = CouplingModel.disk_key(network.signature, np.float64)
        (tmp_path / key / "coupling_linear.npy").write_bytes(b"not numpy")
        recovered = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(tmp_path)
        )
        np.testing.assert_array_equal(
            np.asarray(recovered.coupling_linear), built.coupling_linear
        )
        # The rebuild repaired the entry in place.
        repaired = CouplingModel.load_cached(
            network, np.float64, str(tmp_path)
        )
        assert repaired is not None
        np.testing.assert_array_equal(
            np.asarray(repaired.coupling_linear), built.coupling_linear
        )

    def test_unwritable_cache_dir_falls_back_to_memory(self, params, tmp_path):
        """A cache_dir that cannot be written (here: obstructed by a
        plain file) must degrade to an ordinary in-memory build."""
        obstruction = tmp_path / "not-a-directory"
        obstruction.write_text("in the way")
        network = self._network(params)
        model = CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(obstruction)
        )
        reference = CouplingModel(network)
        np.testing.assert_array_equal(
            model.coupling_linear, reference.coupling_linear
        )
        assert obstruction.read_text() == "in the way"

    def test_module_default_cache_dir(self, params, tmp_path):
        from repro.models.coupling import (
            get_model_cache_dir,
            set_model_cache_dir,
        )

        previous = get_model_cache_dir()
        try:
            set_model_cache_dir(str(tmp_path))
            network = self._network(params)
            CouplingModel.for_network(network, use_cache=False)
            key = CouplingModel.disk_key(network.signature, np.float64)
            assert (tmp_path / key).is_dir()
        finally:
            set_model_cache_dir(previous)

    def test_explicit_cache_dir_overrides_default(self, params, tmp_path, monkeypatch):
        from repro.models.coupling import set_model_cache_dir

        default_dir = tmp_path / "default"
        explicit_dir = tmp_path / "explicit"
        monkeypatch.setattr(coupling_module, "_MODEL_CACHE_DIR", None)
        set_model_cache_dir(str(default_dir))
        network = self._network(params)
        CouplingModel.for_network(
            network, use_cache=False, cache_dir=str(explicit_dir)
        )
        key = CouplingModel.disk_key(network.signature, np.float64)
        assert (explicit_dir / key).is_dir()
        assert not default_dir.exists()

    def test_evaluator_resolves_default_dir_for_pools(
        self, params, pip_cg, tmp_path, monkeypatch
    ):
        """The process-wide default must land on the evaluator (and thus
        on the pools it creates), not stay an unresolved None."""
        from repro.core import MappingEvaluator, MappingProblem
        from repro.models.coupling import set_model_cache_dir

        monkeypatch.setattr(coupling_module, "_MODEL_CACHE_DIR", None)
        set_model_cache_dir(str(tmp_path))
        network = PhotonicNoC(mesh(3, 3), params=params)
        problem = MappingProblem(pip_cg, network, "snr")
        evaluator = MappingEvaluator(problem)
        assert evaluator.model_cache_dir == str(tmp_path)

    def test_evaluator_threads_cache_dir(self, params, pip_cg, tmp_path):
        from repro.core import MappingEvaluator, MappingProblem

        network = PhotonicNoC(mesh(3, 3), params=params)
        problem = MappingProblem(pip_cg, network, "snr")
        clear_model_cache()
        with MappingEvaluator(
            problem, model_cache_dir=str(tmp_path)
        ) as evaluator:
            key = CouplingModel.disk_key(network.signature, np.float64)
            assert (tmp_path / key / "meta.json").is_file()
            clear_model_cache()
            with MappingEvaluator(
                problem, model_cache_dir=str(tmp_path)
            ) as warm:
                assert isinstance(warm.model.coupling_linear, np.memmap)
                metrics = warm.evaluate(
                    np.arange(pip_cg.n_tasks, dtype=np.int64)
                )
                reference = evaluator.evaluate(
                    np.arange(pip_cg.n_tasks, dtype=np.int64)
                )
                assert metrics.score == reference.score
