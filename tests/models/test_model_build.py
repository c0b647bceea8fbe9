"""Walk-once vectorized builder: legacy parity and the disk cache.

The vectorized ``CouplingModel._build`` must be **bit-identical** to the
seed per-aggressor walk loop (kept as ``builder="legacy"``) on meshes and
tori — and the on-disk model cache must only ever be a fast path: hits
are memory-mapped loads of identical arrays, misses (signature or version
changes, arrays or metadata of another dtype), corruption and unwritable
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
from tests.conftest import model_cache_at


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_model_cache()
    yield
    clear_model_cache()


@pytest.fixture(
    scope="module",
    # torus3 keeps a wrap-around (cycle-shortcut) walk in the fast lane;
    # the torus4 legacy oracle build takes ~10 s: slow lane.
    params=[
        "mesh3",
        "mesh4",
        "torus3",
        pytest.param("torus4", marks=pytest.mark.slow),
    ],
)
def network_pair(request):
    """(name, network) for every architecture of the parity matrix."""
    return request.param, request.getfixturevalue(f"{request.param}_network")


@pytest.fixture(scope="module")
def legacy_and_vectorized(network_pair):
    name, network = network_pair
    legacy = CouplingModel(network, builder="legacy")
    vectorized = CouplingModel(network)
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
        self, params, model_cache, monkeypatch
    ):
        network = self._network(params)
        built = CouplingModel.for_network(network)
        key = CouplingModel.disk_key(network.signature)
        assert (model_cache / key / "meta.json").is_file()

        # A warm load must not build: poison the builder.
        def no_build(self):
            raise AssertionError("cache hit must not rebuild")

        monkeypatch.setattr(CouplingModel, "_build", no_build)
        clear_model_cache()
        loaded = CouplingModel.for_network(network)
        assert isinstance(loaded.coupling_linear, np.memmap)
        assert not loaded.coupling_linear.flags.writeable
        np.testing.assert_array_equal(
            np.asarray(loaded.coupling_linear), built.coupling_linear
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.signal_linear), built.signal_linear
        )
        assert loaded._nnz == built.nnz  # seeded from the cache metadata

    def test_miss_on_signature(self, params, model_cache):
        network = self._network(params)
        CouplingModel.for_network(network)
        other = PhotonicNoC(mesh(3, 3), params=params)
        assert CouplingModel.load_cached(other, str(model_cache)) is None

    def test_disk_key_text_is_pinned(self):
        """The hashed text keeps its ``float64`` field, so entries written
        while the cache key still named a dtype keep hitting."""
        import hashlib

        version = coupling_module.MODEL_VERSION
        assert CouplingModel.disk_key("sig") == hashlib.sha1(
            f"sig|float64|v{version}".encode()
        ).hexdigest()
        assert CouplingModel.disk_key("sig", routes=3) == hashlib.sha1(
            f"sig|routes=3|float64|v{version}".encode()
        ).hexdigest()

    def test_meta_dtype_other_than_float64_misses(self, params, model_cache):
        network = self._network(params)
        CouplingModel.for_network(network)
        meta_path = model_cache / CouplingModel.disk_key(network.signature) / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["dtype"] == "float64"
        meta["dtype"] = "float32"
        meta_path.write_text(json.dumps(meta))
        assert CouplingModel.load_cached(network, str(model_cache)) is None

    def test_miss_on_model_version_bump(self, params, model_cache, monkeypatch):
        network = self._network(params)
        built = CouplingModel.for_network(network)
        monkeypatch.setattr(
            coupling_module, "MODEL_VERSION", coupling_module.MODEL_VERSION + 1
        )
        assert CouplingModel.load_cached(network, str(model_cache)) is None
        # ... and for_network transparently rebuilds (and re-persists
        # under the new key).
        clear_model_cache()
        rebuilt = CouplingModel.for_network(network)
        np.testing.assert_array_equal(
            rebuilt.coupling_linear, built.coupling_linear
        )
        assert len(list(model_cache.iterdir())) == 2  # one entry per version

    def test_stale_metadata_signature_misses(self, params, model_cache):
        """A key collision (or hand-edited entry) is caught by the
        metadata check, not trusted on file name alone."""
        network = self._network(params)
        CouplingModel.for_network(network)
        key = CouplingModel.disk_key(network.signature)
        meta_path = model_cache / key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["signature"] = "somebody-else's-architecture"
        meta_path.write_text(json.dumps(meta))
        assert CouplingModel.load_cached(network, str(model_cache)) is None

    def test_corrupted_entry_falls_back_to_rebuild(self, params, model_cache):
        network = self._network(params)
        built = CouplingModel.for_network(network)
        key = CouplingModel.disk_key(network.signature)
        (model_cache / key / "coupling_linear.npy").write_bytes(b"not numpy")
        clear_model_cache()
        recovered = CouplingModel.for_network(network)
        np.testing.assert_array_equal(
            np.asarray(recovered.coupling_linear), built.coupling_linear
        )
        # The rebuild repaired the entry in place.
        repaired = CouplingModel.load_cached(network, str(model_cache))
        assert repaired is not None
        np.testing.assert_array_equal(
            np.asarray(repaired.coupling_linear), built.coupling_linear
        )

    @pytest.mark.parametrize("bad_dtype", ["float32", "float16", "int64"])
    @pytest.mark.parametrize(
        "name", ["signal_linear", "insertion_loss_db", "coupling_linear"]
    )
    def test_wrong_dtype_signal_or_loss_rebuilds(
        self, params, pip_cg, model_cache, name, bad_dtype
    ):
        """Every build keeps all three arrays at float64: an entry holding
        another dtype would shift scores, so it misses and is repaired."""
        from repro.core import MappingEvaluator, MappingProblem
        from repro.core.mapping import random_assignment_batch
        from repro.models.coupling import set_model_cache_dir

        network = PhotonicNoC(mesh(3, 3), params=params)
        CouplingModel.for_network(network)
        key = CouplingModel.disk_key(network.signature)
        planted = model_cache / key / f"{name}.npy"
        with np.errstate(invalid="ignore"):  # int64 has no NaN
            np.save(planted, np.load(planted).astype(bad_dtype))
        assert CouplingModel.load_cached(network, str(model_cache)) is None

        builds = coupling_module.BUILD_COUNT
        clear_model_cache()  # the rebuild must not hide behind the process cache
        CouplingModel.for_network(network)
        assert coupling_module.BUILD_COUNT == builds + 1
        assert np.load(planted).dtype == np.float64  # the entry is repaired

        rows = random_assignment_batch(
            64, pip_cg.n_tasks, network.topology.n_tiles, np.random.default_rng(3)
        )
        problem = MappingProblem(pip_cg, network, "snr")
        clear_model_cache()
        cached = MappingEvaluator(problem)
        assert isinstance(cached.model.coupling_linear, np.memmap)
        clear_model_cache()
        set_model_cache_dir(None)  # the model_cache fixture restores it
        fresh = MappingEvaluator(problem)
        assert not isinstance(fresh.model.coupling_linear, np.memmap)
        for got, want in zip(
            cached._submit(rows).tables(), fresh._submit(rows).tables()
        ):
            np.testing.assert_array_equal(got, want)

    def test_unwritable_cache_dir_falls_back_to_memory(self, params, tmp_path):
        """A cache directory that cannot be written (here: obstructed by
        a plain file) must degrade to an ordinary in-memory build."""
        obstruction = tmp_path / "not-a-directory"
        obstruction.write_text("in the way")
        network = self._network(params)
        with model_cache_at(obstruction):
            model = CouplingModel.for_network(network)
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
            CouplingModel.for_network(network)
            key = CouplingModel.disk_key(network.signature)
            assert (tmp_path / key).is_dir()
        finally:
            set_model_cache_dir(previous)

    def test_local_pool_workers_get_the_parents_cache_dir(
        self, params, pip_cg, model_cache
    ):
        """Each local pool worker process reports the parent's model
        cache directory: the pool initializer hands it over."""
        from repro.core import MappingProblem
        from repro.core.pool import get_pool, release_pools
        from repro.models.coupling import get_model_cache_dir

        network = PhotonicNoC(mesh(3, 3), params=params)
        problem = MappingProblem(pip_cg, network, "snr")
        pool = get_pool(problem, 2)
        try:
            futures = [pool.submit(get_model_cache_dir) for _ in range(4)]
            seen = {future.result() for future in futures}
        finally:
            release_pools(problem)
        assert seen == {str(model_cache)}

    def test_evaluator_threads_cache_dir(self, params, pip_cg, model_cache):
        from repro.core import MappingEvaluator, MappingProblem

        network = PhotonicNoC(mesh(3, 3), params=params)
        problem = MappingProblem(pip_cg, network, "snr")
        clear_model_cache()
        with MappingEvaluator(problem) as evaluator:
            key = CouplingModel.disk_key(network.signature)
            assert (model_cache / key / "meta.json").is_file()
            clear_model_cache()
            with MappingEvaluator(problem) as warm:
                assert isinstance(warm.model.coupling_linear, np.memmap)
                metrics = warm.evaluate(
                    np.arange(pip_cg.n_tasks, dtype=np.int64)
                )
                reference = evaluator.evaluate(
                    np.arange(pip_cg.n_tasks, dtype=np.int64)
                )
                assert metrics.score == reference.score
