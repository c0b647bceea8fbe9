"""Parity and invariance oracle for the sparse (CSR) noise kernel.

The contract (module docstring of :mod:`repro.core.evaluator`):

* sparse and dense kernels agree on every metric to 1e-9 on randomized
  batches, across topologies;
* victims whose true masked noise is exactly zero hit the SNR cap under
  **both** kernels (the sparse kernel's cancellation guard);
* each kernel is bit-identical to itself for any ``n_workers`` and any
  chunking — shard and chunk boundaries never change a value;
* :func:`~repro.core.evaluator.noise_kernel` picks the kernel by the
  measured density crossover, and every worker — local pool, inline
  context, TCP worker — resolves the parent's kernel without being told.

Tests that need the kernel the rule would not pick for their input pin
it with the ``pin_kernel`` fixture (``tests/conftest.py``).
"""

import threading
import time

import numpy as np
import pytest

import repro.core.evaluator as evaluator_module
from repro.appgraph import CommunicationGraph, all_to_all_cg, load_benchmark
from repro.core import (
    DesignSpaceExplorer,
    MappingEvaluator,
    MappingProblem,
    SNR_CAP_DB,
)
from repro.core import parallel
from repro.core import pool as pool_registry
from repro.core.evaluator import SPARSE_AUTO_FACTOR
from repro.core.mapping import random_assignment_batch
from repro.distributed import worker as worker_module
from repro.distributed.scheduler import get_hub
from repro.models import coupling as coupling_module

#: Absolute agreement demanded from the two kernels on dB metrics.
TOLERANCE = 1e-9

CASES = [
    (cg_name, topology)
    for cg_name in ("pip", "vopd")
    for topology in ("mesh4_network", "torus4_network")
]


def _pair(pin_kernel, request, cg_name, topology):
    network = request.getfixturevalue(topology)
    problem = MappingProblem(load_benchmark(cg_name), network, "snr")
    return _kernel_pair(pin_kernel, problem)


def _kernel_pair(pin_kernel, problem):
    """One inline evaluator per kernel for ``problem``."""
    pin_kernel("dense")
    dense = MappingEvaluator(problem)
    pin_kernel("sparse")
    sparse = MappingEvaluator(problem)
    assert (dense.backend, sparse.backend) == ("dense", "sparse")
    return dense, sparse


def _batch(evaluator, rows, seed=11):
    rng = np.random.default_rng(seed)
    return random_assignment_batch(
        rows, evaluator.n_tasks, evaluator.n_tiles, rng
    )


def _derived_array(model, backend):
    """The array a backend's delta engine reads besides the dense matrix."""
    return model.csr().values if backend == "sparse" else model.coupling_linear_T


def _worker_model_probe(context, backend):
    """Pool task: the worker's build count and its derived array's address."""
    model = context.evaluator().model
    return coupling_module.BUILD_COUNT, _derived_array(model, backend).ctypes.data


def _kernel_probe(context):
    """Pool task: the noise kernel of the worker's evaluator."""
    return context.evaluator().backend


@pytest.mark.parametrize("cg_name,topology", CASES)
class TestBackendParity:
    def test_float64_metrics_agree_to_1e9(
        self, pin_kernel, request, cg_name, topology
    ):
        dense, sparse = _pair(pin_kernel, request, cg_name, topology)
        batch = _batch(dense, 120)
        md = dense.evaluate_batch(batch)
        ms = sparse.evaluate_batch(batch)
        # Insertion loss never touches the contraction: identical gathers.
        np.testing.assert_array_equal(
            ms.worst_insertion_loss_db, md.worst_insertion_loss_db
        )
        np.testing.assert_allclose(
            ms.worst_snr_db, md.worst_snr_db, rtol=TOLERANCE, atol=TOLERANCE
        )
        np.testing.assert_allclose(
            ms.score, md.score, rtol=TOLERANCE, atol=TOLERANCE
        )

    def test_single_evaluation_matches_batch_paths(
        self, pin_kernel, request, cg_name, topology
    ):
        dense, sparse = _pair(pin_kernel, request, cg_name, topology)
        assignment = _batch(dense, 1)[0]
        es = sparse.evaluate(assignment, with_edges=True)
        ed = dense.evaluate(assignment, with_edges=True)
        assert es.worst_snr_db == pytest.approx(
            ed.worst_snr_db, abs=TOLERANCE
        )
        np.testing.assert_allclose(
            es.edges.noise_linear,
            ed.edges.noise_linear,
            rtol=1e-12,
            atol=0,
        )


class TestExactZeroNoise:
    def test_isolated_edges_hit_the_cap_in_both_backends(
        self, pin_kernel, mesh4_network
    ):
        # Two isolated communications: every victim's masked noise is a
        # sum of exactly-zero couplings for corner placements. The sparse
        # kernel's dense-minus-conflicts form would leave ~1e-19 residue
        # without its guard and miss the SNR cap by tens of dB.
        cg = CommunicationGraph("iso", ["a", "b", "c", "d"], [(0, 1), (2, 3)])
        problem = MappingProblem(cg, mesh4_network, "snr")
        dense, sparse = _kernel_pair(pin_kernel, problem)
        batch = _batch(dense, 200, seed=5)
        md = dense.evaluate_batch(batch)
        ms = sparse.evaluate_batch(batch)
        assert (md.worst_snr_db == SNR_CAP_DB).any()
        np.testing.assert_array_equal(
            ms.worst_snr_db == SNR_CAP_DB, md.worst_snr_db == SNR_CAP_DB
        )
        np.testing.assert_allclose(
            ms.worst_snr_db, md.worst_snr_db, rtol=TOLERANCE, atol=TOLERANCE
        )

    def test_single_edge_cg_evaluates_in_both_backends(
        self, pin_kernel, mesh3_network
    ):
        # E == 1: the victim's only aggressor is itself (masked), so the
        # noise is exactly zero and every table is one column wide.
        cg = CommunicationGraph("one", ["a", "b"], [(0, 1)])
        problem = MappingProblem(cg, mesh3_network, "snr")
        for evaluator in _kernel_pair(pin_kernel, problem):
            metrics = evaluator.evaluate_batch(_batch(evaluator, 16, seed=2))
            assert metrics.score.shape == (16,)
            assert (metrics.worst_snr_db == SNR_CAP_DB).all()
            single = evaluator.evaluate(_batch(evaluator, 1)[0])
            assert single.worst_snr_db == SNR_CAP_DB


class TestAutoSelection:
    def test_paper_benchmarks_resolve_dense(self, mesh4_network):
        problem = MappingProblem(load_benchmark("vopd"), mesh4_network, "snr")
        evaluator = MappingEvaluator(problem)
        assert evaluator.backend == "dense"
        n_edges = len(evaluator._edges)
        assert SPARSE_AUTO_FACTOR * n_edges**2 < evaluator.model.nnz

    def test_all_to_all_traffic_resolves_sparse(self, mesh3_network):
        cg = all_to_all_cg(8)
        problem = MappingProblem(cg, mesh3_network, "snr")
        evaluator = MappingEvaluator(problem)
        assert evaluator.backend == "sparse"
        n_edges = len(evaluator._edges)
        assert SPARSE_AUTO_FACTOR * n_edges**2 >= evaluator.model.nnz

    def test_density_statistic_is_consistent(self, mesh3_network):
        problem = MappingProblem(load_benchmark("pip"), mesh3_network, "snr")
        model = MappingEvaluator(problem).model
        csr = model.csr()
        assert model.nnz == csr.nnz == np.count_nonzero(model.coupling_linear)
        assert model.density == pytest.approx(
            model.nnz / model.n_pairs**2
        )
        assert 0.0 < model.density < 1.0


class TestSparseDeterminism:
    """The sparse kernel's own bit-identity guarantees.

    Uniform traffic on a 3x3 mesh is dense enough that the density rule
    picks the sparse kernel by itself: no pin needed.
    """

    @pytest.fixture()
    def sparse_evaluator(self, mesh3_network):
        problem = MappingProblem(all_to_all_cg(8), mesh3_network, "snr")
        evaluator = MappingEvaluator(problem)
        assert evaluator.backend == "sparse"
        yield evaluator
        evaluator.close()

    def test_chunking_never_changes_a_value(
        self, sparse_evaluator, monkeypatch
    ):
        batch = _batch(sparse_evaluator, 64, seed=9)
        expected = sparse_evaluator.evaluate_batch(batch)
        monkeypatch.setattr(evaluator_module, "_CHUNK_BYTES", 1)
        chunked = sparse_evaluator.evaluate_batch(batch)
        np.testing.assert_array_equal(chunked.worst_snr_db, expected.worst_snr_db)
        np.testing.assert_array_equal(chunked.score, expected.score)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_sharded_bit_identical_for_any_worker_count(
        self, sparse_evaluator, n_workers
    ):
        batch = _batch(sparse_evaluator, 101, seed=4)
        sequential = sparse_evaluator.evaluate_batch(batch)
        sharded = sparse_evaluator.evaluate_batch(
            batch, n_workers=n_workers, min_shard_rows=1
        )
        np.testing.assert_array_equal(
            sharded.worst_insertion_loss_db,
            sequential.worst_insertion_loss_db,
        )
        np.testing.assert_array_equal(
            sharded.worst_snr_db, sequential.worst_snr_db
        )
        np.testing.assert_array_equal(sharded.score, sequential.score)

    def test_rs_run_bit_identical_across_worker_counts(self, mesh3_network):
        # The strategy-level analogue of the shard tests: a sparse-kernel
        # explorer's batch-shardable run must reproduce the sequential
        # best/score/count/history exactly for any worker count.
        problem = MappingProblem(all_to_all_cg(8), mesh3_network, "snr")
        with DesignSpaceExplorer(problem) as explorer:
            assert explorer.evaluator.backend == "sparse"
            sequential = explorer.run("rs", budget=600, seed=3)
            sharded = explorer.run("rs", budget=600, seed=3, n_workers=2)
            assert sharded.best_score == sequential.best_score
            np.testing.assert_array_equal(
                sharded.best_mapping.assignment,
                sequential.best_mapping.assignment,
            )
            assert sharded.evaluations == sequential.evaluations
            assert sharded.history == sequential.history

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_pool_workers_reuse_parent_arrays(
        self, pin_kernel, mesh3_network, backend
    ):
        # The pool builds the array its evaluators read (dense transpose
        # or CSR values) before its workers fork: every worker reads the
        # parent's buffer and never builds a model of its own.
        problem = MappingProblem(all_to_all_cg(8), mesh3_network, "snr")
        pin_kernel(backend)
        with DesignSpaceExplorer(problem) as explorer:
            evaluator = explorer.evaluator
            evaluator.evaluate_batch(
                _batch(evaluator, 64), n_workers=2, min_shard_rows=1
            )
            explorer.compare(("sa", "tabu"), budget=200, seed=5, n_workers=2)
            pool = pool_registry.get_pool(problem, 2)
            futures = [pool.submit(_worker_model_probe, backend) for _ in range(4)]
            probes = [future.result() for future in futures]
            parent = _derived_array(evaluator.model, backend)
            for build_count, address in probes:
                assert build_count == coupling_module.BUILD_COUNT
                assert address == parent.ctypes.data


@pytest.fixture(scope="module")
def tcp_spec():
    """A fresh hub served by one in-thread ``run_worker``."""
    hub = get_hub("tcp://127.0.0.1:0")
    thread = threading.Thread(
        target=worker_module.run_worker,
        args=(f"127.0.0.1:{hub.port}",),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 30
    while hub.workers_connected < 1:
        assert time.monotonic() < deadline, "worker never connected"
        time.sleep(0.01)
    yield f"tcp://127.0.0.1:{hub.port}"
    pool_registry.shutdown_pools()
    hub.close()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestWorkersResolveTheParentsKernel:
    """Nothing tells a worker the kernel: it follows from the problem.

    Unpinned on purpose: pip resolves dense and uniform traffic resolves
    sparse on the same 3x3 mesh, so each executor must reproduce both.
    """

    @pytest.mark.parametrize("executor", ["local", "inline", "tcp"])
    @pytest.mark.parametrize(
        "application,kernel", [("pip", "dense"), ("all_to_all", "sparse")]
    )
    def test_worker_kernel_and_shards_match_the_parent(
        self, mesh3_network, tcp_spec, monkeypatch, executor, application,
        kernel,
    ):
        cg = (
            load_benchmark("pip") if application == "pip" else all_to_all_cg(8)
        )
        problem = MappingProblem(cg, mesh3_network, "snr")
        spec = tcp_spec if executor == "tcp" else executor
        evaluator = MappingEvaluator(problem, n_workers=2, executor=spec)
        assert evaluator.backend == kernel
        pool = pool_registry.get_pool(problem, 2, executor=spec)
        if executor == "tcp":
            # Only registered task functions cross the wire; the
            # in-thread worker reads this process's registry.
            monkeypatch.setitem(parallel.TASKS, "probe", _kernel_probe)
        probes = [pool.submit(_kernel_probe) for _ in range(4)]
        kernels = {future.result(timeout=60) for future in probes}
        assert kernels == {kernel}
        batch = _batch(evaluator, 64, seed=6)
        sequential = evaluator.evaluate_batch(batch)
        sharded = evaluator.evaluate_batch(batch, min_shard_rows=1)
        for name in ("worst_insertion_loss_db", "worst_snr_db", "score"):
            np.testing.assert_array_equal(
                getattr(sharded, name), getattr(sequential, name)
            )
