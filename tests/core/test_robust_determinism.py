"""Cross-layer determinism of the variation-robust objective.

``robust_snr`` scores every mapping against N perturbed device samples,
each with its own coupling model. The contract: the robust column is a
pure function of ``(problem, rows)`` — bit-identical across contraction
backends' chunkings, executor placements and worker counts, because the
samples are ``SeedSequence``-derived pure functions of ``(seed, i)`` and
every aggregation is row-local. The TCP-executor (and worker-loss)
variant of this grid lives in ``tests/distributed/test_robust_remote.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MappingEvaluator, MappingProblem, random_assignment_batch
from repro.core.pool import shutdown_pools
from repro.photonics import VariationSpec

VARIATION = VariationSpec(n_samples=3, sigma=0.04, seed=13)


@pytest.fixture(scope="module")
def robust_problem(pip_cg, mesh3_network):
    return MappingProblem(pip_cg, mesh3_network, "robust_snr", variation=VARIATION)


@pytest.fixture(scope="module")
def rows(robust_problem):
    rng = np.random.default_rng(31)
    return random_assignment_batch(
        96, robust_problem.cg.n_tasks, robust_problem.n_tiles, rng
    )


@pytest.fixture(scope="module")
def reference(robust_problem, rows):
    """Sequential dense single-worker scores: the grid's ground truth."""
    evaluator = MappingEvaluator(robust_problem)
    assert evaluator.backend == "dense"
    return evaluator.evaluate_batch(rows).score


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("executor", ["inline", "local"])
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_robust_scores_identical_across_the_grid(
    robust_problem, rows, reference, backend, executor, n_workers, pin_kernel
):
    pin_kernel(backend)
    evaluator = MappingEvaluator(
        robust_problem,
        executor=executor,
        n_workers=n_workers,
    )
    try:
        got = evaluator.evaluate_batch(rows, min_shard_rows=1).score
    finally:
        evaluator.close()
    if backend == "dense":
        np.testing.assert_array_equal(got, reference)
    else:
        # Across backends the noise kernels differ (dense grid gather vs
        # CSR streaming), so parity is tight-tolerance, not bit-level —
        # but within the sparse backend placement must not move a bit.
        np.testing.assert_allclose(got, reference, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_sharded_robust_is_bit_identical_to_sequential(
    robust_problem, rows, backend, pin_kernel
):
    """Same kernel, 1 vs 3 workers: zero bits of drift."""
    pin_kernel(backend)
    sequential = MappingEvaluator(robust_problem)
    sharded = MappingEvaluator(robust_problem, n_workers=3, executor="local")
    try:
        np.testing.assert_array_equal(
            sharded.evaluate_batch(rows, min_shard_rows=1).score,
            sequential.evaluate_batch(rows).score,
        )
    finally:
        sharded.close()
        shutdown_pools()


def test_quantile_aggregation_is_chunk_invariant(
    pip_cg, mesh3_network, monkeypatch
):
    """The tail-quantile variant holds the same invariance as the mean."""
    import repro.core.evaluator as evaluator_module

    spec = VariationSpec(n_samples=4, sigma=0.04, seed=13, quantile=0.25)
    problem = MappingProblem(pip_cg, mesh3_network, "robust_snr", variation=spec)
    rows = random_assignment_batch(
        20, problem.cg.n_tasks, problem.n_tiles, np.random.default_rng(5)
    )
    expected = MappingEvaluator(problem).evaluate_batch(rows).score
    monkeypatch.setattr(evaluator_module, "_CHUNK_BYTES", 1)
    chunked = MappingEvaluator(problem).evaluate_batch(rows).score
    np.testing.assert_array_equal(chunked, expected)


def test_warm_construction_assembles_no_sample_netlist(
    robust_problem, rows, monkeypatch
):
    """Every sample's netlist comes with its process-cached model, so a
    second construction assembles nothing and scores like a cold one."""
    from repro.models.coupling import clear_model_cache
    from repro.noc.network import PhotonicNoC

    clear_model_cache()
    cold = MappingEvaluator(robust_problem).evaluate_batch(rows).score
    assembled = []
    original = PhotonicNoC._assemble

    def counting(network):
        assembled.append(network)
        original(network)

    monkeypatch.setattr(PhotonicNoC, "_assemble", counting)
    warm = MappingEvaluator(robust_problem)
    assert assembled == []
    assert warm.evaluate_batch(rows).score.tobytes() == cold.tobytes()
