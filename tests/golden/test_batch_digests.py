"""Absolute pins of batch-kernel results across commits.

``test_local_search_digests.py`` pins the strategies that score through
the delta engine; these rows pin what scores through
:meth:`~repro.core.evaluator.MappingEvaluator.evaluate_batch`:

* rs and ga on the local-search grid, with its apps, objectives, routes,
  budget, seed and digest formula;
* the sha256 of every ``table_names`` column of a seeded 512-row batch,
  per paper app × {mesh, torus} × routes {1, 2}, on the kernel the
  density rule picks (the kernel is part of the row's name);
* the same columns on pip and mpeg4 with the sparse kernel pinned;
* the ``robust_snr`` table set on pip × mesh.

Recorded once, under numpy 2.4.6. A change that moves these results on
purpose must rewrite the affected rows and say which moved and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph import load_benchmark
from repro.appgraph.benchmarks import all_benchmarks, grid_side_for
from repro.core import DesignSpaceExplorer, MappingEvaluator, MappingProblem
from repro.photonics import VariationSpec
from tests.golden.test_local_search_digests import GOLDEN as LOCAL_SEARCH
from tests.golden.test_local_search_digests import OBJECTIVES, result_digest

GOLDEN = json.loads(Path(__file__).with_name("batch_digests.json").read_text())
STRATEGIES = ("rs", "ga")
BATCH_ROWS = 512
BATCH_SEED = 7
SPARSE_APPS = ("pip", "mpeg4")
VARIATION = VariationSpec(n_samples=4, sigma=0.04, seed=13)


def strategy_digests(app, topology):
    """``{cell: digest}`` of rs and ga on one app × topology."""
    cg = load_benchmark(app)
    network = build_case_study_network(topology, grid_side_for(cg))
    out = {}
    for routes in (1, 2):
        for objective in OBJECTIVES:
            problem = MappingProblem(cg, network, objective=objective, routes=routes)
            explorer = DesignSpaceExplorer(problem)
            for strategy in STRATEGIES:
                result = explorer.run(
                    strategy,
                    budget=LOCAL_SEARCH["budget"],
                    seed=LOCAL_SEARCH["seed"],
                )
                cell = f"{strategy}/{app}/{topology}/{objective}/r{routes}"
                out[cell] = result_digest(result)
    return out


def table_digests(problem, label):
    """``{label/kernel/table: sha256}`` of one seeded batch's columns.

    The columns come from ``_evaluate_rows``, which an inline
    ``evaluate_batch`` and every pool worker's shard call.
    """
    evaluator = MappingEvaluator(problem)
    batch = evaluator.random_vector_batch(
        BATCH_ROWS, np.random.default_rng(BATCH_SEED)
    )
    tables = evaluator._evaluate_rows(evaluator._check_batch(batch))
    return {
        f"{label}/{evaluator.backend}/{name}": hashlib.sha256(
            column.tobytes()
        ).hexdigest()
        for name, column in zip(evaluator.table_names, tables)
    }


def batch_digests(app, topology):
    """Table digests of one app × topology, routes {1, 2}."""
    cg = load_benchmark(app)
    network = build_case_study_network(topology, grid_side_for(cg))
    out = {}
    for routes in (1, 2):
        problem = MappingProblem(cg, network, routes=routes)
        out.update(table_digests(problem, f"batch/{app}/{topology}/r{routes}"))
    return out


def moved_cells(recorded):
    return sorted(
        cell for cell, digest in recorded.items()
        if digest != GOLDEN["digests"][cell]
    )


@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("app", ["pip", "mpeg4", "wavelet", "dvopd"])
def test_batch_strategy_results_match_recorded_digests(app, topology):
    moved = moved_cells(strategy_digests(app, topology))
    assert not moved, f"results moved in {len(moved)} cells: {moved}"


@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("app", sorted(all_benchmarks()))
def test_batch_tables_match_recorded_digests(app, topology):
    moved = moved_cells(batch_digests(app, topology))
    assert not moved, f"tables moved in {len(moved)} cells: {moved}"


@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("app", SPARSE_APPS)
def test_sparse_kernel_tables_match_recorded_digests(app, topology, pin_kernel):
    pin_kernel("sparse")
    moved = moved_cells(batch_digests(app, topology))
    assert not moved, f"tables moved in {len(moved)} cells: {moved}"


def test_robust_snr_tables_match_recorded_digests():
    cg = load_benchmark("pip")
    network = build_case_study_network("mesh", grid_side_for(cg))
    problem = MappingProblem(cg, network, "robust_snr", variation=VARIATION)
    moved = moved_cells(table_digests(problem, "robust/pip/mesh/r1"))
    assert not moved, f"tables moved in {len(moved)} cells: {moved}"
