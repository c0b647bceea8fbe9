"""Absolute pins of local-search results across commits.

Every other determinism contract in the suite is relative (delta vs full,
parallel vs sequential, routes=1 vs mapping-only): both sides run the
same commit, so a change that moves both alike passes. These digests
were recorded once, under numpy 2.4.6, and pin what SA, tabu and R-PBLA
return on a fixed grid — 4 apps × {mesh, torus} × 5 objectives × routes
{1, 2}, budget 600, seed 3. A digest is the sha256 of the repr of
``(best_score.hex(), evaluations, assignment, route_genes, history)``.

A change that alters a strategy's draws or its last-ULP arithmetic on
purpose must rewrite the affected rows and say which moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph import load_benchmark
from repro.appgraph.benchmarks import grid_side_for
from repro.core import DesignSpaceExplorer, MappingProblem

GOLDEN = json.loads(
    Path(__file__).with_name("local_search_digests.json").read_text()
)
OBJECTIVES = ("snr", "loss", "weighted_loss", "laser_power", "mean_snr")
STRATEGIES = ("sa", "tabu", "r-pbla")


def result_digest(result) -> str:
    genes = [] if result.route_genes is None else result.route_genes
    payload = repr((
        float(result.best_score).hex(),
        int(result.evaluations),
        [int(tile) for tile in result.best_mapping.assignment],
        [int(gene) for gene in genes],
        [(int(used), float(score).hex()) for used, score in result.history],
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("app", ["pip", "mpeg4", "wavelet", "dvopd"])
def test_local_search_results_match_recorded_digests(app, topology):
    cg = load_benchmark(app)
    network = build_case_study_network(topology, grid_side_for(cg))
    moved = []
    for routes in (1, 2):
        for objective in OBJECTIVES:
            problem = MappingProblem(cg, network, objective=objective, routes=routes)
            explorer = DesignSpaceExplorer(problem)
            for strategy in STRATEGIES:
                result = explorer.run(
                    strategy, budget=GOLDEN["budget"], seed=GOLDEN["seed"]
                )
                cell = f"{strategy}/{app}/{topology}/{objective}/r{routes}"
                if result_digest(result) != GOLDEN["digests"][cell]:
                    moved.append(cell)
    assert not moved, f"results moved in {len(moved)} cells: {moved}"
