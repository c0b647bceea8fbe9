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
Under a numpy other than the recorded one every test fails first with a
message naming both versions, since the digests pin numpy's reduction
order as much as the code's.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
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


def check_recorded_numpy(golden: dict, filename: str) -> None:
    """Fail, naming both versions, unless numpy is ``golden``'s own.

    Every digest depends on numpy's reduction order, so under another
    numpy a moved digest is a version drift, not a finding about the
    code.
    """
    recorded = golden["numpy"]
    if np.__version__ != recorded:
        pytest.fail(
            f"{filename} was recorded under numpy {recorded}, but this run "
            f"imports numpy {np.__version__}: the digests pin numpy's "
            f"reduction order, so compare them under numpy {recorded}",
            pytrace=False,
        )


@pytest.fixture(autouse=True)
def recorded_numpy():
    check_recorded_numpy(GOLDEN, "local_search_digests.json")


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


def test_a_numpy_drift_fails_naming_both_versions(monkeypatch):
    monkeypatch.setattr(np, "__version__", "9.9.9")
    with pytest.raises(pytest.fail.Exception) as raised:
        check_recorded_numpy({"numpy": "2.4.6"}, "digests.json")
    message = str(raised.value)
    assert "digests.json was recorded under numpy 2.4.6" in message
    assert "this run imports numpy 9.9.9" in message
