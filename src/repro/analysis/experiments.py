"""Reproduction harnesses for every table and figure of the paper.

* :func:`reproduce_table1` — Table I (the building-block parameters);
* :func:`reproduce_fig3`  — Fig. 3 (worst-case SNR / power-loss
  distributions over random mappings, 8 applications, mesh + Crux);
* :func:`reproduce_table2` — Table II (RS vs GA vs R-PBLA on mesh and
  torus, both objectives, equal search budget).

Each harness returns structured results *and* renders the paper-shaped
text artefact. The paper's published numbers are embedded
(:data:`PAPER_TABLE2`) so EXPERIMENTS.md and the benches can print
paper-vs-measured columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.distribution import DistributionResult, random_mapping_distribution
from repro.analysis.report import format_db, format_table
from repro.appgraph.benchmarks import BENCHMARK_NAMES, grid_side_for, load_benchmark
from repro.core.dse import DesignSpaceExplorer
from repro.core.objectives import Objective
from repro.core.problem import MappingProblem
from repro.core.registry import PAPER_STRATEGIES
from repro.errors import ConfigurationError
from repro.noc.network import PhotonicNoC
from repro.noc.topology import mesh, torus
from repro.photonics.parameters import PhysicalParameters

__all__ = [
    "PAPER_TABLE2",
    "reproduce_table1",
    "reproduce_fig3",
    "Table2Cell",
    "Table2Result",
    "reproduce_table2",
    "build_case_study_network",
]

#: Paper Table II, transcribed: app -> topology -> strategy -> (SNR dB, loss dB).
PAPER_TABLE2: Dict[str, Dict[str, Dict[str, Tuple[float, float]]]] = {
    "263dec_mp3dec": {
        "mesh": {"rs": (20.21, -2.04), "ga": (38.67, -1.52), "r-pbla": (38.67, -1.52)},
        "torus": {"rs": (39.08, -2.12), "ga": (38.71, -1.68), "r-pbla": (39.95, -1.60)},
    },
    "263enc_mp3enc": {
        "mesh": {"rs": (38.29, -2.04), "ga": (38.63, -1.94), "r-pbla": (38.63, -1.59)},
        "torus": {"rs": (39.77, -2.12), "ga": (39.73, -1.97), "r-pbla": (39.94, -1.75)},
    },
    "dvopd": {
        "mesh": {"rs": (12.65, -2.79), "ga": (16.19, -2.15), "r-pbla": (18.70, -1.85)},
        "torus": {"rs": (14.12, -3.18), "ga": (19.15, -2.23), "r-pbla": (19.12, -2.04)},
    },
    "mpeg4": {
        "mesh": {"rs": (19.06, -2.35), "ga": (19.16, -2.04), "r-pbla": (20.02, -2.04)},
        "torus": {"rs": (20.10, -2.35), "ga": (20.10, -2.20), "r-pbla": (21.08, -2.20)},
    },
    "mwd": {
        "mesh": {"rs": (20.24, -1.81), "ga": (38.63, -1.59), "r-pbla": (38.63, -1.59)},
        "torus": {"rs": (39.72, -1.97), "ga": (39.28, -1.99), "r-pbla": (39.95, -1.61)},
    },
    "pip": {
        "mesh": {"rs": (38.58, -1.90), "ga": (38.58, -1.68), "r-pbla": (38.58, -1.68)},
        "torus": {"rs": (39.95, -1.86), "ga": (39.88, -1.70), "r-pbla": (39.95, -1.70)},
    },
    "vopd": {
        "mesh": {"rs": (18.66, -2.27), "ga": (37.83, -1.96), "r-pbla": (38.67, -1.52)},
        "torus": {"rs": (19.24, -2.39), "ga": (20.29, -2.04), "r-pbla": (38.59, -1.68)},
    },
    "wavelet": {
        "mesh": {"rs": (14.58, -2.46), "ga": (37.95, -2.15), "r-pbla": (36.86, -1.93)},
        "torus": {"rs": (16.29, -3.06), "ga": (19.65, -2.31), "r-pbla": (32.52, -2.27)},
    },
}


def build_case_study_network(
    topology_name: str,
    side: int,
    router: str = "crux",
    params: Optional[PhysicalParameters] = None,
) -> PhotonicNoC:
    """The architecture of the paper's case studies (§III).

    ``params`` picks the device parameter set (default: the paper's
    Table I entry of the component library); sweeps pass each
    library-instantiated point here.
    """
    if topology_name == "mesh":
        topology = mesh(side, side)
    elif topology_name == "torus":
        topology = torus(side, side)
    else:
        raise ConfigurationError(
            f"case studies use 'mesh' or 'torus', got {topology_name!r}"
        )
    return PhotonicNoC(topology, router=router, params=params)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def reproduce_table1(params: Optional[PhysicalParameters] = None) -> str:
    """Render Table I from the active parameter set."""
    params = params if params is not None else PhysicalParameters()
    rows = []
    for description, notation, value in params.table_rows():
        unit = "dB/cm" if notation == "Lp" else "dB"
        rows.append((description, notation, f"{value:g} {unit}"))
    return format_table(
        ("Parameter", "Notation", "Value"),
        rows,
        title="TABLE I. LOSS AND CROSSTALK PARAMETERS",
    )


# ---------------------------------------------------------------------------
# Fig. 3
# ---------------------------------------------------------------------------


def reproduce_fig3(
    applications: Sequence[str] = BENCHMARK_NAMES,
    n_samples: int = 100_000,
    seed: int = 2016,
    router: str = "crux",
    n_workers: int = 1,
    dtype=np.float64,
    backend: str = "auto",
    executor: str = "local",
    routes: int = 1,
) -> Dict[str, DistributionResult]:
    """Fig. 3's experiment: random-mapping distributions on mesh + Crux.

    ``n_workers > 1`` shards each application's batch evaluations across
    the persistent worker pool (generation overlaps evaluation); the
    sampled distributions are bit-identical for any worker count.
    ``dtype`` and ``backend`` configure the evaluator's coupling memory
    and noise-contraction kernel (see
    :class:`~repro.core.evaluator.MappingEvaluator`). ``routes > 1``
    samples joint design vectors (placements plus uniform route genes);
    the default 1 reproduces the paper's experiment exactly.
    """
    results: Dict[str, DistributionResult] = {}
    for index, name in enumerate(applications):
        cg = load_benchmark(name)
        network = build_case_study_network("mesh", grid_side_for(cg), router)
        results[name] = random_mapping_distribution(
            cg, network, n_samples=n_samples, seed=seed + index,
            n_workers=n_workers, dtype=dtype, backend=backend,
            executor=executor, routes=routes,
        )
    return results


def format_fig3(results: Dict[str, DistributionResult]) -> str:
    """Summary table of the Fig. 3 distributions (min/median/max)."""
    rows = []
    for name, result in results.items():
        snr = result.summary("snr")
        loss = result.summary("loss")
        rows.append(
            (
                name,
                result.n_samples,
                format_db(snr["min"]),
                format_db(snr["median"]),
                format_db(snr["max"]),
                f"{loss['min']:7.2f}",
                f"{loss['median']:7.2f}",
                f"{loss['max']:7.2f}",
            )
        )
    return format_table(
        (
            "Application",
            "Samples",
            "SNR min",
            "SNR med",
            "SNR max",
            "Loss min",
            "Loss med",
            "Loss max",
        ),
        rows,
        title=(
            "Fig. 3 reproduction: worst-case SNR / power loss over random "
            "mappings (mesh + Crux), dB"
        ),
    )


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Cell:
    """One (application, topology, strategy) cell of Table II."""

    snr_db: float
    loss_db: float
    paper_snr_db: Optional[float] = None
    paper_loss_db: Optional[float] = None


@dataclass
class Table2Result:
    """Measured Table II with rendering helpers."""

    budget: int
    seed: int
    cells: Dict[Tuple[str, str, str], Table2Cell]
    strategies: Tuple[str, ...]
    topologies: Tuple[str, ...]
    applications: Tuple[str, ...]

    def format(self, with_paper: bool = False) -> str:
        headers = ["Application"]
        for topology in self.topologies:
            for strategy in self.strategies:
                headers.append(f"{topology}/{strategy} SNR")
                headers.append(f"{topology}/{strategy} Loss")
        rows = []
        for application in self.applications:
            row = [application]
            for topology in self.topologies:
                for strategy in self.strategies:
                    cell = self.cells[(application, topology, strategy)]
                    snr = format_db(cell.snr_db)
                    loss = f"{cell.loss_db:6.2f}"
                    if with_paper and cell.paper_snr_db is not None:
                        snr = f"{snr} ({cell.paper_snr_db:5.2f})"
                        loss = f"{loss} ({cell.paper_loss_db:5.2f})"
                    row.append(snr)
                    row.append(loss)
            rows.append(row)
        suffix = " — measured (paper)" if with_paper else ""
        return format_table(
            headers,
            rows,
            title=(
                "TABLE II reproduction: algorithms comparison, budget="
                f"{self.budget} evaluations{suffix}"
            ),
        )


def reproduce_table2(
    applications: Sequence[str] = BENCHMARK_NAMES,
    topologies: Sequence[str] = ("mesh", "torus"),
    strategies: Sequence[str] = PAPER_STRATEGIES,
    budget: int = 20_000,
    seed: int = 2016,
    router: str = "crux",
    use_delta: bool = True,
    n_workers: int = 1,
    dtype=np.float64,
    backend: str = "auto",
    executor: str = "local",
    routes: int = 1,
) -> Table2Result:
    """Run the Table II experiment.

    For every (application, topology, strategy) the SNR column comes from a
    crosstalk-objective run and the Loss column from a power-loss-objective
    run, each under the same evaluation budget — mirroring the paper's
    equal-running-time protocol (DESIGN.md §4). ``n_workers > 1`` runs the
    per-strategy comparisons across a process pool; the results are
    bit-identical to the sequential ones (see :mod:`repro.core.dse`).
    ``dtype`` and ``backend`` configure each cell's evaluator (coupling
    memory and noise-contraction kernel). ``routes > 1`` widens every
    cell's search to the joint mapping x routing space; the default 1
    reproduces the paper's protocol exactly.
    """
    cells: Dict[Tuple[str, str, str], Table2Cell] = {}
    for application in applications:
        cg = load_benchmark(application)
        side = grid_side_for(cg)
        for topology_name in topologies:
            network = build_case_study_network(topology_name, side, router)
            best_snr: Dict[str, float] = {}
            best_loss: Dict[str, float] = {}
            for objective in (Objective.SNR, Objective.INSERTION_LOSS):
                problem = MappingProblem(cg, network, objective, routes=routes)
                explorer = DesignSpaceExplorer(
                    problem, dtype=dtype, use_delta=use_delta,
                    n_workers=n_workers, backend=backend,
                    executor=executor,
                )
                results = explorer.compare(strategies, budget=budget, seed=seed)
                for strategy, result in results.items():
                    if objective is Objective.SNR:
                        best_snr[strategy] = result.best_metrics.worst_snr_db
                    else:
                        best_loss[strategy] = (
                            result.best_metrics.worst_insertion_loss_db
                        )
            paper_row = PAPER_TABLE2.get(application, {}).get(topology_name, {})
            for strategy in strategies:
                paper = paper_row.get(strategy)
                cells[(application, topology_name, strategy)] = Table2Cell(
                    snr_db=best_snr[strategy],
                    loss_db=best_loss[strategy],
                    paper_snr_db=paper[0] if paper else None,
                    paper_loss_db=paper[1] if paper else None,
                )
    return Table2Result(
        budget=budget,
        seed=seed,
        cells=cells,
        strategies=tuple(strategies),
        topologies=tuple(topologies),
        applications=tuple(applications),
    )
