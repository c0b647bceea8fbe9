"""Network scalability analysis (the abstract's "improved network
scalability" claim, quantified).

For growing mesh sizes, compare the worst-case insertion loss and SNR of
(a) random mappings and (b) optimized mappings, and translate the loss into
the required laser power (:mod:`repro.models.power`). The claim of the
paper is that mapping optimization pushes the feasibility frontier — the
largest network a given power budget can operate — outward; this study
measures by how much.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import format_db, format_table
from repro.appgraph.synthetic import random_cg
from repro.core.dse import DesignSpaceExplorer
from repro.core.mapping import random_assignment_batch
from repro.core.objectives import Objective
from repro.core.problem import MappingProblem
from repro.models.power import PowerBudget, is_feasible, required_laser_power_dbm
from repro.noc.network import PhotonicNoC
from repro.noc.topology import mesh

__all__ = ["ScalabilityRow", "scalability_study", "format_scalability"]


@dataclass(frozen=True)
class ScalabilityRow:
    """One mesh size of the scalability study."""

    side: int
    n_tasks: int
    random_loss_db: float
    optimized_loss_db: float
    random_snr_db: float
    optimized_snr_db: float
    random_laser_dbm: float
    optimized_laser_dbm: float
    random_feasible: bool
    optimized_feasible: bool


def scalability_study(
    sides: Sequence[int] = (3, 4, 5, 6),
    fill_ratio: float = 0.85,
    budget: int = 4000,
    strategy: str = "r-pbla",
    seed: int = 7,
    router: str = "crux",
    budget_model: Optional[PowerBudget] = None,
    n_workers: int = 1,
) -> Tuple[ScalabilityRow, ...]:
    """Worst-case metrics vs mesh size, random vs optimized mapping.

    Each size gets a synthetic application filling ``fill_ratio`` of the
    tiles with roughly 1.5 edges per task — a fixed workload *shape* so the
    size trend is attributable to the network, not the application.

    ``n_workers > 1`` parallelizes each optimization run (chain
    decomposition) and shards the random-sample batch across the
    persistent worker pool; because the pool key ignores the objective,
    the loss run, the SNR run and the sampling of one mesh size all share
    one warm pool. Explorers are closed per mesh size, so pools never
    outlive the mesh they served.

    With an on-disk model cache set for the process
    (:func:`~repro.models.coupling.set_model_cache_dir`), re-running the
    study — or growing ``sides`` — pays each architecture's
    O(n_pairs^2) precomputation once per machine instead of once per
    invocation, which is what makes 10x10+ meshes routine.
    """
    budget_model = budget_model if budget_model is not None else PowerBudget()
    rows = []
    for side in sides:
        n_tiles = side * side
        n_tasks = max(2, int(round(fill_ratio * n_tiles)))
        n_edges = max(n_tasks - 1, int(round(1.5 * n_tasks)))
        cg = random_cg(n_tasks, n_edges, seed=seed + side)
        network = PhotonicNoC(mesh(side, side), router=router)

        with contextlib.ExitStack() as stack:
            loss_problem = MappingProblem(cg, network, Objective.INSERTION_LOSS)
            loss_explorer = stack.enter_context(
                DesignSpaceExplorer(loss_problem, n_workers=n_workers)
            )
            optimized_loss = loss_explorer.run(strategy, budget=budget, seed=seed)

            snr_problem = MappingProblem(cg, network, Objective.SNR)
            snr_explorer = stack.enter_context(
                DesignSpaceExplorer(snr_problem, n_workers=n_workers)
            )
            optimized_snr = snr_explorer.run(strategy, budget=budget, seed=seed)

            # "Random" columns report the *median-quality* random mapping
            # (not the best of a search) — what a designer gets without
            # optimizing.
            rng = np.random.default_rng(seed + 1000 * side)
            sample = random_assignment_batch(
                256, cg.n_tasks, network.topology.n_tiles, rng
            )
            sample_metrics = loss_explorer.evaluator.evaluate_batch(
                sample, n_workers=n_workers
            )
        random_loss_db = float(np.median(sample_metrics.worst_insertion_loss_db))
        random_snr_db = float(np.median(sample_metrics.worst_snr_db))
        rows.append(
            ScalabilityRow(
                side=side,
                n_tasks=n_tasks,
                random_loss_db=random_loss_db,
                optimized_loss_db=optimized_loss.best_metrics.worst_insertion_loss_db,
                random_snr_db=random_snr_db,
                optimized_snr_db=optimized_snr.best_metrics.worst_snr_db,
                random_laser_dbm=required_laser_power_dbm(
                    random_loss_db, budget_model
                ),
                optimized_laser_dbm=required_laser_power_dbm(
                    optimized_loss.best_metrics.worst_insertion_loss_db,
                    budget_model,
                ),
                random_feasible=is_feasible(random_loss_db, budget_model),
                optimized_feasible=is_feasible(
                    optimized_loss.best_metrics.worst_insertion_loss_db,
                    budget_model,
                ),
            )
        )
    return tuple(rows)


def format_scalability(rows: Sequence[ScalabilityRow]) -> str:
    """Render the scalability study as a table.

    Feasibility is shown for *both* mapping regimes — the study's
    headline is exactly the gap between the two columns: mesh sizes
    where ``rnd feas`` reads NO while ``opt feas`` reads yes are the
    frontier that mapping optimization pushes outward.
    """
    table_rows = []
    for row in rows:
        table_rows.append(
            (
                f"{row.side}x{row.side}",
                row.n_tasks,
                f"{row.random_loss_db:7.2f}",
                f"{row.optimized_loss_db:7.2f}",
                format_db(row.random_snr_db),
                format_db(row.optimized_snr_db),
                f"{row.random_laser_dbm:6.2f}",
                f"{row.optimized_laser_dbm:6.2f}",
                "yes" if row.random_feasible else "NO",
                "yes" if row.optimized_feasible else "NO",
            )
        )
    return format_table(
        (
            "Mesh",
            "Tasks",
            "rnd loss",
            "opt loss",
            "rnd SNR",
            "opt SNR",
            "rnd laser",
            "opt laser",
            "rnd feas",
            "opt feas",
        ),
        table_rows,
        title="Scalability: worst-case metrics and laser power vs mesh size",
    )
