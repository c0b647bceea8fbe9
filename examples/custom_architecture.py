#!/usr/bin/env python
"""Extensibility tour: add a router, a parameter set and a strategy.

The paper stresses that "new topologies, routing algorithms, optical
router architectures, and mapping optimization strategies can be added
without any changes in the tool core". This example does all three:

1. draws a new 5x5 optical router (a Crux variant with an extra-short
   gateway) as waveguide polylines and registers it;
2. registers a pessimistic physical parameter set (an older technology
   node with lossier crossings);
3. implements and registers a custom greedy mapping strategy;
4. runs the whole stack on the MWD application with all three plugins.

Run:  python examples/custom_architecture.py

Reproduces: no paper artefact — the extensibility claim of §II, exercised.
Expected runtime: ~10 seconds.
"""

import numpy as np

from repro import (
    DesignSpaceExplorer,
    MappingProblem,
    PhotonicNoC,
    PhysicalParameters,
    load_benchmark,
    mesh,
    register_router,
    register_strategy,
)
from repro.core import MappingStrategy
from repro.core.mapping import random_assignment
from repro.core.moves import apply_move, swap_moves
from repro.core.strategy import BestTracker
from repro.photonics import default_library
from repro.router import compile_layout
from repro.router.crux import crux_layout


# -- 1. a custom router ------------------------------------------------------


def build_compact_crux(params: PhysicalParameters):
    """A Crux variant on a denser grid: shorter internal waveguides."""
    layout = crux_layout(unit_cm=0.002)  # half the default pitch
    return compile_layout(layout, params)


register_router("compact_crux", build_compact_crux, overwrite=True)


# -- 2. a custom technology node ----------------------------------------------

legacy_node = PhysicalParameters().with_overrides(
    crossing_loss_db=-0.12,          # older, lossier crossings
    crossing_crosstalk_db=-35.0,     # and noisier ones
)
default_library().register("legacy2010", legacy_node, overwrite=True)


# -- 3. a custom strategy -------------------------------------------------------


class GreedyFirstImprovement(MappingStrategy):
    """Take the first improving swap instead of the best one (contrast
    with R-PBLA's steepest descent)."""

    name = "greedy-first"

    def _run(self, evaluator, budget, rng):
        tracker = BestTracker(evaluator)
        current = random_assignment(evaluator.n_tasks, evaluator.n_tiles, rng)
        score = float(evaluator.evaluate_batch(current[None, :]).score[0])
        tracker.offer(current, score)
        while evaluator.evaluations < budget:
            moves = swap_moves(current, evaluator.n_tiles)
            rng.shuffle(moves)
            improved = False
            for move in moves:
                if evaluator.evaluations >= budget:
                    break
                candidate = apply_move(current, move)
                candidate_score = float(
                    evaluator.evaluate_batch(candidate[None, :]).score[0]
                )
                if candidate_score > score:
                    current, score = candidate, candidate_score
                    tracker.offer(current, score)
                    improved = True
                    break
            if not improved:
                current = random_assignment(
                    evaluator.n_tasks, evaluator.n_tiles, rng
                )
                score = float(evaluator.evaluate_batch(current[None, :]).score[0])
                tracker.offer(current, score)
        return tracker.result(self.name)


register_strategy("greedy-first", GreedyFirstImprovement, overwrite=True)


# -- 4. run the stack with all three plugins -------------------------------------


def main() -> None:
    cg = load_benchmark("mwd")
    network = PhotonicNoC(
        mesh(4, 4),
        router="compact_crux",
        params=default_library().get("legacy2010"),
    )
    problem = MappingProblem(cg, network, objective="snr")
    explorer = DesignSpaceExplorer(problem)
    print(f"fabric: {network}")
    for strategy in ("rs", "r-pbla", "greedy-first"):
        result = explorer.run(strategy, budget=8000, seed=5)
        print(
            f"{strategy:13s} worst SNR {result.best_metrics.worst_snr_db:7.2f} dB  "
            f"worst loss {result.best_metrics.worst_insertion_loss_db:6.2f} dB"
        )


if __name__ == "__main__":
    main()
