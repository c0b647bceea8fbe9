#!/usr/bin/env python
"""Network scalability study — quantifying the paper's headline claim.

"Experimental results show that power loss and crosstalk noise can be
significantly reduced, enabling improved network scalability."

For growing mesh sizes this script compares the median random mapping
against an optimized one, translates worst-case loss into required laser
power, and reports the largest feasible network under a fixed power
budget for each strategy.

Run:  python examples/scalability_study.py [--sides 3 4 5 6] [--budget N]

Reproduces: no paper figure — the abstract's scalability claim, quantified.
Expected runtime: ~5 minutes at the default sides and budget.
"""

import argparse

from repro.analysis import format_scalability, scalability_study
from repro.models import PowerBudget, max_tolerable_loss_db, set_model_cache_dir


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sides", nargs="+", type=int, default=[3, 4, 5, 6])
    parser.add_argument("--budget", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--model-cache", metavar="DIR", default=None,
        help="on-disk coupling-model cache: re-runs load each mesh's "
             "matrices in milliseconds instead of rebuilding",
    )
    args = parser.parse_args()
    if args.model_cache:
        set_model_cache_dir(args.model_cache)

    budget_model = PowerBudget()
    rows = scalability_study(
        sides=tuple(args.sides),
        budget=args.budget,
        seed=args.seed,
        budget_model=budget_model,
    )
    print(format_scalability(rows))
    print()
    print(
        f"technology budget: detector {budget_model.detector_sensitivity_dbm} dBm, "
        f"ceiling {budget_model.max_injected_power_dbm} dBm, "
        f"margin {budget_model.system_margin_db} dB "
        f"=> max tolerable loss {max_tolerable_loss_db(budget_model):.1f} dB"
    )
    random_feasible = [row.side for row in rows if row.random_feasible]
    optimized_feasible = [row.side for row in rows if row.optimized_feasible]
    print(
        f"largest feasible mesh with random mappings:    "
        f"{max(random_feasible) if random_feasible else 'none'}"
    )
    print(
        f"largest feasible mesh with optimized mappings: "
        f"{max(optimized_feasible) if optimized_feasible else 'none'}"
    )
    print()
    print("optimized margin per size (loss recovered by mapping):")
    for row in rows:
        print(
            f"  {row.side}x{row.side}: {row.optimized_loss_db - row.random_loss_db:5.2f} dB "
            f"(laser {row.random_laser_dbm:6.2f} -> {row.optimized_laser_dbm:6.2f} dBm)"
        )


if __name__ == "__main__":
    main()
