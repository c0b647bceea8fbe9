"""Wall-clock speedup of multi-process design-space exploration.

Races the sequential (``n_workers=1``) path against the process-pool path
on the two workloads :class:`~repro.core.dse.DesignSpaceExplorer`
parallelizes:

* ``run``     — one R-PBLA run decomposed into independent restart chains
  (the headline: a fully occupied 64-tile mesh, where >= 2x at 4 workers
  is expected on a machine with >= 4 free cores);
* ``compare`` — the per-strategy fan-out of the Table II experiment,
  which is additionally checked to be *bit-identical* to the sequential
  results (same best scores, same evaluation counts).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_dse.py                 # 64-tile mesh, 4 workers
    PYTHONPATH=src python benchmarks/bench_parallel_dse.py --workers 8
    PYTHONPATH=src python benchmarks/bench_parallel_dse.py --quick --workers 2   # CI wiring check

The ``--min-speedup`` floor (default 2.0) is only enforced when the
machine actually exposes at least ``--workers`` CPUs to this process —
on a 1-core container the parallel path cannot physically beat the
sequential one, so the bench reports the measurement and skips the
assertion instead of failing spuriously. Determinism is always enforced.

Paper artefact: none (engineering bench for the Table II machinery).
Expected runtime: ~2-5 minutes; seconds with ``--quick`` (CI mode).
"""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional

import numpy as np

from repro.appgraph import random_cg
from repro.core import DesignSpaceExplorer, MappingProblem

try:  # script mode (python benchmarks/bench_parallel_dse.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench

COMPARE_STRATEGIES = ("rs", "ga", "r-pbla", "sa")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _bench_problem(side: int, seed: int = 1) -> MappingProblem:
    """A fully occupied side x side mesh with a degree-bounded CG."""
    from repro.noc import PhotonicNoC, mesh

    n_tiles = side * side
    cg = random_cg(n_tiles, max(n_tiles + 1, int(2.5 * n_tiles)), seed=seed)
    network = PhotonicNoC(mesh(side, side))
    return MappingProblem(cg, network, "snr")


def _warm_pool(explorer: DesignSpaceExplorer, workers: int) -> None:
    """One tiny parallel run: creates the persistent pool and the dense
    transpose its forked workers share, so the timed races measure
    steady-state pool cost (dispatch + work), not the one-time setup."""
    explorer.run("r-pbla", budget=workers, seed=0, n_workers=workers)


def bench_run(
    problem: MappingProblem, budget: int, seed: int, workers: int
) -> dict:
    """Time one R-PBLA run sequentially vs chain-decomposed."""
    explorer = DesignSpaceExplorer(problem)
    _warm_pool(explorer, workers)
    t0 = time.perf_counter()
    sequential = explorer.run("r-pbla", budget=budget, seed=seed)
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = explorer.run("r-pbla", budget=budget, seed=seed, n_workers=workers)
    t_par = time.perf_counter() - t0
    # The chain decomposition must spend exactly the sequential budget
    # (R-PBLA honours it to the evaluation) so the race is fair.
    assert sequential.evaluations == budget, sequential.evaluations
    assert parallel.evaluations == budget, parallel.evaluations
    return {
        "label": f"run r-pbla budget={budget}",
        "t_seq": t_seq,
        "t_par": t_par,
        "score_seq": sequential.best_score,
        "score_par": parallel.best_score,
        "identical": None,  # chains are a different (valid) decomposition
    }


def bench_compare(
    problem: MappingProblem, budget: int, seed: int, workers: int
) -> dict:
    """Time the per-strategy fan-out; results must be bit-identical."""
    explorer = DesignSpaceExplorer(problem)
    _warm_pool(explorer, workers)
    t0 = time.perf_counter()
    sequential = explorer.compare(COMPARE_STRATEGIES, budget=budget, seed=seed)
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = explorer.compare(
        COMPARE_STRATEGIES, budget=budget, seed=seed, n_workers=workers
    )
    t_par = time.perf_counter() - t0
    identical = all(
        sequential[name].best_score == parallel[name].best_score
        and sequential[name].evaluations == parallel[name].evaluations
        and np.array_equal(
            sequential[name].best_mapping.assignment,
            parallel[name].best_mapping.assignment,
        )
        for name in COMPARE_STRATEGIES
    )
    return {
        "label": f"compare {'/'.join(COMPARE_STRATEGIES)} budget={budget}",
        "t_seq": t_seq,
        "t_par": t_par,
        "score_seq": max(r.best_score for r in sequential.values()),
        "score_par": max(r.best_score for r in parallel.values()),
        "identical": identical,
    }


def report(row: dict, workers: int) -> float:
    speedup = row["t_seq"] / row["t_par"] if row["t_par"] > 0 else float("inf")
    print(
        f"{row['label']}: sequential {row['t_seq']:.2f}s, "
        f"{workers} workers {row['t_par']:.2f}s -> {speedup:.2f}x"
    )
    if row["identical"] is not None:
        print(f"  bit-identical to sequential: {row['identical']}")
    return speedup


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side", type=int, default=8,
        help="mesh side (default 8: the 64-tile headline case)",
    )
    parser.add_argument(
        "--budget", type=int, default=100_000,
        help="evaluation budget (default 100000: 5x the paper's Table II "
             "budget, so per-chain compute dominates the fraction of a "
             "second of pool fork + worker-init overhead)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--mode", choices=("run", "compare", "both"), default="run",
        help="which parallel workload to race (default: run)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail below this speedup when enough CPUs are available "
             "(0 disables; default 2.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny problem, determinism checks only (CI wiring check)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    if args.quick:
        args.side = 3
        args.budget = min(args.budget, 240)
        args.min_speedup = 0.0
        args.mode = "both"  # the point of --quick is the identity check

    problem = _bench_problem(args.side, seed=1)
    print(
        f"{args.side}x{args.side} mesh, {problem.n_tasks} tasks, "
        f"{problem.cg.n_edges} edges, {args.workers} workers, "
        f"{_available_cpus()} CPUs visible"
    )
    rows = []
    if args.mode in ("run", "both"):
        rows.append(bench_run(problem, args.budget, args.seed, args.workers))
    if args.mode in ("compare", "both"):
        rows.append(bench_compare(problem, args.budget, args.seed, args.workers))

    failed = False
    for row in rows:
        speedup = report(row, args.workers)
        if row["identical"] is False:
            print("FAIL: parallel compare() diverged from sequential")
            failed = True
        if args.min_speedup > 0:
            if _available_cpus() < args.workers:
                print(
                    f"  note: only {_available_cpus()} CPUs visible; "
                    f"speedup floor of {args.min_speedup:.1f}x not enforced"
                )
            elif row["label"].startswith("run") and speedup < args.min_speedup:
                print(
                    f"FAIL: {speedup:.2f}x below the "
                    f"{args.min_speedup:.1f}x floor"
                )
                failed = True
    record_bench(
        args,
        "parallel_dse",
        params={
            "side": args.side,
            "budget": args.budget,
            "workers": args.workers,
            "seed": args.seed,
            "mode": args.mode,
            "cpus_visible": _available_cpus(),
            "quick": bool(args.quick),
        },
        rows=[
            {
                "label": row["label"],
                "t_seq": row["t_seq"],
                "t_par": row["t_par"],
                "speedup": (
                    row["t_seq"] / row["t_par"] if row["t_par"] > 0 else None
                ),
                "identical": row["identical"],
            }
            for row in rows
        ],
        passed=not failed,
    )
    if failed:
        return 1
    if args.quick:
        print("quick ok: parallel DSE deterministic")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
