"""Wall-clock speedup of sharded batch evaluation (paper Fig. 3 workload).

Races the sequential ``evaluate_batch`` path against the sharded,
pipelined path of :func:`repro.analysis.distribution.random_mapping_distribution`
on the paper's heaviest single batch workload — the 100,000-random-mapping
distribution sweep behind Fig. 3 — plus a raw single-call
``evaluate_batch`` race on the same batch. Expected runtime: ~1-3 minutes
at the default 100k samples on 4 cores; a few seconds with ``--quick``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharded_eval.py                # dvopd, 100k samples, 4 workers
    PYTHONPATH=src python benchmarks/bench_sharded_eval.py --app mpeg4 --workers 8
    PYTHONPATH=src python benchmarks/bench_sharded_eval.py --quick       # CI wiring check

Three things are always enforced, whatever the machine:

* the sharded distribution (and the raw sharded batch) is **bit-identical**
  to the sequential one — shard boundaries never change a value;
* evaluation counts match exactly;
* a sharded batch computes exactly the tables its caller reads: asked
  for every table (``_submit`` with no names), all five equal the
  sequential ones; a default ``submit_batch`` leaves the three tables
  ``BatchMetrics`` does not read ``None``.

The ``--min-speedup`` floor (default 1.5) is only enforced when the
machine exposes at least ``--workers`` CPUs to this process; on a 1-core
container the parallel path cannot physically win, so the bench reports
the measurement and skips the assertion instead of failing spuriously.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional

import numpy as np

from repro.analysis.distribution import random_mapping_distribution
from repro.analysis.experiments import build_case_study_network
from repro.appgraph import grid_side_for, load_benchmark
from repro.core import MappingEvaluator, MappingProblem, random_assignment_batch
from repro.core.pool import shutdown_pools

try:  # script mode (python benchmarks/bench_sharded_eval.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_distribution(app: str, samples: int, seed: int, workers: int) -> dict:
    """Race the Fig. 3 sweep for one application, sequential vs sharded."""
    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    # Warm the model cache and the worker pool so the race measures
    # steady-state evaluation, not one-time matrix builds / pool forks.
    random_mapping_distribution(cg, network, n_samples=workers, seed=0,
                                n_workers=workers)
    t0 = time.perf_counter()
    sequential = random_mapping_distribution(
        cg, network, n_samples=samples, seed=seed
    )
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = random_mapping_distribution(
        cg, network, n_samples=samples, seed=seed, n_workers=workers
    )
    t_par = time.perf_counter() - t0
    identical = np.array_equal(
        sharded.worst_snr_db, sequential.worst_snr_db
    ) and np.array_equal(sharded.worst_loss_db, sequential.worst_loss_db)
    return {
        "label": f"fig3 sweep {app} n={samples}",
        "t_seq": t_seq,
        "t_par": t_par,
        "identical": identical,
    }


def bench_single_batch(app: str, samples: int, seed: int, workers: int) -> dict:
    """Race one giant ``evaluate_batch`` call, sequential vs sharded."""
    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")
    evaluator = MappingEvaluator(problem)
    rng = np.random.default_rng(seed)
    batch = random_assignment_batch(
        samples, evaluator.n_tasks, evaluator.n_tiles, rng
    )
    evaluator.evaluate_batch(batch[:workers], n_workers=workers)  # warm pool
    evaluator.reset_count()
    t0 = time.perf_counter()
    sequential = evaluator.evaluate_batch(batch)
    t_seq = time.perf_counter() - t0
    count_seq = evaluator.evaluations
    t0 = time.perf_counter()
    sharded = evaluator.evaluate_batch(batch, n_workers=workers)
    t_par = time.perf_counter() - t0
    identical = (
        np.array_equal(sharded.score, sequential.score)
        and np.array_equal(sharded.worst_snr_db, sequential.worst_snr_db)
        and np.array_equal(
            sharded.worst_insertion_loss_db, sequential.worst_insertion_loss_db
        )
        and count_seq == samples
        and evaluator.evaluations == 2 * samples
    )
    return {
        "label": f"evaluate_batch {app} M={samples}",
        "t_seq": t_seq,
        "t_par": t_par,
        "identical": identical,
    }


def check_batch_tables(app: str, samples: int, seed: int, workers: int) -> List[str]:
    """Failures of the batch-table rule on one sharded batch (none: ok)."""
    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    evaluator = MappingEvaluator(MappingProblem(cg, network, "snr"))
    batch = random_assignment_batch(
        samples, evaluator.n_tasks, evaluator.n_tiles,
        np.random.default_rng(seed),
    )
    failures = []
    sequential = evaluator._submit(batch).tables()
    every = evaluator._submit(batch, n_workers=workers)
    trimmed = evaluator.submit_batch(batch, n_workers=workers)
    if every._pool is None or trimmed._pool is None:
        failures.append("the table checks' batches were not sharded")
    for name, want, got in zip(evaluator.table_names, sequential, every.tables()):
        if got is None or not np.array_equal(got, want):
            failures.append(f"sharded {name} differs from the sequential table")
    read = ("worst_il", "worst_snr")  # what BatchMetrics reads for "snr"
    for name, got in zip(evaluator.table_names, trimmed.tables()):
        if (got is None) != (name not in read):
            state = "missing" if got is None else "computed, but never read"
            failures.append(f"default sharded batch: {name} {state}")
    return failures


def report(row: dict, workers: int) -> float:
    speedup = row["t_seq"] / row["t_par"] if row["t_par"] > 0 else float("inf")
    print(
        f"{row['label']}: sequential {row['t_seq']:.2f}s, "
        f"{workers} workers {row['t_par']:.2f}s -> {speedup:.2f}x"
    )
    print(f"  bit-identical to sequential: {row['identical']}")
    return speedup


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--app", default="dvopd",
        help="benchmark application (default dvopd: 32 tasks on a 6x6 mesh, "
             "the heaviest Fig. 3 row)",
    )
    parser.add_argument(
        "--samples", type=int, default=100_000,
        help="random mappings to evaluate (default 100000, as in Fig. 3)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="fail below this sweep speedup when enough CPUs are available "
             "(0 disables; default 1.5)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sample count, identity checks only (CI wiring check)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    if args.quick:
        args.app = "pip"
        args.samples = min(args.samples, 2000)
        args.workers = min(args.workers, 2)
        args.min_speedup = 0.0

    print(
        f"app={args.app}, {args.samples} samples, {args.workers} workers, "
        f"{_available_cpus()} CPUs visible"
    )
    rows = [
        bench_distribution(args.app, args.samples, args.seed, args.workers),
        bench_single_batch(args.app, args.samples, args.seed, args.workers),
    ]
    table_failures = check_batch_tables(
        args.app, args.samples, args.seed, args.workers
    )
    print(
        "sharded batches compute exactly the tables they read: "
        f"{not table_failures}"
    )
    for failure in table_failures:
        print(f"FAIL: {failure}")
    failed = bool(table_failures)
    for row in rows:
        speedup = report(row, args.workers)
        if not row["identical"]:
            print("FAIL: sharded evaluation diverged from sequential")
            failed = True
        if args.min_speedup > 0 and row["label"].startswith("fig3"):
            if _available_cpus() < args.workers:
                print(
                    f"  note: only {_available_cpus()} CPUs visible; "
                    f"speedup floor of {args.min_speedup:.1f}x not enforced"
                )
            elif speedup < args.min_speedup:
                print(
                    f"FAIL: {speedup:.2f}x below the "
                    f"{args.min_speedup:.1f}x floor"
                )
                failed = True
    shutdown_pools()
    record_bench(
        args,
        "sharded_eval",
        params={
            "app": args.app,
            "samples": args.samples,
            "workers": args.workers,
            "seed": args.seed,
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
        table_failures=table_failures,
        passed=not failed,
    )
    if failed:
        return 1
    if args.quick:
        print("quick ok: sharded evaluation bit-identical, unread tables skipped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
