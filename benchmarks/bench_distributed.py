"""Race of the executor backends: local pool vs TCP worker processes.

Starts an in-process :class:`~repro.distributed.scheduler.WorkerHub`,
spawns ``phonocmap worker`` subprocesses against it (same host — the
bench measures protocol overhead, not network weather), and runs the
same DSE workload on the ``local`` and ``tcp`` executor backends:

* ``compare`` over the paper's strategy set plus a chain-decomposed
  ``run`` — the task-granular dispatch path;
* one sharded ``evaluate_batch`` — the row-granular dispatch path;
* every remote result is asserted **bit-identical** to its local
  counterpart (the determinism contract of ``docs/ARCHITECTURE.md``:
  ``(seed, n_workers)`` fixes the result, the backend only decides
  where the arithmetic runs);
* the hub's own counters are reported — tasks dispatched, retried and
  workers. No model arrays cross the wire: workers resolve coupling
  models by cache key from their own on-disk cache (pre-seeded here),
  as every evaluator does.

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed.py           # 2 workers
    PYTHONPATH=src python benchmarks/bench_distributed.py --workers 4
    PYTHONPATH=src python benchmarks/bench_distributed.py --quick   # CI wiring check

Paper artefact: none (engineering bench for the distributed execution
layer; the workload is the paper's Table II pipeline).
Expected runtime: a few seconds; about 1 s with ``--quick`` (2 vCPUs).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import List, Optional

try:  # script mode (python benchmarks/bench_distributed.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench

STRATEGIES = ["rs", "sa", "ga"]


def _spawn_worker(port: int, cache_dir: str) -> subprocess.Popen:
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", f"127.0.0.1:{port}", "--model-cache", cache_dir],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_workers(hub, count: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while hub.workers_connected < count:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"only {hub.workers_connected}/{count} workers connected"
            )
        time.sleep(0.05)


def run_bench(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="mwd")
    parser.add_argument("--workers", type=int, default=2,
                        help="TCP worker subprocesses (default: 2)")
    parser.add_argument("--budget", type=int, default=6000,
                        help="optimizer evaluations per strategy (default: 6000)")
    parser.add_argument("--rows", type=int, default=8192,
                        help="assignment rows for the sharded batch "
                             "(default: 8192)")
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI wiring check: 2 workers, tiny budget and batch",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    if args.quick:
        args.workers = 2
        args.budget = 600
        args.rows = 512
    if args.workers < 2:
        parser.error("--workers must be >= 2 (the bench races placement)")

    import tempfile

    import numpy as np

    from repro.analysis.experiments import build_case_study_network
    from repro.appgraph.benchmarks import grid_side_for, load_benchmark
    from repro.core.dse import DesignSpaceExplorer
    from repro.core.evaluator import MappingEvaluator
    from repro.core.mapping import random_assignment_batch
    from repro.core.pool import shutdown_pools
    from repro.core.problem import MappingProblem
    from repro.distributed.scheduler import get_hub
    from repro.models.coupling import CouplingModel

    cg = load_benchmark(args.app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")

    with tempfile.TemporaryDirectory() as cache_dir:
        # Pre-seed the on-disk model cache the workers share, so no
        # worker spends its first task building the model.
        CouplingModel.for_network(network, cache_dir=cache_dir).save_cached(
            cache_dir
        )
        hub = get_hub("tcp://127.0.0.1:0")
        spec = f"tcp://127.0.0.1:{hub.port}"
        workers = [_spawn_worker(hub.port, cache_dir) for _ in range(args.workers)]
        timings = {}
        compare_results = {}
        run_results = {}
        batch_tables = {}
        try:
            _wait_for_workers(hub, args.workers)
            for backend in ("local", "tcp"):
                executor = spec if backend == "tcp" else backend
                explorer = DesignSpaceExplorer(
                    problem,
                    n_workers=args.workers,
                    executor=executor,
                    model_cache_dir=cache_dir,
                )
                rows = random_assignment_batch(
                    args.rows, problem.cg.n_tasks, problem.n_tiles,
                    np.random.default_rng(args.seed),
                )
                evaluator = MappingEvaluator(
                    problem,
                    n_workers=args.workers,
                    executor=executor,
                    model_cache_dir=cache_dir,
                )
                started = time.perf_counter()
                compare_results[backend] = explorer.compare(
                    STRATEGIES, budget=args.budget, seed=args.seed,
                )
                run_results[backend] = explorer.run(
                    "sa", budget=args.budget, seed=args.seed + 1,
                )
                batch_tables[backend] = evaluator.submit_batch(
                    rows, min_shard_rows=32
                ).tables()
                timings[backend] = time.perf_counter() - started
            hub_stats = hub.stats()
        finally:
            shutdown_pools()
            hub.close()
            for worker in workers:
                worker.terminate()
            for worker in workers:
                worker.wait(timeout=10)

    # Bit-identity: the remote backend must reproduce the local results
    # exactly — best scores, histories, counts, and every batch column.
    verified = 0
    for strategy in STRATEGIES:
        local, remote = (compare_results[b][strategy] for b in ("local", "tcp"))
        assert remote.best_score == local.best_score, strategy
        assert remote.evaluations == local.evaluations, strategy
        assert remote.history == local.history, strategy
        verified += 1
    local_run, remote_run = run_results["local"], run_results["tcp"]
    assert remote_run.best_score == local_run.best_score
    assert remote_run.history == local_run.history
    assert np.array_equal(
        remote_run.best_mapping.assignment, local_run.best_mapping.assignment
    )
    verified += 1
    for local_col, remote_col in zip(batch_tables["local"], batch_tables["tcp"]):
        assert np.array_equal(local_col, remote_col)
    verified += 1

    assert hub_stats["tasks_dispatched"] > 0, hub_stats  # tasks went remote

    overhead = timings["tcp"] / timings["local"] if timings["local"] else 0.0
    print(f"distributed race: {args.workers} TCP workers vs local pool "
          f"({args.app}, budget={args.budget}, rows={args.rows})")
    print(f"  local pool     {timings['local']:8.2f} s")
    print(f"  tcp workers    {timings['tcp']:8.2f} s  "
          f"({overhead:.2f}x local wall time)")
    print(f"  tasks remote   {hub_stats['tasks_dispatched']:5d}")
    print(f"  retried        {hub_stats['tasks_retried']:5d}")
    print(f"  verified       {verified} result groups bit-identical to local")

    record_bench(
        args,
        "distributed",
        app=args.app,
        workers=args.workers,
        budget=args.budget,
        rows=args.rows,
        seed=args.seed,
        local_wall_s=timings["local"],
        tcp_wall_s=timings["tcp"],
        tcp_overhead_x=overhead,
        hub=hub_stats,
        verified_bit_identical=verified,
        quick=bool(args.quick),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(run_bench())
