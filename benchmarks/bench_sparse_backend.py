"""Sparse (CSR) vs dense noise-contraction backends: speed, memory, parity.

Three measurements around the evaluator's ``backend`` knob
(:mod:`repro.core.evaluator`):

* **Uniform-traffic contraction race** (the headline): all-to-all traffic
  on a ``--side x --side`` mesh (default 8x8, the regime the dense
  ``(M, E, E)`` grid barely holds — at 12x12 it is ~3.4 GB per copy plus
  a 408 MB grid *per mapping*). The sparse backend streams the CSR rows
  instead and is expected to win by >= ``--min-speedup`` (default 2x).
* **Fig. 3 workload race**: the paper's random-mapping sweep (edge-sparse
  benchmark CGs; ``--fig3-samples 100000`` for the paper-scale count),
  where the dense gather wins and ``backend="auto"`` correctly keeps it —
  the race documents the other side of the auto-selection crossover.
* **Memory footprint**: measured CSR bytes vs the dense matrix (and the
  dense transpose the sparse backend never builds).

Parity between the backends (1e-9 on float64 metrics) is enforced on
every race, whatever the machine; the speedup floor only applies to the
full uniform-traffic race. ``--quick`` runs a tiny parity + density
wiring check for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_backend.py            # 8x8, full race
    PYTHONPATH=src python benchmarks/bench_sparse_backend.py --side 10  # bigger mesh
    PYTHONPATH=src python benchmarks/bench_sparse_backend.py --quick    # CI wiring check

Paper artefact: none (engineering bench; Fig. 3's sweep is the reference
workload for the auto-selection rule).
Expected runtime: ~2-4 minutes at the default 8x8 (most of it the one-off
coupling-model build); ~10 s with ``--quick``. A 12x12 run is dominated
by the O(n_pairs^2) model build (~10 min) and needs ~4 GB of RAM.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

import numpy as np

from repro.analysis.distribution import random_mapping_distribution
from repro.analysis.experiments import build_case_study_network
from repro.appgraph import all_to_all_cg, grid_side_for, load_benchmark
from repro.core import MappingEvaluator, MappingProblem, random_assignment_batch
from repro.core.pool import shutdown_pools
from repro.noc import PhotonicNoC, mesh

try:  # script mode (python benchmarks/bench_sparse_backend.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench

#: Metric agreement demanded between the backends (float64).
PARITY_TOLERANCE = 1e-9


def _parity(dense_metrics, sparse_metrics) -> float:
    """Worst absolute disagreement across the three metric tables."""
    return max(
        float(
            np.abs(
                dense_metrics.worst_insertion_loss_db
                - sparse_metrics.worst_insertion_loss_db
            ).max(initial=0.0)
        ),
        float(
            np.abs(
                dense_metrics.worst_snr_db - sparse_metrics.worst_snr_db
            ).max(initial=0.0)
        ),
        float(
            np.abs(dense_metrics.score - sparse_metrics.score).max(initial=0.0)
        ),
    )


def bench_uniform_traffic(side: int, samples: int, seed: int) -> dict:
    """Race the contraction on all-to-all traffic over a side x side mesh."""
    network = PhotonicNoC(mesh(side, side))
    cg = all_to_all_cg(side * side)
    problem = MappingProblem(cg, network, "snr")
    dense = MappingEvaluator(problem, backend="dense")
    sparse = MappingEvaluator(problem, backend="sparse")
    auto = MappingEvaluator(problem)  # resolves by density
    rng = np.random.default_rng(seed)
    batch = random_assignment_batch(samples, dense.n_tasks, dense.n_tiles, rng)
    dense.evaluate_batch(batch[:1])  # touch both paths before timing
    sparse.evaluate_batch(batch[:1])
    t0 = time.perf_counter()
    dense_metrics = dense.evaluate_batch(batch)
    t_dense = time.perf_counter() - t0
    t0 = time.perf_counter()
    sparse_metrics = sparse.evaluate_batch(batch)
    t_sparse = time.perf_counter() - t0
    return {
        "label": f"uniform traffic {side}x{side}, E={cg.n_edges}, M={samples}",
        "t_dense": t_dense,
        "t_sparse": t_sparse,
        "speedup": t_dense / t_sparse if t_sparse > 0 else float("inf"),
        "parity": _parity(dense_metrics, sparse_metrics),
        "auto_backend": auto.backend,
        "density": float(sparse.model.density),
        "n_edges": cg.n_edges,
    }


def bench_fig3_sweep(app: str, samples: int, seed: int) -> dict:
    """Race the Fig. 3 sweep (edge-sparse paper CG) across the backends."""
    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")
    auto = MappingEvaluator(problem)
    t0 = time.perf_counter()
    dense_result = random_mapping_distribution(
        cg, network, n_samples=samples, seed=seed, backend="dense"
    )
    t_dense = time.perf_counter() - t0
    t0 = time.perf_counter()
    sparse_result = random_mapping_distribution(
        cg, network, n_samples=samples, seed=seed, backend="sparse"
    )
    t_sparse = time.perf_counter() - t0
    parity = max(
        float(
            np.abs(dense_result.worst_snr_db - sparse_result.worst_snr_db).max()
        ),
        float(
            np.abs(
                dense_result.worst_loss_db - sparse_result.worst_loss_db
            ).max()
        ),
    )
    return {
        "label": f"fig3 sweep {app} n={samples}",
        "t_dense": t_dense,
        "t_sparse": t_sparse,
        "speedup": t_dense / t_sparse if t_sparse > 0 else float("inf"),
        "parity": parity,
        "auto_backend": auto.backend,
        "density": float(auto.model.density),
        "n_edges": cg.n_edges,
    }


def memory_report(side: int) -> dict:
    """Measured bytes: dense matrix + transpose vs the CSR triplet."""
    network = PhotonicNoC(mesh(side, side))
    problem = MappingProblem(all_to_all_cg(side * side), network, "snr")
    model = MappingEvaluator(problem, backend="sparse").model
    csr = model.csr()
    dense_bytes = model.coupling_linear.nbytes
    return {
        "side": side,
        "n_pairs": model.n_pairs,
        "density": float(model.density),
        "dense_bytes": int(dense_bytes),
        "transpose_bytes": int(dense_bytes),  # what dense-mode delta adds
        "csr_bytes": int(csr.nbytes),
        "csr_over_dense": csr.nbytes / dense_bytes,
    }


def report_race(row: dict) -> None:
    print(
        f"{row['label']}: dense {row['t_dense']:.2f}s, "
        f"sparse {row['t_sparse']:.2f}s -> {row['speedup']:.2f}x sparse "
        f"(density {row['density']:.3f}, auto picks {row['auto_backend']!r})"
    )
    print(f"  backend parity (max |diff| over metrics): {row['parity']:.2e}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side", type=int, default=8,
        help="mesh side for the uniform-traffic race and the memory "
             "report (default 8; 10 or 12 stress the dense backend hard)",
    )
    parser.add_argument(
        "--samples", type=int, default=32,
        help="mappings per uniform-traffic race (default 32)",
    )
    parser.add_argument(
        "--fig3-app", default="dvopd",
        help="application for the Fig. 3 sweep race (default dvopd)",
    )
    parser.add_argument(
        "--fig3-samples", type=int, default=20_000,
        help="samples for the Fig. 3 sweep race (default 20000; pass "
             "100000 for the paper-scale sweep — the deliberately "
             "mismatched sparse side then takes several minutes)",
    )
    parser.add_argument(
        "--skip-fig3", action="store_true",
        help="skip the Fig. 3 sweep race (uniform race + memory only)",
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail when the uniform-traffic sparse speedup is below this "
             "(0 disables; default 2.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny problems, parity + density checks only (CI wiring "
             "check; no speedup floor)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    if args.quick:
        args.side = 4
        args.samples = min(args.samples, 16)
        args.fig3_app = "pip"
        args.fig3_samples = min(args.fig3_samples, 2000)
        args.min_speedup = 0.0

    rows = [bench_uniform_traffic(args.side, args.samples, args.seed)]
    if not args.skip_fig3:
        rows.append(
            bench_fig3_sweep(args.fig3_app, args.fig3_samples, args.seed)
        )
    memory = memory_report(args.side)

    failed = False
    for row in rows:
        report_race(row)
        if row["parity"] > PARITY_TOLERANCE:
            print(
                f"FAIL: backends disagree by {row['parity']:.2e} "
                f"(> {PARITY_TOLERANCE:.0e})"
            )
            failed = True
    uniform = rows[0]
    if not (0.0 < uniform["density"] < 1.0):
        print(f"FAIL: trivial coupling density {uniform['density']}")
        failed = True
    if uniform["auto_backend"] != "sparse":
        print("FAIL: auto did not pick sparse for uniform traffic")
        failed = True
    if args.min_speedup > 0 and uniform["speedup"] < args.min_speedup:
        print(
            f"FAIL: uniform-traffic sparse speedup {uniform['speedup']:.2f}x "
            f"below the {args.min_speedup:.1f}x floor"
        )
        failed = True

    mb = 1.0 / (1 << 20)
    print(
        f"memory {memory['side']}x{memory['side']}: dense "
        f"{memory['dense_bytes'] * mb:.1f} MB (+ transpose "
        f"{memory['transpose_bytes'] * mb:.1f} MB for dense-mode delta), "
        f"CSR {memory['csr_bytes'] * mb:.1f} MB "
        f"({memory['csr_over_dense']:.2f}x the dense matrix)"
    )

    shutdown_pools()
    record_bench(
        args,
        "sparse_backend",
        params={
            "side": args.side,
            "samples": args.samples,
            "fig3_app": None if args.skip_fig3 else args.fig3_app,
            "fig3_samples": None if args.skip_fig3 else args.fig3_samples,
            "seed": args.seed,
            "quick": bool(args.quick),
        },
        rows=rows,
        memory=memory,
        passed=not failed,
    )
    if failed:
        return 1
    if args.quick:
        print("quick ok: sparse and dense backends agree, density non-trivial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
