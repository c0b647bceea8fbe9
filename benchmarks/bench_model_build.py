"""CouplingModel build: legacy walk loop vs walk-once vectorized vs disk cache.

Races the three ways an architecture's all-pairs coupling matrices come
into existence (:mod:`repro.models.coupling`):

* the **legacy** per-aggressor pure-Python walk loop (the seed builder,
  kept as ``builder="legacy"`` — the parity oracle);
* the **vectorized** walk-once builder (emission channels resolved once,
  joins gathered, contributions scatter-accumulated);
* a **warm on-disk cache** load (``for_network(cache_dir=...)``:
  memory-mapped arrays keyed by signature/MODEL_VERSION).

Each builder is timed on its own freshly assembled network, so every
time is a whole cold build — path elaboration included, as a user's first
``CouplingModel.for_network`` pays it; the elaboration share of the
vectorized build is reported as its own column. Every race asserts the
matrices are **bit-identical** across builders; the speedup floors apply
to the largest raced mesh. ``--quick`` runs a seconds-scale parity +
speedup smoke for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_model_build.py              # 4/6/8 meshes
    PYTHONPATH=src python benchmarks/bench_model_build.py --sides 8    # the crux race
    PYTHONPATH=src python benchmarks/bench_model_build.py --quick      # CI smoke

Paper artefact: none (engineering bench; the build feeds every paper
experiment's precomputation).
Expected runtime: ~2-4 minutes at the default sides (the legacy 8x8
build alone is ~45 s); ~5 s with ``--quick``.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from typing import List, Optional

import numpy as np

from repro.models.coupling import CouplingModel, clear_model_cache
from repro.noc import PhotonicNoC, mesh

try:  # script mode (python benchmarks/bench_model_build.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench


def bench_side(side: int, with_legacy: bool, cache_dir: str) -> dict:
    """Race every builder on one side x side crux mesh (float64).

    Each builder gets its own freshly assembled network (assembly stays
    outside the timers), so each time includes the path elaboration the
    network does on its first ``all_paths()``.
    """
    network = PhotonicNoC(mesh(side, side))
    t0 = time.perf_counter()
    network.all_paths()
    t_elaborate = time.perf_counter() - t0
    vectorized = CouplingModel(network)
    t_vectorized = time.perf_counter() - t0

    row = {
        "side": side,
        "n_pairs": vectorized.n_pairs,
        "t_elaborate": t_elaborate,
        "t_vectorized": t_vectorized,
        "t_legacy": None,
        "t_cache_cold": None,
        "t_cache_warm": None,
        "speedup": None,
        "cache_speedup": None,
        "parity": True,
    }

    if with_legacy:
        fresh = PhotonicNoC(mesh(side, side))
        t0 = time.perf_counter()
        legacy = CouplingModel(fresh, builder="legacy")
        row["t_legacy"] = time.perf_counter() - t0
        row["speedup"] = row["t_legacy"] / t_vectorized
        row["parity"] = bool(
            np.array_equal(legacy.coupling_linear, vectorized.coupling_linear)
            and np.array_equal(legacy.signal_linear, vectorized.signal_linear)
        )
        del legacy

    # Disk cache: cold = build + persist, warm = memory-mapped load.
    clear_model_cache()
    fresh = PhotonicNoC(mesh(side, side))
    t0 = time.perf_counter()
    cold = CouplingModel.for_network(fresh, use_cache=False, cache_dir=cache_dir)
    row["t_cache_cold"] = time.perf_counter() - t0
    fresh = PhotonicNoC(mesh(side, side))
    t0 = time.perf_counter()
    warm = CouplingModel.for_network(fresh, use_cache=False, cache_dir=cache_dir)
    row["t_cache_warm"] = time.perf_counter() - t0
    row["cache_speedup"] = row["t_cache_cold"] / max(row["t_cache_warm"], 1e-9)
    row["parity"] = row["parity"] and bool(
        np.array_equal(np.asarray(warm.coupling_linear), cold.coupling_linear)
        and isinstance(warm.coupling_linear, np.memmap)
    )
    return row


def report_row(row: dict) -> None:
    side = row["side"]
    legacy = (
        f"legacy {row['t_legacy']:.2f}s, " if row["t_legacy"] is not None else ""
    )
    speedup = (
        f" -> {row['speedup']:.1f}x vectorized" if row["speedup"] else ""
    )
    print(
        f"{side}x{side} ({row['n_pairs']} pairs): {legacy}"
        f"vectorized {row['t_vectorized']:.2f}s "
        f"(elaboration {row['t_elaborate']:.2f}s){speedup}"
    )
    print(
        f"  disk cache: cold {row['t_cache_cold']:.2f}s, warm "
        f"{row['t_cache_warm'] * 1e3:.1f} ms -> {row['cache_speedup']:.0f}x"
    )
    print(f"  parity (bit-identical matrices): {row['parity']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sides", nargs="+", type=int, default=[4, 6, 8],
        help="mesh sides to race (default 4 6 8)",
    )
    parser.add_argument(
        "--skip-legacy-above", type=int, default=8,
        help="skip the legacy builder above this side (default 8; the "
             "pure-Python loop is ~10 min at 12x12)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="fail when the vectorized speedup at the largest "
             "legacy-raced side is below this (0 disables; default 5.0)",
    )
    parser.add_argument(
        "--min-cache-speedup", type=float, default=50.0,
        help="fail when the warm-cache speedup at the largest side is "
             "below this (0 disables; default 50.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one 5x5 mesh, relaxed floors: the CI parity + speedup smoke",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    if args.quick:
        # 5x5: big enough that the vectorized speedup (~6x) clears the
        # relaxed floor with margin on noisy CI runners, small enough to
        # finish in seconds.
        args.sides = [5]
        args.min_speedup = 2.0
        args.min_cache_speedup = 5.0

    rows = []
    with tempfile.TemporaryDirectory(prefix="phonocmap-model-cache-") as cache:
        for side in sorted(args.sides):
            row = bench_side(
                side,
                with_legacy=side <= args.skip_legacy_above,
                cache_dir=cache,
            )
            report_row(row)
            rows.append(row)
    clear_model_cache()

    failed = False
    for row in rows:
        if not row["parity"]:
            print(f"FAIL: builders disagree at {row['side']}x{row['side']}")
            failed = True
    raced = [row for row in rows if row["speedup"] is not None]
    if raced and args.min_speedup > 0:
        crux = raced[-1]  # the largest legacy-raced mesh
        if crux["speedup"] < args.min_speedup:
            print(
                f"FAIL: vectorized speedup {crux['speedup']:.2f}x at "
                f"{crux['side']}x{crux['side']} below the "
                f"{args.min_speedup:.1f}x floor"
            )
            failed = True
    if rows and args.min_cache_speedup > 0:
        crux = rows[-1]
        if crux["cache_speedup"] < args.min_cache_speedup:
            print(
                f"FAIL: warm-cache speedup {crux['cache_speedup']:.0f}x at "
                f"{crux['side']}x{crux['side']} below the "
                f"{args.min_cache_speedup:.0f}x floor"
            )
            failed = True

    record_bench(
        args,
        "model_build",
        params={
            "sides": sorted(args.sides),
            "min_speedup": args.min_speedup,
            "min_cache_speedup": args.min_cache_speedup,
            "quick": bool(args.quick),
        },
        rows=rows,
        passed=not failed,
    )
    if failed:
        return 1
    if args.quick:
        print(
            "quick ok: vectorized and cached builds bit-identical to the "
            "legacy walk loop"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
