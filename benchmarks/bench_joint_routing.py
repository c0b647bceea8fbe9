"""Joint mapping x routing race: does widening the design vector pay?

Not a paper artefact: the engineering gate for the PR 10 joint
co-optimization (per-edge route genes in the design vector). Three
parts:

* **k=1 bit-identity** (always, and all ``--quick`` does beyond one
  tiny joint run): for every registered strategy, optimizing a
  ``routes=1`` problem must be bit-identical — score, assignment,
  evaluation count and full history — to the historical mapping-only
  run on the same seeds, on both a mesh and a torus. The refactor may
  not perturb a single RNG draw at k=1.
* **Joint-vs-mapping race** (full mode): on a paper CG x torus4 — the
  fabric whose wrap ties actually offer route diversity under the Crux
  turn rules — the ``routes=3`` search must find a strictly better
  best score than the mapping-only search across a seed sweep, for at
  least one strategy and on the best-of-sweep aggregate. The default
  instance is mpeg4: its 26 edges on 12 tasks are dense enough that
  even optimized placements route real traffic across wrap ties, so
  route genes carry genuine headroom (sparser CGs like pip converge to
  placements whose bottleneck never touches a multi-route pair, and
  joint == mapping-only at the optimum).
* **Model-cache-hit race** (full mode): the routed coupling model is
  content-addressed by ``(signature, routes)``; re-requesting
  it must hit the process cache >100x faster than the cold build.

Expected runtime: a few seconds with ``--quick``; ~2-4 minutes in full
mode at the default budget.

Usage::

    PYTHONPATH=src python benchmarks/bench_joint_routing.py --quick --json bench-results
    PYTHONPATH=src python benchmarks/bench_joint_routing.py --json .
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.appgraph import load_benchmark
from repro.core import MappingEvaluator, MappingProblem
from repro.core.registry import available_strategies, create_strategy
from repro.models.coupling import CouplingModel, clear_model_cache
from repro.noc import PhotonicNoC, mesh, torus

try:  # script mode (python benchmarks/bench_joint_routing.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench


def _fingerprint(result) -> tuple:
    """Everything that must match for two runs to count as identical."""
    return (
        repr(result.best_score),
        result.best_mapping.assignment.tolist(),
        result.evaluations,
        result.history,
    )


def check_k1_identity(app: str, budget: int, seeds: List[int]) -> dict:
    """Every strategy, mesh and torus: routes=1 == no routes, bit for bit."""
    cg = load_benchmark(app)
    report = {}
    for topology_name, topology in (("mesh4", mesh(4, 4)), ("torus4", torus(4, 4))):
        network = PhotonicNoC(topology)
        for name in available_strategies():
            for seed in seeds:
                runs = []
                for routes in (None, 1):
                    problem = (
                        MappingProblem(cg, network)
                        if routes is None
                        else MappingProblem(cg, network, routes=routes)
                    )
                    evaluator = MappingEvaluator(problem)
                    result = create_strategy(name).optimize(
                        evaluator, budget=budget,
                        rng=np.random.default_rng(seed),
                    )
                    runs.append(_fingerprint(result))
                key = f"{topology_name}/{name}/seed={seed}"
                report[key] = runs[0] == runs[1]
    return report


def race_joint_vs_mapping(
    app: str, budget: int, routes: int, seeds: List[int]
) -> dict:
    """routes=k vs mapping-only on torus4, per strategy, seed-swept."""
    cg = load_benchmark(app)
    network = PhotonicNoC(torus(4, 4))
    races = {}
    for name in available_strategies():
        scores = {1: [], routes: []}
        for k in (1, routes):
            problem = MappingProblem(cg, network, routes=k)
            for seed in seeds:
                evaluator = MappingEvaluator(problem)
                result = create_strategy(name).optimize(
                    evaluator, budget=budget,
                    rng=np.random.default_rng(seed),
                )
                scores[k].append(result.best_score)
        best_map, best_joint = max(scores[1]), max(scores[routes])
        races[name] = {
            "mapping_only": scores[1],
            "joint": scores[routes],
            "best_mapping_only": best_map,
            "best_joint": best_joint,
            "improvement_db": best_joint - best_map,
        }
    return races


def race_model_cache(routes: int) -> dict:
    """Cold routed-model build vs the content-addressed cache hit."""
    clear_model_cache()
    network = PhotonicNoC(torus(4, 4))
    t0 = time.perf_counter()
    CouplingModel.for_network(network, routes=routes)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(10):
        CouplingModel.for_network(network, routes=routes)
    t_hit = (time.perf_counter() - t0) / 10
    return {
        "t_cold_build": t_cold,
        "t_cache_hit": t_hit,
        "speedup": t_cold / t_hit if t_hit > 0 else float("inf"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="mpeg4",
                        help="race CG (default mpeg4: dense enough that its "
                        "torus4 optimum genuinely uses route diversity)")
    parser.add_argument("--quick", action="store_true",
                        help="k=1 identity smoke only (CI wiring check)")
    parser.add_argument("--routes", type=int, default=3,
                        help="joint route-menu size k (default 3)")
    parser.add_argument("--budget", type=int, default=8000,
                        help="evaluations per run in the race (default 8000)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds per (strategy, k) in the race (default 3)")
    add_json_argument(parser)
    args = parser.parse_args(argv)

    identity_budget = 200 if args.quick else 600
    identity_seeds = [11] if args.quick else [11, 23]
    identity = check_k1_identity(args.app, identity_budget, identity_seeds)
    ok = all(identity.values())
    failed = [key for key, same in identity.items() if not same]
    print(f"k=1 bit-identity: {len(identity) - len(failed)}/{len(identity)} "
          f"runs identical" + (f"; FAILED: {failed}" if failed else ""))

    races = None
    cache = None
    if not args.quick:
        seeds = list(range(1, args.seeds + 1))
        races = race_joint_vs_mapping(
            args.app, args.budget, args.routes, seeds
        )
        improvements = []
        for name, race in races.items():
            print(f"{name:>7s} on {args.app} x torus4: mapping-only best "
                  f"{race['best_mapping_only']:.3f} dB, joint(k={args.routes}) "
                  f"best {race['best_joint']:.3f} dB "
                  f"({race['improvement_db']:+.3f} dB)")
            improvements.append(race["improvement_db"])
        if max(improvements) <= 0.0:
            print("FAIL: no strategy improved with joint routing on torus4")
            ok = False
        overall_map = max(r["best_mapping_only"] for r in races.values())
        overall_joint = max(r["best_joint"] for r in races.values())
        if overall_joint <= overall_map:
            print(f"FAIL: best-of-sweep joint {overall_joint:.3f} dB does "
                  f"not beat mapping-only {overall_map:.3f} dB")
            ok = False
        else:
            print(f"best-of-sweep: joint {overall_joint:.3f} dB beats "
                  f"mapping-only {overall_map:.3f} dB")

        cache = race_model_cache(args.routes)
        print(f"routed model: cold build {cache['t_cold_build'] * 1e3:.1f} ms, "
              f"cache hit {cache['t_cache_hit'] * 1e6:.1f} us "
              f"-> {cache['speedup']:.0f}x")
        if cache["speedup"] < 100.0:
            print("FAIL: model cache hit below the 100x floor")
            ok = False

    record_bench(
        args,
        "joint_routing",
        passed=ok,
        k1_identity_runs=len(identity),
        k1_identity_failed=failed,
        races=races,
        model_cache=cache,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
