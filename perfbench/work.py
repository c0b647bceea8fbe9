"""Program side of the ``search`` and ``sweep`` workloads.

Run by ``run.py``, several times per run, each in a fresh interpreter::

    python3 perfbench/work.py {search|sweep} --seed N --seconds S
        [--gate] [--spans PATH]

It imports the program, builds the workload's resident state, prints
``READY`` (the parent times set-up from its own launch to this line),
runs a discarded warm-up, then at least ``PASSES`` timed passes (more
while the next is expected to end inside ``S`` seconds), then the
correctness gate, and prints one ``RESULT {json}`` line of raw
measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

START_MODULES = len(sys.modules)
START = time.perf_counter()
import repro.cli  # noqa: E402,F401 — the program's entry module, timed

IMPORT_MS = (time.perf_counter() - START) * 1000.0
IMPORT_MODULES = len(sys.modules) - START_MODULES

import numpy as np  # noqa: E402

from repro.analysis import experiments  # noqa: E402
from repro.analysis.experiments import reproduce_fig3  # noqa: E402
from repro.appgraph.benchmarks import (  # noqa: E402
    BENCHMARK_NAMES,
    grid_side_for,
    load_benchmark,
)
from repro.core.dse import DesignSpaceExplorer  # noqa: E402
from repro.core.evaluator import MappingEvaluator  # noqa: E402
from repro.core.objectives import Objective  # noqa: E402
from repro.core.problem import MappingProblem  # noqa: E402

import calc  # noqa: E402
import spans  # noqa: E402

#: Table II protocol at its defaults, with a per-cell budget sized so a
#: pass of 160 strategy runs takes seconds, not minutes.
SEARCH_STRATEGIES = ("rs", "ga", "r-pbla", "sa", "tabu")
SEARCH_TOPOLOGIES = ("mesh", "torus")
SEARCH_OBJECTIVES = (Objective.SNR, Objective.INSERTION_LOSS)
SEARCH_BUDGET = 1500
SEARCH_WARMUP_BUDGET = 100

#: Fig. 3 protocol: 100k random mappings per application on mesh + Crux,
#: sharded over the persistent local pool.
SWEEP_SAMPLES = 100_000
SWEEP_WORKERS = 2
SWEEP_WARMUP_SAMPLES = 4096
SWEEP_GATE_APPS = 2

#: Tolerance of the search gate's full re-evaluation.
SCORE_TOLERANCE = 1e-9

#: Timed passes per process, at least: the run's 3 processes x 2 sweep
#: passes give the 48 application runs its p70 needs.
PASSES = {"search": 1, "sweep": 2}


def _network(topology: str, cg):
    # Through the module attribute, so span recording sees the call.
    return experiments.build_case_study_network(topology, grid_side_for(cg))


# -- search -------------------------------------------------------------------


def search_setup():
    """One explorer per architecture: every coupling model resolved cold."""
    for name in BENCHMARK_NAMES:
        cg = load_benchmark(name)
        for topology in SEARCH_TOPOLOGIES:
            DesignSpaceExplorer(MappingProblem(cg, _network(topology, cg), Objective.SNR))


def search_pass(seed: int, budget: int, cells: list, keep: bool) -> dict:
    """One Table II pass: ``compare`` per app x topology x objective."""
    start = time.perf_counter()
    evals = failed = 0
    for name in BENCHMARK_NAMES:
        cg = load_benchmark(name)
        for topology in SEARCH_TOPOLOGIES:
            network = _network(topology, cg)
            for objective in SEARCH_OBJECTIVES:
                began = time.perf_counter()
                try:
                    problem = MappingProblem(cg, network, objective)
                    results = DesignSpaceExplorer(problem).compare(
                        SEARCH_STRATEGIES, budget=budget, seed=seed
                    )
                except Exception as error:  # noqa: BLE001 — counted, reported
                    failed += 1
                    cells.append({"error": repr(error)})
                    continue
                latency = time.perf_counter() - began
                evals += sum(result.evaluations for result in results.values())
                cells.append(
                    {
                        "latency_ms": latency * 1000.0,
                        "problem": problem if keep else None,
                        "results": results if keep else None,
                        "digest": [
                            (
                                result.best_score,
                                result.evaluations,
                                tuple(int(t) for t in result.best_mapping.assignment),
                            )
                            for result in results.values()
                        ],
                    }
                )
    return {
        "wall_s": time.perf_counter() - start,
        "evals": evals,
        "ops": len(BENCHMARK_NAMES) * len(SEARCH_TOPOLOGIES) * len(SEARCH_OBJECTIVES),
        "failed": failed,
    }


def search_gate(cells: list, budget: int) -> list:
    """Re-evaluate every best mapping in full; check budgets and repeats.

    The score the search itself reached for its incumbent (the last
    history entry, from the delta engine or a batch) and the reported
    ``best_score`` must both match a fresh full evaluation.
    """
    errors = []
    first = [cell for cell in cells if cell.get("results") is not None]
    for cell in first:
        evaluator = MappingEvaluator(cell["problem"])
        for name, result in cell["results"].items():
            full = evaluator.evaluate(result.best_mapping).score
            searched = result.history[-1][1]
            if not max(abs(full - searched), abs(full - result.best_score)) <= SCORE_TOLERANCE:
                errors.append(
                    f"{cell['problem'].cg.name}/{name}: searched score "
                    f"{searched!r}, best_score {result.best_score!r}, "
                    f"re-evaluated {full!r}"
                )
            if result.evaluations > budget:
                errors.append(
                    f"{cell['problem'].cg.name}/{name}: {result.evaluations} "
                    f"evaluations exceed the budget {budget}"
                )
    per_pass = len(first)
    for offset in range(per_pass, len(cells), per_pass):
        for a, b in zip(cells[:per_pass], cells[offset : offset + per_pass]):
            if a.get("digest") != b.get("digest"):
                errors.append("a repeated pass returned different results")
                return errors
    return errors


def search_quality(cells: list) -> dict:
    snr, loss = [], []
    for cell in cells:
        if cell.get("results") is None:
            continue
        for result in cell["results"].values():
            if cell["problem"].objective is Objective.SNR:
                snr.append(result.best_metrics.worst_snr_db)
            else:
                loss.append(-result.best_metrics.worst_insertion_loss_db)
    return {"best_snr_db_mean": float(np.mean(snr)), "best_loss_db_mean": float(np.mean(loss))}


def run_search(args, recorder) -> dict:
    search_setup()
    ready()
    phase(recorder, "warmup")
    began = time.perf_counter()
    search_pass(args.seed, SEARCH_WARMUP_BUDGET, [], keep=False)
    warmup_s = time.perf_counter() - began
    phase(recorder, "timed")
    cells, passes = [], []
    start = time.perf_counter()
    while calc.more_rounds(
        [p["wall_s"] for p in passes], time.perf_counter() - start, args.seconds,
        PASSES[args.workload],
    ):
        passes.append(search_pass(args.seed, SEARCH_BUDGET, cells, keep=not passes))
    timed = (start, time.perf_counter())
    peak_rss_mb = spans.vmhwm_mb()  # before the gate's own evaluators
    phase(recorder, "gate")
    errors = search_gate(cells, SEARCH_BUDGET)
    return {
        "warmup": {"what": f"1 pass at budget {SEARCH_WARMUP_BUDGET}", "seconds": warmup_s},
        "timed_ns": [int(t * 1e9) for t in timed],
        "passes": passes,
        "op_latencies_ms": [cell.get("latency_ms") for cell in cells],
        "attempted": len(cells),
        "failed": sum(p["failed"] for p in passes),
        "gate_errors": errors,
        "quality": search_quality(cells),
        "digest": digest([cell.get("digest") for cell in cells[: passes[0]["ops"]]]),
        "peak_rss_mb": peak_rss_mb,
    }


# -- sweep --------------------------------------------------------------------


def sweep_setup():
    """One sharded evaluator per application: every model resolved cold."""
    for name in BENCHMARK_NAMES:
        cg = load_benchmark(name)
        problem = MappingProblem(cg, _network("mesh", cg), Objective.SNR)
        MappingEvaluator(problem, n_workers=SWEEP_WORKERS)


def sweep_pass(seed: int, samples: int, ops: list, first: dict) -> dict:
    """One Fig. 3 pass, one ``reproduce_fig3`` call per application.

    ``seed + index`` is the seed ``reproduce_fig3`` gives application
    ``index`` of the full list, so the pass samples exactly what one
    ``phonocmap fig3 --seed`` call does.
    """
    start = time.perf_counter()
    failed = 0
    for index, name in enumerate(BENCHMARK_NAMES):
        began = time.perf_counter()
        try:
            result = reproduce_fig3(
                applications=(name,), n_samples=samples, seed=seed + index,
                n_workers=SWEEP_WORKERS,
            )[name]
        except Exception as error:  # noqa: BLE001 — counted, reported
            failed += 1
            ops.append({"error": repr(error)})
            continue
        ops.append({"latency_ms": (time.perf_counter() - began) * 1000.0})
        arrays = (result.worst_snr_db.tobytes(), result.worst_loss_db.tobytes())
        if name not in first:
            first[name] = result
        elif arrays != (first[name].worst_snr_db.tobytes(), first[name].worst_loss_db.tobytes()):
            ops[-1]["mismatch"] = name
    return {
        "wall_s": time.perf_counter() - start,
        "evals": samples * (len(BENCHMARK_NAMES) - failed),
        "ops": len(BENCHMARK_NAMES),
        "failed": failed,
    }


def sweep_gate(seed: int, first: dict) -> list:
    """Re-run a seeded subset inline (``n_workers=1``): bit-identical?"""
    errors = []
    rng = np.random.default_rng(seed)
    for index in sorted(rng.choice(len(BENCHMARK_NAMES), SWEEP_GATE_APPS, replace=False)):
        name = BENCHMARK_NAMES[index]
        inline = reproduce_fig3(
            applications=(name,), n_samples=SWEEP_SAMPLES, seed=seed + int(index), n_workers=1
        )[name]
        sharded = first.get(name)
        if sharded is None or (
            inline.worst_snr_db.tobytes() != sharded.worst_snr_db.tobytes()
            or inline.worst_loss_db.tobytes() != sharded.worst_loss_db.tobytes()
        ):
            errors.append(f"{name}: inline re-run differs from the sharded pass")
    return errors


def sweep_quality(first: dict) -> dict:
    """The best 1% of each application's random mappings, averaged.

    The 99th percentile of the sampled SNR (1st of the loss magnitude)
    rather than the extreme sample, which moves with a single draw.
    """
    return {
        "best_snr_db_mean": float(np.mean([np.percentile(r.worst_snr_db, 99) for r in first.values()])),
        "best_loss_db_mean": float(np.mean([np.percentile(-r.worst_loss_db, 1) for r in first.values()])),
    }


def children_peak_mb() -> float:
    """Peak RSS of the largest reaped child (the pool workers), in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_sweep(args, recorder) -> dict:
    from repro.core.pool import executor_stats, shutdown_pools

    sweep_setup()
    ready()
    phase(recorder, "warmup")
    began = time.perf_counter()
    sweep_pass(args.seed, SWEEP_WARMUP_SAMPLES, [], {})
    warmup_s = time.perf_counter() - began
    phase(recorder, "timed")
    ops, passes, first = [], [], {}
    start = time.perf_counter()
    while calc.more_rounds(
        [p["wall_s"] for p in passes], time.perf_counter() - start, args.seconds,
        PASSES[args.workload],
    ):
        passes.append(sweep_pass(args.seed, SWEEP_SAMPLES, ops, first))
    timed = (start, time.perf_counter())
    pool_stats = executor_stats()["totals"]
    # Before the gate: its inline re-runs of seeded apps must not decide
    # the peak.
    parent_peak_mb = spans.vmhwm_mb()
    phase(recorder, "gate")
    errors = [f"{op['mismatch']}: a repeated pass sampled differently" for op in ops if "mismatch" in op]
    if args.gate:
        errors += sweep_gate(args.seed, first)
    shutdown_pools()
    return {
        "warmup": {"what": f"1 pass at {SWEEP_WARMUP_SAMPLES} samples/app", "seconds": warmup_s},
        "timed_ns": [int(t * 1e9) for t in timed],
        "passes": passes,
        "op_latencies_ms": [op.get("latency_ms") for op in ops],
        "attempted": len(ops),
        "failed": sum(p["failed"] for p in passes),
        "gate_errors": errors,
        "quality": sweep_quality(first),
        "digest": digest(
            [(r.worst_snr_db.tobytes(), r.worst_loss_db.tobytes()) for r in first.values()]
        ),
        "peak_rss_mb": parent_peak_mb + children_peak_mb(),
        "pool_retries": int(pool_stats.get("tasks_retried", 0)),
    }


# -- entry point --------------------------------------------------------------


def digest(value) -> str:
    """Fingerprint of a pass's results, compared across processes."""
    return hashlib.sha1(repr(value).encode()).hexdigest()


def ready() -> None:
    print("READY", flush=True)


def phase(recorder, name: str) -> None:
    if recorder is not None:
        recorder.phase = name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("search", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--gate", action="store_true", help="also run the costly gate checks")
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args(argv)
    recorder = None
    if args.spans:
        recorder = spans.Recorder()
        spans.install(recorder)
    run = run_search if args.workload == "search" else run_sweep
    result = run(args, recorder)
    result["import_ms"] = IMPORT_MS
    result["import_modules"] = IMPORT_MODULES
    if recorder is not None:
        recorder.dump(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
