"""Delta-vs-full neighbourhood-scoring throughput across problem sizes.

The :class:`~repro.core.delta.DeltaEvaluator` promises the same scores as
``MappingEvaluator.evaluate_batch`` at O(E * affected) per move instead of
O(E^2). This bench measures exactly the workload the local-search
strategies (tabu, SA) put on it — score a sampled swap/relocation
neighbourhood of the incumbent, commit the best move, repeat — and checks
that the two paths agree to 1e-9 while they race.

Runs both as a script (CI smoke / quick local check)::

    PYTHONPATH=src python benchmarks/bench_delta_engine.py --smoke
    PYTHONPATH=src python benchmarks/bench_delta_engine.py --sides 4,6,8

and under pytest-benchmark like the other benches::

    pytest benchmarks/bench_delta_engine.py --benchmark-only

The ``--sides 8`` row is the headline: a fully occupied 64-tile mesh,
where delta scoring is expected to be >= 3x the full evaluator. The
timed rows score the ``snr`` objective; ``--smoke`` races ``snr`` and
``loss``, so CI also runs the noise-free loss-family engine end to end.

Paper artefact: none (engineering bench for the §II-D search engine).
Expected runtime: ~1-2 minutes; seconds with ``--smoke`` (CI mode).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.appgraph import random_cg
from repro.core import MappingEvaluator, MappingProblem
from repro.core.delta import DeltaEvaluator
from repro.core.mapping import random_assignment
from repro.core.moves import apply_move, swap_moves

try:  # script mode (python benchmarks/bench_delta_engine.py)
    from common import add_json_argument, record_bench
except ImportError:  # package mode (pytest from the repo root)
    from benchmarks.common import add_json_argument, record_bench

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None


@dataclass
class DeltaBenchRow:
    """One problem size's measurement."""

    side: int
    objective: str
    n_tasks: int
    n_edges: int
    neighbourhood: int
    full_ms: float
    delta_ms: float
    max_divergence: float

    @property
    def speedup(self) -> float:
        return self.full_ms / self.delta_ms

    @property
    def delta_moves_per_s(self) -> float:
        return self.neighbourhood / (self.delta_ms / 1e3)


def _bench_problem(side: int, seed: int = 1, objective: str = "snr"):
    """A fully occupied side x side mesh with a degree-bounded CG."""
    from repro.noc import PhotonicNoC, mesh

    n_tiles = side * side
    cg = random_cg(n_tiles, max(n_tiles + 1, int(2.5 * n_tiles)), seed=seed)
    network = PhotonicNoC(mesh(side, side))
    return MappingEvaluator(MappingProblem(cg, network, objective))


def _sample_neighbourhood(assignment, n_tiles, size, rng):
    moves = swap_moves(assignment, n_tiles)
    picks = rng.choice(len(moves), size=min(size, len(moves)), replace=False)
    return [moves[int(p)] for p in picks]


def _time(fn, min_seconds: float, min_rounds: int) -> float:
    """Best-effort seconds per call (median of the measured rounds)."""
    fn()  # warmup
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        rounds.append(time.perf_counter() - t0)
    return float(np.median(rounds))


def measure_side(
    side: int,
    neighbourhood: int = 64,
    iterations: int = 8,
    min_seconds: float = 0.5,
    seed: int = 1,
    objective: str = "snr",
) -> DeltaBenchRow:
    """Race delta vs full scoring over a tabu-like walk on one mesh size.

    Both paths replay the same ``iterations``-step walk: sample a
    neighbourhood, score it, commit the best move. The timed unit is the
    whole walk, so the delta path also pays its per-commit bookkeeping.
    """
    evaluator = _bench_problem(side, seed=seed, objective=objective)
    engine = DeltaEvaluator(evaluator)
    n_tiles = evaluator.n_tiles
    rng = np.random.default_rng(seed)
    start = random_assignment(evaluator.n_tasks, n_tiles, rng)
    walks = []
    assignment = start.copy()
    for _ in range(iterations):
        walks.append(
            _sample_neighbourhood(assignment, n_tiles, neighbourhood, rng)
        )
        # Walk along each step's first sampled move so successive
        # neighbourhoods belong to successive incumbents.
        assignment = apply_move(assignment, walks[-1][0])

    def run_full():
        current = start.copy()
        scores_out = []
        for sampled in walks:
            candidates = np.stack([apply_move(current, m) for m in sampled])
            scores_out.append(evaluator.evaluate_batch(candidates).score)
            current = apply_move(current, sampled[0])
        return scores_out

    def run_delta():
        engine.reset(start, count=False)
        scores_out = []
        for sampled in walks:
            scores_out.append(engine.score_moves(sampled))
            engine.commit(sampled[0])
        return scores_out

    full_scores = run_full()
    delta_scores = run_delta()
    divergence = max(
        float(np.abs(f - d).max())
        for f, d in zip(full_scores, delta_scores)
    )
    full_s = _time(run_full, min_seconds, min_rounds=3)
    delta_s = _time(run_delta, min_seconds, min_rounds=3)
    per_batch = 1e3 / iterations
    return DeltaBenchRow(
        side=side,
        objective=objective,
        n_tasks=evaluator.n_tasks,
        n_edges=len(evaluator._edges),
        neighbourhood=len(walks[0]),
        full_ms=full_s * per_batch,
        delta_ms=delta_s * per_batch,
        max_divergence=divergence,
    )


def format_table(rows: Sequence[DeltaBenchRow]) -> str:
    lines = [
        "side  objective  tiles  tasks  edges  nbhd   full ms/batch"
        "  delta ms/batch  speedup  max |Δscore|",
    ]
    for row in rows:
        lines.append(
            f"{row.side:4d}  {row.objective:>9s}  {row.side * row.side:5d}  "
            f"{row.n_tasks:5d}  "
            f"{row.n_edges:5d}  {row.neighbourhood:4d}   "
            f"{row.full_ms:13.3f}  {row.delta_ms:14.3f}  "
            f"{row.speedup:6.2f}x  {row.max_divergence:.2e}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sides",
        default="4,6,8",
        help="comma-separated mesh sides to measure (side*side tiles)",
    )
    parser.add_argument(
        "--neighbourhood", type=int, default=64,
        help="moves scored per batch (tabu/SA sample size)",
    )
    parser.add_argument(
        "--iterations", type=int, default=8,
        help="batches per timed walk",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.5,
        help="minimum measurement time per path",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny problem, one fast round (CI wiring check)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    objectives = ["snr"]
    if args.smoke:
        sides = [3]
        objectives = ["snr", "loss"]
        args.neighbourhood = 16
        args.iterations = 2
        args.min_seconds = 0.05
    else:
        try:
            sides = [int(s) for s in args.sides.split(",") if s]
        except ValueError:
            parser.error(f"--sides expects comma-separated integers, "
                         f"got {args.sides!r}")
        if not sides or any(s < 2 for s in sides):
            parser.error("--sides needs at least one side >= 2")
    rows = []
    print(format_table([]))  # header only; rows follow as they finish
    for side in sides:
        for objective in objectives:
            rows.append(
                measure_side(
                    side,
                    neighbourhood=args.neighbourhood,
                    iterations=args.iterations,
                    min_seconds=args.min_seconds,
                    objective=objective,
                )
            )
            print(format_table(rows[-1:]).splitlines()[1])
    bad = [row for row in rows if row.max_divergence > 1e-9]
    record_bench(
        args,
        "delta_engine",
        params={
            "sides": sides,
            "objectives": objectives,
            "neighbourhood": args.neighbourhood,
            "iterations": args.iterations,
            "smoke": bool(args.smoke),
        },
        rows=[
            {
                "side": row.side,
                "objective": row.objective,
                "n_tasks": row.n_tasks,
                "n_edges": row.n_edges,
                "full_ms_per_batch": row.full_ms,
                "delta_ms_per_batch": row.delta_ms,
                "speedup": row.speedup,
                "max_divergence": row.max_divergence,
            }
            for row in rows
        ],
        passed=not bad,
    )
    if bad:
        print(f"FAIL: delta/full divergence above 1e-9 on "
              f"{[(row.side, row.objective) for row in bad]}")
        return 1
    if args.smoke:
        print("smoke ok: delta and full agree")
    return 0


# -- pytest-benchmark harness ----------------------------------------------------

if pytest is not None:

    @pytest.mark.parametrize("side", [4, 8])
    def test_delta_neighbourhood_scoring(benchmark, side):
        evaluator = _bench_problem(side)
        engine = DeltaEvaluator(evaluator)
        rng = np.random.default_rng(0)
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        engine.reset(assignment, count=False)
        sampled = _sample_neighbourhood(assignment, evaluator.n_tiles, 64, rng)
        scores = benchmark(engine.score_moves, sampled)
        assert scores.shape == (len(sampled),)

    @pytest.mark.parametrize("side", [4, 8])
    def test_full_neighbourhood_scoring(benchmark, side):
        evaluator = _bench_problem(side)
        rng = np.random.default_rng(0)
        assignment = random_assignment(
            evaluator.n_tasks, evaluator.n_tiles, rng
        )
        sampled = _sample_neighbourhood(assignment, evaluator.n_tiles, 64, rng)

        def score_full():
            candidates = np.stack([apply_move(assignment, m) for m in sampled])
            return evaluator.evaluate_batch(candidates).score

        scores = benchmark(score_full)
        assert scores.shape == (len(sampled),)


if __name__ == "__main__":
    raise SystemExit(main())
