"""The benchmark's own arithmetic: percentiles, self time, overhead, spread.

Pure functions over plain numbers, so ``test_perfbench_calc.py`` can pin
every rule the runner reports with.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile needs at least this many samples ranked beyond it.
MIN_BEYOND = 10


class PercentileError(ValueError):
    """A percentile was asked of too few samples to have a tail."""


def percentile(latencies: Sequence[float], q: float, failures: int = 0) -> float:
    """Nearest-rank ``q``-th percentile, failed operations ranked slowest.

    Each of the ``failures`` operations counts as a sample slower than any
    measured latency (``math.inf``), so failing work can only push a
    percentile up. Raises :class:`PercentileError` unless at least
    :data:`MIN_BEYOND` samples rank beyond the percentile.
    """
    if not 0 < q < 100:
        raise PercentileError(f"percentile must lie in (0, 100), got {q}")
    ranked = sorted(latencies) + [math.inf] * int(failures)
    n = len(ranked)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise PercentileError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ranked[rank - 1]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals count once, so concurrent children (two handler
    threads, a parent waiting while workers run) never add up to more
    than the wall they span.
    """
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in intervals
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (``None`` for a root),
    ``start`` and ``end``. A child's interval is clipped to its parent, and
    overlapping children are merged before subtracting.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def overhead_pct(traced: float, untraced: float) -> float:
    """Traced-minus-untraced change of one metric, in percent of untraced."""
    if untraced == 0:
        return 0.0 if traced == 0 else math.copysign(math.inf, traced)
    return (traced - untraced) / abs(untraced) * 100.0


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The same quartiles (``statistics.quantiles(values, n=4)``) the
    acceptance check of the benchmark uses.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def more_rounds(walls: Sequence[float], elapsed: float, seconds: float, minimum: int) -> bool:
    """Whether to start another round of fixed work in the timed phase.

    Rounds (a pass, a lap of the request list) run while fewer than
    ``minimum`` are done, then while the next one, as long as the last,
    is expected to end inside ``seconds``.
    """
    return len(walls) < minimum or elapsed + walls[-1] <= seconds


def robust_round_s(op_latencies_ms: Sequence[Optional[float]], per_round: int) -> float:
    """Length of one round of fixed work, robust to bursts of machine noise.

    ``op_latencies_ms`` lists every operation of every round in order
    (``None`` for a failed one). Each operation's median across rounds is
    summed, so a stall that hits one operation in one round is voted out.
    """
    total = 0.0
    for slot in range(per_round):
        runs = [ms for ms in op_latencies_ms[slot::per_round] if ms is not None]
        if runs:
            total += statistics.median(runs)
    return total / 1000.0


def median(values: Sequence[float]) -> float:
    """Median of repeated measurements (setup time, per-pass rates)."""
    return statistics.median(values)
