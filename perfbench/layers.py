"""Per-layer metrics from a recorded span list.

Every metric covers the set-up and timed phases of the traced run; the
discarded warm-up and the correctness gate are left out. Layers a
workload does not run report zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional

import calc

STRATEGIES = ("rs", "ga", "r-pbla", "sa", "tabu")

#: Evaluator batch entry points; a batch is counted once at its
#: outermost span (``evaluate_batch`` wraps ``submit_batch`` + ``result``).
_BATCH = ("evaluator.batch", "evaluator.submit", "evaluator.result", "coalesce.wait")

_MS = 1e-6  # nanoseconds -> milliseconds


def as_dicts(raw: List[list]) -> List[dict]:
    """Span rows (see ``spans.Recorder``) as dicts."""
    keys = ("id", "parent", "name", "start", "end", "thread", "request", "phase", "info")
    return [dict(zip(keys, row)) for row in raw]


def layer_metrics(
    spans: List[dict],
    timed: tuple,
    import_ms: float,
    import_modules: int,
    pool_retries: int = 0,
    coalesce: Optional[dict] = None,
    roundtrips_ms: Optional[List[float]] = None,
) -> Dict[str, float]:
    """Compute every per-layer metric of the benchmark.

    ``timed`` is the ``(start_ns, end_ns)`` window of the timed phase;
    ``coalesce`` the coalescer counters the daemon's ``stats`` endpoint
    reported for the timed phase; ``roundtrips_ms`` the client-side
    round trips of the timed phase.
    """
    by_id = {span["id"]: span for span in spans}
    selves = calc.self_times(spans)
    kept = [span for span in spans if span["phase"] in ("setup", "timed")]
    named = defaultdict(list)
    for span in kept:
        named[span["name"]].append(span)

    def total_ms(name: str, where=lambda span: True) -> float:
        return sum(s["end"] - s["start"] for s in named[name] if where(s)) * _MS

    def count(name: str, where=lambda span: True) -> int:
        return sum(1 for s in named[name] if where(s))

    def info(span: dict, key: str, default=0):
        return (span["info"] or {}).get(key, default)

    def ancestors(span: dict):
        parent = span["parent"]
        while parent is not None and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent]["parent"]

    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    # Service flights run on coalescer threads outside any request; their
    # rows are already counted where each request submitted them.
    handler_threads = {s["thread"] for s in named["service.handle_json"]}

    def request_side(span: dict) -> bool:
        return not handler_threads or span["thread"] in handler_threads

    out: Dict[str, float] = {
        "import.repro_ms": import_ms,
        "import.modules": import_modules,
        "noc.assemble_calls": count("noc.assemble"),
        "noc.assemble_ms": total_ms("noc.assemble"),
    }

    resolves = named["coupling.resolve"]
    out.update(
        {
            "coupling.resolve_calls": len(resolves),
            "coupling.process_hits": sum(
                1
                for s in resolves
                if not any(c["name"] in ("coupling.build", "coupling.load") for c in children[s["id"]])
            ),
            "coupling.disk_hits": count("coupling.load", lambda s: info(s, "hit", False)),
            "coupling.builds": count("coupling.build"),
            "coupling.build_ms": total_ms("coupling.build"),
            "coupling.resolve_ms": total_ms("coupling.resolve"),
        }
    )

    outer = [
        s
        for name in _BATCH
        for s in named[name]
        if request_side(s) and not any(a["name"] in _BATCH for a in ancestors(s))
    ]
    calls = [s for s in outer if s["name"] in ("evaluator.batch", "evaluator.submit")]
    rows = sum(info(s, "rows") for s in calls)
    batch_ms = sum(s["end"] - s["start"] for s in outer) * _MS
    singles = [
        s for s in named["evaluator.single"]
        if not any(a["name"] == "evaluator.single" for a in ancestors(s))
    ]
    out.update(
        {
            "evaluator.constructs": count("evaluator.construct"),
            "evaluator.construct_self_ms": sum(selves[s["id"]] for s in named["evaluator.construct"]) * _MS,
            "evaluator.batch_calls": len(calls),
            "evaluator.batch_rows": rows,
            "evaluator.batch_ms": batch_ms,
            "evaluator.batch_us_per_row": batch_ms * 1000.0 / rows if rows else 0.0,
            "evaluator.single_calls": len(singles),
            "evaluator.single_ms": sum(s["end"] - s["start"] for s in singles) * _MS,
            "evaluator.generate_rows": sum(info(s, "rows") for s in named["evaluator.generate"]),
            "evaluator.generate_ms": total_ms("evaluator.generate"),
        }
    )

    moves = sum(info(s, "moves") for s in named["delta.score"])
    score_ms = total_ms("delta.score")
    out.update(
        {
            "delta.resets": count("delta.reset"),
            "delta.reset_ms": total_ms("delta.reset"),
            "delta.score_calls": count("delta.score"),
            "delta.moves_scored": moves,
            "delta.score_ms": score_ms,
            "delta.score_us_per_move": score_ms * 1000.0 / moves if moves else 0.0,
            "delta.commits": count("delta.commit"),
            "delta.commit_ms": total_ms("delta.commit"),
        }
    )

    for strategy in STRATEGIES:
        runs = [s for s in named["strategy.optimize"] if info(s, "strategy", None) == strategy]
        out.update(
            {
                f"strategy.{strategy}.runs": len(runs),
                f"strategy.{strategy}.evals": sum(info(s, "evals") for s in runs),
                f"strategy.{strategy}.total_ms": sum(s["end"] - s["start"] for s in runs) * _MS,
                f"strategy.{strategy}.self_ms": sum(selves[s["id"]] for s in runs) * _MS,
            }
        )

    creating = [
        s for s in named["pool.get"]
        if any(c["name"] == "pool.create" for c in children[s["id"]])
    ]
    out.update(
        {
            "pool.get_calls": count("pool.get"),
            "pool.backends_created": len(creating),
            "pool.create_ms": sum(s["end"] - s["start"] for s in creating) * _MS,
            "pool.shards": sum(info(s, "shards") for s in named["pool.dispatch"]),
            "pool.dispatch_ms": total_ms("pool.dispatch"),
            "pool.wait_ms": total_ms("evaluator.result", lambda s: info(s, "pooled", False)),
            "pool.retries": pool_retries,
        }
    )

    handles = named["service.handle"]
    out.update(
        {
            "service.requests": len(handles),
            "service.errors": sum(1 for s in handles if not info(s, "ok", False)),
            "service.rejected": sum(1 for s in handles if info(s, "status") == 429),
            "service.handle_ms": total_ms("service.handle"),
            "service.handle_self_ms": sum(selves[s["id"]] for s in handles) * _MS,
            "service.parse_ms": total_ms("service.parse"),
        }
    )
    coalesce = coalesce or {}
    flights = coalesce.get("flights", 0)
    out.update(
        {
            "coalesce.flights": flights,
            "coalesce.batches": coalesce.get("batches", 0),
            "coalesce.coalesced_batches": coalesce.get("coalesced_batches", 0),
            "coalesce.ratio": coalesce.get("batches", 0) / flights if flights else 0.0,
            "coalesce.wait_ms": total_ms("coalesce.wait"),
        }
    )

    out.update(
        {
            "wire.frames_in": count("wire.read", lambda s: info(s, "frame", False)),
            "wire.frames_out": count("wire.write"),
            "wire.bytes_out": sum(info(s, "bytes") for s in named["wire.write"]),
            "wire.read_ms": total_ms("wire.read"),
            "wire.write_ms": total_ms("wire.write"),
        }
    )
    lo, hi = timed
    timed_handles = [
        s for s in named["service.handle_json"] if lo <= s["start"] and s["end"] <= hi
    ]
    roundtrip = statistics.mean(roundtrips_ms) if roundtrips_ms else 0.0
    server = (
        statistics.mean(s["end"] - s["start"] for s in timed_handles) * _MS
        if timed_handles
        else 0.0
    )
    out.update(
        {
            "client.roundtrip_ms": roundtrip,
            "client.transport_ms": roundtrip - server if roundtrips_ms else 0.0,
        }
    )
    out.update(coverage(spans, timed, children))
    return out


def coverage(spans: List[dict], timed: tuple, children) -> Dict[str, float]:
    """How much of the timed phase the spans account for.

    ``trace.span_coverage``: the share of the timed wall covered by spans
    of the thread that drives the work (search and sweep) or by request
    handling in any handler thread (serve). ``trace.handle_child_coverage``:
    the share of request-handling time covered by its child spans.
    """
    lo, hi = timed
    handles = [s for s in spans if s["name"] == "service.handle" and lo <= s["start"] <= hi]
    if handles:
        busy = calc.covered(((s["start"], s["end"]) for s in handles), lo, hi)
        handled = sum(s["end"] - s["start"] for s in handles)
        by_children = sum(
            calc.covered(((c["start"], c["end"]) for c in children[s["id"]]), s["start"], s["end"])
            for s in handles
        )
        return {
            "trace.span_coverage": busy / (hi - lo),
            "trace.handle_child_coverage": by_children / handled if handled else 0.0,
        }
    timed_spans = [s for s in spans if s["phase"] == "timed"]
    if not timed_spans:
        return {"trace.span_coverage": 0.0, "trace.handle_child_coverage": 0.0}
    main = timed_spans[0]["thread"]
    covered = calc.covered(
        ((s["start"], s["end"]) for s in timed_spans if s["thread"] == main), lo, hi
    )
    return {"trace.span_coverage": covered / (hi - lo), "trace.handle_child_coverage": 0.0}
