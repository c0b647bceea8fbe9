"""Span recording around the public calls of each program layer.

:func:`install` replaces a fixed list of public functions and methods
with wrappers that time each call into an in-memory :class:`Recorder`.
A span is ``[id, parent, name, start_ns, end_ns, thread, request, phase,
info]``: the parent is the innermost open span of the same thread, and
``request`` groups the spans of one service request (the handler
thread's request sequence number).

Wrappers pass every argument through and return the original result;
``info`` only reads sizes and counters (row counts, moves scored,
evaluations spent), never values or random draws, so a traced run
computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Optional


class Recorder:
    """Spans kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function: Callable, name: str, info=None, request: bool = False):
        """Return ``function`` timed as span ``name``.

        ``info(result, args, kwargs)`` may add size fields to the span;
        ``request=True`` opens a new request id for the span's subtree.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            outer_request = getattr(recorder._local, "request", None)
            if request:
                recorder._local.request = next(recorder._requests)
            request_id = getattr(recorder._local, "request", None)
            stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if request:
                    recorder._local.request = outer_request
                extra = info(result, args, kwargs) if info is not None else None
                recorder.spans.append(
                    [
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        request_id,
                        recorder.phase,
                        extra,
                    ]
                )

        return traced

    def dump(self, path: str, **meta) -> None:
        """Write every span plus ``meta`` as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **meta}, handle)


def _patch(recorder, owner, attribute, name, info=None, request=False):
    """Replace ``owner.attribute`` (function, method or classmethod) by a span."""
    if isinstance(owner, type):
        original = owner.__dict__[attribute]
    else:
        original = getattr(owner, attribute)
    if isinstance(original, classmethod):
        wrapped = classmethod(recorder.wrap(original.__func__, name, info, request))
    elif isinstance(original, staticmethod):
        wrapped = staticmethod(recorder.wrap(original.__func__, name, info, request))
    else:
        wrapped = recorder.wrap(original, name, info, request)
    setattr(owner, attribute, wrapped)


def _rows(result, args, kwargs):
    assignments = args[1] if len(args) > 1 else kwargs.get("assignments")
    return {"rows": int(len(assignments))}


def _generated(result, args, kwargs):
    return {"rows": int(len(result))} if result is not None else None


def _moves(result, args, kwargs):
    return {"moves": int(len(result))} if result is not None else None


def _evaluations(result, args, kwargs):
    if result is None:
        return None
    return {"strategy": args[0].name, "evals": int(result.evaluations)}


def _hit(result, args, kwargs):
    return {"hit": result is not None}


def _shards(result, args, kwargs):
    shards = args[2] if len(args) > 2 else kwargs.get("shards")
    return {"shards": int(len(shards))}


def _pooled(result, args, kwargs):
    return {"pooled": getattr(args[0], "_pool", None) is not None}


def _status(result, args, kwargs):
    if result is None:
        return {"ok": False, "status": 500}
    body, status = result
    return {"ok": bool(body.get("ok")), "status": int(status)}


class _CountingWriter:
    """File proxy counting the bytes a frame writer puts on the wire."""

    def __init__(self, wfile) -> None:
        self._wfile = wfile
        self.written = 0

    def write(self, data):
        self.written += len(data)
        return self._wfile.write(data)

    def flush(self):
        return self._wfile.flush()


def install(recorder: Recorder, service: bool = False) -> None:
    """Wrap the public calls of every layer the workloads run through.

    ``service=True`` also wraps the daemon-side service and wire layers.
    """
    from repro.analysis import experiments
    from repro.core import pool
    from repro.core.delta import DeltaEvaluator
    from repro.core.evaluator import MappingEvaluator, PendingBatch
    from repro.core.executor import ExecutorBackend, LocalProcessBackend
    from repro.core.strategy import MappingStrategy
    from repro.models.coupling import CouplingModel

    _patch(recorder, experiments, "build_case_study_network", "noc.assemble")
    _patch(recorder, CouplingModel, "for_network", "coupling.resolve")
    _patch(recorder, CouplingModel, "__init__", "coupling.build")
    _patch(recorder, CouplingModel, "load_cached", "coupling.load", info=_hit)
    _patch(recorder, MappingEvaluator, "__init__", "evaluator.construct")
    _patch(recorder, MappingEvaluator, "evaluate", "evaluator.single")
    _patch(recorder, MappingEvaluator, "evaluate_batch", "evaluator.batch", info=_rows)
    _patch(recorder, MappingEvaluator, "submit_batch", "evaluator.submit", info=_rows)
    _patch(recorder, MappingEvaluator, "random_vector_batch", "evaluator.generate", info=_generated)
    _patch(recorder, PendingBatch, "result", "evaluator.result", info=_pooled)
    _patch(recorder, DeltaEvaluator, "reset", "delta.reset")
    _patch(recorder, DeltaEvaluator, "score_moves", "delta.score", info=_moves)
    _patch(recorder, DeltaEvaluator, "commit", "delta.commit")
    _patch(recorder, MappingStrategy, "optimize", "strategy.optimize", info=_evaluations)
    _patch(recorder, pool, "get_pool", "pool.get")
    _patch(recorder, LocalProcessBackend, "__init__", "pool.create")
    _patch(recorder, ExecutorBackend, "map_shards", "pool.dispatch", info=_shards)
    if not service:
        return

    from repro.distributed import wire
    from repro.service import core, schema
    from repro.service.coalesce import (
        BatchCoalescer,
        CoalescedBatch,
        CoalescingEvaluator,
    )

    _patch(recorder, core.ServiceCore, "handle_json", "service.handle_json", request=True)
    _patch(recorder, core.ServiceCore, "handle", "service.handle", info=_status)
    parse = recorder.wrap(schema.parse_request, "service.parse")
    schema.parse_request = parse
    core.parse_request = parse
    _patch(recorder, schema.ServiceRequest, "problem", "service.problem")
    _patch(recorder, CoalescingEvaluator, "submit_batch", "evaluator.submit", info=_rows)
    _patch(recorder, BatchCoalescer, "submit", "coalesce.submit")
    _patch(recorder, CoalescedBatch, "result", "coalesce.wait")

    def read_info(result, args, kwargs):
        return {"bytes": len(result) if result else 0, "frame": result is not None}

    _patch(recorder, wire, "read_frame", "wire.read", info=read_info)
    write_original = wire.write_message
    written = threading.local()

    def write_counted(wfile, message):
        counter = _CountingWriter(wfile)
        try:
            return write_original(counter, message)
        finally:
            written.bytes = counter.written

    def write_info(result, args, kwargs):
        return {"bytes": getattr(written, "bytes", 0)}

    wire.write_message = recorder.wrap(write_counted, "wire.write", info=write_info)


def vmhwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")
