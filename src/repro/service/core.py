"""Transport-independent request dispatch for the mapping service.

:class:`ServiceCore` owns everything the daemon keeps resident:

* one :class:`~repro.service.coalesce.BatchCoalescer` (plus its shared
  evaluator) per objective-free pool key, created lazily on the first
  request for that key and kept warm afterwards — along with the
  process-wide coupling-model registry and the persistent worker pools
  those evaluators create;
* admission control: a bounded queue (structured 429 when full), an
  in-flight concurrency cap, and per-request budget caps
  (:class:`ServiceLimits`);
* the per-kind handlers, each of which is **bit-identical to the
  equivalent offline run for the same seed** (see the handler
  docstrings for the exact offline counterpart).

The transports (:mod:`repro.service.server`) are thin: they decode one
JSON payload, call :meth:`ServiceCore.handle`, and write the response.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.core.pool import pool_key
from repro.core.registry import create_strategy
from repro.core.result import OptimizationResult
from repro.errors import ExecutorError, ReproError, ServiceError
from repro.service.coalesce import BatchCoalescer, CoalescingEvaluator
from repro.service.schema import (
    ServiceRequest,
    error_response,
    parse_request,
)

__all__ = ["ServiceCore", "ServiceLimits"]


@dataclass(frozen=True)
class ServiceLimits:
    """Admission-control knobs of one daemon instance."""

    #: Requests executing concurrently; beyond this they queue.
    max_inflight: int = 4
    #: Requests waiting for an execution slot; beyond this: 429.
    queue_size: int = 16
    #: Per-request ``optimize`` evaluation-budget cap.
    max_budget: int = 1_000_000
    #: Per-request ``distribution`` sample cap.
    max_samples: int = 2_000_000
    #: Per-request ``evaluate`` row cap (explicit or random).
    max_mappings: int = 100_000


class ServiceCore:
    """Dispatches validated requests against the resident state.

    Parameters
    ----------
    n_workers : int, optional
        Worker processes of the persistent pools the shared evaluators
        shard merged flights across (default 1: flights run inline in
        the coalescer thread — correct everywhere, parallel where it
        pays).
    model_cache_dir : str, optional
        On-disk coupling-model cache kept warm across requests *and
        daemon restarts*; ``None`` uses the process default.
    limits : ServiceLimits, optional
        Admission-control caps.
    coalesce_window_s : float, optional
        Linger window of the batch coalescers (see
        :class:`~repro.service.coalesce.BatchCoalescer`).
    executor : str, optional
        Execution backend spec for the shared evaluators' sharded
        flights — ``"local"`` (default), ``"inline"``, or
        ``"tcp://HOST:PORT"`` to dispatch coalesced flights to
        ``phonocmap worker`` processes. Bit-identical either way.
    on_worker_loss : str, optional
        Worker-loss policy for remote executors — ``"raise"`` (requests
        that exhaust remote retries fail with a structured 503
        ``executor_unavailable``) or ``"degrade"`` (they finish on a
        local fallback backend, bit-identically, and ``stats`` reports
        the degraded state). ``None`` keeps the process default (see
        :func:`repro.core.executor.worker_loss_policy`). Set for the
        whole process while this core is open, restored on
        :meth:`close`.
    default_routes : int, optional
        Route-menu size applied to requests that carry no ``routes``
        field (default 1: mapping-only, bit-identical to the pre-routing
        daemon). Requests may always set their own ``routes``.
    """

    def __init__(
        self,
        n_workers: int = 1,
        model_cache_dir: Optional[str] = None,
        limits: Optional[ServiceLimits] = None,
        coalesce_window_s: float = 0.004,
        executor: str = "local",
        on_worker_loss: Optional[str] = None,
        default_routes: int = 1,
    ) -> None:
        from repro.core.executor import (
            parse_executor_spec,
            set_worker_loss_policy,
            worker_loss_policy,
        )

        self.executor = parse_executor_spec(executor)
        self._saved_policy = (
            set_worker_loss_policy(on_worker_loss)
            if on_worker_loss is not None
            else None
        )
        self._policy_set = on_worker_loss is not None
        self.on_worker_loss = worker_loss_policy(on_worker_loss)
        self.n_workers = max(1, int(n_workers))
        self.default_routes = max(1, int(default_routes))
        self.model_cache_dir = model_cache_dir
        self.limits = limits if limits is not None else ServiceLimits()
        self.coalesce_window_s = float(coalesce_window_s)
        self._started = time.monotonic()
        self._closed = False
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._served: Dict[str, int] = {}
        self._served_objectives: Dict[str, int] = {}
        self._rejected_queue_full = 0
        self._queue_slots = threading.BoundedSemaphore(
            self.limits.max_inflight + self.limits.queue_size
        )
        self._run_slots = threading.BoundedSemaphore(self.limits.max_inflight)
        self._build_lock = threading.Lock()
        self._coalescers: Dict[Tuple, BatchCoalescer] = {}
        self._coalescer_meta: Dict[Tuple, dict] = {}

    # -- entry points --------------------------------------------------------

    def handle_json(self, data) -> Tuple[dict, int]:
        """Decode one JSON payload and dispatch it (transport helper)."""
        try:
            payload = json.loads(data)
        except ValueError as error:
            return error_response(
                ServiceError(f"invalid JSON: {error}", kind="invalid_json")
            )
        return self.handle(payload)

    def handle(self, payload: object) -> Tuple[dict, int]:
        """Admit, dispatch and answer one decoded request.

        Returns
        -------
        tuple of (dict, int)
            The JSON-serializable response body and its HTTP-ish status
            (200, 400, 429, 500, 503). Never raises: every failure mode
            becomes a structured error response.
        """
        try:
            request = parse_request(payload, default_routes=self.default_routes)
        except ServiceError as error:
            return error_response(error)
        if request.kind == "stats":
            # Always answered, even when the queue is full or the daemon
            # is draining — it is the observability endpoint.
            return {"ok": True, "kind": "stats", "result": self.stats()}, 200
        if self._closed:
            return error_response(
                ServiceError(
                    "service is shutting down", status=503, kind="shutting_down"
                )
            )
        if not self._queue_slots.acquire(blocking=False):
            with self._lock:
                self._rejected_queue_full += 1
            return error_response(
                ServiceError(
                    f"admission queue is full "
                    f"({self.limits.max_inflight} in flight + "
                    f"{self.limits.queue_size} queued); retry later",
                    status=429,
                    kind="queue_full",
                )
            )
        with self._lock:
            self._active += 1
        try:
            self._run_slots.acquire()
            try:
                result = self._dispatch(request)
            finally:
                self._run_slots.release()
            objective = request.objective.value
            with self._lock:
                self._served[request.kind] = self._served.get(request.kind, 0) + 1
                self._served_objectives[objective] = (
                    self._served_objectives.get(objective, 0) + 1
                )
            return {
                "ok": True,
                "kind": request.kind,
                "objective": objective,
                "result": result,
            }, 200
        except ServiceError as error:
            return error_response(error)
        except ExecutorError as error:
            # The execution backend is gone (remote retries exhausted,
            # no worker ever connected) and the policy said raise:
            # answer a structured 503 instead of hanging the request.
            return error_response(
                ServiceError(
                    f"execution backend unavailable: {error}",
                    status=503,
                    kind="executor_unavailable",
                )
            )
        except ReproError as error:
            return error_response(
                ServiceError(str(error), status=400, kind="repro_error")
            )
        except Exception as error:  # noqa: BLE001 — daemon must survive
            return error_response(
                ServiceError(
                    f"internal error: {error!r}", status=500, kind="internal"
                )
            )
        finally:
            self._queue_slots.release()
            with self._idle:
                self._active -= 1
                self._idle.notify_all()

    def close(self, timeout: float = 60.0) -> None:
        """Drain in-flight requests and flush the coalescers (idempotent).

        New requests are answered 503 from the moment this is called;
        the persistent pools are left to the caller (the server calls
        :func:`repro.core.pool.shutdown_pools` after this returns, so
        workers exit before the daemon does).
        """
        self._closed = True
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        for coalescer in self._coalescers.values():
            coalescer.close()
        if self._policy_set:
            from repro.core.executor import set_worker_loss_policy

            set_worker_loss_policy(self._saved_policy)
            self._policy_set = False

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, request: ServiceRequest) -> dict:
        if request.kind == "optimize":
            return self._handle_optimize(request)
        if request.kind == "distribution":
            return self._handle_distribution(request)
        return self._handle_evaluate(request)

    def _should_linger(self) -> bool:
        """Coalescer hint: linger only while other requests are active."""
        with self._lock:
            return self._active > 1

    def _evaluator_for(self, request: ServiceRequest, problem) -> CoalescingEvaluator:
        """This request's evaluator, bound to its pool key's coalescer.

        Serialized by a build lock so two first requests for the same
        architecture never build the coupling model twice, and the
        coalescer registry stays consistent.
        """
        with self._build_lock:
            evaluator = CoalescingEvaluator(
                problem,
                dtype=request.dtype,
                backend=request.backend,
                model_cache_dir=self.model_cache_dir,
                executor=self.executor,
            )
            # The objective-free pool key (minus n_workers / executor):
            # requests agreeing on it — including the variation
            # fingerprint, which decides the wire table set — can share
            # flights whatever their objective.
            key = pool_key(problem, request.dtype, 1, evaluator.backend)[:5]
            coalescer = self._coalescers.get(key)
            if coalescer is None:
                shared = MappingEvaluator(
                    problem,
                    dtype=request.dtype,
                    n_workers=self.n_workers,
                    backend=evaluator.backend,
                    model_cache_dir=self.model_cache_dir,
                    executor=self.executor,
                )
                coalescer = BatchCoalescer(
                    shared,
                    window_s=self.coalesce_window_s,
                    linger_hint=self._should_linger,
                )
                self._coalescers[key] = coalescer
                self._coalescer_meta[key] = {
                    "application": problem.cg.name,
                    "network": problem.network.signature.split("|params")[0],
                    "params": problem.network.params.content_hash[:12],
                    "dtype": str(np.dtype(request.dtype).name),
                    "backend": evaluator.backend,
                    "variation": problem.variation_fingerprint,
                    "routes": problem.routes,
                }
            evaluator.coalescer = coalescer
        return evaluator

    def _handle_optimize(self, request: ServiceRequest) -> dict:
        """Run one strategy; offline counterpart: ``DesignSpaceExplorer.run``.

        Same strategy construction, the same ``np.random.default_rng``
        stream from the request seed and the same evaluation accounting
        as ``DesignSpaceExplorer(problem, dtype=, backend=,
        use_delta=).run(strategy, budget=, seed=)`` — the coalescing
        evaluator changes where batch rows are scored, never their
        values — so the response is bit-identical to the offline run.
        """
        if request.budget > self.limits.max_budget:
            raise ServiceError(
                f"budget {request.budget} exceeds the per-request cap "
                f"{self.limits.max_budget}",
                kind="over_budget",
            )
        problem = request.problem()
        evaluator = self._evaluator_for(request, problem)
        strategy = create_strategy(request.strategy)
        rng = np.random.default_rng(request.seed)
        result = strategy.optimize(
            evaluator, request.budget, rng, use_delta=request.use_delta
        )
        return _serialize_result(result, problem)

    def _handle_distribution(self, request: ServiceRequest) -> dict:
        """Random-mapping sweep; offline: ``random_mapping_distribution``.

        The offline function itself runs the sweep, handed this
        request's coalescing evaluator; generation depends only on the
        request seed, so the sampled arrays are bit-identical to the
        offline call with the same ``(seed, samples, batch_size)``.
        """
        from repro.analysis.distribution import random_mapping_distribution

        if request.samples > self.limits.max_samples:
            raise ServiceError(
                f"samples {request.samples} exceeds the per-request cap "
                f"{self.limits.max_samples}",
                kind="over_budget",
            )
        problem = request.problem()
        evaluator = self._evaluator_for(request, problem)
        result = random_mapping_distribution(
            problem.cg,
            problem.network,
            n_samples=request.samples,
            seed=request.seed,
            batch_size=request.batch_size,
            evaluator=evaluator,
        )
        return {
            "application": result.application,
            "n_samples": result.n_samples,
            "worst_snr_db": result.worst_snr_db.tolist(),
            "worst_loss_db": result.worst_loss_db.tolist(),
            "snr_summary": result.summary("snr"),
            "loss_summary": result.summary("loss"),
        }

    def _handle_evaluate(self, request: ServiceRequest) -> dict:
        """Score explicit or random mappings; offline: ``evaluate_batch``.

        Offline counterpart: ``MappingEvaluator(problem, dtype=,
        backend=).evaluate_batch(assignments)`` with random rows drawn
        by ``random_assignment_batch`` from the request seed — the
        service returns the identical per-row metric vectors.
        """
        problem = request.problem()
        evaluator = self._evaluator_for(request, problem)
        if request.assignments is not None:
            assignments = request.assignments
        else:
            if request.n_random > self.limits.max_mappings:
                raise ServiceError(
                    f"n_random {request.n_random} exceeds the per-request "
                    f"cap {self.limits.max_mappings}",
                    kind="over_budget",
                )
            rng = np.random.default_rng(request.seed)
            assignments = evaluator.random_vector_batch(request.n_random, rng)
        if assignments.shape[0] > self.limits.max_mappings:
            raise ServiceError(
                f"{assignments.shape[0]} mappings exceed the per-request "
                f"cap {self.limits.max_mappings}",
                kind="over_budget",
            )
        heads = assignments[:, : problem.cg.n_tasks]
        if heads.min() < 0 or heads.max() >= problem.n_tiles:
            raise ServiceError(
                f"mapping rows must name tiles in [0, {problem.n_tiles})",
                kind="infeasible",
            )
        metrics = evaluator.evaluate_batch(assignments)
        return {
            "application": problem.cg.name,
            "objective": problem.objective.value,
            "n_mappings": int(assignments.shape[0]),
            "worst_snr_db": metrics.worst_snr_db.tolist(),
            "worst_insertion_loss_db": metrics.worst_insertion_loss_db.tolist(),
            "score": metrics.score.tolist(),
        }

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Counters and coalescing state (the ``stats`` request body)."""
        with self._lock:
            served = dict(self._served)
            served_objectives = dict(self._served_objectives)
            active = self._active
            rejected = self._rejected_queue_full
        per_key = []
        totals = {"flights": 0, "batches": 0, "coalesced_batches": 0, "rows": 0}
        for key, coalescer in list(self._coalescers.items()):
            snapshot = coalescer.stats.as_dict()
            per_key.append({**self._coalescer_meta[key], **snapshot})
            for name in totals:
                totals[name] += snapshot[name]
        totals["coalescing_ratio"] = (
            totals["batches"] / totals["flights"] if totals["flights"] else None
        )
        from repro.core.pool import executor_stats

        executors = executor_stats()
        return {
            "uptime_s": time.monotonic() - self._started,
            "active_requests": active,
            "served": served,
            "served_objectives": served_objectives,
            "rejected_queue_full": rejected,
            "executor": self.executor,
            "executors": executors,
            "on_worker_loss": self.on_worker_loss,
            "degraded": executors["totals"]["degraded"],
            "n_workers": self.n_workers,
            "default_routes": self.default_routes,
            "model_cache_dir": self.model_cache_dir,
            "limits": {
                "max_inflight": self.limits.max_inflight,
                "queue_size": self.limits.queue_size,
                "max_budget": self.limits.max_budget,
                "max_samples": self.limits.max_samples,
                "max_mappings": self.limits.max_mappings,
            },
            "coalescing": {"per_key": per_key, "totals": totals},
        }


def _serialize_result(result: OptimizationResult, problem) -> dict:
    """JSON body of one optimization result (floats round-trip exactly)."""
    metrics = result.best_metrics
    body = {
        "strategy": result.strategy,
        "objective": problem.objective.value,
        "best_score": float(result.best_score),
        "best_mapping": result.best_mapping.as_dict(),
        "assignment": [int(t) for t in result.best_mapping.assignment],
        "evaluations": int(result.evaluations),
        "restarts": int(result.restarts),
        "history": [[int(n), float(s)] for n, s in result.history],
        "worst_snr_db": float(metrics.worst_snr_db),
        "worst_insertion_loss_db": float(metrics.worst_insertion_loss_db),
        "mean_snr_db": float(metrics.mean_snr_db),
        "weighted_loss_db": float(metrics.weighted_loss_db),
    }
    if result.route_genes is not None:
        body["route_genes"] = [int(g) for g in result.route_genes]
    if metrics.laser_power_db is not None:
        body["laser_power_db"] = float(metrics.laser_power_db)
    if metrics.robust_snr_db is not None:
        body["robust_snr_db"] = float(metrics.robust_snr_db)
    if problem.variation is not None:
        body["variation"] = problem.variation_fingerprint
    return body
