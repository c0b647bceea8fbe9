"""Transport-independent request dispatch for the mapping service.

:class:`ServiceCore` owns everything the daemon keeps resident:

* one :class:`~repro.service.coalesce.BatchCoalescer` (plus its shared
  evaluator) per objective-free pool key, created lazily on the first
  request for that key and kept warm afterwards — along with the
  process-wide coupling-model registry, the netlist each model holds
  (which :func:`~repro.analysis.experiments.build_case_study_network`
  hands to every later request for that architecture) and the
  persistent worker pools those evaluators create;
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
from math import isqrt
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.core.executor import parse_executor_spec, worker_loss_policy
from repro.core.objectives import spec_for
from repro.core.pool import flight_key
from repro.core.registry import create_strategy
from repro.core.result import OptimizationResult
from repro.errors import ExecutorError, ReproError, ServiceError
from repro.models.coupling import CouplingModel, get_model_cache_dir
from repro.photonics.parameters import VariationSpec
from repro.service.coalesce import BatchCoalescer, CoalescingEvaluator
from repro.service.schema import (
    ServiceRequest,
    error_response,
    parse_request,
)

__all__ = ["ServiceCore", "ServiceLimits"]

#: Per-request coupling-model cap, in model slots ``(side^2)^2 x
#: routes`` (the matrix holds the square of that many float64s): 4,096
#: is mesh8 at routes 1, a 134 MB matrix.
_MAX_MODEL_SLOTS = 4096


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

    The model cache directory and the worker-loss policy are process
    settings (``--model-cache``, ``--on-worker-loss``); :meth:`stats`
    reports their live values.

    Parameters
    ----------
    n_workers : int, optional
        Worker processes of the persistent pools the shared evaluators
        shard merged flights across (default 1: flights run inline in
        the coalescer thread — correct everywhere, parallel where it
        pays).
    limits : ServiceLimits, optional
        Admission-control caps.
    coalesce_window_s : float, optional
        The longest a batch flight lingers for co-travellers (see
        :class:`~repro.service.coalesce.BatchCoalescer`). A flight waits
        only while a request that could still join it exists: one that
        holds a run slot and has not bound to a key yet, or one bound to
        the flight's key, scored in batches, with no block pending.
    executor : str, optional
        Execution backend spec for the shared evaluators' sharded
        flights — ``"local"`` (default), ``"inline"``, or
        ``"tcp://HOST:PORT"`` to dispatch coalesced flights to
        ``phonocmap worker`` processes. Bit-identical either way.
    default_routes : int, optional
        Route-menu size applied to requests that carry no ``routes``
        field (default 1: mapping-only, bit-identical to the pre-routing
        daemon). Requests may always set their own ``routes``.
    """

    def __init__(
        self,
        n_workers: int = 1,
        limits: Optional[ServiceLimits] = None,
        coalesce_window_s: float = 0.004,
        executor: str = "local",
        default_routes: int = 1,
    ) -> None:
        self.executor = parse_executor_spec(executor)
        self.n_workers = max(1, int(n_workers))
        self.default_routes = max(1, int(default_routes))
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
        # Requests holding a run slot that have not bound to a key yet:
        # each may still join any key's flight (see _dispatch).
        self._unbound = 0
        self._model_locks: Dict[str, threading.Lock] = {}
        self._coalescers: Dict[Tuple, BatchCoalescer] = {}
        self._coalescer_meta: Dict[Tuple, dict] = {}

    # -- entry points --------------------------------------------------------

    def handle_json(self, data) -> Tuple[dict, int]:
        """Decode one JSON payload and dispatch it (transport helper).

        Stdlib ``json``, not the response codec: it keeps integers beyond
        64 bits exact and hands ``NaN`` / ``Infinity`` to the schema's
        typed 400s (see :mod:`repro.distributed.wire`).
        """
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
        except Exception as error:  # noqa: BLE001 — daemon must survive
            return error_response(_internal(error))
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
            return error_response(_internal(error))
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

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, request: ServiceRequest) -> dict:
        """Run one request that holds a run slot.

        Until it binds to its pool key's coalescer the request may still
        join any key's flight, so every lingering flight waits for it;
        once bound, only its own key's flights do, and only while its
        work is scored in batches. It unbinds on every exit path.
        """
        with self._lock:
            self._unbound += 1
        evaluator = None
        try:
            self._check_caps(request)
            problem = request.problem()
            evaluator = self._evaluator_for(request, problem)
            if request.kind == "optimize":
                return self._handle_optimize(request, problem, evaluator)
            if request.kind == "distribution":
                return self._handle_distribution(request, problem, evaluator)
            return self._handle_evaluate(request, problem, evaluator)
        finally:
            if evaluator is None:
                self._release_unbound()
            else:
                evaluator.coalescer.leave(evaluator)

    def _unbound_waiting(self) -> bool:
        """Coalescer hint: a request holding a run slot has not bound yet.

        Called under a coalescer lock, so it reads the counter without
        taking the core lock (the core never takes a coalescer lock
        while holding its own).
        """
        return self._unbound > 0

    def _release_unbound(self) -> None:
        """A request bound to a key or ended unbound: re-check every linger.

        :meth:`BatchCoalescer.wake` notifies only a flusher whose flight
        lingers, so idle keys' flushers sleep on.
        """
        with self._lock:
            self._unbound -= 1
            coalescers = list(self._coalescers.values())
        for coalescer in coalescers:
            coalescer.wake()

    def _check_caps(self, request: ServiceRequest) -> None:
        """Enforce the per-request model-size, budget, sample and
        random-row caps, before any network is built.

        Each variation sample builds one more model of the request's
        size, so a request may build at most the slots the default plan
        takes at the per-model cap.
        """
        side, routes = request.grid_side, request.routes
        # side^4 * routes > cap, decided without raising an unbounded
        # request value to the fourth power.
        if side > isqrt(isqrt(_MAX_MODEL_SLOTS // routes)):
            raise ServiceError(
                f"side {side} at routes {routes} needs a coupling model "
                f"over the per-request cap of {_MAX_MODEL_SLOTS} slots "
                "((side^2)^2 x routes)",
                kind="over_budget",
            )
        plan = request.variation
        if plan is None and spec_for(request.objective).requires_variation:
            plan = VariationSpec()  # the plan MappingProblem attaches
        samples = 0 if plan is None else plan.n_samples
        cap = _MAX_MODEL_SLOTS * (1 + VariationSpec.n_samples)
        if (1 + samples) * side**4 * routes > cap:
            raise ServiceError(
                f"{samples} variation samples at side {side} and routes "
                f"{routes} need {1 + samples} coupling models, over the "
                f"per-request cap of {cap} slots "
                "((1 + samples) x (side^2)^2 x routes)",
                kind="over_budget",
            )
        if request.kind == "optimize" and request.budget > self.limits.max_budget:
            raise ServiceError(
                f"budget {request.budget} exceeds the per-request cap "
                f"{self.limits.max_budget}",
                kind="over_budget",
            )
        if (
            request.kind == "distribution"
            and request.samples > self.limits.max_samples
        ):
            raise ServiceError(
                f"samples {request.samples} exceeds the per-request cap "
                f"{self.limits.max_samples}",
                kind="over_budget",
            )
        if (
            request.kind == "evaluate"
            and request.assignments is None
            and request.n_random > self.limits.max_mappings
        ):
            raise ServiceError(
                f"n_random {request.n_random} exceeds the per-request "
                f"cap {self.limits.max_mappings}",
                kind="over_budget",
            )

    def _evaluator_for(self, request: ServiceRequest, problem) -> CoalescingEvaluator:
        """This request's evaluator, bound to its pool key's coalescer.

        Serialized per coupling model (network signature, routes):
        two first requests for one architecture build its model once and
        create one coalescer per key, while a cold build never blocks
        requests for other architectures.
        """
        model_key = CouplingModel.cache_key(problem.network, routes=problem.routes)
        with self._lock:
            model_lock = self._model_locks.setdefault(model_key, threading.Lock())
        with model_lock:
            evaluator = CoalescingEvaluator(problem, executor=self.executor)
            # Requests agreeing on the objective-free pool key — including
            # the variation fingerprint, which decides the wire table set —
            # can share flights whatever their objective.
            key = flight_key(problem)
            coalescer = self._coalescers.get(key)
            if coalescer is None:
                shared = MappingEvaluator(
                    problem, n_workers=self.n_workers, executor=self.executor
                )
                coalescer = BatchCoalescer(
                    shared,
                    window_s=self.coalesce_window_s,
                    linger_hint=self._unbound_waiting,
                )
                with self._lock:
                    self._coalescers[key] = coalescer
                    self._coalescer_meta[key] = {
                        "application": problem.cg.name,
                        "network": problem.network.signature.split("|params")[0],
                        "params": problem.network.params.content_hash[:12],
                        "variation": problem.variation_fingerprint,
                        "routes": problem.routes,
                    }
        if _scored_in_batches(request):
            coalescer.join(evaluator)
        evaluator.coalescer = coalescer
        self._release_unbound()
        return evaluator

    def _handle_optimize(self, request: ServiceRequest, problem, evaluator) -> dict:
        """Run one strategy; offline counterpart: ``DesignSpaceExplorer.run``.

        Same strategy construction, the same ``np.random.default_rng``
        stream from the request seed and the same evaluation accounting
        as ``DesignSpaceExplorer(problem,
        use_delta=).run(strategy, budget=, seed=)`` — the coalescing
        evaluator changes where batch rows are scored, never their
        values — so the response is bit-identical to the offline run.
        """
        strategy = create_strategy(request.strategy)
        rng = np.random.default_rng(request.seed)
        result = strategy.optimize(
            evaluator, request.budget, rng, use_delta=request.use_delta
        )
        return _serialize_result(result, problem)

    def _handle_distribution(
        self, request: ServiceRequest, problem, evaluator
    ) -> dict:
        """Random-mapping sweep; offline: ``random_mapping_distribution``.

        The offline function itself runs the sweep, handed this
        request's coalescing evaluator; generation depends only on the
        request seed, so the sampled arrays are bit-identical to the
        offline call with the same ``(seed, samples, batch_size)``.
        """
        from repro.analysis.distribution import random_mapping_distribution

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

    def _handle_evaluate(self, request: ServiceRequest, problem, evaluator) -> dict:
        """Score explicit or random mappings; offline: ``evaluate_batch``.

        Offline counterpart: ``MappingEvaluator(problem).evaluate_batch(
        assignments)`` with random rows drawn
        by ``random_assignment_batch`` from the request seed — the
        service returns the identical per-row metric vectors.
        """
        if request.assignments is not None:
            assignments = request.assignments
        else:
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
            coalescers = [
                (self._coalescer_meta[key], coalescer)
                for key, coalescer in self._coalescers.items()
            ]
        per_key = []
        totals = {
            "flights": 0,
            "batches": 0,
            "coalesced_batches": 0,
            "rows": 0,
            "lingered_flights": 0,
            "linger_ms": 0.0,
        }
        for meta, coalescer in coalescers:
            snapshot = coalescer.stats.as_dict()
            per_key.append({**meta, **snapshot})
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
            "on_worker_loss": worker_loss_policy(),
            "degraded": executors["totals"]["degraded"],
            "n_workers": self.n_workers,
            "default_routes": self.default_routes,
            "model_cache_dir": get_model_cache_dir(),
            "limits": {
                "max_inflight": self.limits.max_inflight,
                "queue_size": self.limits.queue_size,
                "max_budget": self.limits.max_budget,
                "max_samples": self.limits.max_samples,
                "max_mappings": self.limits.max_mappings,
                "max_model_slots": _MAX_MODEL_SLOTS,
            },
            "coalescing": {"per_key": per_key, "totals": totals},
        }


def _internal(error: Exception) -> ServiceError:
    """The structured 500 of an unexpected failure."""
    return ServiceError(f"internal error: {error!r}", status=500, kind="internal")


def _scored_in_batches(request: ServiceRequest) -> bool:
    """Whether the request's work reaches its coalescer as batches.

    Evaluate and distribution requests always do. Optimize requests do
    for population strategies (``batch_shardable``: rs, ga) and for any
    strategy run without a delta engine (``use_delta`` false, or an
    objective the engine does not support); the delta engine's local
    searches score moves inline and never submit a flight block.
    """
    if request.kind != "optimize":
        return True
    return (
        create_strategy(request.strategy).batch_shardable
        or not request.use_delta
        or not spec_for(request.objective).supports_delta
    )


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
