"""Pluggable execution backends for the evaluation and DSE stack.

Everything that fans work out — sharded ``evaluate_batch`` calls, the
per-strategy tasks of ``DesignSpaceExplorer.compare``, chain
decompositions, the service daemon's coalesced flights — submits through
one small protocol, :class:`ExecutorBackend`:

* :meth:`ExecutorBackend.submit` / :meth:`ExecutorBackend.map_shards`
  queue task functions and return :class:`concurrent.futures.Future`\\ s;
* :meth:`ExecutorBackend.alive` / :attr:`ExecutorBackend.broken` are the
  health surface the pool registry (:mod:`repro.core.pool`) uses to
  decide when a backend must be rebuilt;
* :meth:`ExecutorBackend.info` reports per-backend observability
  counters (workers, tasks dispatched / retried), surfaced by the
  service ``stats`` endpoint.

Three implementations exist:

* :class:`LocalProcessBackend` — the historical persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`; workers resolve the
  coupling model by cache key, from the process cache they inherit
  through fork (else the on-disk model cache, else a build);
* :class:`InlineBackend` — runs every task synchronously in the calling
  thread under an activated
  :class:`~repro.core.parallel.WorkerContext`. Zero processes: the
  debugging / 1-CPU-CI backend, and the reference the parity suite
  holds the others to;
* :class:`~repro.distributed.scheduler.RemoteTcpBackend` — dispatches
  tasks over TCP to ``phonocmap worker`` processes (possibly on other
  hosts), hydrating coupling models from cache keys instead of shipping
  matrices.

Failure handling is **backend-owned**: every future is watched by a
done-callback that flips :attr:`~ExecutorBackend.broken` when the
executor itself failed (:class:`concurrent.futures.BrokenExecutor`,
which covers a killed pool worker and exhausted remote retries) —
task-level exceptions never break a backend. :class:`FanOut` is the one
caller-side retry policy: bounded submit attempts, each against the
backend ``get_pool`` hands back (a fresh one when the cached backend
broke or was released), and one resubmission when collection finds the
backend broken. Both fan-out callers use it
(:meth:`repro.core.evaluator.MappingEvaluator.submit_batch` and
``DesignSpaceExplorer._run_tasks``).

Determinism: a backend only ever decides *where* a task function runs.
Both task functions (:func:`repro.core.parallel.run_strategy_task`,
:func:`repro.core.parallel.evaluate_shard_task`) are pure functions of
their arguments, so placement, retry and reassignment cannot change any
result — the cross-backend parity suite
(``tests/distributed/test_executor_parity.py``) enforces bit-identity
per ``(seed, n_workers)`` across all three backends.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutorError

__all__ = [
    "ExecutorBackend",
    "FanOut",
    "InlineBackend",
    "LocalProcessBackend",
    "WorkerLostError",
    "parse_executor_spec",
    "set_worker_loss_policy",
    "worker_loss_policy",
]


class WorkerLostError(BrokenExecutor, ExecutorError):
    """A task's worker died and the backend's bounded retries ran out.

    Subclasses :class:`concurrent.futures.BrokenExecutor` so the
    backend-owned failure handling (and any caller already catching
    ``BrokenProcessPool``) treats a lost remote worker exactly like a
    killed local pool worker.
    """


#: Valid ``on_worker_loss`` policies. ``"raise"`` keeps PR 7 semantics
#: (exhausted retries / a workerless hub surface as
#: :class:`WorkerLostError`); ``"degrade"`` lets a
#: :class:`~repro.distributed.scheduler.RemoteTcpBackend` finish the
#: work on a local fallback backend instead.
WORKER_LOSS_POLICIES = ("raise", "degrade")

_worker_loss_policy: Optional[str] = None


def set_worker_loss_policy(policy: Optional[str]) -> Optional[str]:
    """Set the process-wide worker-loss policy; returns the previous one.

    ``None`` clears the process setting, falling back to the
    ``PHONOCMAP_ON_WORKER_LOSS`` environment variable and finally to
    ``"raise"``. The CLI's ``--on-worker-loss`` flag and
    :class:`~repro.service.core.ServiceCore` route through here so the
    policy reaches every backend the pool registry builds without
    threading a parameter through each constructor.
    """
    global _worker_loss_policy
    if policy is not None and policy not in WORKER_LOSS_POLICIES:
        raise ExecutorError(
            f"on_worker_loss must be one of {WORKER_LOSS_POLICIES}, "
            f"got {policy!r}"
        )
    previous, _worker_loss_policy = _worker_loss_policy, policy
    return previous


def worker_loss_policy(explicit: Optional[str] = None) -> str:
    """Resolve the effective worker-loss policy.

    Precedence: an explicit per-backend value, then the process setting
    (:func:`set_worker_loss_policy`), then ``PHONOCMAP_ON_WORKER_LOSS``,
    then ``"raise"``.
    """
    for candidate in (explicit, _worker_loss_policy,
                      os.environ.get("PHONOCMAP_ON_WORKER_LOSS")):
        if candidate:
            if candidate not in WORKER_LOSS_POLICIES:
                raise ExecutorError(
                    f"on_worker_loss must be one of {WORKER_LOSS_POLICIES}, "
                    f"got {candidate!r}"
                )
            return candidate
    return "raise"


def parse_executor_spec(spec: Optional[str]) -> str:
    """Normalize and validate an executor spec string.

    Accepted forms: ``"local"`` (persistent process pool, the default),
    ``"inline"`` (serial in-process execution), and ``"tcp://HOST:PORT"``
    (a scheduler listening on HOST:PORT for ``phonocmap worker``
    processes). ``None`` means ``"local"``.
    """
    if spec is None:
        return "local"
    spec = str(spec)
    if spec in ("local", "inline"):
        return spec
    if spec.startswith("tcp://"):
        host, port = split_tcp_address(spec[len("tcp://"):])
        return f"tcp://{host}:{port}"
    raise ExecutorError(
        f"executor spec must be 'local', 'inline' or 'tcp://HOST:PORT', "
        f"got {spec!r}"
    )


def split_tcp_address(address: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (with or without a ``tcp://`` prefix)."""
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ExecutorError(
            f"expected HOST:PORT, got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ExecutorError(
            f"port must be an integer, got {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ExecutorError(f"port out of range: {port}")
    return host, port


class ExecutorBackend:
    """Protocol base of all execution backends.

    Subclasses implement :meth:`_submit` (queue one task, return a
    future) and may override :meth:`map_shards`, :meth:`alive`,
    :meth:`info` and :meth:`close`. The base owns the shared
    bookkeeping: dispatch/retry counters, the :attr:`broken` flag, and
    the done-callback that flips it on executor-level failures.
    """

    #: Short backend discriminator (``"local"`` / ``"inline"`` / ``"tcp"``).
    kind: str = "?"

    def __init__(self, key: Tuple, n_workers: int) -> None:
        self.key = key
        self.n_workers = int(n_workers)
        self.broken = False
        self.tasks_dispatched = 0
        self.tasks_retried = 0

    # -- the protocol --------------------------------------------------------

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit a task, with backend-owned failure bookkeeping.

        A submit-time failure (the executor cannot accept work at all)
        marks the backend broken and re-raises; the next ``get_pool``
        call for this key builds a replacement. Task-level failures
        surface through the returned future; only
        :class:`~concurrent.futures.BrokenExecutor` flavours — a dead
        pool worker, exhausted remote retries — break the backend.
        """
        try:
            future = self._submit(fn, *args, **kwargs)
        except Exception:
            self.broken = True
            raise
        self.tasks_dispatched += 1
        future.add_done_callback(self._watch_done)
        return future

    def map_shards(self, fn, shards: Sequence) -> List[Future]:
        """Submit ``fn(shard)`` for every shard, in order."""
        return [self.submit(fn, shard) for shard in shards]

    def alive(self) -> bool:
        """Whether this backend can still accept work."""
        return not self.broken

    def info(self) -> dict:
        """JSON-serializable observability snapshot of this backend."""
        return {
            "kind": self.kind,
            "n_workers": self.n_workers,
            "broken": self.broken,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_retried": self.tasks_retried,
        }

    def close(self, wait: bool = True) -> None:
        """Release the backend's resources (idempotent)."""
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------------

    def _submit(self, fn, /, *args, **kwargs) -> Future:
        raise NotImplementedError

    def note_retry(self, n_tasks: int = 1) -> None:
        """Account ``n_tasks`` resubmissions riding this backend."""
        self.tasks_retried += int(n_tasks)

    def _watch_done(self, future: Future) -> None:
        if future.cancelled():
            return
        if isinstance(future.exception(), BrokenExecutor):
            self.broken = True


#: Submit attempts per :class:`FanOut` dispatch, each through a fresh
#: ``acquire()``: enough to absorb a worker crash between calls and a
#: ``release_pools`` racing the submission from another thread.
SUBMIT_ATTEMPTS = 3


class FanOut:
    """One batch of tasks on a registry backend, under the one retry policy.

    ``acquire()`` returns the backend to submit to — a
    :func:`repro.core.pool.get_pool` call, which hands back a fresh
    backend whenever the cached one broke or was released — and
    ``submit(backend)`` queues every task on it and returns their
    futures, in task order. The policy:

    * dispatch makes up to :data:`SUBMIT_ATTEMPTS` attempts, each through
      a fresh ``acquire()``, and raises the last error when all fail;
    * :meth:`results` resubmits once when collection fails with a
      :class:`~concurrent.futures.BrokenExecutor` or the backend is
      marked broken, charging ``note_retry(n_tasks)`` to the backend
      that takes the resubmission; a second failure surfaces;
    * a task-level exception is deterministic — it would fail the same
      way on a fresh backend — so it is never resubmitted.

    Task functions are pure functions of their arguments and nothing
    has been collected before a resubmission, so a retried fan-out is
    bit-identical to an unretried one.
    """

    def __init__(self, acquire, submit, n_tasks: int) -> None:
        self._acquire = acquire
        self._submit = submit
        self._n_tasks = int(n_tasks)
        self._retried = False
        self.futures, self.backend = self._dispatch()

    def _dispatch(self) -> Tuple[List[Future], ExecutorBackend]:
        last_error = None
        for _attempt in range(SUBMIT_ATTEMPTS):
            backend = self._acquire()
            try:
                return self._submit(backend), backend
            except Exception as error:  # noqa: BLE001 — retried bounded
                last_error = error
        raise last_error

    def done(self) -> bool:
        """Whether :meth:`results` would return without blocking."""
        return all(future.done() for future in self.futures)

    def results(self) -> list:
        """Every task's result, in task order (blocking if needed)."""
        try:
            return [future.result() for future in self.futures]
        except Exception as error:
            broken = isinstance(error, BrokenExecutor) or self.backend.broken
            if self._retried or not broken:
                raise
        self._retried = True
        self.futures, self.backend = self._dispatch()
        self.backend.note_retry(self._n_tasks)
        return [future.result() for future in self.futures]


class LocalProcessBackend(ExecutorBackend):
    """One reusable :class:`ProcessPoolExecutor` plus its wiring.

    Workers are initialized once with the problem, the coupling dtype,
    the resolved contraction backend and the on-disk model cache
    directory; afterwards every submitted task — whole strategy runs,
    independent chains, or batch shards — finds its evaluator warm in
    the worker process. The constructor resolves the problem's coupling
    model and builds the arrays this backend's evaluators read (the
    dense transpose, or the CSR triplet of a sparse pool) before the
    pool forks its workers at the first submit, so every worker shares
    the parent's copies instead of rebuilding them.

    Not instantiated directly; use :func:`repro.core.pool.get_pool`.
    """

    kind = "local"
    _executor: Optional[ProcessPoolExecutor] = None

    def __init__(
        self,
        key: Tuple,
        problem,
        dtype,
        n_workers: int,
        backend: str = "dense",
        model_cache_dir: Optional[str] = None,
    ):
        from repro.core import parallel as _parallel
        from repro.models.coupling import CouplingModel

        super().__init__(key, n_workers)
        self.problem = problem
        self.dtype = np.dtype(dtype)
        self.backend = str(backend)
        self.model_cache_dir = model_cache_dir
        model = CouplingModel.for_network(
            problem.network,
            dtype=self.dtype,
            cache_dir=model_cache_dir,
            routes=problem.routes,
        )
        # The first submit forks the workers: build what their evaluators
        # read now, so they all share the parent's copy.
        if self.backend == "sparse":
            model.csr()
        else:
            model.coupling_linear_T
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_parallel._init_worker,
            initargs=(problem, self.dtype.name, self.backend, model_cache_dir),
        )

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor (raises after :meth:`close`)."""
        if self._executor is None:
            raise RuntimeError("pool has been shut down")
        return self._executor

    def _submit(self, fn, /, *args, **kwargs) -> Future:
        return self.executor.submit(fn, *args, **kwargs)

    def alive(self) -> bool:
        """Whether the pool can still accept submissions."""
        return not self.broken and self._executor is not None

    def close(self, wait: bool = True) -> None:
        """Shut the executor down (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __repr__(self) -> str:
        state = "closed" if self._executor is None else f"{self.n_workers} workers"
        return f"LocalProcessBackend({self.problem!r}, {state})"


class InlineBackend(ExecutorBackend):
    """Serial in-process backend: every task runs in the calling thread.

    The task functions resolve their evaluators through this backend's
    own :class:`~repro.core.parallel.WorkerContext`, activated
    thread-locally around each call — exactly the state a pool worker
    process would hold, minus the process. ``n_workers`` stays the
    *logical* decomposition knob (how many shards/chains the caller
    splits work into), which is what keeps inline results bit-identical
    to every other backend for the same ``(seed, n_workers)``.

    Thread-safe: concurrent submitters (e.g. the service daemon's
    coalescer threads) each activate the context on their own thread.
    """

    kind = "inline"

    def __init__(
        self,
        key: Tuple,
        problem,
        dtype,
        n_workers: int = 1,
        backend: str = "dense",
        model_cache_dir: Optional[str] = None,
    ):
        from repro.core import parallel as _parallel
        from repro.models.coupling import CouplingModel

        super().__init__(key, n_workers)
        self.problem = problem
        self.dtype = np.dtype(dtype)
        self.backend = str(backend)
        # Resolve the model eagerly (cache hit when the caller's
        # evaluator exists already) so context evaluators build fast.
        CouplingModel.for_network(
            problem.network,
            dtype=self.dtype,
            cache_dir=model_cache_dir,
            routes=problem.routes,
        )
        self._context = _parallel.WorkerContext(problem, self.dtype, self.backend)
        self._closed = False

    def _submit(self, fn, /, *args, **kwargs) -> Future:
        from repro.core import parallel as _parallel

        if self._closed:
            raise RuntimeError("pool has been shut down")
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            with _parallel.activate_context(self._context):
                result = fn(*args, **kwargs)
        except BaseException as error:  # noqa: BLE001 — forwarded via future
            future.set_exception(error)
        else:
            future.set_result(result)
        return future

    def alive(self) -> bool:
        """Whether the backend can still accept submissions."""
        return not self.broken and not self._closed

    def close(self, wait: bool = True) -> None:
        """Mark the backend closed (nothing to shut down inline)."""
        self._closed = True

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"InlineBackend({self.problem!r}, {state})"
