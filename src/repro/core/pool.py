"""Persistent, reusable executor backends for parallel evaluation and DSE.

PR 2 introduced multi-process design-space exploration, but every
``compare()`` call and every chain-decomposed ``run()`` built — and tore
down — its own :class:`~concurrent.futures.ProcessPoolExecutor`. That is
cheap under Linux ``fork`` but repays caching under ``spawn`` /
``forkserver`` start methods (each worker re-imports numpy, ~1 s) and in
many-cell sweeps such as ``reproduce_table2`` (32 problem instances, each
formerly paying two pool builds).

This module owns the executors instead:

* :func:`get_pool` returns a lazily created
  :class:`~repro.core.executor.ExecutorBackend` keyed on
  ``(communication graph, network signature, coupling dtype, backend,
  n_workers, executor spec)`` — everything the worker-side evaluator
  depends on *except* the objective. Workers cache one evaluator per
  objective (see :func:`repro.core.parallel.worker_evaluator`), so the
  two objective passes of a Table II cell reuse one warm pool. The
  executor spec (``"local"`` / ``"inline"`` / ``"tcp://HOST:PORT"``)
  selects the implementation; ``"local"`` keeps the historical
  persistent process-pool behaviour
  (:class:`~repro.core.executor.LocalProcessBackend`).
* A small LRU (:data:`MAX_POOLS`) bounds the number of live pools;
  evicted pools are shut down deterministically.
* :func:`shutdown_pools` tears everything down; it is registered with
  :mod:`atexit` the first time a pool is created, so worker processes
  are reaped deterministically at interpreter exit.
* :func:`executor_stats` snapshots every live backend's
  :meth:`~repro.core.executor.ExecutorBackend.info` — the service
  ``stats`` endpoint's executor section.

Determinism
-----------
Pools never change results: every entry point that uses them
(:meth:`repro.core.evaluator.MappingEvaluator.evaluate_batch` sharding,
:meth:`repro.core.dse.DesignSpaceExplorer.compare` / ``run``) is
bit-identical to its sequential path for any ``n_workers`` and any
executor backend; the pool only decides *where* the arithmetic runs.
"""

from __future__ import annotations

import atexit
import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.core.executor import (
    ExecutorBackend,
    InlineBackend,
    LocalProcessBackend,
    parse_executor_spec,
)
from repro.core.problem import MappingProblem

__all__ = [
    "MAX_POOLS",
    "executor_stats",
    "get_pool",
    "pool_key",
    "release_pools",
    "shutdown_pools",
]

#: Maximum number of live pools; the least recently used one is shut down
#: when the cap is hit. Each pool holds ``n_workers`` idle processes, so
#: the cap bounds resident worker count during many-problem sweeps.
MAX_POOLS = 3

#: key -> pool, in least-recently-used-first order.
_POOLS: "OrderedDict[Tuple, ExecutorBackend]" = OrderedDict()

#: Guards the registry: the ``serve`` daemon hits :func:`get_pool` /
#: :func:`release_pools` from concurrent request-handler and coalescer
#: threads, and an OrderedDict mutated during eviction is not
#: thread-safe on its own. Reentrant because eviction closes pools
#: while the lock is held.
_LOCK = threading.RLock()

_ATEXIT_REGISTERED = False


def _cg_fingerprint(problem: MappingProblem) -> str:
    """Content hash of the communication graph a pool's workers serve.

    Two :class:`~repro.appgraph.graph.CommunicationGraph` instances with
    the same tasks, edges and bandwidths are interchangeable for pool
    purposes even when they are distinct objects (e.g. re-loaded
    benchmarks), so the key hashes content, not identity.
    """
    cg = problem.cg
    digest = hashlib.sha1()
    digest.update(cg.name.encode())
    digest.update("\x00".join(cg.tasks).encode())
    digest.update(np.ascontiguousarray(cg.edge_array()).tobytes())
    digest.update(np.ascontiguousarray(cg.bandwidth_array()).tobytes())
    return digest.hexdigest()


def _network_key(problem: MappingProblem) -> str:
    """The network component of a pool key.

    Joint mapping x routing problems (``routes > 1``) append the route
    count: their workers hold the widened routed coupling model, so a
    routed pool must never serve (or be served by) a mapping-only one.
    Single-route keys are byte-identical to the historical layout.
    """
    signature = problem.network.signature
    if problem.routes > 1:
        signature += f"|routes={problem.routes}"
    return signature


def pool_key(
    problem: MappingProblem,
    dtype,
    n_workers: int,
    backend: str = "dense",
    executor: str = "local",
) -> Tuple:
    """The cache key of the pool serving ``problem`` at ``dtype``.

    Parameters
    ----------
    problem : MappingProblem
        The problem whose CG and network the workers must hold. The
        objective is deliberately **excluded**: workers evaluate any
        objective on demand, so objective flips reuse the warm pool.
    dtype : numpy dtype-like
        Coupling-matrix dtype of the evaluators the workers build.
    n_workers : int
        Pool size; pools of different sizes never alias.
    backend : str, optional
        Resolved contraction backend of the worker evaluators
        (``"dense"`` or ``"sparse"``, never ``"auto"`` — callers resolve
        first so worker results are bit-identical to the parent's).
        Pools of different backends never alias: their workers read
        different arrays (the dense transpose or the CSR triplet).
    executor : str, optional
        Executor spec (``"local"`` / ``"inline"`` / ``"tcp://…"``,
        see :func:`repro.core.executor.parse_executor_spec`). Appended
        as the *last* key component, so the objective-free prefix
        ``key[:5]`` the service coalescer groups on — and every
        key-index filter of :func:`release_pools` — keeps its shape.

    Returns
    -------
    tuple
        Hashable key for :data:`_POOLS`.

    Notes
    -----
    The problem's **variation fingerprint** (empty string when no
    variation plan is attached) sits at index 4: it is objective-free in
    the same sense as the rest of the key — workers score any objective
    from the metric tables — but it decides *which* tables the workers
    produce (the robust column exists only under a variation plan), so
    pools and coalesced flights must never mix plans.
    """
    return (
        _cg_fingerprint(problem),
        _network_key(problem),
        np.dtype(dtype).name,
        str(backend),
        problem.variation_fingerprint,
        int(n_workers),
        parse_executor_spec(executor),
    )


def _register_pool(key: Tuple, pool) -> None:
    """Insert a pool into the LRU registry, evicting and hooking atexit.

    Callers hold :data:`_LOCK` (reentrant, so the nested acquisition is
    free); eviction closes with ``wait=True`` under the lock, which is
    safe because a closing pool never re-enters the registry.
    """
    global _ATEXIT_REGISTERED
    with _LOCK:
        _POOLS[key] = pool
        while len(_POOLS) > MAX_POOLS:
            _, evicted = _POOLS.popitem(last=False)
            evicted.close(wait=True)
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True


def _build_backend(
    key: Tuple,
    problem: MappingProblem,
    dtype,
    n_workers: int,
    backend: str,
    model_cache_dir: Optional[str],
    executor: str,
) -> ExecutorBackend:
    """Instantiate the backend class an executor spec names."""
    if executor == "inline":
        return InlineBackend(
            key, problem, dtype, n_workers, backend, model_cache_dir
        )
    if executor.startswith("tcp://"):
        from repro.distributed.scheduler import RemoteTcpBackend

        return RemoteTcpBackend(
            key, problem, dtype, n_workers, backend, model_cache_dir, executor
        )
    return LocalProcessBackend(
        key, problem, dtype, n_workers, backend, model_cache_dir
    )


def get_pool(
    problem: MappingProblem,
    dtype,
    n_workers: int,
    backend: str = "dense",
    model_cache_dir: Optional[str] = None,
    executor: str = "local",
) -> ExecutorBackend:
    """Fetch (or lazily create) the persistent executor for a problem.

    Parameters
    ----------
    problem : MappingProblem
        Problem the workers should serve; only its CG and network enter
        the key (see :func:`pool_key`).
    dtype : numpy dtype-like
        Coupling-matrix dtype of the worker evaluators.
    n_workers : int
        Logical worker count; must be >= 1. For the local backend this
        is the pool's process count; for remote backends it stays the
        shard/chain decomposition knob (the determinism contract's
        ``n_workers``) while the number of *connected* workers only
        affects placement.
    backend : str, optional
        Resolved contraction backend for the worker evaluators
        (``"dense"`` or ``"sparse"``); decides whether a local pool
        builds the dense transpose or the CSR triplet before its workers
        fork.
    model_cache_dir : str, optional
        On-disk model cache directory handed to the worker initializer
        (so a worker that did not fork from the parent loads the
        coupling model from disk instead of rebuilding it). Not part of
        the pool key — it cannot change any result.
    executor : str, optional
        Executor spec selecting the backend implementation (default
        ``"local"``; see :func:`repro.core.executor.parse_executor_spec`).

    Returns
    -------
    ExecutorBackend
        A warm backend, freshly created only on the first call for this
        key (or after the previous one broke / was evicted).

    Notes
    -----
    At most :data:`MAX_POOLS` pools stay alive; the least recently used
    one is shut down (``wait=True``) to make room. All remaining pools
    are shut down at interpreter exit. A broken backend is unregistered
    and closed with ``wait=True`` before its replacement is built: its
    dying workers are reaped before the replacement forks its own, so a
    straggler never outlives its registry entry and repeated crashes
    never stack generations of live worker processes.
    """
    executor = parse_executor_spec(executor)
    key = pool_key(problem, dtype, n_workers, backend, executor)
    with _LOCK:
        pool = _POOLS.get(key)
        if pool is not None:
            if not pool.broken:
                _POOLS.move_to_end(key)
                return pool
            _POOLS.pop(key, None)
            pool.close(wait=True)
        pool = _build_backend(
            key, problem, dtype, n_workers, backend, model_cache_dir, executor
        )
        _register_pool(key, pool)
        return pool


def release_pools(
    problem: Optional[MappingProblem] = None,
    dtype=None,
    backend: Optional[str] = None,
) -> int:
    """Shut down pools matching the given filters (all pools when none).

    A resident daemon uses this to evict one tenant's warm state without
    killing unrelated pools.

    Parameters
    ----------
    problem : MappingProblem, optional
        When given, only pools whose key matches this problem's CG and
        network are closed; pools for other problems stay warm.
    dtype : numpy dtype-like, optional
        Restrict the match to pools of this coupling dtype.
    backend : str, optional
        Restrict the match to pools of this resolved contraction
        backend (``"dense"`` or ``"sparse"`` — backend is part of the
        pool key, so mixed-backend tenants can be evicted selectively).

    Returns
    -------
    int
        Number of pools shut down.
    """
    fingerprint = signature = None
    if problem is not None:
        fingerprint = _cg_fingerprint(problem)
        signature = _network_key(problem)
    dtype_name = None if dtype is None else np.dtype(dtype).name
    backend_name = None if backend is None else str(backend)
    with _LOCK:
        victims = []
        for key in _POOLS:
            if fingerprint is not None and (
                key[0] != fingerprint or key[1] != signature
            ):
                continue
            if dtype_name is not None and key[2] != dtype_name:
                continue
            if backend_name is not None and key[3] != backend_name:
                continue
            victims.append(key)
        pools = [_POOLS.pop(key) for key in victims]
    for pool in pools:
        pool.close(wait=True)
    return len(pools)


def shutdown_pools() -> None:
    """Deterministically shut down every live pool (idempotent).

    Called automatically at interpreter exit; call it explicitly (or use
    ``DesignSpaceExplorer.close()`` / ``MappingEvaluator.close()``) to
    reclaim the worker processes earlier, e.g. between pytest sessions.
    """
    while True:
        with _LOCK:
            if not _POOLS:
                return
            _, pool = _POOLS.popitem(last=False)
        pool.close(wait=True)


def executor_stats() -> dict:
    """Observability snapshot of every live executor backend.

    One :meth:`~repro.core.executor.ExecutorBackend.info` dict per
    registered backend plus cross-backend totals — the executor section
    of the service ``stats`` endpoint. Registry stand-ins without an
    ``info`` method (tests plant fakes) are skipped.
    """
    with _LOCK:
        pools = list(_POOLS.values())
    backends = []
    totals = {
        "tasks_dispatched": 0,
        "tasks_retried": 0,
        "tasks_degraded": 0,
        "workers": 0,
        "degraded": False,
    }
    for pool in pools:
        info_method = getattr(pool, "info", None)
        if info_method is None:
            continue
        info = info_method()
        backends.append(info)
        totals["tasks_dispatched"] += info.get("tasks_dispatched", 0)
        totals["tasks_retried"] += info.get("tasks_retried", 0)
        totals["tasks_degraded"] += info.get("tasks_degraded", 0)
        totals["workers"] += info.get("workers_connected", info.get("n_workers", 0))
        if info.get("degraded"):
            totals["degraded"] = True
    return {"backends": backends, "totals": totals}
