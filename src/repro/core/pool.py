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
  ``(communication graph, network signature, variation fingerprint,
  n_workers, executor spec)`` — everything the worker-side
  evaluator depends on *except* the objective (the noise kernel follows
  from the CG and the model). Workers cache one evaluator per
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
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.executor import (
    ExecutorBackend,
    InlineBackend,
    LocalProcessBackend,
    parse_executor_spec,
)
from repro.core.problem import MappingProblem
from repro.models.coupling import CouplingModel

__all__ = [
    "MAX_POOLS",
    "executor_stats",
    "flight_key",
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


def flight_key(problem: MappingProblem) -> Tuple:
    """The objective-free prefix of every pool key.

    ``(CG fingerprint, coupling-model cache key, variation
    fingerprint)``. The model key is the network signature plus, for
    ``routes > 1``, the route count (see
    :meth:`~repro.models.coupling.CouplingModel.cache_key`), so a routed
    pool never serves a mapping-only one. The objective is excluded, so
    objective flips reuse the warm pool and the service coalesces
    requests of any objective into one flight; the variation
    fingerprint (empty without a plan) decides which tables workers
    produce, so plans never mix.
    """
    return (
        problem.cg.fingerprint,
        CouplingModel.cache_key(problem.network, routes=problem.routes),
        problem.variation_fingerprint,
    )


def pool_key(
    problem: MappingProblem,
    n_workers: int,
    executor: str = "local",
) -> Tuple:
    """The cache key of the pool serving ``problem``.

    Parameters
    ----------
    problem : MappingProblem
        The problem whose CG and network the workers must hold (see
        :func:`flight_key` for what of it enters the key).
    n_workers : int
        Pool size; pools of different sizes never alias.
    executor : str, optional
        Executor spec (``"local"`` / ``"inline"`` / ``"tcp://…"``,
        see :func:`repro.core.executor.parse_executor_spec`).

    Returns
    -------
    tuple
        Hashable key for :data:`_POOLS`: :func:`flight_key` followed by
        ``n_workers`` and the executor spec.
    """
    return flight_key(problem) + (
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
    n_workers: int,
    executor: str,
) -> ExecutorBackend:
    """Instantiate the backend class an executor spec names."""
    if executor == "inline":
        return InlineBackend(key, problem, n_workers)
    if executor.startswith("tcp://"):
        from repro.distributed.scheduler import RemoteTcpBackend

        return RemoteTcpBackend(key, problem, n_workers, executor)
    return LocalProcessBackend(key, problem, n_workers)


def get_pool(
    problem: MappingProblem,
    n_workers: int,
    executor: str = "local",
) -> ExecutorBackend:
    """Fetch (or lazily create) the persistent executor for a problem.

    Parameters
    ----------
    problem : MappingProblem
        Problem the workers should serve; only its CG and network enter
        the key (see :func:`pool_key`).
    n_workers : int
        Logical worker count; must be >= 1. For the local backend this
        is the pool's process count; for remote backends it stays the
        shard/chain decomposition knob (the determinism contract's
        ``n_workers``) while the number of *connected* workers only
        affects placement.
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
    never stack generations of live worker processes. A local backend's
    workers get the process's model cache directory from their
    initializer; it is not part of the key, since it changes no result.
    """
    executor = parse_executor_spec(executor)
    key = pool_key(problem, n_workers, executor)
    with _LOCK:
        pool = _POOLS.get(key)
        if pool is not None:
            if not pool.broken:
                _POOLS.move_to_end(key)
                return pool
            _POOLS.pop(key, None)
            pool.close(wait=True)
        pool = _build_backend(key, problem, n_workers, executor)
        _register_pool(key, pool)
        return pool


def release_pools(problem: Optional[MappingProblem] = None) -> int:
    """Shut down the pools serving ``problem`` (all pools when ``None``).

    A resident daemon uses this to evict one tenant's warm state without
    killing unrelated pools.

    Parameters
    ----------
    problem : MappingProblem, optional
        When given, only pools whose key matches this problem's CG and
        network are closed; pools for other problems stay warm.

    Returns
    -------
    int
        Number of pools shut down.
    """
    # (CG fingerprint, model key): the pool key's first two fields.
    prefix = None if problem is None else flight_key(problem)[:2]
    with _LOCK:
        victims = [k for k in _POOLS if prefix is None or k[:2] == prefix]
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
    ``info`` method (tests plant fakes) are skipped. Task counts sum
    each backend's own; TCP backends sharing a hub share its fleet, so
    each hub address's connected workers count once.
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
    hub_workers = {}
    for pool in pools:
        info_method = getattr(pool, "info", None)
        if info_method is None:
            continue
        info = info_method()
        backends.append(info)
        totals["tasks_dispatched"] += info.get("tasks_dispatched", 0)
        totals["tasks_retried"] += info.get("tasks_retried", 0)
        totals["tasks_degraded"] += info.get("tasks_degraded", 0)
        hub = info.get("hub")
        if hub is None:
            totals["workers"] += info.get("n_workers", 0)
        else:
            hub_workers[hub["address"]] = hub["workers_connected"]
        if info.get("degraded"):
            totals["degraded"] = True
    totals["workers"] += sum(hub_workers.values())
    return {"backends": backends, "totals": totals}
