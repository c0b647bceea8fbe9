"""Distributed execution: TCP workers and the dispatching scheduler.

The remote leg of the executor abstraction (:mod:`repro.core.executor`):

* :mod:`repro.distributed.wire` — the newline-JSON framing shared with
  the PR 6 service transport;
* :mod:`repro.distributed.worker` — the ``phonocmap worker --connect``
  process: dials the scheduler, runs strategy/shard tasks whose
  evaluators resolve coupling models by cache key;
* :mod:`repro.distributed.scheduler` — the in-process
  :class:`~repro.distributed.scheduler.WorkerHub` (listener + task
  queue + per-worker dispatch threads with bounded retry) and the
  :class:`~repro.distributed.scheduler.RemoteTcpBackend` that plugs it
  into the pool registry.

Submodules import lazily — ``import repro`` stays light.
"""
