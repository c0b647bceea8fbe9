"""Mapping-as-a-service: the long-running ``phonocmap serve`` daemon.

The unit of work becomes a *request* — communication graph + network
spec + objective + budget + seed — instead of a script run. The daemon
keeps the expensive state resident across requests (the on-disk model
cache, the in-process coupling-model registry with its shared-memory
exports, and the warm executor backends of :mod:`repro.core.pool`), and
**coalesces batch-shardable work across concurrent requests** that
resolve to the same objective-free pool key (see
:mod:`repro.service.coalesce`).

Layout
------
* :mod:`repro.service.schema` — request parsing/validation and response
  shaping (JSON in, JSON out; every limit violation is a structured
  error).
* :mod:`repro.service.coalesce` — the cross-request batch coalescer and
  the evaluator subclass that routes ``submit_batch`` through it.
* :mod:`repro.service.core` — transport-independent dispatch: admission
  control, the per-kind handlers, resident-state registries, stats.
* :mod:`repro.service.server` — unix-socket (newline-delimited JSON)
  and localhost-HTTP (POST JSON) transports plus graceful shutdown.
* :mod:`repro.service.client` — a tiny client for tests, benches and
  quickstarts.
"""

from repro.service.client import ServiceClient
from repro.service.coalesce import BatchCoalescer, CoalescingEvaluator
from repro.service.core import ServiceCore, ServiceLimits
from repro.service.server import ServiceServer

__all__ = [
    "BatchCoalescer",
    "CoalescingEvaluator",
    "ServiceClient",
    "ServiceCore",
    "ServiceLimits",
    "ServiceServer",
]
