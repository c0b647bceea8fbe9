"""Cross-request batch coalescing for the mapping service.

The daemon's defining optimization: concurrent requests that resolve to
the **same objective-free pool key** — CG fingerprint, network
signature, variation fingerprint; exactly
:func:`repro.core.pool.flight_key`, the prefix of every pool key —
have their batch-shardable work merged into shared
:meth:`~repro.core.evaluator.MappingEvaluator.submit_batch` flights.
(The variation fingerprint matters: it decides the wire table set, so
requests sharing a flight always agree on the columns being produced.)

Why this is sound
-----------------
Every reduction in the batch metric pipeline runs *within a row* (the
PR 3 invariant that already makes sharded evaluation bit-identical for
any worker count), so the composition of a flight — which requests'
rows ride together, and in what order — cannot change any row's value.
The flight is scored objective-free (the raw per-row metric tables,
via :meth:`~repro.core.evaluator.PendingBatch.tables`), then split back
per request; each request applies its own objective score and charges
its own evaluation counter. Candidate *generation* stays per-request,
driven by the request's own seeded RNG, so every response is
bit-identical to the same request run offline.

A flight computes only the tables its riders read. Each submission
declares them: a ``score_only`` batch (random search, the GA, SA's
calibration) reads its objective's score table; any other reads the
worst-case IL, the worst-case SNR and its score, the three
:class:`~repro.core.evaluator.BatchMetrics` fields. A flight computes
the union, inline or sharded alike (pool workers compute the tables
their shard names), so a flight of loss-objective searches never runs
the noise contraction. Each rider gets exactly the tables it declared,
the ones its own evaluator would have computed offline.

Mechanics
---------
One :class:`BatchCoalescer` per pool key owns a shared evaluator and a
flusher thread. Request handlers submit row blocks and receive tickets;
the flusher concatenates the pending blocks and runs them as one
``submit_batch`` call — sharded across the warm persistent pool when
large enough, inline otherwise. Flights per key are serialized by
construction, which itself batches up work arriving while a flight is
in progress.

Before launching, a flight lingers only while a *co-traveller* exists:
a request that could still add a block to it. Requests whose work is
scored in batches :meth:`~BatchCoalescer.join` the coalescer of their
key for their whole run; a joined request with no block pending is a
co-traveller, and so is any request the
:attr:`~BatchCoalescer.linger_hint` reports (the service core: admitted
requests that have not yet bound to a key). Submitting always notifies
the flusher; joining, leaving and :meth:`~BatchCoalescer.wake` notify it
only while a flight lingers, so an idle key's flusher sleeps through
other keys' traffic. A lingering flusher re-checks on every wakeup and
launches as soon as no co-traveller is left — or when the window runs
out, whichever comes first. A lone request therefore pays no added
latency, and neither does a request whose only company is on another
key or never submits a batch.

:class:`CoalescingEvaluator` is the drop-in seam: a
:class:`~repro.core.evaluator.MappingEvaluator` whose ``submit_batch``
routes through a coalescer, so random search, the GA and the
distribution sweep coalesce *without knowing the service exists*.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.evaluator import BatchMetrics, MappingEvaluator
from repro.errors import ServiceError

__all__ = [
    "BatchCoalescer",
    "CoalesceStats",
    "CoalescedBatch",
    "CoalescingEvaluator",
]


class CoalesceStats:
    """Counters of one coalescer (all mutated under the coalescer lock)."""

    def __init__(self) -> None:
        self.flights = 0  # merged submit_batch calls actually launched
        self.batches = 0  # request-side submissions that rode a flight
        self.coalesced_batches = 0  # submissions sharing a flight with others
        self.rows = 0  # total mapping rows scored
        self.max_flight_batches = 0
        self.lingered_flights = 0  # flights that waited for co-travellers
        self.linger_ms = 0.0  # total time flights spent waiting

    def record_flight(self, n_batches: int, n_rows: int) -> None:
        """Account one launched flight of ``n_batches`` submissions."""
        self.flights += 1
        self.batches += n_batches
        if n_batches > 1:
            self.coalesced_batches += n_batches
        self.rows += n_rows
        self.max_flight_batches = max(self.max_flight_batches, n_batches)

    def record_linger(self, seconds: float) -> None:
        """Account one flight that waited ``seconds`` for co-travellers."""
        self.lingered_flights += 1
        self.linger_ms += seconds * 1000.0

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (for the ``stats`` request kind)."""
        return {
            "flights": self.flights,
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "rows": self.rows,
            "max_flight_batches": self.max_flight_batches,
            "lingered_flights": self.lingered_flights,
            "linger_ms": self.linger_ms,
            "coalescing_ratio": (
                self.batches / self.flights if self.flights else None
            ),
        }


class _Ticket:
    """One submission's slot in a (future) flight.

    ``names`` lists the tables the submission reads (``None``: all).
    """

    __slots__ = ("n_rows", "owner", "names", "_event", "_tables", "_error")

    def __init__(
        self, n_rows: int, owner: object = None, names: Optional[tuple] = None
    ) -> None:
        self.n_rows = n_rows
        self.owner = owner
        self.names = names
        self._event = threading.Event()
        self._tables: Optional[Tuple[np.ndarray, ...]] = None
        self._error: Optional[BaseException] = None

    def fulfil(self, tables: Tuple[np.ndarray, ...]) -> None:
        self._tables = tables
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def tables(self) -> Tuple[np.ndarray, ...]:
        """Block until the flight lands; return this ticket's row slice."""
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._tables


class BatchCoalescer:
    """Merges concurrent batch submissions of one pool key into flights.

    Parameters
    ----------
    evaluator : MappingEvaluator
        The shared evaluator flights are scored through. Only its
        objective-free table pipeline is used (its objective and
        evaluation counter are never touched), so any request whose
        problem matches this evaluator's pool key can ride, whatever
        its objective.
    window_s : float, optional
        The longest a flight lingers for co-travellers before launching
        (default 4 ms). It launches earlier as soon as no co-traveller
        is left: no joined request without a pending block, and
        :attr:`linger_hint` false.
    max_flight_rows : int, optional
        Row cap per flight; pending submissions beyond it launch in the
        next flight (values are unaffected — the cap only bounds the
        merged matrix's memory).
    linger_hint : callable, optional
        Zero-argument callable, called under the coalescer lock; return
        True while a request that has not joined yet may still submit
        to this coalescer (the core passes "an admitted request has not
        bound to a key yet", and calls :meth:`wake` when that changes).
        Defaults to always True, so a coalescer used on its own lingers
        the whole window.
    """

    def __init__(
        self,
        evaluator: MappingEvaluator,
        window_s: float = 0.004,
        max_flight_rows: int = 65536,
        linger_hint: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.evaluator = evaluator
        self.window_s = float(window_s)
        self.max_flight_rows = int(max_flight_rows)
        self.linger_hint = linger_hint if linger_hint is not None else lambda: True
        self.stats = CoalesceStats()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: List[Tuple[_Ticket, np.ndarray]] = []
        self._members: set = set()
        self._lingering = False  # the flusher waits for co-travellers
        self._closed = False
        self._thread = threading.Thread(
            target=self._flush_loop,
            name=f"coalescer-{evaluator.cg.name}",
            daemon=True,
        )
        self._thread.start()

    def submit(
        self,
        assignments: np.ndarray,
        owner: object = None,
        tables: Optional[tuple] = None,
    ) -> _Ticket:
        """Queue validated assignment rows for the next flight.

        The rows are snapshotted (the caller may reuse its buffer, the
        ``submit_batch`` contract) and the ticket's
        :meth:`_Ticket.tables` blocks until the flight lands. ``owner``
        names the joined request submitting them (see :meth:`join`).
        ``tables`` names the tables the ticket reads, in any order;
        the others come back ``None`` (default: every table).
        """
        block = np.ascontiguousarray(assignments, dtype=np.int64).copy()
        ticket = _Ticket(block.shape[0], owner, tables)
        with self._wakeup:
            if self._closed:
                raise ServiceError(
                    "service is shutting down", status=503, kind="shutting_down"
                )
            self._pending.append((ticket, block))
            self._wakeup.notify_all()
        return ticket

    def join(self, member: object) -> None:
        """Count ``member`` as a co-traveller whenever it has no block pending.

        For requests whose work is scored in batches, from binding to
        this coalescer until :meth:`leave`.
        """
        with self._wakeup:
            self._members.add(member)
            self._notify_lingering()

    def leave(self, member: object) -> None:
        """Stop waiting for ``member`` (no-op if it never joined)."""
        with self._wakeup:
            self._members.discard(member)
            self._notify_lingering()

    def wake(self) -> None:
        """Make a lingering flight re-check :attr:`linger_hint` now."""
        with self._wakeup:
            self._notify_lingering()

    def _notify_lingering(self) -> None:
        """Wake the flusher if it lingers (call under the lock).

        Only a lingering flight re-checks its co-travellers; an idle
        flusher waits for a submission and needs no wakeup.
        """
        if self._lingering:
            self._wakeup.notify_all()

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work; flush what is pending, join the flusher."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        self._thread.join(timeout=timeout)

    # -- flusher thread ----------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            entries = self._collect_flight()
            if entries is None:
                return
            if entries:
                self._run_flight(entries)

    def _co_traveller(self) -> bool:
        """Whether a request that could still join the pending flight exists."""
        if self.linger_hint():
            return True
        waiting = {ticket.owner for ticket, _ in self._pending}
        return any(member not in waiting for member in self._members)

    def _collect_flight(self) -> Optional[List[Tuple[_Ticket, np.ndarray]]]:
        """Wait for work, linger for co-travellers, take one flight's load.

        Returns None when closed and drained (thread exit).
        """
        with self._wakeup:
            while not self._pending and not self._closed:
                self._wakeup.wait()
            if not self._pending:
                return None  # closed and drained
            start = time.monotonic()
            deadline = start + self.window_s
            lingered = False
            while (
                not self._closed
                and sum(t.n_rows for t, _ in self._pending) < self.max_flight_rows
                and self._co_traveller()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                lingered = self._lingering = True
                self._wakeup.wait(remaining)
            self._lingering = False
            if lingered:
                self.stats.record_linger(time.monotonic() - start)
            take, rows = 0, 0
            while take < len(self._pending) and rows < self.max_flight_rows:
                rows += self._pending[take][0].n_rows
                take += 1
            entries = self._pending[:take]
            del self._pending[:take]
            return entries

    def _run_flight(self, entries: List[Tuple[_Ticket, np.ndarray]]) -> None:
        """Score one merged flight and re-split its tables per ticket."""
        tickets = [ticket for ticket, _ in entries]
        blocks = [block for _, block in entries]
        merged = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        names = self.evaluator.table_names
        wanted = None
        if all(ticket.names is not None for ticket in tickets):
            read = set().union(*(ticket.names for ticket in tickets))
            wanted = tuple(name for name in names if name in read)
        try:
            tables = self.evaluator._submit(merged, wanted).tables()
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            for ticket in tickets:
                ticket.fail(error)
            return
        with self._lock:
            self.stats.record_flight(len(tickets), merged.shape[0])
        offset = 0
        for ticket in tickets:
            stop = offset + ticket.n_rows
            # Copies, so the merged flight tables are freed as soon as
            # every ticket has been consumed.
            ticket.fulfil(tuple(
                column[offset:stop].copy()
                if ticket.names is None or name in ticket.names
                else None
                for name, column in zip(names, tables)
            ))
            offset = stop


class CoalescedBatch:
    """A :class:`~repro.core.evaluator.PendingBatch`-shaped handle.

    Wraps one coalescer ticket: :meth:`result` blocks until the merged
    flight lands, then hands its row slice to this request's evaluator,
    which charges it and picks this request's score column through the
    same method an inline ``PendingBatch`` uses — so optimizers cannot
    tell the difference. The flight's evaluator shares this request's
    pool key, so the column layouts agree by construction.
    """

    def __init__(self, evaluator: MappingEvaluator, ticket: _Ticket) -> None:
        self._evaluator = evaluator
        self._ticket = ticket
        self._metrics: Optional[BatchMetrics] = None

    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking."""
        return self._metrics is not None or self._ticket.done()

    def result(self) -> BatchMetrics:
        """Collect this request's slice; charge its evaluator once."""
        if self._metrics is None:
            self._metrics = self._evaluator._charge(
                self._ticket.tables(), self._ticket.n_rows
            )
        return self._metrics


class CoalescingEvaluator(MappingEvaluator):
    """An evaluator whose batch submissions ride shared flights.

    Constructed per request by the service core and bound (via
    :attr:`coalescer`) to the :class:`BatchCoalescer` of the request's
    pool key. All non-batch entry points — single :meth:`evaluate`
    calls, the delta engine's table gathers — stay inline and
    request-local; only ``submit_batch`` / ``evaluate_batch`` coalesce,
    because only their row-local pipeline carries the
    composition-independence guarantee.
    """

    def __init__(self, problem, coalescer: Optional[BatchCoalescer] = None, **kwargs):
        super().__init__(problem, **kwargs)
        self.coalescer = coalescer

    def submit_batch(
        self, assignments, n_workers=None, min_shard_rows=None, score_only=False
    ):
        """Submit a batch; rows join the pool key's next shared flight.

        The rows' ticket declares what :meth:`CoalescedBatch.result`
        reads: the score table alone for a ``score_only`` batch, else
        the worst-case IL, the worst-case SNR and the score. The flight
        computes the union of its riders' tables and hands this batch
        only its own, so the
        :class:`~repro.core.evaluator.BatchMetrics` equal the inline
        offline ones, ``None`` fields included. ``n_workers`` and
        ``min_shard_rows`` are the flight's to decide and are ignored
        here. Without a coalescer this is the plain
        :meth:`MappingEvaluator.submit_batch`.
        """
        if self.coalescer is None:
            return super().submit_batch(
                assignments, n_workers, min_shard_rows, score_only
            )
        assignments = self._check_batch(assignments)
        ticket = self.coalescer.submit(
            assignments, owner=self, tables=self._batch_tables(score_only)
        )
        return CoalescedBatch(self, ticket)
