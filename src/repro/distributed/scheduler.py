"""Scheduler side of distributed execution: WorkerHub + RemoteTcpBackend.

The :class:`WorkerHub` is the process-wide rendezvous point for one
listening address: it accepts ``phonocmap worker`` connections, holds a
shared task queue, and runs one dispatch thread per connected worker.
Dispatch threads pull tasks, lazily initialize the task's execution
context on their worker (shipping the pickled problem, never a coupling
model: the worker resolves that by cache key itself), run the
synchronous request/reply round-trip, and resolve the task's future.

Failure domains (PR 9)
----------------------
Liveness is active, not inferred from task traffic:

* **Heartbeats** — an idle dispatch thread pings its worker every
  :attr:`WorkerHub.heartbeat_interval_s`; the pong is awaited for a
  miss budget of :attr:`WorkerHub.heartbeat_misses` short timeouts,
  after which the connection is retired and the worker counts as lost.
  A *silent* worker is thereby distinguished from a merely *idle* one within
  ``interval + misses × timeout`` seconds instead of the hour-scale
  round-trip timeout.
* **Soft task deadlines** — with :attr:`WorkerHub.task_deadline_s` set,
  a dispatched task whose reply does not arrive in time is treated as
  sitting on a hung worker: the connection is dropped and the task is
  requeued for a live worker (bounded by :data:`MAX_TASK_ATTEMPTS`).
  The deadline is *soft*: it never cancels work, it only re-places it —
  and because tasks are pure functions of their pickled arguments, a
  re-placed (or even double-executed) task cannot change any result.
  A worker whose ``--model-cache`` misses builds the coupling model
  inside its first task of a context, so the deadline must exceed a
  cold build unless that cache is warm.
* **Authentication** — when a shared token is configured
  (``PHONOCMAP_AUTH_TOKEN`` or the ``auth_token`` hub argument), a
  connecting worker must present it in the hello frame; the compare is
  constant-time (:func:`hmac.compare_digest`) and rejection happens
  *before* the worker joins the fleet, so a hostile or misconfigured
  peer can never receive a task or disturb in-flight ones. The hello
  frame itself is read with a tight size cap so an unauthenticated
  peer cannot push the hub into buffering an arbitrarily long line.

Failure handling stays bounded retry + reassignment: a connection
error, heartbeat exhaustion or deadline overrun requeues the in-hand
task (up to :data:`MAX_TASK_ATTEMPTS` total attempts) for any other
live worker and retires the dead one. When attempts run out — or the
last worker is gone, which now *drains the queue* instead of stranding
queued futures — each affected task either fails fast with a typed
:class:`~repro.core.executor.WorkerLostError` (policy ``"raise"``) or
is handed to its backend's local fallback (policy ``"degrade"``, see
:class:`RemoteTcpBackend`).

Determinism: tasks are pure functions of their pickled arguments, so
which worker (or fallback backend) runs a task — first try or third —
cannot change its result; ``n_workers`` on the backend stays the
*logical* decomposition knob and the number of connected workers only
affects placement. The chaos suite (``tests/distributed/test_chaos.py``)
holds every recovery path to bit-identity against the inline oracle.

:class:`RemoteTcpBackend` plugs the hub into the pool registry
(:func:`repro.core.pool.get_pool` with ``executor="tcp://HOST:PORT"``).
Backends share hubs by address: closing a backend never tears a hub
down, because other pool-registry entries (another problem, another
worker count) may be dispatching through it.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import queue
import socket
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Dict, Optional, Tuple

from repro.core import parallel as _parallel
from repro.core.executor import (
    ExecutorBackend,
    InlineBackend,
    LocalProcessBackend,
    WorkerLostError,
    parse_executor_spec,
    split_tcp_address,
    worker_loss_policy,
)
from repro.distributed import wire
from repro.errors import ExecutorError, ProtocolError

__all__ = [
    "MAX_TASK_ATTEMPTS",
    "RemoteTcpBackend",
    "WorkerHub",
    "get_hub",
    "worker_wait_timeout_s",
]

#: Total tries per task (1 initial + 2 reassignments) before its future
#: fails with :class:`WorkerLostError` (or degrades, per policy).
MAX_TASK_ATTEMPTS = 3

#: Default wait for the first worker before a submit fails; env
#: ``PHONOCMAP_WORKER_WAIT_TIMEOUT_S`` overrides — long enough to start
#: workers by hand, short enough that a forgotten ``phonocmap worker``
#: surfaces as an error.
DEFAULT_WORKER_WAIT_TIMEOUT_S = 60.0

#: Per-round-trip socket timeout on the scheduler side — the hard upper
#: bound a soft task deadline tightens. A worker silent for this long is
#: treated as lost (task requeued elsewhere).
ROUND_TRIP_TIMEOUT_S = 3600.0

#: Liveness defaults (env-overridable, see :class:`WorkerHub`).
DEFAULT_HEARTBEAT_INTERVAL_S = 5.0
DEFAULT_HEARTBEAT_TIMEOUT_S = 2.0
DEFAULT_HEARTBEAT_MISSES = 3

#: Cap on the hello frame — read *before* authentication, so it must be
#: small enough that an unauthenticated peer cannot buffer-bloat the hub.
HELLO_MAX_BYTES = 64 * 1024

#: How long a connecting peer gets to produce its hello frame.
HELLO_TIMEOUT_S = 30.0

#: The ways a handshake drops a connection before authentication, each
#: counted in :meth:`WorkerHub.stats` (``workers_dropped``): no hello
#: within :data:`HELLO_TIMEOUT_S`, a hello over :data:`HELLO_MAX_BYTES`,
#: EOF before any frame, or a first frame that is not a hello.
HANDSHAKE_DROPS = ("timeout", "protocol", "eof", "not_hello")


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def _resolve(explicit, env_name: str, default: float) -> float:
    """Resolve a liveness knob: explicit value > environment > default."""
    if explicit is not None:
        return float(explicit)
    return _env_float(env_name, default)


def worker_wait_timeout_s() -> float:
    """The effective first-worker wait (env-overridable)."""
    return _env_float(
        "PHONOCMAP_WORKER_WAIT_TIMEOUT_S", DEFAULT_WORKER_WAIT_TIMEOUT_S
    )


def _fail_future(future: Future, error: BaseException) -> None:
    """Fail a future, tolerating races with cancellation/resolution."""
    if future.cancelled():
        return
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


def _chain_future(inner: Future, outer: Future) -> None:
    """Propagate ``inner``'s outcome into ``outer`` when it completes."""

    def _copy(done: Future) -> None:
        if outer.cancelled():
            return
        try:
            if done.cancelled():
                outer.cancel()
            elif done.exception() is not None:
                outer.set_exception(done.exception())
            else:
                outer.set_result(done.result())
        except InvalidStateError:
            pass

    inner.add_done_callback(_copy)


class _Task:
    """One queued task: wire form plus the future and retry bookkeeping."""

    __slots__ = ("ctx_id", "fn_name", "payload", "future", "attempts", "backend")

    def __init__(self, ctx_id: str, fn_name: str, payload: str, backend):
        self.ctx_id = ctx_id
        self.fn_name = fn_name
        self.payload = payload
        self.future: Future = Future()
        self.attempts = 0
        self.backend = backend


class WorkerHub:
    """Listener + task queue + per-worker dispatch threads for one address.

    Liveness parameters default from the environment
    (``PHONOCMAP_HEARTBEAT_INTERVAL_S``, ``PHONOCMAP_HEARTBEAT_TIMEOUT_S``,
    ``PHONOCMAP_HEARTBEAT_MISSES``, ``PHONOCMAP_TASK_DEADLINE_S``) and can
    be pinned per hub via constructor arguments (tests use sub-second
    values; production keeps the defaults). ``task_deadline_s=None``
    (the default, and env unset) leaves the PR 7 behaviour: a hung
    worker is only detected at :data:`ROUND_TRIP_TIMEOUT_S`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        heartbeat_interval_s: Optional[float] = None,
        heartbeat_timeout_s: Optional[float] = None,
        heartbeat_misses: Optional[int] = None,
        task_deadline_s: Optional[float] = None,
        auth_token: Optional[str] = None,
    ):
        self.host = host
        self.heartbeat_interval_s = _resolve(
            heartbeat_interval_s,
            "PHONOCMAP_HEARTBEAT_INTERVAL_S",
            DEFAULT_HEARTBEAT_INTERVAL_S,
        )
        self.heartbeat_timeout_s = _resolve(
            heartbeat_timeout_s,
            "PHONOCMAP_HEARTBEAT_TIMEOUT_S",
            DEFAULT_HEARTBEAT_TIMEOUT_S,
        )
        self.heartbeat_misses = int(
            _resolve(
                heartbeat_misses,
                "PHONOCMAP_HEARTBEAT_MISSES",
                DEFAULT_HEARTBEAT_MISSES,
            )
        )
        deadline = _resolve(task_deadline_s, "PHONOCMAP_TASK_DEADLINE_S", 0.0)
        self.task_deadline_s = deadline if deadline > 0 else None
        self.auth_token = (
            auth_token
            if auth_token is not None
            else os.environ.get("PHONOCMAP_AUTH_TOKEN") or None
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        #: Bound port — differs from the requested one when it was 0.
        self.port = self._listener.getsockname()[1]
        self._tasks: "queue.Queue[_Task]" = queue.Queue()
        #: ctx_id -> the ``init`` frame that sets the context up on a worker.
        self._contexts: Dict[str, dict] = {}
        self._lock = threading.Lock()
        self._worker_event = threading.Event()
        self._stop = threading.Event()
        self.workers_connected = 0
        self.workers_lost = 0
        self.workers_rejected_auth = 0
        self.workers_dropped = dict.fromkeys(HANDSHAKE_DROPS, 0)
        self.tasks_dispatched = 0
        self.tasks_retried = 0
        self.tasks_timed_out = 0
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"phonocmap-hub-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()

    # -- the backend-facing surface ------------------------------------------

    def register_context(self, ctx_id: str, problem) -> None:
        """Make a context available for worker-side initialization."""
        with self._lock:
            if ctx_id not in self._contexts:
                self._contexts[ctx_id] = {
                    "op": "init",
                    "ctx_id": ctx_id,
                    "problem": wire.encode_payload(problem),
                }

    def ensure_worker(self, timeout: Optional[float] = None) -> None:
        """Block until at least one worker is connected, or fail typed.

        On timeout, queued futures are failed with
        :class:`WorkerLostError` too (they could only ever be served by
        a worker that is not coming), so callers' one-resubmit recovery
        — or a backend's degrade policy — engages instead of waiting
        out a future that nobody will resolve.
        """
        if timeout is None:
            timeout = worker_wait_timeout_s()
        if not self._worker_event.wait(timeout):
            error = WorkerLostError(
                f"no worker connected to tcp://{self.host}:{self.port} "
                f"after {timeout:.0f}s — start one with "
                f"'phonocmap worker --connect {self.host}:{self.port}'"
            )
            self._drain_pending(error)
            raise error

    def submit(self, ctx_id: str, fn_name: str, args: tuple, backend) -> Future:
        """Queue one task for any worker; returns its future."""
        task = _Task(ctx_id, fn_name, wire.encode_payload(args), backend)
        with self._lock:
            self.tasks_dispatched += 1
        self._tasks.put(task)
        return task.future

    def stats(self) -> dict:
        """Hub-level observability counters."""
        return {
            "address": f"tcp://{self.host}:{self.port}",
            "workers_connected": self.workers_connected,
            "workers_lost": self.workers_lost,
            "workers_rejected_auth": self.workers_rejected_auth,
            "workers_dropped": dict(self.workers_dropped),
            "tasks_queued": self._tasks.qsize(),
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_retried": self.tasks_retried,
            "tasks_timed_out": self.tasks_timed_out,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_missed": self.heartbeats_missed,
            "auth_required": self.auth_token is not None,
            "task_deadline_s": self.task_deadline_s,
        }

    def close(self) -> None:
        """Stop accepting, hang up on every worker (tests / teardown).

        Shutting the listener down wakes the accept thread blocked in
        ``accept()``; it is joined before the listener closes, so a
        closed hub's port refuses connections instead of admitting one
        more worker that nothing serves or counts.
        """
        self._stop.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never listened, or closed already
        if self._accept_thread is not threading.current_thread():
            self._accept_thread.join()
        self._listener.close()

    # -- listener / dispatch machinery ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down
            if self._stop.is_set():
                conn.close()  # raced close(): never serve it
                return
            threading.Thread(
                target=self._serve_worker,
                args=(conn,),
                name=f"phonocmap-dispatch-{self.port}",
                daemon=True,
            ).start()

    def _handshake(self, conn: socket.socket, rfile, wfile) -> bool:
        """Read + authenticate the hello frame; True admits the worker.

        Runs entirely *before* the worker joins the fleet: a rejected
        peer never touches ``workers_connected``, the worker event, or
        the task queue — in-flight tasks on other workers are
        undisturbed by an authentication failure. Every connection it
        refuses is counted: in ``workers_rejected_auth``, or under its
        :data:`HANDSHAKE_DROPS` path in ``workers_dropped``.
        """
        conn.settimeout(HELLO_TIMEOUT_S)
        try:
            frame = wire.read_frame(rfile, max_bytes=HELLO_MAX_BYTES)
        except TimeoutError:
            return self._drop("timeout")
        except ProtocolError:
            return self._drop("protocol")
        if frame is None:
            return self._drop("eof")
        try:
            hello = wire.decode_message(frame)
        except ValueError:
            hello = None
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            return self._drop("not_hello")
        if self.auth_token is not None:
            supplied = str(hello.get("token") or "")
            if not hmac.compare_digest(
                supplied.encode(), self.auth_token.encode()
            ):
                with self._lock:
                    self.workers_rejected_auth += 1
                try:
                    wire.write_message(
                        wfile, {"op": "goodbye", "error": "auth_failed"}
                    )
                except OSError:
                    pass
                return False
        return True

    def _drop(self, path: str) -> bool:
        """Count a connection the handshake drops on ``path``; False."""
        with self._lock:
            self.workers_dropped[path] += 1
        return False

    def _serve_worker(self, conn: socket.socket) -> None:
        """Own one worker connection: init contexts, dispatch, retry."""
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        if not self._handshake(conn, rfile, wfile):
            conn.close()
            return
        conn.settimeout(ROUND_TRIP_TIMEOUT_S)
        with self._lock:
            self.workers_connected += 1
            self._worker_event.set()
        initialized = set()
        task: Optional[_Task] = None
        idle_since = time.monotonic()
        try:
            while not self._stop.is_set():
                try:
                    task = self._tasks.get(timeout=0.2)
                except queue.Empty:
                    if (
                        self.heartbeat_interval_s
                        and time.monotonic() - idle_since
                        >= self.heartbeat_interval_s
                    ):
                        self._heartbeat(conn, rfile, wfile)
                        idle_since = time.monotonic()
                    continue
                if task.future.cancelled():
                    task = None
                    continue
                task.attempts += 1
                try:
                    if task.ctx_id not in initialized:
                        self._init_context(conn, rfile, wfile, task.ctx_id)
                        initialized.add(task.ctx_id)
                    reply = self._round_trip(conn, rfile, wfile, task)
                except (ConnectionError, OSError, EOFError):
                    raise  # worker lost: handled below, task still in hand
                self._resolve(task, reply)
                task = None
                idle_since = time.monotonic()
        except (ConnectionError, OSError, EOFError, ProtocolError):
            pass
        finally:
            with self._lock:
                self.workers_connected -= 1
                survivors = self.workers_connected
                if survivors == 0:
                    self._worker_event.clear()
                if not self._stop.is_set():
                    self.workers_lost += 1
            if task is not None:
                self._reassign(task, survivors)
            if survivors == 0 and not self._stop.is_set():
                # Fleet collapse: nobody is left to serve the queue.
                # Fail (or degrade) queued tasks now so caller retry
                # layers engage, instead of stranding futures until a
                # replacement worker maybe appears.
                self._drain_pending(
                    WorkerLostError(
                        f"all workers lost on tcp://{self.host}:{self.port} "
                        f"with tasks queued"
                    )
                )
            conn.close()

    def _heartbeat(self, conn: socket.socket, rfile, wfile) -> None:
        """Ping an idle worker; raise ``ConnectionError`` when it is gone.

        One ping, then one read for the *same* pong bounded by the whole
        miss budget, :attr:`heartbeat_misses` × :attr:`heartbeat_timeout_s`;
        each whole timeout that passes first counts as a missed
        heartbeat. One read, not one per miss: a socket file that timed
        out once refuses every later read, so a second read could never
        see a late pong. Repeated pings are never stacked, so the
        protocol cannot desync on a slow-but-alive worker.
        """
        wire.write_message(wfile, {"op": "ping"})
        with self._lock:
            self.heartbeats_sent += 1
        budget = max(1, self.heartbeat_misses)
        timeout = self.heartbeat_timeout_s
        conn.settimeout(budget * timeout)
        started = time.monotonic()
        try:
            reply = wire.read_message(rfile)
        except TimeoutError:
            with self._lock:
                self.heartbeats_missed += budget
            raise ConnectionError(
                f"worker missed {budget} heartbeats ({timeout:.1f}s each)"
            ) from None
        finally:
            conn.settimeout(ROUND_TRIP_TIMEOUT_S)
        if reply is None:
            raise ConnectionError("worker hung up during heartbeat")
        if reply.get("op") != "pong":
            raise ConnectionError(
                f"unexpected heartbeat reply {reply.get('op')!r}"
            )
        late = int((time.monotonic() - started) // timeout) if timeout else 0
        if late:
            with self._lock:
                self.heartbeats_missed += min(late, budget - 1)

    def _init_context(self, conn: socket.socket, rfile, wfile, ctx_id: str) -> None:
        """Initialize a context on the connected worker.

        The worker only decodes the problem and replies ``ready``, so the
        reply is bounded by the soft task deadline like a task's: a worker
        silent past it here is hung, not busy. The coupling model is no
        part of init; the worker's evaluator resolves it by cache key on
        the first task.
        """
        with self._lock:
            init = self._contexts[ctx_id]
        reply = self._exchange(conn, rfile, wfile, init, "init")
        if reply.get("op") != "ready":
            raise ConnectionError(f"unexpected init reply {reply.get('op')!r}")

    def _round_trip(self, conn: socket.socket, rfile, wfile, task: _Task) -> dict:
        """Send one task, await its reply under the soft deadline."""
        return self._exchange(
            conn,
            rfile,
            wfile,
            {
                "op": "task",
                "task_id": id(task),
                "ctx_id": task.ctx_id,
                "fn": task.fn_name,
                "payload": task.payload,
            },
            "task",
        )

    def _exchange(
        self, conn: socket.socket, rfile, wfile, message: dict, phase: str
    ) -> dict:
        """Write one request and read its reply under the soft deadline.

        A worker silent past :attr:`task_deadline_s` (when set) counts as
        a timed-out task; that and a hang-up raise ``ConnectionError``,
        which retires the connection and requeues the task in hand.
        """
        wire.write_message(wfile, message)
        deadline = self.task_deadline_s
        if deadline:
            conn.settimeout(deadline)
        try:
            reply = wire.read_message(rfile)
        except TimeoutError:
            with self._lock:
                self.tasks_timed_out += 1
            bound = deadline or ROUND_TRIP_TIMEOUT_S
            raise ConnectionError(
                f"worker silent past the {bound:.1f}s deadline during {phase}"
            ) from None
        finally:
            if deadline:
                conn.settimeout(ROUND_TRIP_TIMEOUT_S)
        if reply is None:
            raise ConnectionError(f"worker hung up during {phase}")
        return reply

    def _resolve(self, task: _Task, reply: dict) -> None:
        """Resolve a task's future from the worker's reply.

        An undecodable result payload (a corrupt frame) is a *worker*
        fault, not a task failure: it raises ``ConnectionError`` so the
        connection is retired and the task requeues on a healthy worker
        — determinism is preserved because the task simply re-runs.
        """
        op = reply.get("op")
        if op == "result":
            try:
                value = wire.decode_payload(reply.get("payload", ""))
            except ProtocolError as error:
                raise ConnectionError(
                    f"undecodable result frame: {error}"
                ) from None
            if not task.future.cancelled():
                try:
                    task.future.set_result(value)
                except InvalidStateError:
                    pass
            return
        if op == "error":
            error = None
            if reply.get("payload"):
                try:
                    error = wire.decode_payload(reply["payload"])
                except Exception:
                    error = None
            if not isinstance(error, BaseException):
                error = ExecutorError(
                    f"remote task failed: {reply.get('error')}\n"
                    f"{reply.get('traceback', '')}"
                )
            _fail_future(task.future, error)
            return
        raise ConnectionError(f"unexpected task reply {op!r}")

    def _reassign(self, task: _Task, survivors: int) -> None:
        """Requeue a task from a dead worker, or fail/degrade it out."""
        if task.attempts < MAX_TASK_ATTEMPTS and survivors > 0:
            with self._lock:
                self.tasks_retried += 1
            task.backend.note_retry()
            self._tasks.put(task)
            return
        reason = (
            "no live worker left to reassign to"
            if survivors == 0
            else f"task failed on {task.attempts} workers"
        )
        self._fail_or_degrade(
            task, WorkerLostError(f"worker lost mid-task and {reason}")
        )

    def _fail_or_degrade(self, task: _Task, error: BaseException) -> None:
        """Fail a task's future, unless its backend rescues it first."""
        try:
            if task.backend.degrade_task(task):
                return
        except Exception:
            pass  # a broken fallback must not mask the real error
        _fail_future(task.future, error)

    def _drain_pending(self, error: BaseException) -> int:
        """Fail or degrade every queued task; returns how many."""
        drained = 0
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                return drained
            drained += 1
            if not task.future.cancelled():
                self._fail_or_degrade(task, error)


#: address ("host:port") -> hub, plus spec aliases for port-0 binds.
_HUBS: Dict[str, WorkerHub] = {}
_HUBS_LOCK = threading.Lock()


def get_hub(spec: str, **hub_kwargs) -> WorkerHub:
    """Fetch (or lazily create) the hub listening at an executor spec.

    Hubs are per-address singletons: every backend whose spec resolves
    to the same listen address shares one listener, one worker fleet
    and one task queue. Port 0 explicitly requests a *fresh* ephemeral
    listener (tests, embedding); the created hub is registered under
    its resolved address only, so backends addressing the real port
    keep finding it. ``hub_kwargs`` (liveness/auth overrides, see
    :class:`WorkerHub`) apply only when this call creates the hub — an
    existing hub keeps its configuration.
    """
    spec = parse_executor_spec(spec)
    host, port = split_tcp_address(spec)
    with _HUBS_LOCK:
        if port != 0:
            hub = _HUBS.get(f"{host}:{port}")
            if hub is not None:
                return hub
        hub = WorkerHub(host, port, **hub_kwargs)
        _HUBS[f"{hub.host}:{hub.port}"] = hub
        return hub


class RemoteTcpBackend(ExecutorBackend):
    """Executor backend dispatching through a :class:`WorkerHub`.

    Registered in the pool registry like any other backend
    (``get_pool(..., executor="tcp://HOST:PORT")``). On construction it
    registers its execution context — the pickled problem — with the
    hub; it resolves no coupling model, because each worker resolves its
    own by cache key. ``n_workers`` remains the logical shard/chain
    count; the hub's connected-worker count only affects placement.

    Graceful degradation (policy ``"degrade"``): when remote
    execution is out of road — retries exhausted, the fleet collapsed,
    or no worker connected within ``PHONOCMAP_WORKER_WAIT_TIMEOUT_S``
    — tasks are finished on a local fallback backend built for the
    *same* ``(key, n_workers)``. The ladder is tcp → local → inline
    (``PHONOCMAP_DEGRADE_TO`` pins the first fallback rung; a local
    pool that cannot be built drops to inline). Because the logical
    decomposition is unchanged, degraded results stay bit-identical.
    The :attr:`degraded` flag is sticky while the fleet is empty and
    clears automatically once workers reconnect. The policy is the
    process setting :func:`repro.core.executor.worker_loss_policy`
    returns when the backend is built (default ``"raise"``: a typed
    ``WorkerLostError``).
    """

    kind = "tcp"

    def __init__(
        self,
        key: Tuple,
        problem,
        n_workers: int,
        executor: str = "tcp://127.0.0.1:0",
    ):
        super().__init__(key, n_workers)
        self.problem = problem
        self.spec = parse_executor_spec(executor)
        self.hub = get_hub(self.spec)
        self.on_worker_loss = worker_loss_policy()
        self.degrade_to = os.environ.get("PHONOCMAP_DEGRADE_TO") or "local"
        if self.degrade_to not in ("local", "inline"):
            raise ExecutorError(
                "PHONOCMAP_DEGRADE_TO must be 'local' or 'inline', "
                f"got {self.degrade_to!r}"
            )
        self.degraded = False
        self.tasks_degraded = 0
        self._closed = False
        self._fallback_lock = threading.Lock()
        self._fallback_backend: Optional[ExecutorBackend] = None
        self._ctx_id = hashlib.sha1(repr(key).encode()).hexdigest()[:16]
        self.hub.register_context(self._ctx_id, problem)

    def _submit(self, fn, /, *args) -> Future:
        if self._closed:
            raise RuntimeError("pool has been shut down")
        fn_name = next(
            (name for name, known in _parallel.TASKS.items() if known is fn), None
        )
        if fn_name is None:
            raise ExecutorError(
                f"{fn!r} is not a registered distributed task function"
            )
        if self.degraded:
            if self.hub.workers_connected > 0:
                self.degraded = False  # fleet recovered: back to remote
            else:
                self.tasks_degraded += 1
                return self._fallback().submit(fn, *args)
        try:
            self.hub.ensure_worker()
        except WorkerLostError:
            if self.on_worker_loss != "degrade":
                raise
            self.degraded = True
            self.tasks_degraded += 1
            return self._fallback().submit(fn, *args)
        return self.hub.submit(self._ctx_id, fn_name, args, self)

    # -- degradation ---------------------------------------------------------

    def degrade_task(self, task: _Task) -> bool:
        """Rescue a remote task onto the fallback backend (hub hook).

        Called by the hub when a task is out of remote attempts. True
        means the task's future will be resolved by the fallback; False
        declines (policy ``"raise"``) and the hub fails the future.
        """
        if self._closed or self.on_worker_loss != "degrade":
            return False
        fn = _parallel.TASKS[task.fn_name]
        inner = self._fallback().submit(fn, *wire.decode_payload(task.payload))
        self.degraded = True
        self.tasks_degraded += 1
        _chain_future(inner, task.future)
        return True

    def _fallback(self) -> ExecutorBackend:
        """The lazily-built local fallback backend (ladder local→inline)."""
        with self._fallback_lock:
            if self._fallback_backend is not None and self._fallback_backend.alive():
                return self._fallback_backend
            self._fallback_backend = None
            if self.degrade_to == "local":
                try:
                    self._fallback_backend = LocalProcessBackend(
                        self.key, self.problem, self.n_workers
                    )
                except Exception:
                    pass  # no process pool here: drop to the inline rung
            if self._fallback_backend is None:
                self._fallback_backend = InlineBackend(
                    self.key, self.problem, self.n_workers
                )
            return self._fallback_backend

    # -- the ExecutorBackend surface -----------------------------------------

    def alive(self) -> bool:
        return not self.broken and not self._closed

    def info(self) -> dict:
        """This backend's own counters, with its hub's fleet-wide ones
        (shared by every TCP backend at the address) nested under ``hub``."""
        info = super().info()
        fallback = self._fallback_backend
        info.update(
            {
                "hub": self.hub.stats(),
                "on_worker_loss": self.on_worker_loss,
                "degrade_to": self.degrade_to,
                "degraded": self.degraded,
                "tasks_degraded": self.tasks_degraded,
                "fallback": None if fallback is None else fallback.kind,
            }
        )
        return info

    def close(self, wait: bool = True) -> None:
        # The hub is shared by address across backends (other problems,
        # other worker counts) — closing one backend must not strand them.
        self._closed = True
        with self._fallback_lock:
            fallback, self._fallback_backend = self._fallback_backend, None
        if fallback is not None:
            fallback.close(wait=wait)

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"hub {self.hub.host}:{self.hub.port}"
        if self.degraded:
            state += f", degraded->{self.degrade_to}"
        return f"RemoteTcpBackend({self.problem!r}, {state})"
