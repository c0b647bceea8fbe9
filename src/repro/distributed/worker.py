"""The ``phonocmap worker`` process: remote execution of registered tasks.

A worker dials the scheduler (``phonocmap worker --connect HOST:PORT``),
announces itself, and then serves a simple request loop over the
newline-JSON wire protocol (:mod:`repro.distributed.wire`):

``init``
    Carries a pickled :class:`~repro.core.problem.MappingProblem`
    (23-73 KB for the paper's meshes — CG plus network netlist, never
    coupling matrices). The worker decodes it into a
    :class:`~repro.core.parallel.WorkerContext` and replies
    ``ready``. The context's evaluator gets the coupling model (and from
    it the noise kernel) on the first task the way every evaluator does,
    through :meth:`~repro.models.coupling.CouplingModel.for_network` by
    cache key: the process cache, then the process's ``--model-cache``
    directory, then a build saved there. So a cold worker spends its first
    task on the build (seconds on an 8x8 mesh), and a soft
    ``task_deadline_s`` must exceed that unless the cache is warm.

``task``
    Names a task function by its key in
    :data:`repro.core.parallel.TASKS` (``"strategy"`` →
    :func:`~repro.core.parallel.run_strategy_task`, ``"shard"`` →
    :func:`~repro.core.parallel.evaluate_shard_task`) plus its pickled
    positional arguments. The worker passes the function the context
    built by ``init`` — exactly the state a local pool worker holds — so
    results are bit-identical to any other backend. Task-level
    exceptions are pickled back whole (the scheduler re-raises the
    original exception, matching local-pool semantics) and do **not**
    kill the worker.

``ping`` / ``shutdown``
    Liveness probe (the hub's heartbeat) / graceful exit.

``goodbye``
    The hub refused this worker (failed authentication). The worker
    exits non-zero and never retries: a wrong token is a configuration
    error, not weather.

Authentication: when the hub requires a shared token
(``PHONOCMAP_AUTH_TOKEN`` on both sides, or ``--auth-token``), the
worker presents it in the hello frame.

Reconnection: by default a vanished scheduler (EOF, connection error,
timeout) still ends the worker — cattle-style, restart to reconnect.
With ``reconnect_attempts > 0`` (``--reconnect`` /
``PHONOCMAP_RECONNECT_ATTEMPTS``) the worker instead redials with
capped exponential backoff plus *deterministic* jitter (hashed from
``address | pid | attempt``, no RNG — two workers desynchronize their
retries, yet every run of the same worker retries on the same
schedule). A successfully served connection resets the budget.

Fault injection: the serve loop is instrumented with the
:mod:`repro.distributed.chaos` sites (``worker.loop``, ``worker.init``,
``worker.task``, ``worker.result``); a plan arrives per process via
``PHONOCMAP_CHAOS``. Without a plan the hooks are a dictionary miss.
"""

from __future__ import annotations

import hashlib
import os
import socket
import time
import traceback
from typing import Optional, Tuple

from repro.core import parallel as _parallel
from repro.core.executor import split_tcp_address
from repro.distributed import chaos, wire
from repro.errors import ProtocolError

__all__ = ["run_worker"]

#: Per-message socket timeout: a scheduler silent for this long means
#: the link is gone (the hub heartbeats idle workers far more often).
READ_TIMEOUT_S = 3600.0

#: Reconnect backoff shape: ``min(cap, base * 2**attempt)`` plus up to
#: 25% deterministic jitter.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def reconnect_backoff_s(address: str, attempt: int, pid: Optional[int] = None) -> float:
    """The delay before reconnect ``attempt`` (1-based), jitter included.

    Exponential with a cap, plus up to 25% jitter derived from
    ``sha1(address | pid | attempt)`` — deterministic for a given
    worker-and-attempt (replayable tests, reproducible incident
    timelines) while distinct workers spread their redials instead of
    stampeding a recovering hub in lockstep.
    """
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
    seed = f"{address}|{os.getpid() if pid is None else pid}|{attempt}"
    digest = hashlib.sha1(seed.encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (1.0 + 0.25 * fraction)


def run_worker(
    address: str,
    auth_token: Optional[str] = None,
    reconnect_attempts: Optional[int] = None,
) -> int:
    """Serve tasks from the scheduler at ``address`` until it hangs up.

    Models load from, and builds save into, the process's model cache
    directory (``phonocmap worker --model-cache``), which this function
    never sets: a worker hosted on a thread cannot change it for its
    whole process. A pre-seeded cache spares a cold worker the build.

    Parameters
    ----------
    address : str
        ``HOST:PORT`` (a ``tcp://`` prefix is tolerated) of the
        scheduler's :class:`~repro.distributed.scheduler.WorkerHub`.
    auth_token : str, optional
        Shared secret presented in the hello frame; defaults to
        ``PHONOCMAP_AUTH_TOKEN``. Required when the hub enforces
        authentication — without it the hub replies ``goodbye`` and
        this function returns 1.
    reconnect_attempts : int, optional
        Consecutive redials after a lost connection before giving up
        (default ``PHONOCMAP_RECONNECT_ATTEMPTS``, else 0: exit on the
        first loss, the historical cattle-process behaviour). Delays
        follow :func:`reconnect_backoff_s`; a connection that served
        successfully resets the budget. An authentication rejection
        never retries.

    Returns
    -------
    int
        Process exit code — 0 on a graceful shutdown or scheduler EOF,
        1 on rejection or when the reconnect budget runs out on a
        connect failure.
    """
    if chaos.active() is None:
        chaos.install_from_env()
    if auth_token is None:
        auth_token = os.environ.get("PHONOCMAP_AUTH_TOKEN") or None
    if reconnect_attempts is None:
        reconnect_attempts = _env_int("PHONOCMAP_RECONNECT_ATTEMPTS", 0)
    attempt = 0
    while True:
        try:
            code, retryable = _serve_connection(address, auth_token)
            attempt = 0  # served: a later loss starts a fresh budget
        except (ConnectionError, TimeoutError, OSError, ProtocolError, EOFError):
            code, retryable = 1, True
        if not retryable or attempt >= reconnect_attempts:
            return code
        attempt += 1
        time.sleep(reconnect_backoff_s(address, attempt))


def _serve_connection(
    address: str, auth_token: Optional[str]
) -> Tuple[int, bool]:
    """Dial and serve one connection; returns ``(exit_code, retryable)``."""
    host, port = split_tcp_address(address)
    sock = socket.create_connection((host, port))
    try:
        sock.settimeout(READ_TIMEOUT_S)
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        hello = {"op": "hello", "pid": os.getpid(), "host": socket.gethostname()}
        if auth_token is not None:
            hello["token"] = auth_token
        wire.write_message(wfile, hello)
        contexts = {}
        while True:
            chaos.trip("worker.loop")
            message = wire.read_message(rfile)
            if message is None:
                return 0, True  # scheduler EOF: redial if budgeted
            op = message.get("op")
            if op == "shutdown":
                return 0, False
            if op == "goodbye":
                # Refused (failed auth): a retry cannot succeed.
                return 1, False
            if op == "ping":
                wire.write_message(wfile, {"op": "pong"})
            elif op == "init":
                chaos.trip("worker.init")
                ctx_id = message["ctx_id"]
                contexts[ctx_id] = _parallel.WorkerContext(
                    wire.decode_payload(message["problem"])
                )
                wire.write_message(wfile, {"op": "ready", "ctx_id": ctx_id})
            elif op == "task":
                chaos.trip("worker.task")
                reply = _run_task(contexts, message)
                if chaos.trip("worker.result") == "corrupt":
                    # Not base64: the hub must fail to decode this and
                    # retire the connection, never trust the frame.
                    reply = dict(reply, payload="!!chaos-corrupt!!")
                wire.write_message(wfile, reply)
            # Unknown ops are skipped: lets the protocol grow without
            # stranding older workers.
    finally:
        sock.close()


def _run_task(contexts: dict, message: dict) -> dict:
    """Execute one dispatched task; never raises (errors ride the reply)."""
    task_id = message.get("task_id")
    try:
        context = contexts[message["ctx_id"]]
        fn = _parallel.TASKS[message["fn"]]
        result = fn(context, *wire.decode_payload(message["payload"]))
        return {
            "op": "result",
            "task_id": task_id,
            "payload": wire.encode_payload(result),
        }
    except Exception as error:  # noqa: BLE001 — forwarded to the scheduler
        try:
            payload = wire.encode_payload(error)
        except Exception:  # unpicklable exception: ship the text
            payload = None
        return {
            "op": "error",
            "task_id": task_id,
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
            "payload": payload,
        }
