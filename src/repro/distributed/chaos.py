"""Deterministic fault injection for the distributed execution stack.

Chaos engineering, minus the chaos: faults here are **counted, not
random**. A :class:`Fault` names an instrumented *site* (a point in the
worker's serve loop), an *action*, and the hit indices it fires on —
``at`` (1-based first hit) and ``count`` (consecutive hits). A
:class:`ChaosPlan` is a set of faults with thread-safe per-site hit
counters. Because triggers are counted per process rather than drawn
from an RNG, a failing chaos test replays exactly, and the determinism
contract stays checkable: for a given ``(seed, n_workers)`` the final
results must be bit-identical to the inline oracle no matter which
faults fired.

Sites (all worker-side — the hub is the component under test, so it is
never instrumented):

``worker.loop``
    Top of the worker's message loop, before reading the next frame.
``worker.init``
    Before handling an ``init`` (decoding the shipped problem).
``worker.task``
    Before executing a dispatched task.
``worker.result``
    Before sending a task reply (the ``corrupt`` action mangles it).

Actions:

``delay``
    Sleep ``seconds`` (default 0.25) — a slow worker / slow frame.
``hang``
    Sleep ``seconds`` (default 30) — a silent worker; long enough to
    overrun any test-scale heartbeat budget or task deadline.
``drop``
    Raise ``ConnectionError`` at the site — a dropped connection.
``kill``
    ``os._exit(137)`` — a SIGKILL-grade mid-task death. Only meaningful
    in subprocess workers (an in-thread worker would take the test
    process down with it).
``corrupt``
    Return the marker string ``"corrupt"`` so the site mangles its
    *output* (the worker sends an undecodable result payload; the hub
    must retire the connection and re-place the task).

Plans install per process (:func:`install` / :func:`uninstall`) or ride
the ``PHONOCMAP_CHAOS`` environment variable into worker subprocesses —
``site:action[:key=value]...`` terms joined by ``;``, e.g.::

    PHONOCMAP_CHAOS='worker.task:hang:at=2:seconds=30;worker.result:corrupt'

:func:`run_scenario` packages the named end-to-end scenarios the
``phonocmap chaos`` CLI, the chaos test suite and
``benchmarks/bench_chaos.py`` share: each builds a small mapping
problem, computes the inline-oracle answer, runs the same workload on a
TCP fleet with one misbehaving worker (or a degraded/paranoid hub), and
asserts the contract — bit-identical results, or a fast typed failure
where the scenario's policy demands one.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError

__all__ = [
    "ACTIONS",
    "ChaosPlan",
    "Fault",
    "SCENARIOS",
    "SITES",
    "active",
    "install",
    "install_from_env",
    "parse_spec",
    "run_scenario",
    "trip",
    "uninstall",
]

#: Known injection sites (free-form site names are allowed for forward
#: compatibility, but these are the instrumented ones).
SITES = ("worker.loop", "worker.init", "worker.task", "worker.result")

#: Valid fault actions and their default ``seconds``.
ACTIONS = {"delay": 0.25, "hang": 30.0, "drop": None, "kill": None, "corrupt": None}


class Fault:
    """One deterministic fault: a site, an action, and its trigger window."""

    __slots__ = ("site", "action", "at", "count", "seconds")

    def __init__(
        self,
        site: str,
        action: str,
        at: int = 1,
        count: int = 1,
        seconds: Optional[float] = None,
    ):
        if action not in ACTIONS:
            raise ConfigurationError(
                f"chaos action must be one of {sorted(ACTIONS)}, got {action!r}"
            )
        if at < 1 or count < 1:
            raise ConfigurationError(
                f"chaos trigger window must be positive, got at={at} count={count}"
            )
        self.site = str(site)
        self.action = action
        self.at = int(at)
        self.count = int(count)
        default = ACTIONS[action]
        self.seconds = float(seconds) if seconds is not None else default

    def matches(self, hit: int) -> bool:
        """Whether this fault fires on the ``hit``-th visit to its site."""
        return self.at <= hit < self.at + self.count

    def spec(self) -> str:
        """The ``PHONOCMAP_CHAOS`` term encoding this fault."""
        term = f"{self.site}:{self.action}:at={self.at}:count={self.count}"
        if self.seconds is not None and self.seconds != ACTIONS[self.action]:
            term += f":seconds={self.seconds:g}"
        return term

    def __repr__(self) -> str:
        return f"Fault({self.spec()!r})"


class ChaosPlan:
    """A set of faults plus thread-safe hit accounting for one process."""

    def __init__(self, faults: Iterable[Fault]):
        self.faults: List[Fault] = list(faults)
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: ``(site, action, hit)`` triples, in trigger order (diagnostics).
        self.triggered: List[tuple] = []

    def take(self, site: str) -> Optional[Fault]:
        """Count one visit to ``site``; return the fault firing on it."""
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for fault in self.faults:
                if fault.site == site and fault.matches(hit):
                    self.triggered.append((site, fault.action, hit))
                    return fault
        return None

    def hits(self) -> Dict[str, int]:
        """Per-site visit counts so far."""
        with self._lock:
            return dict(self._hits)

    def spec(self) -> str:
        """The ``PHONOCMAP_CHAOS`` string encoding this plan."""
        return ";".join(fault.spec() for fault in self.faults)

    def __repr__(self) -> str:
        return f"ChaosPlan({self.spec()!r})"


def parse_spec(text: str) -> ChaosPlan:
    """Parse a ``PHONOCMAP_CHAOS`` string into a :class:`ChaosPlan`."""
    faults = []
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        fields = term.split(":")
        if len(fields) < 2:
            raise ConfigurationError(
                f"chaos term must be 'site:action[:key=value]...', got {term!r}"
            )
        site, action = fields[0], fields[1]
        kwargs: dict = {}
        for field in fields[2:]:
            key, sep, value = field.partition("=")
            if not sep or key not in ("at", "count", "seconds"):
                raise ConfigurationError(
                    f"chaos fault option must be at=/count=/seconds=, "
                    f"got {field!r} in {term!r}"
                )
            try:
                kwargs[key] = float(value) if key == "seconds" else int(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad chaos option value {field!r} in {term!r}"
                ) from None
        faults.append(Fault(site, action, **kwargs))
    return ChaosPlan(faults)


_PLAN: Optional[ChaosPlan] = None


def install(plan: ChaosPlan) -> ChaosPlan:
    """Install a plan for this process (replacing any active one)."""
    global _PLAN
    _PLAN = plan
    return plan


def uninstall() -> Optional[ChaosPlan]:
    """Remove the active plan; returns it (with its trigger history)."""
    global _PLAN
    plan, _PLAN = _PLAN, None
    return plan


def active() -> Optional[ChaosPlan]:
    """The currently installed plan, if any."""
    return _PLAN


def install_from_env() -> Optional[ChaosPlan]:
    """Install the plan ``PHONOCMAP_CHAOS`` describes, if set.

    This is how a plan reaches ``phonocmap worker`` subprocesses: the
    scenario runner (or an operator reproducing an incident) sets the
    variable in the worker's environment and the worker installs it at
    startup.
    """
    spec = os.environ.get("PHONOCMAP_CHAOS")
    if not spec:
        return None
    return install(parse_spec(spec))


def trip(site: str) -> Optional[str]:
    """Visit an injection site; perform/report the firing fault's action.

    Returns ``None`` (no fault — the overwhelmingly common, nearly free
    path), or the action name after performing its side effect:
    ``delay``/``hang`` have already slept, ``drop`` raises
    ``ConnectionError``, ``kill`` does not return, and ``corrupt`` is
    returned for the call site to mangle its own output.
    """
    plan = _PLAN
    if plan is None:
        return None
    fault = plan.take(site)
    if fault is None:
        return None
    action = fault.action
    if action in ("delay", "hang"):
        time.sleep(fault.seconds)
        return action
    if action == "drop":
        raise ConnectionError(f"chaos: dropped connection at {site}")
    if action == "kill":
        os._exit(137)
    return action  # "corrupt": the site mangles its output


# ---------------------------------------------------------------------------
# End-to-end scenarios
# ---------------------------------------------------------------------------

#: Scenario name -> description. Fault-plan scenarios run a compare on a
#: TCP fleet of clean workers plus one misbehaving worker; the special
#: scenarios exercise fleet collapse (both policies) and authentication.
SCENARIOS = {
    "baseline": "no faults: plain TCP fleet vs the inline oracle",
    "hang": "a worker hangs mid-task; the soft deadline re-places the task",
    "silent": "a worker goes silent while idle; heartbeats retire it",
    "kill": "a worker dies (os._exit) mid-task; the task is re-placed",
    "corrupt": "a worker sends an undecodable result; connection retired",
    "drop": "a worker drops its connection mid-task",
    "slow": "a worker delays every reply; results unchanged, just later",
    "fleet-degrade": "no workers at all; policy 'degrade' finishes locally",
    "fleet-raise": "no workers at all; policy 'raise' fails fast, typed",
    "auth": "an unauthenticated worker is rejected; authed fleet proceeds",
}

#: Fault plans for the fleet-of-workers scenarios (the misbehaving
#: worker's ``PHONOCMAP_CHAOS``). ``at=1``: the first task (or loop
#: visit) the chaotic worker sees misfires — it connects first, so it
#: sees one.
_SCENARIO_FAULTS = {
    "baseline": None,
    "hang": "worker.task:hang:seconds=30",
    "silent": "worker.loop:hang:at=2:seconds=30",
    "kill": "worker.task:kill",
    "corrupt": "worker.result:corrupt",
    "drop": "worker.task:drop",
    "slow": "worker.task:delay:count=3:seconds=0.3",
}

_AUTH_TOKEN = "chaos-scenario-token"


def _spawn_worker(port: int, cache_dir: str, extra_env: Optional[dict] = None):
    """Start a ``phonocmap worker`` subprocess against a hub port.

    The worker's stderr goes to a file in ``cache_dir`` (the scenario's
    temporary directory), named by the returned process's
    ``stderr_path``, so :func:`_wait_for_workers` can say why a worker
    never settled.
    """
    import subprocess
    import sys
    import tempfile

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PHONOCMAP_CHAOS", None)  # clean workers stay clean
    if extra_env:
        env.update(extra_env)
    with tempfile.NamedTemporaryFile(
        dir=cache_dir, prefix="worker-", suffix=".stderr", delete=False
    ) as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--connect", f"127.0.0.1:{port}", "--model-cache", cache_dir],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
    process.stderr_path = stderr.name
    return process


def _stderr_tail(worker, lines: int = 3) -> str:
    """The last ``lines`` lines a spawned worker wrote to stderr."""
    try:
        with open(worker.stderr_path, errors="replace") as handle:
            tail = handle.read().strip().splitlines()[-lines:]
    except OSError as error:
        return f"<unreadable: {error}>"
    return " | ".join(tail) or "<empty>"


def _wait_for_workers(hub, workers: List, timeout: float = 60.0) -> None:
    """Wait until every worker spawned against ``hub`` has *settled*.

    ``workers`` are all the processes :func:`_spawn_worker` started
    against this hub. Settled means connected, rejected at auth, or
    connected-then-lost — the sum covers every fate a spawned worker can
    meet, so the wait cannot deadlock when a chaotic worker is
    heartbeat-reaped while the rest of the fleet is still dialing in.
    On timeout the error names each worker's exit status (``None``:
    still running) and the last lines of its stderr.
    """
    count = len(workers)
    deadline = time.monotonic() + timeout
    while (
        hub.workers_connected + hub.workers_lost + hub.workers_rejected_auth
    ) < count:
        if time.monotonic() > deadline:
            fates = "".join(
                f"; worker pid {worker.pid} exit {worker.poll()}, "
                f"stderr: {_stderr_tail(worker)}"
                for worker in workers
            )
            raise TimeoutError(
                f"only {hub.workers_connected}/{count} workers connected "
                f"({hub.workers_lost} lost, {hub.workers_rejected_auth} "
                f"rejected at auth){fates}"
            )
        time.sleep(0.05)


def _results_identical(reference: dict, candidate: dict) -> bool:
    import numpy as np

    for strategy, ref in reference.items():
        got = candidate[strategy]
        if (
            got.best_score != ref.best_score
            or got.evaluations != ref.evaluations
            or got.history != ref.history
            or not np.array_equal(
                got.best_mapping.assignment, ref.best_mapping.assignment
            )
        ):
            return False
    return True


def run_scenario(
    name: str,
    app: str = "mwd",
    budget: int = 600,
    seed: int = 13,
    n_workers: int = 2,
    strategies: Optional[List[str]] = None,
    task_deadline_s: float = 4.0,
) -> dict:
    """Run one named chaos scenario end to end; returns a report dict.

    The report carries ``ok`` (the scenario's contract held), the
    observed ``outcome`` (``"identical"`` or ``"raised:<Type>"``), wall
    times for the oracle and the faulted run, and the hub's counters.
    Raises :class:`ConfigurationError` for an unknown scenario name —
    infrastructure failures (workers that never connect) propagate as
    their own exceptions rather than being folded into ``ok``.
    """
    import tempfile

    from repro.analysis.experiments import build_case_study_network
    from repro.appgraph.benchmarks import grid_side_for, load_benchmark
    from repro.core import executor as _executor
    from repro.core.dse import DesignSpaceExplorer
    from repro.core.executor import WorkerLostError
    from repro.core.pool import release_pools
    from repro.core.problem import MappingProblem
    from repro.distributed.scheduler import get_hub
    from repro.models.coupling import CouplingModel

    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    strategies = list(strategies or ("rs", "ga"))
    fleet_scenario = name in ("fleet-degrade", "fleet-raise")

    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    problem = MappingProblem(cg, network, "snr")

    report = {
        "scenario": name,
        "description": SCENARIOS[name],
        "app": app,
        "budget": budget,
        "seed": seed,
        "n_workers": n_workers,
        "strategies": strategies,
    }

    with tempfile.TemporaryDirectory() as cache_dir:
        CouplingModel.for_network(network, cache_dir=cache_dir).save_cached(
            cache_dir
        )
        oracle = DesignSpaceExplorer(
            problem, n_workers=n_workers, executor="inline",
            model_cache_dir=cache_dir,
        )
        started = time.perf_counter()
        reference = oracle.compare(
            strategies, budget=budget, seed=seed, n_workers=n_workers
        )
        report["oracle_wall_s"] = time.perf_counter() - started

        hub = get_hub(
            "tcp://127.0.0.1:0",
            heartbeat_interval_s=0.5,
            heartbeat_timeout_s=0.5,
            heartbeat_misses=2,
            task_deadline_s=task_deadline_s,
            auth_token=_AUTH_TOKEN if name == "auth" else None,
        )
        spec = f"tcp://127.0.0.1:{hub.port}"
        workers = []
        saved_policy = None
        saved_env = {
            key: os.environ.get(key)
            for key in ("PHONOCMAP_WORKER_WAIT_TIMEOUT_S", "PHONOCMAP_DEGRADE_TO")
        }
        try:
            if fleet_scenario:
                # No workers, a short first-worker wait, and the policy
                # under test; "degrade" falls straight to the inline
                # rung — scenarios must not assume spare CPUs.
                os.environ["PHONOCMAP_WORKER_WAIT_TIMEOUT_S"] = "1"
                os.environ["PHONOCMAP_DEGRADE_TO"] = "inline"
                saved_policy = _executor.set_worker_loss_policy(
                    "degrade" if name == "fleet-degrade" else "raise"
                )
            else:
                clean_workers = n_workers
                if name == "auth":
                    # The intruder knows no token; the fleet does.
                    workers.append(_spawn_worker(hub.port, cache_dir))
                    fleet_env = {"PHONOCMAP_AUTH_TOKEN": _AUTH_TOKEN}
                    deadline = time.monotonic() + 30
                    while hub.workers_rejected_auth == 0:
                        if time.monotonic() > deadline:
                            raise TimeoutError("intruder was never rejected")
                        time.sleep(0.05)
                else:
                    fleet_env = {}
                    fault_spec = _SCENARIO_FAULTS[name]
                    if fault_spec:
                        # The chaotic worker connects first and
                        # *completes* the fleet (chaotic + n-1 clean):
                        # with exactly as many workers as concurrently
                        # dispatched tasks, every worker — the chaotic
                        # one included — is guaranteed to receive one,
                        # so the fault deterministically fires.
                        workers.append(
                            _spawn_worker(
                                hub.port, cache_dir,
                                {"PHONOCMAP_CHAOS": fault_spec},
                            )
                        )
                        _wait_for_workers(hub, workers)
                        clean_workers = max(1, n_workers - 1)
                for _ in range(clean_workers):
                    workers.append(
                        _spawn_worker(hub.port, cache_dir, fleet_env)
                    )
                _wait_for_workers(hub, workers)
                if name == "silent":
                    # The hung worker must be reaped by heartbeats while
                    # *idle* — before any task exists that a deadline
                    # could catch instead. interval + misses × timeout
                    # bounds this at seconds, not the 20 allowed here.
                    deadline = time.monotonic() + 20
                    while hub.workers_lost == 0:
                        if time.monotonic() > deadline:
                            raise TimeoutError(
                                "silent worker was never heartbeat-reaped"
                            )
                        time.sleep(0.05)

            explorer = DesignSpaceExplorer(
                problem, n_workers=n_workers, executor=spec,
                model_cache_dir=cache_dir,
            )
            started = time.perf_counter()
            outcome = "identical"
            try:
                candidate = explorer.compare(
                    strategies, budget=budget, seed=seed, n_workers=n_workers
                )
                if not _results_identical(reference, candidate):
                    outcome = "mismatch"
            except WorkerLostError:
                outcome = "raised:WorkerLostError"
            report["faulted_wall_s"] = time.perf_counter() - started
            report["outcome"] = outcome
            report["hub"] = hub.stats()

            expected = (
                "raised:WorkerLostError" if name == "fleet-raise" else "identical"
            )
            report["expected"] = expected
            ok = outcome == expected
            if name == "auth":
                ok = ok and report["hub"]["workers_rejected_auth"] >= 1
            if name in ("hang", "silent", "kill", "corrupt", "drop"):
                ok = ok and report["hub"]["workers_lost"] >= 1
            report["ok"] = ok
        finally:
            if saved_policy is not None or fleet_scenario:
                _executor.set_worker_loss_policy(saved_policy)
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            release_pools(problem=problem)
            hub.close()
            for worker in workers:
                if worker.poll() is None:
                    worker.terminate()
            for worker in workers:
                try:
                    worker.wait(timeout=10)
                except Exception:
                    worker.kill()
    return report
