"""The deterministic fault-injection suite (``pytest -m chaos``).

Unit tests pin the chaos primitives (counted triggers, spec round-trip,
deterministic reconnect backoff); the scenario tests run every named
end-to-end scenario from :mod:`repro.distributed.chaos` and assert its
contract — results bit-identical to the inline oracle (or the typed
fast failure the scenario's policy demands), with recovery inside the
30-second liveness bound.
"""

from __future__ import annotations

import pytest

from repro.distributed import chaos
from repro.distributed.chaos import ChaosPlan, Fault, parse_spec, run_scenario
from repro.distributed.worker import (
    BACKOFF_CAP_S,
    reconnect_backoff_s,
)
from repro.errors import ConfigurationError

#: The per-test liveness bound from the acceptance criteria: every
#: scenario must detect its fault and finish recovery within this.
LIVENESS_BOUND_S = 30.0


class TestFault:
    def test_trigger_window(self):
        fault = Fault("worker.task", "drop", at=3, count=2)
        assert [fault.matches(hit) for hit in range(1, 7)] == [
            False, False, True, True, False, False,
        ]

    def test_defaults(self):
        assert Fault("worker.task", "delay").seconds == 0.25
        assert Fault("worker.task", "hang").seconds == 30.0
        assert Fault("worker.task", "delay", seconds=1.5).seconds == 1.5

    def test_rejects_bad_action_and_window(self):
        with pytest.raises(ConfigurationError):
            Fault("worker.task", "explode")
        with pytest.raises(ConfigurationError):
            Fault("worker.task", "drop", at=0)
        with pytest.raises(ConfigurationError):
            Fault("worker.task", "drop", count=0)


class TestPlan:
    def test_counted_not_random(self):
        plan = ChaosPlan([Fault("worker.task", "drop", at=2)])
        assert plan.take("worker.task") is None  # hit 1
        fired = plan.take("worker.task")  # hit 2
        assert fired is not None and fired.action == "drop"
        assert plan.take("worker.task") is None  # hit 3: window passed
        assert plan.hits() == {"worker.task": 3}
        assert plan.triggered == [("worker.task", "drop", 2)]

    def test_sites_count_independently(self):
        plan = ChaosPlan([Fault("worker.init", "delay")])
        assert plan.take("worker.task") is None
        assert plan.take("worker.init").action == "delay"

    def test_spec_round_trip(self):
        spec = "worker.task:hang:at=2:count=3:seconds=7;worker.result:corrupt"
        plan = parse_spec(spec)
        again = parse_spec(plan.spec())
        assert [f.spec() for f in again.faults] == [f.spec() for f in plan.faults]
        assert again.faults[0].seconds == 7.0
        assert again.faults[1].action == "corrupt"

    def test_parse_rejects_malformed_terms(self):
        for bad in ("worker.task", "worker.task:drop:at", "a:drop:when=3",
                    "a:drop:at=x"):
            with pytest.raises(ConfigurationError):
                parse_spec(bad)


class TestTrip:
    def test_no_plan_is_free(self):
        assert chaos.active() is None
        assert chaos.trip("worker.task") is None

    def test_installed_plan_fires_and_uninstalls(self):
        chaos.install(ChaosPlan([Fault("worker.task", "drop")]))
        try:
            with pytest.raises(ConnectionError):
                chaos.trip("worker.task")
        finally:
            plan = chaos.uninstall()
        assert chaos.active() is None
        assert plan.triggered == [("worker.task", "drop", 1)]

    def test_corrupt_is_reported_not_performed(self):
        chaos.install(ChaosPlan([Fault("worker.result", "corrupt")]))
        try:
            assert chaos.trip("worker.result") == "corrupt"
        finally:
            chaos.uninstall()

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv("PHONOCMAP_CHAOS", "worker.loop:delay:at=4")
        plan = chaos.install_from_env()
        try:
            assert plan is not None and plan.faults[0].at == 4
        finally:
            chaos.uninstall()
        monkeypatch.delenv("PHONOCMAP_CHAOS")
        assert chaos.install_from_env() is None


class TestReconnectBackoff:
    def test_deterministic_per_worker_and_attempt(self):
        a = reconnect_backoff_s("host:1", 3, pid=100)
        assert a == reconnect_backoff_s("host:1", 3, pid=100)
        assert a != reconnect_backoff_s("host:1", 3, pid=101)
        assert a != reconnect_backoff_s("host:2", 3, pid=100)

    def test_exponential_with_cap_and_bounded_jitter(self):
        for attempt in range(1, 12):
            delay = reconnect_backoff_s("h:1", attempt, pid=7)
            base = min(BACKOFF_CAP_S, 0.5 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25
        assert reconnect_backoff_s("h:1", 50, pid=7) <= BACKOFF_CAP_S * 1.25


@pytest.mark.chaos
@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::ResourceWarning")
@pytest.mark.parametrize("name", sorted(chaos.SCENARIOS))
def test_scenario_holds_contract(name):
    report = run_scenario(name, budget=200)
    assert report["ok"], report
    assert report["faulted_wall_s"] < LIVENESS_BOUND_S, report


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError, match="unknown chaos scenario"):
        run_scenario("entropy")


@pytest.mark.chaos
@pytest.mark.slow
def test_unsettled_worker_timeout_names_exit_status_and_stderr(tmp_path):
    """A worker that dies before dialing in is named in the wait's error.

    An unparseable ``PHONOCMAP_CHAOS`` makes the worker exit at once
    with status 2 and a usage line on stderr; the settle wait must
    report both instead of a bare connected count.
    """
    from repro.distributed.chaos import _spawn_worker, _wait_for_workers
    from repro.distributed.scheduler import WorkerHub

    hub = WorkerHub("127.0.0.1", 0)
    worker = _spawn_worker(hub.port, str(tmp_path), {"PHONOCMAP_CHAOS": "bogus"})
    try:
        assert worker.wait(timeout=30) == 2
        with pytest.raises(TimeoutError) as raised:
            _wait_for_workers(hub, [worker], timeout=0.2)
    finally:
        hub.close()
    message = str(raised.value)
    assert "only 0/1 workers connected" in message
    assert f"worker pid {worker.pid} exit 2" in message
    assert "error: chaos term must be" in message
