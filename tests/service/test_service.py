"""End-to-end tests of the mapping-service daemon.

The contract under test is the determinism clause from
``docs/ARCHITECTURE.md``: every response the daemon returns is
**bit-identical to the equivalent offline run with the same seed**,
including while the request's batch work rides coalesced flights shared
with concurrent requests — of the same signature or interleaved with a
different one.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.analysis.distribution import random_mapping_distribution
from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import grid_side_for, load_benchmark
from repro.core import pool as pool_registry
from repro.core.dse import DesignSpaceExplorer
from repro.core.evaluator import MappingEvaluator
from repro.core.problem import MappingProblem
from repro.core.registry import available_strategies
from repro.distributed import wire
from repro.errors import ServiceError
from repro.models.coupling import clear_model_cache
from repro.service import (
    BatchCoalescer,
    CoalescingEvaluator,
    ServiceClient,
    ServiceCore,
    ServiceLimits,
    ServiceServer,
)
from repro.service import core as service_core_module
from repro.service.schema import parse_request


def offline_problem(app, objective="snr"):
    cg = load_benchmark(app)
    network = build_case_study_network("mesh", grid_side_for(cg), "crux")
    return MappingProblem(cg, network, objective)


#: A valid two-task inline CG, the base of the malformed variants.
INLINE_CG = {
    "name": "pair",
    "tasks": ["a", "b"],
    "edges": [{"src": "a", "dst": "b", "bandwidth": 1.0}],
}


@pytest.fixture
def core():
    core = ServiceCore(n_workers=1)
    yield core
    core.close(timeout=30)
    pool_registry.shutdown_pools()


class TestSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="kind"):
            parse_request({"kind": "teleport"})

    def test_request_must_be_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            parse_request(["optimize"])

    def test_app_and_cg_are_exclusive(self):
        with pytest.raises(ServiceError, match="exactly one"):
            parse_request({"kind": "evaluate", "app": "pip", "cg": {}})
        with pytest.raises(ServiceError, match="exactly one"):
            parse_request({"kind": "evaluate"})

    def test_unknown_benchmark(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            parse_request({"kind": "evaluate", "app": "doom"})

    def test_bad_dtype_and_backend(self):
        with pytest.raises(ServiceError, match="dtype"):
            parse_request({"kind": "evaluate", "app": "pip", "dtype": "f16"})
        # The noise kernel is no request field: ``backend`` is ignored
        # like any other unknown field.
        request = parse_request(
            {"kind": "evaluate", "app": "pip", "backend": "gpu"}
        )
        assert not hasattr(request, "backend")

    @pytest.mark.parametrize("value", ["false", "no", 0, None, []])
    def test_use_delta_must_be_a_json_boolean(self, value):
        with pytest.raises(ServiceError, match="use_delta") as raised:
            parse_request(
                {"kind": "optimize", "app": "pip", "use_delta": value}
            )
        assert (raised.value.status, raised.value.kind) == (400, "bad_request")

    def test_use_delta_booleans_parse(self):
        payload = {"kind": "optimize", "app": "pip"}
        assert parse_request(payload).use_delta is True
        for value in (True, False):
            request = parse_request(dict(payload, use_delta=value))
            assert request.use_delta is value

    def test_non_injective_mapping_rejected(self):
        with pytest.raises(ServiceError, match="distinct tiles"):
            parse_request(
                {"kind": "evaluate", "app": "pip", "mappings": [[0] * 8]}
            )

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ServiceError, match="8 tile indices"):
            parse_request(
                {"kind": "evaluate", "app": "pip", "mappings": [[0, 1, 2]]}
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ServiceError, match="seed"):
            parse_request({"kind": "evaluate", "app": "pip", "seed": -1})


class TestCoreDispatch:
    def test_evaluate_matches_offline_bit_exactly(self, core):
        body, status = core.handle(
            {"kind": "evaluate", "app": "pip", "seed": 3, "n_random": 16}
        )
        assert status == 200 and body["ok"], body
        problem = offline_problem("pip")
        evaluator = MappingEvaluator(problem)
        from repro.core.mapping import random_assignment_batch

        rows = random_assignment_batch(
            16, evaluator.n_tasks, evaluator.n_tiles, np.random.default_rng(3)
        )
        offline = evaluator.evaluate_batch(rows)
        evaluator.close()
        # Through a JSON round-trip: repr-based float serialization is
        # exact, so the wire format preserves bit-identity.
        wire = json.loads(json.dumps(body["result"]))
        assert wire["worst_snr_db"] == offline.worst_snr_db.tolist()
        assert (
            wire["worst_insertion_loss_db"]
            == offline.worst_insertion_loss_db.tolist()
        )

    def test_explicit_mappings_on_the_sparse_kernel(self, core, pin_kernel):
        # pip resolves the dense kernel: pin sparse to serve it too.
        pin_kernel("sparse")
        problem = offline_problem("pip")
        rows = [list(range(8)), list(range(8))[::-1]]
        body, status = core.handle(
            {"kind": "evaluate", "app": "pip", "mappings": rows}
        )
        assert status == 200, body
        evaluator = MappingEvaluator(problem)
        assert evaluator.backend == "sparse"
        offline = evaluator.evaluate_batch(np.asarray(rows))
        evaluator.close()
        assert body["result"]["worst_snr_db"] == offline.worst_snr_db.tolist()

    def test_optimize_matches_offline_run(self, core):
        body, status = core.handle(
            {
                "kind": "optimize", "app": "pip", "strategy": "rs",
                "budget": 128, "seed": 9,
            }
        )
        assert status == 200, body
        with DesignSpaceExplorer(offline_problem("pip")) as explorer:
            offline = explorer.run("rs", budget=128, seed=9)
        result = body["result"]
        assert result["best_score"] == offline.best_score
        assert result["assignment"] == offline.best_mapping.assignment.tolist()
        assert result["evaluations"] == offline.evaluations
        assert result["history"] == [[n, s] for n, s in offline.history]

    def test_distribution_matches_offline_sweep(self, core):
        body, status = core.handle(
            {"kind": "distribution", "app": "pip", "samples": 96, "seed": 5}
        )
        assert status == 200, body
        cg = load_benchmark("pip")
        offline = random_mapping_distribution(
            cg, build_case_study_network("mesh", grid_side_for(cg), "crux"),
            n_samples=96, seed=5,
        )
        assert body["result"]["worst_snr_db"] == offline.worst_snr_db.tolist()
        assert body["result"]["worst_loss_db"] == offline.worst_loss_db.tolist()

    def test_budget_caps_enforced(self):
        core = ServiceCore(limits=ServiceLimits(max_budget=100, max_samples=50,
                                                max_mappings=4))
        try:
            body, status = core.handle(
                {"kind": "optimize", "app": "pip", "budget": 101}
            )
            assert status == 400 and body["error"]["kind"] == "over_budget"
            body, status = core.handle(
                {"kind": "distribution", "app": "pip", "samples": 51}
            )
            assert status == 400 and body["error"]["kind"] == "over_budget"
            body, status = core.handle(
                {"kind": "evaluate", "app": "pip", "n_random": 5}
            )
            assert status == 400 and body["error"]["kind"] == "over_budget"
        finally:
            core.close(timeout=10)

    def test_queue_full_is_structured_429(self):
        limits = ServiceLimits(max_inflight=1, queue_size=1)
        core = ServiceCore(limits=limits)
        try:
            # Deterministically exhaust admission: take every queue slot
            # ourselves, then knock.
            taken = 0
            while core._queue_slots.acquire(blocking=False):
                taken += 1
            assert taken == limits.max_inflight + limits.queue_size
            body, status = core.handle({"kind": "evaluate", "app": "pip"})
            assert status == 429
            assert body["ok"] is False
            assert body["error"]["kind"] == "queue_full"
            assert "retry" in body["error"]["message"]
            for _ in range(taken):
                core._queue_slots.release()
            # stats still answers while the queue is full, and counts it
            assert core.stats()["rejected_queue_full"] == 1
        finally:
            core.close(timeout=10)

    def test_closed_core_answers_503(self, core):
        core.close(timeout=10)
        body, status = core.handle({"kind": "evaluate", "app": "pip"})
        assert status == 503
        assert body["error"]["kind"] == "shutting_down"

    def test_dtype_field_is_validation_only(self, core):
        payload = {"kind": "evaluate", "app": "pip", "n_random": 3, "seed": 4}
        plain = core.handle(payload)
        assert plain[1] == 200, plain
        assert core.handle(dict(payload, dtype="float64")) == plain
        # Every model is float64: another dtype is refused, never
        # silently computed at float64.
        for dtype in ("float32", "f16", [], {}):
            body, status = core.handle(dict(payload, dtype=dtype))
            assert status == 400 and body["error"]["kind"] == "bad_request"
            assert "dtype" in body["error"]["message"]

    @pytest.mark.parametrize(
        "fields",
        [
            {"app": "pip", "dtype": []},
            {"app": "pip", "dtype": {"a": 1}},
            {"cg": dict(INLINE_CG, edges=[["a", "b", 1]])},
            {"cg": dict(INLINE_CG, edges=["ab"])},
            {"cg": dict(INLINE_CG, edges=3)},
            {
                "cg": dict(
                    INLINE_CG,
                    edges=[{"src": "a", "dst": "b", "bandwidth": "fast"}],
                )
            },
            {"cg": dict(INLINE_CG, tasks=[["a"], ["b"]])},
            {
                "cg": dict(
                    INLINE_CG,
                    tasks=[0, 1, 2],
                    edges=[{"src": 0, "dst": 1}],
                )
            },
            {"cg": dict(INLINE_CG, name=5)},
            {
                "cg": dict(
                    INLINE_CG,
                    tasks=["a", "\ud800"],
                    edges=[{"src": "a", "dst": "\ud800"}],
                )
            },
        ],
        ids=[
            "dtype-list",
            "dtype-object",
            "edges-as-lists",
            "edges-as-strings",
            "edges-not-iterable",
            "bandwidth-not-a-number",
            "tasks-unhashable",
            "tasks-not-strings",
            "name-not-a-string",
            "task-name-lone-surrogate",
        ],
    )
    def test_malformed_payload_is_structured_400(self, core, fields):
        body, status = core.handle({"kind": "evaluate", **fields})
        assert status == 400, body
        assert body["error"]["kind"] == "bad_request"

    @pytest.mark.parametrize("sigma", ["nan", "inf", float("nan")])
    def test_non_finite_variation_sigma_is_400_naming_it(self, core, sigma):
        """A NaN sigma used to answer 200 with nonsense robust scores."""
        body, status = core.handle(
            {"kind": "evaluate", "app": "pip", "objective": "robust_snr",
             "variation_sigma": sigma, "n_random": 3, "seed": 1}
        )
        assert status == 400, body
        assert body["error"]["kind"] == "bad_request"
        assert "variation sigma" in body["error"]["message"]

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bandwidth_is_400_naming_the_edge(self, core, bandwidth):
        edge = {"src": "a", "dst": "b", "bandwidth": bandwidth}
        body, status = core.handle(
            {"kind": "evaluate", "objective": "weighted_loss",
             "cg": dict(INLINE_CG, edges=[edge])}
        )
        assert status == 400, body
        assert body["error"]["kind"] == "bad_request"
        assert "'a' -> 'b'" in body["error"]["message"]

    @pytest.mark.parametrize(
        "side, kind",
        [
            (b"1e30", "over_budget"),
            (b"1" + b"0" * 1999, "over_budget"),
            (b"1e400", "bad_request"),  # JSON's inf, which is no integer
        ],
        ids=["1e30", "2000_digits", "infinite"],
    )
    def test_oversized_model_is_rejected_before_any_build(self, core, side, kind):
        """A huge side must not start a network or model build, nor be
        raised to the fourth power: the request answers 400 at once
        instead of growing for minutes."""
        began = time.perf_counter()
        body, status = core.handle_json(
            b'{"kind": "evaluate", "app": "pip", "side": ' + side + b"}"
        )
        assert time.perf_counter() - began < 1.0
        assert status == 400 and body["error"]["kind"] == kind, body
        assert "side" in body["error"]["message"]
        assert core.stats()["limits"]["max_model_slots"] == 4096

    def test_model_slot_cap_counts_routes(self, core, monkeypatch):
        """pip's default 3x3 grid holds 81 slots per route."""
        monkeypatch.setattr(service_core_module, "_MAX_MODEL_SLOTS", 81)
        body, status = core.handle({"kind": "evaluate", "app": "pip"})
        assert status == 200, body
        body, status = core.handle({"kind": "evaluate", "app": "pip", "routes": 2})
        assert status == 400 and body["error"]["kind"] == "over_budget"
        assert "routes 2" in body["error"]["message"]

    def test_malformed_json_is_structured_error(self, core):
        body, status = core.handle_json(b"{nope")
        assert status == 400
        assert body["error"]["kind"] == "invalid_json"

    def test_infeasible_problem_is_400(self, core):
        # VOPD (16 tasks) cannot fit a 3x3 grid: eq. (2) violation.
        body, status = core.handle(
            {"kind": "evaluate", "app": "vopd", "side": 3}
        )
        assert status == 400
        assert body["ok"] is False


class TestCoalescing:
    def test_concurrent_requests_coalesce_and_stay_bit_identical(self):
        """The tentpole invariant, end to end over the unix socket.

        Two same-signature requests plus an interleaved different-seed
        distribution run concurrently; coalescing must engage (merged
        flights carry more than one submission) and every response must
        equal its offline counterpart bit for bit.
        """
        core = ServiceCore(n_workers=1, coalesce_window_s=0.05)
        responses = {}

        def call(name, payload, path):
            with ServiceClient(socket_path=path) as client:
                responses[name] = client.request(payload)

        requests = {
            "opt_snr": {"kind": "optimize", "app": "pip", "strategy": "rs",
                        "budget": 192, "seed": 11},
            "opt_loss": {"kind": "optimize", "app": "pip", "strategy": "rs",
                         "budget": 192, "seed": 11, "objective": "loss"},
            "dist": {"kind": "distribution", "app": "pip", "samples": 256,
                     "seed": 6},
        }
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "daemon.sock")
            with ServiceServer(core, socket_path=path):
                threads = [
                    threading.Thread(target=call, args=(name, payload, path))
                    for name, payload in requests.items()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                with ServiceClient(socket_path=path) as client:
                    stats = client.request({"kind": "stats"})["result"]
        for name, response in responses.items():
            assert response["ok"], (name, response)

        totals = stats["coalescing"]["totals"]
        assert totals["flights"] >= 1
        assert totals["coalesced_batches"] > 0, (
            "coalescing never engaged: " + json.dumps(totals)
        )
        assert totals["batches"] > totals["flights"]

        with DesignSpaceExplorer(offline_problem("pip", "snr")) as explorer:
            off_snr = explorer.run("rs", budget=192, seed=11)
        with DesignSpaceExplorer(offline_problem("pip", "loss")) as explorer:
            off_loss = explorer.run("rs", budget=192, seed=11)
        cg = load_benchmark("pip")
        off_dist = random_mapping_distribution(
            cg, build_case_study_network("mesh", grid_side_for(cg), "crux"),
            n_samples=256, seed=6,
        )
        assert responses["opt_snr"]["result"]["best_score"] == off_snr.best_score
        assert (
            responses["opt_snr"]["result"]["assignment"]
            == off_snr.best_mapping.assignment.tolist()
        )
        # Same seed, different objective: different winner, still exact —
        # the two rode the same flights (same objective-free pool key).
        assert responses["opt_loss"]["result"]["best_score"] == off_loss.best_score
        assert (
            responses["opt_loss"]["result"]["assignment"]
            == off_loss.best_mapping.assignment.tolist()
        )
        assert (
            responses["dist"]["result"]["worst_snr_db"]
            == off_dist.worst_snr_db.tolist()
        )

    def test_coalescer_splits_tables_per_ticket(self):
        problem = offline_problem("pip")
        shared = MappingEvaluator(problem)
        coalescer = BatchCoalescer(shared, window_s=0.05)
        try:
            from repro.core.mapping import random_assignment_batch

            rng = np.random.default_rng(0)
            a = random_assignment_batch(5, shared.n_tasks, shared.n_tiles, rng)
            b = random_assignment_batch(3, shared.n_tasks, shared.n_tiles, rng)
            ticket_a = coalescer.submit(a)
            ticket_b = coalescer.submit(b)
            tables_a = ticket_a.tables()
            tables_b = ticket_b.tables()
            reference = shared._submit(np.concatenate([a, b])).tables()
            for column_a, column_b, column in zip(tables_a, tables_b, reference):
                np.testing.assert_array_equal(
                    np.concatenate([column_a, column_b]), column
                )
            assert coalescer.stats.batches == 2
        finally:
            coalescer.close()
            shared.close()

    def test_score_only_loss_flight_never_runs_the_noise_contraction(
        self, monkeypatch
    ):
        """Loss riders declare only the worst-IL table, so their flight
        gathers IL and never touches the coupling matrix."""
        from repro.core.mapping import random_assignment_batch

        shared = MappingEvaluator(offline_problem("pip"))
        contractions = []
        monkeypatch.setattr(
            shared, "_tables_from_pairs",
            lambda *args: contractions.append(args) or 1 / 0,
        )
        coalescer = BatchCoalescer(shared, window_s=0.2)
        riders = [CoalescingEvaluator(offline_problem("pip", "loss"),
                                      coalescer=coalescer) for _ in range(2)]
        offline = MappingEvaluator(offline_problem("pip", "loss"))
        try:
            rng = np.random.default_rng(3)
            rows = [random_assignment_batch(n, 8, 9, rng) for n in (7, 5)]
            pending = [rider.submit_batch(block, score_only=True)
                       for rider, block in zip(riders, rows)]
            for batch, block in zip(pending, rows):
                got = batch.result()
                want = offline.evaluate_batch(block, score_only=True)
                np.testing.assert_array_equal(got.score, want.score)
                np.testing.assert_array_equal(
                    got.worst_insertion_loss_db, want.worst_insertion_loss_db
                )
                assert got.worst_snr_db is want.worst_snr_db is None
            assert coalescer.stats.flights == 1
            assert contractions == []
        finally:
            coalescer.close()
            shared.close()

    def test_mixed_flight_hands_each_rider_its_offline_tables(self):
        """One flight of a score-only loss search, a full SNR batch, a
        score-only mean-SNR search and a bare ticket: each gets exactly
        what its own evaluator computes offline, ``None`` fields
        included, and the bare ticket every table."""
        from repro.core.mapping import random_assignment_batch

        shared = MappingEvaluator(offline_problem("pip"))
        coalescer = BatchCoalescer(shared, window_s=0.2)
        riders = [("loss", True), ("snr", False), ("mean_snr", True)]
        rng = np.random.default_rng(4)
        rows = [random_assignment_batch(6, 8, 9, rng) for _ in range(4)]
        try:
            pending = [
                CoalescingEvaluator(
                    offline_problem("pip", objective), coalescer=coalescer
                ).submit_batch(block, score_only=score_only)
                for (objective, score_only), block in zip(riders, rows)
            ]
            bare = coalescer.submit(rows[3])
            for (objective, score_only), block, batch in zip(riders, rows, pending):
                got = batch.result()
                want = MappingEvaluator(
                    offline_problem("pip", objective)
                ).evaluate_batch(block, score_only=score_only)
                for field in ("worst_insertion_loss_db", "worst_snr_db", "score"):
                    got_field, want_field = getattr(got, field), getattr(want, field)
                    if want_field is None:
                        assert got_field is None, (objective, field)
                    else:
                        np.testing.assert_array_equal(got_field, want_field)
            for got, want in zip(bare.tables(), shared._submit(rows[3]).tables()):
                np.testing.assert_array_equal(got, want)
            assert coalescer.stats.flights == 1
            assert coalescer.stats.batches == 4
        finally:
            coalescer.close()
            shared.close()

    def test_mixed_kinds_and_objectives_match_offline_runs(self):
        """Concurrent requests of every kind over several objectives
        share flights of one key; each response equals its offline run."""
        core = ServiceCore(n_workers=1, coalesce_window_s=0.05)
        payloads = [
            {"kind": "distribution", "app": "pip", "samples": 256, "seed": 21},
            {"kind": "evaluate", "app": "pip", "n_random": 40, "seed": 22,
             "objective": "loss"},
            {"kind": "evaluate", "app": "pip", "n_random": 40, "seed": 23,
             "objective": "laser_power"},
        ] + [
            {"kind": "optimize", "app": "pip", "strategy": strategy,
             "objective": objective, "budget": 256, "seed": 24}
            for strategy in ("rs", "ga", "sa")
            for objective in ("snr", "loss", "weighted_loss")
        ]
        responses = [None] * len(payloads)

        def call(index):
            responses[index] = core.handle(payloads[index])

        try:
            threads = [threading.Thread(target=call, args=(index,))
                       for index in range(len(payloads))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            totals = core.stats()["coalescing"]["totals"]
        finally:
            core.close(timeout=30)
        assert totals["coalesced_batches"] > 0, totals
        cg = load_benchmark("pip")
        network = build_case_study_network("mesh", grid_side_for(cg), "crux")
        for payload, (body, status) in zip(payloads, responses):
            assert status == 200, body
            got = body["result"]
            problem = MappingProblem(cg, network, payload.get("objective", "snr"))
            if payload["kind"] == "distribution":
                offline = random_mapping_distribution(
                    cg, network, n_samples=256, seed=payload["seed"]
                )
                assert got["worst_snr_db"] == offline.worst_snr_db.tolist()
                assert got["worst_loss_db"] == offline.worst_loss_db.tolist()
            elif payload["kind"] == "evaluate":
                evaluator = MappingEvaluator(problem)
                rows = evaluator.random_vector_batch(
                    40, np.random.default_rng(payload["seed"])
                )
                metrics = evaluator.evaluate_batch(rows)
                assert got["score"] == metrics.score.tolist()
                assert got["worst_snr_db"] == metrics.worst_snr_db.tolist()
                assert (got["worst_insertion_loss_db"]
                        == metrics.worst_insertion_loss_db.tolist())
            else:
                result = DesignSpaceExplorer(problem).run(
                    payload["strategy"], budget=256, seed=payload["seed"]
                )
                assert got["best_score"] == float(result.best_score), payload
                assert got["assignment"] == result.best_mapping.assignment.tolist()
                assert got["history"] == [
                    [int(n), float(score)] for n, score in result.history
                ]

    def test_requests_for_one_app_share_its_graph_and_tables(
        self, core, monkeypatch
    ):
        """Per-architecture state is derived once: both requests read
        one CG, so both delta engines read one affected-row table."""
        from repro.core.delta import DeltaEvaluator

        seen = []
        original = ServiceCore._evaluator_for

        def evaluator_for(self, request, problem):
            seen.append(original(self, request, problem))
            return seen[-1]

        monkeypatch.setattr(ServiceCore, "_evaluator_for", evaluator_for)
        for seed in (1, 2):
            body, status = core.handle(
                {"kind": "optimize", "app": "pip", "strategy": "sa",
                 "budget": 128, "seed": seed}
            )
            assert status == 200, body
        first, second = seen
        assert first.cg is second.cg is load_benchmark("pip")
        assert DeltaEvaluator(first)._aff is DeltaEvaluator(second)._aff

    @pytest.mark.parametrize("release", ["wake", "leave"])
    def test_wake_and_leave_end_a_linger(self, release):
        """A lingering flight launches as soon as its last co-traveller
        is gone: the core's ``wake`` after a request binds elsewhere, or
        a joined request's ``leave``. Either must notify the flusher, or
        the flight waits out its 30 s window."""
        from repro.core.mapping import random_assignment_batch

        shared = MappingEvaluator(offline_problem("pip"))
        hint = [release == "wake"]
        coalescer = BatchCoalescer(shared, window_s=30.0, linger_hint=lambda: hint[0])
        member = object()
        try:
            if release == "leave":
                coalescer.join(member)
            ticket = coalescer.submit(
                random_assignment_batch(4, 8, 9, np.random.default_rng(0))
            )
            deadline = time.monotonic() + 10.0
            while not coalescer._lingering:
                assert time.monotonic() < deadline, "the flight never lingered"
                time.sleep(0.001)
            began = time.monotonic()
            if release == "wake":
                hint[0] = False
                coalescer.wake()
            else:
                coalescer.leave(member)
            landed = threading.Thread(target=ticket.tables, daemon=True)
            landed.start()
            landed.join(timeout=10.0)
            assert not landed.is_alive()
            assert time.monotonic() - began < 10.0
            assert coalescer.stats.lingered_flights == 1
        finally:
            coalescer.close()
            shared.close()

    def test_closed_coalescer_rejects_submissions(self):
        problem = offline_problem("pip")
        shared = MappingEvaluator(problem)
        coalescer = BatchCoalescer(shared)
        coalescer.close()
        try:
            with pytest.raises(ServiceError, match="shutting down"):
                coalescer.submit(np.arange(8, dtype=np.int64)[None, :])
        finally:
            shared.close()

    def test_unbound_coalescing_evaluator_stays_inline(self):
        problem = offline_problem("pip")
        evaluator = CoalescingEvaluator(problem)
        try:
            from repro.core.mapping import random_assignment_batch

            rows = random_assignment_batch(
                4, evaluator.n_tasks, evaluator.n_tiles,
                np.random.default_rng(1),
            )
            metrics = evaluator.evaluate_batch(rows)
            assert metrics.score.shape == (4,)
        finally:
            evaluator.close()


class TestWarmRestart:
    def test_restart_with_model_cache_loads_memmaps(self, model_cache):
        """A restarted daemon must warm-load models, not rebuild them."""
        request = {"kind": "evaluate", "app": "pip", "seed": 2, "n_random": 4}

        clear_model_cache()  # cold daemon: force a real build + disk save
        first = ServiceCore()
        body_cold, status = first.handle(request)
        assert status == 200, body_cold
        first.close(timeout=30)
        pool_registry.shutdown_pools()
        clear_model_cache()  # drop the in-process registry: fresh daemon

        second = ServiceCore()
        try:
            body_warm, status = second.handle(request)
            assert status == 200, body_warm
            assert body_warm["result"] == body_cold["result"]
            # The shared evaluator's model came off disk: its coupling
            # matrix is a read-only memory map, not a rebuilt array.
            models = [
                coalescer.evaluator.model
                for coalescer in second._coalescers.values()
            ]
            assert models
            assert all(
                isinstance(model.coupling_linear, np.memmap)
                for model in models
            )
        finally:
            second.close(timeout=30)
            pool_registry.shutdown_pools()
            clear_model_cache()


class TestStatsSettings:
    def test_stats_reports_the_model_cache_set_by_the_environment(self, tmp_path):
        """A daemon given ``PHONOCMAP_MODEL_CACHE`` and no directory
        argument reports the directory its evaluators read and write."""
        code = (
            "import json\n"
            "from repro.service import ServiceCore\n"
            "print(json.dumps(ServiceCore().stats()['model_cache_dir']))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PHONOCMAP_MODEL_CACHE=str(tmp_path))
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == str(tmp_path)

    def test_stats_reads_the_live_process_settings(self, model_cache, monkeypatch):
        monkeypatch.setenv("PHONOCMAP_ON_WORKER_LOSS", "degrade")
        core = ServiceCore()
        try:
            stats = core.stats()
            assert stats["model_cache_dir"] == str(model_cache)
            assert stats["on_worker_loss"] == "degrade"
        finally:
            core.close(timeout=30)


class TestTransports:
    def test_http_round_trip_and_stats(self):
        core = ServiceCore()
        server = ServiceServer(core, port=0)
        server.start()
        try:
            with ServiceClient(port=server.port) as client:
                response = client.request(
                    {"kind": "evaluate", "app": "pip", "seed": 1}
                )
                assert response["ok"], response
                response = client.request({"kind": "bogus"})
                assert response["ok"] is False
                assert response["error"]["status"] == 400
            # GET is the stats endpoint
            import http.client

            connection = http.client.HTTPConnection("127.0.0.1", server.port)
            connection.request("GET", "/")
            stats = json.loads(connection.getresponse().read())
            connection.close()
            assert stats["ok"] and stats["kind"] == "stats"
            assert stats["result"]["served"] == {"evaluate": 1}
        finally:
            server.stop()

    def test_unix_socket_multiple_requests_per_connection(self, tmp_path):
        core = ServiceCore()
        path = str(tmp_path / "daemon.sock")
        with ServiceServer(core, socket_path=path):
            with ServiceClient(socket_path=path) as client:
                for seed in (1, 2):
                    response = client.request(
                        {"kind": "evaluate", "app": "pip", "seed": seed}
                    )
                    assert response["ok"], response

    def test_stopped_server_unlinks_socket(self, tmp_path):
        import os

        core = ServiceCore()
        path = str(tmp_path / "daemon.sock")
        server = ServiceServer(core, socket_path=path)
        server.start()
        assert os.path.exists(path)
        server.stop()
        server.stop()  # idempotent
        assert not os.path.exists(path)

    def test_client_refuses_ambiguous_endpoint(self):
        with pytest.raises(ServiceError, match="exactly one"):
            ServiceClient()
        with pytest.raises(ServiceError, match="exactly one"):
            ServiceServer(ServiceCore())

    def test_client_reports_unreachable_daemon(self, tmp_path):
        client = ServiceClient(socket_path=str(tmp_path / "nobody.sock"))
        with pytest.raises(ServiceError, match="cannot reach"):
            client.request({"kind": "stats"})


def _exact(value):
    """``value`` with every float as its hex and every other scalar typed.

    Tuples compare as the lists JSON turns them into; a NaN (which the
    codec writes as ``null``) or an int that came back as a float does
    not compare equal.
    """
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return (type(value).__name__, value)


#: One request of each response kind the serve mix sees, plus every
#: strategy and a routed robust_snr pair for the optional result fields.
RESPONSE_KINDS = [
    {"kind": "distribution", "app": "pip", "samples": 2048, "seed": 1001},
    {"kind": "evaluate", "app": "pip", "n_random": 64, "seed": 1003},
    *(
        {"kind": "optimize", "app": "pip", "strategy": name, "budget": 96,
         "seed": 1002}
        for name in available_strategies()
    ),
    {"kind": "optimize", "app": "pip", "strategy": "sa", "budget": 96,
     "seed": 7, "routes": 2, "objective": "robust_snr"},
    {"kind": "evaluate", "app": "pip", "n_random": 8, "seed": 7, "routes": 2,
     "objective": "robust_snr"},
    {"kind": "stats"},
    {"kind": "evaluate", "app": "doom"},
]


class TestWireCodec:
    """Responses leave through the wire codec; requests keep stdlib json."""

    def test_every_response_kind_decodes_to_the_handled_body(self, core):
        for request in RESPONSE_KINDS:
            body, status = core.handle(request)
            assert status == (400 if request.get("app") == "doom" else 200), body
            buffer = io.BytesIO()
            wire.write_message(buffer, body)
            decoded = json.loads(buffer.getvalue())
            assert _exact(decoded) == _exact(body), request

    def test_request_integers_beyond_64_bits_stay_exact(self, tmp_path):
        """orjson would read this seed as 1.8446744073709552e19, i.e.
        seed 2**64: the daemon and the client keep stdlib json for it."""
        from repro.core.mapping import random_assignment_batch

        seed = 18446744073709551617
        path = str(tmp_path / "daemon.sock")
        with ServiceServer(ServiceCore(), socket_path=path):
            with ServiceClient(socket_path=path) as client:
                response = client.request(
                    {"kind": "evaluate", "app": "pip", "n_random": 16,
                     "seed": seed}
                )
        assert response["ok"], response
        evaluator = MappingEvaluator(offline_problem("pip"))

        def offline(rng_seed):
            rows = random_assignment_batch(
                16, evaluator.n_tasks, evaluator.n_tiles,
                np.random.default_rng(rng_seed),
            )
            return [x.hex() for x in evaluator.evaluate_batch(rows).score]

        expected = offline(seed)
        assert expected != offline(2**64)  # the test tells the two apart
        evaluator.close()
        assert [x.hex() for x in response["result"]["score"]] == expected
