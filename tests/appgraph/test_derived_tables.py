"""A communication graph's derived tables: built once, shared, never shipped.

Evaluators, delta engines and pool keys read the tables a CG derives
(edge array, bandwidth weights, mask forms, the conflict and
affected-row tables, the content fingerprint) from the CG itself, so one
graph builds each once. They must stay read-only, equal what a fresh
graph derives, and leave the graph's pickle, and so a TCP worker's
``init`` frame, byte-identical.
"""

import pickle
import sys
import threading
from functools import cached_property

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph import load_benchmark
from repro.appgraph.benchmarks import BENCHMARK_NAMES, all_benchmarks, grid_side_for
from repro.appgraph.graph import CommunicationGraph
from repro.appgraph.io import cg_from_dict, cg_to_dict
from repro.core import DeltaEvaluator, MappingEvaluator, MappingProblem
from repro.core.pool import flight_key
from repro.distributed import wire


def fresh(name):
    """A never-used copy of a benchmark graph."""
    return cg_from_dict(cg_to_dict(load_benchmark(name)))


DERIVED = [
    name for name, value in vars(CommunicationGraph).items()
    if isinstance(value, cached_property)
]


def touch_all(cg):
    for name in DERIVED:
        getattr(cg, name)


def test_load_benchmark_hands_out_one_graph_per_name():
    for name in BENCHMARK_NAMES:
        assert load_benchmark(name) is load_benchmark(name)
        assert all_benchmarks()[name] is load_benchmark(name)


@pytest.mark.parametrize("name", ["pip", "vopd"])
def test_pickle_is_the_same_bytes_before_and_after_derivation(name):
    cg = fresh(name)
    before = pickle.dumps(cg, protocol=pickle.HIGHEST_PROTOCOL)
    touch_all(cg)
    assert pickle.dumps(cg, protocol=pickle.HIGHEST_PROTOCOL) == before
    copy = pickle.loads(before)
    assert not set(DERIVED) & set(vars(copy))
    assert copy.fingerprint == cg.fingerprint
    for table in ("mask_linear", "edge_table", "bandwidth_weights"):
        np.testing.assert_array_equal(getattr(copy, table), getattr(cg, table))


def test_init_frame_is_the_same_bytes_after_serving():
    """What a TCP worker's ``init`` frame carries: the problem."""
    cg = fresh("mpeg4")
    network = build_case_study_network("mesh", grid_side_for(cg))
    problem = MappingProblem(cg, network, "snr")
    before = wire.encode_payload(problem)
    evaluator = MappingEvaluator(problem)
    engine = DeltaEvaluator(evaluator)
    engine.reset(evaluator.random_vector(np.random.default_rng(0)))
    engine.score_moves(evaluator.move_array_for(engine.assignment)[:20])
    flight_key(problem)
    assert "affected_rows" in vars(cg) and "signature" in vars(network)
    assert wire.encode_payload(problem) == before


def test_tables_are_read_only_and_match_a_fresh_graph():
    cg = load_benchmark("wavelet")
    reference = fresh("wavelet")
    assert len(DERIVED) == 7
    np.testing.assert_array_equal(cg.edge_table, reference.edge_array())
    np.testing.assert_array_equal(
        cg.mask_linear_T, reference.serialization_mask().astype(np.float64).T
    )
    for name in DERIVED:
        value = getattr(cg, name)
        arrays = value if isinstance(value, tuple) else (value,)
        for array in arrays:
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable, name
                with pytest.raises(ValueError):
                    array.reshape(-1)[0] = 1


def test_fingerprint_follows_content_not_identity():
    assert fresh("pip").fingerprint == load_benchmark("pip").fingerprint
    assert fresh("pip").fingerprint != load_benchmark("mwd").fingerprint


def test_concurrent_first_reads_agree():
    """Request threads may derive one graph's tables at once."""
    cg = fresh("dvopd")
    reference = fresh("dvopd")
    touch_all(reference)
    seen, errors = [], []

    def read():
        try:
            seen.append([getattr(cg, name) for name in DERIVED])
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(seen) == 8
    wanted = [getattr(reference, name) for name in DERIVED]
    for values in seen:
        for name, value, want in zip(DERIVED, values, wanted):
            if isinstance(want, tuple):
                for part, want_part in zip(value, want):
                    np.testing.assert_array_equal(part, want_part, err_msg=name)
            elif isinstance(want, np.ndarray):
                np.testing.assert_array_equal(value, want, err_msg=name)
            else:
                assert value == want, name
