"""The delta engine's precomputed tables and its move-array input.

``DeltaEvaluator`` looks each move's affected-edge row up in a table
built once per engine, accepts moves as an ``(M, 3)`` array, and commits
a loss-family move by rebuilding its state. These tests pin each of
those against the construction it replaced, exactly.
"""

import numpy as np
import pytest

from repro.analysis.experiments import build_case_study_network
from repro.appgraph import load_benchmark
from repro.appgraph.benchmarks import BENCHMARK_NAMES, grid_side_for
from repro.core import DeltaEvaluator, MappingEvaluator, MappingProblem
from repro.core.mapping import random_assignment
from repro.core.moves import REROUTE, apply_move, reroute_moves, swap_moves
from repro.errors import MappingError


def _engine(app, objective="loss", routes=1, topology="mesh"):
    cg = load_benchmark(app)
    network = build_case_study_network(topology, grid_side_for(cg))
    problem = MappingProblem(cg, network, objective, routes=routes)
    return DeltaEvaluator(MappingEvaluator(problem))


def reference_affected_edges(edges, n_tasks, tasks, others):
    """The per-call construction the engine's table replaced.

    Padded incident lists of both moved tasks, concatenated, the second
    copy of an edge joining them dropped, sorted descending (valid
    entries first); a reroute's one edge patched into the all-pad row.
    """
    incident = [[] for _ in range(n_tasks)]
    for e, (s, d) in enumerate(edges):
        incident[int(s)].append(e)
        incident[int(d)].append(e)
    width = max((len(lst) for lst in incident), default=1) or 1
    inc = np.full((n_tasks + 1, width), -1, dtype=np.int64)
    for t, lst in enumerate(incident):
        inc[t, : len(lst)] = lst
    is_reroute = others == REROUTE
    block1 = inc[np.where(is_reroute, n_tasks, tasks)]
    block2 = inc[np.where(others >= 0, others, n_tasks)]
    safe2 = np.where(block2 >= 0, block2, 0)
    duplicate = (edges[safe2, 0] == tasks[:, None]) | (
        edges[safe2, 1] == tasks[:, None]
    )
    block2 = np.where((block2 >= 0) & ~duplicate, block2, -1)
    aff = -np.sort(-np.concatenate([block1, block2], axis=1), axis=1)
    if is_reroute.any():
        aff[is_reroute, 0] = tasks[is_reroute] - n_tasks
    return aff


@pytest.mark.parametrize("app", BENCHMARK_NAMES)
def test_affected_rows_equal_the_per_call_construction(app):
    """Every (task, partner) pair, relocations, self-pairs and one
    reroute per edge: the looked-up row is the reference row, cut to
    the table's width, and the count is its number of valid entries."""
    engine = _engine(app, routes=2)
    n_tasks, n_edges = engine._ev.n_tasks, engine._E
    tasks, partners = np.meshgrid(
        np.arange(n_tasks), np.arange(-1, n_tasks), indexing="ij"
    )
    mapping = np.stack(
        [tasks.ravel(), np.zeros(tasks.size, dtype=np.int64), partners.ravel()],
        axis=1,
    )
    reroutes = np.stack(
        [
            n_tasks + np.arange(n_edges),
            np.ones(n_edges, dtype=np.int64),
            np.full(n_edges, REROUTE),
        ],
        axis=1,
    )
    moves = np.concatenate([mapping, reroutes]).astype(np.int64)
    expected = reference_affected_edges(
        engine._edges, n_tasks, moves[:, 0], moves[:, 2]
    )
    aff, counts = engine._affected(moves)
    width = aff.shape[1]
    np.testing.assert_array_equal(aff, expected[:, :width])
    assert (expected[:, width:] == -1).all()
    np.testing.assert_array_equal(counts, (expected >= 0).sum(axis=1))


@pytest.mark.parametrize("objective", ["snr", "loss"])
def test_engines_over_one_evaluator_share_their_tables(objective):
    """The affected-row table and the mask transpose depend only on the
    CG: every engine over one evaluator reads one copy of each, and an
    engine patching a reroute's row leaves that copy untouched."""
    cg = load_benchmark("vopd")
    network = build_case_study_network("mesh", grid_side_for(cg))
    evaluator = MappingEvaluator(MappingProblem(cg, network, objective, routes=2))
    first, second = DeltaEvaluator(evaluator), DeltaEvaluator(evaluator)
    assert first._aff is second._aff
    assert first._aff_count is second._aff_count
    if objective == "snr":
        assert first._maskfT is second._maskfT
    rows, counts = first._aff.copy(), first._aff_count.copy()
    first._affected(np.array([[evaluator.n_tasks, 1, REROUTE]], dtype=np.int64))
    np.testing.assert_array_equal(second._aff, rows)
    np.testing.assert_array_equal(second._aff_count, counts)


@pytest.mark.parametrize("objective", ["snr", "loss", "mean_snr"])
def test_move_array_scores_like_the_tuple_list(objective):
    engine = _engine("mpeg4", objective)
    rng = np.random.default_rng(5)
    assignment = random_assignment(engine._ev.n_tasks, engine._ev.n_tiles, rng)
    engine.reset(assignment, count=False)
    moves = swap_moves(assignment, engine._ev.n_tiles)
    picks = rng.choice(len(moves), size=64, replace=False)
    sampled = [moves[p] for p in picks.tolist()]
    from_list = engine.score_moves(sampled)
    from_array = engine.score_moves(np.array(sampled, dtype=np.int64))
    assert from_list.tobytes() == from_array.tobytes()


def test_move_array_needs_three_columns():
    engine = _engine("pip")
    engine.reset(np.arange(8), count=False)
    with pytest.raises(MappingError, match=r"\(M, 3\)"):
        engine.score_moves(np.zeros((6, 2), dtype=np.int64))


@pytest.mark.parametrize("objective", ["loss", "weighted_loss", "laser_power"])
@pytest.mark.parametrize("routes", [1, 2])
def test_loss_commit_state_equals_a_fresh_reset(objective, routes):
    """Relocations, swaps and (routed) reroutes: after each commit the
    engine's state is, bit for bit, what a reset to the moved vector
    builds."""
    engine = _engine("dvopd", objective, routes=routes, topology="torus")
    fresh = DeltaEvaluator(engine.evaluator)
    evaluator = engine.evaluator
    rng = np.random.default_rng(routes)
    current = evaluator.random_vector(rng)
    engine.reset(current, count=False)
    for step in range(12):
        moves = swap_moves(current[: evaluator.n_tasks], evaluator.n_tiles)
        if routes > 1:
            moves += reroute_moves(
                current, evaluator.n_tasks, evaluator.edge_menu_sizes(current)
            )
        kinds = (
            [m for m in moves if m[2] == -1],
            [m for m in moves if m[2] >= 0],
            [m for m in moves if m[2] == REROUTE] or moves,
        )
        kind = kinds[step % 3]
        move = kind[int(rng.integers(len(kind)))]
        current = apply_move(current, move)
        score = engine.commit(move)
        assert score == fresh.reset(current, count=False)
        np.testing.assert_array_equal(engine.assignment, fresh.assignment)
        assert engine._pairs.tobytes() == fresh._pairs.tobytes()
        assert engine._il.tobytes() == fresh._il.tobytes()
        assert engine._signal is None and fresh._signal is None
