"""Evaluator vs torus symmetry: an absolute oracle for every scoring path.

Translating every tile of a torus by ``(dx, dy)`` with wrap-around maps
the network onto itself, and the coupling model is exactly invariant
under the induced slot permutation (``tests/models/test_torus_translation.py``).
A mapping translated the same way therefore puts every CG edge on a slot
holding the same bits, and every per-edge table is gathered and reduced
in the same edge order: its scores must be unchanged, bit for bit, on
the full batch path, the single-mapping path and the delta engine. Unlike
a parity test between two code paths, this holds at every commit on its
own. A mesh has edges, so the same check must fail there.

The paper's applications resolve the dense noise kernel, whose sums run
in edge order. The sparse kernel sums a CSR row in column order, which a
translation permutes, so it is left out here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import build_case_study_network
from repro.appgraph.benchmarks import load_benchmark
from repro.core import MappingEvaluator, MappingProblem, Objective, delta_engine
from repro.core.moves import REROUTE
from repro.photonics import VariationSpec

#: (application, torus side) pairs: pip fills most of a 3x3 torus,
#: vopd a 4x4 one.
CASES = (("pip", 3), ("vopd", 4))

#: A small plan keeps robust_snr's per-sample models cheap.
VARIATION = VariationSpec(n_samples=2, sigma=0.05, seed=5)


@lru_cache(maxsize=None)
def _evaluator(app, topology, side, objective, routes):
    network = build_case_study_network(topology, side)
    variation = VARIATION if objective is Objective.ROBUST_SNR else None
    problem = MappingProblem(
        load_benchmark(app), network, objective, variation=variation, routes=routes
    )
    evaluator = MappingEvaluator(problem)
    assert evaluator.backend == "dense"
    return evaluator


def _translation(side, dx, dy):
    """Image of every tile of a ``side x side`` grid under the shift."""
    tile = np.arange(side * side)
    return ((tile // side + dy) % side) * side + (tile % side + dx) % side


def _translate_rows(rows, n_tasks, moved):
    """Design vectors with every task's tile moved; route genes kept."""
    shifted = rows.copy()
    shifted[..., :n_tasks] = moved[rows[..., :n_tasks]]
    return shifted


def _translate_move(move, moved):
    task, target, other = move
    return move if other == REROUTE else (task, int(moved[target]), other)


def _metric_bytes(metrics):
    return (
        metrics.score.tobytes(),
        metrics.worst_snr_db.tobytes(),
        metrics.worst_insertion_loss_db.tobytes(),
    )


@settings(max_examples=24, deadline=None)
@given(
    case=st.sampled_from(CASES),
    objective=st.sampled_from(list(Objective)),
    routes=st.integers(1, 3),
    shift=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    seed=st.integers(0, 2**16),
)
def test_torus_translation_leaves_every_score_unchanged(
    case, objective, routes, shift, seed
):
    app, side = case
    evaluator = _evaluator(app, "torus", side, objective, routes)
    n_tasks = evaluator.n_tasks
    moved = _translation(side, shift[0] % side, shift[1] % side)
    rows = evaluator.random_vector_batch(6, np.random.default_rng(seed))
    shifted = _translate_rows(rows, n_tasks, moved)

    assert _metric_bytes(evaluator.evaluate_batch(shifted)) == _metric_bytes(
        evaluator.evaluate_batch(rows)
    )

    single = evaluator.evaluate(rows[0], with_edges=True)
    image = evaluator.evaluate(shifted[0], with_edges=True)
    assert (image.score, image.worst_snr_db, image.worst_insertion_loss_db) == (
        single.score, single.worst_snr_db, single.worst_insertion_loss_db
    )
    assert image.edges.snr_db.tobytes() == single.edges.snr_db.tobytes()
    assert (
        image.edges.insertion_loss_db.tobytes()
        == single.edges.insertion_loss_db.tobytes()
    )

    engine = delta_engine(evaluator)
    if engine is None:  # objectives without incremental support
        return
    moves = evaluator.moves_for(rows[0])
    engine.reset(rows[0], count=False)
    scores = engine.score_moves(moves)
    engine.reset(shifted[0], count=False)
    translated = engine.score_moves([_translate_move(m, moved) for m in moves])
    assert translated.tobytes() == scores.tobytes()


def test_mesh_translation_moves_scores():
    """The negative case: a mesh has edges, so a shift changes SNR."""
    evaluator = _evaluator("pip", "mesh", 4, Objective.SNR, 1)
    rows = evaluator.random_vector_batch(64, np.random.default_rng(1))
    shifted = _translate_rows(rows, evaluator.n_tasks, _translation(4, 1, 0))
    scores = evaluator.evaluate_batch(rows).score
    moved = evaluator.evaluate_batch(shifted).score
    assert not np.array_equal(moved, scores)
