"""Loss-family searches never run the crosstalk-noise kernels.

A ``loss``, ``weighted_loss`` or ``laser_power`` score reads only the
insertion-loss table. The strategies' score-only batches and the delta
engine must therefore skip the O(E^2) noise contraction entirely: the
only noise computation a strategy run may trigger is the final full
``evaluate()`` of its best mapping. The delta engine must also keep
scoring exactly like ``evaluate_batch`` without its noise state.
"""

import numpy as np
import pytest

import repro.models.coupling as coupling_module
from repro.core import DeltaEvaluator, MappingEvaluator, MappingProblem, Objective
from repro.core.dse import DesignSpaceExplorer
from repro.core.moves import apply_move, swap_moves

#: Every registered objective whose score reads no noise.
LOSS_FAMILY = [obj for obj in Objective if not obj.is_snr_based]

#: The five built-in strategies: population (RS, GA) and local search.
STRATEGIES = ("rs", "ga", "r-pbla", "sa", "tabu")


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("objective", LOSS_FAMILY, ids=lambda obj: obj.value)
def test_search_runs_noise_kernels_only_for_the_final_evaluate(
    objective, backend, pip_cg, mesh3_network, monkeypatch, pin_kernel
):
    pin_kernel(backend)
    calls = []
    for name in ("_dense_noise", "_sparse_noise"):
        original = getattr(MappingEvaluator, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MappingEvaluator, name, counted)
    explorer = DesignSpaceExplorer(
        MappingProblem(pip_cg, mesh3_network, objective)
    )
    results = explorer.compare(STRATEGIES, budget=400, seed=3)
    assert all(result.evaluations > 1 for result in results.values())
    # One contraction per run: BestTracker.result's evaluate() of the
    # best mapping, which reports the full metrics (SNR included).
    assert calls == [f"_{backend}_noise"] * len(STRATEGIES)


@pytest.mark.parametrize("objective", LOSS_FAMILY, ids=lambda obj: obj.value)
def test_loss_engine_scores_exactly_without_the_transpose(
    objective, pip_cg, mesh3_network, monkeypatch
):
    """A random walk of swaps and relocations: every neighbourhood and
    every commit equals ``evaluate_batch`` exactly, and a freshly built
    model's lazy transpose stays unbuilt."""
    monkeypatch.setattr(coupling_module, "_CACHE", {})  # fresh model build
    evaluator = MappingEvaluator(
        MappingProblem(pip_cg, mesh3_network, objective)
    )
    assert evaluator.backend == "dense"
    assert evaluator.model._coupling_T is None
    engine = DeltaEvaluator(evaluator)
    rng = np.random.default_rng(41)
    current = evaluator.random_vector(rng)
    engine.reset(current)
    for step in range(8):
        moves = swap_moves(current, evaluator.n_tiles)
        picks = rng.choice(len(moves), size=16, replace=False)
        sampled = [moves[int(p)] for p in picks]
        candidates = np.stack([apply_move(current, m) for m in sampled])
        expected = evaluator.evaluate_batch(candidates).score
        assert engine.score_moves(sampled).tobytes() == expected.tobytes()
        # Alternate relocations (other == -1) and swaps.
        kind = [m for m in moves if (m[2] < 0) == (step % 2 == 0)]
        move = kind[int(rng.integers(len(kind)))]
        current = apply_move(current, move)
        assert (
            engine.commit(move)
            == evaluator.evaluate_batch(current[None, :]).score[0]
        )
    assert evaluator.model._coupling_T is None
