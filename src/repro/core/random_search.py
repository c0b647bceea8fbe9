"""Random Search (RS) — paper §II-D.2.

"The first search algorithm generates randomly a population of a given size
and then picks the best individual." The population size is the evaluation
budget; generation and evaluation are batched for speed.

The batch loop is *pipelined*: each batch is submitted asynchronously
(:meth:`~repro.core.evaluator.MappingEvaluator.submit_batch`), the next
batch is generated while workers score the current one, and results are
collected in submission order — which keeps the best mapping, evaluation
counts and convergence history bit-identical to the sequential loop for
any evaluator shard width.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import MappingEvaluator
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy

__all__ = ["RandomSearch"]


class RandomSearch(MappingStrategy):
    """Evaluate ``budget`` uniformly random mappings, keep the best.

    Parameters
    ----------
    batch_size : int, optional
        Mappings generated and scored per submission (default 2048).
        Larger batches amortize evaluation overhead; with a sharded
        evaluator each batch is additionally split across the worker
        pool while the next batch is generated.
    """

    name = "rs"
    batch_shardable = True

    def __init__(self, batch_size: int = 2048):
        self.batch_size = int(batch_size)

    def _run(
        self,
        evaluator: MappingEvaluator,
        budget: int,
        rng: np.random.Generator,
    ) -> OptimizationResult:
        tracker = BestTracker(evaluator)
        remaining = budget
        pending = None  # (batch, handle) of the submission in flight
        while remaining > 0:
            count = min(self.batch_size, remaining)
            batch = evaluator.random_vector_batch(count, rng)
            handle = evaluator.submit_batch(batch, score_only=True)
            remaining -= count
            if pending is not None:
                previous_batch, previous_handle = pending
                tracker.offer_batch(previous_batch, previous_handle.result().score)
            pending = (batch, handle)
        batch, handle = pending
        tracker.offer_batch(batch, handle.result().score)
        return tracker.result(self.name)
