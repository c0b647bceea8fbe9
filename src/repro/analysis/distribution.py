"""Random-mapping distribution study — the experiment behind paper Fig. 3.

"In order to prove that the mapping choice heavily affects the worst-case
power loss and signal-to-noise ratio, we generated randomly 100000 mapping
solutions for each application in a mesh-based photonic NoC exploiting the
Crux optical router and ... evaluated the worst-case SNR and power loss
related to each mapping solution."

:func:`random_mapping_distribution` reproduces that experiment for one
application; :class:`DistributionResult` carries the raw per-sample metrics
plus CDF extraction (Fig. 3 plots the cumulative probability curves).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.appgraph.graph import CommunicationGraph
from repro.core.evaluator import MappingEvaluator
from repro.core.objectives import SNR_CAP_DB, Objective
from repro.core.problem import MappingProblem
from repro.errors import ConfigurationError
from repro.noc.network import PhotonicNoC

__all__ = ["DistributionResult", "random_mapping_distribution"]


@dataclass(frozen=True)
class DistributionResult:
    """Worst-case SNR / power-loss samples over random mappings."""

    application: str
    n_samples: int
    worst_snr_db: np.ndarray
    worst_loss_db: np.ndarray

    def cdf(self, metric: str, points: int = 101) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative distribution of ``"snr"`` or ``"loss"``.

        Returns (values, cumulative probability), the series Fig. 3 plots.
        """
        if metric == "snr":
            samples = self.worst_snr_db
        elif metric == "loss":
            samples = self.worst_loss_db
        else:
            raise ConfigurationError(
                f"metric must be 'snr' or 'loss', got {metric!r}"
            )
        finite = samples[samples < SNR_CAP_DB] if metric == "snr" else samples
        if finite.size == 0:
            finite = samples
        grid = np.linspace(float(finite.min()), float(finite.max()), points)
        sorted_samples = np.sort(samples)
        probabilities = np.searchsorted(sorted_samples, grid, side="right") / len(
            samples
        )
        return grid, probabilities

    def summary(self, metric: str) -> dict:
        """Min / median / max / spread of one metric."""
        samples = self.worst_snr_db if metric == "snr" else self.worst_loss_db
        return {
            "min": float(np.min(samples)),
            "median": float(np.median(samples)),
            "max": float(np.max(samples)),
            "spread": float(np.max(samples) - np.min(samples)),
        }


def random_mapping_distribution(
    cg: CommunicationGraph,
    network: PhotonicNoC,
    n_samples: int = 100_000,
    seed: Optional[int] = None,
    batch_size: int = 4096,
    n_workers: int = 1,
    evaluator: Optional[MappingEvaluator] = None,
    executor: str = "local",
    routes: int = 1,
) -> DistributionResult:
    """Sample random mappings and record both worst-case metrics.

    Parameters
    ----------
    cg : CommunicationGraph
        The application whose mapping distribution is sampled.
    network : PhotonicNoC
        Target architecture (the paper uses mesh + Crux).
    n_samples : int, optional
        Number of random mappings (default 100,000, as in Fig. 3).
    seed : int, optional
        RNG seed; samples are generated in the parent process, so the
        sample set depends only on the seed, never on ``n_workers``.
    batch_size : int, optional
        Mappings generated and submitted per step (default 4096).
    n_workers : int, optional
        Shard width for batch evaluation (default 1, sequential). The
        loop keeps two batches in flight — workers score one batch while
        the parent generates the next — and results are written back by
        submission offset, so the returned distribution is
        **bit-identical for any** ``n_workers``.
    evaluator : MappingEvaluator, optional
        Pre-built evaluator to sample through instead of constructing
        one (``n_workers`` is then taken from it). The
        service layer passes its coalescing evaluator here, so
        concurrent distribution requests share merged batch flights; any
        compliant evaluator yields the same samples — generation depends
        only on ``seed``, and batch evaluation is row-local — so the
        result stays bit-identical to the default.
    routes : int, optional
        Per-pair route-menu size (default 1: base routes only).
        ``routes > 1`` samples joint design vectors — random placements
        plus uniform route genes — through a routed evaluator; ignored
        when a pre-built ``evaluator`` is passed (its own ``routes``
        governs). At ``routes == 1`` generation and results are
        bit-identical to pre-routing code.

    Returns
    -------
    DistributionResult
        Per-sample worst-case SNR and power loss, plus CDF extraction.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    if evaluator is None:
        problem = MappingProblem(cg, network, Objective.SNR, routes=routes)
        evaluator = MappingEvaluator(
            problem, n_workers=n_workers, executor=executor,
        )
    rng = np.random.default_rng(seed)
    snr = np.empty(n_samples, dtype=np.float64)
    loss = np.empty(n_samples, dtype=np.float64)

    def collect(offset: int, count: int, handle) -> None:
        metrics = handle.result()
        snr[offset : offset + count] = metrics.worst_snr_db
        loss[offset : offset + count] = metrics.worst_insertion_loss_db

    pending = deque()  # (offset, count, handle); bounded in-flight window
    done = 0
    while done < n_samples:
        count = min(batch_size, n_samples - done)
        batch = evaluator.random_vector_batch(count, rng)
        pending.append((done, count, evaluator.submit_batch(batch)))
        done += count
        if len(pending) >= 2:
            collect(*pending.popleft())
    while pending:
        collect(*pending.popleft())
    return DistributionResult(cg.name, n_samples, snr, loss)
