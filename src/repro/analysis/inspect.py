"""Mapping inspection: per-edge noise breakdowns.

The worst-case SNR of eq. (4) is a single number; fixing a bad mapping
needs to know *which* aggressor communication injects the noise. These
helpers decompose every CG edge's noise into its per-aggressor
contributions (honouring the serialization mask) and render a designer-
facing report: per-edge loss and SNR, and for the noisiest edges the
dominant aggressors with their coupling strength. Mappings are validated
and slotted by the evaluator itself, so a routed evaluator's joint
vectors are broken down along their chosen routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.analysis.report import format_db, format_table
from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import Mapping
from repro.core.objectives import SNR_CAP_DB
from repro.errors import ConfigurationError
from repro.photonics.units import linear_to_db

__all__ = ["NoiseContribution", "edge_noise_breakdown", "mapping_report"]


@dataclass(frozen=True)
class NoiseContribution:
    """One aggressor's share of a victim edge's noise."""

    aggressor_edge: int
    aggressor_label: str
    coupling_linear: float
    relative_db: float  # noise power relative to the victim's signal
    share: float  # fraction of the victim's total noise


def _edge_label(cg, index: int) -> str:
    edge = cg.edges[index]
    return f"{cg.tasks[edge.src]}->{cg.tasks[edge.dst]}"


def edge_noise_breakdown(
    evaluator: MappingEvaluator,
    mapping: Union[Mapping, np.ndarray],
    victim_edge: int,
    top: Optional[int] = None,
) -> List[NoiseContribution]:
    """Per-aggressor noise contributions of one CG edge, strongest first."""
    cg = evaluator.cg
    if not (0 <= victim_edge < cg.n_edges):
        raise ConfigurationError(
            f"victim edge {victim_edge} outside 0..{cg.n_edges - 1}"
        )
    pairs = evaluator._pair_table(evaluator._single_row(mapping))[0]
    model = evaluator.model
    victim_pair = pairs[victim_edge]
    signal = model.signal_linear[victim_pair]
    couplings = model.coupling_linear[victim_pair, pairs].astype(np.float64)
    couplings[evaluator._mask_linear[victim_edge] == 0.0] = 0.0
    total = couplings.sum()
    order = np.argsort(couplings)[::-1]
    contributions = []
    for aggressor in order:
        value = float(couplings[aggressor])
        if value <= 0.0:
            break
        contributions.append(
            NoiseContribution(
                aggressor_edge=int(aggressor),
                aggressor_label=_edge_label(cg, int(aggressor)),
                coupling_linear=value,
                relative_db=linear_to_db(value / signal),
                share=value / total,
            )
        )
        if top is not None and len(contributions) >= top:
            break
    return contributions


def mapping_report(
    evaluator: MappingEvaluator,
    mapping: Union[Mapping, np.ndarray],
    noisy_edges: int = 3,
    top_aggressors: int = 3,
) -> str:
    """A designer-facing text report of one mapping.

    Per-edge metrics, followed by the dominant aggressors of the
    ``noisy_edges`` lowest-SNR edges.
    """
    cg = evaluator.cg
    metrics = evaluator.evaluate(mapping, with_edges=True)
    evaluator.evaluations -= 1  # inspection is not search effort
    edges_metrics = metrics.edges
    rows = []
    for index in range(cg.n_edges):
        rows.append(
            (
                _edge_label(cg, index),
                f"{edges_metrics.insertion_loss_db[index]:7.2f}",
                format_db(edges_metrics.snr_db[index]),
            )
        )
    lines = [
        format_table(
            ("edge", "loss dB", "SNR dB"),
            rows,
            title=(
                f"mapping report: {cg.name} — worst loss "
                f"{metrics.worst_insertion_loss_db:.2f} dB, worst SNR "
                f"{format_db(metrics.worst_snr_db).strip()} dB"
            ),
        )
    ]
    noisy = np.argsort(edges_metrics.snr_db)[:noisy_edges]
    for victim in noisy:
        if edges_metrics.snr_db[victim] >= SNR_CAP_DB:
            continue
        lines.append("")
        lines.append(
            f"noise into {_edge_label(cg, int(victim))} "
            f"(SNR {edges_metrics.snr_db[victim]:.2f} dB):"
        )
        for contribution in edge_noise_breakdown(
            evaluator, mapping, int(victim), top=top_aggressors
        ):
            lines.append(
                f"  {contribution.share:5.1%} from "
                f"{contribution.aggressor_label:<28s} "
                f"({contribution.relative_db:7.2f} dB rel. signal)"
            )
    return "\n".join(lines)
