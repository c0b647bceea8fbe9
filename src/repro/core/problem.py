"""The mapping problem instance (paper §II-D.1).

Bundles what the design-space exploration needs — the application's
Communication Graph, the assembled photonic NoC, the objective and (for
variation-robust objectives) the process-variation sampling plan — and
enforces the feasibility condition of eq. (2): ``size(C) <= size(T)``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.appgraph.graph import CommunicationGraph
from repro.core.objectives import Objective, spec_for
from repro.errors import MappingError
from repro.noc.network import PhotonicNoC
from repro.photonics.parameters import VariationSpec

__all__ = ["MappingProblem"]


class MappingProblem:
    """One instance of the photonic-NoC mapping problem.

    Parameters
    ----------
    cg : CommunicationGraph
        The application's communication graph.
    network : PhotonicNoC
        The assembled target architecture.
    objective : str or Objective, optional
        What the exploration maximizes (default worst-case SNR).
    variation : VariationSpec, optional
        Process-variation sampling plan. Required by (and defaulted for)
        objectives whose spec declares ``requires_variation``; may also
        be attached explicitly alongside any objective, in which case
        the evaluator computes the robust metric table too. Part of the
        problem identity: pools and coalesced flights only mix requests
        with the same plan.
    routes : int, optional
        Route-menu size ``k`` of the joint mapping x routing search
        (default 1: mapping-only, bit-identical to the paper's setup).
        With ``k > 1`` the design vector widens to
        ``[assignment | per-edge route genes]`` and the evaluator builds
        the routed coupling model. Part of the problem identity, like
        the variation plan.
    """

    def __init__(
        self,
        cg: CommunicationGraph,
        network: PhotonicNoC,
        objective: Union[str, Objective] = Objective.SNR,
        variation: Optional[VariationSpec] = None,
        routes: int = 1,
    ) -> None:
        objective = Objective.parse(objective)
        if cg.n_tasks > network.topology.n_tiles:
            raise MappingError(
                f"CG {cg.name!r} has {cg.n_tasks} tasks but topology "
                f"{network.topology.signature} only {network.topology.n_tiles} "
                "tiles (violates eq. 2)"
            )
        if routes < 1:
            raise MappingError(f"routes must be >= 1, got {routes}")
        if variation is None and spec_for(objective).requires_variation:
            variation = VariationSpec()
        self.cg = cg
        self.network = network
        self.objective = objective
        self.variation = variation
        self.routes = int(routes)

    @property
    def n_tasks(self) -> int:
        """Number of tasks of the application CG."""
        return self.cg.n_tasks

    @property
    def n_tiles(self) -> int:
        """Number of tiles of the target topology."""
        return self.network.topology.n_tiles

    @property
    def variation_fingerprint(self) -> str:
        """Exact identity of the variation plan (empty when none)."""
        return "" if self.variation is None else self.variation.fingerprint

    def with_objective(
        self, objective: Union[str, Objective]
    ) -> "MappingProblem":
        """The same problem under a different objective.

        Keeps the variation plan, so an objective flip on a warm
        (objective-free) pool reuses the workers' table pipeline.
        """
        return MappingProblem(
            self.cg,
            self.network,
            objective,
            variation=self.variation,
            routes=self.routes,
        )

    def evaluator(self) -> "MappingEvaluator":
        """Build the (matrix-backed) evaluator for this problem."""
        from repro.core.evaluator import MappingEvaluator

        return MappingEvaluator(self)

    def __repr__(self) -> str:
        variation = (
            "" if self.variation is None else f", variation={self.variation_fingerprint}"
        )
        routes = "" if self.routes == 1 else f", routes={self.routes}"
        return (
            f"MappingProblem({self.cg.name!r} -> "
            f"{self.network.topology.signature}/{self.network.router_spec.name}, "
            f"objective={self.objective.value}{variation}{routes})"
        )
