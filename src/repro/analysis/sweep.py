"""Device-parameter sweeps over the content-addressed component library.

The extension study PR 8 adds on top of the paper's experiments: hold the
application and the architecture topology fixed, move the *physical
device point* — crossing loss, crosstalk coefficients, any Table I
entry — and re-run the mapping optimization at every point. Because every
parameter point is content-addressed (its hash flows through the network
signature into the PR 5 on-disk model cache), re-sweeping a point that
was ever swept before rebuilds **zero** coupling models: the sweep is
warm-start by construction, and ``tests/analysis/test_sweep.py`` asserts
exactly that via :data:`repro.models.coupling.BUILD_COUNT`.

Grid syntax mirrors the CLI: each ``--param name=v1,v2,...`` axis
contributes its values, and :func:`grid_points` takes the cartesian
product in declaration order, so point order — and therefore the seeded
per-point runs — is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.appgraph.graph import CommunicationGraph
from repro.core.dse import DesignSpaceExplorer
from repro.core.objectives import Objective
from repro.core.problem import MappingProblem
from repro.core.result import OptimizationResult
from repro.errors import ConfigurationError
from repro.photonics.library import default_library
from repro.photonics.parameters import PhysicalParameters, VariationSpec

__all__ = ["SweepPoint", "SweepResult", "grid_points", "sweep_device_points"]


@dataclass(frozen=True)
class SweepPoint:
    """One swept device point and its optimization outcome."""

    #: Content-addressed library key of the point (``"<base>@<hash12>"``,
    #: or the base name itself for the unmodified entry).
    key: str
    #: The coefficient overrides defining the point (empty for the base).
    overrides: Dict[str, float]
    #: Full content hash of the parameter set.
    content_hash: str
    #: The per-point optimization result.
    result: OptimizationResult

    @property
    def score(self) -> float:
        return float(self.result.best_score)


@dataclass
class SweepResult:
    """All points of one sweep, in grid declaration order."""

    application: str
    objective: Objective
    strategy: str
    budget: int
    points: List[SweepPoint]

    def best(self) -> SweepPoint:
        """The point with the highest objective score."""
        return max(self.points, key=lambda point: point.score)

    def format(self) -> str:
        """Render the sweep as an aligned text table."""
        rows = []
        for point in self.points:
            overrides = (
                ", ".join(
                    f"{name}={value:g}"
                    for name, value in point.overrides.items()
                )
                or "(base)"
            )
            rows.append((point.key, overrides, f"{point.score:.4f}"))
        return format_table(
            ("point", "overrides", "score"),
            rows,
            title=(
                f"Device sweep: {self.application} / {self.objective.value}"
                f" / {self.strategy} @ {self.budget}"
            ),
        )


def _base_name(base: Union[str, PhysicalParameters]) -> str:
    """The library entry name a sweep's instance keys derive from.

    A spec string contributes its name part; a raw parameter set (or an
    empty name) falls back to the default entry — the override dict is
    always complete (every coefficient of the resolved base), so which
    registered entry anchors the key never changes the instantiated
    content.
    """
    if isinstance(base, PhysicalParameters):
        return "date16"
    name, _, _ = str(base).partition(":")
    return name or "date16"


def grid_points(
    grid: Sequence[Tuple[str, Sequence[float]]],
    base: Union[str, PhysicalParameters] = "date16",
) -> List[Tuple[Dict[str, float], PhysicalParameters]]:
    """Materialize the cartesian product of a coefficient grid.

    Parameters
    ----------
    grid : sequence of (name, values)
        One axis per coefficient, in declaration order; the product
        enumerates the *last* axis fastest (row-major), so point order
        is a pure function of the grid.
    base : str or PhysicalParameters, optional
        Library entry (or spec string) the overrides apply to.

    Returns
    -------
    list of (overrides, params)
        Every point, instantiated — and content-registered — through the
        default library. An empty grid yields the single base point.
    """
    library = default_library()
    base_name = _base_name(base)
    resolved = library.resolve(base)
    if not grid:
        return [({}, resolved)]
    names = [name for name, _ in grid]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"sweep grid repeats a coefficient: {names}"
        )
    axes = []
    for name, values in grid:
        values = [float(v) for v in values]
        if not values:
            raise ConfigurationError(
                f"sweep axis {name!r} has no values"
            )
        axes.append(values)
    points = []
    for combo in itertools.product(*axes):
        overrides = dict(zip(names, combo))
        params = library.instantiate(base_name, **dict(resolved.as_dict(), **overrides))
        points.append((overrides, params))
    return points


def sweep_device_points(
    cg: CommunicationGraph,
    grid: Sequence[Tuple[str, Sequence[float]]],
    topology: str = "mesh",
    side: Optional[int] = None,
    router: str = "crux",
    base: Union[str, PhysicalParameters] = "date16",
    objective: Union[str, Objective] = Objective.SNR,
    variation: Optional[VariationSpec] = None,
    strategy: str = "r-pbla",
    budget: int = 2_000,
    seed: Optional[int] = 0,
    use_delta: bool = True,
    n_workers: int = 1,
    model_cache_dir: Optional[str] = None,
) -> SweepResult:
    """Optimize the mapping at every device point of a coefficient grid.

    Every point runs the same strategy under the same budget **and the
    same seed**, so score differences across points reflect the physics,
    never the search's luck. Per point the coupling model resolves
    through the content-hash-keyed caches (process, then disk), so
    repeated sweeps — or overlapping grids — rebuild only never-seen
    points.
    """
    from repro.analysis.experiments import build_case_study_network
    from repro.appgraph.benchmarks import grid_side_for

    objective = Objective.parse(objective)
    if side is None:
        side = grid_side_for(cg)
    library = default_library()
    base_name = _base_name(base)
    points: List[SweepPoint] = []
    for overrides, params in grid_points(grid, base=base):
        network = build_case_study_network(
            topology, side, router, params=params
        )
        problem = MappingProblem(cg, network, objective, variation=variation)
        with DesignSpaceExplorer(
            problem,
            use_delta=use_delta,
            n_workers=n_workers,
            model_cache_dir=model_cache_dir,
        ) as explorer:
            result = explorer.run(strategy, budget=budget, seed=seed)
        key = (
            library.instance_key(base_name, params)
            if overrides
            else (base if isinstance(base, str) else params.content_hash[:12])
        )
        points.append(
            SweepPoint(
                key=str(key),
                overrides=dict(overrides),
                content_hash=params.content_hash,
                result=result,
            )
        )
    return SweepResult(
        application=cg.name,
        objective=objective,
        strategy=strategy,
        budget=budget,
        points=points,
    )
