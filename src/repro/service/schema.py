"""Request schema and validation for the mapping service.

A request is one JSON object. Common fields:

``kind``
    ``"optimize"`` | ``"evaluate"`` | ``"distribution"`` | ``"stats"``.
``app`` / ``cg``
    The application: a built-in benchmark name, or an inline CG
    description in the :func:`repro.appgraph.io.cg_from_dict` format.
    Exactly one must be present (except for ``stats``).
``topology`` / ``side`` / ``router``
    Network spec, same semantics as the CLI: ``mesh`` (default) or
    ``torus``, ``side`` defaulting to the smallest square fitting the
    application, ``router`` defaulting to ``crux``.
``dtype``
    Optional, and only ``"float64"`` is accepted: every coupling model
    is float64, so the field changes nothing and any other value is
    refused rather than silently computed at float64.
``seed``
    Integer or null. Responses are **bit-identical to the equivalent
    offline run with the same seed** (see ``docs/ARCHITECTURE.md``).
``routes``
    Per-pair route-menu size ``k`` (default 1). ``k > 1`` widens the
    design space to joint mapping x routing: optimize searches route
    genes alongside placements, and evaluate accepts design vectors
    widened by one gene per CG edge. ``routes: 1`` requests are
    bit-identical to requests without the field.

Kind-specific fields: ``optimize`` takes ``strategy`` / ``budget`` /
``objective`` / ``use_delta`` (a JSON boolean); ``distribution`` takes
``samples`` / ``batch_size``; ``evaluate`` takes either explicit
``mappings`` (a list of task->tile assignment rows) or ``n_random`` +
``seed``, plus ``objective``.

Variation fields (``variation_samples`` / ``variation_sigma`` /
``variation_seed`` / ``variation_quantile``) configure the
process-variation plan used by the ``robust_snr`` objective; they build a
:class:`~repro.photonics.parameters.VariationSpec`. Requesting
``robust_snr`` without them attaches the default plan, exactly like the
offline API.

Validation failures raise :class:`~repro.errors.ServiceError` with an
HTTP-style status, which the transports turn into structured error
responses — a malformed request can never take the daemon down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.appgraph.benchmarks import (
    BENCHMARK_NAMES,
    grid_side_for,
    load_benchmark,
)
from repro.appgraph.graph import CommunicationGraph
from repro.appgraph.io import cg_from_dict
from repro.core.objectives import Objective, objective_names
from repro.core.problem import MappingProblem
from repro.core.registry import available_strategies
from repro.errors import ReproError, ServiceError
from repro.noc.network import PhotonicNoC
from repro.photonics.parameters import VariationSpec

__all__ = ["REQUEST_KINDS", "ServiceRequest", "error_response", "parse_request"]

#: Request kinds the dispatcher understands.
REQUEST_KINDS = ("optimize", "evaluate", "distribution", "stats")

def _require(condition: bool, message: str, kind: str = "bad_request") -> None:
    if not condition:
        raise ServiceError(message, status=400, kind=kind)


def _int_field(payload: dict, name: str, default, minimum: int = 1):
    value = payload.get(name)
    if value is None:  # absent, or an explicit null
        return default
    try:
        value = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            f"field {name!r} must be an integer, got {value!r}"
        ) from None
    _require(value >= minimum, f"field {name!r} must be >= {minimum}, got {value}")
    return value


@dataclass
class ServiceRequest:
    """One validated service request, with its resolved resources."""

    kind: str
    cg: Optional[CommunicationGraph] = None
    topology: str = "mesh"
    side: Optional[int] = None
    router: str = "crux"
    objective: Objective = Objective.SNR
    variation: Optional[VariationSpec] = None
    seed: Optional[int] = None
    routes: int = 1
    # optimize
    strategy: str = "r-pbla"
    budget: int = 20_000
    use_delta: bool = True
    # distribution
    samples: int = 100_000
    batch_size: int = 4096
    # evaluate
    assignments: Optional[np.ndarray] = None
    n_random: int = 1

    @property
    def grid_side(self) -> int:
        """The topology side: the request's, else the smallest fitting grid."""
        return self.side if self.side is not None else grid_side_for(self.cg)

    def network(self) -> PhotonicNoC:
        """Build (or rebuild) the request's target architecture."""
        from repro.analysis.experiments import build_case_study_network

        return build_case_study_network(self.topology, self.grid_side, self.router)

    def problem(self) -> MappingProblem:
        """The mapping problem this request describes."""
        try:
            return MappingProblem(
                self.cg,
                self.network(),
                self.objective,
                variation=self.variation,
                routes=self.routes,
            )
        except ReproError as error:
            raise ServiceError(str(error), status=400, kind="infeasible") from None


def _parse_cg(payload: dict) -> CommunicationGraph:
    app = payload.get("app")
    inline = payload.get("cg")
    _require(
        (app is None) != (inline is None),
        "exactly one of 'app' (benchmark name) or 'cg' (inline graph) "
        "must be given",
    )
    if app is not None:
        _require(
            app in BENCHMARK_NAMES,
            f"unknown benchmark {app!r}; known: {list(BENCHMARK_NAMES)}",
            kind="unknown_application",
        )
        return load_benchmark(app)
    try:
        return cg_from_dict(inline)
    except ReproError as error:
        raise ServiceError(f"invalid inline CG: {error}") from None


def parse_request(
    payload: object, default_routes: int = 1
) -> ServiceRequest:
    """Validate one decoded JSON payload into a :class:`ServiceRequest`.

    ``default_routes`` is the menu size applied when the request has no
    ``routes`` field (the daemon's ``--routes`` flag); an explicit field
    always wins.

    Raises
    ------
    ServiceError
        With ``status=400`` on any malformed field; admission limits
        (budget caps, queue bounds) are enforced by the core, not here,
        so the schema stays deployment-independent.
    """
    _require(isinstance(payload, dict), "request must be a JSON object")
    kind = payload.get("kind")
    _require(
        kind in REQUEST_KINDS,
        f"field 'kind' must be one of {list(REQUEST_KINDS)}, got {kind!r}",
        kind="unknown_kind",
    )
    request = ServiceRequest(kind=kind)
    if kind == "stats":
        return request

    request.cg = _parse_cg(payload)
    request.topology = payload.get("topology", "mesh")
    _require(
        request.topology in ("mesh", "torus"),
        f"field 'topology' must be 'mesh' or 'torus', got {request.topology!r}",
    )
    request.side = _int_field(payload, "side", None, minimum=1)
    request.router = str(payload.get("router", "crux"))

    dtype = payload.get("dtype", "float64")
    _require(
        isinstance(dtype, str) and dtype == "float64",
        f"field 'dtype' must be 'float64', got {dtype!r}",
    )
    request.seed = _int_field(payload, "seed", None, minimum=0)
    request.routes = _int_field(payload, "routes", default_routes, minimum=1)

    objective = payload.get("objective", "snr")
    try:
        request.objective = Objective.parse(objective)
    except ReproError:
        raise ServiceError(
            f"unknown objective {objective!r}; known: {list(objective_names())}",
            status=400,
            kind="unknown_objective",
        ) from None
    request.variation = _parse_variation(payload)

    if kind == "optimize":
        request.strategy = str(payload.get("strategy", "r-pbla"))
        _require(
            request.strategy in available_strategies(),
            f"unknown strategy {request.strategy!r}; "
            f"known: {list(available_strategies())}",
            kind="unknown_strategy",
        )
        request.budget = _int_field(payload, "budget", 20_000)
        request.use_delta = payload.get("use_delta", True)
        _require(
            isinstance(request.use_delta, bool),
            f"field 'use_delta' must be true or false, "
            f"got {request.use_delta!r}",
        )
    elif kind == "distribution":
        request.samples = _int_field(payload, "samples", 100_000)
        request.batch_size = _int_field(payload, "batch_size", 4096)
    elif kind == "evaluate":
        mappings = payload.get("mappings")
        if mappings is not None:
            request.assignments = _parse_assignments(
                mappings, request.cg, request.routes
            )
        else:
            request.n_random = _int_field(payload, "n_random", 1)
    return request


def _parse_variation(payload: dict) -> Optional[VariationSpec]:
    """Build the request's process-variation plan, if any field is set.

    Absent (or null) fields mean "no explicit plan": the problem layer
    attaches the default plan when the objective requires one, so a
    plain ``robust_snr`` request and the offline default agree
    bit-for-bit.
    """
    names = (
        "variation_samples",
        "variation_sigma",
        "variation_seed",
        "variation_quantile",
    )
    if all(payload.get(name) is None for name in names):
        return None
    n_samples = _int_field(payload, "variation_samples", 8, minimum=1)
    seed = _int_field(payload, "variation_seed", 0, minimum=0)
    sigma = payload.get("variation_sigma")
    quantile = payload.get("variation_quantile")
    try:
        sigma = 0.02 if sigma is None else float(sigma)
        if quantile is not None:
            quantile = float(quantile)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            "variation_sigma / variation_quantile must be numbers"
        ) from None
    try:
        return VariationSpec(
            n_samples=n_samples, sigma=sigma, seed=seed, quantile=quantile
        )
    except ReproError as error:
        raise ServiceError(str(error)) from None


def _parse_assignments(
    mappings: object, cg: CommunicationGraph, routes: int = 1
) -> np.ndarray:
    """Coerce explicit mapping rows to an (M, width) int array.

    Plain rows list ``n_tasks`` tile indices. With ``routes > 1`` rows
    may instead be full design vectors — ``n_tasks`` tiles followed by
    one route gene per CG edge, each gene in ``[0, routes)``; plain rows
    stay accepted (the evaluator pads zero genes, i.e. base routes).
    """
    try:
        assignments = np.asarray(mappings, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            "field 'mappings' must be a list of integer assignment rows"
        ) from None
    assignments = np.atleast_2d(assignments)
    widths = (
        (cg.n_tasks,) if routes == 1 else (cg.n_tasks, cg.n_tasks + cg.n_edges)
    )
    _require(
        assignments.ndim == 2 and assignments.shape[1] in widths,
        f"each mapping row must list {cg.n_tasks} tile indices "
        f"(one per task of {cg.name!r})"
        + (
            f", optionally followed by {cg.n_edges} route genes"
            if routes > 1
            else ""
        ),
    )
    genes = assignments[:, cg.n_tasks:]
    _require(
        genes.size == 0 or (genes.min() >= 0 and genes.max() < routes),
        f"route genes must lie in [0, {routes})",
    )
    for row in assignments[:, : cg.n_tasks]:
        _require(
            len(np.unique(row)) == len(row),
            "mapping rows must assign distinct tiles (injective mapping)",
            kind="infeasible",
        )
    return assignments


def error_response(error: ServiceError) -> Tuple[dict, int]:
    """The structured JSON body + HTTP-ish status of a failed request."""
    return (
        {
            "ok": False,
            "error": {
                "status": error.status,
                "kind": error.kind,
                "message": str(error),
            },
        },
        error.status,
    )
