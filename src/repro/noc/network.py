"""Photonic NoC assembly: topology + routers + links as one element netlist.

:class:`PhotonicNoC` instantiates one compiled optical router per tile,
connects router ports with inter-router link waveguides according to the
topology, and elaborates the routing algorithm's hop lists into
element-level :class:`~repro.noc.paths.NetworkPath` objects.

Elaboration works on arrays. At the first path request the network turns
every port-to-port connection of its router into a *template* — the step
rows and per-step losses of that connection — and computes each link
waveguide's step once; a hop through tile ``t`` is then the template
shifted by ``t``'s element offset, followed by the outgoing link's step
(cached per tile and hop the first time it is used), and a path is one
concatenation of its hops. No traversal is visited in Python.

Every element instance (router-internal elements of every tile, plus link
waveguides) gets a *global element id*; paths and the crosstalk model work
exclusively with these ids, so two communications interact exactly when
they visit the same physical element instance.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.derived import DerivedState
from repro.errors import ConfigurationError
from repro.noc.floorplan import Floorplan
from repro.noc.paths import STATE_CODES, NetworkPath
from repro.noc.routing import (
    GATEWAY,
    KPathRouting,
    RouteSet,
    RoutingAlgorithm,
    XYRouting,
    walk_plan,
)
from repro.noc.topology import GridTopology
from repro.photonics.elements import (
    WG_IN,
    WG_OUT,
    ElementKind,
    TraversalState,
    traversal_loss_db,
)
from repro.photonics.parameters import PhysicalParameters
from repro.router.layout import RouterSpec
from repro.router.registry import build_router

__all__ = ["NetworkElement", "PhotonicNoC"]


def _port_names(in_dir: str, out_dir: str) -> Tuple[str, str]:
    """Router port names of a hop entering via ``in_dir``, leaving via ``out_dir``."""
    return (
        "L_in" if in_dir == GATEWAY else f"{in_dir}_in",
        "L_out" if out_dir == GATEWAY else f"{out_dir}_out",
    )


class NetworkElement:
    """One physical element instance in the assembled network."""

    __slots__ = ("gid", "kind", "label", "length_cm")

    def __init__(self, gid: int, kind: ElementKind, label: str, length_cm: float):
        self.gid = gid
        self.kind = kind
        self.label = label
        self.length_cm = length_cm

    def __repr__(self) -> str:
        return f"NetworkElement({self.gid}, {self.kind.value}, {self.label!r})"


class PhotonicNoC(DerivedState):
    """A fully assembled photonic network-on-chip.

    Parameters
    ----------
    topology:
        The tile interconnection graph (mesh, torus, ...).
    router:
        A registered router name (``"crux"``, ``"crossbar"``, ...) or an
        already compiled :class:`RouterSpec` (which must use the same
        physical parameters).
    routing:
        The routing algorithm; defaults to XY dimension order, as in the
        paper's experiments.
    params:
        Physical coefficients; defaults to the paper's Table I.
    floorplan:
        Physical dimensions; defaults to a 2.5 mm tile pitch.

    Sharing
    -------
    One instance may be shared by any number of threads, and
    :func:`~repro.analysis.experiments.build_case_study_network` hands
    the same instance to every caller while the process holds a
    coupling model for it. Two facts make that safe:

    * the netlist (elements, wiring, router spec, parameters) is never
      mutated after assembly;
    * every lazily derived member is a cached property (the memo dicts
      ``_paths``, ``_routed_paths``, ``_route_sets`` and ``_segments``,
      and ``_turn_keys``, ``_templates`` and :attr:`signature`) holding
      a pure function of the netlist, published by one assignment or
      one dict insert, so a race costs duplicate work, never a torn
      read. :meth:`all_paths` returns pairs in ``(src, dst)`` order
      whatever order other threads elaborated them in.

    Pickling leaves every cached property out (:class:`DerivedState`),
    so a shipped network (a TCP worker's ``init`` frame) stays
    netlist-sized however many paths the sender has elaborated, and the
    same bytes whether or not its signature was computed.
    """

    def __init__(
        self,
        topology: GridTopology,
        router: Union[str, RouterSpec] = "crux",
        routing: Optional[RoutingAlgorithm] = None,
        params: Optional[PhysicalParameters] = None,
        floorplan: Optional[Floorplan] = None,
    ) -> None:
        self.topology = topology
        self.params = params if params is not None else PhysicalParameters()
        self.floorplan = floorplan if floorplan is not None else Floorplan()
        self.routing = routing if routing is not None else XYRouting()
        if isinstance(router, RouterSpec):
            self.router_spec = router
        else:
            self.router_spec = build_router(router, self.params)
        self._local_count = len(self.router_spec.elements)
        self.elements: List[NetworkElement] = []
        self.wiring: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._link_gid: Dict[Tuple[int, str], int] = {}
        self._assemble()

    # -- assembly --------------------------------------------------------------

    def _assemble(self) -> None:
        spec = self.router_spec
        local_count = self._local_count
        for tile in range(self.topology.n_tiles):
            base = tile * local_count
            for local in spec.elements:
                self.elements.append(
                    NetworkElement(
                        base + local.index,
                        local.kind,
                        f"t{tile}.{local.label}",
                        local.length_cm,
                    )
                )
            for (element, out_port), (element2, in_port2) in spec.wiring.items():
                self.wiring[(base + element, out_port)] = (base + element2, in_port2)
        # Link waveguides and port stitching.
        for link in self.topology.links():
            gid = len(self.elements)
            length_cm = self.floorplan.link_length_cm(link.length_units)
            self.elements.append(
                NetworkElement(
                    gid,
                    ElementKind.WAVEGUIDE,
                    f"link.t{link.src}.{link.out_dir}->t{link.dst}",
                    length_cm,
                )
            )
            self._link_gid[(link.src, link.out_dir)] = gid
            in_port_name = f"{link.in_dir}_in"
            try:
                dst_entry = spec.inputs[in_port_name]
            except KeyError:
                raise ConfigurationError(
                    f"router {spec.name!r} has no input port {in_port_name!r} "
                    f"needed by topology {self.topology.signature}"
                ) from None
            dst_element, dst_port = dst_entry
            self.wiring[(gid, WG_OUT)] = (
                link.dst * local_count + dst_element,
                dst_port,
            )
        # Router outputs feeding links (L_out and chip-edge ports stay
        # absorbing: no wiring entry).
        for tile in range(self.topology.n_tiles):
            base = tile * local_count
            for (element, out_port), port_name in spec.outputs.items():
                if port_name == "L_out":
                    continue
                direction = port_name[:-len("_out")]
                if not self.topology.has_link(tile, direction):
                    continue
                gid = self._link_gid[(tile, direction)]
                self.wiring[(base + element, out_port)] = (gid, WG_IN)

    # -- element / wiring queries ------------------------------------------------

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element(self, gid: int) -> NetworkElement:
        return self.elements[gid]

    def follow(self, element: int, out_port: int) -> Optional[Tuple[int, int]]:
        """Where ``(element, out_port)`` leads: ``(element, in_port)`` or None."""
        return self.wiring.get((element, out_port))

    def tile_of_element(self, gid: int) -> Optional[int]:
        """The tile owning a router-internal element (None for links)."""
        if gid >= self.topology.n_tiles * self._local_count:
            return None
        return gid // self._local_count

    # -- lazily derived members -----------------------------------------------------

    @cached_property
    def _paths(self) -> Dict[Tuple[int, int], NetworkPath]:
        """Base paths by ``(src, dst)``, filled by :meth:`path`."""
        return {}

    @cached_property
    def _routed_paths(self) -> Dict[Tuple[int, int, Tuple[str, ...]], NetworkPath]:
        """Non-base routed paths by ``(src, dst, plan)``."""
        return {}

    @cached_property
    def _route_sets(self) -> Dict[int, Dict[Tuple[int, int], RouteSet]]:
        """Route menus by ``k``, then by ``(src, dst)``."""
        return {}

    @cached_property
    def _segments(self) -> Dict[Tuple[int, str, str, bool], tuple]:
        """Hop step rows and losses, by :meth:`_segment`'s arguments."""
        return {}

    @cached_property
    def _turn_keys(self) -> set:
        """The router's ``(in port, out port)`` connections."""
        return set(self.router_spec.connections().keys())

    # -- paths --------------------------------------------------------------------

    def path(self, src: int, dst: int) -> NetworkPath:
        """The elaborated path from tile ``src`` to tile ``dst`` (cached)."""
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        elaborated = self._elaborate(src, dst)
        self._paths[key] = elaborated
        return elaborated

    def all_paths(self) -> Dict[Tuple[int, int], NetworkPath]:
        """Paths for every ordered tile pair, in ``(src, dst)`` order.

        The order is the model build's slot order, so it must not depend
        on which pairs some caller elaborated first.
        """
        n = self.topology.n_tiles
        return {
            (src, dst): self.path(src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst
        }

    # -- route menus (joint mapping x routing search) --------------------------

    def _turn_legal(self, in_dir: str, out_dir: str) -> bool:
        """Whether this network's router provides the ``in -> out`` turn."""
        return _port_names(in_dir, out_dir) in self._turn_keys

    def route_set(self, src: int, dst: int, k: int) -> RouteSet:
        """The pair's route menu: up to ``k`` minimal-hop router-legal plans.

        Route 0 is always this network's configured routing plan, so a
        ``k=1`` menu reproduces the single implicit route exactly. Menus
        are cached per ``k``.
        """
        per_k = self._route_sets.setdefault(int(k), {})
        cached = per_k.get((src, dst))
        if cached is None:
            enumerator = KPathRouting(k, base=self.routing)
            cached = enumerator.route_set(
                self.topology, src, dst, turn_legal=self._turn_legal
            )
            per_k[(src, dst)] = cached
        return cached

    def route_counts(self, k: int) -> np.ndarray:
        """Per-pair menu sizes, shape ``(n_tiles**2,)`` (1 on the diagonal)."""
        n = self.topology.n_tiles
        counts = np.ones(n * n, dtype=np.int64)
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    counts[src * n + dst] = self.route_set(src, dst, k).n_routes
        return counts

    def routed_path(self, src: int, dst: int, route: int, k: int) -> NetworkPath:
        """The elaborated path of route ``route`` of the pair's ``k``-menu.

        Route indices wrap modulo the pair's menu size, so a stale route
        gene is always well-defined. Route 0 (and any index wrapping to
        it) is byte-for-byte the pair's base :meth:`path`.
        """
        plan = self.route_set(src, dst, k).plan(route)
        if route % self.route_set(src, dst, k).n_routes == 0:
            return self.path(src, dst)
        key = (src, dst, plan)
        cached = self._routed_paths.get(key)
        if cached is None:
            cached = self._elaborate(src, dst, plan=plan)
            self._routed_paths[key] = cached
        return cached

    def all_paths_routed(
        self, k: int
    ) -> Dict[Tuple[int, int, int], NetworkPath]:
        """Routed paths for every (src, dst, route < k) slot, slot-major."""
        n = self.topology.n_tiles
        out: Dict[Tuple[int, int, int], NetworkPath] = {}
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                for route in range(k):
                    out[(src, dst, route)] = self.routed_path(src, dst, route, k)
        return out

    def _elaborate(
        self, src: int, dst: int, plan: Optional[Sequence[str]] = None
    ) -> NetworkPath:
        if plan is None:
            hops = self.routing.route(self.topology, src, dst)
        else:
            hops = walk_plan(
                self.topology, src, dst, plan, label="route plan"
            )
        last = len(hops) - 1
        segments = self._segments
        parts = []
        for index, hop in enumerate(hops):
            key = (hop.tile, hop.in_dir, hop.out_dir, index < last)
            segment = segments.get(key)
            if segment is None:
                segment = segments[key] = self._segment(*key)
            parts.append(segment)
        return NetworkPath.from_arrays(
            src,
            dst,
            np.concatenate([steps for steps, _losses in parts]),
            np.concatenate([losses for _steps, losses in parts]),
        )

    def _segment(
        self, tile: int, in_dir: str, out_dir: str, to_link: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Step rows and losses of one hop: the router connection through
        ``tile``, then (``to_link``) the link waveguide it feeds."""
        connections, links = self._templates
        ports = _port_names(in_dir, out_dir)
        template = connections.get(ports)
        if template is None:
            self.router_spec.connection(*ports)  # raises
        steps, losses = template
        steps = steps.copy()
        steps[:, 0] += tile * self._local_count
        if to_link:
            link_step, link_loss = links[(tile, out_dir)]
            steps = np.concatenate([steps, link_step])
            losses = np.concatenate([losses, link_loss])
        return steps, losses

    @cached_property
    def _templates(self) -> tuple:
        """Per-connection router templates and per-link steps.

        A template is the ``(n, 4)`` step rows of one port-to-port
        connection (local element ids) with its ``(n,)`` step losses; a
        link step is the one-row traversal of a link waveguide with its
        loss. :func:`~repro.photonics.elements.traversal_loss_db` runs once
        per template step and once per link, and checks every step.
        """
        spec = self.router_spec
        params = self.params
        connections = {}
        for ports, steps in spec.connections().items():
            rows = np.array(
                [
                    (s.element, s.in_port, s.out_port, STATE_CODES[s.state])
                    for s in steps
                ],
                dtype=np.int64,
            ).reshape(-1, 4)
            losses = np.array(
                [
                    traversal_loss_db(
                        spec.elements[s.element].kind, s.in_port, s.out_port,
                        s.state, params, spec.elements[s.element].length_cm,
                    )
                    for s in steps
                ],
                dtype=np.float64,
            )
            connections[ports] = (rows, losses)
        passive = STATE_CODES[TraversalState.PASSIVE]
        links = {}
        for (tile, direction), gid in self._link_gid.items():
            element = self.elements[gid]
            loss = traversal_loss_db(
                element.kind, WG_IN, WG_OUT, TraversalState.PASSIVE, params,
                element.length_cm,
            )
            links[(tile, direction)] = (
                np.array([[gid, WG_IN, WG_OUT, passive]], dtype=np.int64),
                np.array([loss], dtype=np.float64),
            )
        return connections, links

    # -- derivation -----------------------------------------------------------------

    def with_params(self, params: PhysicalParameters) -> "PhotonicNoC":
        """The same architecture built with different physical coefficients.

        Recompiles the router (by its registered name) against ``params``
        and re-elaborates the paths, keeping topology, routing algorithm
        and floorplan. This is the seam device-library sweeps and
        process-variation sampling use to turn one nominal network into
        one network per parameter point.
        """
        return PhotonicNoC(
            self.topology,
            router=self.router_spec.name,
            routing=self.routing,
            params=params,
            floorplan=self.floorplan,
        )

    # -- identity -------------------------------------------------------------------

    @cached_property
    def signature(self) -> str:
        """Stable identity of the architecture, for model caching.

        The device coefficients enter as the parameter set's canonical
        :attr:`~repro.photonics.parameters.PhysicalParameters.content_hash`
        — an injective encoding, so two networks differing in any
        coefficient can never share a signature, and therefore never a
        model-cache entry or a worker pool. Hashed once per netlist:
        every request's model lookup, pool key and flight key reads it.
        """
        return self.signature_of(
            self.topology, self.router_spec.name, self.params, self.routing,
            self.floorplan,
        )

    @staticmethod
    def signature_of(
        topology: GridTopology,
        router: str,
        params: PhysicalParameters,
        routing: Optional[RoutingAlgorithm] = None,
        floorplan: Optional[Floorplan] = None,
    ) -> str:
        """The :attr:`signature` of a network built from these arguments.

        Computed without compiling the router or assembling anything, so
        a caller can look a network up before building it. ``router`` is
        the compiled spec's name (each built-in router's registry name).
        """
        routing = routing if routing is not None else XYRouting()
        floorplan = floorplan if floorplan is not None else Floorplan()
        return (
            f"{topology.signature}|{router}|{routing.name}"
            f"|{floorplan.signature}|params={params.content_hash}"
        )

    def __repr__(self) -> str:
        return (
            f"PhotonicNoC({self.topology.signature}, router={self.router_spec.name}, "
            f"routing={self.routing.name}, elements={self.n_elements})"
        )
