"""Router layout compiler: waveguide drawings -> photonic netlists.

A router microarchitecture is described *declaratively* as:

* a set of directed waveguide polylines (:class:`WaveguideSpec`), each
  optionally attached to an external input/output port of the router, and
* a set of microring placements (:class:`RingSpec`) coupling one guide to
  another (crossing PSEs sit at a geometric intersection of the two guides;
  parallel PSEs are placed at explicit arclength positions).

:func:`compile_layout` turns a drawing into a :class:`RouterSpec` netlist:

* every geometric intersection between two guides becomes either the
  declared ring (CPSE) or a plain waveguide crossing,
* guide stretches between intersections become waveguide elements with a
  physical length (``unit_cm`` scales grid units to centimetres),
* the port-to-port *connections* (which elements a signal traverses, and
  which ring it turns at) are derived automatically with a shortest-loss
  path search.

This realizes the paper's extensibility claim: "new topologies, routing
algorithms, optical router architectures ... can be added without any
changes in the tool core" — a new router is just a new drawing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, LayoutError
from repro.photonics.elements import (
    A_IN,
    A_OUT,
    B_IN,
    B_OUT,
    ElementKind,
    TraversalState,
    passive_loss_db,
    straight_output,
    traversal_loss_db,
)
from repro.photonics.parameters import PhysicalParameters
from repro.router.geometry import Point, Polyline

__all__ = [
    "WaveguideSpec",
    "RingSpec",
    "RouterLayout",
    "LocalElement",
    "LocalTraversal",
    "RouterSpec",
    "compile_layout",
]

_SITE_MERGE_TOLERANCE = 1e-6
_MIN_SITE_SPACING = 1e-6


@dataclass(frozen=True)
class WaveguideSpec:
    """A directed waveguide polyline of a router layout.

    ``start_port``/``end_port`` name the external router port the guide
    starts from / ends at; ``None`` means the guide begins blind or ends in
    an absorbing terminator.
    """

    name: str
    points: Tuple[Point, ...]
    start_port: Optional[str] = None
    end_port: Optional[str] = None


@dataclass(frozen=True)
class RingSpec:
    """A microring coupling ``guide_a`` (input/through) to ``guide_b`` (drop).

    For a crossing PSE the location is the geometric intersection of the two
    guides (pass ``at`` to disambiguate when they cross more than once).
    For a parallel PSE there is no intersection, so explicit arclength
    positions on both guides are required.
    """

    name: str
    guide_a: str
    guide_b: str
    kind: ElementKind = ElementKind.CPSE
    at: Optional[Point] = None
    pos_a: Optional[float] = None
    pos_b: Optional[float] = None


@dataclass(frozen=True)
class RouterLayout:
    """A complete router drawing, ready to be compiled."""

    name: str
    waveguides: Tuple[WaveguideSpec, ...]
    rings: Tuple[RingSpec, ...] = ()
    unit_cm: float = 0.004  # one grid unit = 40 um by default


@dataclass(frozen=True)
class LocalElement:
    """One compiled netlist element, local to a router."""

    index: int
    kind: ElementKind
    label: str
    length_cm: float = 0.0
    location: Optional[Point] = None


@dataclass(frozen=True)
class LocalTraversal:
    """One step of a port-to-port connection through a router."""

    element: int
    in_port: int
    out_port: int
    state: TraversalState


class RouterSpec:
    """A compiled router netlist with precomputed port-to-port connections."""

    def __init__(
        self,
        name: str,
        elements: Sequence[LocalElement],
        wiring: Mapping[Tuple[int, int], Tuple[int, int]],
        inputs: Mapping[str, Tuple[int, int]],
        outputs: Mapping[Tuple[int, int], str],
        params: PhysicalParameters,
    ) -> None:
        self.name = name
        self.elements: Tuple[LocalElement, ...] = tuple(elements)
        self.wiring: Dict[Tuple[int, int], Tuple[int, int]] = dict(wiring)
        self.inputs: Dict[str, Tuple[int, int]] = dict(inputs)
        self.outputs: Dict[Tuple[int, int], str] = dict(outputs)
        self.params = params
        self._connections: Dict[Tuple[str, str], Tuple[LocalTraversal, ...]] = {}
        self._compute_all_connections()

    # -- public queries ------------------------------------------------------

    @property
    def input_ports(self) -> Tuple[str, ...]:
        return tuple(sorted(self.inputs))

    @property
    def output_ports(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.outputs.values())))

    @property
    def ring_count(self) -> int:
        """Number of microring resonators (CPSE + PPSE elements)."""
        return sum(
            1
            for e in self.elements
            if e.kind in (ElementKind.CPSE, ElementKind.PPSE)
        )

    @property
    def crossing_count(self) -> int:
        """Number of plain waveguide crossings."""
        return sum(1 for e in self.elements if e.kind is ElementKind.CROSSING)

    def has_connection(self, in_port: str, out_port: str) -> bool:
        return (in_port, out_port) in self._connections

    def connection(self, in_port: str, out_port: str) -> Tuple[LocalTraversal, ...]:
        """The element traversal sequence realizing ``in_port -> out_port``."""
        try:
            return self._connections[(in_port, out_port)]
        except KeyError:
            raise ConfigurationError(
                f"router {self.name!r} has no connection {in_port} -> {out_port}; "
                f"available: {sorted(self._connections)}"
            ) from None

    def connections(self) -> Dict[Tuple[str, str], Tuple[LocalTraversal, ...]]:
        """All reachable (input, output) connections (copy)."""
        return dict(self._connections)

    def connection_loss_db(self, in_port: str, out_port: str) -> float:
        """Total insertion loss of one port-to-port connection."""
        total = 0.0
        for step in self.connection(in_port, out_port):
            element = self.elements[step.element]
            total += traversal_loss_db(
                element.kind, step.in_port, step.out_port, step.state,
                self.params, element.length_cm,
            )
        return total

    # -- connection computation ----------------------------------------------

    def _traversal_options(
        self, element: LocalElement, in_port: int
    ) -> List[Tuple[int, TraversalState, float]]:
        """(out_port, state, loss_db) choices for a signal at ``in_port``."""
        options: List[Tuple[int, TraversalState, float]] = []
        out = straight_output(element.kind, in_port)
        options.append(
            (
                out,
                TraversalState.PASSIVE,
                passive_loss_db(element.kind, in_port, self.params, element.length_cm),
            )
        )
        # Only drop-direction ring turns (A_IN -> B_OUT) are used when
        # deriving connections; add-direction turns exist physically but are
        # not used by router designs.
        if element.kind in (ElementKind.CPSE, ElementKind.PPSE) and in_port == A_IN:
            loss = traversal_loss_db(
                element.kind, A_IN, B_OUT, TraversalState.ON, self.params
            )
            options.append((B_OUT, TraversalState.ON, loss))
        return options

    def _compute_all_connections(self) -> None:
        for port_name in self.inputs:
            self._dijkstra_from(port_name)

    def _dijkstra_from(self, in_port_name: str) -> None:
        start = self.inputs[in_port_name]
        distances: Dict[Tuple[int, int], float] = {start: 0.0}
        previous: Dict[Tuple[int, int], Tuple[Tuple[int, int], LocalTraversal]] = {}
        best_exit: Dict[str, Tuple[float, Tuple[int, int], LocalTraversal]] = {}
        counter = 0
        heap: List[Tuple[float, int, Tuple[int, int]]] = [(0.0, counter, start)]
        visited = set()
        while heap:
            weight, _tick, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            element_index, in_port = node
            element = self.elements[element_index]
            for out_port, state, loss_db in self._traversal_options(element, in_port):
                step = LocalTraversal(element_index, in_port, out_port, state)
                new_weight = weight - loss_db  # losses are <= 0
                exit_key = (element_index, out_port)
                exit_port_name = self.outputs.get(exit_key)
                if exit_port_name is not None:
                    known = best_exit.get(exit_port_name)
                    if known is None or new_weight < known[0]:
                        best_exit[exit_port_name] = (new_weight, node, step)
                    continue
                follow = self.wiring.get(exit_key)
                if follow is None:
                    continue  # absorbing terminator
                if follow not in distances or new_weight < distances[follow]:
                    distances[follow] = new_weight
                    previous[follow] = (node, step)
                    counter += 1
                    heapq.heappush(heap, (new_weight, counter, follow))
        for out_port_name, (_weight, last_node, last_step) in best_exit.items():
            traversals = [last_step]
            node = last_node
            while node in previous:
                node, step = previous[node]
                traversals.append(step)
            traversals.reverse()
            self._connections[(in_port_name, out_port_name)] = tuple(traversals)


# ---------------------------------------------------------------------------
# Layout compilation
# ---------------------------------------------------------------------------


@dataclass
class _Site:
    """An element instance pinned onto one or two guides during compilation."""

    kind: ElementKind
    label: str
    location: Optional[Point]
    index: int = -1  # assigned when materialized


def compile_layout(layout: RouterLayout, params: PhysicalParameters) -> RouterSpec:
    """Compile a router drawing into a :class:`RouterSpec` netlist."""
    _validate_layout(layout)
    polylines = {w.name: Polyline(w.points) for w in layout.waveguides}
    order = {w.name: i for i, w in enumerate(layout.waveguides)}

    # guide name -> list of (arclength, site, 'A'|'B')
    guide_sites: Dict[str, List[Tuple[float, _Site, str]]] = {
        w.name: [] for w in layout.waveguides
    }

    matched_rings = _place_rings(layout, polylines, guide_sites)
    _place_plain_crossings(layout, polylines, guide_sites, matched_rings)
    _validate_sites(layout, polylines, guide_sites)

    elements: List[LocalElement] = []
    wiring: Dict[Tuple[int, int], Tuple[int, int]] = {}
    inputs: Dict[str, Tuple[int, int]] = {}
    outputs: Dict[Tuple[int, int], str] = {}

    def materialize(site: _Site, length_cm: float = 0.0) -> int:
        if site.index >= 0:
            return site.index
        index = len(elements)
        elements.append(
            LocalElement(index, site.kind, site.label, length_cm, site.location)
        )
        site.index = index
        return index

    for guide in layout.waveguides:
        polyline = polylines[guide.name]
        sites = sorted(guide_sites[guide.name], key=lambda item: item[0])
        # Chain: [start] wg0 site1 wg1 site2 ... wgN [end]
        previous_exit: Optional[Tuple[int, int]] = None
        position = 0.0
        for arclength, site, role in sites:
            segment_length_cm = (arclength - position) * layout.unit_cm
            wg_site = _Site(
                ElementKind.WAVEGUIDE,
                f"{layout.name}.{guide.name}.wg@{position:.3f}",
                None,
            )
            wg_index = materialize(wg_site, segment_length_cm)
            _wire_segment(
                wiring, inputs, previous_exit, (wg_index, A_IN),
                guide, is_first=position == 0.0,
            )
            previous_exit = (wg_index, A_OUT)
            site_index = materialize(site)
            in_port = A_IN if role == "A" else B_IN
            out_port = A_OUT if role == "A" else B_OUT
            wiring[previous_exit] = (site_index, in_port)
            previous_exit = (site_index, out_port)
            position = arclength
        # trailing waveguide to the guide end
        tail_length_cm = (polyline.length - position) * layout.unit_cm
        wg_site = _Site(
            ElementKind.WAVEGUIDE,
            f"{layout.name}.{guide.name}.wg@{position:.3f}",
            None,
        )
        wg_index = materialize(wg_site, tail_length_cm)
        _wire_segment(
            wiring, inputs, previous_exit, (wg_index, A_IN),
            guide, is_first=position == 0.0,
        )
        if guide.end_port is not None:
            outputs[(wg_index, A_OUT)] = guide.end_port
        # else: absorbing terminator -> no wiring entry

    return RouterSpec(layout.name, elements, wiring, inputs, outputs, params)


def _wire_segment(
    wiring: Dict[Tuple[int, int], Tuple[int, int]],
    inputs: Dict[str, Tuple[int, int]],
    previous_exit: Optional[Tuple[int, int]],
    target: Tuple[int, int],
    guide: WaveguideSpec,
    is_first: bool,
) -> None:
    if previous_exit is not None:
        wiring[previous_exit] = target
    elif is_first and guide.start_port is not None:
        inputs[guide.start_port] = target
    # else: blind guide start; the stretch is only reachable via a ring.


def _validate_layout(layout: RouterLayout) -> None:
    if layout.unit_cm <= 0:
        raise LayoutError(f"unit_cm must be positive, got {layout.unit_cm}")
    names = [w.name for w in layout.waveguides]
    if len(set(names)) != len(names):
        raise LayoutError(f"duplicate waveguide names in layout {layout.name!r}")
    in_ports = [w.start_port for w in layout.waveguides if w.start_port]
    out_ports = [w.end_port for w in layout.waveguides if w.end_port]
    if len(set(in_ports)) != len(in_ports):
        raise LayoutError(f"duplicate input port names in layout {layout.name!r}")
    if len(set(out_ports)) != len(out_ports):
        raise LayoutError(f"duplicate output port names in layout {layout.name!r}")
    ring_names = [r.name for r in layout.rings]
    if len(set(ring_names)) != len(ring_names):
        raise LayoutError(f"duplicate ring names in layout {layout.name!r}")
    known = set(names)
    for ring in layout.rings:
        for guide_name in (ring.guide_a, ring.guide_b):
            if guide_name not in known:
                raise LayoutError(
                    f"ring {ring.name!r} references unknown waveguide {guide_name!r}"
                )
        if ring.guide_a == ring.guide_b:
            raise LayoutError(f"ring {ring.name!r} must couple two distinct guides")
        if ring.kind not in (ElementKind.CPSE, ElementKind.PPSE):
            raise LayoutError(f"ring {ring.name!r} must be a CPSE or a PPSE")
        if ring.kind is ElementKind.PPSE and (ring.pos_a is None or ring.pos_b is None):
            raise LayoutError(
                f"parallel PSE {ring.name!r} needs explicit pos_a and pos_b"
            )


def _place_rings(
    layout: RouterLayout,
    polylines: Dict[str, Polyline],
    guide_sites: Dict[str, List[Tuple[float, _Site, str]]],
) -> Dict[Tuple[str, str], List[Point]]:
    """Place declared rings; return consumed intersection points per pair."""
    consumed: Dict[Tuple[str, str], List[Point]] = {}
    for ring in layout.rings:
        site = _Site(ring.kind, f"{layout.name}.{ring.name}", ring.at)
        if ring.kind is ElementKind.PPSE:
            guide_sites[ring.guide_a].append((float(ring.pos_a), site, "A"))
            guide_sites[ring.guide_b].append((float(ring.pos_b), site, "B"))
            continue
        hits = polylines[ring.guide_a].intersections_with(polylines[ring.guide_b])
        if not hits:
            raise LayoutError(
                f"ring {ring.name!r}: guides {ring.guide_a!r} and "
                f"{ring.guide_b!r} do not cross"
            )
        if ring.at is not None:
            hits = [h for h in hits if h.is_close(ring.at, tolerance=1e-6)]
            if not hits:
                raise LayoutError(
                    f"ring {ring.name!r}: no crossing at {ring.at}"
                )
        if len(hits) > 1:
            raise LayoutError(
                f"ring {ring.name!r}: guides cross {len(hits)} times; "
                "disambiguate with RingSpec.at"
            )
        location = hits[0]
        site.location = location
        pair = _ordered_pair(ring.guide_a, ring.guide_b)
        consumed.setdefault(pair, []).append(location)
        guide_sites[ring.guide_a].append(
            (polylines[ring.guide_a].arclength_of(location), site, "A")
        )
        guide_sites[ring.guide_b].append(
            (polylines[ring.guide_b].arclength_of(location), site, "B")
        )
    return consumed


def _place_plain_crossings(
    layout: RouterLayout,
    polylines: Dict[str, Polyline],
    guide_sites: Dict[str, List[Tuple[float, _Site, str]]],
    consumed: Dict[Tuple[str, str], List[Point]],
) -> None:
    names = [w.name for w in layout.waveguides]
    crossing_counter = 0
    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            hits = polylines[name_a].intersections_with(polylines[name_b])
            taken = consumed.get(_ordered_pair(name_a, name_b), [])
            for hit in hits:
                if any(hit.is_close(t, tolerance=1e-6) for t in taken):
                    continue
                site = _Site(
                    ElementKind.CROSSING,
                    f"{layout.name}.x{crossing_counter}:{name_a}*{name_b}",
                    hit,
                )
                crossing_counter += 1
                guide_sites[name_a].append(
                    (polylines[name_a].arclength_of(hit), site, "A")
                )
                guide_sites[name_b].append(
                    (polylines[name_b].arclength_of(hit), site, "B")
                )


def _validate_sites(
    layout: RouterLayout,
    polylines: Dict[str, Polyline],
    guide_sites: Dict[str, List[Tuple[float, _Site, str]]],
) -> None:
    for guide in layout.waveguides:
        polyline = polylines[guide.name]
        sites = sorted(guide_sites[guide.name], key=lambda item: item[0])
        previous = None
        for arclength, site, _role in sites:
            if arclength < _MIN_SITE_SPACING or arclength > polyline.length - _MIN_SITE_SPACING:
                raise LayoutError(
                    f"element {site.label!r} sits at the end of guide "
                    f"{guide.name!r}; extend the guide past it"
                )
            if previous is not None and arclength - previous < _MIN_SITE_SPACING:
                raise LayoutError(
                    f"two elements coincide on guide {guide.name!r} at "
                    f"arclength {arclength:.6f}"
                )
            previous = arclength


def _ordered_pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)
