"""Topology graphs X(T, L) — paper Definition 2.

A topology says how tiles connect: each tile hosts one optical router, and
each directed link is a waveguide between two routers' ports. The paper
evaluates direct 2-D *mesh* and *torus* topologies; both are provided here
as :class:`GridTopology`, along with the degenerate 1-D cases (line, ring).

Grid conventions:

* tiles are indexed row-major: ``index = row * cols + col``;
* row 0 is the **south** row and column 0 the **west** column, so the
  ``N`` direction increases the row and ``E`` increases the column —
  matching the router geometry where north is +y;
* a mesh link spans one tile pitch; torus links (in the standard folded
  layout, which equalizes wrap-around) span two pitches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.errors import TopologyError

__all__ = [
    "DIRECTIONS",
    "opposite_direction",
    "Link",
    "GridTopology",
    "mesh",
    "torus",
    "line",
    "ring",
]

#: The four grid directions, in clockwise order starting north.
DIRECTIONS = ("N", "E", "S", "W")

_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

#: Folded-torus links are twice as long as mesh links (see DESIGN.md §4).
FOLDED_TORUS_LENGTH_UNITS = 2.0


def opposite_direction(direction: str) -> str:
    """The direction a signal leaving through ``direction`` arrives from."""
    try:
        return _OPPOSITE[direction]
    except KeyError:
        raise TopologyError(f"unknown direction {direction!r}") from None


@dataclass(frozen=True)
class Link:
    """A directed inter-router link.

    ``length_units`` is the physical waveguide length in tile pitches.
    """

    src: int
    dst: int
    out_dir: str
    in_dir: str
    length_units: float


class GridTopology:
    """A 2-D mesh or torus of tiles (Def. 2's X(T, L) for direct grids)."""

    def __init__(self, rows: int, cols: int, wraparound: bool, name: str):
        if rows < 1 or cols < 1:
            raise TopologyError(f"grid must be at least 1x1, got {rows}x{cols}")
        if rows * cols < 2:
            raise TopologyError("a topology needs at least 2 tiles")
        if wraparound and (rows == 2 or cols == 2):
            # A 2-wide torus would create duplicate parallel links between
            # the same tile pair; the mesh is the sensible network there.
            raise TopologyError(
                "torus wraparound needs dimension size 1 or >= 3, "
                f"got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.wraparound = wraparound
        self.name = name
        self._links: Dict[Tuple[int, str], Link] = {}
        self._build_links()

    # -- construction ---------------------------------------------------------

    def _build_links(self) -> None:
        length = FOLDED_TORUS_LENGTH_UNITS if self.wraparound else 1.0
        for row in range(self.rows):
            for col in range(self.cols):
                src = self.tile_index(row, col)
                for direction in DIRECTIONS:
                    neighbor = self._neighbor(row, col, direction)
                    if neighbor is None:
                        continue
                    link = Link(
                        src,
                        neighbor,
                        direction,
                        opposite_direction(direction),
                        length,
                    )
                    self._links[(src, direction)] = link

    def _neighbor(self, row: int, col: int, direction: str):
        delta_row = {"N": 1, "S": -1}.get(direction, 0)
        delta_col = {"E": 1, "W": -1}.get(direction, 0)
        new_row, new_col = row + delta_row, col + delta_col
        if self.wraparound:
            if self.rows > 1:
                new_row %= self.rows
            if self.cols > 1:
                new_col %= self.cols
        if not (0 <= new_row < self.rows and 0 <= new_col < self.cols):
            return None
        if new_row == row and new_col == col:
            return None  # 1-wide dimension wraps onto itself
        return self.tile_index(new_row, new_col)

    # -- queries ---------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        """size(T): the number of tiles."""
        return self.rows * self.cols

    def tile_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise TopologyError(
                f"tile ({row},{col}) outside {self.rows}x{self.cols} grid"
            )
        return row * self.cols + col

    def tile_coords(self, index: int) -> Tuple[int, int]:
        if not (0 <= index < self.n_tiles):
            raise TopologyError(f"tile index {index} outside 0..{self.n_tiles - 1}")
        return divmod(index, self.cols)

    def link(self, src: int, out_dir: str) -> Link:
        """The link leaving ``src`` through ``out_dir`` (raises if absent)."""
        try:
            return self._links[(src, out_dir)]
        except KeyError:
            raise TopologyError(
                f"tile {src} of {self.name} has no link towards {out_dir}"
            ) from None

    def has_link(self, src: int, out_dir: str) -> bool:
        return (src, out_dir) in self._links

    def links(self) -> Iterator[Link]:
        """All directed links in a deterministic order."""
        for key in sorted(self._links):
            yield self._links[key]

    def neighbors(self, tile: int) -> Tuple[int, ...]:
        """Tiles directly linked from ``tile`` (sorted, unique)."""
        row, col = self.tile_coords(tile)
        found = set()
        for direction in DIRECTIONS:
            neighbor = self._neighbor(row, col, direction)
            if neighbor is not None:
                found.add(neighbor)
        return tuple(sorted(found))

    def graph(self) -> "nx.DiGraph":
        """A networkx view of X(T, L), for analysis and export."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(range(self.n_tiles))
        for link in self.links():
            g.add_edge(link.src, link.dst, direction=link.out_dir,
                       length_units=link.length_units)
        return g

    @property
    def signature(self) -> str:
        """A stable identity string, used for model caching."""
        return f"{self.name}[{self.rows}x{self.cols}]"

    def __repr__(self) -> str:
        return f"GridTopology({self.signature}, tiles={self.n_tiles})"


def mesh(rows: int, cols: int) -> GridTopology:
    """A ``rows x cols`` 2-D mesh."""
    return GridTopology(rows, cols, wraparound=False, name="mesh")


def torus(rows: int, cols: int) -> GridTopology:
    """A ``rows x cols`` 2-D folded torus."""
    return GridTopology(rows, cols, wraparound=True, name="torus")


def line(n: int) -> GridTopology:
    """A 1-D line of ``n`` tiles (a 1 x n mesh)."""
    return GridTopology(1, n, wraparound=False, name="line")


def ring(n: int) -> GridTopology:
    """A 1-D ring of ``n`` tiles (a 1 x n torus)."""
    return GridTopology(1, n, wraparound=True, name="ring")
