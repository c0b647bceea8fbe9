"""Task-to-tile mappings: the decision variable Ω of the paper (eqs. 5–6).

A mapping assigns each task to a distinct tile — eq. (5) says every task is
placed, eq. (6) says a tile hosts at most one task. The optimizers work on
raw numpy arrays (``assignment[task] = tile``); :class:`Mapping` is the
validated, named view used at API boundaries.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.appgraph.graph import CommunicationGraph
from repro.errors import MappingError

__all__ = ["Mapping", "random_assignment", "random_assignment_batch"]


class Mapping:
    """A validated assignment of CG tasks to topology tiles."""

    def __init__(self, cg: CommunicationGraph, assignment: Sequence[int], n_tiles: int):
        array = np.asarray(assignment, dtype=np.int64)
        if array.shape != (cg.n_tasks,):
            raise MappingError(
                f"assignment must have one tile per task "
                f"({cg.n_tasks}), got shape {array.shape}"
            )
        if array.min(initial=0) < 0 or array.max(initial=-1) >= n_tiles:
            raise MappingError(
                f"assignment uses tiles outside 0..{n_tiles - 1}"
            )
        if len(np.unique(array)) != len(array):
            raise MappingError("two tasks share a tile (violates eq. 6)")
        self.cg = cg
        self.n_tiles = n_tiles
        self.assignment = array
        self.assignment.setflags(write=False)

    # -- views -----------------------------------------------------------------

    def tile_of(self, task: "int | str") -> int:
        """Ω(c): the tile hosting a task (by index or name)."""
        if isinstance(task, str):
            task = self.cg.task_index(task)
        return int(self.assignment[task])

    def task_on(self, tile: int) -> Optional[int]:
        """The task hosted on ``tile``, or None if the tile is empty."""
        hits = np.nonzero(self.assignment == tile)[0]
        if len(hits) == 0:
            return None
        return int(hits[0])

    def as_dict(self) -> Dict[str, int]:
        """``{task_name: tile}`` — the human-readable form."""
        return {
            self.cg.tasks[task]: int(tile)
            for task, tile in enumerate(self.assignment)
        }

    def occupied_tiles(self) -> np.ndarray:
        """Sorted array of the tiles hosting a task."""
        return np.sort(self.assignment)

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_dict(
        cls, cg: CommunicationGraph, placement: Dict[str, int], n_tiles: int
    ) -> "Mapping":
        """Build from ``{task_name: tile}`` (all tasks must appear)."""
        missing = set(cg.tasks) - set(placement)
        if missing:
            raise MappingError(f"tasks without a tile: {sorted(missing)}")
        assignment = [placement[task] for task in cg.tasks]
        return cls(cg, assignment, n_tiles)

    @classmethod
    def random(
        cls,
        cg: CommunicationGraph,
        n_tiles: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "Mapping":
        """A uniformly random valid mapping."""
        rng = rng if rng is not None else np.random.default_rng()
        return cls(cg, random_assignment(cg.n_tasks, n_tiles, rng), n_tiles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self.cg.name == other.cg.name
            and self.n_tiles == other.n_tiles
            and bool(np.array_equal(self.assignment, other.assignment))
        )

    def __hash__(self) -> int:
        return hash((self.cg.name, self.n_tiles, self.assignment.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Mapping({self.cg.name!r}, {self.cg.n_tasks} tasks on "
            f"{self.n_tiles} tiles)"
        )


def random_assignment(
    n_tasks: int, n_tiles: int, rng: np.random.Generator
) -> np.ndarray:
    """One random injective assignment (tile indices, one per task)."""
    if n_tasks > n_tiles:
        raise MappingError(
            f"{n_tasks} tasks do not fit on {n_tiles} tiles (violates eq. 2)"
        )
    return rng.permutation(n_tiles)[:n_tasks].astype(np.int64)


def random_assignment_batch(
    n_mappings: int, n_tasks: int, n_tiles: int, rng: np.random.Generator
) -> np.ndarray:
    """Shape (M, n_tasks) batch of random injective assignments."""
    if n_tasks > n_tiles:
        raise MappingError(
            f"{n_tasks} tasks do not fit on {n_tiles} tiles (violates eq. 2)"
        )
    keys = rng.random((n_mappings, n_tiles))
    return np.argsort(keys, axis=1)[:, :n_tasks].astype(np.int64)
