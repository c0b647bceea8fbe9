"""Swap/relocation/reroute move primitives shared by the local-search
strategies.

A move is a ``(task, target_tile, other_task)`` triple: ``other_task`` is
-1 when the target tile is empty (a relocation) and the partner task
index otherwise (a swap). They sit in their own module so the
delta-evaluation engine and the strategies can share them without an
import cycle.

Joint mapping x routing search adds a third move class: a *reroute*
flips one CG edge's route gene. Its canonical numeric form is
``(n_tasks + edge, new_gene, REROUTE)`` — the first element indexes the
edge's gene slot in the widened design vector ``[assignment | genes]``,
so :func:`apply_move` (and the tabu reversal key, which records
``(slot, old_value)``) work unchanged. The human-readable form
``("reroute", edge, new_gene)`` is accepted everywhere via
:func:`normalize_move`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

__all__ = ["Move", "REROUTE", "swap_moves", "swap_move_array", "reroute_moves",
           "reroute_move_array", "apply_move", "normalize_move"]

Move = Tuple[int, int, int]  # (task, new tile, other task or -1)

#: Sentinel in a move's third element marking a reroute: the first two
#: elements are then (gene slot index, new route gene). Distinct from the
#: relocation sentinel -1 so accounting can tell the classes apart.
REROUTE = -2


def swap_move_array(assignment: np.ndarray, n_tiles: int) -> np.ndarray:
    """All admitted moves from an assignment, as an ``(M, 3)`` int64 array.

    Rows are (task, target_tile, other_task) triples; ``other_task`` is -1
    when the target tile is empty (a relocation) and the partner task
    index otherwise (a swap). The order is pinned to the historical double
    loop: relocations task-major over ascending empty tiles, then swaps in
    upper-triangular (task_a, task_b) order.
    """
    assignment = np.asarray(assignment)
    n_tasks = len(assignment)
    occupied_mask = np.zeros(n_tiles, dtype=bool)
    occupied_mask[assignment] = True
    empty_tiles = np.flatnonzero(~occupied_mask)
    n_reloc = n_tasks * len(empty_tiles)
    task_a, task_b = _upper_pairs(n_tasks)
    moves = np.empty((n_reloc + len(task_a), 3), dtype=np.int64)
    relocations = moves[:n_reloc].reshape(n_tasks, len(empty_tiles), 3)
    relocations[:, :, 0] = np.arange(n_tasks)[:, None]
    relocations[:, :, 1] = empty_tiles
    relocations[:, :, 2] = -1
    moves[n_reloc:, 0] = task_a
    moves[n_reloc:, 1] = assignment[task_b]
    moves[n_reloc:, 2] = task_b
    return moves


@lru_cache(maxsize=64)
def _upper_pairs(n_tasks: int):
    """``np.triu_indices(n_tasks, k=1)``, built once per task count."""
    pairs = np.triu_indices(n_tasks, k=1)
    for column in pairs:
        column.setflags(write=False)
    return pairs


def swap_moves(assignment: np.ndarray, n_tiles: int) -> List[Move]:
    """:func:`swap_move_array` as a list of (task, target_tile, other) tuples."""
    return _as_list(swap_move_array(assignment, n_tiles))


def reroute_move_array(
    vector: np.ndarray, n_tasks: int, route_counts: np.ndarray
) -> np.ndarray:
    """All admitted reroute moves from a widened design vector, ``(M, 3)``.

    ``route_counts[edge]`` is the menu size of the edge's current tile
    pair; one move per (edge, gene != current gene mod menu) in edge-major
    gene-ascending order. Edges whose pair offers a single route yield
    nothing, so on architectures without route diversity (e.g. crux
    meshes) the joint neighbourhood degenerates to the mapping one.
    """
    genes = np.asarray(vector)[n_tasks:]
    menus = np.asarray(route_counts, dtype=np.int64)
    menus = np.where(menus > 1, menus, 0)
    edge = np.repeat(np.arange(len(menus)), menus)
    gene = np.arange(len(edge)) - np.repeat(np.cumsum(menus) - menus, menus)
    keep = gene != genes[edge] % menus[edge]
    moves = np.empty((int(keep.sum()), 3), dtype=np.int64)
    moves[:, 0] = n_tasks + edge[keep]
    moves[:, 1] = gene[keep]
    moves[:, 2] = REROUTE
    return moves


def reroute_moves(
    vector: np.ndarray, n_tasks: int, route_counts: np.ndarray
) -> List[Move]:
    """:func:`reroute_move_array` as a list of move tuples."""
    return _as_list(reroute_move_array(vector, n_tasks, route_counts))


def _as_list(moves: np.ndarray) -> List[Move]:
    return list(map(tuple, moves.tolist()))


def normalize_move(move, n_tasks: int) -> Move:
    """Canonical numeric form of a move.

    Accepts the numeric triples produced by :func:`swap_moves` /
    :func:`reroute_moves` unchanged, and converts the readable
    ``("reroute", edge, new_gene)`` form into
    ``(n_tasks + edge, new_gene, REROUTE)``.
    """
    if move[0] == "reroute":
        return (n_tasks + int(move[1]), int(move[2]), REROUTE)
    return (int(move[0]), int(move[1]), int(move[2]))


def apply_move(assignment: np.ndarray, move: Move) -> np.ndarray:
    """A copy of ``assignment`` with one move applied.

    Works on plain assignments and on widened joint vectors alike: a
    reroute's slot index lands in the gene region, and its third element
    (:data:`REROUTE`) is negative so no swap write happens.
    """
    task, tile, other = move
    result = assignment.copy()
    if other >= 0:
        result[other] = assignment[task]
    result[task] = tile
    return result
