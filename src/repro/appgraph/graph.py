"""Communication Graphs — paper Definition 1.

A Communication Graph CG = G(C, E) is a directed graph where each vertex is
an application task and each edge characterizes the communication between
two tasks. PhoNoCMap's two objectives are bandwidth-independent (worst case
over edges), but edges still carry their bandwidth so that bandwidth-aware
extension objectives and exporters have the data.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.derived import DerivedState
from repro.errors import ConfigurationError

__all__ = ["CommunicationEdge", "CommunicationGraph"]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CommunicationEdge:
    """One directed communication: source task -> destination task."""

    src: int
    dst: int
    bandwidth: float = 1.0


class CommunicationGraph(DerivedState):
    """CG = G(C, E) with task names, indices, and edge bandwidths.

    Tasks are referenced by index in all performance-sensitive code; names
    exist for human-readable IO. Edges must reference valid tasks, carry
    finite positive bandwidth, and contain neither self-loops nor
    duplicates.
    """

    def __init__(
        self,
        name: str,
        tasks: Sequence[str],
        edges: Iterable[Union[CommunicationEdge, Tuple[int, int, float], Tuple[int, int]]],
    ) -> None:
        if not name:
            raise ConfigurationError("a communication graph needs a name")
        if len(tasks) < 2:
            raise ConfigurationError("a communication graph needs at least 2 tasks")
        if len(set(tasks)) != len(tasks):
            raise ConfigurationError(f"duplicate task names in CG {name!r}")
        self.name = name
        self.tasks: Tuple[str, ...] = tuple(tasks)
        self._task_index: Dict[str, int] = {t: i for i, t in enumerate(self.tasks)}
        normalized: List[CommunicationEdge] = []
        seen = set()
        for edge in edges:
            if not isinstance(edge, CommunicationEdge):
                if len(edge) == 2:
                    edge = CommunicationEdge(edge[0], edge[1])
                else:
                    edge = CommunicationEdge(edge[0], edge[1], edge[2])
            if not (0 <= edge.src < len(tasks) and 0 <= edge.dst < len(tasks)):
                raise ConfigurationError(
                    f"edge ({edge.src}, {edge.dst}) of CG {name!r} references "
                    f"a task outside 0..{len(tasks) - 1}"
                )
            if edge.src == edge.dst:
                raise ConfigurationError(
                    f"CG {name!r} has a self-loop on task "
                    f"{self.tasks[edge.src]!r}; a task does not communicate "
                    "with itself over the NoC"
                )
            if (edge.src, edge.dst) in seen:
                raise ConfigurationError(
                    f"duplicate edge {self.tasks[edge.src]!r} -> "
                    f"{self.tasks[edge.dst]!r} in CG {name!r}"
                )
            if not 0 < edge.bandwidth < math.inf:  # NaN fails too
                raise ConfigurationError(
                    f"edge {self.tasks[edge.src]!r} -> {self.tasks[edge.dst]!r} "
                    f"of CG {name!r} has bandwidth {edge.bandwidth}; a "
                    "bandwidth must be finite and positive"
                )
            seen.add((edge.src, edge.dst))
            normalized.append(edge)
        if not normalized:
            raise ConfigurationError(f"CG {name!r} has no edges")
        self.edges: Tuple[CommunicationEdge, ...] = tuple(normalized)

    # -- basic queries -----------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        """size(C)."""
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def task_index(self, task: str) -> int:
        try:
            return self._task_index[task]
        except KeyError:
            raise ConfigurationError(
                f"CG {self.name!r} has no task {task!r}"
            ) from None

    def task_name(self, index: int) -> str:
        return self.tasks[index]

    def edge_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """((src_task, dst_task), ...) for all edges."""
        return tuple((e.src, e.dst) for e in self.edges)

    # -- array views for vectorized evaluation --------------------------------------

    def edge_array(self) -> np.ndarray:
        """Shape (E, 2) int array of (source, destination) task indices."""
        return np.array([(e.src, e.dst) for e in self.edges], dtype=np.int64)

    def bandwidth_array(self) -> np.ndarray:
        """Shape (E,) float array of edge bandwidths."""
        return np.array([e.bandwidth for e in self.edges], dtype=np.float64)

    def serialization_mask(self) -> np.ndarray:
        """Boolean (E, E) mask: True where two edges can interfere.

        Edges sharing the source task (one transmitter) or the destination
        task (one receiver) are serialized by the hardware and never active
        simultaneously; an edge never interferes with itself (DESIGN.md §3).
        """
        pairs = self.edge_array()
        src = pairs[:, 0]
        dst = pairs[:, 1]
        same_src = src[:, None] == src[None, :]
        same_dst = dst[:, None] == dst[None, :]
        mask = ~(same_src | same_dst)
        return mask

    # -- derived tables ----------------------------------------------------------------
    #
    # Pure functions of the graph that every evaluator, delta engine and
    # pool key over it reads: cached properties, built on first use,
    # read-only, and left out of the pickle (see DerivedState).
    # load_benchmark hands out one instance per application, so a
    # process builds each once per application.

    @cached_property
    def edge_table(self) -> np.ndarray:
        """Read-only :meth:`edge_array`."""
        return _read_only(self.edge_array())

    @cached_property
    def bandwidth_weights(self) -> np.ndarray:
        """Edge bandwidths normalized to sum 1 (read-only)."""
        bandwidths = self.bandwidth_array()
        return _read_only(bandwidths / bandwidths.sum())

    @cached_property
    def mask_linear(self) -> np.ndarray:
        """:meth:`serialization_mask` as float64 0/1 weights (read-only)."""
        return _read_only(self.serialization_mask().astype(np.float64))

    @cached_property
    def mask_linear_T(self) -> np.ndarray:
        """Contiguous transpose of :attr:`mask_linear` (read-only).

        SNR-family delta engines gather it by aggressor column.
        """
        return _read_only(np.ascontiguousarray(self.mask_linear.T))

    @cached_property
    def conflict_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Padded per-victim tables of serialized aggressor edges.

        Row ``v`` lists the aggressor edge indices ``a`` with
        ``mask[v, a] == 0`` (the serialized edges plus ``v`` itself) —
        the only columns by which a victim's masked noise differs from
        the plain sum over a mapping's pairs. Padding entries point at
        edge 0 and carry weight 0, so vectorized gathers stay
        rectangular. The sparse noise kernel and every SNR-family delta
        engine read it.
        """
        mask = self.mask_linear
        conflicts = [np.nonzero(mask[v] == 0.0)[0] for v in range(self.n_edges)]
        width = max(1, max((len(c) for c in conflicts), default=1))
        conf_idx = np.zeros((len(conflicts), width), dtype=np.int64)
        conf_w = np.zeros((len(conflicts), width), dtype=np.float64)
        for v, c in enumerate(conflicts):
            conf_idx[v, : len(c)] = c
            conf_w[v, : len(c)] = 1.0
        return _read_only(conf_idx), _read_only(conf_w)

    @cached_property
    def affected_rows(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(rows, counts, width)``: the delta engine's affected-edge table.

        Row ``task * (n_tasks + 1) + partner`` lists the edges a move of
        ``task`` with swap partner ``partner`` changes (``partner ==
        n_tasks`` for a relocation), valid entries first and padded with
        -1; ``counts`` holds the valid lengths and ``width`` the widest
        incident list (see :mod:`repro.core.delta`).
        """
        edges = self.edge_table
        n_tasks = self.n_tasks
        incident = [[] for _ in range(n_tasks + 1)]
        for e, (s, d) in enumerate(edges):
            incident[int(s)].append(e)
            incident[int(d)].append(e)
        width = max(len(lst) for lst in incident) or 1
        inc = np.full((n_tasks + 1, width), -1, dtype=np.int64)
        for t, lst in enumerate(incident):
            inc[t, : len(lst)] = lst
        task, partner = np.divmod(np.arange((n_tasks + 1) ** 2), n_tasks + 1)
        second = inc[partner]
        # An edge joining the two moved tasks appears in both incident
        # lists; drop the second copy so its delta isn't applied twice.
        ends = edges[np.where(second >= 0, second, 0)]
        duplicate = (ends == task[:, None, None]).any(axis=2)
        second = np.where((second >= 0) & ~duplicate, second, -1)
        rows = -np.sort(-np.concatenate([inc[task], second], axis=1), axis=1)
        counts = (rows >= 0).sum(axis=1)
        rows = rows[:, : max(1, int(counts.max()))].copy()
        return _read_only(rows), _read_only(counts), width

    @cached_property
    def fingerprint(self) -> str:
        """SHA-1 of the name, tasks, edges and bandwidths.

        Two graphs with the same content are interchangeable for worker
        pools and coalesced flights even when they are distinct objects,
        so :func:`repro.core.pool.flight_key` keys on this, not on
        identity.
        """
        digest = hashlib.sha1()
        digest.update(self.name.encode())
        digest.update("\x00".join(self.tasks).encode())
        digest.update(self.edge_table.tobytes())
        digest.update(self.bandwidth_array().tobytes())
        return digest.hexdigest()

    # -- structure ---------------------------------------------------------------------

    def out_degree(self, task: int) -> int:
        return sum(1 for e in self.edges if e.src == task)

    def in_degree(self, task: int) -> int:
        return sum(1 for e in self.edges if e.dst == task)

    def total_bandwidth(self) -> float:
        return float(sum(e.bandwidth for e in self.edges))

    def graph(self) -> "nx.DiGraph":
        """A networkx view with task names and bandwidths."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(self.tasks)
        for e in self.edges:
            g.add_edge(self.tasks[e.src], self.tasks[e.dst], bandwidth=e.bandwidth)
        return g

    def is_weakly_connected(self) -> bool:
        """Whether every task is reachable when edge direction is ignored."""
        parent = list(range(self.n_tasks))

        def root(task: int) -> int:
            while parent[task] != task:
                parent[task] = parent[parent[task]]
                task = parent[task]
            return task

        components = self.n_tasks
        for edge in self.edges:
            src, dst = root(edge.src), root(edge.dst)
            if src != dst:
                parent[src] = dst
                components -= 1
        return components == 1

    # -- construction helpers --------------------------------------------------------------

    @classmethod
    def from_named_edges(
        cls,
        name: str,
        edges: Iterable[Tuple[str, str, float]],
    ) -> "CommunicationGraph":
        """Build a CG from (src_name, dst_name, bandwidth) triples.

        Task indices follow first appearance order, which keeps graphs
        readable and stable across runs.
        """
        tasks: List[str] = []
        index: Dict[str, int] = {}
        triples = list(edges)
        for src, dst, _bw in triples:
            for task in (src, dst):
                if task not in index:
                    index[task] = len(tasks)
                    tasks.append(task)
        return cls(
            name,
            tasks,
            [(index[s], index[d], bw) for s, d, bw in triples],
        )

    def __repr__(self) -> str:
        return (
            f"CommunicationGraph({self.name!r}, tasks={self.n_tasks}, "
            f"edges={self.n_edges})"
        )
