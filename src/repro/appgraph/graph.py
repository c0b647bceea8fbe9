"""Communication Graphs — paper Definition 1.

A Communication Graph CG = G(C, E) is a directed graph where each vertex is
an application task and each edge characterizes the communication between
two tasks. PhoNoCMap's two objectives are bandwidth-independent (worst case
over edges), but edges still carry their bandwidth so that bandwidth-aware
extension objectives and exporters have the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CommunicationEdge", "CommunicationGraph"]


@dataclass(frozen=True)
class CommunicationEdge:
    """One directed communication: source task -> destination task."""

    src: int
    dst: int
    bandwidth: float = 1.0


class CommunicationGraph:
    """CG = G(C, E) with task names, indices, and edge bandwidths.

    Tasks are referenced by index in all performance-sensitive code; names
    exist for human-readable IO. Edges must reference valid tasks, carry
    positive bandwidth, and contain neither self-loops nor duplicates.
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
            if edge.bandwidth <= 0:
                raise ConfigurationError(
                    f"edge {self.tasks[edge.src]!r} -> {self.tasks[edge.dst]!r} "
                    f"of CG {name!r} has non-positive bandwidth {edge.bandwidth}"
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
