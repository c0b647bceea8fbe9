"""Synthetic communication-graph generators (TGFF-spirited).

The paper's benchmarks are fixed applications; scalability studies and
property-based tests need families of graphs with controlled structure.
These generators produce the common MPSoC traffic shapes:

* :func:`pipeline_cg` — a linear processing chain;
* :func:`fork_join_cg` — a scatter/gather stage (fan-out then fan-in);
* :func:`hub_cg` — a shared-memory style hub exchanging data with
  satellites (the MPEG-4 shape);
* :func:`random_cg` — a random weakly-connected DAG-ish graph with a
  requested edge count, reproducible from a seed;
* :func:`all_to_all_cg` — uniform traffic (every ordered pair), the
  classic NoC stress workload and the edge-dense regime where the
  evaluator picks its sparse noise kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.appgraph.graph import CommunicationGraph
from repro.errors import ConfigurationError

__all__ = ["pipeline_cg", "fork_join_cg", "hub_cg", "random_cg", "all_to_all_cg"]


def all_to_all_cg(n_tasks: int, bandwidth: float = 64.0) -> CommunicationGraph:
    """Uniform traffic: every ordered task pair communicates.

    The densest possible CG (``n_tasks * (n_tasks - 1)`` edges) — the
    standard uniform-traffic stress pattern of NoC evaluation, and the
    workload where the ``(M, E, E)`` dense noise grid grows quadratically
    past memory while the sparse noise kernel keeps streaming
    ``O(nnz)``.
    """
    if n_tasks < 2:
        raise ConfigurationError("all-to-all traffic needs at least 2 tasks")
    tasks = [f"t{i}" for i in range(n_tasks)]
    edges = [
        (a, b, bandwidth)
        for a in range(n_tasks)
        for b in range(n_tasks)
        if a != b
    ]
    return CommunicationGraph(f"alltoall{n_tasks}", tasks, edges)


def pipeline_cg(n_tasks: int, bandwidth: float = 64.0) -> CommunicationGraph:
    """A linear chain t0 -> t1 -> ... -> t(n-1)."""
    if n_tasks < 2:
        raise ConfigurationError("a pipeline needs at least 2 tasks")
    edges = [(i, i + 1, bandwidth) for i in range(n_tasks - 1)]
    tasks = [f"stage{i}" for i in range(n_tasks)]
    return CommunicationGraph(f"pipeline{n_tasks}", tasks, edges)


def fork_join_cg(n_workers: int, bandwidth: float = 64.0) -> CommunicationGraph:
    """A scatter/gather: source -> N workers -> sink."""
    if n_workers < 1:
        raise ConfigurationError("fork/join needs at least one worker")
    tasks = ["source"] + [f"worker{i}" for i in range(n_workers)] + ["sink"]
    edges = [(0, 1 + i, bandwidth) for i in range(n_workers)]
    edges += [(1 + i, len(tasks) - 1, bandwidth) for i in range(n_workers)]
    return CommunicationGraph(f"forkjoin{n_workers}", tasks, edges)


def hub_cg(n_satellites: int, bandwidth: float = 64.0) -> CommunicationGraph:
    """A hub exchanging data bidirectionally with N satellites."""
    if n_satellites < 1:
        raise ConfigurationError("a hub needs at least one satellite")
    tasks = ["hub"] + [f"sat{i}" for i in range(n_satellites)]
    edges = []
    for i in range(n_satellites):
        edges.append((0, 1 + i, bandwidth))
        edges.append((1 + i, 0, bandwidth))
    return CommunicationGraph(f"hub{n_satellites}", tasks, edges)


def random_cg(
    n_tasks: int,
    n_edges: int,
    seed: Optional[int] = None,
    max_bandwidth: float = 256.0,
) -> CommunicationGraph:
    """A random weakly-connected graph with exactly ``n_edges`` edges.

    A random spanning arborescence guarantees weak connectivity; remaining
    edges are sampled uniformly without duplicates or self-loops.
    Reproducible given ``seed``.
    """
    if n_tasks < 2:
        raise ConfigurationError("a random CG needs at least 2 tasks")
    min_edges = n_tasks - 1
    max_edges = n_tasks * (n_tasks - 1)
    if not (min_edges <= n_edges <= max_edges):
        raise ConfigurationError(
            f"n_edges for {n_tasks} tasks must be in "
            f"[{min_edges}, {max_edges}], got {n_edges}"
        )
    rng = np.random.default_rng(seed)
    chosen = set()
    # Spanning structure: connect each task (from index 1) to a random
    # earlier task, in a random direction.
    order = rng.permutation(n_tasks)
    for position in range(1, n_tasks):
        a = int(order[position])
        b = int(order[rng.integers(0, position)])
        if rng.random() < 0.5:
            chosen.add((a, b))
        else:
            chosen.add((b, a))
    while len(chosen) < n_edges:
        a = int(rng.integers(0, n_tasks))
        b = int(rng.integers(0, n_tasks))
        if a != b:
            chosen.add((a, b))
    bandwidths = rng.uniform(1.0, max_bandwidth, size=len(chosen))
    tasks = [f"t{i}" for i in range(n_tasks)]
    edges = [
        (a, b, float(bw)) for (a, b), bw in zip(sorted(chosen), bandwidths)
    ]
    return CommunicationGraph(f"random{n_tasks}x{n_edges}", tasks, edges)
