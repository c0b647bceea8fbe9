"""Communication graph IO: JSON round-trip, edge lists, DOT export.

These formats make PhoNoCMap usable as a standalone tool: applications can
be described outside Python (box 1 of the paper's Fig. 1 — "the input
description of the application") and results inspected with standard
graph viewers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.appgraph.graph import CommunicationGraph
from repro.errors import ConfigurationError

__all__ = [
    "cg_to_dict",
    "cg_from_dict",
    "save_cg_json",
    "load_cg_json",
    "cg_to_dot",
    "cg_from_edge_lines",
    "cg_to_edge_lines",
]


def cg_to_dict(cg: CommunicationGraph) -> dict:
    """A JSON-serializable description of a CG."""
    return {
        "name": cg.name,
        "tasks": list(cg.tasks),
        "edges": [
            {"src": cg.tasks[e.src], "dst": cg.tasks[e.dst], "bandwidth": e.bandwidth}
            for e in cg.edges
        ],
    }


def cg_from_dict(data: dict) -> CommunicationGraph:
    """Rebuild a CG from :func:`cg_to_dict` output.

    Descriptions come from files and service requests, so any malformed
    one raises :class:`ConfigurationError`, never a bare exception.
    """
    try:
        name = data["name"]
        tasks = list(data["tasks"])
        raw_edges = data["edges"]
        index = {task: i for i, task in enumerate(tasks)}
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed CG description: {exc}") from None
    for label in (name, *tasks):
        if not isinstance(label, str):
            raise ConfigurationError(
                f"CG and task names must be strings, got {label!r}"
            )
        try:
            label.encode()
        except UnicodeEncodeError:
            raise ConfigurationError(
                f"CG or task name {label!r} is not valid UTF-8 text"
            ) from None
    edges = []
    try:
        for raw in raw_edges:
            edges.append(
                (index[raw["src"]], index[raw["dst"]], float(raw.get("bandwidth", 1.0)))
            )
    except KeyError as exc:
        raise ConfigurationError(
            f"CG edge references unknown field or task: {exc}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed CG edges: {exc}") from None
    return CommunicationGraph(name, tasks, edges)


def save_cg_json(cg: CommunicationGraph, path: Union[str, Path]) -> None:
    """Write a CG to a JSON file."""
    Path(path).write_text(json.dumps(cg_to_dict(cg), indent=2) + "\n")


def load_cg_json(path: Union[str, Path]) -> CommunicationGraph:
    """Read a CG from a JSON file."""
    return cg_from_dict(json.loads(Path(path).read_text()))


def cg_to_dot(cg: CommunicationGraph) -> str:
    """Graphviz DOT text of a CG (edge labels carry bandwidth)."""
    lines = [f'digraph "{cg.name}" {{']
    for task in cg.tasks:
        lines.append(f'  "{task}";')
    for e in cg.edges:
        lines.append(
            f'  "{cg.tasks[e.src]}" -> "{cg.tasks[e.dst]}" '
            f'[label="{e.bandwidth:g}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cg_to_edge_lines(cg: CommunicationGraph) -> str:
    """Plain text edge list: ``src dst bandwidth`` per line."""
    lines = [f"# {cg.name}"]
    for e in cg.edges:
        lines.append(f"{cg.tasks[e.src]} {cg.tasks[e.dst]} {e.bandwidth:g}")
    return "\n".join(lines) + "\n"


def cg_from_edge_lines(name: str, text: str) -> CommunicationGraph:
    """Parse a plain text edge list (``src dst [bandwidth]`` per line)."""
    triples = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"line {line_number}: expected 'src dst [bandwidth]', got {line!r}"
            )
        bandwidth = float(parts[2]) if len(parts) == 3 else 1.0
        triples.append((parts[0], parts[1], bandwidth))
    if not triples:
        raise ConfigurationError("edge list contains no edges")
    return CommunicationGraph.from_named_edges(name, triples)
