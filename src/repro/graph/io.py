"""Edge-list I/O in the plain text format used by SNAP-style datasets.

Lines are ``u v [weight]``; ``#`` starts a comment.  This lets users
feed real SNAP downloads (orc/pok/ljn/am/rca of the paper's Table 2)
into the library when they have them; the repo itself ships synthetic
stand-ins via :mod:`repro.generators`.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph


def read_edge_list(path_or_file, directed: bool = False,
                   n: int | None = None) -> CSRGraph:
    """Parse an edge-list file into a :class:`CSRGraph`.

    Vertex ids may be arbitrary non-negative integers; they are
    compacted to ``0..n-1`` preserving order unless ``n`` is given (in
    which case ids are used verbatim and must be ``< n``).
    """
    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "r") as fh:
            return read_edge_list(fh, directed=directed, n=n)
    edges, weights = [], []
    any_weight = False
    for line in path_or_file:
        line = line.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        if len(parts) > 2:
            weights.append(float(parts[2]))
            any_weight = True
        else:
            weights.append(1.0)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.asarray(weights) if any_weight else None
    if n is None:
        ids = np.unique(edges) if len(edges) else np.empty(0, dtype=np.int64)
        remap = {int(x): i for i, x in enumerate(ids)}
        if len(edges):
            edges = np.vectorize(remap.__getitem__)(edges)
        n = len(ids)
    return from_edges(n, edges, w, directed=directed)


def write_edge_list(g: CSRGraph, path_or_file) -> None:
    """Write a graph in ``u v [weight]`` form (one line per edge)."""
    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "w") as fh:
            write_edge_list(g, fh)
            return
    fh: io.TextIOBase = path_or_file
    fh.write(f"# repro edge list: n={g.n} m={g.m} directed={g.directed}\n")
    for v, w, x in g.edge_list_with_weights():
        fh.write(f"{v} {w} {x}\n" if g.weights is not None else f"{v} {w}\n")
