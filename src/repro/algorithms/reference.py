"""Sequential reference implementations (correctness oracles).

Every instrumented push/pull algorithm must agree with these simple
single-threaded references; the references themselves are cross-checked
against networkx in the test suite.  Keeping our own references matters
where the paper's formulation differs slightly from networkx defaults
(e.g. PageRank's handling of dangling vertices follows the paper's
recurrence r(v) = (1-f)/|V| + sum f·r(w)/d(w) verbatim).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph


def pagerank_reference(g: CSRGraph, iterations: int = 20,
                       damping: float = 0.85) -> np.ndarray:
    """Power iteration of the paper's Section-3.1 recurrence."""
    n = g.n
    rank = np.full(n, 1.0 / max(n, 1))
    deg = np.diff(g.offsets).astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    base = (1.0 - damping) / max(n, 1)
    for _ in range(iterations):
        contrib = rank * inv_deg
        acc = np.zeros(n)
        src = np.repeat(np.arange(n), np.diff(g.offsets))
        np.add.at(acc, g.adj, contrib[src])
        rank = base + damping * acc
    return rank


def triangle_per_vertex_reference(g: CSRGraph) -> np.ndarray:
    """Number of triangles each vertex participates in (NodeIterator)."""
    tc = np.zeros(g.n, dtype=np.int64)
    for v in range(g.n):
        nv = g.neighbors(v)
        for u in nv:
            if u <= v:
                continue
            common = np.intersect1d(nv, g.neighbors(u), assume_unique=True)
            common = common[(common != v) & (common != u)]
            for w in common:
                if w > u:  # count each triangle once
                    tc[v] += 1
                    tc[u] += 1
                    tc[w] += 1
    return tc


def bfs_reference(g: CSRGraph, root: int) -> np.ndarray:
    """Level (hop distance) per vertex; -1 if unreachable."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = [root]
    level = 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = level + 1
                    nxt.append(int(w))
        frontier = nxt
        level += 1
    return dist


def sssp_reference(g: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra distances; inf if unreachable.  Unweighted edges count 1."""
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        nbrs = g.neighbors(v)
        wgts = g.edge_weights(v) if g.weights is not None else np.ones(len(nbrs))
        for w, wt in zip(nbrs, wgts):
            nd = d + wt
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, int(w)))
    return dist


def bc_reference(g: CSRGraph, sources=None) -> np.ndarray:
    """Brandes betweenness (unweighted, unnormalized, undirected halving).

    ``sources`` restricts the outer loop (sampled BC); default all.
    """
    n = g.n
    bc = np.zeros(n)
    if sources is None:
        sources = range(n)
    for s in sources:
        # forward BFS
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        order = [s]
        frontier = [s]
        level = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if dist[w] < 0:
                        dist[w] = level + 1
                        nxt.append(int(w))
                    if dist[w] == level + 1:
                        sigma[w] += sigma[v]
            order.extend(nxt)
            frontier = nxt
            level += 1
        # backward accumulation
        delta = np.zeros(n)
        for v in reversed(order):
            for w in g.neighbors(v):
                if dist[w] == dist[v] + 1 and sigma[w] > 0:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if v != s:
                bc[v] += delta[v]
    if not g.directed:
        bc /= 2.0
    return bc


def greedy_coloring_reference(g: CSRGraph, order=None) -> np.ndarray:
    """First-fit greedy coloring; always proper."""
    colors = np.full(g.n, -1, dtype=np.int64)
    if order is None:
        order = range(g.n)
    for v in order:
        used = set(int(colors[w]) for w in g.neighbors(v) if colors[w] >= 0)
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def is_proper_coloring(g: CSRGraph, colors: np.ndarray) -> bool:
    src = np.repeat(np.arange(g.n), np.diff(g.offsets))
    if np.any(colors < 0):
        return False
    return not np.any(colors[src] == colors[g.adj])


def mst_weight_reference(g: CSRGraph) -> float:
    """Total weight of a minimum spanning forest (Kruskal)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted((x, v, w) for v, w, x in g.edge_list_with_weights())
    total = 0.0
    for wt, v, w in edges:
        rv, rw = find(v), find(w)
        if rv != rw:
            parent[rv] = rw
            total += wt
    return total


def cc_reference(g: CSRGraph) -> np.ndarray:
    """Connected-component label per vertex: its smallest member id."""
    labels = np.full(g.n, -1, dtype=np.int64)
    for s in range(g.n):
        if labels[s] >= 0:
            continue
        labels[s] = s
        stack = [s]
        while stack:
            for w in g.neighbors(stack.pop()):
                if labels[w] < 0:
                    labels[w] = s
                    stack.append(int(w))
    return labels
