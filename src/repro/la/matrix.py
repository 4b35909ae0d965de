"""CSR / CSC adjacency-matrix layouts.

A(i, j) = weight of the edge j -> i (Section 7.1's convention: "the
element in row i and column j of A equals 1 iff there is an edge from
vertex j to vertex i").  Thus:

* row i of CSR holds the *in*-neighbors of i  -> CSR SpMV pulls;
* column j of CSC holds the *out*-neighbors of j -> CSC SpMV pushes.

For an undirected :class:`~repro.graph.csr.CSRGraph` both layouts share
the same index structure (A is symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass
class CSRMatrix:
    """Row-major sparse matrix: ``indices[ptr[i]:ptr[i+1]]`` = columns of row i."""

    n: int
    ptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        s = slice(self.ptr[i], self.ptr[i + 1])
        return self.indices[s], self.values[s]

    @property
    def nnz(self) -> int:
        return len(self.indices)


@dataclass
class CSCMatrix:
    """Column-major sparse matrix: ``indices[ptr[j]:ptr[j+1]]`` = rows of column j."""

    n: int
    ptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        s = slice(self.ptr[j], self.ptr[j + 1])
        return self.indices[s], self.values[s]

    @property
    def nnz(self) -> int:
        return len(self.indices)


def adjacency_matrices(g: CSRGraph, values: np.ndarray | None = None
                       ) -> tuple[CSRMatrix, CSCMatrix]:
    """Both layouts of g's adjacency matrix (weights default to g's or 1).

    For a directed graph, row i of the CSR layout lists the sources of
    arcs *into* i (A's convention above), i.e. it is built from the
    transposed CSR graph; the CSC layout reuses g's own arrays.
    """
    if values is None:
        values = (g.weights if g.weights is not None
                  else np.ones(len(g.adj)))
    if g.directed:
        tr = g.transposed()
        tvals = (tr.weights if tr.weights is not None
                 else np.ones(len(tr.adj)))
        csr = CSRMatrix(g.n, tr.offsets, tr.adj, tvals)
        csc = CSCMatrix(g.n, g.offsets, g.adj, values)
    else:
        csr = CSRMatrix(g.n, g.offsets, g.adj, values)
        csc = CSCMatrix(g.n, g.offsets, g.adj, values)
    return csr, csc

