"""Sparse undirected graphs and the linear operators built from them.

The graph is stored once as a symmetric CSR matrix; every other module
(scoring, sampling, the model, the attacks) consumes either the raw
adjacency or one of two derived operators:

* ``sym-normalized``: D^{-1/2} A D^{-1/2}, optionally over A + I
* ``row-stochastic``: the random-walk transition matrix P = D^{-1} A

Isolated nodes are legal everywhere and simply produce all-zero rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "LinearOperator",
    "build_graph",
    "sym_normalized_operator",
    "transition_operator",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Symmetric weighted adjacency in CSR form.

    ``degrees`` holds weighted degrees (row sums of the adjacency).
    ``duplicates_collapsed`` / ``self_loops_dropped`` record how much the
    input edge list was cleaned up during construction.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    duplicates_collapsed: int = 0
    self_loops_dropped: int = 0

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    def adjacency(self) -> sp.csr_array:
        """The adjacency as a scipy CSR array (shares the graph's buffers)."""
        return sp.csr_array(
            (self.weights, self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def unweighted_degrees(self) -> np.ndarray:
        """Neighbor counts (edges kept even if their weight is 0)."""
        return np.diff(self.indptr)

    def neighbor_positions(self, nodes: np.ndarray) -> np.ndarray:
        """CSR positions of the edges leaving ``nodes``, node by node in input order.

        ``indices[pos]`` are the neighbors; zero-weight edges are included.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        # position = row start + offset of the entry within its node's run
        run_starts = np.cumsum(counts) - counts
        return np.arange(counts.sum()) + np.repeat(starts - run_starts, counts)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edges as arrays (u, v, w), u < v, sorted by (u, v)."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper], self.weights[upper]

    def edges(self) -> list[tuple[int, int, float]]:
        """``edge_arrays()`` as a list of Python (u, v, w) tuples."""
        return list(zip(*(a.tolist() for a in self.edge_arrays())))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A sparse N x N operator derived from a graph."""

    kind: str  # "sym-normalized" | "row-stochastic"
    matrix: sp.csr_array
    self_loops: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _edge_table(edge_list) -> tuple[np.ndarray, np.ndarray]:
    """Rows as an (m, 3) float64 table of (u, v, w), and each row's length.

    (u, v) rows get w = 1.0; rows of any other length are all NaN.
    """
    if isinstance(edge_list, np.ndarray) and edge_list.ndim == 2:
        lengths = np.full(len(edge_list), edge_list.shape[1])
        flat = edge_list.astype(np.float64).ravel()
    else:
        rows = list(edge_list)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.float64, count=int(lengths.sum()))
    table = np.full((lengths.size, 3), np.nan)
    ok = (lengths == 2) | (lengths == 3)
    at = (np.cumsum(lengths) - lengths)[ok]
    table[ok, 0], table[ok, 1] = flat[at], flat[at + 1]
    # clamped: a trailing (u, v) row has no third value, and where() drops it
    table[ok, 2] = np.where(lengths[ok] == 3, flat[np.minimum(at + 2, flat.size - 1)], 1.0)
    return table, lengths


def build_graph(
    num_nodes: int,
    edge_list: Iterable[Sequence] | np.ndarray,
) -> Graph:
    """Build a symmetric, deduplicated CSR graph from an edge list.

    Entries are (u, v) or (u, v, w) rows, or an (m, 2) / (m, 3) array;
    missing weights default to 1.0.  Duplicate (u, v) pairs collapse
    keeping the last weight seen, and self loops are dropped (both are
    counted on the result).

    Raises ValueError naming the first offending edge index for rows of
    another length, out-of-range node ids or negative weights.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    table, lengths = _edge_table(edge_list)
    u, v, w = table.T
    in_range = (0 <= u) & (u < num_nodes) & (0 <= v) & (v < num_nodes)
    bad = ~in_range | (w < 0)
    if bad.any():
        k = int(np.argmax(bad))
        if lengths[k] not in (2, 3):
            raise ValueError(f"edge {k}: expected (u, v) or (u, v, w), got {lengths[k]} values")
        pair = (int(u[k]), int(v[k]))
        if not in_range[k]:
            raise ValueError(f"edge {k}: node id out of range for {pair} with {num_nodes} nodes")
        raise ValueError(f"edge {k}: negative weight {w[k]} on {pair}")
    u, v = u.astype(np.int64), v.astype(np.int64)
    loop = u == v
    loops = int(loop.sum())
    if loops:
        warnings.warn(f"dropped {loops} self-loop edge(s)", stacklevel=2)

    keys = (np.minimum(u, v) * num_nodes + np.maximum(u, v))[~loop]
    # first occurrence in the reversed list = the last weight seen
    keys, last = np.unique(keys[::-1], return_index=True)
    w = w[~loop][::-1][last]
    lo, hi = keys // num_nodes, keys % num_nodes
    rows = np.concatenate((lo, hi))
    cols = np.concatenate((hi, lo))
    vals = np.concatenate((w, w))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    degrees = np.zeros(num_nodes, dtype=np.float64)
    np.add.at(degrees, rows, vals)
    return Graph(
        num_nodes=num_nodes,
        indptr=indptr,
        indices=cols,
        weights=vals,
        degrees=degrees,
        duplicates_collapsed=int(loop.size - loops - keys.size),
        self_loops_dropped=loops,
    )


def sym_normalized_operator(g: Graph, self_loops: bool = True) -> LinearOperator:
    """D^{-1/2} A D^{-1/2}, over A + I when ``self_loops`` is set.

    Rows/columns of isolated nodes (degree 0 and no self loop) are zero.
    """
    a = g.adjacency().astype(np.float64)
    if self_loops:
        a = (a + sp.identity(g.num_nodes, format="csr", dtype=np.float64)).tocsr()
        a = sp.csr_array(a)
    d = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    mat = a.tocoo()
    # scale product computed first: multiplication is commutative, so the
    # (u,v) and (v,u) entries come out bit-identical
    vals = mat.data * (d_inv_sqrt[mat.row] * d_inv_sqrt[mat.col])
    out = sp.csr_array(
        (vals, (mat.row, mat.col)), shape=(g.num_nodes, g.num_nodes)
    )
    out.sort_indices()
    return LinearOperator(kind="sym-normalized", matrix=out, self_loops=self_loops)


def transition_operator(g: Graph) -> LinearOperator:
    """Row-stochastic P = D^{-1} A; isolated nodes keep an all-zero row."""
    a = g.adjacency().astype(np.float64)
    d = g.degrees
    with np.errstate(divide="ignore"):
        d_inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
    mat = a.tocoo()
    vals = mat.data * d_inv[mat.row]
    out = sp.csr_array(
        (vals, (mat.row, mat.col)), shape=(g.num_nodes, g.num_nodes)
    )
    out.sort_indices()
    return LinearOperator(kind="row-stochastic", matrix=out, self_loops=False)

