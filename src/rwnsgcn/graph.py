"""Sparse undirected graphs and the linear operators built from them.

``build_graph`` takes one edge form, an (m, 2) array of (u, v) or an
(m, 3) array of (u, v, w), and stores the graph once as a symmetric CSR
matrix.  Every other module (scoring, sampling, the model, the attacks)
consumes the raw adjacency or one of two operators, each a
``scipy.sparse.csr_array``:

* ``sym_normalized_operator``: D^{-1/2} A D^{-1/2}, optionally over A + I
* ``transition_operator``: the random-walk transition matrix P = D^{-1} A

The operators scale the graph's own CSR arrays and may share its ``indptr``
and ``indices`` buffers, as ``Graph.adjacency`` and ``hop_matrix`` do, so
none of them may be modified in place.  Isolated nodes are legal
everywhere and simply produce all-zero rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "build_graph",
    "hop_blocks",
    "hop_matrix",
    "sym_normalized_operator",
    "transition_operator",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Symmetric weighted adjacency in CSR form; ``degrees`` holds weighted
    degrees (row sums of the adjacency)."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray

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


def build_graph(num_nodes: int, edges) -> Graph:
    """Build a symmetric, deduplicated CSR graph from an edge array.

    ``edges`` is an (m, 2) array of (u, v), whose weights are 1.0, or an
    (m, 3) array of (u, v, w); a list of equal-length rows converts, and
    ``[]`` is the empty graph.  Duplicate (u, v) pairs collapse keeping the
    last weight seen, and self loops are dropped with a warning that
    counts them.

    Raises ValueError naming the shape for any other input (ragged or
    mixed-width rows, an iterator, another shape), and naming the first
    offending edge index for out-of-range or non-integral node ids and
    NaN, infinite or negative weights.  Integral float ids are legal.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    try:
        table = np.asarray(edges, dtype=np.float64)
    except (TypeError, ValueError):  # ragged or mixed-width rows, an iterator
        table = np.asarray(edges, dtype=object)
    if table.shape == (0,):
        table = table.reshape(0, 2)
    if table.dtype != np.float64 or table.ndim != 2 or table.shape[1] not in (2, 3):
        raise ValueError(f"edges must be an (m, 2) array of (u, v) or an (m, 3) array of "
                         f"(u, v, w), got {type(edges).__name__} of shape {table.shape}")
    u, v = table[:, 0], table[:, 1]
    w = table[:, 2] if table.shape[1] == 3 else np.ones(len(table))
    in_range = (0 <= u) & (u < num_nodes) & (0 <= v) & (v < num_nodes)
    whole = (np.floor(u) == u) & (np.floor(v) == v)
    finite = np.isfinite(w)
    bad = ~in_range | ~whole | ~finite | (w < 0)
    if bad.any():
        k = int(np.argmax(bad))
        ids = (u[k], v[k])
        pair = tuple(map(int if whole[k] and np.isfinite(ids).all() else float, ids))
        if not in_range[k]:
            raise ValueError(f"edge {k}: node id out of range for {pair} with {num_nodes} nodes")
        if not whole[k]:
            raise ValueError(f"edge {k}: non-integral node id in {pair}")
        if not finite[k]:
            raise ValueError(f"edge {k}: non-finite weight {w[k]} on {pair}")
        raise ValueError(f"edge {k}: negative weight {w[k]} on {pair}")
    u, v = u.astype(np.int64), v.astype(np.int64)
    loop = u == v
    if loop.any():
        warnings.warn(f"dropped {int(loop.sum())} self-loop edge(s)", stacklevel=2)

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
    return Graph(num_nodes=num_nodes, indptr=indptr, indices=cols, weights=vals,
                 degrees=degrees)


# Sources searched together by the level-product searches (scoring's BFS
# and restart walk, edge betweenness): one sparse x dense product per
# level serves the whole block.
SOURCE_BLOCK = 64


def hop_matrix(g: Graph) -> sp.csr_array:
    """The unit-weight adjacency: every stored edge is a 1, so zero-weight
    edges still count as hops."""
    n = g.num_nodes
    return sp.csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))


def hop_blocks(g: Graph, sources) -> Iterator[tuple[sp.csr_array, np.ndarray]]:
    """``hop_matrix(g)``, built once, with ``sources`` in blocks of SOURCE_BLOCK."""
    hops = hop_matrix(g)
    sources = np.asarray(sources, dtype=np.int64)
    for lo in range(0, sources.size, SOURCE_BLOCK):
        yield hops, sources[lo : lo + SOURCE_BLOCK]


def sym_normalized_operator(g: Graph, self_loops: bool = True) -> sp.csr_array:
    """D^{-1/2} A D^{-1/2}, over A + I when ``self_loops`` is set.

    Rows/columns of isolated nodes (degree 0 and no self loop) are zero.
    """
    a = g.adjacency()
    if self_loops:
        a = a + sp.identity(g.num_nodes, format="csr")
    d = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    rows = np.repeat(np.arange(g.num_nodes), np.diff(a.indptr))
    # scale product computed first: multiplication is commutative, so the
    # (u,v) and (v,u) entries come out bit-identical
    vals = a.data * (d_inv_sqrt[rows] * d_inv_sqrt[a.indices])
    return sp.csr_array((vals, a.indices, a.indptr), shape=a.shape)


def transition_operator(g: Graph) -> sp.csr_array:
    """Row-stochastic P = D^{-1} A; isolated nodes keep an all-zero row."""
    n, d = g.num_nodes, g.degrees
    with np.errstate(divide="ignore"):
        d_inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    return sp.csr_array((g.weights * d_inv[rows], g.indices, g.indptr), shape=(n, n))
