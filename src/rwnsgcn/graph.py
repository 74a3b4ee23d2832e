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

    def edges(self) -> list[tuple[int, int, float]]:
        """Canonical undirected edge list, (u, v, w) with u < v, sorted."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        upper = rows < self.indices
        return list(
            zip(
                rows[upper].tolist(),
                self.indices[upper].tolist(),
                self.weights[upper].tolist(),
            )
        )


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A sparse N x N operator derived from a graph."""

    kind: str  # "sym-normalized" | "row-stochastic"
    matrix: sp.csr_array
    self_loops: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def build_graph(
    num_nodes: int,
    edge_list: Iterable[Sequence],
) -> Graph:
    """Build a symmetric, deduplicated CSR graph from an edge list.

    Entries are (u, v) or (u, v, w); missing weights default to 1.0.
    Duplicate (u, v) pairs collapse keeping the last weight seen, and
    self loops are dropped (both are counted on the result).

    Raises ValueError naming the offending edge index for out-of-range
    node ids or negative weights.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    seen: dict[tuple[int, int], float] = {}
    dup = 0
    loops = 0
    for k, entry in enumerate(edge_list):
        if len(entry) == 2:
            u, v = entry
            w = 1.0
        else:
            u, v, w = entry
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(
                f"edge {k}: node id out of range for ({u}, {v}) with {num_nodes} nodes"
            )
        if w < 0:
            raise ValueError(f"edge {k}: negative weight {w} on ({u}, {v})")
        if u == v:
            loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            dup += 1
        seen[key] = w
    if loops:
        warnings.warn(f"dropped {loops} self-loop edge(s)", stacklevel=2)

    m = len(seen)
    rows = np.empty(2 * m, dtype=np.int64)
    cols = np.empty(2 * m, dtype=np.int64)
    vals = np.empty(2 * m, dtype=np.float64)
    for i, ((u, v), w) in enumerate(seen.items()):
        rows[2 * i], cols[2 * i], vals[2 * i] = u, v, w
        rows[2 * i + 1], cols[2 * i + 1], vals[2 * i + 1] = v, u, w

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
        duplicates_collapsed=dup,
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

