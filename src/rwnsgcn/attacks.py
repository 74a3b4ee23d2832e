"""Structural perturbation generators.

``ctbca_remove`` deletes the highest edge-betweenness edges (topology
attack); ``twpa_perturb`` injects clamped Gaussian noise into edge
weights while keeping the topology fixed.  Both are pure: the input
graph is never modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rwnsgcn.graph import Graph, build_graph

__all__ = [
    "AttackSpec",
    "edge_betweenness",
    "ctbca_remove",
    "twpa_perturb",
    "apply_attack",
]


@dataclass(frozen=True)
class AttackSpec:
    kind: str  # "ctbca" | "twpa"
    intensity: float  # fraction of edges removed, or noise scale sigma
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("ctbca", "twpa"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind == "ctbca" and not 0.0 <= self.intensity <= 1.0:
            raise ValueError("ctbca intensity must be a fraction in [0, 1]")
        if self.kind == "twpa" and self.intensity < 0:
            raise ValueError("twpa intensity (sigma) must be nonnegative")


# Scores closer than TIE_RTOL * (largest score) to their descending
# neighbour are tied: true ties that roundoff split stay one group.
TIE_RTOL = 1e-9


def edge_betweenness(g: Graph) -> np.ndarray:
    """Exact Brandes betweenness per undirected edge (unweighted paths).

    Scores count unordered node pairs: an edge on the unique shortest
    path between k pairs scores k.  Entry i scores edge i of
    ``g.edge_arrays()``.
    """
    n = g.num_nodes
    indices = g.indices
    rows = np.repeat(np.arange(n), g.unweighted_degrees())
    # CSR position -> undirected edge id; ids follow the sorted (u < v)
    # keys of g.edge_arrays()
    _, pos_edge = np.unique(
        np.minimum(rows, indices) * n + np.maximum(rows, indices),
        return_inverse=True,
    )
    acc = np.zeros(g.num_edges)

    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        levels = [np.array([s], dtype=np.int64)]
        frontier = levels[0]
        d = 0
        while frontier.size:
            pos = g.neighbor_positions(frontier)
            if pos.size == 0:
                break
            nbr = indices[pos]
            src = rows[pos]
            fresh = dist[nbr] == -1
            dist[nbr[fresh]] = d + 1
            onpath = dist[nbr] == d + 1
            np.add.at(sigma, nbr[onpath], sigma[src[onpath]])
            nxt = np.unique(nbr[fresh])
            d += 1
            frontier = nxt
            if nxt.size:
                levels.append(nxt)
        # dependency accumulation, deepest level first
        delta = np.zeros(n)
        for lev in range(len(levels) - 1, 0, -1):
            pos = g.neighbor_positions(levels[lev])
            nbr = indices[pos]  # potential predecessors
            wrep = rows[pos]
            pred = dist[nbr] == lev - 1
            contrib = sigma[nbr[pred]] / sigma[wrep[pred]] * (1.0 + delta[wrep[pred]])
            np.add.at(delta, nbr[pred], contrib)
            np.add.at(acc, pos_edge[pos[pred]], contrib)

    return acc / 2.0


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids by descending score, and the start offsets of their tie groups.

    A new group starts wherever a score lies more than TIE_RTOL * max(scores)
    below the previous one; inside a group ids ascend.
    """
    order = np.argsort(-scores, kind="stable")
    breaks = np.diff(scores[order], prepend=np.inf) < -TIE_RTOL * scores.max(initial=0.0)
    return order[np.lexsort((order, np.cumsum(breaks)))], np.flatnonzero(breaks)


def ctbca_remove(
    g: Graph,
    fraction: float,
    seed: int = 0,
    scores: np.ndarray | None = None,
) -> Graph:
    """Remove the ceil(fraction * |E|) highest-betweenness edges.

    Scores tied within TIE_RTOL of the largest are ordered by edge and
    then shuffled within the tie group by the seeded stream, one
    permutation per group.  Precomputed ``scores`` (as returned by
    ``edge_betweenness``) may be passed to avoid recomputing betweenness.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    u, v, w = g.edge_arrays()
    n_remove = math.ceil(fraction * u.size)
    keep = np.ones(u.size, dtype=bool)
    if n_remove:
        scores = edge_betweenness(g) if scores is None else np.asarray(scores, dtype=np.float64)
        if scores.shape != u.shape:
            raise ValueError(f"scores has shape {scores.shape}, expected ({u.size},)")
        order, starts = _tie_groups(scores)
        rng = np.random.default_rng(seed)
        sizes = np.diff(np.append(starts, order.size))
        # groups past the cut cannot change the removed set, and a
        # one-edge permutation draws nothing from the stream
        live = (sizes > 1) & (starts < n_remove)
        for a, size in zip(starts[live], sizes[live]):
            order[a : a + size] = order[a : a + size][rng.permutation(size)]
        keep[order[:n_remove]] = False
    return build_graph(g.num_nodes, np.column_stack((u, v, w))[keep])


def twpa_perturb(g: Graph, sigma: float, seed: int = 0) -> Graph:
    """Add Normal(0, sigma^2) noise to each edge weight, clamped at 0.

    One draw per undirected edge in canonical (u, v) order; the edge set
    itself never changes, so a weight clamped to 0 silences the edge
    while leaving it structurally present.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    u, v, w = g.edge_arrays()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=w.size) if sigma > 0 else np.zeros(w.size)
    return build_graph(g.num_nodes, np.column_stack((u, v, np.maximum(w + noise, 0.0))))


def apply_attack(g: Graph, spec: AttackSpec, scores: np.ndarray | None = None) -> Graph:
    if spec.kind == "ctbca":
        return ctbca_remove(g, spec.intensity, seed=spec.seed, scores=scores)
    return twpa_perturb(g, spec.intensity, seed=spec.seed)
