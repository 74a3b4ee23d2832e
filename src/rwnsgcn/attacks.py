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


def edge_betweenness(g: Graph) -> dict[tuple[int, int], float]:
    """Exact Brandes betweenness per undirected edge (unweighted paths).

    Scores count unordered node pairs: an edge on the unique shortest
    path between k pairs scores k.  Both directions of an edge share one
    entry keyed (u, v) with u < v.
    """
    n = g.num_nodes
    indices = g.indices
    rows = np.repeat(np.arange(n), g.unweighted_degrees())
    # CSR position -> undirected edge id; ids follow the sorted (u < v) keys
    # of g.edges()
    _, pos_edge = np.unique(
        np.minimum(rows, indices) * n + np.maximum(rows, indices),
        return_inverse=True,
    )
    edge_keys = g.edges()
    acc = np.zeros(len(edge_keys))

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

    return {
        (u, v): float(acc[i] / 2.0) for i, (u, v, _) in enumerate(edge_keys)
    }


def ctbca_remove(
    g: Graph,
    fraction: float,
    seed: int = 0,
    scores: dict[tuple[int, int], float] | None = None,
) -> Graph:
    """Remove the ceil(fraction * |E|) highest-betweenness edges.

    Exactly tied scores are broken lexicographically and then shuffled
    within the tie group by the seeded stream.  Precomputed ``scores``
    may be passed to avoid recomputing betweenness.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    edges = g.edges()
    m = len(edges)
    n_remove = math.ceil(fraction * m)
    if n_remove == 0:
        return build_graph(g.num_nodes, edges)
    if scores is None:
        scores = edge_betweenness(g)
    rng = np.random.default_rng(seed)
    groups: dict[float, list[tuple[int, int, float]]] = {}
    for u, v, w in edges:
        groups.setdefault(scores[(u, v)], []).append((u, v, w))
    ordered: list[tuple[int, int, float]] = []
    for score in sorted(groups, reverse=True):
        tied = sorted(groups[score])  # lexicographic base order
        perm = rng.permutation(len(tied))
        ordered.extend(tied[i] for i in perm)
    kept = ordered[n_remove:]
    return build_graph(g.num_nodes, kept)


def twpa_perturb(g: Graph, sigma: float, seed: int = 0) -> Graph:
    """Add Normal(0, sigma^2) noise to each edge weight, clamped at 0.

    One draw per undirected edge in canonical (u, v) order; the edge set
    itself never changes, so a weight clamped to 0 silences the edge
    while leaving it structurally present.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    edges = g.edges()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=len(edges)) if sigma > 0 else np.zeros(len(edges))
    perturbed = [
        (u, v, max(0.0, w + eps)) for (u, v, w), eps in zip(edges, noise)
    ]
    return build_graph(g.num_nodes, perturbed)


def apply_attack(g: Graph, spec: AttackSpec,
                 scores: dict[tuple[int, int], float] | None = None) -> Graph:
    if spec.kind == "ctbca":
        return ctbca_remove(g, spec.intensity, seed=spec.seed, scores=scores)
    return twpa_perturb(g, spec.intensity, seed=spec.seed)
