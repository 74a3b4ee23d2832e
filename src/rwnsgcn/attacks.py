"""Structural perturbation generators.

``ctbca_remove`` deletes the highest edge-betweenness edges (topology
attack); ``twpa_perturb`` injects clamped Gaussian noise into edge
weights while keeping the topology fixed.  Both are pure: the input
graph is never modified.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from rwnsgcn.graph import Graph, build_graph, hop_blocks

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
        value = self.intensity
        # a nan sigma passes the sign check below and then adds no noise
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            name = "ctbca intensity" if self.kind == "ctbca" else "twpa intensity (sigma)"
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.kind == "ctbca" and not 0.0 <= self.intensity <= 1.0:
            raise ValueError("ctbca intensity must be a fraction in [0, 1]")
        if self.kind == "twpa" and self.intensity < 0:
            raise ValueError("twpa intensity (sigma) must be nonnegative")
        # one cell under one hash for 1 and 1.0, -0.0 and 0.0, a numpy float and its value
        object.__setattr__(self, "intensity", float(value) + 0.0)


# Scores closer than TIE_RTOL * (largest score) to their descending
# neighbour are tied: true ties that roundoff split stay one group.
TIE_RTOL = 1e-9


def edge_betweenness(g: Graph) -> np.ndarray:
    """Exact Brandes betweenness per undirected edge (unweighted paths).

    Scores count unordered node pairs: an edge on the unique shortest
    path between k pairs scores k.  Entry i scores edge i of
    ``g.edge_arrays()``.

    Sources run in the blocks of ``hop_blocks``, one column each.  The
    forward pass counts shortest paths ``sigma`` level by level as
    ``hops @ front``.  The backward pass, deepest level first, sets
    ``coeff_d = 1 / sigma_d + hops @ coeff_{d+1}``, which is
    ``(1 + delta_d) / sigma_d`` for Brandes' dependency
    ``delta_d = sigma_d * (hops @ coeff_{d+1})``.  Edge (u, v) with v one
    level deeper than u then carries ``sigma[u] * coeff[v]``.
    """
    u, v, _ = g.edge_arrays()
    acc = np.zeros(u.size)
    for hops, block in hop_blocks(g, np.arange(g.num_nodes)):
        cols = np.arange(block.size)
        level = np.full((g.num_nodes, block.size), -1, dtype=np.int32)
        level[block, cols] = 0
        sigma = np.zeros(level.shape)
        sigma[block, cols] = 1.0
        front, depth = sigma.copy(), 0
        while True:
            front = hops @ front
            fresh = front > 0
            fresh &= sigma == 0  # not reached yet
            if not fresh.any():
                break
            depth += 1
            np.copyto(level, depth, where=fresh)
            front *= fresh  # path counts of this level only
            sigma += front
        inv = np.divide(1.0, sigma, out=np.zeros(sigma.shape), where=sigma > 0)
        coeff = np.zeros(sigma.shape)
        for d in range(depth, 0, -1):
            # only levels deeper than d hold a coeff yet, so the product
            # sums over the successors of each level-d node
            below = hops @ coeff
            below += inv
            np.copyto(coeff, below, where=level == d)
        lu, lv = level[u], level[v]
        acc += np.einsum("ij,ij->i", sigma[u], coeff[v] * (lv > lu))
        acc += np.einsum("ij,ij->i", sigma[v], coeff[u] * (lu > lv))
    # each unordered pair is counted once from either end
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
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    u, v, w = g.edge_arrays()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=w.size) if sigma > 0 else np.zeros(w.size)
    return build_graph(g.num_nodes, np.column_stack((u, v, np.maximum(w + noise, 0.0))))


def apply_attack(g: Graph, spec: AttackSpec, scores: np.ndarray | None = None) -> Graph:
    if spec.kind == "ctbca":
        return ctbca_remove(g, spec.intensity, seed=spec.seed, scores=scores)
    return twpa_perturb(g, spec.intensity, seed=spec.seed)
