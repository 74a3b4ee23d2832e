"""Layered non-neighbor pools and random-walk scores for negative sampling.

For a source node the pipeline is: hop-layered BFS (which nodes sit at
exact distance l), a restart-walk score localized at the source, a global
PageRank score, their convex combination, and a per-layer top-k pick of
candidate negatives.  Direct neighbors (layer 1) are never candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from rwnsgcn.graph import Graph, transition_operator

__all__ = [
    "LayeredNeighborhood",
    "ScoreVector",
    "CandidateSet",
    "ConvergenceError",
    "bfs_layers",
    "rwr_scores",
    "pagerank_scores",
    "combined_scores",
    "select_candidates",
    "score_all_sources",
    "SCORER_VERSION",
]

# Part of every candidate-cache key: bump it whenever a change moves the
# candidate sets score_all_sources returns, so cached sets go stale.
SCORER_VERSION = 1


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within max_iter."""

    def __init__(self, what: str, residual: float, max_iter: int):
        super().__init__(
            f"{what} did not converge within {max_iter} iterations (residual {residual:.3e})"
        )
        self.residual = residual


@dataclass(frozen=True, eq=False)
class LayeredNeighborhood:
    """Exact-distance layers around a source.

    ``layers[l]`` holds the nodes at hop distance exactly l, in ascending
    id order (1 <= l <= l_max, empty layers included).  Hops ignore edge
    weights: a zero-weight edge still links its endpoints.
    """

    source: int
    layers: dict[int, np.ndarray]

    @property
    def l_max(self) -> int:
        return max(self.layers)


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-node scores; rwr/pgr kinds are probability vectors."""

    values: np.ndarray
    kind: str  # "rwr" | "pgr" | "combined"


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Selected negative candidates for one source node."""

    source: int
    chosen: list[tuple[int, float, int]]  # (node, score, layer)
    levels_used: list[int]

    def nodes(self) -> list[int]:
        return [node for node, _, _ in self.chosen]

    def __len__(self) -> int:
        return len(self.chosen)


def bfs_layers(g: Graph, source: int, l_max: int) -> LayeredNeighborhood:
    """Group nodes by exact hop distance from ``source``, up to ``l_max``.

    ``layers[l]`` is the BFS frontier found at step l.  Edge weights are
    ignored, so zero-weight edges still count as hops.
    """
    if not 0 <= source < g.num_nodes:
        raise ValueError(f"source {source} out of range")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    seen = np.zeros(g.num_nodes, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    layers = {}
    for l in range(1, l_max + 1):
        nbrs = np.unique(g.indices[g.neighbor_positions(frontier)])
        frontier = nbrs[~seen[nbrs]]
        seen[frontier] = True
        layers[l] = frontier
    return LayeredNeighborhood(source=int(source), layers=layers)


def _transition_transpose(g: Graph) -> sp.csr_array:
    return sp.csr_array(transition_operator(g).matrix.T.tocsr())


def rwr_scores(
    g: Graph,
    source: int,
    alpha: float,
    tol: float = 1e-8,
    max_iter: int = 1000,
    _pt: sp.csr_array | None = None,
) -> ScoreVector:
    """Restart-walk probability over target nodes for one source.

    Solves r = (1-alpha) (I - alpha P^T)^{-1} e_source by fixed-point
    iteration r <- alpha P^T r + (1-alpha) e_source, stopping when the
    max-norm change drops below ``tol``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    pt = _transition_transpose(g) if _pt is None else _pt
    e = np.zeros(g.num_nodes)
    e[source] = 1.0
    r = e.copy()
    for _ in range(max_iter):
        r_next = alpha * (pt @ r) + (1.0 - alpha) * e
        delta = float(np.max(np.abs(r_next - r)))
        r = r_next
        if delta < tol:
            return ScoreVector(values=r, kind="rwr")
    raise ConvergenceError("rwr_scores", delta, max_iter)


def pagerank_scores(
    g: Graph,
    alpha: float,
    mode: str = "converged",
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> ScoreVector:
    """Global damped-walk importance with uniform teleport.

    ``converged`` iterates r <- alpha P^T r + (1-alpha)/N to its fixed
    point; ``two-step`` returns the second iterate starting from the
    uniform vector.  Mass sitting on dangling (zero-degree) nodes is
    redistributed uniformly at every step.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    if mode not in ("converged", "two-step"):
        raise ValueError(f"unknown mode {mode!r}")
    n = g.num_nodes
    pt = _transition_transpose(g)
    dangling = g.degrees == 0
    e = np.full(n, 1.0 / n)

    def step(r: np.ndarray) -> np.ndarray:
        loose = float(r[dangling].sum()) if dangling.any() else 0.0
        return alpha * (pt @ r + loose / n) + (1.0 - alpha) * e

    r = e.copy()
    if mode == "two-step":
        return ScoreVector(values=step(step(r)), kind="pgr")
    for _ in range(max_iter):
        r_next = step(r)
        delta = float(np.max(np.abs(r_next - r)))
        r = r_next
        if delta < tol:
            return ScoreVector(values=r, kind="pgr")
    raise ConvergenceError("pagerank_scores", delta, max_iter)


def combined_scores(rwr: ScoreVector, pgr: ScoreVector, beta: float) -> ScoreVector:
    """Convex mix beta * rwr + (1-beta) * pgr."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if rwr.values.shape != pgr.values.shape:
        raise ValueError(
            f"length mismatch: {rwr.values.shape} vs {pgr.values.shape}"
        )
    return ScoreVector(
        values=beta * rwr.values + (1.0 - beta) * pgr.values, kind="combined"
    )


def select_candidates(
    layers: LayeredNeighborhood,
    scores: ScoreVector,
    levels: Sequence[int] = (2, 3, 4),
    k_per_level: int = 1,
) -> CandidateSet:
    """Top-scoring nodes per requested layer (ties to the smaller id).

    Layer 1 is reserved for positive samples, so every requested level
    must lie in 2..l_max.  Empty layers contribute nothing.
    """
    lmax = layers.l_max
    levels = sorted(set(int(l) for l in levels))
    for l in levels:
        if l < 2 or l > lmax:
            raise ValueError(
                f"level {l} outside 2..{lmax} (layer 1 is reserved for positives)"
            )
    if k_per_level < 1:
        raise ValueError("k_per_level must be at least 1")
    chosen: list[tuple[int, float, int]] = []
    vals = scores.values
    for l in levels:
        members = layers.layers[l]
        # highest score first, ties to the smaller id
        top = members[np.lexsort((members, -vals[members]))[:k_per_level]]
        chosen.extend((j, v, l) for j, v in zip(top.tolist(), vals[top].tolist()))
    return CandidateSet(source=layers.source, chosen=chosen, levels_used=levels)


def score_all_sources(
    g: Graph,
    sources: Iterable[int],
    alpha: float = 0.85,
    beta: float = 0.5,
    l_max: int = 5,
    levels: Sequence[int] = (2, 3, 4),
    k_per_level: int = 1,
    pgr_mode: str = "converged",
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> dict[int, CandidateSet]:
    """Candidate sets for many sources; the PageRank vector is shared.

    Sources with no eligible candidates map to empty sets.
    """
    source_list = sorted(int(s) for s in sources)
    out: dict[int, CandidateSet] = {}
    if not source_list:
        return out
    pgr = pagerank_scores(g, alpha, mode=pgr_mode, tol=tol, max_iter=max_iter)
    pt = _transition_transpose(g)
    for src in source_list:
        layers = bfs_layers(g, src, l_max)
        rwr = rwr_scores(g, src, alpha, tol=tol, max_iter=max_iter, _pt=pt)
        mixed = combined_scores(rwr, pgr, beta)
        out[src] = select_candidates(layers, mixed, levels=levels, k_per_level=k_per_level)
    return out


def candidate_map_to_json(candidates: Mapping[int, CandidateSet]) -> dict:
    """JSON-ready form {source: [[node, score, layer], ...]}."""
    return {
        str(src): [[node, score, layer] for node, score, layer in cs.chosen]
        for src, cs in candidates.items()
    }


def candidate_map_from_json(raw: Mapping[str, list]) -> dict[int, CandidateSet]:
    out: dict[int, CandidateSet] = {}
    for key, rows in raw.items():
        src = int(key)
        chosen = [(int(n), float(s), int(l)) for n, s, l in rows]
        out[src] = CandidateSet(
            source=src,
            chosen=chosen,
            levels_used=sorted({l for _, _, l in chosen}),
        )
    return out
