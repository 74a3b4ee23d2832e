"""Layered non-neighbor pools and random-walk scores for negative sampling.

For a source node the pipeline is: hop-layered BFS (which nodes sit at
exact distance l), a restart-walk score localized at the source, a global
PageRank score, their convex combination, and a per-layer top-k pick of
candidate negatives.  Direct neighbors (layer 1) are never candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from rwnsgcn.graph import Graph, hop_blocks, transition_operator

__all__ = [
    "LayeredNeighborhood",
    "CandidateSet",
    "ConvergenceError",
    "bfs_layers",
    "rwr_scores",
    "pagerank_scores",
    "combined_scores",
    "select_candidates",
    "score_all_sources",
]


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
class CandidateSet:
    """Selected negative candidates for one source node."""

    source: int
    chosen: list[tuple[int, float, int]]  # (node, score, layer)

    def nodes(self) -> list[int]:
        return [node for node, _, _ in self.chosen]

    def __len__(self) -> int:
        return len(self.chosen)


def _check_source(g: Graph, source: int) -> None:
    if not 0 <= source < g.num_nodes:
        raise ValueError(f"source {source} out of range")


def _check_l_max(l_max: int) -> None:
    if l_max < 1:
        raise ValueError("l_max must be at least 1")


def _hop_frontiers(hops: sp.csr_array, block: np.ndarray, l_max: int) -> list[np.ndarray]:
    """BFS frontiers of every source in ``block`` as level products.

    Entry ``l - 1`` is an ``n x len(block)`` boolean array whose column i
    marks the nodes at hop distance exactly l from ``block[i]``.  ``hops``
    is the unit-weight adjacency from ``hop_blocks``, so zero-weight edges
    still count.
    """
    n = hops.shape[0]
    front = np.zeros((n, block.size), dtype=bool)
    front[block, np.arange(block.size)] = True
    seen = front.copy()
    fronts = []
    for _ in range(l_max):
        front = (hops @ front) > 0
        front &= ~seen
        seen |= front
        fronts.append(front)
    return fronts


def _layers(fronts: list[np.ndarray], col: int, source: int) -> LayeredNeighborhood:
    return LayeredNeighborhood(
        source=int(source),
        layers={l: np.flatnonzero(f[:, col]) for l, f in enumerate(fronts, 1)},
    )


def bfs_layers(g: Graph, source: int, l_max: int) -> LayeredNeighborhood:
    """Group nodes by exact hop distance from ``source``, up to ``l_max``.

    ``layers[l]`` is the BFS frontier found at step l.  Edge weights are
    ignored, so zero-weight edges still count as hops.
    """
    _check_source(g, source)
    _check_l_max(l_max)
    return _layers(_hop_frontiers(*next(hop_blocks(g, [source])), l_max), 0, source)


def _transition_transpose(g: Graph) -> sp.csr_array:
    return sp.csr_array(transition_operator(g).T.tocsr())


def _rwr_block(
    pt: sp.csr_array, block: np.ndarray, alpha: float, tol: float, max_iter: int
) -> np.ndarray:
    """Restart-walk vectors of every source in ``block``, one per column.

    Each column iterates r <- alpha P^T r + (1-alpha) e_source on its own
    and is copied out at the first iterate whose max-norm change drops
    below ``tol``; converged columns leave the working block.
    """
    n = pt.shape[0]
    out = np.empty((block.size, n))  # row i is column i of the result
    running = np.arange(block.size)  # block position of each working column
    restart = (block, running)  # (source row, working column) pairs
    r = np.zeros((n, block.size))
    r[restart] = 1.0
    residual = np.full(block.size, np.inf)
    for _ in range(max_iter):
        r_next = pt @ r
        r_next *= alpha
        r_next[restart] += 1.0 - alpha
        r -= r_next  # r is not read again: its buffer holds |r - r_next|
        residual = np.abs(r, out=r).max(axis=0)
        r = r_next
        done = residual < tol
        if done.any():
            out[running[done]] = r[:, done].T
            keep = ~done
            running = running[keep]
            if running.size == 0:
                return out.T
            r = r[:, keep]
            restart = (block[running], np.arange(running.size))
    # converged columns sit below tol, so the largest residual is a running one
    raise ConvergenceError("rwr_scores", float(residual.max()), max_iter)


def rwr_scores(
    g: Graph,
    source: int,
    alpha: float,
    tol: float = 1e-8,
    max_iter: int = 1000,
    _pt: sp.csr_array | None = None,
) -> np.ndarray:
    """Restart-walk probability over target nodes for one source.

    Solves r = (1-alpha) (I - alpha P^T)^{-1} e_source by fixed-point
    iteration r <- alpha P^T r + (1-alpha) e_source, stopping when the
    max-norm change drops below ``tol``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    _check_source(g, source)
    pt = _transition_transpose(g) if _pt is None else _pt
    return _rwr_block(pt, np.array([source]), alpha, tol, max_iter)[:, 0]


def pagerank_scores(
    g: Graph,
    alpha: float,
    mode: str = "converged",
    tol: float = 1e-8,
    max_iter: int = 1000,
    _pt: sp.csr_array | None = None,
) -> np.ndarray:
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
    pt = _transition_transpose(g) if _pt is None else _pt
    dangling = g.degrees == 0
    e = np.full(n, 1.0 / n)

    def step(r: np.ndarray) -> np.ndarray:
        loose = float(r[dangling].sum()) if dangling.any() else 0.0
        return alpha * (pt @ r + loose / n) + (1.0 - alpha) * e

    r = e.copy()
    if mode == "two-step":
        return step(step(r))
    for _ in range(max_iter):
        r_next = step(r)
        delta = float(np.max(np.abs(r_next - r)))
        r = r_next
        if delta < tol:
            return r
    raise ConvergenceError("pagerank_scores", delta, max_iter)


def combined_scores(rwr: np.ndarray, pgr: np.ndarray, beta: float) -> np.ndarray:
    """Convex mix beta * rwr + (1-beta) * pgr."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if rwr.shape != pgr.shape:
        raise ValueError(f"length mismatch: {rwr.shape} vs {pgr.shape}")
    return beta * rwr + (1.0 - beta) * pgr


def select_candidates(
    layers: LayeredNeighborhood,
    scores: np.ndarray,
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
    for l in levels:
        members = layers.layers[l]
        # highest score first, ties to the smaller id
        top = members[np.lexsort((members, -scores[members]))[:k_per_level]]
        chosen.extend((j, v, l) for j, v in zip(top.tolist(), scores[top].tolist()))
    return CandidateSet(source=layers.source, chosen=chosen)


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

    Sources are de-duplicated and scored in the blocks of ``hop_blocks``:
    one restart-walk iteration and one BFS level are a sparse x dense
    product for the whole block.  Sources with no eligible candidates map
    to empty sets.
    """
    source_list = sorted({int(s) for s in sources})
    _check_l_max(l_max)
    for src in source_list[:1] + source_list[-1:]:  # sorted: the ends bound the rest
        _check_source(g, src)
    out: dict[int, CandidateSet] = {}
    if not source_list:
        return out
    pt = _transition_transpose(g)
    pgr = pagerank_scores(g, alpha, mode=pgr_mode, tol=tol, max_iter=max_iter, _pt=pt)
    for hops, block in hop_blocks(g, source_list):
        fronts = _hop_frontiers(hops, block, l_max)
        rwr = _rwr_block(pt, block, alpha, tol, max_iter)
        for i, src in enumerate(block.tolist()):
            mixed = combined_scores(rwr[:, i], pgr, beta)
            out[src] = select_candidates(
                _layers(fronts, i, src), mixed, levels=levels, k_per_level=k_per_level
            )
    return out

