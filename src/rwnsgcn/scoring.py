"""Layered non-neighbor pools and random-walk scores for negative sampling.

For a source node the pipeline is: hop-layered BFS (which nodes sit at
exact distance l), a restart-walk score localized at the source, a global
PageRank score, their convex combination, and a per-layer top-k pick of
candidate negatives.  Direct neighbors (layer 1) are never candidates.
Each step takes a block of sources and works on ``n x B`` arrays, one
column per source; ``select_candidates`` turns a block into one
``CandidateSet`` per source.  The BFS, the restart walks and PageRank
depend only on the graph and alpha; a pick, a (beta, levels) pair,
enters only the mix and the per-layer selection, so ``score_picks``
walks each block once for any number of picks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from rwnsgcn.graph import Graph, hop_blocks, hop_matrix, transition_operator

__all__ = [
    "CandidateSet",
    "ConvergenceError",
    "bfs_layers",
    "rwr_scores",
    "pagerank_scores",
    "combined_scores",
    "select_candidates",
    "score_picks",
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
class CandidateSet:
    """Selected negative candidates of one source, highest score first
    within each layer."""

    chosen: list[tuple[int, int]]  # (node, layer)

    def nodes(self) -> list[int]:
        return [node for node, _ in self.chosen]

    def __len__(self) -> int:
        return len(self.chosen)


def _check_sources(g: Graph, sources: np.ndarray) -> None:
    for src in (sources.min(), sources.max()) if sources.size else ():
        if not 0 <= src < g.num_nodes:
            raise ValueError(f"source {src} out of range")


def check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")


def check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")


def check_integer(name: str, value) -> None:
    """Refuse a value that is not an integer: a float, even 2.0, or a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_walk(tol: float, max_iter: int) -> None:
    """Refuse limits a walk cannot iterate or stop by: ``max_iter`` not an
    integer of at least 1, or ``tol`` not a finite real above 0."""
    check_integer("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and above 0, got {tol}")


def check_levels(levels: Sequence[int], k_per_level: int) -> list[int]:
    """The requested layers, sorted and de-duplicated, after checking them and k."""
    if not isinstance(levels, Iterable):
        raise ValueError(f"levels must be a sequence of integers, got {levels!r}")
    for level in levels:
        check_integer("level", level)
    levels = sorted({int(l) for l in levels})
    if not levels:
        raise ValueError("levels must name at least one layer")
    if levels[0] < 2:
        raise ValueError(f"level {levels[0]} is below 2 (layer 1 is reserved for positives)")
    if k_per_level < 1:
        raise ValueError("k_per_level must be at least 1")
    return levels


def bfs_layers(
    g: Graph, sources, depth: int, _hops: sp.csr_array | None = None
) -> list[np.ndarray]:
    """BFS frontiers of every source in ``sources`` as level products.

    Entry ``l - 1`` (1 <= l <= depth) is an ``n x len(sources)`` bool array
    whose column i marks the nodes at hop distance exactly l from
    ``sources[i]``.  Hops ignore edge weights: a zero-weight edge still
    links its endpoints.  ``_hops`` is a prebuilt ``hop_matrix(g)``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    _check_sources(g, sources)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    hops = hop_matrix(g) if _hops is None else _hops
    front = np.zeros((g.num_nodes, sources.size), dtype=bool)
    front[sources, np.arange(sources.size)] = True
    seen = front.copy()
    fronts = []
    for _ in range(depth):
        front = (hops @ front) > 0
        front &= ~seen
        seen |= front
        fronts.append(front)
    return fronts


def _transition_transpose(g: Graph) -> sp.csc_array:
    # the CSC view of P sums P^T products in the order a CSR copy would
    return transition_operator(g).T


def rwr_scores(
    g: Graph,
    sources,
    alpha: float,
    tol: float = 1e-8,
    max_iter: int = 1000,
    _pt: sp.csc_array | None = None,
) -> np.ndarray:
    """Restart-walk probabilities over target nodes, one column per source.

    Column i solves r = (1-alpha) (I - alpha P^T)^{-1} e_{sources[i]} by
    fixed-point iteration r <- alpha P^T r + (1-alpha) e_source on its own,
    and is copied out at the first iterate whose max-norm change drops
    below ``tol``; converged columns leave the working block.  Each step
    first tests one witness entry per column: the row of its largest
    change at its last full check, at first its source row.  A column
    whose witness changed by ``tol`` or more cannot stop, so only the
    others get the full column check, which also moves their witness.
    The stopping iterate, and so every score bit, is that of a full check
    at every step.  ``_pt`` is a prebuilt P^T.
    """
    check_alpha(alpha)
    _check_walk(tol, max_iter)
    sources = np.asarray(sources, dtype=np.int64)
    _check_sources(g, sources)
    pt = _transition_transpose(g) if _pt is None else _pt
    n = pt.shape[0]
    out = np.empty((sources.size, n))  # row i is column i of the result
    running = np.arange(sources.size)  # position in sources of each working column
    cols = running  # working column of each running column
    restart = (sources, cols)  # (source row, working column) pairs
    witness = sources.copy()  # row tested first in each working column
    r = np.zeros((n, sources.size))
    r[restart] = 1.0
    residual = np.full(sources.size, np.inf)
    for step in range(max_iter):
        if running.size == 0:
            break
        r_next = pt @ r
        r_next *= alpha
        r_next[restart] += 1.0 - alpha
        if step == max_iter - 1:  # every residual, for the ConvergenceError
            near = cols
        else:
            at = (witness, cols)
            near = np.flatnonzero(np.abs(r[at] - r_next[at]) < tol)
        if near.size:
            change = r[:, near]
            change -= r_next[:, near]
            witness[near] = np.abs(change, out=change).argmax(axis=0)
            residual = change[witness[near], np.arange(near.size)]
            done = near[residual < tol]
            if done.size:
                out[running[done]] = r_next[:, done].T
                keep = np.ones(running.size, dtype=bool)
                keep[done] = False
                running, witness = running[keep], witness[keep]
                r_next = r_next[:, keep]
                cols = np.arange(running.size)
                restart = (sources[running], cols)
        r = r_next
    if running.size:
        # converged columns sit below tol, so the largest residual is a running one
        raise ConvergenceError("rwr_scores", float(residual.max()), max_iter)
    return out.T


def pagerank_scores(
    g: Graph,
    alpha: float,
    tol: float = 1e-8,
    max_iter: int = 1000,
    _pt: sp.csc_array | None = None,
) -> np.ndarray:
    """Global damped-walk importance with uniform teleport.

    Iterates r <- alpha P^T r + (1-alpha)/N from the uniform vector to its
    fixed point.  Mass sitting on dangling (zero-degree) nodes is
    redistributed uniformly at every step.
    """
    check_alpha(alpha)
    _check_walk(tol, max_iter)
    n = g.num_nodes
    pt = _transition_transpose(g) if _pt is None else _pt
    dangling = g.degrees == 0
    e = np.full(n, 1.0 / n)
    r = e.copy()
    for _ in range(max_iter):
        loose = float(r[dangling].sum()) if dangling.any() else 0.0
        r_next = alpha * (pt @ r + loose / n) + (1.0 - alpha) * e
        delta = float(np.max(np.abs(r_next - r)))
        r = r_next
        if delta < tol:
            return r
    raise ConvergenceError("pagerank_scores", delta, max_iter)


def combined_scores(rwr: np.ndarray, pgr: np.ndarray, beta: float) -> np.ndarray:
    """Convex mix beta * rwr + (1-beta) * pgr, with ``pgr`` broadcast over
    the columns of the ``n x B`` block ``rwr``."""
    check_beta(beta)
    if rwr.ndim != 2 or rwr.shape[0] != pgr.shape[0]:
        raise ValueError(f"length mismatch: rwr {rwr.shape} needs {pgr.shape[0]} rows")
    return beta * rwr + (1.0 - beta) * pgr[:, None]


def select_candidates(
    fronts: list[np.ndarray],
    scores: np.ndarray,
    sources,
    levels: Sequence[int] = (2, 3, 4),
    k_per_level: int = 1,
) -> dict[int, CandidateSet]:
    """Top-scoring nodes per requested layer for every source of a block.

    ``fronts`` are the ``bfs_layers`` frontiers of ``sources`` and
    ``scores`` the matching ``n x B`` block, column i for ``sources[i]``.
    Layer 1 is reserved for positive samples, so every requested level
    must lie in 2..len(fronts).  Within a layer the highest score comes
    first, ties to the smaller id; empty layers contribute nothing.
    """
    levels = check_levels(levels, k_per_level)
    if levels[-1] > len(fronts):
        raise ValueError(f"level {levels[-1]} is deeper than the {len(fronts)} BFS layers")
    sources = np.asarray(sources, dtype=np.int64)
    if scores.shape != fronts[0].shape or scores.shape[1:] != sources.shape:
        raise ValueError(f"scores {scores.shape} do not match the block of "
                         f"{sources.size} sources with {fronts[0].shape[0]} nodes")
    cols = np.arange(sources.size)
    chosen: list[list[tuple[int, int]]] = [[] for _ in cols]
    for l in levels:
        front = fronts[l - 1]
        masked = np.where(front, scores, -np.inf)
        count = np.count_nonzero(front, axis=0)
        for rank in range(min(k_per_level, int(count.max(initial=0)))):
            top = masked.argmax(axis=0)  # the first maximum: ties to the smaller id
            live = np.flatnonzero(count > rank)
            for i, j in zip(live.tolist(), top[live].tolist()):
                chosen[i].append((j, l))
            masked[top, cols] = -np.inf
    return {src: CandidateSet(c) for src, c in zip(sources.tolist(), chosen)}


def score_picks(
    g: Graph,
    sources: Iterable[int],
    picks: Sequence[tuple[float, Sequence[int]]],
    alpha: float = 0.85,
    k_per_level: int = 1,
) -> list[dict[int, CandidateSet]]:
    """Candidate sets for many sources under each (beta, levels) pick.

    Returns one ``{source: CandidateSet}`` map per pick, in order.  Every
    pick is checked before any work.  PageRank and P^T are built once;
    sources are de-duplicated and walked in the blocks of ``hop_blocks``,
    each with one BFS, to the deepest level of any pick, and one restart
    walk, which every pick then mixes and selects from.  Sources with no
    eligible candidates map to empty sets.
    """
    source_arr = np.unique(np.fromiter(sources, dtype=np.int64))
    _check_sources(g, source_arr)
    check_alpha(alpha)
    picks = [(beta, check_levels(levels, k_per_level)) for beta, levels in picks]
    for beta, _ in picks:
        check_beta(beta)
    outs: list[dict[int, CandidateSet]] = [{} for _ in picks]
    if not source_arr.size or not picks:
        return outs
    depth = max(levels[-1] for _, levels in picks)
    pt = _transition_transpose(g)
    pgr = pagerank_scores(g, alpha, _pt=pt)
    for hops, block in hop_blocks(g, source_arr):
        fronts = bfs_layers(g, block, depth, _hops=hops)
        rwr = rwr_scores(g, block, alpha, _pt=pt)
        for (beta, levels), out in zip(picks, outs):
            mixed = combined_scores(rwr, pgr, beta)
            out.update(select_candidates(fronts, mixed, block, levels, k_per_level))
    return outs


def score_all_sources(
    g: Graph,
    sources: Iterable[int],
    alpha: float = 0.85,
    beta: float = 0.5,
    levels: Sequence[int] = (2, 3, 4),
    k_per_level: int = 1,
) -> dict[int, CandidateSet]:
    """Candidate sets for many sources under the one pick (beta, levels)."""
    return score_picks(g, sources, [(beta, levels)], alpha, k_per_level)[0]
