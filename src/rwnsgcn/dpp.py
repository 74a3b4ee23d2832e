"""Diversity-aware selection of negative samples.

Communities come from asynchronous label propagation; a per-source PSD
kernel couples candidate quality (similarity of the source to each
candidate's community) with pairwise redundancy (node/community feature
similarity); subsets are drawn by an exact fixed-size determinantal
sampler.  One record holds the candidates, k and kernels, and every draw
reads only it.  The union of all sampled pairs forms the negative-sample
graph the model propagates over.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from rwnsgcn.graph import Graph, build_graph
from rwnsgcn.scoring import CandidateSet

__all__ = [
    "CommunityAssignment",
    "DppKernel",
    "NegativeKernels",
    "label_propagation",
    "cosine_rows",
    "build_dpp_kernel",
    "kdpp_sample_exact",
    "build_negative_graph",
    "build_negative_kernels",
    "draw_negative_samples",
]


@dataclass(frozen=True, eq=False)
class CommunityAssignment:
    """Node -> community labels (compacted to 0..C-1) plus mean features."""

    labels: np.ndarray
    community_features: np.ndarray | None


@dataclass(frozen=True, eq=False)
class DppKernel:
    """Candidate-indexed PSD kernel of one source.

    It also holds its eigenvalues clipped at 0 (ascending), eigenvectors,
    numerical rank and ``select[rem, m]``: the probability that eigenvector
    m-1 is selected when rem of the first m are still to be chosen, NaN
    where e_rem of the first m eigenvalues vanishes (never selected).
    """

    items: list[int]
    L: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int
    select: np.ndarray


@dataclass(frozen=True, eq=False)
class NegativeKernels:
    """What every negative draw over one candidate map reads, fixed at
    build: the map, the draw size ``k`` and the kernels of exactly the
    sources with more than ``k`` candidates, whose draw chooses."""

    candidates: Mapping[int, CandidateSet]
    k: int
    by_source: dict[int, DppKernel]


def label_propagation(g: Graph, features=None, seed: int = 0) -> CommunityAssignment:
    """Asynchronous majority-label propagation.

    Every node starts in its own community; sweeps visit nodes in a
    seed-shuffled order and each node adopts the most frequent label
    among its neighbors (ties to the smallest label).  Stops after a
    sweep with no change, or after 100 sweeps.  When ``features`` (dense
    or sparse) is given, per-community dense mean feature rows are
    computed for the compacted labels.
    """
    n = g.num_nodes
    # Python lists: a visit costs O(degree), not a count over every label
    indices, indptr = g.indices.tolist(), g.indptr.tolist()
    neighbors = [indices[lo:hi] for lo, hi in zip(indptr, indptr[1:])]
    labels = list(range(n))
    rng = np.random.default_rng(seed)
    for _ in range(100):
        changed = False
        for v in rng.permutation(n).tolist():
            nbrs = neighbors[v]
            if not nbrs:
                continue
            counts = {}
            for u in nbrs:
                label = labels[u]
                counts[label] = counts.get(label, 0) + 1
            top = max(counts.values())
            best = min(label for label, c in counts.items() if c == top)
            if labels[v] != best:
                labels[v] = best
                changed = True
        if not changed:
            break
    uniq, compact = np.unique(np.array(labels, dtype=np.int64), return_inverse=True)
    compact = compact.astype(np.int64)
    comm_features = None
    if features is not None:
        # nodes grouped by community, each group in ascending node order:
        # the rows a boolean mask per community would pick
        order = np.argsort(compact, kind="stable")
        ends = np.cumsum(np.bincount(compact)).tolist()
        comm_features = np.vstack([
            _dense_rows(features, order[lo:hi]).mean(axis=0)
            for lo, hi in zip([0] + ends, ends)
        ])
    return CommunityAssignment(labels=compact, community_features=comm_features)


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the rows of a and b.

    Zero-norm rows contribute 0 similarity everywhere.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    return _unit_rows(a) @ _unit_rows(b).T


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; zero-norm rows stay zero."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    rows = np.arange(len(a))
    return _scaled_rows(a, rows, *_row_scales(a, rows))


def build_dpp_kernel(
    source: int,
    candidates: CandidateSet,
    features: np.ndarray,
    comm: CommunityAssignment,
    jitter: float = 1e-8,
) -> DppKernel:
    """Assemble the candidate kernel for one source.

    With q_j the cosine of the source's features against candidate j's
    community features, the kernel is

        L = (diag(q) (S_com S_com^T) diag(q)) * exp(S_node - 1) + jitter I

    where * is elementwise.  All three factors are PSD, so L is PSD up
    to roundoff before the jitter.
    """
    check_jitter(jitter)
    return _assemble_kernels([source], [candidates.nodes()], features, comm, jitter)[0]


_ROW_CHUNK = 64


def _dense_rows(x, rows: np.ndarray, scales: np.ndarray | None = None) -> np.ndarray:
    """Float64 dense copy of rows ``rows`` of ``x`` (dense or CSR), each row
    divided by its entry of ``scales`` when given.

    From CSR, only the stored entries are divided, and they are assigned
    into zeros straight from ``indptr``/``indices``/``data`` (``toarray()``
    adds them, which turns a stored -0.0 into +0.0).  A zero divides to
    itself, so these are the bits of dividing the dense rows.
    """
    if not sp.issparse(x):
        out = np.asarray(x[rows], dtype=np.float64)
        return out if scales is None else out / scales[:, None]
    starts = x.indptr[rows]
    counts = x.indptr[rows + 1] - starts
    # positions of the stored entries of every row, row after row
    pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    values = x.data[pos]
    if scales is not None:
        values = values / np.repeat(scales, counts)
    out = np.zeros((rows.size, x.shape[1]))
    out[np.repeat(np.arange(rows.size), counts), x.indices[pos]] = values
    return out


def _row_scales(a, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divisors that scale rows ``rows`` of ``a`` (dense or sparse) to unit
    L2 norm (1 where the norm is not positive) and the mask of positive norms.

    The norms are taken over dense copies of ``_ROW_CHUNK`` rows at a time,
    so no copy of more rows than that is made, and a sparse row has the
    norm of its dense form.  Each row reduces on its own, so a norm has the
    bits of the same row's norm in any other row block.
    """
    norms = np.empty(rows.size)
    for start in range(0, rows.size, _ROW_CHUNK):
        chunk = rows[start : start + _ROW_CHUNK]
        norms[start : start + chunk.size] = np.linalg.norm(_dense_rows(a, chunk), axis=1)
    positive = norms > 0
    return np.where(positive, norms, 1.0), positive


def _scaled_rows(x, rows: np.ndarray, scales: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Dense unit rows ``rows`` of ``x`` from ``_row_scales``; rows whose
    norm is not positive are +0.0 throughout."""
    out = _dense_rows(x, rows, scales)
    if not positive.all():
        out[~positive] = 0.0
    return out


def _assemble_kernels(
    sources: list[int],
    item_lists: list[list[int]],
    features,
    comm: CommunityAssignment,
    jitter: float,
) -> list[DppKernel]:
    """``build_dpp_kernel`` for each (source, candidate ids), in one pass,
    then stacked by candidate count for their spectra.

    The norm of each needed feature row is taken once and each community
    row is normalised once; every kernel then builds its dense unit rows
    (from CSR features, dividing only the stored entries) and runs its own
    2-D products.
    A stacked product over all kernels would not take the same BLAS path,
    and reading a shared Gram matrix changes the summation, so neither
    keeps the bits of one kernel at a time.
    """
    cf = comm.community_features
    if cf is None:
        raise ValueError("community assignment carries no community features")
    if not all(item_lists):
        raise ValueError("candidate set is empty")
    n = features.shape[0]
    index = [[source] + items for source, items in zip(sources, item_lists)]
    nodes = np.unique(np.fromiter(chain.from_iterable(index), dtype=np.int64))
    scales, positive = np.ones(n), np.zeros(n, dtype=bool)
    scales[nodes], positive[nodes] = _row_scales(features, nodes)
    unit_cf = _unit_rows(cf)
    by_count: dict[int, list[tuple[int, np.ndarray]]] = {}
    for pos, idx in enumerate(index):
        # the unit rows of this kernel's rows, as cosine_rows computes them.
        # The second operand of a Gram product is a copy, because numpy
        # sends ``a @ a.T`` on one buffer to syrk, whose last bits can
        # differ from the gemm that cosine_rows(x, x) runs
        at = np.array(idx)
        rows = _scaled_rows(features, at, scales[at], positive[at])
        x, src = rows[1:], rows[:1]
        c = unit_cf[comm.labels[idx[1:]]]
        s_node = x @ x.copy().T
        s_com = c @ c.copy().T
        q = (src @ c.T)[0]
        quality = np.diag(q)
        core = quality @ (s_com @ s_com.T) @ quality.T
        L = core * np.exp(s_node - 1.0)
        L = 0.5 * (L + L.T)
        L += jitter * np.eye(len(idx) - 1)
        by_count.setdefault(len(idx) - 1, []).append((pos, L))
    kernels: list[DppKernel] = [None] * len(index)
    for members in by_count.values():
        positions, matrices = zip(*members)
        group = _stacked_kernels([item_lists[p] for p in positions], np.array(matrices))
        for pos, kernel in zip(positions, group):
            kernels[pos] = kernel
    return kernels


RANK_TOL = 1e-10


def _stacked_kernels(item_lists: list[list[int]], stack: np.ndarray) -> list[DppKernel]:
    """The kernels of a (B, n, n) stack, with their spectra.  A stacked
    ``eigh`` runs LAPACK on each matrix on its own, so every spectrum has
    the bits of a single call."""
    eigvals, eigvecs = np.linalg.eigh(stack)
    eigvals = np.maximum(eigvals, 0.0)
    ranks = (eigvals > RANK_TOL).sum(axis=1).tolist()
    tables = _selection_tables(eigvals)
    return [
        DppKernel(items, *fields)
        for items, *fields in zip(item_lists, stack, eigvals, eigvecs, ranks, tables)
    ]


def _selection_tables(eigvals: np.ndarray) -> np.ndarray:
    """``DppKernel.select`` of a (B, n) stack of clipped eigenvalues.

    E[l, m], the elementary symmetric polynomial e_l of the first m values,
    takes one m at a time for every l and kernel: each entry has the bits
    of the scalar recurrence.  Rows past the float64 range overflow silently,
    as it does at so large a k (assembled kernels: over 140 candidates)."""
    b, n = eigvals.shape
    E = np.zeros((b, n + 1, n + 1))
    E[:, 0, :] = 1.0
    select = np.full((b, n + 1, n + 1), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            E[:, 1:, m] = E[:, 1:, m - 1] + eigvals[:, m - 1, None] * E[:, :-1, m - 1]
        # [rem-1, m-1] of these (n, n) blocks is (rem, m): a ratio where m > rem
        e_rem = E[:, 1:, 1:]
        np.divide(eigvals[:, None, :] * E[:, :-1, :-1], e_rem,
                  out=select[:, 1:, 1:], where=np.triu(e_rem > 0, 1))
    select[:, range(1, n + 1), range(1, n + 1)] = 1.0  # m == rem: all still to choose
    return select


def kdpp_sample_exact(kernel: DppKernel, k: int, rng: np.random.Generator) -> list[int]:
    """Draw an exactly-size-k subset with probability proportional to
    det(L_S), via eigendecomposition (eigenvector subset selection by
    elementary symmetric polynomials, then sequential projection).

    If k exceeds the numerical rank of the kernel it is clamped with a
    warning.  Returns the sampled node ids, ascending.
    """
    return _kdpp_draws([kernel], [k], [rng])[0]


def _kdpp_draws(
    kernels: list[DppKernel], ks: list[int], rngs: list[np.random.Generator]
) -> list[list[int]]:
    """``kdpp_sample_exact`` for each (kernel, k, generator), in lockstep.

    Each draw selects its eigenvectors on its own, from the spectrum and
    selection table its kernel was built with.  The draws with
    the same candidate count n and selected-vector count r take each
    projection step together on a stacked (B, r, n) array, with the
    arithmetic of a single draw per basis, so each generator sees the same
    calls in the same order as in a draw made on its own, and the picks
    are equal.
    """
    bases = []
    for kernel, k, rng in zip(kernels, ks, rngs):
        n = len(kernel.items)
        if k <= 0:
            raise ValueError("k must be positive")
        if k > n:
            raise ValueError(f"k={k} exceeds candidate count {n}")
        if k > kernel.rank:
            warnings.warn(f"k={k} exceeds numerical rank {kernel.rank}; clamping", stacklevel=3)
            k = kernel.rank
        picked: list[int] = []
        for m in range(n, 0, -1):
            if len(picked) == k:
                break
            # no NaN is read: E[k, n] > 0 as k <= rank, and each pick or pass keeps E > 0
            if rng.random() < kernel.select[k - len(picked), m]:
                picked.append(m - 1)
        # one basis vector per row: the memory layout of the (n, r) column
        # selection a single draw sums over, so row sums add in its order
        bases.append(kernel.eigvecs[:, picked].T)
    groups: dict[tuple, list[int]] = {}
    for d, basis in enumerate(bases):
        if basis.size:
            groups.setdefault(basis.shape, []).append(d)
    out: list[list[int]] = [[] for _ in kernels]
    for members in groups.values():
        W = np.array([bases[d] for d in members])  # (B, r, n)
        rows = np.arange(len(members))
        chosen = []
        while True:
            # the basis stays orthonormal, so the squared coordinates are
            # non-negative and total the basis size
            probs = (W**2).sum(axis=1)
            # Generator.choice(n, p=probs / total), spelled out: the same
            # arithmetic and the same single uniform draw; counting the cdf
            # entries <= u is searchsorted(cdf, u, "right")
            cdf = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            u = np.array([rngs[d].random() for d in members])
            i = (cdf <= u[:, None]).sum(axis=1)
            chosen.append(i)
            r = W.shape[1]
            if r == 1:
                break
            # project each basis onto the subspace with zero coordinate i:
            # drop the vector j largest there, subtract multiples of it
            wi = W[rows, :, i]
            j = np.abs(wi).argmax(axis=1)
            wj = W[rows, j]
            W = W - (wi / wj[rows, i][:, None])[:, :, None] * wj[:, None, :]
            W = W[np.arange(r) != j[:, None]].reshape(-1, r - 1, W.shape[2])
            W = np.linalg.qr(W.transpose(0, 2, 1))[0].transpose(0, 2, 1)
        for b, d in enumerate(members):
            out[d] = sorted(kernels[d].items[c[b]] for c in chosen)
    return out


def build_negative_graph(
    samples: Mapping[int, Iterable[int]], num_nodes: int
) -> Graph:
    """Unit-weight symmetric graph with an edge (source, j) per sampled j.

    Duplicates collapse; nodes never touched by sampling keep zero rows.
    """
    picked = list(map(list, samples.values()))
    sources = np.fromiter(samples, dtype=np.int64, count=len(samples))
    u = np.repeat(sources, list(map(len, picked)))
    v = np.fromiter(chain.from_iterable(picked), dtype=np.int64, count=u.size)
    return build_graph(num_nodes, np.column_stack((u, v)))


def check_jitter(jitter: float) -> None:
    if not (math.isfinite(jitter) and jitter >= 0):
        raise ValueError(f"jitter must be finite and at least 0, got {jitter}")


def build_negative_kernels(
    candidates: Mapping[int, CandidateSet],
    features: np.ndarray,
    comm: CommunityAssignment | Callable[[], CommunityAssignment],
    k: int = 3,
    jitter: float = 1e-8,
) -> NegativeKernels:
    """The record every negative draw over ``candidates`` reads.

    Only the sources with more than ``k`` candidates get a kernel: a k-DPP
    over n <= k items has one draw, all of them (none included), whatever
    the jitter.  ``comm`` may be a zero-argument callable that returns the
    communities; it is called once, and only if some source gets a kernel.
    The kernels are assembled in one pass, each feature and community row
    normalised once, with the bits of ``build_dpp_kernel``, and each gets
    its spectrum and selection table here, stacked by candidate count.
    Build once per candidate map and community assignment, then hand the
    record to every ``draw_negative_samples`` call, so redraws reuse each
    kernel and its eigendecomposition.
    """
    check_jitter(jitter)
    choosing = [src for src in sorted(candidates) if len(candidates[src]) > k]
    by_source: dict[int, DppKernel] = {}
    if choosing:
        if callable(comm):
            comm = comm()
        items = [candidates[src].nodes() for src in choosing]
        kernels = _assemble_kernels(choosing, items, features, comm, jitter)
        by_source = dict(zip(choosing, kernels))
    return NegativeKernels(candidates, k, by_source)


def draw_negative_samples(kernels: NegativeKernels, rng_for_source) -> dict[int, list[int]]:
    """One negative draw per source of the ``build_negative_kernels`` record.

    ``k`` is clamped to each source's candidate count, and a source without
    a kernel takes every candidate, ascending.  ``rng_for_source`` maps a
    source id to the generator of its draw, so results do not depend on
    iteration order.  The draws run in lockstep, so one generator returned
    for two sources raises ``ValueError``.
    """
    candidates, k = kernels.candidates, kernels.k
    out: dict[int, list[int]] = dict.fromkeys(sorted(candidates))
    drawn: list[int] = []
    for src in out:
        if src in kernels.by_source:
            drawn.append(src)
        else:
            out[src] = sorted(candidates[src].nodes())
    if drawn:
        rngs = [rng_for_source(src) for src in drawn]
        owner: dict[int, int] = {}
        for src, rng in zip(drawn, rngs):
            first = owner.setdefault(id(rng), src)
            if first != src:
                raise ValueError(f"sources {first} and {src} share one generator")
        chosen = [kernels.by_source[src] for src in drawn]
        ks = [min(k, len(kernel.items)) for kernel in chosen]
        out.update(zip(drawn, _kdpp_draws(chosen, ks, rngs)))
    return out
