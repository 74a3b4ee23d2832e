"""Diversity-aware selection of negative samples.

Communities come from asynchronous label propagation; a per-source PSD
kernel couples candidate quality (similarity of the source to each
candidate's community) with pairwise redundancy (node/community feature
similarity); subsets are drawn either by an exact fixed-size determinantal
sampler or by a deterministic greedy log-det maximizer.  The union of all
sampled pairs forms the negative-sample graph the model propagates over.
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
    "label_propagation",
    "cosine_rows",
    "build_dpp_kernel",
    "kdpp_sample_exact",
    "dpp_map_greedy",
    "build_negative_graph",
    "build_negative_kernels",
    "draw_negative_samples",
]


@dataclass(frozen=True, eq=False)
class CommunityAssignment:
    """Node -> community labels (compacted to 0..C-1) plus mean features."""

    labels: np.ndarray
    community_features: np.ndarray | None

    @property
    def num_communities(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass(frozen=True, eq=False)
class DppKernel:
    """Candidate-indexed PSD kernel of one source.

    Built for the exact sampler, it also holds its eigenvalues clipped at
    0 (ascending), eigenvectors, numerical rank and ``select[rem, m]``: the
    probability that eigenvector m-1 is selected when rem of the first m
    are still to be chosen, NaN where e_rem of the first m eigenvalues
    vanishes (never selected).  Built for the greedy picker, these are None.
    """

    source: int
    items: list[int]
    L: np.ndarray
    eigvals: np.ndarray | None = None
    eigvecs: np.ndarray | None = None
    rank: int | None = None
    select: np.ndarray | None = None


def label_propagation(
    g: Graph,
    features=None,
    seed: int = 0,
    max_iter: int = 100,
) -> CommunityAssignment:
    """Asynchronous majority-label propagation.

    Every node starts in its own community; sweeps visit nodes in a
    seed-shuffled order and each node adopts the most frequent label
    among its neighbors (ties to the smallest label).  Stops after a
    sweep with no change.  When ``features`` (dense or sparse) is given,
    per-community dense mean feature rows are computed for the compacted
    labels.
    """
    n = g.num_nodes
    # Python lists: a visit costs O(degree), not a count over every label
    indices, indptr = g.indices.tolist(), g.indptr.tolist()
    neighbors = [indices[lo:hi] for lo, hi in zip(indptr, indptr[1:])]
    labels = list(range(n))
    rng = np.random.default_rng(seed)
    for _ in range(max_iter):
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
    return _assemble_kernels([source], [candidates.nodes()], features, comm, jitter, True)[0]


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
    exact: bool,
) -> list[DppKernel]:
    """``build_dpp_kernel`` for each (source, candidate ids), in one pass,
    then stacked by candidate count, with spectra when ``exact``.

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
        group = _stacked_kernels([sources[p] for p in positions],
                                 [item_lists[p] for p in positions], np.array(matrices), exact)
        for pos, kernel in zip(positions, group):
            kernels[pos] = kernel
    return kernels


RANK_TOL = 1e-10


def _stacked_kernels(
    sources: list[int], item_lists: list[list[int]], stack: np.ndarray, exact: bool
) -> list[DppKernel]:
    """The kernels of a (B, n, n) stack, with spectra when ``exact``.  A
    stacked ``eigh`` runs LAPACK on each matrix on its own, so every
    spectrum has the bits of a single call."""
    if not exact:
        return [DppKernel(int(s), items, L) for s, items, L in zip(sources, item_lists, stack)]
    eigvals, eigvecs = np.linalg.eigh(stack)
    eigvals = np.maximum(eigvals, 0.0)
    ranks = (eigvals > RANK_TOL).sum(axis=1).tolist()
    tables = _selection_tables(eigvals)
    return [
        DppKernel(int(s), items, *fields)
        for s, items, *fields in zip(sources, item_lists, stack, eigvals, eigvecs, ranks, tables)
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
    warning.  Returns the sampled node ids, ascending.  A kernel built for
    the greedy picker has no spectrum and raises ``ValueError``.
    """
    if kernel.select is None:
        raise ValueError(f"source {kernel.source} has no spectrum for the exact sampler; "
                         "its kernel was built for the greedy picker")
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


def dpp_map_greedy(
    kernel: DppKernel, k: int, return_gains: bool = False
) -> list[int] | tuple[list[int], list[float]]:
    """Deterministic greedy log-det maximization (ties to the smaller id).

    Always returns k items even when extra picks add ~zero determinant
    mass; per-pick log-det gains are available via ``return_gains``.
    """
    n = len(kernel.items)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds candidate count {n}")
    selected: list[int] = []
    gains: list[float] = []
    current = 0.0
    # candidate indices in ascending node-id order so strict > keeps ties minimal
    id_order = sorted(range(n), key=lambda i: kernel.items[i])
    for _ in range(k):
        best_gain = -np.inf
        best_i = None
        for i in id_order:
            if i in selected:
                continue
            trial = selected + [i]
            sign, logdet = np.linalg.slogdet(kernel.L[np.ix_(trial, trial)])
            gain = (logdet - current) if sign > 0 else -np.inf
            if gain > best_gain:
                best_gain = gain
                best_i = i
        if best_i is None:  # all remaining determinants vanish; take smallest id
            best_i = next(i for i in id_order if i not in selected)
            best_gain = -np.inf
        selected.append(best_i)
        gains.append(float(best_gain))
        if np.isfinite(best_gain):
            current += best_gain
    ids = sorted(kernel.items[i] for i in selected)
    if return_gains:
        return ids, gains
    return ids


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


def _draw_is_forced(n: int, k: int, method: str, jitter: float) -> bool:
    """True when a size-min(k, n) draw from n candidates can only be all of them.

    An empty set has only the empty draw, and the greedy picker always
    returns k distinct items.  The exact sampler returns all n only when
    the kernel has full numerical rank, which the jitter alone guarantees
    here.  Weyl: lambda_min(C + E + jitter I) >= lambda_min(C) + jitter -
    ||E||_2 for the PSD core C and its roundoff E (assembly and eigh).
    Kernel entries are at most n in magnitude, so ||C||_2 <= n**2 and
    ||E||_2 is of order n**3 eps.  With jitter >= 100 RANK_TOL and n**3 eps <=
    jitter / 2, every eigenvalue is at least jitter / 2 > RANK_TOL.  Below
    that bound the sampler runs, so a rank-deficient kernel still warns
    and clamps.
    """
    if k < n:
        return False
    if n == 0 or method == "greedy":
        return True
    return jitter >= 100 * RANK_TOL and n**3 * np.finfo(np.float64).eps <= jitter / 2


def check_method(method: str) -> None:
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown sampling method {method!r}")


def check_jitter(jitter: float) -> None:
    if not (math.isfinite(jitter) and jitter >= 0):
        raise ValueError(f"jitter must be finite and at least 0, got {jitter}")


def build_negative_kernels(
    candidates: Mapping[int, CandidateSet],
    features: np.ndarray,
    comm: CommunityAssignment | Callable[[], CommunityAssignment],
    k: int = 3,
    method: str = "exact",
    jitter: float = 1e-8,
) -> dict[int, DppKernel]:
    """Kernels of the sources whose draw actually chooses.

    Sources whose draw can only return every candidate (none included)
    get none.  ``comm`` may be a zero-argument callable that returns the
    communities; it is called once, and only if some source gets a
    kernel.  The kernels are assembled in one pass, each feature and
    community row normalised once, with the bits of ``build_dpp_kernel``;
    for the exact sampler each gets its spectrum and selection table here,
    stacked by candidate count.  Build once per candidate map and
    community assignment, then pass the result to every
    ``draw_negative_samples`` call with the same candidates, k, method and
    jitter, so redraws reuse each kernel and its eigendecomposition.
    """
    check_method(method)
    check_jitter(jitter)
    choosing = [
        src
        for src in sorted(candidates)
        if not _draw_is_forced(len(candidates[src]), k, method, jitter)
    ]
    if not choosing:
        return {}
    if callable(comm):
        comm = comm()
    items = [candidates[src].nodes() for src in choosing]
    kernels = _assemble_kernels(choosing, items, features, comm, jitter, method == "exact")
    return dict(zip(choosing, kernels))


def draw_negative_samples(
    candidates: Mapping[int, CandidateSet],
    kernels: Mapping[int, DppKernel],
    k: int = 3,
    method: str = "exact",
    jitter: float = 1e-8,
    rng_for_source=None,
) -> dict[int, list[int]]:
    """Per-source negative draws over all candidate sets.

    ``kernels`` are ``build_negative_kernels`` of the same candidates, k,
    method and jitter; build them once and pass them to every redraw.
    ``k`` is clamped to each source's candidate count.  ``rng_for_source``
    maps a source id to the generator used for its draw, so results do
    not depend on iteration order; it is required for the exact sampler.
    The exact draws run in lockstep, so every source needs a generator of
    its own: one generator returned for two sources raises ``ValueError``.
    A draw that can only return every candidate returns them, ascending,
    without a kernel or a generator.  A source that chooses without a
    usable kernel raises ``ValueError`` before any generator is asked for.
    """
    check_method(method)
    out: dict[int, list[int]] = dict.fromkeys(sorted(candidates))
    exact: list[int] = []
    for src in out:
        cs = candidates[src]
        if _draw_is_forced(len(cs), k, method, jitter):
            out[src] = sorted(cs.nodes())
            continue
        kernel = kernels.get(src)
        if kernel is None or (method == "exact" and kernel.select is None):
            raise ValueError(f"source {src} has no kernel for the {method} sampler; the "
                             "kernels were built with another k, method or jitter")
        if kernel.items != cs.nodes():
            raise ValueError(f"kernel for source {src} was built from other candidates")
        if method == "greedy":
            out[src] = dpp_map_greedy(kernel, min(k, len(cs)))
        else:
            exact.append(src)
    if exact:
        if rng_for_source is None:
            raise ValueError("exact sampling needs rng_for_source")
        rngs = [rng_for_source(src) for src in exact]
        owner: dict[int, int] = {}
        for src, rng in zip(exact, rngs):
            first = owner.setdefault(id(rng), src)
            if first != src:
                raise ValueError(f"sources {first} and {src} share one generator")
        ks = [min(k, len(candidates[src])) for src in exact]
        out.update(zip(exact, _kdpp_draws([kernels[s] for s in exact], ks, rngs)))
    return out
