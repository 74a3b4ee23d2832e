"""Diversity-aware selection of negative samples.

Communities come from asynchronous label propagation; a per-source PSD
kernel couples candidate quality (similarity of the source to each
candidate's community) with pairwise redundancy (node/community feature
similarity); subsets are drawn either by an exact fixed-size determinantal
sampler or by a deterministic greedy log-det maximizer.  The union of all
sampled pairs forms the negative-sample graph the model propagates over.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

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
    iterations_run: int

    @property
    def num_communities(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass(frozen=True, eq=False)
class DppKernel:
    """Candidate-indexed PSD kernel with its assembly factors.

    The spectrum and the eigenvector-selection probabilities the exact
    sampler reads are computed on first use and kept, so every draw from
    one kernel shares a single ``eigh``.
    """

    source: int
    items: list[int]
    L: np.ndarray
    S_node: np.ndarray
    S_com: np.ndarray
    Q: np.ndarray
    jitter: float
    _selection: dict[int, list] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Eigenvalues clipped at 0 (ascending), eigenvectors, numerical rank."""
        eigvals, eigvecs = np.linalg.eigh(self.L)
        eigvals = np.maximum(eigvals, 0.0)
        return eigvals, eigvecs, int(np.sum(eigvals > RANK_TOL))

    def selection_probabilities(self, k: int) -> list[list[float | None]]:
        """``P[rem][m]``: probability that eigenvector m-1 is selected when
        rem of the first m are still to be chosen for a size-k draw; None
        where e_rem of the first m eigenvalues vanishes (never selected).

        Read from the elementary symmetric polynomials of the clipped
        eigenvalues, computed once per k.
        """
        table = self._selection.get(k)
        if table is None:
            eigvals = self.spectrum[0]
            n = eigvals.size
            E = _elem_sympoly(eigvals, k)
            table = [[None] * (n + 1) for _ in range(k + 1)]
            for rem in range(1, k + 1):
                for m in range(rem, n + 1):
                    if m == rem:
                        table[rem][m] = 1.0
                    elif E[rem, m] > 0.0:
                        table[rem][m] = float(eigvals[m - 1] * E[rem - 1, m - 1] / E[rem, m])
            self._selection[k] = table
        return table


def label_propagation(
    g: Graph,
    features: np.ndarray | None = None,
    seed: int = 0,
    max_iter: int = 100,
) -> CommunityAssignment:
    """Asynchronous majority-label propagation.

    Every node starts in its own community; sweeps visit nodes in a
    seed-shuffled order and each node adopts the most frequent label
    among its neighbors (ties to the smallest label).  Stops after a
    sweep with no change.  When ``features`` is given, per-community
    mean feature rows are computed for the compacted labels.
    """
    n = g.num_nodes
    labels = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    sweeps = 0
    for _ in range(max_iter):
        sweeps += 1
        changed = False
        for v in rng.permutation(n):
            nbrs = g.neighbors(v)
            if nbrs.size == 0:
                continue
            counts = np.bincount(labels[nbrs])
            best = int(np.argmax(counts))  # argmax returns the smallest label on ties
            if labels[v] != best:
                labels[v] = best
                changed = True
        if not changed:
            break
    uniq, compact = np.unique(labels, return_inverse=True)
    compact = compact.astype(np.int64)
    comm_features = None
    if features is not None:
        comm_features = np.vstack(
            [features[compact == c].mean(axis=0) for c in range(uniq.size)]
        )
    return CommunityAssignment(
        labels=compact, community_features=comm_features, iterations_run=sweeps
    )


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
    na = np.linalg.norm(a, axis=1)[:, None]
    return np.where(na > 0, a / np.where(na > 0, na, 1.0), 0.0)


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
    if comm.community_features is None:
        raise ValueError("community assignment carries no community features")
    items = candidates.nodes()
    if not items:
        raise ValueError("candidate set is empty")
    # each row block is normalised once and reused: these are exactly the
    # cosine_rows values.  The second operand of a Gram product is a copy,
    # because numpy sends ``a @ a.T`` on one buffer to syrk, whose last bits
    # can differ from the gemm that cosine_rows(x, x) runs
    rows = _unit_rows(features[[source] + items])
    x, src = rows[1:], rows[:1]
    cf = _unit_rows(comm.community_features[comm.labels[items]])
    s_node = x @ x.copy().T
    s_com = cf @ cf.copy().T
    q = (src @ cf.T)[0]
    quality = np.diag(q)
    core = quality @ (s_com @ s_com.T) @ quality.T
    L = core * np.exp(s_node - 1.0)
    L = 0.5 * (L + L.T)
    L += jitter * np.eye(len(items))
    return DppKernel(
        source=int(source),
        items=items,
        L=L,
        S_node=s_node,
        S_com=s_com,
        Q=quality,
        jitter=jitter,
    )


def _elem_sympoly(eigvals: np.ndarray, k: int) -> np.ndarray:
    """E[l, m] = elementary symmetric polynomial e_l over the first m values."""
    n = eigvals.size
    E = np.zeros((k + 1, n + 1))
    E[0, :] = 1.0
    for l in range(1, k + 1):
        for m in range(1, n + 1):
            E[l, m] = E[l, m - 1] + eigvals[m - 1] * E[l - 1, m - 1]
    return E


RANK_TOL = 1e-10


def kdpp_sample_exact(
    kernel: DppKernel, k: int, rng: np.random.Generator
) -> list[int]:
    """Draw an exactly-size-k subset with probability proportional to
    det(L_S), via eigendecomposition (eigenvector subset selection by
    elementary symmetric polynomials, then sequential projection).

    If k exceeds the numerical rank of the kernel it is clamped with a
    warning.  Returns the sampled node ids, ascending.
    """
    n = len(kernel.items)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds candidate count {n}")
    _, eigvecs, rank = kernel.spectrum
    if k > rank:
        warnings.warn(
            f"k={k} exceeds numerical rank {rank}; clamping", stacklevel=2
        )
        k = rank
        if k == 0:
            return []

    marg = kernel.selection_probabilities(k)
    picked: list[int] = []
    rem = k
    for m in range(n, 0, -1):
        if rem == 0:
            break
        if marg[rem][m] is not None and rng.random() < marg[rem][m]:
            picked.append(m - 1)
            rem -= 1

    V = eigvecs[:, picked]
    chosen: list[int] = []
    while V.shape[1] > 0:
        probs = (V**2).sum(axis=1)  # sums of squares: never negative
        total = probs.sum()
        if total <= 0:
            break
        # Generator.choice(n, p=probs / total), spelled out: the same
        # arithmetic and the same single uniform draw, without its checks
        cdf = (probs / total).cumsum()
        cdf /= cdf[-1]
        i = int(cdf.searchsorted(rng.random(), "right"))
        chosen.append(i)
        if V.shape[1] == 1:
            break
        # project the basis onto the subspace with zero coordinate i
        j = int(np.argmax(np.abs(V[i, :])))
        vj = V[:, j].copy()
        V = V[:, np.arange(V.shape[1]) != j]
        V = V - np.outer(vj, V[i, :] / vj[i])
        V, _ = np.linalg.qr(V)
    return sorted(kernel.items[i] for i in chosen)


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


def _check_method(method: str) -> None:
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown sampling method {method!r}")


def build_negative_kernels(
    candidates: Mapping[int, CandidateSet],
    features: np.ndarray,
    comm: CommunityAssignment,
    k: int = 3,
    method: str = "exact",
    jitter: float = 1e-8,
) -> dict[int, DppKernel]:
    """Kernels of the sources whose draw actually chooses.

    Sources whose draw can only return every candidate (none included)
    get none.  Build once per candidate map and community
    assignment, then pass the result to every ``draw_negative_samples``
    call with the same candidates, k, method and jitter, so redraws reuse
    each kernel and its eigendecomposition.
    """
    _check_method(method)
    return {
        src: build_dpp_kernel(src, candidates[src], features, comm, jitter=jitter)
        for src in sorted(candidates)
        if not _draw_is_forced(len(candidates[src]), k, method, jitter)
    }


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
    A draw that can only return every candidate returns them, ascending,
    without a kernel or a generator.
    """
    _check_method(method)
    out: dict[int, list[int]] = {}
    for src in sorted(candidates):
        cs = candidates[src]
        k_eff = min(k, len(cs))
        if _draw_is_forced(len(cs), k, method, jitter):
            out[src] = sorted(cs.nodes())
            continue
        kernel = kernels[src]
        if kernel.items != cs.nodes():
            raise ValueError(f"kernel for source {src} was built from other candidates")
        if method == "greedy":
            out[src] = dpp_map_greedy(kernel, k_eff)
        else:
            if rng_for_source is None:
                raise ValueError("exact sampling needs rng_for_source")
            out[src] = kdpp_sample_exact(kernel, k_eff, rng_for_source(src))
    return out
