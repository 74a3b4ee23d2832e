import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from rwnsgcn.config import derive_seed, substream
from rwnsgcn.data import load_content_cites
from rwnsgcn.dpp import (
    RANK_TOL,
    NegativeKernels,
    _kdpp_draws,
    _stacked_kernels,
    build_dpp_kernel,
    build_negative_graph,
    build_negative_kernels,
    cosine_rows,
    draw_negative_samples,
    kdpp_sample_exact,
    label_propagation,
)
from rwnsgcn.graph import build_graph
from rwnsgcn.scoring import CandidateSet, score_all_sources

from conftest import random_graph


def make_candidates(nodes, layer=2):
    return CandidateSet([(int(n), layer) for n in nodes])


def make_kernel(L, items=None):
    """Wrap a raw PSD matrix for the sampler."""
    items = list(range(L.shape[0])) if items is None else items
    return _stacked_kernels([items], np.asarray(L, dtype=np.float64)[None])[0]


def assemble_kernel(x, comm, source, items, jitter=1e-8):
    """build_dpp_kernel's L, assembled from cosine_rows factors."""
    cfi = comm.community_features[comm.labels[items]]
    s_node = cosine_rows(x[items], x[items])
    s_com = cosine_rows(cfi, cfi)
    quality = np.diag(cosine_rows(x[source][None, :], cfi)[0])
    core = quality @ (s_com @ s_com.T) @ quality.T
    L = core * np.exp(s_node - 1.0)
    L = 0.5 * (L + L.T)
    L += jitter * np.eye(len(items))
    return L, s_node


def enumerate_kdpp(L, k):
    """Exact k-subset probabilities from principal minors."""
    n = L.shape[0]
    dets = {}
    for subset in itertools.combinations(range(n), k):
        sub = L[np.ix_(subset, subset)]
        dets[subset] = max(np.linalg.det(sub), 0.0)
    total = sum(dets.values())
    return {s: d / total for s, d in dets.items()}


def lockstep_subset_counts(kernel, k, seed, n_draws):
    """How often each k-subset comes up in ``n_draws`` exact k-DPP draws
    made in lockstep (``_kdpp_draws``, the production path), one generator
    spawned from ``seed`` per draw."""
    seeds = np.random.SeedSequence(seed)
    counts = Counter()
    chunk = 10_000  # draws per call, so that few generators are alive at once
    for lo in range(0, n_draws, chunk):
        rngs = [np.random.default_rng(s) for s in seeds.spawn(min(chunk, n_draws - lo))]
        counts.update(tuple(s) for s in _kdpp_draws([kernel] * len(rngs), [k] * len(rngs), rngs))
    return counts


# ------------------------------------------------------------- communities


def test_two_triangles_two_communities():
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    comm = label_propagation(g, seed=0)
    assert np.unique(comm.labels).tolist() == [0, 1]
    assert len(set(comm.labels[:3])) == 1
    assert len(set(comm.labels[3:])) == 1


def test_single_edge_one_community():
    g = build_graph(2, [(0, 1, 1.0)])
    comm = label_propagation(g, seed=3)
    assert comm.labels.tolist() == [0, 0]


def test_empty_graph_singletons():
    g = build_graph(4, [])
    comm = label_propagation(g, seed=0)
    assert list(comm.labels) == [0, 1, 2, 3]


def test_disjoint_cliques_one_community_each():
    edges = []
    offset = 0
    for size in (3, 4, 5):
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((offset + i, offset + j, 1.0))
        offset += size
    g = build_graph(offset, edges)
    comm = label_propagation(g, seed=11)
    assert np.unique(comm.labels).tolist() == [0, 1, 2]


def reference_label_propagation(g, seed, max_iter=100):
    """The sweep as it was before Python neighbour lists: a numpy count
    over every label at each visit, argmax ties to the smallest label.
    Returns the compacted labels."""
    n = g.num_nodes
    labels = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(max_iter):
        changed = False
        for v in rng.permutation(n):
            nbrs = g.neighbors(v)
            if nbrs.size == 0:
                continue
            best = int(np.argmax(np.bincount(labels[nbrs])))
            if labels[v] != best:
                labels[v] = best
                changed = True
        if not changed:
            break
    return np.unique(labels, return_inverse=True)[1].astype(np.int64)


@pytest.mark.parametrize("seed", [501, 601])
@pytest.mark.parametrize("scale", ["cora", "citeseer", "pubmed3k"])
def test_label_propagation_matches_the_reference_sweep_on_the_benchmark_graphs(
    bench_gen, scale, seed
):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], seed)
    g = load_content_cites(content.decode(), cites.decode()).graph
    lp_seed = derive_seed(seed, "labelprop")  # the harness's seed for run 0
    got = label_propagation(g, seed=lp_seed).labels
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_label_propagation(g, lp_seed))


def _bridged_triangles(count):
    # triangles t and t + 1 joined through one bridge node, which sees one
    # neighbour in each: a tie that decides which side it joins
    edges = []
    for t in range(count):
        a = 4 * t
        edges += [(a, a + 1, 1.0), (a + 1, a + 2, 1.0), (a, a + 2, 1.0)]
        if t + 1 < count:
            edges += [(a + 2, a + 3, 1.0), (a + 3, a + 4, 1.0)]
    return build_graph(4 * count - 1, edges)


LP_GRAPHS = {
    "isolated": lambda rng: build_graph(12, [(0, 1, 1.0), (1, 2, 1.0), (5, 6, 1.0)]),
    "zero-weight": lambda rng: build_graph(
        30, [(u, v, 0.0 if rng.random() < 0.5 else 1.0)
             for u, v, _ in random_graph(rng, 30, 0.12).edges()]),
    "ties": lambda rng: _bridged_triangles(5),
    "star": lambda rng: build_graph(6, [(0, i, 1.0) for i in range(1, 6)]),
    "random": lambda rng: random_graph(rng, 60, 0.05, weighted=True),
}


@pytest.mark.parametrize("case", LP_GRAPHS)
def test_label_propagation_matches_the_reference_sweep_on_edge_cases(case):
    for lp_seed in range(6):
        g = LP_GRAPHS[case](np.random.default_rng(lp_seed))
        got = label_propagation(g, seed=lp_seed).labels
        assert np.array_equal(got, reference_label_propagation(g, lp_seed))


def test_community_features_are_member_means():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    x = np.arange(8.0).reshape(4, 2)
    comm = label_propagation(g, features=x, seed=0)
    for c in np.unique(comm.labels):
        members = np.flatnonzero(comm.labels == c)
        assert np.allclose(
            comm.community_features[c], x[members].mean(axis=0), atol=1e-9
        )


# ------------------------------------------------------------- similarities


def test_cosine_identical_unit_rows():
    a = np.array([[1.0, 0.0]])
    assert cosine_rows(a, a)[0, 0] == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_rows(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0, 0] == 0.0


def test_cosine_45_degrees():
    got = cosine_rows(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))[0, 0]
    assert got == pytest.approx(1 / np.sqrt(2))


def test_cosine_zero_row_gives_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    sim = cosine_rows(a, a)
    assert sim[0, 0] == 0.0
    assert sim[0, 1] == 0.0
    assert sim[1, 1] == pytest.approx(1.0)


# ------------------------------------------------------------------- kernel


def _scenario(seed=0, n_nodes=12, feat=6):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, 0.3)
    x = rng.random((n_nodes, feat))
    comm = label_propagation(g, features=x, seed=seed)
    return g, x, comm


def test_kernel_scalar_case_matches_formula():
    g, x, comm = _scenario(seed=1)
    cand = make_candidates([5])
    jitter = 1e-8
    kernel = build_dpp_kernel(0, cand, x, comm, jitter=jitter)
    q = cosine_rows(x[0][None, :], comm.community_features[comm.labels[[5]]])[0, 0]
    s_com = 1.0  # single candidate against itself
    expected = q * s_com * q * np.exp(0.0) + jitter
    assert kernel.L[0, 0] == pytest.approx(expected, abs=1e-12)


def test_kernel_identical_candidates_near_singular():
    # same features, same community -> rank-1 before jitter
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    x = np.ones((6, 4))
    comm = label_propagation(g, features=x, seed=0)
    cand = make_candidates([3, 4])
    kernel = build_dpp_kernel(0, cand, x, comm, jitter=1e-8)
    det = np.linalg.det(kernel.L)
    assert det < 1e-6  # jitter-scale mass only


def test_kernel_orthogonal_features_hand_value():
    # two candidates in one community, source aligned with the community mean
    from rwnsgcn.dpp import CommunityAssignment

    x = np.zeros((3, 2))
    x[0] = [1.0, 1.0]  # source
    x[1] = [1.0, 0.0]
    x[2] = [0.0, 1.0]
    labels = np.array([0, 0, 0])
    comm = CommunityAssignment(
        labels=labels,
        community_features=np.array([[1.0, 1.0]]),
    )
    cand = make_candidates([1, 2])
    kernel = build_dpp_kernel(0, cand, x, comm, jitter=0.0)
    # q = [1, 1], S_com = all-ones -> core = S_com S_com^T = all-2s;
    # S_node = I -> off-diagonal damped by e^{-1}
    assert kernel.L[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert kernel.L[0, 1] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-9)
    assert kernel.L[0, 0] > kernel.L[0, 1]


def test_kernel_psd_on_random_candidate_sets():
    rng = np.random.default_rng(42)
    trials = 0
    for graph_seed in range(20):
        g, x, comm = _scenario(seed=graph_seed, n_nodes=15, feat=5)
        for _ in range(10):
            size = int(rng.integers(1, 8))
            nodes = rng.choice(15, size=size, replace=False)
            kernel = build_dpp_kernel(
                int(rng.integers(0, 15)), make_candidates(nodes), x, comm, jitter=0.0
            )
            assert np.allclose(kernel.L, kernel.L.T, atol=1e-10)
            assert np.linalg.eigvalsh(kernel.L).min() >= -1e-8
            trials += 1
    assert trials == 200


def test_kernel_snode_diagonal_is_one():
    g, x, comm = _scenario(seed=5)
    kernel = build_dpp_kernel(0, make_candidates([2, 7, 9]), x, comm)
    L, s_node = assemble_kernel(x, comm, 0, [2, 7, 9])
    assert np.array_equal(kernel.L, L)
    assert np.allclose(np.diag(s_node), 1.0, atol=1e-9)


def test_kernel_empty_candidates_rejected():
    g, x, comm = _scenario(seed=2)
    with pytest.raises(ValueError, match="empty"):
        build_dpp_kernel(0, make_candidates([]), x, comm)


# ------------------------------------------------------------ exact sampler


def test_kdpp_identity_two_items_uniform():
    kernel = make_kernel(np.eye(2))
    rng = np.random.default_rng(0)
    counts = {0: 0, 1: 0}
    n_draws = 4000
    for _ in range(n_draws):
        (item,) = kdpp_sample_exact(kernel, 1, rng)
        counts[item] += 1
    assert abs(counts[0] / n_draws - 0.5) < 0.03


def test_kdpp_rank_one_mass():
    kernel = make_kernel(np.diag([2.0, 0.0]))
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert kdpp_sample_exact(kernel, 1, rng) == [0]


def test_kdpp_clamps_k_to_rank_with_warning():
    kernel = make_kernel(np.diag([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(2)
    with pytest.warns(UserWarning, match="rank"):
        out = kdpp_sample_exact(kernel, 2, rng)
    assert out == [0]


def test_kdpp_invalid_k():
    kernel = make_kernel(np.eye(2))
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        kdpp_sample_exact(kernel, 0, rng)
    with pytest.raises(ValueError):
        kdpp_sample_exact(kernel, 3, rng)


def test_kdpp_subset_frequencies_quick():
    # fuller statistical check lives in the acceptance suite
    rng_l = np.random.default_rng(7)
    b = rng_l.normal(size=(4, 4))
    L = b @ b.T + 0.5 * np.eye(4)
    kernel = make_kernel(L)
    expected = enumerate_kdpp(L, 2)
    n_draws = 40000
    counts = lockstep_subset_counts(kernel, 2, 11, n_draws)
    for subset, p in expected.items():
        if p >= 0.05:
            assert abs(counts[subset] / n_draws - p) / p < 0.05


def test_kdpp_never_repeats_items():
    rng_l = np.random.default_rng(13)
    b = rng_l.normal(size=(5, 5))
    kernel = make_kernel(b @ b.T + 0.1 * np.eye(5))
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = kdpp_sample_exact(kernel, 3, rng)
        assert len(set(s)) == 3


# ------------------------------------------------- duplicated-item diversity


def test_duplicate_item_coselection_probability_vanishes():
    g, x, comm = _scenario(seed=4)
    # duplicate node 3 in the candidate list
    cand = CandidateSet([(3, 2), (3, 3), (7, 4)])
    kernel = build_dpp_kernel(0, cand, x, comm, jitter=1e-8)
    probs = enumerate_kdpp(kernel.L, 2)
    both_copies = probs[(0, 1)]  # kernel indices of the two copies
    assert both_copies < 1e-5


# ------------------------------------------------------------ negative graph


def test_negative_graph_edges_and_degrees():
    g = build_negative_graph({0: {2, 3}}, 4)
    assert g.edges() == [(0, 2, 1.0), (0, 3, 1.0)]
    assert np.array_equal(g.degrees, [2.0, 0.0, 1.0, 1.0])


def test_negative_graph_dedups_mirrored_pairs():
    g = build_negative_graph({0: {2}, 2: {0}}, 3)
    assert g.num_edges == 1


def test_negative_graph_empty_map():
    g = build_negative_graph({}, 5)
    assert g.num_edges == 0
    assert np.array_equal(g.degrees, np.zeros(5))


def test_negative_graph_round_trips_sample_pairs():
    rng = np.random.default_rng(31)
    samples = {}
    n = 30
    for src in rng.choice(n, size=10, replace=False):
        others = [int(v) for v in rng.choice(n, size=3, replace=False) if v != src]
        samples[int(src)] = others
    g = build_negative_graph(samples, n)
    expected = set()
    for src, subset in samples.items():
        for j in subset:
            expected.add((min(src, j), max(src, j)))
    got = {(u, v) for u, v, _ in g.edges()}
    assert got == expected


# ------------------------------------------------------ kernel reuse, skips


def test_kernel_factors_equal_cosine_rows_bit_for_bit():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n_nodes, feat = 14, int(rng.choice([3, 40]))
        x = (rng.random((n_nodes, feat)) < 0.3) * rng.random((n_nodes, feat))
        x[rng.integers(0, n_nodes, size=2)] = 0.0  # zero-norm rows, source included
        labels = rng.integers(0, 4, size=n_nodes)
        cf = rng.random((4, feat))
        cf[int(rng.integers(0, 4))] = 0.0  # a zero-norm community row
        from rwnsgcn.dpp import CommunityAssignment

        comm = CommunityAssignment(labels=labels, community_features=cf)
        items = [int(v) for v in rng.choice(n_nodes, size=int(rng.integers(1, 7)), replace=False)]
        src = int(rng.integers(0, n_nodes))
        kernel = build_dpp_kernel(src, make_candidates(items), x, comm)
        assert np.array_equal(kernel.L, assemble_kernel(x, comm, src, items)[0])


def _redraws_match(make, k, draws=6):
    """Draws from one reused kernel equal draws from fresh kernels, and
    leave the generator in the same state."""
    reused = make()
    rng_a, rng_b = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(draws):
        assert kdpp_sample_exact(reused, k, rng_a) == kdpp_sample_exact(make(), k, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _elem_sympoly(eigvals, k):
    """E[l, m] = elementary symmetric polynomial e_l over the first m values,
    one scalar at a time: the oracle of the stacked recurrence."""
    n = eigvals.size
    E = np.zeros((k + 1, n + 1))
    E[0, :] = 1.0
    for l in range(1, k + 1):
        for m in range(1, n + 1):
            E[l, m] = E[l, m - 1] + eigvals[m - 1] * E[l - 1, m - 1]
    return E


def per_kernel_selection(eigvals, k):
    """``P[rem][m]``, the selection table of one kernel for a size-k draw as
    it was computed per kernel and per k: the probability that eigenvector
    m-1 is selected when rem of the first m are still to be chosen; None
    where e_rem of the first m eigenvalues vanishes (never selected)."""
    n = eigvals.size
    E = _elem_sympoly(eigvals, k)
    table = [[None] * (n + 1) for _ in range(k + 1)]
    for rem in range(1, k + 1):
        for m in range(rem, n + 1):
            if m == rem:
                table[rem][m] = 1.0
            elif E[rem, m] > 0.0:
                table[rem][m] = float(eigvals[m - 1] * E[rem - 1, m - 1] / E[rem, m])
    return table


def _kdpp_reference(L, k, rng):
    """The sampler recomputing everything per draw: eigh, polynomial
    table, Generator.choice and np.delete (indices, not node ids)."""
    n = L.shape[0]
    eigvals, eigvecs = np.linalg.eigh(L)
    eigvals = np.maximum(eigvals, 0.0)
    k = min(k, int(np.sum(eigvals > RANK_TOL)))
    if k == 0:
        return []
    E = _elem_sympoly(eigvals, k)
    picked, rem = [], k
    for m in range(n, 0, -1):
        if rem == 0:
            break
        if m == rem:
            marg = 1.0
        elif E[rem, m] <= 0.0:
            continue
        else:
            marg = eigvals[m - 1] * E[rem - 1, m - 1] / E[rem, m]
        if rng.random() < marg:
            picked.append(m - 1)
            rem -= 1
    V = eigvecs[:, picked]
    chosen = []
    while V.shape[1] > 0:
        probs = np.maximum(np.sum(V**2, axis=1), 0.0)
        total = probs.sum()
        if total <= 0:
            break
        i = int(rng.choice(n, p=probs / total))
        chosen.append(i)
        if V.shape[1] == 1:
            break
        j = int(np.argmax(np.abs(V[i, :])))
        vj = V[:, j].copy()
        V = np.delete(V, j, axis=1)
        V = V - np.outer(vj, V[i, :] / vj[i])
        V, _ = np.linalg.qr(V)
    return sorted(chosen)


def test_kdpp_matches_per_draw_reference_bit_for_bit():
    rng_l = np.random.default_rng(37)
    for trial in range(40):
        n = int(rng_l.integers(1, 8))
        b = rng_l.normal(size=(n, int(rng_l.integers(1, n + 1))))  # rank-deficient too
        kernel = make_kernel(b @ b.T)
        for k in range(1, n + 1):
            rng_a, rng_b = np.random.default_rng([trial, k]), np.random.default_rng([trial, k])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(10):
                    assert kdpp_sample_exact(kernel, k, rng_a) == _kdpp_reference(kernel.L, k, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_reused_kernel_draws_equal_fresh_kernel_draws():
    for seed in range(8):
        g, x, comm = _scenario(seed=seed, n_nodes=15, feat=5)
        cand = make_candidates([3, 5, 8, 11, 14][: 3 + seed % 3])
        for k in range(1, len(cand) + 1):
            _redraws_match(lambda: build_dpp_kernel(0, cand, x, comm), k)


def test_reused_rank_deficient_kernel_clamps_like_fresh():
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    x = np.ones((6, 4))
    comm = label_propagation(g, features=x, seed=0)
    cand = make_candidates([3, 4, 5])
    with pytest.warns(UserWarning, match="rank"):
        _redraws_match(lambda: build_dpp_kernel(0, cand, x, comm, jitter=0.0), 2)


def test_kernels_built_once_give_the_draws_of_rebuilt_kernels():
    from rwnsgcn.dpp import build_negative_kernels, draw_negative_samples

    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)
    cands = {s: make_candidates([(s + d) % 15 for d in (2, 5, 7, 9)]) for s in range(6)}
    cands[6] = make_candidates([])
    kernels = build_negative_kernels(cands, x, comm, k=2)
    assert sorted(kernels.by_source) == list(range(6))
    for tag in range(3):
        def rngs(src):
            return np.random.default_rng([tag, src])

        rebuilt = build_negative_kernels(cands, x, comm, k=2)
        fresh = draw_negative_samples(rebuilt, rng_for_source=rngs)
        assert draw_negative_samples(kernels, rng_for_source=rngs) == fresh
        assert fresh[6] == []


def test_communities_from_a_callable_are_found_only_when_a_draw_chooses():
    from rwnsgcn.dpp import build_negative_kernels

    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)
    calls = []

    def communities():
        calls.append(1)
        return comm

    forced = {0: make_candidates([2, 4]), 1: make_candidates([])}
    assert build_negative_kernels(forced, x, communities, k=2).by_source == {}
    assert calls == []
    cands = {**forced, 2: make_candidates([5, 7, 9])}
    kernels = build_negative_kernels(cands, x, communities, k=2)
    assert calls == [1]
    (kernel,) = kernels.by_source.values()
    assert np.array_equal(kernel.L, build_negative_kernels(cands, x, comm, k=2).by_source[2].L)


def test_the_record_carries_the_candidates_and_k_of_its_build():
    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)
    cands = {0: make_candidates([2, 4]), 1: make_candidates([3, 5, 7, 9])}
    kernels = build_negative_kernels(cands, x, comm, k=3)
    assert (kernels.candidates, kernels.k) == (cands, 3)
    assert list(kernels.by_source) == [1]
    out = draw_negative_samples(kernels, rng_for_source=np.random.default_rng)
    want = kdpp_sample_exact(kernels.by_source[1], 3, np.random.default_rng(1))
    assert out == {0: [2, 4], 1: want}


def _no_kernels(monkeypatch):
    from rwnsgcn import dpp

    def refuse(*args, **kwargs):
        raise AssertionError("a draw that cannot choose built a kernel")

    monkeypatch.setattr(dpp, "build_dpp_kernel", refuse)
    monkeypatch.setattr(dpp, "_assemble_kernels", refuse)
    monkeypatch.setattr(dpp, "kdpp_sample_exact", refuse)
    monkeypatch.setattr(dpp, "_kdpp_draws", refuse)


@pytest.mark.parametrize("jitter", [0.0, 99 * RANK_TOL, 1e-8])
def test_only_sources_with_more_than_k_candidates_choose_at_any_jitter(monkeypatch, jitter):
    from rwnsgcn import dpp

    x = np.random.default_rng(8).random((12, 4))
    x[6:9] = x[6]  # identical candidates of one community: rank one at jitter 0
    comm = dpp.CommunityAssignment(
        labels=np.array([0] * 6 + [1] * 3 + [0] * 3), community_features=np.eye(4)[:2]
    )
    cands = {
        0: make_candidates([]),
        1: make_candidates([5, 3]),
        2: make_candidates([8, 6, 7]),
        3: make_candidates([11, 1, 4, 9]),
    }
    assert build_dpp_kernel(2, cands[2], x, comm, jitter=0.0).rank == 1
    assembled = []
    assemble = dpp._assemble_kernels

    def recording(sources, *args):
        assembled.append(list(sources))
        return assemble(sources, *args)

    def rngs(src):
        assert src == 3, f"source {src} cannot choose but asked for a generator"
        return np.random.default_rng(src)

    monkeypatch.setattr(dpp, "_assemble_kernels", recording)
    kernels = build_negative_kernels(cands, x, comm, k=3, jitter=jitter)
    assert assembled == [[3]] and list(kernels.by_source) == [3]
    out = draw_negative_samples(kernels, rng_for_source=rngs)
    assert out == {
        0: [], 1: [3, 5], 2: [6, 7, 8],
        3: kdpp_sample_exact(kernels.by_source[3], 3, np.random.default_rng(3)),
    }


def test_exact_draw_of_every_candidate_skips_when_jitter_guarantees_rank(monkeypatch):
    from rwnsgcn.dpp import RANK_TOL, build_negative_kernels, draw_negative_samples

    g, x, comm = _scenario(seed=2)
    cands = {0: make_candidates([9, 3, 7])}
    # the skipped draw is the one the sampler would have made
    kernel = build_dpp_kernel(0, cands[0], x, comm, jitter=100 * RANK_TOL)
    assert kdpp_sample_exact(kernel, 3, np.random.default_rng(0)) == [3, 7, 9]

    def no_rng(src):
        raise AssertionError("a draw that cannot choose asked for a generator")

    _no_kernels(monkeypatch)
    kernels = build_negative_kernels(cands, x, comm, k=3, jitter=100 * RANK_TOL)
    assert kernels.by_source == {}
    out = draw_negative_samples(kernels, rng_for_source=no_rng)
    assert out == {0: [3, 7, 9]}


# ------------------------------------------------------ lockstep draws


def per_source_kdpp_sample_exact(kernel, k, rng):
    """The exact sampler as one draw at a time, kept as the oracle of the
    lockstep draws: same picks and the same generator calls."""
    n = len(kernel.items)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds candidate count {n}")
    eigvecs, rank = kernel.eigvecs, kernel.rank
    if k > rank:
        warnings.warn(
            f"k={k} exceeds numerical rank {rank}; clamping", stacklevel=2
        )
        k = rank
        if k == 0:
            return []

    marg = per_kernel_selection(kernel.eigvals, k)
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


def _per_source_draws(kernels, rngs):
    """``draw_negative_samples`` as one oracle draw per source, in id order.
    A source draws with the oracle sampler when it has a kernel in
    ``kernels.by_source`` and takes every candidate otherwise."""
    k, out = kernels.k, {}
    for src, cs in sorted(kernels.candidates.items()):
        if src in kernels.by_source:
            out[src] = per_source_kdpp_sample_exact(kernels.by_source[src], min(k, len(cs)), rngs[src])
        else:
            out[src] = sorted(cs.nodes())
    return out


def _assert_draws_match(kernels, seeds, draws=2):
    """Lockstep and per-source draws agree in picks, generator end states
    and rank warnings, over ``draws`` redraws from the same generators.
    Returns the number of rank warnings of the last draw."""
    cands = kernels.candidates
    lock = {src: np.random.default_rng(seeds(src)) for src in cands}
    single = {src: np.random.default_rng(seeds(src)) for src in cands}
    for _ in range(draws):
        with warnings.catch_warnings(record=True) as lock_warned:
            warnings.simplefilter("always")
            got = draw_negative_samples(kernels, rng_for_source=lock.__getitem__)
        with warnings.catch_warnings(record=True) as single_warned:
            warnings.simplefilter("always")
            want = _per_source_draws(kernels, single)
        assert list(got) == list(want)
        assert got == want
        assert [str(w.message) for w in lock_warned] == [str(w.message) for w in single_warned]
    for src in cands:
        assert lock[src].bit_generator.state == single[src].bit_generator.state
    return len(lock_warned)


def _mixed_kernels(seed, sources=150):
    """Sources over 2-7 candidates whose kernels take every rank 0..n,
    built stacked by candidate count."""
    rng = np.random.default_rng(seed)
    cands, stacks = {}, {}
    for src in rng.permutation(3 * sources)[:sources]:
        n = int(rng.integers(2, 8))
        rank = int(rng.integers(0, n + 1))
        b = rng.normal(size=(n, rank)) * rng.choice([1e-2, 1.0, 1e2])
        items = [int(v) for v in rng.choice(500, size=n, replace=False)]
        cands[int(src)] = make_candidates(items)
        stacks.setdefault(n, []).append((int(src), items, b @ b.T))
    kernels = {}
    for members in stacks.values():
        srcs, item_lists, matrices = map(list, zip(*members))
        kernels.update(zip(srcs, _stacked_kernels(item_lists, np.array(matrices))))
    return cands, kernels


@pytest.mark.parametrize("k", range(1, 8))
def test_lockstep_draws_match_per_source_draws_on_mixed_groups(k):
    for seed in range(3):
        cands, kernels = _mixed_kernels(seed)
        ranks = [kernel.rank for kernel in kernels.values()]
        assert set(ranks) == set(range(8))
        # every source has a kernel, so every source chooses, k >= n
        # included, and low ranks clamp
        record = NegativeKernels(cands, k, kernels)
        warned = _assert_draws_match(record, lambda src: [seed, k, src])
        assert warned == sum(min(k, len(cands[s])) > kernels[s].rank for s in cands)
        assert warned > 0


@pytest.mark.parametrize("jitter", [0.0, 99 * RANK_TOL, 1e-8])
def test_lockstep_draws_match_per_source_draws_on_assembled_kernels(jitter):
    g, x, comm = _scenario(seed=6, n_nodes=40, feat=5)
    x[20:30] = x[20]  # identical candidates: rank-deficient without jitter
    comm.labels[20:30] = comm.labels[20]
    cands = {}
    for src in range(40):
        pool = list(range(20, 30)) if src % 3 == 0 else [v for v in range(40) if v != src]
        size = 2 + src % 6
        cands[src] = make_candidates([pool[(7 * src + 3 * t) % len(pool)] for t in range(size)])
    for k in (2, 3, 5):
        kernels = build_negative_kernels(cands, x, comm, k=k, jitter=jitter)
        warned = _assert_draws_match(kernels, lambda src: [k, src], draws=3)
        assert (warned > 0) == (jitter == 0.0)


def test_shared_generator_is_rejected_naming_both_sources():
    cands, kernels = _mixed_kernels(4, sources=20)
    first, second = sorted(cands)[3], sorted(cands)[11]
    gens = {src: np.random.default_rng(src) for src in cands}
    gens[second] = gens[first]
    before = {src: gen.bit_generator.state for src, gen in gens.items()}
    with pytest.raises(ValueError, match=f"sources {first} and {second} share one generator"):
        draw_negative_samples(
            NegativeKernels(cands, 2, kernels), rng_for_source=gens.__getitem__
        )
    assert {src: gen.bit_generator.state for src, gen in gens.items()} == before


class _Uniforms:
    """A generator stand-in that returns the given uniforms in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_pick_at_a_cdf_tie_goes_right_like_searchsorted():
    # rank one, eigenvector (1, 1)/sqrt(2): the cdf is exactly [0.5, 1.0]
    cands = {0: make_candidates([10, 11])}
    kernels = {0: make_kernel(np.ones((2, 2)), items=[10, 11])}
    assert per_source_kdpp_sample_exact(kernels[0], 1, _Uniforms([0.0, 0.5])) == [11]
    got = draw_negative_samples(
        NegativeKernels(cands, 1, kernels),
        rng_for_source=lambda src: _Uniforms([0.0, 0.5]),
    )
    assert got == {0: [11]}


def test_lockstep_draws_reject_k_below_one():
    cands, kernels = _mixed_kernels(5, sources=10)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be positive"):
            draw_negative_samples(
                NegativeKernels(cands, k, kernels), rng_for_source=np.random.default_rng
            )


def test_forced_sources_may_share_a_generator():
    cands = {s: make_candidates([s + 1, s + 2]) for s in range(4)}
    shared = np.random.default_rng(0)
    out = draw_negative_samples(
        NegativeKernels(cands, 3, {}), rng_for_source=lambda src: shared
    )
    assert out == {s: [s + 1, s + 2] for s in range(4)}


@pytest.mark.parametrize("seed", [501, 601])
def test_lockstep_draws_match_per_source_draws_on_the_benchmark_graph(bench_gen, seed):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["citeseer"], seed)
    ds = load_content_cites(content.decode(), cites.decode())
    cands = score_all_sources(ds.graph, range(ds.num_nodes), k_per_level=2)
    comm = label_propagation(ds.graph, features=ds.features, seed=derive_seed(seed, "labelprop"))
    kernels = build_negative_kernels(cands, ds.features, comm, k=3)
    assert len(kernels.by_source) > ds.num_nodes // 2  # most draws really choose
    # the first draw, then the redraws of resample_every=15 over 60 epochs
    for tags in [(), ("epoch", 15), ("epoch", 30), ("epoch", 45)]:
        lock = {src: substream(seed, "dpp", src, *tags) for src in kernels.by_source}
        single = {src: substream(seed, "dpp", src, *tags) for src in kernels.by_source}
        got = draw_negative_samples(kernels, rng_for_source=lock.__getitem__)
        assert got == _per_source_draws(kernels, single)
        for src in kernels.by_source:
            assert lock[src].bit_generator.state == single[src].bit_generator.state


# ------------------------------------------------------ lockstep assembly


def _unit_rows_per_kernel(a):
    """Rows scaled to unit L2 norm; zero-norm rows stay zero."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    na = np.linalg.norm(a, axis=1)[:, None]
    return np.where(na > 0, a / np.where(na > 0, na, 1.0), 0.0)


def per_source_kernel_L(source, items, features, comm, jitter=1e-8):
    """The kernel as it was assembled one source at a time, every row
    block normalised inside the kernel: the oracle of the lockstep build.
    Sparse features are read through the dense form of the kernel's rows."""
    rows = features[[source] + items]
    rows = _unit_rows_per_kernel(rows.toarray() if sp.issparse(rows) else rows)
    x, src = rows[1:], rows[:1]
    cf = _unit_rows_per_kernel(comm.community_features[comm.labels[items]])
    s_node = x @ x.copy().T
    s_com = cf @ cf.copy().T
    q = (src @ cf.T)[0]
    quality = np.diag(q)
    core = quality @ (s_com @ s_com.T) @ quality.T
    L = core * np.exp(s_node - 1.0)
    L = 0.5 * (L + L.T)
    L += jitter * np.eye(len(items))
    return L


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_lockstep_kernels_match(cands, features, comm, k=3, jitter=1e-8):
    """Kernels and spectra (built stacked by candidate count) equal the
    one-source-at-a-time ones bit for bit, and a draw from them runs."""
    record = build_negative_kernels(cands, features, comm, k=k, jitter=jitter)
    kernels = record.by_source
    assert sorted(kernels) == [s for s in sorted(cands) if len(cands[s]) > k]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicated candidates may clamp
        draw_negative_samples(record, rng_for_source=lambda src: np.random.default_rng([src]))
    for src, kernel in kernels.items():
        L = per_source_kernel_L(src, cands[src].nodes(), features, comm, jitter)
        assert _same_bits(kernel.L, L), src
        eigvals, eigvecs = np.linalg.eigh(L)
        eigvals = np.maximum(eigvals, 0.0)
        assert _same_bits(kernel.eigvals, eigvals) and _same_bits(kernel.eigvecs, eigvecs), src
        assert kernel.rank == int(np.sum(eigvals > RANK_TOL))
    return kernels


@pytest.mark.parametrize("seed", [501, 601])
def test_lockstep_kernels_match_per_source_kernels_on_the_benchmark_graph(bench_gen, seed):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["citeseer"], seed)
    ds = load_content_cites(content.decode(), cites.decode())
    cands = score_all_sources(ds.graph, range(ds.num_nodes), k_per_level=2)
    comm = label_propagation(ds.graph, features=ds.features, seed=derive_seed(seed, "labelprop"))
    kernels = _assert_lockstep_kernels_match(cands, ds.features, comm)
    assert len(kernels) > ds.num_nodes // 2


def _random_assembly(seed, n_nodes=30, feat=40, communities=5):
    from rwnsgcn.dpp import CommunityAssignment

    rng = np.random.default_rng(seed)
    x = (rng.random((n_nodes, feat)) < 0.2) * rng.random((n_nodes, feat))
    labels = rng.integers(0, communities, size=n_nodes)
    cf = rng.random((communities, feat))
    comm = CommunityAssignment(labels=labels, community_features=cf)
    # candidate counts 4, 5 and 6 in one call, and forced sources besides
    cands = {
        s: make_candidates([int(v) for v in rng.choice(n_nodes, size=[2, 3, 4, 5, 6][s % 5])])
        for s in range(n_nodes)
    }
    return x, comm, cands


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_kernels_match_on_duplicated_candidates(seed):
    x, comm, cands = _random_assembly(seed)
    # rng.choice above draws with replacement; make sure repeats are in
    cands[4] = make_candidates([7, 7, 9, 7, 11])
    assert any(len(set(cs.nodes())) < len(cs) for cs in cands.values())
    _assert_lockstep_kernels_match(cands, x, comm)


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_kernels_match_on_zero_norm_rows(seed):
    x, comm, cands = _random_assembly(seed)
    x[[4, 9]] = 0.0  # two sources with zero-norm rows
    x[[cands[3].nodes()[0], cands[8].nodes()[1]]] = -0.0  # zero-norm candidates
    _assert_lockstep_kernels_match(cands, x, comm)


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_kernels_match_with_an_all_zero_community_row(seed):
    x, comm, cands = _random_assembly(seed)
    comm.community_features[int(comm.labels[cands[3].nodes()[0]])] = 0.0
    _assert_lockstep_kernels_match(cands, x, comm)


def test_lockstep_kernels_keep_the_one_source_call():
    x, comm, cands = _random_assembly(11)
    kernels = build_negative_kernels(cands, x, comm, k=3)
    for src, kernel in kernels.by_source.items():
        single = build_dpp_kernel(src, cands[src], x, comm)
        assert single.items == kernel.items and _same_bits(single.L, kernel.L)


def test_lockstep_build_memory_stays_below_half_the_features(bench_gen):
    import tracemalloc

    seed = 501
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["citeseer"], seed)
    ds = load_content_cites(content.decode(), cites.decode())
    cands = score_all_sources(ds.graph, range(ds.num_nodes), k_per_level=2)
    comm = label_propagation(ds.graph, features=ds.features, seed=derive_seed(seed, "labelprop"))
    tracemalloc.start()
    try:
        kernels = build_negative_kernels(cands, ds.features, comm, k=3)
        draw_negative_samples(kernels, rng_for_source=lambda src: np.random.default_rng([src]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kernels.by_source) > ds.num_nodes // 2
    # a normalised dense copy of every feature row alone would be n * f * 8 bytes
    dense_nbytes = ds.num_nodes * ds.feature_dim * 8
    assert peak < 0.5 * dense_nbytes


# ------------------------------------------ selection tables, unusable input


def _assert_tables_match_oracle(kernels):
    """Each stacked table equals the per-kernel oracle bit for bit, NaN
    where the oracle has None, at every k: an entry does not depend on the
    k it was computed for."""
    for kernel in kernels:
        n = len(kernel.items)
        assert kernel.select.shape == (n + 1, n + 1)
        for k in range(1, n + 1):
            want = np.array(per_kernel_selection(kernel.eigvals, k), dtype=np.float64)
            assert _same_bits(kernel.select[: k + 1], want), (kernel.items, k)


def test_stacked_tables_match_the_per_kernel_oracle_on_mixed_ranks():
    for seed in range(3):
        _, kernels = _mixed_kernels(seed)
        assert {kernel.rank for kernel in kernels.values()} == set(range(8))
        _assert_tables_match_oracle(kernels.values())


@pytest.mark.parametrize("seed", [501, 601])
def test_stacked_tables_match_the_per_kernel_oracle_on_the_benchmark_graph(bench_gen, seed):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["citeseer"], seed)
    ds = load_content_cites(content.decode(), cites.decode())
    cands = score_all_sources(ds.graph, range(ds.num_nodes), k_per_level=2)
    comm = label_propagation(ds.graph, features=ds.features, seed=derive_seed(seed, "labelprop"))
    kernels = build_negative_kernels(cands, ds.features, comm, k=3).by_source
    assert len(kernels) > ds.num_nodes // 2
    _assert_tables_match_oracle(kernels.values())


def test_rank_clamp_warning_points_at_the_caller():
    kernel = make_kernel(np.diag([1.0, 0.0, 0.0]), items=[4, 5, 6])
    with pytest.warns(UserWarning, match="rank") as direct:
        kdpp_sample_exact(kernel, 2, np.random.default_rng(0))
    with pytest.warns(UserWarning, match="rank") as drawn:
        draw_negative_samples(
            NegativeKernels({0: make_candidates([4, 5, 6])}, 2, {0: kernel}),
            rng_for_source=np.random.default_rng,
        )
    assert [w.filename for w in direct] == [__file__]
    assert [w.filename for w in drawn] == [__file__]


@pytest.mark.parametrize("jitter", [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")])
def test_unusable_jitter_is_rejected_before_communities_are_found(jitter):
    # -1.0 leaves the kernel indefinite, and a k=2 draw shrank to one pick
    # after a rank-clamp warning; nan failed only in eigh
    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)

    def communities():
        raise AssertionError("communities found for an unusable jitter")

    with pytest.raises(ValueError, match=f"^jitter must be finite and at least 0, got {jitter}$"):
        build_negative_kernels(
            {0: make_candidates([2, 4, 6])}, x, communities, k=2, jitter=jitter
        )


@pytest.mark.parametrize("jitter", [-1.0, float("nan"), float("inf")])
def test_one_kernel_build_rejects_an_unusable_jitter_before_eigh(monkeypatch, jitter):
    # nan failed late, with LinAlgError from the stacked eigh
    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh ran for an unusable jitter")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(ValueError, match=f"^jitter must be finite and at least 0, got {jitter}$"):
        build_dpp_kernel(0, make_candidates([2, 4, 6]), x, comm, jitter=jitter)
