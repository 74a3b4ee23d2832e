import itertools
import warnings

import numpy as np
import pytest

from rwnsgcn.dpp import (
    build_dpp_kernel,
    build_negative_graph,
    cosine_rows,
    dpp_map_greedy,
    kdpp_sample_exact,
    label_propagation,
)
from rwnsgcn.graph import build_graph
from rwnsgcn.scoring import CandidateSet

from conftest import random_graph


def make_candidates(source, nodes, layer=2):
    return CandidateSet(
        source=source,
        chosen=[(int(n), 0.0, layer) for n in nodes],
        levels_used=[layer],
    )


def make_kernel(L, items=None, jitter=0.0):
    """Wrap a raw PSD matrix for the samplers."""
    from rwnsgcn.dpp import DppKernel

    n = L.shape[0]
    items = list(range(n)) if items is None else items
    return DppKernel(
        source=-1,
        items=items,
        L=np.asarray(L, dtype=np.float64),
        S_node=np.eye(n),
        S_com=np.eye(n),
        Q=np.eye(n),
        jitter=jitter,
    )


def enumerate_kdpp(L, k):
    """Exact k-subset probabilities from principal minors."""
    n = L.shape[0]
    dets = {}
    for subset in itertools.combinations(range(n), k):
        sub = L[np.ix_(subset, subset)]
        dets[subset] = max(np.linalg.det(sub), 0.0)
    total = sum(dets.values())
    return {s: d / total for s, d in dets.items()}


# ------------------------------------------------------------- communities


def test_two_triangles_two_communities():
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    comm = label_propagation(g, seed=0)
    assert comm.num_communities == 2
    assert len(set(comm.labels[:3])) == 1
    assert len(set(comm.labels[3:])) == 1


def test_single_edge_one_community():
    g = build_graph(2, [(0, 1, 1.0)])
    comm = label_propagation(g, seed=3)
    assert comm.num_communities == 1


def test_empty_graph_singletons():
    g = build_graph(4, [])
    comm = label_propagation(g, seed=0)
    assert comm.num_communities == 4
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
    assert comm.num_communities == 3


def test_community_features_are_member_means():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    x = np.arange(8.0).reshape(4, 2)
    comm = label_propagation(g, features=x, seed=0)
    for c in range(comm.num_communities):
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
    cand = make_candidates(0, [5])
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
    cand = make_candidates(0, [3, 4])
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
        iterations_run=1,
    )
    cand = make_candidates(0, [1, 2])
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
                int(rng.integers(0, 15)), make_candidates(0, nodes), x, comm, jitter=0.0
            )
            assert np.allclose(kernel.L, kernel.L.T, atol=1e-10)
            assert np.linalg.eigvalsh(kernel.L).min() >= -1e-8
            trials += 1
    assert trials == 200


def test_kernel_snode_diagonal_is_one():
    g, x, comm = _scenario(seed=5)
    kernel = build_dpp_kernel(0, make_candidates(0, [2, 7, 9]), x, comm)
    assert np.allclose(np.diag(kernel.S_node), 1.0, atol=1e-9)


def test_kernel_empty_candidates_rejected():
    g, x, comm = _scenario(seed=2)
    with pytest.raises(ValueError, match="empty"):
        build_dpp_kernel(0, make_candidates(0, []), x, comm)


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
    rng = np.random.default_rng(11)
    counts = {s: 0 for s in expected}
    n_draws = 40000
    for _ in range(n_draws):
        s = tuple(kdpp_sample_exact(kernel, 2, rng))
        counts[s] += 1
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


# ------------------------------------------------------------ greedy picker


def test_greedy_diag_picks_largest():
    kernel = make_kernel(np.diag([3.0, 2.0, 1.0]))
    assert dpp_map_greedy(kernel, 2) == [0, 1]


def test_greedy_rank_one_still_returns_k():
    L = np.ones((2, 2)) + 1e-8 * np.eye(2)
    kernel = make_kernel(L)
    ids, gains = dpp_map_greedy(kernel, 2, return_gains=True)
    assert ids == [0, 1]
    assert gains[1] < gains[0] - 5  # second pick adds ~zero determinant mass


def test_greedy_k_equals_n_id_order():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    kernel = make_kernel(b @ b.T + np.eye(4))
    assert dpp_map_greedy(kernel, 4) == [0, 1, 2, 3]


def test_greedy_tie_prefers_smaller_id():
    kernel = make_kernel(np.diag([1.0, 1.0, 1.0]))
    assert dpp_map_greedy(kernel, 2) == [0, 1]


def test_greedy_matches_enumeration_argmax_first_pick():
    rng = np.random.default_rng(19)
    b = rng.normal(size=(5, 5))
    L = b @ b.T + 0.2 * np.eye(5)
    kernel = make_kernel(L)
    first = dpp_map_greedy(kernel, 1)[0]
    assert first == int(np.argmax(np.diag(L)))


# ------------------------------------------------- duplicated-item diversity


def test_duplicate_item_coselection_probability_vanishes():
    g, x, comm = _scenario(seed=4)
    # duplicate node 3 in the candidate list
    cand = CandidateSet(
        source=0,
        chosen=[(3, 0.0, 2), (3, 0.0, 3), (7, 0.0, 4)],
        levels_used=[2, 3, 4],
    )
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

        comm = CommunityAssignment(labels=labels, community_features=cf, iterations_run=1)
        items = [int(v) for v in rng.choice(n_nodes, size=int(rng.integers(1, 7)), replace=False)]
        src = int(rng.integers(0, n_nodes))
        kernel = build_dpp_kernel(src, make_candidates(src, items), x, comm)
        cfi = cf[labels[items]]
        assert np.array_equal(kernel.S_node, cosine_rows(x[items], x[items]))
        assert np.array_equal(kernel.S_com, cosine_rows(cfi, cfi))
        assert np.array_equal(kernel.Q, np.diag(cosine_rows(x[src][None, :], cfi)[0]))


def _redraws_match(make, k, draws=6):
    """Draws from one reused kernel equal draws from fresh kernels, and
    leave the generator in the same state."""
    reused = make()
    rng_a, rng_b = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(draws):
        assert kdpp_sample_exact(reused, k, rng_a) == kdpp_sample_exact(make(), k, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _kdpp_reference(L, k, rng):
    """The sampler recomputing everything per draw: eigh, polynomial
    table, Generator.choice and np.delete (indices, not node ids)."""
    from rwnsgcn.dpp import RANK_TOL, _elem_sympoly

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
        cand = make_candidates(0, [3, 5, 8, 11, 14][: 3 + seed % 3])
        for k in range(1, len(cand) + 1):
            _redraws_match(lambda: build_dpp_kernel(0, cand, x, comm), k)


def test_reused_rank_deficient_kernel_clamps_like_fresh():
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    x = np.ones((6, 4))
    comm = label_propagation(g, features=x, seed=0)
    cand = make_candidates(0, [3, 4, 5])
    with pytest.warns(UserWarning, match="rank"):
        _redraws_match(lambda: build_dpp_kernel(0, cand, x, comm, jitter=0.0), 2)


def test_kernels_built_once_give_the_draws_of_rebuilt_kernels():
    from rwnsgcn.dpp import build_negative_kernels, draw_negative_samples

    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)
    cands = {s: make_candidates(s, [(s + d) % 15 for d in (2, 5, 7, 9)]) for s in range(6)}
    cands[6] = make_candidates(6, [])
    kernels = build_negative_kernels(cands, x, comm, k=2)
    assert sorted(kernels) == list(range(6))
    for tag in range(3):
        def rngs(src):
            return np.random.default_rng([tag, src])

        rebuilt = build_negative_kernels(cands, x, comm, k=2)
        fresh = draw_negative_samples(cands, rebuilt, k=2, rng_for_source=rngs)
        assert draw_negative_samples(cands, kernels, k=2, rng_for_source=rngs) == fresh
        assert fresh[6] == []


def test_kernel_from_other_candidates_rejected():
    from rwnsgcn.dpp import build_negative_kernels, draw_negative_samples

    g, x, comm = _scenario(seed=3, n_nodes=15, feat=5)
    kernels = build_negative_kernels({0: make_candidates(0, [2, 4, 6])}, x, comm, k=2)
    with pytest.raises(ValueError, match="other candidates"):
        draw_negative_samples(
            {0: make_candidates(0, [2, 4, 7])}, kernels, k=2,
            rng_for_source=np.random.default_rng,
        )


def _no_kernels(monkeypatch):
    from rwnsgcn import dpp

    def refuse(*args, **kwargs):
        raise AssertionError("a draw that cannot choose built a kernel")

    monkeypatch.setattr(dpp, "build_dpp_kernel", refuse)
    monkeypatch.setattr(dpp, "kdpp_sample_exact", refuse)
    monkeypatch.setattr(dpp, "dpp_map_greedy", refuse)


@pytest.mark.parametrize("jitter", [0.0, 1e-8])
def test_greedy_draw_of_every_candidate_builds_no_kernel(monkeypatch, jitter):
    from rwnsgcn.dpp import build_negative_kernels, draw_negative_samples

    g, x, comm = _scenario(seed=2)
    cands = {0: make_candidates(0, [9, 3, 7]), 1: make_candidates(1, [4])}
    _no_kernels(monkeypatch)
    kernels = build_negative_kernels(cands, x, comm, k=3, method="greedy", jitter=jitter)
    assert kernels == {}
    out = draw_negative_samples(cands, kernels, k=3, method="greedy", jitter=jitter)
    assert out == {0: [3, 7, 9], 1: [4]}


def test_exact_draw_of_every_candidate_skips_when_jitter_guarantees_rank(monkeypatch):
    from rwnsgcn.dpp import RANK_TOL, build_negative_kernels, draw_negative_samples

    g, x, comm = _scenario(seed=2)
    cands = {0: make_candidates(0, [9, 3, 7])}
    # the skipped draw is the one the sampler would have made
    kernel = build_dpp_kernel(0, cands[0], x, comm, jitter=100 * RANK_TOL)
    assert kdpp_sample_exact(kernel, 3, np.random.default_rng(0)) == [3, 7, 9]

    def no_rng(src):
        raise AssertionError("a draw that cannot choose asked for a generator")

    _no_kernels(monkeypatch)
    kernels = build_negative_kernels(cands, x, comm, k=3, jitter=100 * RANK_TOL)
    assert kernels == {}
    out = draw_negative_samples(cands, kernels, k=3, jitter=100 * RANK_TOL, rng_for_source=no_rng)
    assert out == {0: [3, 7, 9]}


def test_exact_draw_below_jitter_bound_still_warns_and_clamps():
    from rwnsgcn.dpp import RANK_TOL, build_negative_kernels, draw_negative_samples

    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    x = np.ones((6, 4))  # identical candidates: rank one without jitter
    comm = label_propagation(g, features=x, seed=0)
    cands = {0: make_candidates(0, [3, 4])}
    assert list(build_negative_kernels(cands, x, comm, k=2, jitter=99 * RANK_TOL)) == [0]
    kernels = build_negative_kernels(cands, x, comm, k=2, jitter=0.0)
    with pytest.warns(UserWarning, match="rank"):
        out = draw_negative_samples(
            cands, kernels, k=2, jitter=0.0, rng_for_source=np.random.default_rng
        )
    assert len(out[0]) == 1
