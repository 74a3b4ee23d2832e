import numpy as np
import pytest

from rwnsgcn.graph import build_graph, transition_operator
from rwnsgcn.scoring import (
    bfs_layers,
    combined_scores,
    pagerank_scores,
    rwr_scores,
    score_all_sources,
    select_candidates,
)

from conftest import floyd_warshall, random_graph


def path_graph(n):
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def triangle():
    return build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def dense_rwr(g, source, alpha):
    p = transition_operator(g).matrix.toarray()
    n = g.num_nodes
    e = np.zeros(n)
    e[source] = 1.0
    return (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * p.T, e)


def dense_pagerank(g, alpha):
    # no dangling nodes assumed
    p = transition_operator(g).matrix.toarray()
    n = g.num_nodes
    return np.linalg.solve(np.eye(n) - alpha * p.T, (1 - alpha) * np.ones(n) / n)


# ---------------------------------------------------------------- bfs_layers


def test_layers_on_path():
    layers = bfs_layers(path_graph(5), 0, 4)
    assert {l: list(v) for l, v in layers.layers.items()} == {
        1: [1],
        2: [2],
        3: [3],
        4: [4],
    }


def test_layers_triangle_with_empty_level():
    layers = bfs_layers(triangle(), 0, 2)
    assert sorted(layers.layers[1]) == [1, 2]
    assert layers.layers[2].size == 0


def test_layers_match_floyd_warshall():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, 0.12)
        dists = floyd_warshall(g)
        src = int(rng.integers(0, n))
        l_max = int(rng.integers(1, 7))
        layers = bfs_layers(g, src, l_max)
        for l in range(1, l_max + 1):
            expected = np.flatnonzero(dists[src] == l)
            assert np.array_equal(np.sort(layers.layers[l]), expected)


# ----------------------------------------------------------------- rwr / pgr


def test_rwr_alpha_zero_is_indicator():
    g = path_graph(4)
    r = rwr_scores(g, 2, alpha=0.0)
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.array_equal(r.values, expected)


def test_rwr_single_edge_closed_form():
    g = build_graph(2, [(0, 1, 1.0)])
    r = rwr_scores(g, 0, alpha=0.5)
    assert np.allclose(r.values, [2 / 3, 1 / 3], atol=1e-7)


def test_rwr_triangle_symmetry():
    r = rwr_scores(triangle(), 0, alpha=0.7)
    assert r.values[1] == pytest.approx(r.values[2], abs=1e-12)


def test_rwr_matches_dense_solve():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, 0.2, weighted=True)
        src = int(rng.integers(0, n))
        alpha = float(rng.uniform(0.0, 0.95))
        r = rwr_scores(g, src, alpha, tol=1e-12)
        assert np.max(np.abs(r.values - dense_rwr(g, src, alpha))) < 1e-6
        assert np.all(r.values >= 0)


def test_rwr_sums_to_one_on_connected_graphs():
    g = path_graph(9)
    for alpha in (0.1, 0.5, 0.85):
        r = rwr_scores(g, 4, alpha)
        assert r.values.sum() == pytest.approx(1.0, abs=1e-6)


def test_rwr_source_score_monotone_in_alpha():
    rng = np.random.default_rng(4)
    count = 0
    while count < 15:
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, 0.3)
        if np.any(g.degrees == 0) or np.isinf(floyd_warshall(g)).any():
            continue  # need a connected graph
        count += 1
        src = int(rng.integers(0, n))
        alphas = np.linspace(0.0, 0.9, 10)
        vals = [dense_rwr(g, src, a)[src] for a in alphas]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))


def test_rwr_nonconvergence_reports_residual():
    from rwnsgcn.scoring import ConvergenceError

    g = path_graph(30)
    with pytest.raises(ConvergenceError, match="residual"):
        rwr_scores(g, 0, alpha=0.99, tol=1e-14, max_iter=3)


def test_pagerank_triangle_uniform_both_modes():
    for mode in ("converged", "two-step"):
        r = pagerank_scores(triangle(), alpha=0.85, mode=mode)
        assert np.allclose(r.values, 1 / 3, atol=1e-9)


def test_pagerank_single_edge_half():
    g = build_graph(2, [(0, 1, 1.0)])
    r = pagerank_scores(g, alpha=0.6)
    assert np.allclose(r.values, 0.5, atol=1e-8)


def test_pagerank_path_center_beats_ends_and_matches_dense():
    g = path_graph(3)
    r = pagerank_scores(g, alpha=0.85, tol=1e-12)
    assert r.values[1] > r.values[0]
    assert r.values[1] > r.values[2]
    assert np.max(np.abs(r.values - dense_pagerank(g, 0.85))) < 1e-6


def test_pagerank_sums_to_one_with_isolated_nodes():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 1.0)])  # nodes 3, 4 isolated
    r = pagerank_scores(g, alpha=0.85)
    assert r.values.sum() == pytest.approx(1.0, abs=1e-6)


def test_pagerank_relabel_invariance():
    rng = np.random.default_rng(8)
    n = 12
    g = random_graph(rng, n, 0.3)
    perm = rng.permutation(n)
    remapped = build_graph(n, [(perm[u], perm[v], w) for u, v, w in g.edges()])
    base = pagerank_scores(g, 0.85, tol=1e-12).values
    relab = pagerank_scores(remapped, 0.85, tol=1e-12).values
    assert np.allclose(relab[perm], base, atol=1e-9)


# ----------------------------------------------------------------- combining


def test_combined_beta_extremes():
    g = path_graph(4)
    r = rwr_scores(g, 0, 0.5)
    p = pagerank_scores(g, 0.85)
    assert np.array_equal(combined_scores(r, p, 1.0).values, r.values)
    assert np.array_equal(combined_scores(r, p, 0.0).values, p.values)


def test_combined_arithmetic():
    from rwnsgcn.scoring import ScoreVector

    a = ScoreVector(values=np.array([0.6, 0.4]), kind="rwr")
    b = ScoreVector(values=np.array([0.2, 0.8]), kind="pgr")
    assert np.allclose(combined_scores(a, b, 0.5).values, [0.4, 0.6])


def test_combined_preserves_simplex():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 0.3)
    r = rwr_scores(g, 3, 0.85)
    p = pagerank_scores(g, 0.85)
    for beta in (0.0, 0.25, 0.5, 0.9, 1.0):
        s = combined_scores(r, p, beta)
        assert s.values.min() >= 0
        assert s.values.sum() == pytest.approx(1.0, abs=1e-6)


def test_combined_length_mismatch():
    from rwnsgcn.scoring import ScoreVector

    a = ScoreVector(values=np.zeros(3), kind="rwr")
    b = ScoreVector(values=np.zeros(4), kind="pgr")
    with pytest.raises(ValueError, match="length mismatch"):
        combined_scores(a, b, 0.5)


# ----------------------------------------------------------- candidate picks


def test_select_on_path_singleton_layers():
    g = path_graph(5)
    layers = bfs_layers(g, 0, 4)
    scores = pagerank_scores(g, 0.85)
    cs = select_candidates(layers, scores, levels=(2, 3, 4), k_per_level=1)
    assert sorted(cs.nodes()) == [2, 3, 4]
    assert [layer for _, _, layer in cs.chosen] == [2, 3, 4]


def test_select_triangle_empty():
    layers = bfs_layers(triangle(), 0, 2)
    scores = pagerank_scores(triangle(), 0.85)
    cs = select_candidates(layers, scores, levels=(2,), k_per_level=1)
    assert cs.chosen == []


def test_select_tie_prefers_smaller_id():
    from rwnsgcn.scoring import ScoreVector

    # star of two length-2 paths: layer 2 = {3, 4}
    g = build_graph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)])
    layers = bfs_layers(g, 0, 2)
    scores = ScoreVector(values=np.full(5, 0.3), kind="combined")
    cs = select_candidates(layers, scores, levels=(2,), k_per_level=1)
    assert cs.nodes() == [3]


def test_select_rejects_level_one():
    g = path_graph(5)
    layers = bfs_layers(g, 0, 4)
    scores = pagerank_scores(g, 0.85)
    with pytest.raises(ValueError, match="reserved"):
        select_candidates(layers, scores, levels=(1, 2), k_per_level=1)


def test_select_never_returns_neighbors_or_source():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = random_graph(rng, n, 0.2)
        src = int(rng.integers(0, n))
        layers = bfs_layers(g, src, 5)
        scores = pagerank_scores(g, 0.85)
        cs = select_candidates(layers, scores, levels=(2, 3, 4), k_per_level=2)
        nbrs = set(g.neighbors(src).tolist())
        for node in cs.nodes():
            assert node != src
            assert node not in nbrs


# ------------------------------------------------------------- orchestration


def test_score_all_sources_empty():
    g = path_graph(4)
    assert score_all_sources(g, []) == {}


def test_score_all_sources_bounds_and_determinism():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 40, 0.1)
    out1 = score_all_sources(g, range(40), alpha=0.85, beta=0.5, l_max=5)
    out2 = score_all_sources(g, range(40), alpha=0.85, beta=0.5, l_max=5)
    assert set(out1) == set(range(40))
    for src, cs in out1.items():
        assert len(cs) <= 3  # k_per_level * |levels|
        assert cs.chosen == out2[src].chosen
