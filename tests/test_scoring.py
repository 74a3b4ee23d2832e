import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from rwnsgcn.attacks import twpa_perturb
import rwnsgcn.graph as graph_mod
from rwnsgcn.data import load_content_cites
from rwnsgcn.graph import build_graph, transition_operator
from rwnsgcn.scoring import (
    ConvergenceError,
    _transition_transpose,
    bfs_layers,
    combined_scores,
    pagerank_scores,
    rwr_scores,
    score_all_sources,
    score_picks,
    select_candidates,
)

from conftest import assert_same_bytes, floyd_warshall, random_edge_list, random_graph


def path_graph(n):
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def triangle():
    return build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def dense_rwr(g, source, alpha):
    p = transition_operator(g).toarray()
    n = g.num_nodes
    e = np.zeros(n)
    e[source] = 1.0
    return (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * p.T, e)


def dense_pagerank(g, alpha):
    # no dangling nodes assumed
    p = transition_operator(g).toarray()
    n = g.num_nodes
    return np.linalg.solve(np.eye(n) - alpha * p.T, (1 - alpha) * np.ones(n) / n)


def layer_lists(fronts, col=0):
    """The nodes of each frontier of one block column, layer 1 first."""
    return [np.flatnonzero(f[:, col]).tolist() for f in fronts]


# ---------------------------------------------------------------- bfs_layers


def test_layers_on_path():
    fronts = bfs_layers(path_graph(5), [0], 4)
    assert [f.shape for f in fronts] == [(5, 1)] * 4
    assert all(f.dtype == bool for f in fronts)
    assert layer_lists(fronts) == [[1], [2], [3], [4]]


def test_layers_triangle_with_empty_level():
    fronts = bfs_layers(triangle(), [0], 2)
    assert layer_lists(fronts) == [[1, 2], []]


def test_layers_match_floyd_warshall():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, 0.12)
        dists = floyd_warshall(g)
        sources = rng.integers(0, n, size=int(rng.integers(1, 9)))  # repeats allowed
        depth = int(rng.integers(1, 7))
        fronts = bfs_layers(g, sources, depth)
        assert len(fronts) == depth
        for l, front in enumerate(fronts, 1):
            assert np.array_equal(front.T, dists[sources] == l)


def test_empty_block_scores_nothing():
    g = path_graph(4)
    fronts = bfs_layers(g, [], 3)
    assert [f.shape for f in fronts] == [(4, 0)] * 3
    assert rwr_scores(g, [], 0.85).shape == (4, 0)
    assert select_candidates(fronts, np.empty((4, 0)), [], levels=(2, 3)) == {}


# ----------------------------------------------------------------- rwr / pgr


def test_rwr_alpha_zero_is_indicator():
    g = path_graph(4)
    r = rwr_scores(g, [2, 0], alpha=0.0)
    assert np.array_equal(r, np.eye(4)[:, [2, 0]])


def test_rwr_single_edge_closed_form():
    g = build_graph(2, [(0, 1, 1.0)])
    r = rwr_scores(g, [0, 1], alpha=0.5)
    assert np.allclose(r, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-7)


def test_rwr_triangle_symmetry():
    r = rwr_scores(triangle(), [0], alpha=0.7)[:, 0]
    assert r[1] == pytest.approx(r[2], abs=1e-12)


def test_rwr_matches_dense_solve():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, 0.2, weighted=True)
        sources = rng.integers(0, n, size=int(rng.integers(1, 9)))
        alpha = float(rng.uniform(0.0, 0.95))
        r = rwr_scores(g, sources, alpha, tol=1e-12)
        assert r.shape == (n, sources.size)
        for i, src in enumerate(sources.tolist()):
            assert np.max(np.abs(r[:, i] - dense_rwr(g, src, alpha))) < 1e-6
        assert np.all(r >= 0)


def test_rwr_sums_to_one_on_connected_graphs():
    g = path_graph(9)
    for alpha in (0.1, 0.5, 0.85):
        r = rwr_scores(g, [4, 0, 8], alpha)
        assert np.allclose(r.sum(axis=0), 1.0, atol=1e-6)


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
    g = path_graph(30)
    with pytest.raises(ConvergenceError, match="residual"):
        rwr_scores(g, [0], alpha=0.99, tol=1e-14, max_iter=3)


# max_iter=0 raised an UnboundLocalError in PageRank and reported "residual
# inf" in the restart walk; tol=nan iterated to max_iter and then reported
# "residual 0.000e+00"
BAD_WALKS = {
    "max-iter-zero": ({"max_iter": 0}, "^max_iter must be at least 1, got 0$"),
    "max-iter-below": ({"max_iter": -3}, "^max_iter must be at least 1, got -3$"),
    "max-iter-float": ({"max_iter": 10.0}, "^max_iter must be an integer, got 10.0$"),
    "max-iter-bool": ({"max_iter": True}, "^max_iter must be an integer, got True$"),
    "tol-nan": ({"tol": float("nan")}, "^tol must be finite and above 0, got nan$"),
    "tol-inf": ({"tol": float("inf")}, "^tol must be finite and above 0, got inf$"),
    "tol-zero": ({"tol": 0.0}, "^tol must be finite and above 0, got 0.0$"),
    "tol-below": ({"tol": -1e-8}, "^tol must be finite and above 0, got -1e-08$"),
    "tol-text": ({"tol": "1e-8"}, "^tol must be a real number, got '1e-8'$"),
}


@pytest.mark.parametrize("case", BAD_WALKS)
def test_walks_refuse_a_bad_tolerance_or_iteration_limit_by_name(case, monkeypatch):
    import rwnsgcn.scoring as scoring

    def unreachable(g):
        raise AssertionError("P^T was built for an unusable walk")

    monkeypatch.setattr(scoring, "_transition_transpose", unreachable)
    kwargs, message = BAD_WALKS[case]
    g = path_graph(5)
    with pytest.raises(ValueError, match=message):
        pagerank_scores(g, 0.85, **kwargs)
    with pytest.raises(ValueError, match=message):
        rwr_scores(g, [0, 3], 0.85, **kwargs)
    monkeypatch.undo()
    # numpy integers stay legal limits
    limit = {"max_iter": np.int64(200)}
    assert pagerank_scores(g, 0.85, **limit).shape == (5,)
    assert rwr_scores(g, [0], 0.85, **limit).shape == (5, 1)


def test_pagerank_triangle_uniform():
    r = pagerank_scores(triangle(), alpha=0.85)
    assert np.allclose(r, 1 / 3, atol=1e-9)


def test_pagerank_single_edge_half():
    g = build_graph(2, [(0, 1, 1.0)])
    r = pagerank_scores(g, alpha=0.6)
    assert np.allclose(r, 0.5, atol=1e-8)


def test_pagerank_path_center_beats_ends_and_matches_dense():
    g = path_graph(3)
    r = pagerank_scores(g, alpha=0.85, tol=1e-12)
    assert r[1] > r[0]
    assert r[1] > r[2]
    assert np.max(np.abs(r - dense_pagerank(g, 0.85))) < 1e-6


def test_pagerank_sums_to_one_with_isolated_nodes():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 1.0)])  # nodes 3, 4 isolated
    r = pagerank_scores(g, alpha=0.85)
    assert r.sum() == pytest.approx(1.0, abs=1e-6)


def test_pagerank_relabel_invariance():
    rng = np.random.default_rng(8)
    n = 12
    g = random_graph(rng, n, 0.3)
    perm = rng.permutation(n)
    remapped = build_graph(n, [(perm[u], perm[v], w) for u, v, w in g.edges()])
    base = pagerank_scores(g, 0.85, tol=1e-12)
    relab = pagerank_scores(remapped, 0.85, tol=1e-12)
    assert np.allclose(relab[perm], base, atol=1e-9)


# ----------------------------------------------------------------- combining


def test_combined_beta_extremes():
    g = path_graph(4)
    r = rwr_scores(g, [0, 3], 0.5)
    p = pagerank_scores(g, 0.85)
    assert np.array_equal(combined_scores(r, p, 1.0), r)
    assert np.array_equal(combined_scores(r, p, 0.0), np.column_stack([p, p]))


def test_combined_arithmetic():
    a = np.array([[0.6, 0.0], [0.4, 1.0]])
    b = np.array([0.2, 0.8])
    assert np.allclose(combined_scores(a, b, 0.5), [[0.4, 0.1], [0.6, 0.9]])


def test_combined_block_has_the_bits_of_each_column_mix():
    # every element goes through beta * rwr + (1 - beta) * pgr as one
    # source's vector did, so a block changes no bit of any column
    rng = np.random.default_rng(6)
    g = random_graph(rng, 40, 0.1, weighted=True)
    r = rwr_scores(g, rng.integers(0, 40, size=9), 0.85)
    p = pagerank_scores(g, 0.85)
    for beta in (0.0, 0.3, 0.5, 1.0):
        block = combined_scores(r, p, beta)
        for i in range(r.shape[1]):
            assert_same_bytes(block[:, i].copy(), beta * r[:, i] + (1.0 - beta) * p)


def test_combined_preserves_simplex():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 0.3)
    r = rwr_scores(g, [3, 7], 0.85)
    p = pagerank_scores(g, 0.85)
    for beta in (0.0, 0.25, 0.5, 0.9, 1.0):
        s = combined_scores(r, p, beta)
        assert s.min() >= 0
        assert np.allclose(s.sum(axis=0), 1.0, atol=1e-6)


def test_combined_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        combined_scores(np.zeros((3, 2)), np.zeros(4), 0.5)
    with pytest.raises(ValueError, match="length mismatch"):
        combined_scores(np.zeros(4), np.zeros(4), 0.5)  # one vector is not a block


# ----------------------------------------------------------- candidate picks


def pick_one(g, source, depth, scores, levels, k_per_level):
    """``select_candidates`` for a one-source block scored by ``scores``."""
    fronts = bfs_layers(g, [source], depth)
    return select_candidates(fronts, scores[:, None], [source], levels, k_per_level)[source]


def test_select_on_path_singleton_layers():
    g = path_graph(5)
    cs = pick_one(g, 0, 4, pagerank_scores(g, 0.85), (2, 3, 4), 1)
    assert cs.chosen == [(2, 2), (3, 3), (4, 4)]


def test_select_triangle_empty():
    cs = pick_one(triangle(), 0, 2, pagerank_scores(triangle(), 0.85), (2,), 1)
    assert cs.chosen == []


def test_select_tie_prefers_smaller_id():
    # star of two length-2 paths: layer 2 = {3, 4}
    g = build_graph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)])
    cs = pick_one(g, 0, 2, np.full(5, 0.3), (2,), 1)
    assert cs.nodes() == [3]


def test_select_rejects_level_one():
    g = path_graph(5)
    fronts = bfs_layers(g, [0], 4)
    scores = pagerank_scores(g, 0.85)[:, None]
    with pytest.raises(ValueError, match="reserved"):
        select_candidates(fronts, scores, [0], levels=(1, 2), k_per_level=1)
    with pytest.raises(ValueError, match="level 5 is deeper than the 4 BFS layers"):
        select_candidates(fronts, scores, [0], levels=(2, 5), k_per_level=1)
    with pytest.raises(ValueError, match="at least one layer"):
        select_candidates(fronts, scores, [0], levels=(), k_per_level=1)
    with pytest.raises(ValueError, match="k_per_level"):
        select_candidates(fronts, scores, [0], levels=(2,), k_per_level=0)
    with pytest.raises(ValueError, match="do not match"):
        select_candidates(fronts, scores, [0, 1], levels=(2,), k_per_level=1)


def test_select_never_returns_neighbors_or_source():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = random_graph(rng, n, 0.2)
        sources = np.unique(rng.integers(0, n, size=5))
        scores = np.tile(pagerank_scores(g, 0.85)[:, None], sources.size)
        picks = select_candidates(bfs_layers(g, sources, 5), scores, sources, (2, 3, 4), 2)
        assert list(picks) == sources.tolist()
        for src, cs in picks.items():
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
    out1 = score_all_sources(g, range(40), alpha=0.85, beta=0.5)
    out2 = score_all_sources(g, range(40), alpha=0.85, beta=0.5)
    assert set(out1) == set(range(40))
    for src, cs in out1.items():
        assert len(cs) <= 3  # k_per_level * |levels|
        assert cs.chosen == out2[src].chosen


def test_select_matches_sorted_oracle_on_tie_heavy_layers():
    rng = np.random.default_rng(29)
    for _ in range(3000):
        n = int(rng.integers(1, 25))
        width = int(rng.integers(1, 7))
        sources = rng.choice(1000, size=width, replace=False)  # keys only
        fronts = [np.zeros((n, width), dtype=bool) for _ in range(4)]
        layers = []  # per column: {layer: members}, layers 1..4, some empty
        for i in range(width):
            cuts = np.sort(rng.integers(0, n + 1, size=3))
            parts = np.split(rng.permutation(n), cuts)
            for l in range(1, 5):
                fronts[l - 1][parts[l - 1], i] = True
            layers.append({l: np.sort(parts[l - 1]) for l in range(1, 5)})
        vals = rng.choice([0.0, 0.125, 0.25, 0.5], size=(n, width))  # few values: many ties
        k = int(rng.integers(1, 5))
        got = select_candidates(fronts, vals, sources, levels=(4, 2, 3, 2), k_per_level=k)
        assert list(got) == sources.tolist()
        for i, src in enumerate(sources.tolist()):
            assert_same_chosen(got[src].chosen, oracle_pick(layers[i], vals[:, i], (2, 3, 4), k))


# ------------------------------------------- blocks vs single-source loops
#
# score_all_sources scores sources in blocks (one sparse x dense product
# per restart-walk iteration and per BFS level, one argmax per pick).  The
# references below are the single-source loops it replaced, kept
# verbatim; the block code must reproduce them bit for bit, so candidate
# sets never move.


def reference_bfs_layers(g, source, depth):
    seen = np.zeros(g.num_nodes, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    layers = {}
    for l in range(1, depth + 1):
        nbrs = np.unique(g.indices[g.neighbor_positions(frontier)])
        frontier = nbrs[~seen[nbrs]]
        seen[frontier] = True
        layers[l] = frontier
    return layers


def reference_rwr(g, source, alpha, tol=1e-8, max_iter=1000, _pt=None):
    pt = _transition_transpose(g) if _pt is None else _pt
    e = np.zeros(g.num_nodes)
    e[source] = 1.0
    r = e.copy()
    for _ in range(max_iter):
        r_next = alpha * (pt @ r) + (1.0 - alpha) * e
        delta = float(np.max(np.abs(r_next - r)))
        r = r_next
        if delta < tol:
            return r
    raise ConvergenceError("rwr_scores", delta, max_iter)


def oracle_pick(layers, mixed, levels, k_per_level):
    """One source's pick: each layer's members by score, ties to the smaller id."""
    return [
        (j, l)
        for l in sorted(set(levels))
        for j in sorted(layers[l].tolist(), key=lambda j: (-mixed[j], j))[:k_per_level]
    ]


def assert_same_chosen(got, want):
    assert got == want
    assert all(type(j) is int and type(l) is int for j, l in got)  # Python ints


def reference_walks(g, sources, alpha, depth):
    """Per source (layers, restart walk) of the single-source loops."""
    pt = _transition_transpose(g)
    return {
        src: (reference_bfs_layers(g, src, depth), reference_rwr(g, src, alpha, _pt=pt))
        for src in sorted({int(s) for s in sources})
    }


def reference_picks(walks, pgr, beta, levels, k_per_level):
    return {
        src: oracle_pick(layers, beta * rwr + (1.0 - beta) * pgr, levels, k_per_level)
        for src, (layers, rwr) in walks.items()
    }


def assert_matches_reference(got, want):
    assert list(got) == list(want)
    for src, chosen in want.items():
        assert_same_chosen(got[src].chosen, chosen)


def oracle_graphs():
    """~50 random graphs: isolated nodes, a zero-weight edge, one node."""
    rng = np.random.default_rng(41)
    graphs = [build_graph(1, []), build_graph(5, [(0, 1, 0.0), (1, 2, 1.0)])]
    for t in range(48):
        n = int(rng.integers(2, 150))
        edges = random_edge_list(rng, n, float(rng.uniform(0.005, 0.08)), weighted=t % 2 == 1)
        if edges and t % 3 == 0:
            u, v, _ = edges[int(rng.integers(len(edges)))]
            edges.append((u, v, 0.0))  # the last weight wins: a zero-weight edge
        graphs.append(build_graph(n, edges))
    return rng, graphs


def test_score_all_sources_matches_single_source_loops():
    rng, graphs = oracle_graphs()
    for g in graphs:
        n = g.num_nodes
        sources = rng.integers(0, n, size=int(rng.integers(65, 200))).tolist()
        alpha = float(rng.uniform(0.0, 0.95))
        beta = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(1, 4))
        got = score_all_sources(g, sources, alpha=alpha, beta=beta, k_per_level=k)
        walks = reference_walks(g, sources, alpha, 5)
        want = reference_picks(walks, pagerank_scores(g, alpha), beta, (2, 3, 4), k)
        assert_matches_reference(got, want)


# the default levels, a shallower pick, a deeper one, one level
LEVEL_GRID = [(2, 3, 4), (2, 3), (2, 3, 4, 5), (3,)]


@pytest.mark.parametrize("seed", [501, 601])
@pytest.mark.parametrize("scale", ["cora", "citeseer", "pubmed3k"])
def test_score_all_sources_matches_single_source_loops_on_the_benchmark_graphs(
    bench_gen, scale, seed
):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], seed)
    clean = load_content_cites(content.decode(), cites.decode()).graph
    clamped = twpa_perturb(clean, 0.5, seed=seed)  # clamps some weights to 0
    assert any(w == 0.0 for _, _, w in clamped.edges())
    rng = np.random.default_rng(seed)
    for g, level_grid in ((clean, LEVEL_GRID), (clamped, LEVEL_GRID[:1])):
        sources = rng.choice(g.num_nodes, size=100, replace=False)  # a full block, a partial one
        walks = reference_walks(g, sources, 0.85, 5)
        pgr = pagerank_scores(g, 0.85)
        picks = [(beta, levels) for beta in (0.0, 0.5, 1.0) for levels in level_grid]
        for k in (1, 2):
            # one walk of the graph for all of its picks, then one fill per pick
            shared = score_picks(g, sources, picks, k_per_level=k)
            assert len(shared) == len(picks)
            for (beta, levels), got in zip(picks, shared):
                want = reference_picks(walks, pgr, beta, levels, k)
                assert_matches_reference(got, want)
                got = score_all_sources(g, sources, beta=beta, levels=levels, k_per_level=k)
                assert_matches_reference(got, want)


def test_bfs_layers_and_rwr_match_single_source_loops():
    rng, graphs = oracle_graphs()
    for g in graphs:
        sources = rng.integers(0, g.num_nodes, size=int(rng.integers(1, 80)))
        depth = int(rng.integers(1, 7))
        fronts = bfs_layers(g, sources, depth)
        alpha = float(rng.uniform(0.0, 0.95))
        rwr = rwr_scores(g, sources, alpha)
        for i, src in enumerate(sources.tolist()):
            want = reference_bfs_layers(g, src, depth)
            assert layer_lists(fronts, i) == [want[l].tolist() for l in range(1, depth + 1)]
            assert np.array_equal(rwr[:, i], reference_rwr(g, src, alpha))


def test_rwr_block_columns_stop_at_their_own_iterate():
    # node 30 is isolated (stops at iteration 2); path ends need many more
    g = build_graph(31, [(i, i + 1, 1.0) for i in range(29)])
    pt = _transition_transpose(g)
    block = np.array([30, 0, 15, 29, 7])
    for alpha in (0.0, 0.5, 0.85, 0.95):
        cols = rwr_scores(g, block, alpha, _pt=pt)
        assert cols.shape == (31, block.size)
        for i, src in enumerate(block.tolist()):
            want = reference_rwr(g, src, alpha)
            assert np.array_equal(cols[:, i], want)
            assert np.array_equal(rwr_scores(g, [src], alpha)[:, 0], want)


def test_rwr_block_nonconvergence_names_largest_running_residual():
    g = build_graph(31, [(i, i + 1, 1.0) for i in range(29)])  # 30 isolated
    residuals = []
    for src in (0, 15):
        with pytest.raises(ConvergenceError) as ref:
            reference_rwr(g, src, 0.99, tol=1e-14, max_iter=3)
        residuals.append(ref.value.residual)
    for block in ([0, 15], [30, 0, 15]):
        with pytest.raises(ConvergenceError, match="rwr_scores") as err:
            rwr_scores(g, block, 0.99, tol=1e-14, max_iter=3)
        assert err.value.residual == max(residuals)


def full_check_rwr(g, sources, alpha, tol=1e-8, max_iter=1000):
    """The block walk with a full max-norm check of every running column at
    every step.  Returns the scores, each column's stopping step, and
    whether each column ran on at the first step its source row changed
    by less than ``tol``."""
    pt = _transition_transpose(g)
    sources = np.asarray(sources, dtype=np.int64)
    out = np.empty((g.num_nodes, sources.size))
    stops = np.zeros(sources.size, dtype=np.int64)
    quiet_seen = np.zeros(sources.size, dtype=bool)
    ran_on = np.zeros(sources.size, dtype=bool)
    running = np.arange(sources.size)
    r = np.zeros((g.num_nodes, sources.size))
    r[sources, running] = 1.0
    residual = np.full(sources.size, np.inf)
    for step in range(1, max_iter + 1):
        if running.size == 0:
            break
        restart = (sources[running], np.arange(running.size))
        r_next = pt @ r
        r_next *= alpha
        r_next[restart] += 1.0 - alpha
        change = np.abs(r - r_next)
        residual = change.max(axis=0)
        quiet = change[restart] < tol
        ran_on[running[quiet & ~quiet_seen[running] & (residual >= tol)]] = True
        quiet_seen[running[quiet]] = True
        done = residual < tol
        out[:, running[done]] = r_next[:, done]
        stops[running[done]] = step
        running, r = running[~done], r_next[:, ~done]
    if running.size:
        raise ConvergenceError("rwr_scores", float(residual.max()), max_iter)
    return out, stops, ran_on


def witness_graph():
    # a path 0..29, the isolated node 30 and the two-node component 31-32
    return build_graph(33, [(i, i + 1, 1.0) for i in range(29)] + [(31, 32, 1.0)])


def test_rwr_witness_check_stops_every_column_where_a_full_check_does():
    g = witness_graph()
    block = np.array([30, 0, 15, 29, 7, 31])
    for alpha in (0.0, 0.5, 0.85):
        want, stops, ran_on = full_check_rwr(g, block, alpha)
        got = rwr_scores(g, block, alpha)
        for i in range(block.size):
            assert_same_bytes(got[:, i], want[:, i])
        if alpha == 0.0:
            assert stops.tolist() == [1] * block.size
        else:
            assert stops[0] == 2  # the isolated source
            assert np.unique(stops).size >= 4  # columns stop at different steps
            # the path ends' source rows settle first: their witness passes
            # while another row still moves, so the full check runs and fails
            assert ran_on[[1, 3]].all()
    rng, graphs = oracle_graphs()
    for g in graphs:
        block = rng.integers(0, g.num_nodes, size=int(rng.integers(1, 80)))
        alpha = float(rng.uniform(0.0, 0.95))
        assert_same_bytes(rwr_scores(g, block, alpha), full_check_rwr(g, block, alpha)[0])


def test_rwr_witness_check_raises_the_full_checks_residual():
    g = witness_graph()
    block = [30, 0, 15, 29, 7, 31]
    for max_iter in range(1, 27):  # max_iter=0 is refused: see BAD_WALKS
        with pytest.raises(ConvergenceError) as want:
            full_check_rwr(g, block, 0.5, max_iter=max_iter)
        with pytest.raises(ConvergenceError, match="rwr_scores") as got:
            rwr_scores(g, block, 0.5, max_iter=max_iter)
        assert got.value.residual == want.value.residual
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [-1, 6])
def test_score_all_sources_rejects_out_of_range_source_before_work(monkeypatch, bad):
    import rwnsgcn.scoring as scoring

    def no_work(*args, **kwargs):
        raise AssertionError("scored before validating")

    monkeypatch.setattr(scoring, "_transition_transpose", no_work)
    monkeypatch.setattr(scoring, "pagerank_scores", no_work)
    monkeypatch.setattr(scoring, "hop_matrix", no_work)
    monkeypatch.setattr(graph_mod, "hop_matrix", no_work)
    with pytest.raises(ValueError, match=f"source {bad} out of range"):
        score_all_sources(path_graph(6), [2, bad, 3])
    with pytest.raises(ValueError, match="level 1 is below 2"):
        score_all_sources(path_graph(6), [2, 3], levels=(1, 2))
    with pytest.raises(ValueError, match="k_per_level must be at least 1"):
        score_all_sources(path_graph(6), [2, 3], k_per_level=0)
    with pytest.raises(ValueError, match="alpha must be in"):
        score_all_sources(path_graph(6), [2, 3], alpha=1.0)
    with pytest.raises(ValueError, match="beta must be in"):
        score_all_sources(path_graph(6), [2, 3], beta=1.5)
    # the last pick is checked before the first one is walked
    for bad_pick, message in (((0.5, ()), "at least one layer"), ((-0.1, (2,)), "beta")):
        with pytest.raises(ValueError, match=message):
            score_picks(path_graph(6), [2, 3], [(0.5, (2, 3)), (1.0, (4,)), bad_pick])
    with pytest.raises(ValueError, match=f"source {bad} out of range"):
        score_picks(path_graph(6), [bad], [(0.5, (2,))])
    with pytest.raises(ValueError, match=f"source {bad} out of range"):
        bfs_layers(path_graph(6), [0, bad], 3)
    with pytest.raises(ValueError, match=f"source {bad} out of range"):
        rwr_scores(path_graph(6), [bad, 0], 0.85, _pt=sp.csr_array((6, 6)))


def test_score_all_sources_builds_one_transition_transpose(monkeypatch):
    import rwnsgcn.scoring as scoring

    calls = []
    real = scoring._transition_transpose
    monkeypatch.setattr(scoring, "_transition_transpose", lambda g: calls.append(g) or real(g))
    rng = np.random.default_rng(3)
    score_all_sources(random_graph(rng, 150, 0.03), range(150))
    assert len(calls) == 1


@pytest.mark.parametrize("levels", LEVEL_GRID)
def test_score_all_sources_runs_the_bfs_to_the_deepest_level_only(monkeypatch, levels):
    import rwnsgcn.scoring as scoring

    depths, hops_built = [], []
    real_bfs, real_hops = scoring.bfs_layers, graph_mod.hop_matrix

    def bfs_spy(g, sources, depth, **kwargs):
        fronts = real_bfs(g, sources, depth, **kwargs)
        depths.append(len(fronts))
        return fronts

    monkeypatch.setattr(scoring, "bfs_layers", bfs_spy)
    monkeypatch.setattr(graph_mod, "hop_matrix", lambda g: hops_built.append(g) or real_hops(g))
    rng = np.random.default_rng(9)
    g = random_graph(rng, 150, 0.03)
    score_all_sources(g, range(150), levels=levels)
    assert depths == [max(levels)] * 3  # one call per 64-source block
    assert len(hops_built) == 1  # the hop matrix is built once per fill


def test_score_picks_walks_each_block_once_for_every_pick(monkeypatch):
    import rwnsgcn.scoring as scoring

    depths, walks, transposes = [], [], []
    real_bfs, real_rwr, real_pt = (
        scoring.bfs_layers, scoring.rwr_scores, scoring._transition_transpose
    )

    def bfs_spy(g, sources, depth, **kwargs):
        depths.append(depth)
        return real_bfs(g, sources, depth, **kwargs)

    def rwr_spy(*args, **kwargs):
        walks.append(args[1])
        return real_rwr(*args, **kwargs)

    monkeypatch.setattr(scoring, "bfs_layers", bfs_spy)
    monkeypatch.setattr(scoring, "rwr_scores", rwr_spy)
    monkeypatch.setattr(
        scoring, "_transition_transpose", lambda g: transposes.append(g) or real_pt(g)
    )
    rng = np.random.default_rng(9)
    g = random_graph(rng, 150, 0.03)
    picks = [(beta, levels) for beta in (0.0, 0.5, 1.0) for levels in LEVEL_GRID]
    fills = score_picks(g, range(150), picks)
    assert depths == [5] * 3  # one BFS per 64-source block, to the deepest pick
    assert len(walks) == 3 and len(transposes) == 1
    assert [sorted(fill) for fill in fills] == [list(range(150))] * len(picks)


def test_score_picks_with_no_picks_or_sources_does_no_work(monkeypatch):
    import rwnsgcn.scoring as scoring

    def no_work(*args, **kwargs):
        raise AssertionError("scored with nothing to pick")

    monkeypatch.setattr(scoring, "_transition_transpose", no_work)
    assert score_picks(path_graph(6), [2, 3], []) == []
    assert score_picks(path_graph(6), [], [(0.5, (2,)), (1.0, (3,))]) == [{}, {}]


def test_pagerank_with_prebuilt_transpose_is_unchanged():
    rng = np.random.default_rng(12)
    for t in range(10):
        g = random_graph(rng, int(rng.integers(1, 60)), 0.1, weighted=t % 2 == 1)
        want = pagerank_scores(g, 0.85)
        got = pagerank_scores(g, 0.85, _pt=_transition_transpose(g))
        assert np.array_equal(got, want)


def test_scoring_loads_no_dense_linalg_or_csgraph():
    # scipy.sparse.csgraph pulls in scipy.linalg and scipy.sparse.linalg,
    # ~11 MB of resident memory neither the scoring step nor the
    # betweenness of the ctbca attack needs
    code = (
        "import sys\n"
        "from rwnsgcn.graph import build_graph\n"
        "from rwnsgcn.harness import edge_betweenness, score_all_sources\n"
        "g = build_graph(80, [(i, (i * 7 + 1) % 80, 1.0) for i in range(80)])\n"
        "assert len(score_all_sources(g, range(80))) == 80\n"
        "assert edge_betweenness(g).shape == (g.num_edges,)\n"
        "heavy = ('scipy.sparse.csgraph', 'scipy.linalg', 'scipy.sparse.linalg')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
