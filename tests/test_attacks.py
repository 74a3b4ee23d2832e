import inspect
from collections import deque

import numpy as np
import pytest

from rwnsgcn.attacks import AttackSpec, ctbca_remove, edge_betweenness, twpa_perturb
from rwnsgcn.config import derive_seed
from rwnsgcn.data import Dataset, bfs_subgraph, load_content_cites
from rwnsgcn.graph import build_graph
from rwnsgcn.harness import run_attack_comparison
from rwnsgcn.scoring import bfs_layers

from conftest import betweenness_dict, random_edge_list, random_graph


def brute_force_edge_betweenness(g):
    """Independent oracle: count shortest paths via the sigma-product rule.

    An edge (u, v) lies on a shortest s-t path iff d(s,u)+1+d(v,t) = d(s,t)
    (in either orientation); its share is sigma_su * sigma_vt / sigma_st,
    summed over unordered pairs s < t.
    """
    n = g.num_nodes

    def bfs_counts(s):
        dist = np.full(n, -1)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.neighbors(u):
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    q.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        return dist, sigma

    dist = np.zeros((n, n), dtype=np.int64)
    sigma = np.zeros((n, n))
    for s in range(n):
        dist[s], sigma[s] = bfs_counts(s)

    scores = {(u, v): 0.0 for u, v, _ in g.edges()}
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s, t] <= 0 and s != t and dist[s, t] != 0:
                continue
            if sigma[s, t] == 0:
                continue
            for (u, v) in scores:
                share = 0.0
                if dist[s, u] >= 0 and dist[v, t] >= 0 and dist[s, u] + 1 + dist[v, t] == dist[s, t]:
                    share += sigma[s, u] * sigma[v, t]
                if dist[s, v] >= 0 and dist[u, t] >= 0 and dist[s, v] + 1 + dist[u, t] == dist[s, t]:
                    share += sigma[s, v] * sigma[u, t]
                if share:
                    scores[(u, v)] += share / sigma[s, t]
    return scores


def test_path_betweenness_counts_pairs():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    scores = betweenness_dict(g, edge_betweenness(g))
    assert scores[(0, 1)] == pytest.approx(2.0)
    assert scores[(1, 2)] == pytest.approx(2.0)


def test_triangle_betweenness_symmetric():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    scores = betweenness_dict(g, edge_betweenness(g))
    assert len(set(round(v, 9) for v in scores.values())) == 1


def bridge_of_triangles():
    return build_graph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
         (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
         (2, 3, 1.0)],
    )


def test_bridge_has_strictly_largest_score():
    g = bridge_of_triangles()
    scores = betweenness_dict(g, edge_betweenness(g))
    bridge = scores[(2, 3)]
    for edge, score in scores.items():
        if edge != (2, 3):
            assert bridge > score


def test_betweenness_matches_brute_force_oracle():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, 0.35)
        got = betweenness_dict(g, edge_betweenness(g))
        expected = brute_force_edge_betweenness(g)
        assert set(got) == set(expected)
        for e in expected:
            assert got[e] == pytest.approx(expected[e], abs=1e-9)


def test_ctbca_fraction_zero_identity():
    g = bridge_of_triangles()
    out = ctbca_remove(g, 0.0, seed=1)
    assert out.edges() == g.edges()


def test_ctbca_fraction_one_empties():
    g = bridge_of_triangles()
    out = ctbca_remove(g, 1.0, seed=1)
    assert out.num_edges == 0
    assert out.num_nodes == g.num_nodes


def test_ctbca_removes_exactly_the_bridge():
    g = bridge_of_triangles()
    out = ctbca_remove(g, 1 / 7, seed=0)  # ceil(1) = 1 edge
    assert out.num_edges == 6
    assert (2, 3, 1.0) not in out.edges()


def test_ctbca_removal_count_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng, 15, 0.3)
        if g.num_edges == 0:
            continue
        frac = float(rng.uniform(0, 1))
        out = ctbca_remove(g, frac, seed=3)
        removed = g.num_edges - out.num_edges
        assert removed == int(np.ceil(frac * g.num_edges))
        assert out.num_nodes == g.num_nodes


def test_ctbca_pure():
    g = bridge_of_triangles()
    before = g.edges()
    ctbca_remove(g, 0.5, seed=2)
    assert g.edges() == before


def test_ctbca_deterministic_given_seed():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    a = ctbca_remove(g, 0.5, seed=9)
    b = ctbca_remove(g, 0.5, seed=9)
    assert a.edges() == b.edges()


def test_twpa_sigma_zero_is_identity():
    g = bridge_of_triangles()
    out = twpa_perturb(g, 0.0, seed=4)
    assert out.edges() == g.edges()


def test_twpa_preserves_edge_set_and_clamps():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 12, 0.4)
    out = twpa_perturb(g, 5.0, seed=1)
    assert [(u, v) for u, v, _ in out.edges()] == [(u, v) for u, v, _ in g.edges()]
    weights = np.array([w for _, _, w in out.edges()])
    assert np.all(weights >= 0)
    assert np.any(weights == 0.0)  # large sigma drives some weights to the clamp


def test_twpa_deterministic_given_seed():
    g = bridge_of_triangles()
    a = twpa_perturb(g, 0.8, seed=12)
    b = twpa_perturb(g, 0.8, seed=12)
    assert a.edges() == b.edges()


def test_twpa_pure():
    g = bridge_of_triangles()
    before = g.edges()
    twpa_perturb(g, 2.0, seed=0)
    assert g.edges() == before


def test_zero_weight_edges_still_count_as_hops():
    # path 0-1-2-3-4-5; this draw clamps edge (3, 4), and only it, to 0
    g = twpa_perturb(build_graph(6, [(i, i + 1, 0.5) for i in range(5)]), 1.0, seed=1)
    assert [(u, v) for u, v, w in g.edges() if w == 0.0] == [(3, 4)]

    fronts = bfs_layers(g, [0], 5)
    assert [np.flatnonzero(f[:, 0]).tolist() for f in fronts] == [[1], [2], [3], [4], [5]]
    # edge (i, i+1) of a path separates i+1 nodes from 5-i
    assert betweenness_dict(g, edge_betweenness(g)) == {(i, i + 1): float((i + 1) * (5 - i)) for i in range(5)}
    ds = Dataset(
        graph=g,
        features=np.eye(6),
        labels=np.zeros(6, dtype=np.int64),
        class_count=1,
    )
    # skipping (3, 4) would restart the walk at node 0
    sub = bfs_subgraph(ds, 5, 3)
    assert sub.features.toarray().tolist() == np.eye(6)[[3, 4, 5]].tolist()
    assert sub.graph.edges() == [(0, 1, 0.0), (1, 2, g.edges()[-1][2])]


# (kind, intensity, message) of the cells AttackSpec refuses.  A nan sigma
# passed and then added no noise, so the "attacked" runs trained on the clean
# graph; an inf sigma failed only in build_graph, after every clean run; and
# True ran as sigma 1
UNUSABLE_SPECS = [
    ("other", 0.1, "^unknown attack kind 'other'$"),
    ("ctbca", 1.5, r"^ctbca intensity must be a fraction in \[0, 1\]$"),
    ("twpa", -1.0, r"^twpa intensity \(sigma\) must be nonnegative$"),
    ("twpa", float("nan"), r"^twpa intensity \(sigma\) must be a finite real number, got nan$"),
    ("twpa", float("inf"), r"^twpa intensity \(sigma\) must be a finite real number, got inf$"),
    ("twpa", True, r"^twpa intensity \(sigma\) must be a finite real number, got True$"),
    ("twpa", "0.5", r"^twpa intensity \(sigma\) must be a finite real number, got '0.5'$"),
    ("ctbca", float("nan"), "^ctbca intensity must be a finite real number, got nan$"),
    ("ctbca", False, "^ctbca intensity must be a finite real number, got False$"),
]


def test_attack_spec_validation():
    for kind, intensity, message in UNUSABLE_SPECS:
        with pytest.raises(ValueError, match=message):
            AttackSpec(kind=kind, intensity=intensity)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_twpa_refuses_a_sigma_that_is_not_finite_and_nonnegative(sigma):
    with pytest.raises(ValueError, match=f"^sigma must be finite and nonnegative, got {sigma}$"):
        twpa_perturb(bridge_of_triangles(), sigma)


# ------------------------------------------------- block Brandes vs per source


def reference_edge_betweenness(g):
    """Per-source Brandes, one BFS per source: the version the block form replaced."""
    n = g.num_nodes
    indices = g.indices
    rows = np.repeat(np.arange(n), g.unweighted_degrees())
    _, pos_edge = np.unique(
        np.minimum(rows, indices) * n + np.maximum(rows, indices),
        return_inverse=True,
    )
    acc = np.zeros(g.num_edges)

    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        levels = [np.array([s], dtype=np.int64)]
        frontier = levels[0]
        d = 0
        while frontier.size:
            pos = g.neighbor_positions(frontier)
            if pos.size == 0:
                break
            nbr = indices[pos]
            src = rows[pos]
            fresh = dist[nbr] == -1
            dist[nbr[fresh]] = d + 1
            onpath = dist[nbr] == d + 1
            np.add.at(sigma, nbr[onpath], sigma[src[onpath]])
            nxt = np.unique(nbr[fresh])
            d += 1
            frontier = nxt
            if nxt.size:
                levels.append(nxt)
        delta = np.zeros(n)
        for lev in range(len(levels) - 1, 0, -1):
            pos = g.neighbor_positions(levels[lev])
            nbr = indices[pos]
            wrep = rows[pos]
            pred = dist[nbr] == lev - 1
            contrib = sigma[nbr[pred]] / sigma[wrep[pred]] * (1.0 + delta[wrep[pred]])
            np.add.at(delta, nbr[pred], contrib)
            np.add.at(acc, pos_edge[pos[pred]], contrib)

    return acc / 2.0


def oracle_graph(kind, n, seed):
    rng = np.random.default_rng(seed)
    p = min(1.0, 3.0 / max(n, 1))  # sparse enough for several BFS levels
    edges = random_edge_list(rng, n, p, weighted=kind == "weighted")
    if kind == "zero-weight":
        edges = [(u, v, 0.0 if rng.random() < 0.3 else w) for u, v, w in edges]
    elif kind == "disconnected":  # two shuffled halves with no edge between them
        label = rng.permutation(n)
        edges = [(label[u], label[v], w) for u, v, w in edges if (u < n // 2) == (v < n // 2)]
    elif kind == "isolated":
        alone = rng.random(n) < 0.2
        edges = [(u, v, w) for u, v, w in edges if not (alone[u] or alone[v])]
    elif kind == "no-edges":
        edges = []
    return build_graph(n, edges)


@pytest.mark.parametrize("n", [0, 1, 2, 12, 65, 130, 200])  # 65+: ragged last blocks
@pytest.mark.parametrize(
    "kind", ["random", "weighted", "zero-weight", "disconnected", "isolated", "no-edges"]
)
def test_block_brandes_matches_per_source_brandes(kind, n):
    for seed in range(2):
        g = oracle_graph(kind, n, seed)
        got = edge_betweenness(g)
        assert got.dtype == np.float64 and got.shape == (g.num_edges,)
        assert np.isfinite(got).all()
        assert np.allclose(got, reference_edge_betweenness(g), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [501, 601])
@pytest.mark.parametrize("scale", ["cora", "citeseer", "pubmed3k"])
def test_ctbca_keeps_the_same_edges_on_the_benchmark_graphs(bench_gen, scale, seed):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], seed)
    g = load_content_cites(content.decode(), cites.decode()).graph
    got, want = edge_betweenness(g), reference_edge_betweenness(g)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    grid = inspect.signature(run_attack_comparison).parameters["attack_grid"].default
    fraction = dict(grid)["ctbca"]
    for r in range(3):  # the attack seeds of the harness's first three runs
        attack_seed = derive_seed(seed + r, "attack")
        kept = ctbca_remove(g, fraction, seed=attack_seed, scores=got)
        assert kept.edges() == ctbca_remove(g, fraction, seed=attack_seed, scores=want).edges()
        assert g.num_edges - kept.num_edges == np.ceil(fraction * g.num_edges)
