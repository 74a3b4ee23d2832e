"""The array edge path against verbatim copies of the tuple/dict path it replaced.

``build_graph``, ``ctbca_remove``, ``twpa_perturb``, ``build_negative_graph``
and ``bfs_subgraph`` used to move edges as Python lists of (u, v, w) tuples
through a dict; the ``reference_*`` functions below are those versions, and
the array versions must reproduce them bit for bit.
"""

import math
import re
import warnings

import numpy as np
import pytest

from rwnsgcn.attacks import (
    TIE_RTOL,
    _tie_groups,
    ctbca_remove,
    edge_betweenness,
    twpa_perturb,
)
from rwnsgcn.data import Dataset, bfs_subgraph
from rwnsgcn.dpp import build_negative_graph
from rwnsgcn.graph import Graph, build_graph

from conftest import betweenness_dict, random_edge_list, random_graph


# ------------------------------------------------------- reference copies


def reference_build_graph(num_nodes, edge_list):
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    seen = {}
    loops = 0
    for k, entry in enumerate(edge_list):
        if len(entry) == 2:
            u, v = entry
            w = 1.0
        else:
            u, v, w = entry
        whole = float(u).is_integer() and float(v).is_integer()
        pair = (int(u), int(v)) if whole else (float(u), float(v))
        w = float(w)
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge {k}: node id out of range for {pair} with {num_nodes} nodes")
        if not whole:
            raise ValueError(f"edge {k}: non-integral node id in {pair}")
        u, v = pair
        if w < 0:
            raise ValueError(f"edge {k}: negative weight {w} on ({u}, {v})")
        if u == v:
            loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        seen[key] = w
    if loops:
        warnings.warn(f"dropped {loops} self-loop edge(s)", stacklevel=2)

    m = len(seen)
    rows = np.empty(2 * m, dtype=np.int64)
    cols = np.empty(2 * m, dtype=np.int64)
    vals = np.empty(2 * m, dtype=np.float64)
    for i, ((u, v), w) in enumerate(seen.items()):
        rows[2 * i], cols[2 * i], vals[2 * i] = u, v, w
        rows[2 * i + 1], cols[2 * i + 1], vals[2 * i + 1] = v, u, w

    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    degrees = np.zeros(num_nodes, dtype=np.float64)
    np.add.at(degrees, rows, vals)
    return Graph(
        num_nodes=num_nodes,
        indptr=indptr,
        indices=cols,
        weights=vals,
        degrees=degrees,
    )


def reference_ctbca_remove(g, fraction, seed, scores):
    """``scores`` is the {(u, v): score} dict the old betweenness returned."""
    edges = g.edges()
    m = len(edges)
    n_remove = math.ceil(fraction * m)
    if n_remove == 0:
        return reference_build_graph(g.num_nodes, edges)
    rng = np.random.default_rng(seed)
    groups = {}
    for u, v, w in edges:
        groups.setdefault(scores[(u, v)], []).append((u, v, w))
    ordered = []
    for score in sorted(groups, reverse=True):
        tied = sorted(groups[score])
        perm = rng.permutation(len(tied))
        ordered.extend(tied[i] for i in perm)
    kept = ordered[n_remove:]
    return reference_build_graph(g.num_nodes, kept)


def reference_twpa_perturb(g, sigma, seed):
    edges = g.edges()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=len(edges)) if sigma > 0 else np.zeros(len(edges))
    perturbed = [
        (u, v, max(0.0, w + eps)) for (u, v, w), eps in zip(edges, noise)
    ]
    return reference_build_graph(g.num_nodes, perturbed)


def reference_build_negative_graph(samples, num_nodes):
    edges = [
        (int(src), int(j), 1.0) for src, subset in samples.items() for j in subset
    ]
    return reference_build_graph(num_nodes, edges)


def reference_bfs_subgraph(ds, seed_node, target_size):
    n = ds.num_nodes
    g = ds.graph
    visited = np.zeros(n, dtype=bool)
    visited[seed_node] = True
    selected = [int(seed_node)]
    frontier = np.array([seed_node], dtype=np.int64)
    while len(selected) < target_size:
        cand = np.unique(g.indices[g.neighbor_positions(frontier)])
        cand = cand[~visited[cand]]
        if cand.size == 0:
            cand = np.flatnonzero(~visited)[:1]
        room = target_size - len(selected)
        chosen = cand[:room]
        visited[chosen] = True
        selected.extend(int(v) for v in chosen)
        frontier = chosen

    keep = np.sort(np.array(selected, dtype=np.int64))
    remap = -np.ones(n, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    edges = [
        (int(remap[u]), int(remap[v]), w)
        for u, v, w in g.edges()
        if remap[u] >= 0 and remap[v] >= 0
    ]
    return reference_build_graph(keep.size, edges), keep


# ---------------------------------------------------------------- helpers


def assert_same_graph(got, expected):
    assert got.num_nodes == expected.num_nodes
    for field in ("indptr", "indices", "weights", "degrees"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def build_both(n, rows):
    """Both builders on the same rows, with the self-loop warnings they raise."""
    with warnings.catch_warnings(record=True) as ref_warned:
        warnings.simplefilter("always")
        expected = reference_build_graph(n, rows)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        got = build_graph(n, rows)
    assert [str(w.message) for w in warned] == [str(w.message) for w in ref_warned]
    return got, expected


def messy_rows(rng, n, m):
    """Edges in both orientations, repeated with new weights, self loops and zeros."""
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    loops = rng.random(m) < 0.08
    v[loops] = u[loops]
    w = rng.uniform(0.0, 3.0, m)
    w[rng.random(m) < 0.2] = 0.0
    rows = [(int(a), int(b), float(c)) for a, b, c in zip(u, v, w)]
    # repeat some edges reversed, with a fresh weight: the later one wins
    for i in rng.integers(0, m, m // 3) if m else []:
        a, b, _ = rows[int(i)]
        rows.append((b, a, float(rng.uniform(0.0, 3.0))))
    return rows


# -------------------------------------------------------------- build_graph


@pytest.mark.filterwarnings("ignore:dropped")
def test_build_graph_matches_reference_on_random_lists():
    rng = np.random.default_rng(71)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        rows = messy_rows(rng, n, int(rng.integers(0, 60)))
        got, expected = build_both(n, rows)
        assert_same_graph(got, expected)
        # the same rows as an array, and without weights
        if rows:
            assert_same_graph(build_graph(n, np.array(rows)), expected)
        pairs = [(u, v) for u, v, _ in rows]
        got, expected = build_both(n, pairs)
        assert_same_graph(got, expected)
        if pairs:
            assert_same_graph(build_graph(n, np.array(pairs, dtype=np.int64)), expected)


def test_build_graph_empty_inputs():
    for n in (0, 1, 5):
        for rows in ([], np.empty((0, 2)), np.empty((0, 3))):
            got = build_graph(n, rows)
            assert_same_graph(got, reference_build_graph(n, []))
            assert got.indptr.tolist() == [0] * (n + 1)


def test_build_graph_first_bad_row_named():
    cases = [
        [(0, 1, 1.0), (0, 5, 1.0), (0, 1, -1.0)],   # range error first
        [(0, 1, 1.0), (1, 2, -0.5), (9, 1, 1.0)],   # weight error first
        [(0, 9, -1.0), (0, 1, 1.0)],                # both in one row: range wins
        [(0, 1, 1.0), (2, 0, 2.0), (-1, 2, 1.0)],
        [(2, 2, -3.0)],                             # a negative self loop still raises
        [(0, 1), (0.5, 2), (0, 9)],                 # a fractional id first
        [(0, 9.5), (1.5, 2)],                       # fractional and out of range: range wins
    ]
    for rows in cases:
        with pytest.raises(ValueError) as expected:
            reference_build_graph(3, rows)
        with pytest.raises(ValueError) as got:
            build_graph(3, rows)
        assert str(got.value) == str(expected.value)
        with pytest.raises(ValueError) as from_array:
            build_graph(3, np.array(rows))
        assert str(from_array.value) == str(expected.value)


REFUSED_EDGES = {
    "short-row": ([(0, 1), (0,)], "list of shape (2,)"),
    "long-row": ([(0, 1), (0, 1, 1.0, 2.0)], "list of shape (2,)"),
    "mixed-widths": ([(0, 1), (1, 2, 0.5)], "list of shape (2,)"),
    "empty-first-row": ([(), (0, 1)], "list of shape (2,)"),
    # the shape is refused before any row is read, even an out-of-range one
    "short-row-after-a-bad-id": ([(0, 1), (0, 9), (0,)], "list of shape (3,)"),
    "iterator": (iter([(0, 1)]), "list_iterator of shape ()"),
    "1-d-array": (np.array([0, 1]), "ndarray of shape (2,)"),
    "m-by-4-array": (np.zeros((2, 4)), "ndarray of shape (2, 4)"),
    "empty-row": ([[]], "list of shape (1, 0)"),
}


@pytest.mark.parametrize("case", REFUSED_EDGES)
def test_build_graph_refuses_every_other_shape(case):
    edges, got = REFUSED_EDGES[case]
    message = ("edges must be an (m, 2) array of (u, v) or an (m, 3) array of (u, v, w), "
               f"got {got}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_graph(3, edges)


def test_edge_arrays_are_the_canonical_edges():
    rng = np.random.default_rng(72)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(0, 20)), 0.3, weighted=True)
        u, v, w = g.edge_arrays()
        assert (u.dtype, v.dtype, w.dtype) == (np.int64, np.int64, np.float64)
        assert np.all(u < v)
        keys = u * max(g.num_nodes, 1) + v
        assert np.all(np.diff(keys) > 0)
        assert g.edges() == list(zip(u.tolist(), v.tolist(), w.tolist()))


# ------------------------------------------------------------------ attacks


def exact_ties_only(scores):
    """True when every pair of distinct scores is further apart than the tie tolerance."""
    distinct = np.unique(scores)
    return bool(np.all(np.diff(distinct) > TIE_RTOL * scores.max(initial=0.0)))


def test_ctbca_matches_reference_without_near_ties():
    rng = np.random.default_rng(73)
    compared = with_exact_ties = 0
    for trial in range(50):
        g = random_graph(rng, int(rng.integers(4, 22)), 0.3, weighted=bool(trial % 2))
        scores = edge_betweenness(g)
        if not exact_ties_only(scores):
            continue
        compared += 1
        with_exact_ties += np.unique(scores).size < scores.size
        for seed in (0, 1, 17):
            for fraction in (0.0, 0.05, 0.1, 0.3, 0.5, 1.0):
                expected = reference_ctbca_remove(g, fraction, seed, betweenness_dict(g, scores))
                assert_same_graph(ctbca_remove(g, fraction, seed=seed, scores=scores), expected)
                assert_same_graph(ctbca_remove(g, fraction, seed=seed), expected)
    assert compared >= 30 and with_exact_ties >= 10


def test_ctbca_rejects_scores_of_another_graph():
    g = random_graph(np.random.default_rng(74), 10, 0.4)
    with pytest.raises(ValueError, match="scores"):
        ctbca_remove(g, 0.5, scores=np.ones(g.num_edges + 1))


def test_betweenness_is_an_array_over_edge_arrays():
    g = random_graph(np.random.default_rng(75), 12, 0.3)
    scores = edge_betweenness(g)
    assert scores.dtype == np.float64 and scores.shape == (g.num_edges,)
    assert edge_betweenness(build_graph(4, [])).shape == (0,)


def test_twpa_matches_reference():
    rng = np.random.default_rng(76)
    for trial in range(30):
        g = build_graph(
            15, [(u, v, 0.0 if rng.random() < 0.2 else w)
                 for u, v, w in random_edge_list(rng, 15, 0.3, weighted=True)]
        )
        for sigma in (0.0, 0.3, 5.0):
            expected = reference_twpa_perturb(g, sigma, seed=trial)
            assert_same_graph(twpa_perturb(g, sigma, seed=trial), expected)


# ------------------------------------------------------------ tie groups


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def torus(side):
    def node(i, j):
        return (i % side) * side + j % side

    return build_graph(
        side * side,
        [(node(i, j), node(i + di, j + dj))
         for i in range(side) for j in range(side) for di, dj in ((1, 0), (0, 1))],
    )


def hypercube(dim):
    return build_graph(
        2 ** dim, [(x, x ^ (1 << b)) for x in range(2 ** dim) for b in range(dim) if x < x ^ (1 << b)]
    )


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


@pytest.mark.parametrize(
    "graph, fraction",
    [
        (cycle(20), 0.1),
        (torus(8), 0.05),
        (hypercube(6), 0.05),
        (complete_bipartite(5, 7), 0.1),
    ],
    ids=["cycle-20", "torus-8x8", "6-cube", "K5,7"],
)
def test_edge_transitive_graphs_form_one_tie_group(graph, fraction):
    scores = edge_betweenness(graph)
    order, starts = _tie_groups(scores)
    assert starts.tolist() == [0]
    assert sorted(order.tolist()) == list(range(graph.num_edges))

    def removed(seed):
        kept = ctbca_remove(graph, fraction, seed=seed, scores=scores).edges()
        return frozenset((u, v) for u, v, _ in graph.edges()) - {(u, v) for u, v, _ in kept}

    sets = [removed(seed) for seed in range(20)]
    assert len(set(sets)) >= 10  # the seed, not roundoff, picks the edges
    assert [removed(seed) for seed in range(20)] == sets
    # one permutation of the canonical edge order; its head is removed
    u, v, _ = graph.edge_arrays()
    for seed, got in enumerate(sets):
        ids = np.random.default_rng(seed).permutation(graph.num_edges)
        ids = ids[: math.ceil(fraction * graph.num_edges)]
        assert got == frozenset(zip(u[ids].tolist(), v[ids].tolist()))


def test_tie_groups_split_only_beyond_the_tolerance():
    scores = np.array([5.0, 3.0, 5.0 * (1 - 1e-12), 3.0 + 1e-6, 0.0, 0.0])
    order, starts = _tie_groups(scores)
    assert order.tolist() == [0, 2, 3, 1, 4, 5]
    assert starts.tolist() == [0, 2, 3, 4]
    order, starts = _tie_groups(np.empty(0))
    assert order.size == 0 and starts.size == 0


# ----------------------------------------------------- negatives, subgraphs


def test_build_negative_graph_matches_reference():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        samples = {}
        for src in rng.permutation(n)[: int(rng.integers(0, n))]:
            picked = rng.integers(0, n, int(rng.integers(0, 4)))
            picked = picked[picked != src].tolist()
            samples[np.int64(src) if rng.random() < 0.5 else int(src)] = picked
        expected = reference_build_negative_graph(samples, n)
        assert_same_graph(build_negative_graph(samples, n), expected)


def test_bfs_subgraph_matches_reference():
    rng = np.random.default_rng(78)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = build_graph(n, [(u, v, 0.0 if rng.random() < 0.2 else w)
                            for u, v, w in random_edge_list(rng, n, 0.15, weighted=True)])
        ds = Dataset(graph=g, features=rng.random((n, 3)),
                     labels=rng.integers(0, 2, n), class_count=2)
        seed_node, size = int(rng.integers(0, n)), int(rng.integers(1, n + 1))
        expected, keep = reference_bfs_subgraph(ds, seed_node, size)
        sub = bfs_subgraph(ds, seed_node, size)
        assert_same_graph(sub.graph, expected)
        assert np.array_equal(sub.features.toarray(), ds.features[keep].toarray())
