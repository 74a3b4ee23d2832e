import numpy as np
import pytest
import scipy.sparse as sp

from rwnsgcn.data import load_content_cites
from rwnsgcn.graph import (
    build_graph,
    sym_normalized_operator,
    transition_operator,
)
from rwnsgcn.scoring import _transition_transpose

from conftest import assert_same_bytes, dense_adjacency, random_edge_list, random_graph


def test_path_graph_degrees():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert g.num_edges == 2
    assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])


def test_symmetric_duplicate_collapses():
    g = build_graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    assert g.num_edges == 1
    assert g.edges() == [(0, 1, 1.0)]
    assert np.array_equal(g.degrees, [1.0, 1.0])


def test_star_degrees():
    g = build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert np.array_equal(g.degrees, [3.0, 1.0, 1.0, 1.0])


def test_duplicate_last_weight_wins():
    # in either orientation: (1, 0) is the edge (0, 1)
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (1, 0, 0.5), (0, 1, 3.5), (2, 1, 0.0)])
    assert g.edges() == [(0, 1, 3.5), (1, 2, 0.0)]
    assert np.array_equal(g.degrees, [3.5, 3.5, 0.0])


def test_self_loops_dropped_with_count():
    with pytest.warns(UserWarning, match=r"^dropped 2 self-loop edge\(s\)$"):
        g = build_graph(3, [(0, 0, 1.0), (0, 1, 1.0), (2, 2, 0.5)])
    assert g.edges() == [(0, 1, 1.0)]
    assert np.array_equal(g.degrees, [1.0, 1.0, 0.0])


def test_out_of_range_id_names_edge_index():
    with pytest.raises(ValueError, match="edge 1"):
        build_graph(2, [(0, 1, 1.0), (0, 5, 1.0)])


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        build_graph(2, [(0, 1, -0.5)])


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_non_finite_weight_rejected(weight, as_array):
    edges = [(0, 1, 1.0), (2, 1, weight), (1, 2, np.nan)]
    with pytest.raises(ValueError, match=f"edge 1: non-finite weight {weight} on \\(2, 1\\)"):
        build_graph(3, np.array(edges) if as_array else edges)


@pytest.mark.parametrize("pair", [(np.nan, 1), (0, np.inf)])
def test_non_finite_node_id_named(pair):
    with pytest.raises(ValueError, match="edge 1: node id out of range"):
        build_graph(3, [(0, 1), pair])


@pytest.mark.parametrize("as_array", [False, True])
def test_fractional_node_id_named(as_array):
    # in range, so only the integral check keeps them from naming nodes 1 and 2
    edges = [(0, 1), (0, 1.5), (1.9, 2)]
    with pytest.raises(ValueError, match=r"^edge 1: non-integral node id in \(0\.0, 1\.5\)$"):
        build_graph(3, np.array(edges) if as_array else edges)


def test_rebuild_from_edges_is_identical():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 20, 0.2, weighted=True)
    g2 = build_graph(g.num_nodes, g.edges())
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)
    assert np.array_equal(g.weights, g2.weights)


def test_operators_are_float_csr_arrays():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0)])  # node 3 isolated
    for op in (
        sym_normalized_operator(g, self_loops=True),
        sym_normalized_operator(g, self_loops=False),
        transition_operator(g),
    ):
        assert isinstance(op, sp.csr_array)
        assert op.dtype == np.float64
        assert op.shape == (4, 4)
        assert op.has_sorted_indices


def test_sym_normalized_single_edge_no_loops():
    g = build_graph(2, [(0, 1, 1.0)])
    op = sym_normalized_operator(g, self_loops=False)
    dense = op.toarray()
    assert dense[0, 1] == pytest.approx(1.0)
    assert dense[1, 0] == pytest.approx(1.0)


def test_sym_normalized_path_hand_values():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dense = sym_normalized_operator(g, self_loops=False).toarray()
    assert dense[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert dense[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_sym_normalized_single_edge_with_loops_all_half():
    g = build_graph(2, [(0, 1, 1.0)])
    dense = sym_normalized_operator(g, self_loops=True).toarray()
    assert np.allclose(dense, 0.5, atol=1e-12)


def test_transition_single_edge_swaps():
    g = build_graph(2, [(0, 1, 1.0)])
    p = transition_operator(g)
    assert np.allclose(p.toarray(), [[0, 1], [1, 0]])
    assert np.allclose(p @ np.array([1.0, 0.0]), [0.0, 1.0])


def test_transition_star_rows():
    g = build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    dense = transition_operator(g).toarray()
    assert np.allclose(dense[0], [0, 1 / 3, 1 / 3, 1 / 3])
    for leaf in (1, 2, 3):
        row = np.zeros(4)
        row[0] = 1.0
        assert np.allclose(dense[leaf], row)


def test_transition_triangle_applied_to_indicator():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    p = transition_operator(g)
    assert np.allclose(p.toarray(), (np.ones((3, 3)) - np.eye(3)) / 2)
    assert np.allclose(p @ np.array([1.0, 0.0, 0.0]), [0.0, 0.5, 0.5])


def test_apply_identity_like():
    # self-loop-only normalization of an empty graph is the identity
    g = build_graph(3, [])
    op = sym_normalized_operator(g, self_loops=True)
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(op @ x, x, atol=1e-12)


def test_row_stochastic_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)), 0.2, weighted=True)
        p = transition_operator(g)
        sums = np.asarray(p.sum(axis=1)).ravel()
        nonisolated = g.degrees > 0
        assert np.allclose(sums[nonisolated], 1.0, atol=1e-9)
        assert np.allclose(sums[~nonisolated], 0.0)


def test_sym_operator_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_graph(rng, 15, 0.3, weighted=True)
        dense = sym_normalized_operator(g, self_loops=True).toarray()
        assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("self_loops", [False, True])
def test_operators_match_dense_oracle(self_loops):
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 33))
        g = random_graph(rng, n, 0.25, weighted=True)
        a = dense_adjacency(g)
        if self_loops:
            a_eff = a + np.eye(n)
        else:
            a_eff = a
        d = a_eff.sum(axis=1)
        with np.errstate(divide="ignore"):
            dinv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1)), 0.0)
        expected_sym = dinv_sqrt[:, None] * a_eff * dinv_sqrt[None, :]
        got_sym = sym_normalized_operator(g, self_loops=self_loops).toarray()
        assert np.allclose(got_sym, expected_sym, atol=1e-12)

        d_plain = a.sum(axis=1)
        dinv = np.where(d_plain > 0, 1.0 / np.where(d_plain > 0, d_plain, 1), 0.0)
        expected_p = dinv[:, None] * a
        got_p = transition_operator(g).toarray()
        assert np.allclose(got_p, expected_p, atol=1e-12)


# ------------------------------------------- operators against COO oracles


def _coo_sym_oracle(g, self_loops):
    """D^{-1/2} A D^{-1/2} through a COO round trip and a re-sort."""
    a = g.adjacency().astype(np.float64)
    if self_loops:
        a = sp.csr_array((a + sp.identity(g.num_nodes, format="csr", dtype=np.float64)).tocsr())
    d = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    mat = a.tocoo()
    vals = mat.data * (d_inv_sqrt[mat.row] * d_inv_sqrt[mat.col])
    out = sp.csr_array((vals, (mat.row, mat.col)), shape=a.shape)
    out.sort_indices()
    return out


def _coo_transition_oracle(g):
    """D^{-1} A through a COO round trip and a re-sort."""
    d = g.degrees
    with np.errstate(divide="ignore"):
        d_inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
    mat = g.adjacency().astype(np.float64).tocoo()
    out = sp.csr_array((mat.data * d_inv[mat.row], (mat.row, mat.col)), shape=mat.shape)
    out.sort_indices()
    return out


def _assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(a, name), getattr(b, name))


def _odd_graphs():
    """Random weighted graphs with zero-weight edges and isolated nodes,
    and graphs with no edges at all."""
    rng = np.random.default_rng(8)
    graphs = [build_graph(n, []) for n in (1, 2, 5)]
    for _ in range(30):
        n = int(rng.integers(1, 30))
        edges = [(u, v, 0.0 if rng.random() < 0.25 else w)
                 for u, v, w in random_edge_list(rng, n, 0.2, weighted=True)]
        # three trailing ids are always isolated, on top of any the draw leaves
        graphs.append(build_graph(n + 3, edges))
    return graphs


def _bench_graphs(bench_gen):
    for scale in ("cora", "citeseer", "pubmed3k"):
        content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], 501)
        yield load_content_cites(content.decode(), cites.decode()).graph


def _assert_operators_match_oracles(g):
    for self_loops in (False, True):
        op = sym_normalized_operator(g, self_loops=self_loops)
        _assert_same_csr(op, _coo_sym_oracle(g, self_loops))
        assert op.has_canonical_format
        _assert_same_csr(op, sp.csr_array(op.T.tocsr()))  # symmetric bit for bit
    p = transition_operator(g)
    _assert_same_csr(p, _coo_transition_oracle(g))
    assert p.has_canonical_format


def test_operators_are_byte_equal_to_coo_oracles():
    for g in _odd_graphs():
        _assert_operators_match_oracles(g)


def test_operators_are_byte_equal_to_coo_oracles_on_the_benchmark_graphs(bench_gen):
    for g in _bench_graphs(bench_gen):
        _assert_operators_match_oracles(g)


def _assert_transpose_view_products_match_the_copy(g, rng):
    view = _transition_transpose(g)
    copy = sp.csr_array(transition_operator(g).T.tocsr())
    x = rng.random(g.num_nodes)
    block = rng.random((g.num_nodes, 64))
    assert_same_bytes(view @ x, copy @ x)
    assert_same_bytes(view @ block, copy @ block)


def test_transition_transpose_view_products_match_the_copy():
    rng = np.random.default_rng(9)
    for g in _odd_graphs():
        _assert_transpose_view_products_match_the_copy(g, rng)


def test_transition_transpose_view_products_match_the_copy_on_the_benchmark_graphs(bench_gen):
    rng = np.random.default_rng(10)
    for g in _bench_graphs(bench_gen):
        _assert_transpose_view_products_match_the_copy(g, rng)


# ------------------------------------------------------------- traversal


def test_neighbor_positions_match_per_node_ranges():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        # three trailing ids are always isolated, on top of any the draw leaves
        g = build_graph(n + 3, random_edge_list(rng, n, 0.15))
        nodes = rng.integers(0, n + 3, size=int(rng.integers(0, 12)))
        expected = [np.arange(g.indptr[u], g.indptr[u + 1]) for u in nodes]
        got = g.neighbor_positions(nodes)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, np.concatenate(expected + [np.empty(0, np.int64)]))
        assert g.neighbor_positions(np.empty(0, dtype=np.int64)).size == 0
        assert g.neighbor_positions([]).size == 0


def test_edges_match_upper_triangle_scan():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(0, 25))
        edges = random_edge_list(rng, n, 0.2, weighted=True)
        # some zero weights: the edge must stay in the list
        edges = [(u, v, 0.0 if rng.random() < 0.2 else w) for u, v, w in edges]
        g = build_graph(n, edges)
        dense = g.adjacency().toarray()
        present = {(u, int(v)) for u in range(n) for v in g.neighbors(u)}
        expected = [
            (u, v, float(dense[u, v]))
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) in present
        ]
        got = g.edges()
        assert got == expected
        for u, v, w in got:
            assert type(u) is int and type(v) is int and type(w) is float
