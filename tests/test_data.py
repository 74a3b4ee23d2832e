import json

import numpy as np
import pytest

from rwnsgcn.data import (
    bfs_subgraph,
    degree_filtered_nodes,
    load_content_cites,
    load_content_cites_paths,
    load_json_bundle,
    planetoid_split,
    save_json_bundle,
)
from rwnsgcn.graph import build_graph

from conftest import planted_dataset, random_graph, require_dataset

TOY_CONTENT = "n1\t1\t0\t1\tml\nn2\t0\t1\t1\tdb\n"
TOY_CITES = "n1\tn2\n"


def test_toy_content_cites():
    ds = load_content_cites(TOY_CONTENT, TOY_CITES)
    assert ds.num_nodes == 2
    assert ds.graph.num_edges == 1
    assert ds.class_count == 2
    assert ds.feature_dim == 3
    # labels sorted lexicographically: db -> 0, ml -> 1
    assert ds.class_names == ["db", "ml"]
    assert list(ds.labels) == [1, 0]


def test_row_normalization_sums_to_one():
    ds = load_content_cites(TOY_CONTENT, TOY_CITES, row_normalize=True)
    sums = ds.features.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-6)
    raw = load_content_cites(TOY_CONTENT, TOY_CITES, row_normalize=False)
    assert raw.features.max() == 1.0


def test_inconsistent_arity_names_row():
    bad = "n1\t1\t0\tml\nn2\t0\tdb\n"
    with pytest.raises(ValueError, match="row 2"):
        load_content_cites(bad, "")


def test_unknown_ids_dropped_with_count():
    ds = load_content_cites(TOY_CONTENT, "n1\tn2\nn1\tmissing\nghost\tn2\n")
    assert ds.graph.num_edges == 1
    assert ds.dropped_edges == 2


def test_bundle_round_trip_exact(tmp_path):
    ds = planted_dataset(seed=3, n_per_class=5, classes=2, feature_dim=6)
    path = tmp_path / "bundle.json"
    save_json_bundle(ds, path)
    back = load_json_bundle(path)
    assert np.array_equal(ds.graph.indptr, back.graph.indptr)
    assert np.array_equal(ds.graph.indices, back.graph.indices)
    assert np.array_equal(ds.graph.weights, back.graph.weights)
    assert np.array_equal(ds.features, back.features)
    assert np.array_equal(ds.labels, back.labels)


def test_bundle_weighted_edges_bit_exact(tmp_path):
    g = build_graph(3, [(0, 1, 0.1234567890123456789), (1, 2, 1 / 3)])
    ds = planted_dataset(seed=1, n_per_class=2, classes=2, feature_dim=4)
    ds = type(ds)(
        graph=g,
        features=np.zeros((3, 2)),
        labels=np.array([0, 1, 0]),
        class_count=2,
        feature_dim=2,
    )
    path = tmp_path / "w.json"
    save_json_bundle(ds, path)
    back = load_json_bundle(path)
    assert np.array_equal(ds.graph.weights, back.graph.weights)


def test_bundle_missing_field_named(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"num_nodes": 2, "edges": [], "features": [[0], [0]],
                                "class_names": ["a"]}))
    with pytest.raises(ValueError, match="labels"):
        load_json_bundle(path)


def _bundle(tmp_path, **fields):
    raw = {"num_nodes": 3, "edges": [[0, 1, 0.5], [1, 2, 2.0]],
           "features": [[0.0], [1.0], [2.0]], "labels": [0, 1, 0],
           "class_names": ["a", "b"]}
    raw.update(fields)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("labels", [[0, 5, 1], [0, -1, 1], [2, 0, 0]])
def test_bundle_labels_outside_classes_named(tmp_path, labels):
    with pytest.raises(ValueError, match="labels"):
        load_json_bundle(_bundle(tmp_path, labels=labels))


def test_bundle_unweighted_edge_rows_get_unit_weight(tmp_path):
    ds = load_json_bundle(_bundle(tmp_path, edges=[[0, 1], [2, 1, 0.25]]))
    assert ds.graph.edges() == [(0, 1, 1.0), (1, 2, 0.25)]


@pytest.mark.parametrize("row", [[1], [0, 2, 1.0, 7.0], []])
def test_bundle_edge_rows_of_other_lengths_named(tmp_path, row):
    with pytest.raises(ValueError, match="edge 1: expected"):
        load_json_bundle(_bundle(tmp_path, edges=[[0, 1, 1.0], row]))


def test_feature_parse_matches_per_token_float():
    rng = np.random.default_rng(13)
    tokens = [["0", "1", "-0", "1e-3", "2.5E+2", "nan", "inf"][i % 7] if i % 3 else
              repr(float(x)) for i, x in enumerate(rng.normal(0, 1e3, 40))]
    content = "".join(
        f"n{r} {' '.join(tokens[r * 8:(r + 1) * 8])} c{r % 2}\n" for r in range(5)
    )
    ds = load_content_cites(content, "", row_normalize=False)
    expected = np.array([[float(t) for t in tokens[r * 8:(r + 1) * 8]] for r in range(5)])
    assert ds.features.tobytes() == expected.tobytes()


def test_duplicate_node_id_named():
    with pytest.raises(ValueError, match="row 2: duplicate node id 'n1'"):
        load_content_cites("n1 1 a\nn1 0 b\n", "")


def test_planetoid_split_sizes_and_disjoint():
    ds = planted_dataset(seed=5, n_per_class=30, classes=3, feature_dim=9)
    masks = planetoid_split(ds, per_class=5, num_val=20, num_test=30, seed=11)
    assert masks.train.size == 15
    assert masks.val.size == 20
    assert masks.test.size == 30
    all_ids = np.concatenate([masks.train, masks.val, masks.test])
    assert np.unique(all_ids).size == all_ids.size
    # exactly per_class train nodes of each class
    counts = np.bincount(ds.labels[masks.train], minlength=3)
    assert np.array_equal(counts, [5, 5, 5])


def test_planetoid_split_deterministic():
    ds = planted_dataset(seed=5, n_per_class=30, classes=3, feature_dim=9)
    a = planetoid_split(ds, per_class=4, num_val=10, num_test=10, seed=42)
    b = planetoid_split(ds, per_class=4, num_val=10, num_test=10, seed=42)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)


def test_planetoid_split_small_class_named():
    ds = planted_dataset(seed=5, n_per_class=3, classes=2, feature_dim=4)
    with pytest.raises(ValueError, match="class 0"):
        planetoid_split(ds, per_class=10, num_val=1, num_test=1, seed=0)


def test_bfs_subgraph_path_prefix():
    ds = _line_dataset(4)
    sub = bfs_subgraph(ds, 0, 2)
    assert sub.num_nodes == 2
    assert sub.graph.num_edges == 1


def _line_dataset(n):
    from rwnsgcn.data import Dataset

    g = build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    return Dataset(
        graph=g,
        features=np.eye(n),
        labels=np.zeros(n, dtype=np.int64),
        class_count=1,
        feature_dim=n,
    )


def test_bfs_subgraph_restart_rule():
    from rwnsgcn.data import Dataset

    # two disjoint triangles: component restart picks the lowest-id node
    g = build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    ds = Dataset(
        graph=g,
        features=np.eye(6),
        labels=np.zeros(6, dtype=np.int64),
        class_count=1,
        feature_dim=6,
    )
    sub = bfs_subgraph(ds, 0, 4)
    assert sub.num_nodes == 4
    assert sub.graph.num_edges == 3  # first triangle only; node 3 is isolated


def test_bfs_subgraph_matches_induced_oracle():
    rng = np.random.default_rng(9)
    from rwnsgcn.data import Dataset

    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = random_graph(rng, n, 0.15, weighted=True)
        ds = Dataset(
            graph=g,
            features=np.eye(n),
            labels=np.zeros(n, dtype=np.int64),
            class_count=1,
            feature_dim=n,
        )
        size = int(rng.integers(1, n + 1))
        sub = bfs_subgraph(ds, int(rng.integers(0, n)), size)
        # selected original ids are recoverable from features (identity rows)
        orig = np.argmax(sub.features, axis=1)
        selected = set(orig.tolist())
        expected_edges = {
            (min(u, v), max(u, v), w)
            for u, v, w in g.edges()
            if u in selected and v in selected
        }
        got_edges = {
            (min(orig[u], orig[v]), max(orig[u], orig[v]), w)
            for u, v, w in sub.graph.edges()
        }
        assert got_edges == expected_edges


def test_bfs_subgraph_deterministic():
    ds = planted_dataset(seed=5, n_per_class=20, classes=3, feature_dim=9)
    a = bfs_subgraph(ds, 0, 30)
    b = bfs_subgraph(ds, 0, 30)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.features, b.features)


def test_bfs_subgraph_zero_size_rejected():
    ds = _line_dataset(4)
    with pytest.raises(ValueError, match="positive"):
        bfs_subgraph(ds, 0, 0)


def test_degree_filter_star():
    g = build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert list(degree_filtered_nodes(g, 3, 6)) == [0]


def test_degree_filter_path_empty():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert degree_filtered_nodes(g, 3, 6).size == 0


def test_degree_filter_counts_zero_weight_edges():
    g = build_graph(4, [(0, 1, 0.0), (0, 2, 0.0), (0, 3, 0.0)])
    assert list(degree_filtered_nodes(g, 3, 3)) == [0]


def test_cora_statistics():
    content, cites = require_dataset("cora")
    ds = load_content_cites_paths(content, cites)
    assert ds.num_nodes == 2708
    assert ds.graph.num_edges == 5429
    assert ds.class_count == 7
    assert ds.feature_dim == 1433


def test_citeseer_statistics():
    content, cites = require_dataset("citeseer")
    ds = load_content_cites_paths(content, cites)
    assert ds.num_nodes == 3327
    assert ds.class_count == 6
    assert ds.feature_dim == 3703


def test_pubmed_degree_band_share():
    content, cites = require_dataset("pubmed")
    ds = load_content_cites_paths(content, cites)
    share = degree_filtered_nodes(ds.graph, 3, 6).size / ds.num_nodes
    assert 0.05 <= share <= 0.2  # "about 10%" of all nodes
