import re

import numpy as np
import pytest

from rwnsgcn.data import (
    Dataset,
    bfs_subgraph,
    degree_filtered_nodes,
    load_content_cites,
    load_content_cites_paths,
    planetoid_split,
    save_content_cites,
)
from rwnsgcn.graph import build_graph

from conftest import assert_same_bytes, planted_dataset, random_graph, require_dataset

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


def _save_and_load(ds, tmp_path, row_normalize=False):
    save_content_cites(ds, tmp_path / "ds")
    return load_content_cites_paths(
        tmp_path / "ds.content", tmp_path / "ds.cites", row_normalize=row_normalize
    )


def assert_same_dataset(a, b):
    for name in ("indptr", "indices", "weights", "degrees"):
        assert_same_bytes(getattr(a.graph, name), getattr(b.graph, name))
    assert_same_bytes(a.features, b.features)
    assert_same_bytes(a.labels, b.labels)
    assert (a.class_count, a.feature_dim) == (b.class_count, b.feature_dim)


def test_content_cites_round_trip_exact(tmp_path):
    ds = planted_dataset(seed=3, n_per_class=5, classes=2, feature_dim=6)
    back = _save_and_load(ds, tmp_path)
    assert_same_dataset(ds, back)
    # no names on ds: ids and class names are the indices
    assert back.node_names == [str(i) for i in range(10)]
    assert back.class_names == ["0", "1"]


@pytest.mark.parametrize("weight", [0.5, 0.0, 2.0])
def test_save_content_cites_rejects_weighted_edges(tmp_path, weight):
    ds = Dataset(graph=build_graph(4, [(0, 1), (1, 2, weight), (2, 3)]), features=np.eye(4),
                 labels=np.array([0, 1, 0, 1]), class_count=2, feature_dim=4)
    message = f"edge (1, 2) has weight {weight}; .cites rows carry no weights"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        save_content_cites(ds, tmp_path / "ds")
    assert list(tmp_path.iterdir()) == []


def test_content_cites_bytes_match_the_expected_text(tmp_path):
    features = np.array([[0.1, -0.0], [1 / 3, 2.0], [0.0, 1e-300], [5e-324, 123456789.0]])
    ds = Dataset(graph=build_graph(4, [(2, 0), (1, 2), (0, 3)]), features=features,
                 labels=np.array([1, 0, 1, 2]), class_count=3, feature_dim=2,
                 node_names=["p", "q", "r", "s"], class_names=["a", "b", "c"])
    save_content_cites(ds, tmp_path / "ds")
    assert (tmp_path / "ds.content").read_text() == (
        "p\t0.1\t-0.0\tb\n"
        "q\t0.3333333333333333\t2.0\ta\n"
        "r\t0.0\t1e-300\tb\n"
        "s\t5e-324\t123456789.0\tc\n"
    )
    assert (tmp_path / "ds.cites").read_text() == "p\tr\np\ts\nq\tr\n"
    back = load_content_cites_paths(tmp_path / "ds.content", tmp_path / "ds.cites",
                                    row_normalize=False)
    assert_same_dataset(ds, back)
    assert back.node_names == ["p", "q", "r", "s"]


@pytest.mark.parametrize("row_normalize", [False, True])
@pytest.mark.parametrize("seed", [501, 601])
@pytest.mark.parametrize("scale", ["cora", "citeseer", "pubmed3k"])
def test_prepared_pair_reloads_equal_to_the_in_memory_subgraph(
    bench_gen, tmp_path, scale, seed, row_normalize
):
    # what `rwnsgcn prepare --subgraph-size 300` writes, loaded as an experiment loads it
    content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], seed)
    content, cites = content.decode(), cites.decode()
    raw = load_content_cites(content, cites, row_normalize=False)
    seed_node = int(np.argmax(raw.graph.unweighted_degrees()))
    prepared = _save_and_load(bfs_subgraph(raw, seed_node, 300), tmp_path, row_normalize)
    direct = bfs_subgraph(load_content_cites(content, cites, row_normalize=row_normalize),
                          seed_node, 300)
    assert_same_dataset(direct, prepared)
    assert prepared.node_names == direct.node_names


def test_subgraph_lacking_a_class_reloads_with_the_classes_it_has(tmp_path):
    # a path a-b-c-d-e whose middle class "mid" lies only at its far end
    content = "a 1 0 low\nb 0 1 top\nc 1 1 low\nd 1 0 top\ne 0 1 mid\n"
    ds = load_content_cites(content, "a b\nb c\nc d\nd e\n", row_normalize=False)
    sub = bfs_subgraph(ds, 0, 4)
    assert sub.class_count == 3 and sub.class_names == ["low", "mid", "top"]
    with pytest.raises(ValueError, match="class 1 has only 0 nodes"):
        planetoid_split(sub, per_class=1, num_val=1, num_test=1)
    back = _save_and_load(sub, tmp_path)
    # class ids follow the sorted names that occur: low -> 0, top -> 1
    assert back.class_count == 2 and back.class_names == ["low", "top"]
    assert back.labels.tolist() == [0, 1, 0, 1]
    assert planetoid_split(back, per_class=1, num_val=1, num_test=1).train.size == 2


def test_feature_parse_matches_per_token_float():
    rng = np.random.default_rng(13)
    tokens = [["0", "1", "-0", "1e-3", "2.5E+2", "+.5", "7."][i % 7] if i % 3 else
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


def test_non_numeric_feature_token_names_row():
    with pytest.raises(ValueError, match="content row 3: could not convert string to float: 'x'"):
        load_content_cites("n0 1 0 a\n\nn1 1 x a\n", "")


def reference_load(content_text, cites_text, row_normalize=True):
    """The per-row split-and-convert loader the C-parser path replaced."""
    ids, index, feat_rows, label_strs, arity = [], {}, [], [], None
    for line in content_text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if arity is None:
            arity = len(parts)
            assert arity >= 3
        assert len(parts) == arity
        assert parts[0] not in index
        index[parts[0]] = len(ids)
        ids.append(parts[0])
        feat_rows.append(np.array(parts[1:-1], dtype=np.float64))
        label_strs.append(parts[-1])
    features = np.vstack(feat_rows)
    if row_normalize:
        sums = features.sum(axis=1, keepdims=True)
        features = features / np.where(sums > 0, sums, 1.0)
    class_names = sorted(set(label_strs))
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[s] for s in label_strs], dtype=np.int64)
    cite_rows = [parts for parts in map(str.split, cites_text.splitlines()) if parts]
    pairs = np.array(
        [[index.get(p[0], -1), index.get(p[1], -1)] for p in cite_rows if len(p) == 2],
        dtype=np.int64,
    ).reshape(-1, 2)
    known = pairs[(pairs >= 0).all(axis=1)]
    return dict(graph=build_graph(len(ids), known), features=features, labels=labels,
                node_names=ids, class_names=class_names,
                dropped_edges=len(cite_rows) - len(known))


def assert_same_as_reference(content, cites):
    for row_normalize in (True, False):
        ds = load_content_cites(content, cites, row_normalize=row_normalize)
        ref = reference_load(content, cites, row_normalize=row_normalize)
        assert ds.features.flags.c_contiguous
        assert ds.features.shape == ref["features"].shape
        assert ds.features.tobytes() == ref["features"].tobytes()
        assert ds.feature_dim == ref["features"].shape[1]
        assert ds.labels.dtype == np.int64
        assert ds.labels.tobytes() == ref["labels"].tobytes()
        assert ds.node_names == ref["node_names"]
        assert ds.class_names == ref["class_names"]
        assert ds.class_count == len(ref["class_names"])
        for field in ("indptr", "indices", "weights"):
            got, want = getattr(ds.graph, field), getattr(ref["graph"], field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert ds.dropped_edges == ref["dropped_edges"]


ORACLE_CONTENT = {
    "binary": "p1 0 1 1 0 a\np2 1 0 0 1 b\np3 0 0 1 1 a\n",
    "tfidf": "p1 0.12345 0 0.98765 a\np2 0 0.5 1e-05 b\np3 3.14159265358979 0 2.5E+2 c\n",
    "tabs and runs of spaces": "p1\t1\t0 \t 1\tx\np2  0    1\t\t1   y\n",
    "blank lines": "\n\np1 1 0 x\n   \n\t\np2 0 1 y\n\n",
    "crlf": "p1 1 0 1 x\r\np2 0 1 0 y\r\np3 1 1 1 x\r\n",
    "trailing whitespace": "p1 1 0 x   \np2 0 1 y\t\np3 1 1 x \t ",
    "one feature column": "p1 2 x\np2 0 y\np3 0.5 x\n",
    "all-zero rows": "p1 0 0 0 x\np2 0 0 0 y\np3 0 1 0 x\n",
    "single row": "p1 1 2 3 x",
}


@pytest.mark.parametrize("case", sorted(ORACLE_CONTENT))
def test_content_parse_matches_row_loop_oracle(case):
    cites = "p1 p2\r\n\np2\tp3\np1 ghost\nodd row with three\np1\n"
    assert_same_as_reference(ORACLE_CONTENT[case], cites)


@pytest.mark.parametrize("seed", [501, 601])
@pytest.mark.parametrize("scale", ["cora", "citeseer", "pubmed3k"])
def test_content_parse_matches_row_loop_on_the_benchmark_graphs(bench_gen, scale, seed):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], seed)
    assert_same_as_reference(content.decode(), cites.decode())


@pytest.mark.parametrize("content, message", [
    ("\nn1 1\nn2 0\n", "content row 2: expected at least id, one feature and a label"),
    ("n1 1 0 a\n\nn2 0 b\n", "content row 3: 3 columns, expected 4"),
    ("n1 1 0 a\nn2 0 1 1 b\n", "content row 2: 5 columns, expected 4"),
])
def test_column_count_messages_name_the_row(content, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_content_cites(content, "")


def test_first_malformed_row_wins():
    # row 2's duplicate id comes before row 4's bad token and row 5's extra column
    content = "n1 1 0 a\nn1 0 1 b\n\nn2 1 x c\nn3 1 1 1 c\n"
    with pytest.raises(ValueError, match="^content row 2: duplicate node id 'n1'$"):
        load_content_cites(content, "")


@pytest.mark.parametrize("token", ["1_0", "１", "١"])
def test_tokens_float_reads_but_the_c_parser_rejects_name_the_row(token):
    float(token)  # Python's float() reads underscores and non-ASCII digits
    content = f"n1 1 0 a\n\nn2 0 {token} b\n"
    message = f"content row 3: could not convert string to float: {token!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_content_cites(content, "")


@pytest.mark.parametrize("token, shown", [
    ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e500", "inf"), ("-NaN", "nan"),
])
def test_non_finite_feature_names_the_row(token, shown):
    content = f"n1 1 0 a\n\nn2 0 1 b\nn3 1 {token} b\n"
    message = f"content row 4: non-finite feature {shown} in column 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_content_cites(content, "", row_normalize=False)


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
