import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import rwnsgcn.data as data_mod
from rwnsgcn.data import (
    _digit_rows,
    _parse_rows,
    DEGREE_RANGE,
    Dataset,
    bfs_subgraph,
    degree_filtered_nodes,
    load_content_cites,
    load_content_cites_paths,
    planetoid_split,
    save_content_cites,
)
from rwnsgcn.graph import build_graph

from conftest import (
    assert_same_bytes,
    dense_bits,
    planted_dataset,
    random_graph,
    require_dataset,
)

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


def assert_canonical_csr(x):
    assert type(x) is sp.csr_array and x.dtype == np.float64
    assert x.has_canonical_format


def assert_same_features(a, b):
    """Equal canonical CSR arrays: the same stored entries and the same bits."""
    assert_canonical_csr(a)
    assert_canonical_csr(b)
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(a, name), getattr(b, name))
    assert_same_bytes(dense_bits(a), dense_bits(b))


def assert_same_dataset(a, b):
    for name in ("indptr", "indices", "weights", "degrees"):
        assert_same_bytes(getattr(a.graph, name), getattr(b.graph, name))
    assert_same_features(a.features, b.features)
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
    g = build_graph(4, [(0, 1, 1.0), (1, 2, weight), (2, 3, 1.0)])
    ds = Dataset(graph=g, features=np.eye(4), labels=np.array([0, 1, 0, 1]), class_count=2)
    message = f"edge (1, 2) has weight {weight}; .cites rows carry no weights"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        save_content_cites(ds, tmp_path / "ds")
    assert list(tmp_path.iterdir()) == []


def test_content_cites_bytes_match_the_expected_text(tmp_path):
    features = np.array([[0.1, -0.0], [1 / 3, 2.0], [0.0, 1e-300], [5e-324, 123456789.0]])
    ds = Dataset(graph=build_graph(4, [(2, 0), (1, 2), (0, 3)]), features=features,
                 labels=np.array([1, 0, 1, 2]), class_count=3,
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
    assert ds.class_count == 3 and ds.class_names == ["low", "mid", "top"]
    sub = bfs_subgraph(ds, 0, 4)
    back = _save_and_load(sub, tmp_path)
    # in memory and reloaded alike, class ids follow the sorted names that
    # occur: low -> 0, top -> 1
    for got in (sub, back):
        assert got.class_count == 2 and got.class_names == ["low", "top"]
        assert got.labels.tolist() == [0, 1, 0, 1]
        split = planetoid_split(got, per_class=1, num_val=1, num_test=1)
        assert split.train.size == 2
    assert_same_dataset(sub, back)


def test_subgraph_without_class_names_keeps_the_classes_it_has_in_id_order(tmp_path):
    ds = planted_dataset(seed=4, n_per_class=4, classes=12, feature_dim=24)
    keep = (ds.labels != 3) & (ds.labels != 10)
    # a subgraph of the nodes of ten classes: the isolated rest come last
    g = build_graph(ds.num_nodes, [(int(a), int(b)) for a, b in
                                   zip(*np.nonzero(np.triu(keep[:, None] & keep[None, :], 1)))])
    sub = bfs_subgraph(Dataset(graph=g, features=ds.features, labels=ds.labels,
                               class_count=12), 0, int(keep.sum()))
    names = [f"{c:02d}" for c in range(12) if c not in (3, 10)]
    assert sub.class_count == 10 and sub.class_names == names
    assert sub.labels.tolist() == [names.index(f"{c:02d}") for c in ds.labels[keep]]
    assert_same_dataset(sub, _save_and_load(sub, tmp_path))


def test_twelve_unnamed_classes_round_trip_in_id_order(tmp_path):
    # str(c) names would sort as 0, 1, 10, 11, 2, ... and permute the ids
    ds = planted_dataset(seed=6, n_per_class=2, classes=12, feature_dim=24)
    back = _save_and_load(ds, tmp_path)
    assert back.class_names == [f"{c:02d}" for c in range(12)]
    assert_same_bytes(back.labels, ds.labels)
    assert_same_bytes(dense_bits(back.features), dense_bits(ds.features))
    assert_same_dataset(ds, back)


def test_feature_parse_matches_per_token_float():
    rng = np.random.default_rng(13)
    tokens = [["0", "1", "-0", "1e-3", "2.5E+2", "+.5", "7."][i % 7] if i % 3 else
              repr(float(x)) for i, x in enumerate(rng.normal(0, 1e3, 40))]
    content = "".join(
        f"n{r} {' '.join(tokens[r * 8:(r + 1) * 8])} c{r % 2}\n" for r in range(5)
    )
    ds = load_content_cites(content, "", row_normalize=False)
    expected = np.array([[float(t) for t in tokens[r * 8:(r + 1) * 8]] for r in range(5)])
    assert dense_bits(ds.features).tobytes() == expected.tobytes()


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
        assert_canonical_csr(ds.features)
        assert ds.features.shape == ref["features"].shape
        assert dense_bits(ds.features).tobytes() == ref["features"].tobytes()
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


def whole_table_features(content, row_normalize):
    """The features as one np.loadtxt over every row gives them, normalised
    as a dense table, all rows at once."""
    rows = [line for line in content.splitlines() if line.strip()]
    features = _parse_rows(rows, len(rows[0].split()))[:, 1:-1]
    if not row_normalize:
        return features.copy()
    sums = features.sum(axis=1, keepdims=True)
    return features / np.where(sums > 0, sums, 1.0)


@pytest.mark.parametrize("row_normalize", [True, False])
@pytest.mark.parametrize("seed", [501, 601])
@pytest.mark.parametrize("scale", ["cora", "citeseer", "pubmed3k"])
def test_block_parse_equals_the_whole_table_parse(bench_gen, scale, seed, row_normalize):
    content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], seed)
    content = content.decode()
    ds = load_content_cites(content, cites.decode(), row_normalize=row_normalize)
    assert_canonical_csr(ds.features)
    want = whole_table_features(content, row_normalize)
    assert_same_bytes(ds.features.toarray(), want)
    # every non-zero entry is stored, and nothing else
    assert ds.features.nnz == np.count_nonzero(want)


def test_loading_holds_no_dense_feature_matrix(bench_gen):
    import tracemalloc

    content, cites, _ = bench_gen.generate(bench_gen.SCALES["citeseer"], 501)
    content, cites = content.decode(), cites.decode()
    tracemalloc.start()
    try:
        ds = load_content_cites(content, cites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole parsed table would take n * f * 8 bytes on its own
    assert peak < 0.5 * ds.num_nodes * ds.feature_dim * 8


def digit_rows_of(rows):
    """``_digit_rows`` over ``rows``, cut into ids and labels as the loader
    cuts them."""
    ids = [line.split(None, 1)[0] for line in rows]
    labels = [line.rsplit(None, 1)[-1] for line in rows]
    return _digit_rows(rows, ids, labels, len(rows[0].split()) - 2)


def random_digit_rows(rng, n, features):
    """Rows of one-digit tokens with a space or a tab drawn for every gap."""
    rows = []
    for i in range(n):
        tokens = [f"p{i}", *rng.choice(list("0123456789"), size=features), f"c{i % 3}"]
        seps = rng.choice([" ", "\t"], size=len(tokens) - 1)
        rows.append(tokens[0] + "".join(sep + t for sep, t in zip(seps, tokens[1:])))
    return rows


DIGIT_BLOCKS = {
    "digits 0-9": ["a 0 1 2 3 4 5 6 7 8 9 x", "b 9 8 7 6 5 4 3 2 1 0 y"],
    "one feature": ["a 7 x", "b 0 y", "c\t1\tz"],
    "tab rows after space rows": ["a 1 0 1 x", "b\t0\t1\t1\ty", "c 1\t1 0\tz"],
    "single row": ["only 0 0 3 label"],
    "all zeros": ["a 0 0 x", "b 0 0 y"],
}


@pytest.mark.parametrize("case", sorted(DIGIT_BLOCKS))
def test_digit_rows_equal_the_c_parser(case):
    rows = DIGIT_BLOCKS[case]
    assert_same_bytes(digit_rows_of(rows), _parse_rows(rows, len(rows[0].split()))[:, 1:-1])


def test_random_digit_rows_equal_the_c_parser():
    rng = np.random.default_rng(14)
    for features in (1, 2, 5, 37, 400):
        for n in (1, 2, 17):
            rows = random_digit_rows(rng, n, features)
            want = _parse_rows(rows, features + 2)[:, 1:-1]
            assert_same_bytes(digit_rows_of(rows), want)


FALLBACK_CITES = "a b\nb c\nc d\nd e\ne f\nf a\nq a\n"
GOOD_ROWS = ["a 1 0 1 x", "b 0 1 0 y", "c 1 1 0 x", "d 0 0 1 y", "e 1 0 0 x", "f 0 1 1 y"]


def with_last_row_of_first_block(row):
    # blocks of three rows: the odd row is the last row of the first block
    return "\n".join(GOOD_ROWS[:2] + [row] + GOOD_ROWS[3:]) + "\n"


FALLBACK_CONTENT = {
    "two spaces": with_last_row_of_first_block("c 1  1 0 x"),
    "trailing tab": with_last_row_of_first_block("c 1 1 0 x\t"),
    "trailing blanks": with_last_row_of_first_block("c 1 1 0 x \t "),
    "leading blank": with_last_row_of_first_block(" c 1 1 0 x"),
    "leading blanks that shift the cut": with_last_row_of_first_block("  5 0 1 x"),
    "crlf": "\r\n".join(GOOD_ROWS) + "\r\n",
    "10": with_last_row_of_first_block("c 1 10 0 x"),
    "0.5": with_last_row_of_first_block("c 1 0.5 0 x"),
    "+1": with_last_row_of_first_block("c 1 +1 0 x"),
    "-0": with_last_row_of_first_block("c 1 -0 0 x"),
    "fullwidth digit": with_last_row_of_first_block("c 1 \uff11 0 x"),
    "underscore": with_last_row_of_first_block("c 1 1_0 0 x"),
    "letter": with_last_row_of_first_block("c 1 e 0 x"),
    "non-ASCII id": with_last_row_of_first_block("\u00e7 1 1 0 x"),
    "non-ASCII label": with_last_row_of_first_block("c 1 1 0 \u00e9"),
    "no-break space": with_last_row_of_first_block("c 1\u00a01 0 x"),
    "unit separator": with_last_row_of_first_block("c 1\x1f1 0 x"),
    "short row": with_last_row_of_first_block("c 1 1 x"),
    "long row": with_last_row_of_first_block("c 1 1 0 1 x"),
    "one token": with_last_row_of_first_block("c"),
}


def load_or_error(content, row_normalize):
    try:
        return load_content_cites(content, FALLBACK_CITES, row_normalize=row_normalize)
    except Exception as e:  # the type and the message are compared
        return type(e), str(e)


def assert_loads_as_the_c_parser_loads_it(content, monkeypatch):
    """The same dataset, or the same error, with and without the byte path."""
    for row_normalize in (True, False):
        got = load_or_error(content, row_normalize)
        with monkeypatch.context() as m:
            m.setattr(data_mod, "_digit_rows", lambda *args: None)
            want = load_or_error(content, row_normalize)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert_same_dataset(got, want)
        assert (got.node_names, got.class_names, got.dropped_edges) == (
            want.node_names, want.class_names, want.dropped_edges)


@pytest.mark.parametrize("case", sorted(FALLBACK_CONTENT))
def test_rows_of_another_shape_load_as_the_c_parser_loads_them(case, monkeypatch):
    content = FALLBACK_CONTENT[case]
    monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 8 * 5 * 3)
    rows = [line for line in content.splitlines() if line.strip()]
    if case != "crlf":
        assert digit_rows_of(rows[:3]) is None
        assert_same_bytes(digit_rows_of(rows[3:]), _parse_rows(rows[3:], 5)[:, 1:-1])
    assert_loads_as_the_c_parser_loads_it(content, monkeypatch)


def test_mutated_digit_rows_load_as_the_c_parser_loads_them(monkeypatch):
    # one character inserted, replaced or deleted anywhere in digit rows
    monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 8 * 5 * 3)
    text = "\n".join(GOOD_ROWS) + "\n"
    alphabet = list("0123456789 \t\x1f.+-_exy\r") + ["\u00a0", "\uff11", "\u00e9"]
    rng = np.random.default_rng(15)
    for _ in range(300):
        at = int(rng.integers(0, len(text)))
        kind, ch = rng.integers(0, 3), str(rng.choice(alphabet))
        mutated = (text[:at] + ch + text[at:] if kind == 0 else
                   text[:at] + ch + text[at + 1:] if kind == 1 else text[:at] + text[at + 1:])
        assert_loads_as_the_c_parser_loads_it(mutated, monkeypatch)


def test_binary_benchmark_graphs_load_without_the_c_parser(bench_gen, monkeypatch):
    calls = []

    def counting_parse(rows, arity):
        calls.append(len(rows))
        return _parse_rows(rows, arity)

    def unreachable(*args):
        raise AssertionError("_parse_rows was called")

    monkeypatch.setattr(data_mod, "_parse_rows", unreachable)
    for scale in ("cora", "citeseer"):
        content, cites, _ = bench_gen.generate(bench_gen.SCALES[scale], 501)
        ds = load_content_cites(content.decode(), cites.decode())
        assert ds.num_nodes == bench_gen.SCALES[scale].nodes
    # TF-IDF floats are not digits: every block goes to the C parser
    monkeypatch.setattr(data_mod, "_parse_rows", counting_parse)
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["pubmed3k"], 501)
    ds = load_content_cites(content.decode(), cites.decode())
    assert sum(calls) == ds.num_nodes


def _with_label(ds, node, label):
    labels = ds.labels.copy()
    labels[node] = label
    return labels


# (changes to planted_dataset(seed=7): 60 nodes, 3 classes; the error they raise)
BAD_DATASETS = {
    "label-equals-class-count": (lambda ds: {"labels": _with_label(ds, 4, 3)},
                                 r"^label 3 is outside \[0, class_count=3\)$"),
    "negative-label": (lambda ds: {"labels": _with_label(ds, 0, -1)},
                       r"^label -1 is outside \[0, class_count=3\)$"),
    "short-labels": (lambda ds: {"labels": ds.labels[:55]},
                     r"^labels must be a 1-D integer array of 60 entries, got int64 \(55,\)$"),
    "float-labels": (lambda ds: {"labels": ds.labels.astype(np.float64)},
                     r"^labels must be a 1-D integer array of 60 entries, got float64 \(60,\)$"),
    "list-labels": (lambda ds: {"labels": ds.labels.tolist()},
                    "^labels must be a 1-D integer array of 60 entries, got list$"),
    "short-features": (lambda ds: {"features": ds.features[:55]},
                       "^features have 55 rows for a graph of 60 nodes$"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_dataset_refuses_labels_or_features_that_do_not_fit_by_name(case):
    # each used to pass the split and fail later, unnamed: an IndexError in
    # the loss or the split, bincount's negative-element error, or the
    # model's operator mismatch
    ds = planted_dataset(seed=7)
    changes, message = BAD_DATASETS[case]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(ds, **changes(ds))


def test_dense_features_are_stored_with_their_signed_zeros():
    x = np.array([[0.0, -0.0, 2.0], [0.0, 0.0, 0.0], [-1.5, 0.0, 0.25]])
    ds = Dataset(graph=build_graph(3, []), features=x, labels=np.zeros(3, dtype=np.int64),
                 class_count=1)
    assert_canonical_csr(ds.features)
    assert ds.features.indptr.tolist() == [0, 2, 2, 4]
    assert_same_bytes(dense_bits(ds.features), x)
    # a sparse argument with unsorted and repeated columns is summed and sorted
    unsorted = sp.csr_array((np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 0, 2, 1]),
                             np.array([0, 3, 3, 4])), shape=(3, 3))
    assert not unsorted.has_canonical_format
    summed = Dataset(graph=ds.graph, features=unsorted, labels=ds.labels,
                     class_count=1).features
    assert_canonical_csr(summed)
    assert summed.indices.tolist() == [0, 2, 1]
    assert unsorted.indices.tolist() == [2, 0, 2, 1]  # the argument is not reordered
    assert_same_bytes(summed.toarray(), np.array([[2.0, 0, 4.0], [0, 0, 0], [0, 4.0, 0]]))


@pytest.mark.parametrize("indices, data, want", [
    ([0, 0, 1, 2], [1.0, 2.0, 3.0, 4.0], [[3.0, 0, 0], [0, 0, 0], [0, 3.0, 4.0]]),  # repeated
    ([2, 0, 1, 2], [1.0, 2.0, 3.0, 4.0], [[2.0, 0, 1.0], [0, 0, 0], [0, 3.0, 4.0]]),  # unsorted
])
def test_a_canonical_csr_is_kept_and_any_other_is_copied_canonical(indices, data, want):
    ds = planted_dataset(seed=7, n_per_class=1, classes=3)
    given = sp.csr_array((np.array(data), np.array(indices), np.array([0, 2, 2, 4])),
                         shape=(3, 3))
    assert not given.has_canonical_format
    features = dataclasses.replace(ds, features=given).features
    assert_canonical_csr(features)
    assert_same_bytes(features.toarray(), np.array(want))
    # the caller's arrays are not reordered or summed
    assert given.indices.tolist() == indices and given.data.tolist() == data
    # a canonical float64 CSR array is stored as it is given
    assert dataclasses.replace(ds, features=features).features is features


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


def loop_planetoid_split(labels, class_count, per_class, num_val, num_test, seed):
    """The per-node loop planetoid_split replaced: (train, val, test)."""
    perm = np.random.default_rng(seed).permutation(labels.size)
    taken = np.zeros(class_count, dtype=np.int64)
    train, rest = [], []
    for node in perm:
        c = labels[node]
        if taken[c] < per_class:
            taken[c] += 1
            train.append(node)
        else:
            rest.append(node)
    val, test = rest[:num_val], rest[num_val : num_val + num_test]
    return tuple(np.sort(np.array(part, dtype=np.int64)) for part in (train, val, test))


def test_planetoid_split_matches_the_per_node_loop():
    rng = np.random.default_rng(61)
    for _ in range(300):
        class_count = int(rng.integers(1, 8))
        per_class = int(rng.integers(1, 6))
        # every class has per_class nodes plus a random surplus, in a random order
        labels = rng.permutation(np.concatenate([
            np.full(per_class + int(rng.integers(0, 12)), c) for c in range(class_count)
        ])).astype(np.int64)
        spare = labels.size - per_class * class_count
        num_val = int(rng.integers(0, spare + 1))
        num_test = int(rng.integers(0, spare - num_val + 1))
        seed = int(rng.integers(0, 2**32))
        ds = SimpleNamespace(labels=labels, class_count=class_count, num_nodes=labels.size)
        got = planetoid_split(ds, per_class, num_val, num_test, seed=seed)
        want = loop_planetoid_split(labels, class_count, per_class, num_val, num_test, seed)
        for part, expected in zip((got.train, got.val, got.test), want):
            assert part.dtype == np.int64
            assert np.array_equal(part, expected)


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
    assert_same_features(a.features, b.features)


def test_bfs_subgraph_zero_size_rejected():
    ds = _line_dataset(4)
    with pytest.raises(ValueError, match="positive"):
        bfs_subgraph(ds, 0, 0)


def star_hubs(*degrees, weight=1.0):
    """Disjoint stars, one per entry of ``degrees``: hub i has that many leaves."""
    edges, n = [], 0
    for d in degrees:
        edges += [(n, n + j, weight) for j in range(1, d + 1)]
        n += d + 1
    return build_graph(n, edges)


def test_degree_filter_star():
    # the range is 3..6 with both ends kept: hubs of degree 3 and 6 only
    assert DEGREE_RANGE == (3, 6)
    assert list(degree_filtered_nodes(star_hubs(2, 3, 6, 7))) == [3, 7]


def test_degree_filter_path_empty():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert degree_filtered_nodes(g).size == 0


def test_degree_filter_counts_zero_weight_edges():
    assert list(degree_filtered_nodes(star_hubs(3, 6, weight=0.0))) == [0, 4]


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
    share = degree_filtered_nodes(ds.graph).size / ds.num_nodes
    assert 0.05 <= share <= 0.2  # "about 10%" of all nodes
