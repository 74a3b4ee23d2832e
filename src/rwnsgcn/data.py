"""Citation-network ingestion, splits, and subgraph extraction.

Canonical external format is the plain-text pair of files published with
the classic citation benchmarks:

* ``.content``: one row per node, whitespace separated:
  ``<id> <f_1> ... <f_F> <label>``
* ``.cites``: one row per directed citation, ``<cited> <citing>``
  (merged to a single undirected edge).

A JSON bundle format is provided for caching converted or derived
datasets (attack-perturbed graphs, extracted subgraphs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rwnsgcn.graph import Graph, build_graph

__all__ = [
    "Dataset",
    "SplitMasks",
    "load_content_cites",
    "load_content_cites_paths",
    "load_json_bundle",
    "save_json_bundle",
    "planetoid_split",
    "bfs_subgraph",
    "degree_filtered_nodes",
]

BUNDLE_KEYS = ("num_nodes", "edges", "features", "labels", "class_names")


@dataclass(frozen=True, eq=False)
class Dataset:
    graph: Graph
    features: np.ndarray  # N x F, float64
    labels: np.ndarray  # N, int64, values in [0, class_count)
    class_count: int
    feature_dim: int
    node_names: list[str] | None = None
    class_names: list[str] | None = None
    dropped_edges: int = 0

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


@dataclass(frozen=True, eq=False)
class SplitMasks:
    """Pairwise-disjoint train/val/test node-id arrays."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


def _row_normalize(x: np.ndarray) -> np.ndarray:
    sums = x.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    return x / safe


def load_content_cites(
    content_text: str,
    cites_text: str,
    row_normalize: bool = True,
) -> Dataset:
    """Parse node/feature/label rows plus citation rows into a Dataset.

    Node ids are mapped to dense indices in first-appearance order and
    label strings to class ids in lexicographic order.  Citation rows
    mentioning unknown ids are dropped (the count is recorded on the
    result).
    """
    ids: list[str] = []
    index: dict[str, int] = {}
    feat_rows: list[np.ndarray] = []
    label_strs: list[str] = []
    arity: int | None = None
    for lineno, line in enumerate(content_text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if arity is None:
            arity = len(parts)
            if arity < 3:
                raise ValueError(
                    f"content row {lineno}: expected at least id, one feature and a label"
                )
        elif len(parts) != arity:
            raise ValueError(
                f"content row {lineno}: {len(parts)} columns, expected {arity}"
            )
        name = parts[0]
        if name in index:
            raise ValueError(f"content row {lineno}: duplicate node id {name!r}")
        index[name] = len(ids)
        ids.append(name)
        # one C-level conversion per row; the row's strings are freed at once
        feat_rows.append(np.array(parts[1:-1], dtype=np.float64))
        label_strs.append(parts[-1])
    if not ids:
        raise ValueError("content text contains no rows")

    n = len(ids)
    features = np.vstack(feat_rows)
    if row_normalize:
        features = _row_normalize(features)
    class_names = sorted(set(label_strs))
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[s] for s in label_strs], dtype=np.int64)

    cite_rows = [parts for parts in map(str.split, cites_text.splitlines()) if parts]
    pairs = np.array(
        [[index.get(p[0], -1), index.get(p[1], -1)] for p in cite_rows if len(p) == 2],
        dtype=np.int64,
    ).reshape(-1, 2)
    known = pairs[(pairs >= 0).all(axis=1)]
    dropped = len(cite_rows) - len(known)
    graph = build_graph(n, known)
    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        class_count=len(class_names),
        feature_dim=features.shape[1],
        node_names=ids,
        class_names=class_names,
        dropped_edges=dropped,
    )


def load_content_cites_paths(
    content_path: str | Path,
    cites_path: str | Path,
    row_normalize: bool = True,
) -> Dataset:
    content = Path(content_path).read_text()
    cites = Path(cites_path).read_text()
    return load_content_cites(content, cites, row_normalize=row_normalize)


def save_json_bundle(ds: Dataset, path: str | Path) -> None:
    """Write the dataset as a JSON bundle (floats keep full precision)."""
    bundle = {
        "num_nodes": ds.num_nodes,
        "edges": [[u, v, w] for u, v, w in ds.graph.edges()],
        "features": ds.features.tolist(),
        "labels": ds.labels.tolist(),
        "class_names": list(ds.class_names)
        if ds.class_names is not None
        else [str(c) for c in range(ds.class_count)],
    }
    Path(path).write_text(json.dumps(bundle))


def load_json_bundle(path: str | Path) -> Dataset:
    """Load a JSON bundle; raises ValueError naming any missing field."""
    raw = json.loads(Path(path).read_text())
    for key in BUNDLE_KEYS:
        if key not in raw:
            raise ValueError(f"bundle missing required field {key!r}")
    n = int(raw["num_nodes"])
    graph = build_graph(n, raw["edges"])
    features = np.array(raw["features"], dtype=np.float64)
    if features.size == 0:
        features = features.reshape(n, 0)
    if features.shape[0] != n:
        raise ValueError(
            f"bundle field 'features' has {features.shape[0]} rows for {n} nodes"
        )
    labels = np.array(raw["labels"], dtype=np.int64)
    if labels.shape[0] != n:
        raise ValueError(f"bundle field 'labels' has {labels.shape[0]} entries for {n} nodes")
    class_names = [str(c) for c in raw["class_names"]]
    if labels.size and not 0 <= labels.min() <= labels.max() < len(class_names):
        raise ValueError(
            f"bundle field 'labels' has values outside [0, {len(class_names)}) "
            f"for {len(class_names)} class names"
        )
    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        class_count=len(class_names),
        feature_dim=features.shape[1],
        node_names=None,
        class_names=class_names,
    )


def planetoid_split(
    ds: Dataset,
    per_class: int = 20,
    num_val: int = 500,
    num_test: int = 1000,
    seed: int = 0,
) -> SplitMasks:
    """Class-balanced train nodes plus val/test pools, all seed-driven.

    Nodes are shuffled once; the first ``per_class`` of each class become
    the train set, then the next ``num_val`` / ``num_test`` unused nodes
    become val / test.
    """
    labels = ds.labels
    counts = np.bincount(labels, minlength=ds.class_count)
    for c, cnt in enumerate(counts):
        if cnt < per_class:
            raise ValueError(
                f"class {c} has only {cnt} nodes, fewer than per_class={per_class}"
            )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.num_nodes)
    taken = np.zeros(ds.class_count, dtype=np.int64)
    train = []
    rest = []
    for node in perm:
        c = labels[node]
        if taken[c] < per_class:
            taken[c] += 1
            train.append(node)
        else:
            rest.append(node)
    if len(rest) < num_val + num_test:
        raise ValueError(
            f"not enough nodes left for val+test: have {len(rest)}, need {num_val + num_test}"
        )
    val = rest[:num_val]
    test = rest[num_val : num_val + num_test]
    return SplitMasks(
        train=np.sort(np.array(train, dtype=np.int64)),
        val=np.sort(np.array(val, dtype=np.int64)),
        test=np.sort(np.array(test, dtype=np.int64)),
        seed=seed,
    )


def bfs_subgraph(ds: Dataset, seed_node: int, target_size: int) -> Dataset:
    """Induced subgraph over the first ``target_size`` BFS-collected nodes.

    The frontier expands in ascending-id order and may be cut mid-level;
    when the seed's component is exhausted the walk restarts from the
    lowest-id unvisited node.  Selected nodes are reindexed in ascending
    original-id order.
    """
    n = ds.num_nodes
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    if target_size > n:
        raise ValueError(f"target_size {target_size} exceeds graph size {n}")
    if not 0 <= seed_node < n:
        raise ValueError(f"seed_node {seed_node} out of range")
    g = ds.graph
    visited = np.zeros(n, dtype=bool)
    visited[seed_node] = True
    selected: list[int] = [int(seed_node)]
    frontier = np.array([seed_node], dtype=np.int64)
    while len(selected) < target_size:
        # sorted: ascending-id order within the level
        cand = np.unique(g.indices[g.neighbor_positions(frontier)])
        cand = cand[~visited[cand]]
        if cand.size == 0:
            cand = np.flatnonzero(~visited)[:1]  # restart at lowest unvisited id
        room = target_size - len(selected)
        chosen = cand[:room]
        visited[chosen] = True
        selected.extend(int(v) for v in chosen)
        frontier = chosen

    keep = np.sort(np.array(selected, dtype=np.int64))
    remap = -np.ones(n, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    u, v, w = g.edge_arrays()
    inside = (remap[u] >= 0) & (remap[v] >= 0)
    sub_graph = build_graph(
        keep.size, np.column_stack((remap[u[inside]], remap[v[inside]], w[inside]))
    )
    return Dataset(
        graph=sub_graph,
        features=ds.features[keep].copy(),
        labels=ds.labels[keep].copy(),
        class_count=ds.class_count,
        feature_dim=ds.feature_dim,
        node_names=[ds.node_names[i] for i in keep] if ds.node_names else None,
        class_names=ds.class_names,
    )


def degree_filtered_nodes(g: Graph, lo: int = 3, hi: int = 6) -> np.ndarray:
    """Node ids whose unweighted degree d satisfies lo <= d <= hi."""
    if lo > hi:
        raise ValueError(f"lo={lo} exceeds hi={hi}")
    deg = g.unweighted_degrees()
    return np.flatnonzero((deg >= lo) & (deg <= hi))
