"""Citation-network ingestion, splits, and subgraph extraction.

A dataset sits on disk as the plain-text pair of files published with
the classic citation benchmarks, and in no other format:

* ``.content``: one row per node, whitespace separated:
  ``<id> <f_1> ... <f_F> <label>``
* ``.cites``: one row per directed citation, ``<cited> <citing>``
  (merged to a single undirected edge).

``save_content_cites`` writes the same pair, so a derived dataset (an
extracted subgraph, say) is read back by the same loader.

Features are a float64 ``scipy.sparse.csr_array`` from the parse on: the
loader parses rows in blocks of about ``_BLOCK_BYTES``, keeps only their
non-zero entries and normalises those, so no dense N x F matrix is ever
held.  A block of bag-of-words rows (one-digit tokens, one space or tab
between tokens) is read straight from its bytes; any other block goes to
``np.loadtxt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from rwnsgcn.graph import Graph, build_graph

__all__ = [
    "Dataset",
    "SplitMasks",
    "load_content_cites",
    "load_content_cites_paths",
    "save_content_cites",
    "planetoid_split",
    "bfs_subgraph",
    "degree_filtered_nodes",
]


def _stored_entries(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row counts, column ids and values of every entry of the dense
    2-D ``x`` whose bits are not those of +0.0 (so a -0.0 keeps its sign)."""
    stored = x.view(np.uint64) != 0
    # flat positions: one index array instead of nonzero's row and column pair
    at = np.flatnonzero(stored)
    return np.count_nonzero(stored, axis=1), at % x.shape[1], x.ravel()[at]


def _csr(blocks: list, shape: tuple[int, int]) -> sp.csr_array:
    """One CSR array from the ``_stored_entries`` of consecutive row blocks."""
    counts, cols, vals = (np.concatenate(p) for p in zip(*blocks))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sp.csr_array((vals, cols, indptr), shape=shape)


def _features_csr(x) -> sp.csr_array:
    """``x`` as a canonical float64 CSR array (sorted column ids, no duplicates).

    A dense ``x`` stores every entry that is not +0.0, so a -0.0 keeps its
    sign (``toarray()`` adds stored entries to zeros and loses it; assigning
    them keeps it).  A float64 CSR array already in canonical format is
    returned as it is given, so a dataset rebuilt with ``replace`` shares
    it; any other sparse ``x`` is copied, so the caller's arrays are never
    reordered.
    """
    if isinstance(x, sp.csr_array) and x.dtype == np.float64 and x.has_canonical_format:
        return x
    if sp.issparse(x):
        x = sp.csr_array(x, dtype=np.float64, copy=True)
        x.sum_duplicates()
        return x
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    return _csr([_stored_entries(x)], x.shape)


@dataclass(frozen=True, eq=False)
class Dataset:
    graph: Graph
    features: sp.csr_array  # N x F, float64, canonical; dense input is converted once
    labels: np.ndarray  # N, integer, values in [0, class_count)
    class_count: int
    node_names: list[str] | None = None
    class_names: list[str] | None = None
    dropped_edges: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _features_csr(self.features))
        # checked when built, so an inconsistent record fails before any stage
        n, labels = self.num_nodes, self.labels
        if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu"
                and labels.shape == (n,)):
            got = (f"{labels.dtype} {labels.shape}" if isinstance(labels, np.ndarray)
                   else type(labels).__name__)
            raise ValueError(f"labels must be a 1-D integer array of {n} entries, got {got}")
        outside = (labels < 0) | (labels >= self.class_count)
        if outside.any():
            raise ValueError(f"label {labels[outside][0]} is outside "
                             f"[0, class_count={self.class_count})")
        if self.features.shape[0] != n:
            raise ValueError(f"features have {self.features.shape[0]} rows "
                             f"for a graph of {n} nodes")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class SplitMasks:
    """Pairwise-disjoint train/val/test node-id arrays."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


# float64 bytes of one parsed row block: small next to the whole table, and
# large enough that the per-call cost of np.loadtxt stays out of sight
_BLOCK_BYTES = 1 << 20


def _skip(token: str) -> float:
    return 0.0


def _parse_rows(rows: list[str], arity: int) -> np.ndarray:
    """numpy's C tokenizer over whole rows: an (n, arity) float64 table whose
    id and label columns read 0.  The converters, unlike ``usecols``, keep
    loadtxt's check that every row has ``arity`` columns."""
    skip = {0: _skip, arity - 1: _skip}
    return np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2, converters=skip)


def _digit_rows(rows: list[str], ids: list[str], labels: list[str], features: int):
    """The (n, features) float64 table of ``rows`` read straight from their
    bytes, or None unless every row is ASCII text made of its id, then
    ``features`` one-digit tokens, then its label, with one space or tab
    between each two tokens.  A digit d reads as d.0, the value np.loadtxt
    gives it; rows of any other shape are left to ``_parse_rows``."""
    width = 2 * features + 1  # a separator before each digit, and one after the last
    middles = []
    for line, name, label in zip(rows, ids, labels):
        middle = line[len(name) : len(line) - len(label)]
        # a leading or trailing blank would shift the cut
        if len(middle) != width or not (
            line.isascii() and line.startswith(name) and line.endswith(label)
        ):
            return None
        middles.append(middle)
    cells = np.frombuffer("".join(middles).encode(), dtype=np.uint8).reshape(len(rows), width)
    seps, digits = cells[:, 0::2], cells[:, 1::2] - np.uint8(ord("0"))
    if not ((digits < 10).all() and ((seps == ord(" ")) | (seps == ord("\t"))).all()):
        return None
    return digits.astype(np.float64)


def _c_parses(token: str) -> bool:
    try:
        np.loadtxt([token], dtype=np.float64, comments=None)
    except ValueError:
        return False
    return True


def _raise_first_bad_row(content_text: str) -> None:
    """Raise the message of the first malformed content row.

    Row numbers are 1-based and count blank lines.  Returns (without a
    dataset) only when every row is well formed.
    """
    seen: set[str] = set()
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
        if name in seen:
            raise ValueError(f"content row {lineno}: duplicate node id {name!r}")
        seen.add(name)
        try:
            values = _parse_rows([line], arity)[0, 1:-1]
        except ValueError:
            # float()'s wording, also for '1_0' and '１', which float() reads
            bad = next(t for t in parts[1:-1] if not _c_parses(t))
            raise ValueError(
                f"content row {lineno}: could not convert string to float: {bad!r}"
            ) from None
        finite = np.isfinite(values)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ValueError(
                f"content row {lineno}: non-finite feature {values[j]} in column {j + 2}"
            )


def load_content_cites(
    content_text: str,
    cites_text: str,
    row_normalize: bool = True,
) -> Dataset:
    """Parse node/feature/label rows plus citation rows into a Dataset.

    Node ids are mapped to dense indices in first-appearance order and
    label strings to class ids in lexicographic order.  Citation rows
    mentioning unknown ids are dropped (the count is recorded on the
    result).  A malformed content row (a changed column count, a duplicate
    id, a token numpy's C parser cannot read, or a non-finite feature)
    raises ``ValueError`` naming its 1-based line.
    """
    rows = [line for line in content_text.splitlines() if line and not line.isspace()]
    if not rows:
        raise ValueError("content text contains no rows")
    arity = len(rows[0].split())
    if arity < 3:
        _raise_first_bad_row(content_text)
    ids = [line.split(None, 1)[0] for line in rows]
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        _raise_first_bad_row(content_text)

    # [-1]: a one-token row is cut to nothing by _digit_rows and then named
    # by _raise_first_bad_row
    label_strs = [line.rsplit(None, 1)[-1] for line in rows]

    n = len(ids)
    step = max(1, _BLOCK_BYTES // (8 * arity))
    blocks = []
    for start in range(0, n, step):
        part = slice(start, start + step)
        block = _digit_rows(rows[part], ids[part], label_strs[part], arity - 2)
        if block is None:
            try:
                table = _parse_rows(rows[part], arity)
            except ValueError:
                _raise_first_bad_row(content_text)
                raise
            if not np.isfinite(table).all():
                _raise_first_bad_row(content_text)
            block = table[:, 1:-1]
        counts, cols, vals = _stored_entries(block)
        if row_normalize:
            # each row by its sum (1 if not positive); a zero divides to
            # itself, so dividing only the stored entries gives the bits of
            # dividing the whole dense block
            sums = block.sum(axis=1)
            vals = vals / np.repeat(np.where(sums > 0, sums, 1.0), counts)
        blocks.append((counts, cols, vals))
    features = _csr(blocks, (n, arity - 2))
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
        node_names=ids,
        class_names=class_names,
        dropped_edges=dropped,
    )


def load_content_cites_paths(
    content_path: str | Path,
    cites_path: str | Path,
    row_normalize: bool = True,
) -> Dataset:
    content = Path(content_path).read_text(encoding="utf-8")
    cites = Path(cites_path).read_text(encoding="utf-8")
    return load_content_cites(content, cites, row_normalize=row_normalize)


def _class_names(count: int) -> list[str]:
    """Zero-padded class ids: sorted as strings they keep their numeric order."""
    width = len(str(max(count - 1, 0)))
    return [f"{c:0{width}d}" for c in range(count)]


def save_content_cites(ds: Dataset, prefix: str | Path) -> None:
    """Write ``<prefix>.content`` and ``<prefix>.cites``.

    Content rows are the node id (``node_names``, or the index), each
    feature as ``repr(float)`` so it reads back bit for bit, and the class
    name (``class_names``, or the class id zero-padded to one width, so the
    sorted names keep the order of the ids).  Cites rows are the
    undirected edges, one row each.  The format has no weights, so a graph
    with any weight other than 1 raises ``ValueError``.  Loading the pair
    maps classes to ids in sorted-name order and keeps only the classes
    that some node has.
    """
    u, v, w = ds.graph.edge_arrays()
    if (w != 1.0).any():
        k = int(np.argmax(w != 1.0))
        raise ValueError(
            f"edge ({u[k]}, {v[k]}) has weight {w[k]}; .cites rows carry no "
            "weights, so only a graph with unit weights can be saved"
        )
    names = ds.node_names or [str(i) for i in range(ds.num_nodes)]
    classes = ds.class_names or _class_names(ds.class_count)
    x = ds.features
    zeros = [repr(0.0)] * x.shape[1]
    bounds, cols, vals = x.indptr.tolist(), x.indices.tolist(), list(map(repr, x.data.tolist()))
    lines = []
    for i, (name, label) in enumerate(zip(names, ds.labels.tolist())):
        row = zeros.copy()
        for j in range(bounds[i], bounds[i + 1]):
            row[cols[j]] = vals[j]
        lines.append("\t".join([name, *row, classes[label]]) + "\n")
    content = "".join(lines)
    cites = "".join(f"{names[a]}\t{names[b]}\n" for a, b in zip(u.tolist(), v.tolist()))
    Path(f"{prefix}.content").write_text(content, encoding="utf-8")
    Path(f"{prefix}.cites").write_text(cites, encoding="utf-8")


def check_split(ds: Dataset, per_class: int, num_val: int, num_test: int) -> np.ndarray:
    """The class sizes of ``ds`` if ``planetoid_split`` can cut this split
    from it for every seed; raises ``ValueError`` otherwise."""
    counts = np.bincount(ds.labels, minlength=ds.class_count)
    for c, cnt in enumerate(counts):
        if cnt < per_class:
            raise ValueError(f"class {c} has only {cnt} nodes, fewer than per_class={per_class}")
    rest = ds.num_nodes - per_class * counts.size  # each class gives per_class train nodes
    if rest < num_val + num_test:
        raise ValueError(f"not enough nodes left for val+test: have {rest}, "
                         f"need {num_val + num_test}")
    return counts


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
    counts = check_split(ds, per_class, num_val, num_test)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.num_nodes)
    # each node's rank inside its class along the shuffle: a stable sort
    # by class keeps the shuffle order within every class
    shuffled = labels[perm]
    by_class = np.argsort(shuffled, kind="stable")
    class_start = np.cumsum(counts) - counts
    rank = np.empty(perm.size, dtype=np.int64)
    rank[by_class] = np.arange(perm.size) - class_start[shuffled[by_class]]
    in_train = rank < per_class
    rest = perm[~in_train]
    return SplitMasks(
        train=np.sort(perm[in_train]),
        val=np.sort(rest[:num_val]),
        test=np.sort(rest[num_val : num_val + num_test]),
    )


def bfs_subgraph(ds: Dataset, seed_node: int, target_size: int) -> Dataset:
    """Induced subgraph over the first ``target_size`` BFS-collected nodes.

    The frontier expands in ascending-id order and may be cut mid-level;
    when the seed's component is exhausted the walk restarts from the
    lowest-id unvisited node.  Selected nodes are reindexed in ascending
    original-id order.  The subgraph keeps only the classes its nodes have,
    with ids in sorted-name order (``class_names``, or the zero-padded ids
    ``save_content_cites`` writes), as loading the saved subgraph gives.
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
    # only the classes present, with ids in sorted-name order, as the loader
    # gives them when the subgraph is saved and loaded again
    names = ds.class_names or _class_names(ds.class_count)
    labels = ds.labels[keep]
    class_names = sorted({names[c] for c in np.unique(labels).tolist()})
    class_index = {name: i for i, name in enumerate(class_names)}
    relabel = np.array([class_index.get(name, -1) for name in names], dtype=np.int64)
    return Dataset(
        graph=sub_graph,
        features=ds.features[keep],
        labels=relabel[labels],
        class_count=len(class_names),
        node_names=[ds.node_names[i] for i in keep] if ds.node_names else None,
        class_names=class_names,
    )


# the unweighted degrees of the nodes ``sources="degree-range"`` scores, both ends kept
DEGREE_RANGE = (3, 6)


def degree_filtered_nodes(g: Graph) -> np.ndarray:
    """Node ids whose unweighted degree lies in DEGREE_RANGE, both ends included."""
    lo, hi = DEGREE_RANGE
    deg = g.unweighted_degrees()
    return np.flatnonzero((deg >= lo) & (deg <= hi))
