"""Seeded synthetic citation datasets written as ``.content``/``.cites`` text.

Each graph is a degree-corrected planted partition: nodes carry a class
label and a log-normal activity weight, every non-isolated node gets one
edge first (so only the designated isolated nodes have degree 0), and the
remaining edges join a weight-drawn endpoint to a partner from its own
class with probability ``homophily`` or from anywhere otherwise.  Feature
rows draw words from their class's slice of the vocabulary with
probability ``topic_share`` and from the whole vocabulary otherwise, with
Zipf-like word popularity in both.  Binary scales write 0/1 columns, the
TF-IDF scale writes weighted floats.

The same (scale, seed) always gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Scale:
    name: str
    nodes: int
    edges: int  # distinct undirected edges
    features: int
    class_weights: tuple  # relative class sizes
    words_per_node: float  # mean distinct-ish words drawn per node
    homophily: float  # share of edges drawn inside the source's class
    topic_share: float  # share of words drawn from the class vocabulary
    isolated: float = 0.0  # share of nodes with no edge at all
    degree_sigma: float = 1.0  # log-normal spread of node activity
    tfidf: bool = False


# Node and edge counts are scaled down from the originals (Cora 2708 / 5278,
# CiteSeer 3327 / 4552, PubMed 3-k subgraph 3000 / ~6000) keeping the mean
# degree; feature width, density and class balance follow the originals.
SCALES = {
    "cora": Scale(
        name="cora", nodes=700, edges=1364, features=1433,
        class_weights=(818, 426, 418, 351, 298, 217, 180),
        words_per_node=20.5, homophily=0.74, topic_share=0.28,
    ),
    "citeseer": Scale(
        name="citeseer", nodes=600, edges=821, features=3703,
        class_weights=(264, 590, 668, 701, 596, 508),
        words_per_node=36.5, homophily=0.70, topic_share=0.22,
        isolated=0.0145, degree_sigma=1.2,
    ),
    "pubmed3k": Scale(
        name="pubmed3k", nodes=800, edges=1600, features=500,
        class_weights=(4103, 7739, 7875),
        words_per_node=50.0, homophily=0.70, topic_share=0.08, tfidf=True,
    ),
}


def _zipf_cdf(size: int, exponent: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, size + 1) ** exponent
    return np.cumsum(w) / w.sum()


def _draw(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), cdf.size - 1)


def _partners(sources, labels, theta, homophily, rng):
    """One activity-weighted partner per source, same class w.p. homophily."""
    partners = np.empty(sources.size, dtype=np.int64)
    inside = rng.random(sources.size) < homophily
    anywhere = np.flatnonzero(theta > 0)
    cdf_all = np.cumsum(theta[anywhere]) / theta[anywhere].sum()
    partners[~inside] = anywhere[_draw(cdf_all, rng, int((~inside).sum()))]
    for c in np.unique(labels[sources[inside]]):
        members = np.flatnonzero((labels == c) & (theta > 0))
        cdf = np.cumsum(theta[members]) / theta[members].sum()
        pick = np.flatnonzero(inside & (labels[sources] == c))
        partners[pick] = members[_draw(cdf, rng, pick.size)]
    return partners


def _edges(scale: Scale, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = scale.nodes
    theta = rng.lognormal(0.0, scale.degree_sigma, size=n)
    iso = rng.choice(n, size=int(round(scale.isolated * n)), replace=False)
    theta[iso] = 0.0
    active = np.flatnonzero(theta > 0)
    cdf_active = np.cumsum(theta[active]) / theta[active].sum()

    keys = np.empty(0, dtype=np.int64)
    sources = active  # first pass: every active node gets an edge
    while True:
        partners = _partners(sources, labels, theta, scale.homophily, rng)
        lo, hi = np.minimum(sources, partners), np.maximum(sources, partners)
        batch = (lo * n + hi)[lo != hi]
        keys = np.concatenate([keys, batch])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # drop repeats, keep first-drawn order
        if keys.size >= scale.edges:
            keys = keys[: scale.edges]
            break
        sources = active[_draw(cdf_active, rng, 2 * (scale.edges - keys.size))]
    return np.stack([keys // n, keys % n], axis=1)


def _features(scale: Scale, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n, f = scale.nodes, scale.features
    classes = len(scale.class_weights)
    vocab = rng.permutation(f)
    topic = vocab[: (f // classes) * classes].reshape(classes, f // classes)
    background = rng.permutation(f)
    counts = np.maximum(rng.poisson(scale.words_per_node, size=n), 1)
    owner = np.repeat(np.arange(n), counts)
    from_topic = rng.random(owner.size) < scale.topic_share
    words = background[_draw(_zipf_cdf(f), rng, owner.size)]
    t_idx = _draw(_zipf_cdf(topic.shape[1], 0.7), rng, int(from_topic.sum()))
    words[from_topic] = topic[labels[owner[from_topic]], t_idx]
    tf = np.zeros((n, f), dtype=np.float64)
    np.add.at(tf, (owner, words), 1.0)
    if not scale.tfidf:
        return (tf > 0).astype(np.float64)
    df = np.count_nonzero(tf, axis=0)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    x = tf / tf.sum(axis=1, keepdims=True) * idf
    return np.round(x / np.linalg.norm(x, axis=1, keepdims=True), 5)


def _content_text(ids, x, label_names, binary: bool) -> bytes:
    rows = []
    if binary:
        body = np.full((x.shape[0], 2 * x.shape[1] - 1), ord(" "), dtype=np.uint8)
        body[:, 0::2] = x.astype(np.uint8) + ord("0")
        for i in range(x.shape[0]):
            rows.append(b"%s %s %s\n" % (ids[i], body[i].tobytes(), label_names[i]))
    else:
        cells = np.full(x.shape, "0", dtype=object)
        nz = np.nonzero(x)
        cells[nz] = [repr(float(v)) for v in x[nz]]
        for i in range(x.shape[0]):
            line = " ".join(cells[i])
            rows.append(b"%s %s %s\n" % (ids[i], line.encode(), label_names[i]))
    return b"".join(rows)


REVERSE_DUP = 0.03  # share of edges also cited the other way round


def generate(scale: Scale, seed: int) -> tuple[bytes, bytes, dict]:
    """Return (.content bytes, .cites bytes, stats) for one scale and seed."""
    rng = np.random.default_rng([int(seed), sum(scale.name.encode())])
    weights = np.asarray(scale.class_weights, dtype=np.float64)
    labels = rng.choice(weights.size, size=scale.nodes, p=weights / weights.sum())
    edges = _edges(scale, labels, rng)
    x = _features(scale, labels, rng)

    ids = [b"%d" % v for v in rng.choice(10 * scale.nodes + 10**5, scale.nodes, replace=False)]
    order = rng.permutation(scale.nodes)  # row order, so classes are interleaved
    label_names = [b"c%d" % c for c in labels]
    content = _content_text(
        [ids[i] for i in order], x[order], [label_names[i] for i in order],
        binary=not scale.tfidf,
    )

    flip = rng.random(len(edges)) < 0.5
    cited = np.where(flip, edges[:, 1], edges[:, 0])
    citing = np.where(flip, edges[:, 0], edges[:, 1])
    dup = rng.random(len(edges)) < REVERSE_DUP
    pairs = np.concatenate(
        [np.stack([cited, citing], 1), np.stack([citing[dup], cited[dup]], 1)]
    )
    pairs = pairs[rng.permutation(len(pairs))]
    cites = b"".join(b"%s %s\n" % (ids[u], ids[v]) for u, v in pairs)

    degree = np.bincount(edges.ravel(), minlength=scale.nodes)
    stats = {
        "scale": scale.name,
        "seed": int(seed),
        "nodes": scale.nodes,
        "edges": int(len(edges)),
        "cites_rows": int(len(pairs)),
        "isolated_nodes": int(np.sum(degree == 0)),
        "degree1_nodes": int(np.sum(degree == 1)),
        "features": scale.features,
        "feature_density": float(np.count_nonzero(x) / x.size),
        "classes": int(weights.size),
        "homophily": float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])),
    }
    return content, cites, stats


def write_dataset(scale: Scale, seed: int, out_dir: Path) -> tuple[Path, dict]:
    """Write ``<name>.content``/``<name>.cites`` under out_dir; return the
    path stem the harness's ``content-cites`` format expects, and stats."""
    content, cites, stats = generate(scale, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / scale.name
    stem.with_suffix(".content").write_bytes(content)
    stem.with_suffix(".cites").write_bytes(cites)
    return stem, stats
