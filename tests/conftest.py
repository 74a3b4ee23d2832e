"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from golden import PERFBENCH, load_perfbench
from rwnsgcn.data import Dataset
from rwnsgcn.graph import Graph, build_graph

DATA_DIR = Path(os.environ.get("RWNSGCN_DATA_DIR", Path(__file__).parent.parent / "data"))


def random_edge_list(rng: np.random.Generator, n: int, p: float, weighted: bool = False):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
                edges.append((i, j, w))
    return edges


def random_graph(rng: np.random.Generator, n: int, p: float, weighted: bool = False) -> Graph:
    return build_graph(n, random_edge_list(rng, n, p, weighted))


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v, w in g.edges():
        a[u, v] = w
        a[v, u] = w
    return a


def betweenness_dict(g: Graph, scores: np.ndarray) -> dict[tuple[int, int], float]:
    """``edge_betweenness`` scores keyed by their (u, v) edge, u < v."""
    assert scores.shape == (g.num_edges,)
    return {(u, v): s for (u, v, _), s in zip(g.edges(), scores.tolist())}


def assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    """Equal dtype, shape and bytes: unlike ``np.array_equal``, -0.0 != 0.0."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def dense_bits(x) -> np.ndarray:
    """A CSR array as a dense array with the bits of its stored entries.

    ``toarray()`` adds the stored entries to zeros, which turns a stored
    -0.0 into +0.0; this assigns them.
    """
    out = np.zeros(x.shape)
    out[np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices] = x.data
    return out


def floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs hop distances; disconnected pairs get +inf."""
    n = g.num_nodes
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, _ in g.edges():
        d[u, v] = 1.0
        d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def planted_dataset(
    seed: int = 7,
    n_per_class: int = 20,
    classes: int = 3,
    feature_dim: int = 12,
    p_in: float = 0.35,
    p_out: float = 0.03,
) -> Dataset:
    """Assortative block graph with class-correlated sparse features."""
    rng = np.random.default_rng(seed)
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if rng.random() < p:
                edges.append((i, j, 1.0))
    g = build_graph(n, edges)
    block = feature_dim // classes
    x = np.zeros((n, feature_dim))
    for i in range(n):
        idx = labels[i] * block + rng.integers(0, block, size=3)
        x[i, idx] = 1.0
    x = x / np.maximum(x.sum(axis=1, keepdims=True), 1.0)
    return Dataset(
        graph=g,
        features=x,
        labels=labels,
        class_count=classes,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _dataset_paths(name: str) -> tuple[Path, Path]:
    return DATA_DIR / f"{name}.content", DATA_DIR / f"{name}.cites"


def require_dataset(name: str) -> tuple[Path, Path]:
    content, cites = _dataset_paths(name)
    if not (content.exists() and cites.exists()):
        pytest.skip(
            f"{name} dataset files not present under {DATA_DIR} "
            f"(set RWNSGCN_DATA_DIR or place {name}.content/.cites there)"
        )
    return content, cites


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's seeded dataset generator, ``perfbench/gen.py``."""
    if not (PERFBENCH / "gen.py").exists():
        pytest.skip("perfbench/gen.py is not present")
    return load_perfbench("gen")
