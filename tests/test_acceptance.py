"""Acceptance gate.

Part 1 (always runs): oracle and property checks for every numeric
primitive, at the stated tolerances.

Part 2 (runs when dataset files are present, otherwise skips with an
explicit reason): desk-scale reproduction bands for Cora/CiteSeer, the
ablation and max-distance directions, and the paired attack-robustness
comparison on a PubMed subgraph.  Place the plain-text files under
./data or $RWNSGCN_DATA_DIR as cora.content/cora.cites, citeseer.*,
and pubmed.* (PubMed converted to the same layout).

Part 3 (always runs): byte-identical CSV determinism.

Each criterion prints one PASS/FAIL line; run with ``pytest -s`` to see
them as they complete.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from rwnsgcn.config import ExperimentConfig
from rwnsgcn.data import bfs_subgraph, load_content_cites_paths
from rwnsgcn.dpp import build_dpp_kernel, label_propagation
from rwnsgcn.graph import build_graph, sym_normalized_operator
from rwnsgcn.harness import (
    emit_report,
    run_attack_comparison,
    run_baseline,
    run_l_sweep,
)
from rwnsgcn.metrics import mad
from rwnsgcn.model import forward, init_params
from rwnsgcn.scoring import bfs_layers, pagerank_scores, rwr_scores

from conftest import DATA_DIR, floyd_warshall, planted_dataset, random_graph
from test_dpp import enumerate_kdpp, lockstep_subset_counts, make_candidates
from test_metrics import brute_force_mad
from test_model import finite_difference_check, plain_gcn_reference


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# =====================================================================
# Part 1: oracle / property suite
# =====================================================================


def test_bfs_layers_match_floyd_warshall_200_graphs():
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.3)))
        dists = floyd_warshall(g)
        depth = int(rng.integers(1, 8))
        fronts = bfs_layers(g, np.arange(n), depth)  # every node, one block
        assert len(fronts) == depth
        for l, front in enumerate(fronts, 1):
            assert np.array_equal(front.T, dists == l)
        checked += 1
    check("bfs-layers-vs-floyd-warshall", checked == 200, f"{checked} graphs exact")


def test_rwr_dense_oracle_and_probability_simplex():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 51))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.4)), weighted=True)
        alpha = float(rng.uniform(0.0, 0.95))
        r = rwr_scores(g, np.arange(n), alpha, tol=1e-12)  # every node, one block
        p = transition_dense(g)
        # column s is (1 - alpha) (I - alpha P^T)^{-1} e_s
        expected = (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * p.T, np.eye(n))
        worst = max(worst, float(np.max(np.abs(r - expected))))
        if not np.any(g.degrees == 0):
            assert np.all(np.abs(r.sum(axis=0) - 1.0) < 1e-6)
        pr = pagerank_scores(g, 0.85)
        assert abs(pr.sum() - 1.0) < 1e-6
    check("rwr-vs-dense-solve", worst < 1e-6, f"max |err| = {worst:.2e}")


def transition_dense(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v, w in g.edges():
        a[u, v] = w
        a[v, u] = w
    d = a.sum(axis=1)
    dinv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
    return dinv[:, None] * a


def _scenario(seed, n_nodes=15, feat=5):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, 0.3)
    x = rng.random((n_nodes, feat))
    comm = label_propagation(g, features=x, seed=seed)
    return g, x, comm


def test_dpp_kernel_psd_1000_candidate_sets():
    rng = np.random.default_rng(1003)
    min_eig = np.inf
    count = 0
    for graph_seed in range(50):
        _, x, comm = _scenario(graph_seed)
        for _ in range(20):
            size = int(rng.integers(1, 8))
            nodes = rng.choice(15, size=size, replace=False)
            kernel = build_dpp_kernel(
                int(rng.integers(0, 15)),
                make_candidates(nodes),
                x,
                comm,
                jitter=0.0,  # pre-jitter PSD is the claim under test
            )
            min_eig = min(min_eig, float(np.linalg.eigvalsh(kernel.L).min()))
            count += 1
    check(
        "dpp-kernel-psd-1000",
        count == 1000 and min_eig >= -1e-8,
        f"min eigenvalue {min_eig:.2e} over {count} kernels",
    )


def _random_psd_kernel(seed, n):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    L = b @ b.T + 0.3 * np.eye(n)
    from test_dpp import make_kernel

    return make_kernel(L)


@pytest.mark.parametrize(
    "seed,n,k",
    [(210, 4, 2), (211, 6, 3), (212, 5, 1)],
)
def test_kdpp_frequencies_match_enumeration(seed, n, k):
    kernel = _random_psd_kernel(seed, n)
    expected = enumerate_kdpp(kernel.L, k)
    n_draws = 150_000
    counts = lockstep_subset_counts(kernel, k, seed + 9000, n_draws)
    worst = 0.0
    checked = 0
    for subset, p in expected.items():
        if p >= 0.05:
            rel = abs(counts[subset] / n_draws - p) / p
            worst = max(worst, rel)
            checked += 1
    check(
        f"kdpp-frequencies-n{n}-k{k}",
        checked > 0 and worst <= 0.02,
        f"{checked} subsets with mass >= 0.05, worst rel err {worst:.3%} over {n_draws} draws",
    )


def test_gradient_check_20_instances():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        g = random_graph(rng, n, 0.5)
        worst = max(
            worst,
            finite_difference_check(
                g, [6, 5, 4], lam=float(rng.uniform(0.0, 0.8)), seed=trial
            ),
        )
    check("gradient-vs-central-differences", worst < 1e-4, f"max rel err {worst:.2e}")


def test_lambda_zero_equals_plain_gcn():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 12))
        g = random_graph(rng, n, 0.4)
        x = rng.random((n, 6))
        params = init_params([6, 5, 4], lam=0.0, seed=int(rng.integers(1000)))
        pos = sym_normalized_operator(g, self_loops=True)
        neg = sym_normalized_operator(build_graph(n, []), self_loops=False)
        got = forward(params, x, pos, neg).logits
        ref = plain_gcn_reference(g, x, params.W)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    check("lambda-zero-plain-gcn", worst < 1e-9, f"max |diff| = {worst:.2e}")


def test_mad_against_brute_force_20_sets():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(20):
        emb = rng.normal(size=(int(rng.integers(2, 25)), int(rng.integers(2, 7))))
        worst = max(worst, abs(mad(emb).value - brute_force_mad(emb)))
    check("mad-vs-brute-force", worst < 1e-9, f"max |diff| = {worst:.2e}")


# =====================================================================
# Part 2: desk-scale reproduction (skips without the dataset files)
# =====================================================================


def _load_named_dataset(name: str):
    content = DATA_DIR / f"{name}.content"
    cites = DATA_DIR / f"{name}.cites"
    if content.exists() and cites.exists():
        return load_content_cites_paths(content, cites)
    pytest.skip(
        f"{name} dataset not found: place {name}.content/{name}.cites "
        f"under {DATA_DIR} or set RWNSGCN_DATA_DIR"
    )


def _repro_config(**overrides) -> ExperimentConfig:
    base = dict(dataset_path="(loaded-in-fixture)", runs=10, epochs=200, base_seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def cora_reports():
    ds = _load_named_dataset("cora")
    cfg = _repro_config()
    out = {}
    print("\n[desk-scale] cora: negative-sampling model (10 runs x 200 epochs)")
    out["baseline"] = run_baseline(ds, cfg, label="cora/baseline")
    print("[desk-scale] cora: plain GCN")
    out["gcn"] = run_baseline(ds, replace(cfg, lam=0.0), label="cora/gcn")
    print("[desk-scale] cora: rwr-only / pgr-only")
    out["rwr"] = run_baseline(ds, replace(cfg, beta=1.0), label="cora/rwr-only")
    out["pgr"] = run_baseline(ds, replace(cfg, beta=0.0), label="cora/pgr-only")
    print("[desk-scale] cora: L=6 sweep point")
    out["l6"] = run_l_sweep(ds, cfg, l_values=(6,))[0]
    return out


@pytest.fixture(scope="module")
def citeseer_reports():
    ds = _load_named_dataset("citeseer")
    cfg = _repro_config()
    out = {}
    print("\n[desk-scale] citeseer: negative-sampling model")
    out["baseline"] = run_baseline(ds, cfg, label="citeseer/baseline")
    print("[desk-scale] citeseer: plain GCN")
    out["gcn"] = run_baseline(ds, replace(cfg, lam=0.0), label="citeseer/gcn")
    print("[desk-scale] citeseer: rwr-only / pgr-only")
    out["rwr"] = run_baseline(
        ds, replace(cfg, beta=1.0), label="citeseer/rwr-only"
    )
    out["pgr"] = run_baseline(
        ds, replace(cfg, beta=0.0), label="citeseer/pgr-only"
    )
    return out


@pytest.fixture(scope="module")
def pubmed_attack_reports():
    ds = _load_named_dataset("pubmed")
    seed_node = int(np.argmax(ds.graph.unweighted_degrees()))
    sub = bfs_subgraph(ds, seed_node, 3000)
    cfg = _repro_config(sources="degree-range")  # unweighted degree 3..6
    print("\n[desk-scale] pubmed subgraph: paired attack comparison")
    return run_attack_comparison(
        sub, cfg, attack_grid=[("ctbca", 0.10), ("twpa", 0.5)]
    )


def _pct(x: float) -> float:
    return 100.0 * x


def test_cora_accuracy_band(cora_reports):
    mean = _pct(cora_reports["baseline"].aggregates["accuracy_mean"])
    std = _pct(cora_reports["baseline"].aggregates["accuracy_std"])
    check(
        "cora-accuracy-band",
        74.5 <= mean <= 84.5,
        f"mean {mean:.2f} +/- {std:.2f}, band [74.5, 84.5]",
    )


def test_citeseer_accuracy_band(citeseer_reports):
    mean = _pct(citeseer_reports["baseline"].aggregates["accuracy_mean"])
    std = _pct(citeseer_reports["baseline"].aggregates["accuracy_std"])
    check(
        "citeseer-accuracy-band",
        64.5 <= mean <= 74.0,
        f"mean {mean:.2f} +/- {std:.2f}, band [64.5, 74.0]",
    )


def test_plain_gcn_band_and_gaps(cora_reports, citeseer_reports):
    gcn_cora = _pct(cora_reports["gcn"].aggregates["accuracy_mean"])
    check("cora-plain-gcn-band", 52.0 <= gcn_cora <= 72.0, f"mean {gcn_cora:.2f}, band [52, 72]")
    gap_cora = _pct(cora_reports["baseline"].aggregates["accuracy_mean"]) - gcn_cora
    check("cora-gap-over-gcn", gap_cora >= 5.0, f"gap {gap_cora:.2f} >= 5")
    gap_cs = _pct(citeseer_reports["baseline"].aggregates["accuracy_mean"]) - _pct(
        citeseer_reports["gcn"].aggregates["accuracy_mean"]
    )
    check("citeseer-gap-over-gcn", gap_cs >= 4.0, f"gap {gap_cs:.2f} >= 4")


def test_ablation_direction(cora_reports, citeseer_reports):
    for name, reports in (("cora", cora_reports), ("citeseer", citeseer_reports)):
        combined = _pct(reports["baseline"].aggregates["accuracy_mean"])
        rwr = _pct(reports["rwr"].aggregates["accuracy_mean"])
        pgr = _pct(reports["pgr"].aggregates["accuracy_mean"])
        check(
            f"{name}-ablation-direction",
            combined >= rwr - 1.0 and combined >= pgr - 1.0,
            f"combined {combined:.2f} vs rwr {rwr:.2f} / pgr {pgr:.2f} (slack 1.0)",
        )


def test_l_sensitivity(cora_reports):
    l5 = _pct(cora_reports["baseline"].aggregates["accuracy_mean"])
    l6 = _pct(cora_reports["l6"].aggregates["accuracy_mean"])
    check("cora-l5-vs-l6", l5 >= l6, f"L=5 mean {l5:.2f} >= L=6 mean {l6:.2f}")


def test_attack_robustness(pubmed_attack_reports):
    for report in pubmed_attack_reports:
        wins = sum(row["rwnsgcn_no_worse"] for row in report.rows)
        check(
            f"attack-robustness-{report.label.split('/')[-1]}",
            wins >= 8,
            f"degradation no worse than plain GCN in {wins}/10 paired runs",
        )


# =====================================================================
# Part 3: determinism
# =====================================================================


def test_identical_config_gives_byte_identical_csv(tmp_path):
    ds = planted_dataset(seed=7)
    cfg = ExperimentConfig(
        dataset_path="(in-memory)",
        per_class=3,
        num_val=12,
        num_test=24,
        layers=3,
        hidden=12,
        epochs=15,
        runs=3,
        lam=0.1,
        k_dpp=2,
    )
    first = run_baseline(ds, cfg)
    second = run_baseline(ds, cfg)
    p1, _ = emit_report([first], tmp_path / "a", stem="out")
    p2, _ = emit_report([second], tmp_path / "b", stem="out")
    same = p1.read_bytes() == p2.read_bytes()
    check("byte-identical-csv", same, f"{p1.stat().st_size} bytes compared")
