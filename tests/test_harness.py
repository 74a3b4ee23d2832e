import dataclasses
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rwnsgcn import cli, harness
from rwnsgcn.config import ExperimentConfig, config_hash, derive_seed, substream
from rwnsgcn.data import load_content_cites, planetoid_split, save_content_cites
from rwnsgcn.graph import sym_normalized_operator
from rwnsgcn.harness import (
    emit_report,
    run_ablation,
    run_attack_comparison,
    run_baseline,
    run_l_sweep,
)
from rwnsgcn.metrics import mad
from rwnsgcn.model import predict

from conftest import assert_same_bytes, planted_dataset

FAST = dict(
    per_class=3,
    num_val=12,
    num_test=24,
    layers=3,
    hidden=12,
    epochs=15,
    runs=2,
    lam=0.1,
    k_dpp=2,
)


def fast_config(**overrides) -> ExperimentConfig:
    merged = {**FAST, **overrides}
    return ExperimentConfig(dataset_path="(in-memory)", **merged)


# ------------------------------------------------------------------- config


def test_config_hash_changes_with_seed():
    a = fast_config(base_seed=0)
    b = fast_config(base_seed=1)
    assert config_hash(a.to_dict()) != config_hash(b.to_dict())
    assert config_hash(a.to_dict()) == config_hash(fast_config(base_seed=0).to_dict())


def test_config_round_trip():
    cfg = fast_config(levels=(2, 3), beta=0.25)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_hashes_one_levels_tuple_per_pick():
    # the scoring reads levels as a sorted set, so orders and repeats of the
    # same set are one configuration with one hash; from_dict and
    # with_overrides hand levels to the constructor untouched
    same = [ExperimentConfig(levels=(4, 2, 2)), ExperimentConfig(levels=[2, 4]),
            ExperimentConfig(levels=[4, 2, 2]), ExperimentConfig().with_overrides(levels=[4, 2, 2]),
            ExperimentConfig().with_overrides(levels=[4, 4, 2]),
            ExperimentConfig.from_dict({"levels": [4, 2, 2]}),
            ExperimentConfig.from_dict({"levels": [4, 2]})]
    for cfg in same:
        assert cfg.levels == (2, 4)
        assert config_hash(cfg.to_dict()) == "0c15f2a626bc331b"
    # the default was already sorted, so sorting the levels leaves its hash alone
    assert ExperimentConfig().levels == (2, 3, 4)
    assert config_hash(ExperimentConfig().to_dict()) == "59e982be9641c9c0"
    assert config_hash(ExperimentConfig(levels=(4, 3, 2, 3)).to_dict()) == "59e982be9641c9c0"


def test_levels_none_fails_on_every_way_in():
    for make in (lambda: ExperimentConfig(levels=None),
                 lambda: ExperimentConfig.from_dict({"levels": None}),
                 lambda: ExperimentConfig().with_overrides(levels=None)):
        with pytest.raises(TypeError, match="'NoneType' object is not iterable"):
            make()


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"no_such_field": 1})


def _unreachable(*args, **kwargs):
    raise AssertionError("work started for an unusable config")


@pytest.mark.parametrize(
    "field",
    ["runs", "epochs", "layers", "num_val", "num_test", "per_class", "hidden", "k_dpp",
     "k_per_level"],
)
@pytest.mark.parametrize("value", [0, -2])
def test_config_rejects_fewer_than_one(field, value, monkeypatch):
    # runs=0 would write nan aggregates, num_val=0 or num_test=0 would fail
    # only in train() or accuracy() after scoring and kernels, epochs or
    # layers < 1 train nothing, and per_class, hidden, k_dpp or k_per_level
    # < 1 would fail only after scoring
    monkeypatch.setattr(harness, "score_all_sources", _unreachable)
    monkeypatch.setattr(harness, "edge_betweenness", _unreachable)
    message = f"^{field} must be at least 1, got {value}$"
    ds = planted_dataset(seed=7)
    with pytest.raises(ValueError, match=message):
        run_baseline(ds, fast_config(**{field: value}))
    with pytest.raises(ValueError, match=message):
        run_attack_comparison(ds, fast_config().with_overrides(**{field: value}))
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({**fast_config().to_dict(), field: value})


@pytest.mark.parametrize("field, value", [("attack_kind", "ctbca"), ("attack_intensity", 0.1)])
def test_config_has_no_attack_fields(field, value):
    # an attack cell's report names its attack; a config configures only
    # the computation, so it cannot claim an attack its runs did not make
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
        fast_config(**{field: value})
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
        fast_config().with_overrides(**{field: value})
    with pytest.raises(ValueError, match=rf"^unknown config fields: \['{field}'\]$"):
        ExperimentConfig.from_dict({**fast_config().to_dict(), field: value})


# (overrides, message): the scoring and sampler messages, raised when the
# config is built.  Without these checks an unknown sampler failed only
# after the candidate fill, beta 1.5 after PageRank and the first block's
# walks, and with lam = 0 a bad beta or level trained to the end and was
# hashed into the report
UNUSABLE = {
    "sampler": ({"sampler": "foo"}, "^unknown sampling method 'foo'$"),
    "sources": ({"sources": "foo"}, "^unknown sources mode 'foo'$"),
    "no-levels": ({"levels": ()}, "^levels must name at least one layer$"),
    "level-0": ({"levels": (0,)}, r"^level 0 is below 2 \(layer 1 is reserved for positives"),
    "level-1": ({"levels": (3, 1)}, "^level 1 is below 2"),
    "beta-above": ({"beta": 1.5}, r"^beta must be in \[0, 1\]$"),
    "beta-below": ({"beta": -0.1}, r"^beta must be in \[0, 1\]$"),
    "alpha-one": ({"alpha": 1.0}, r"^alpha must be in \[0, 1\)$"),
    "alpha-below": ({"alpha": -0.1}, r"^alpha must be in \[0, 1\)$"),
}


@pytest.mark.parametrize("case", UNUSABLE)
@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_config_rejects_unusable_scoring_and_sampling_fields(case, lam, monkeypatch):
    for work in ("score_all_sources", "score_picks", "train"):
        monkeypatch.setattr(harness, work, _unreachable)
    overrides, message = UNUSABLE[case]
    ds = planted_dataset(seed=7)
    with pytest.raises(ValueError, match=message):
        run_baseline(ds, fast_config(lam=lam, **overrides))
    with pytest.raises(ValueError, match=message):
        run_ablation(ds, fast_config(lam=lam).with_overrides(**overrides))
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({**fast_config(lam=lam).to_dict(), **overrides})


# (overrides, message): values the harness would otherwise train on or
# fail with late.  lr = 0 and lam = -1 trained to a reported accuracy,
# dropout 1.0 and lr = nan failed only inside train after the candidate
# fill, num_test = 1 only in mad after training, and an impossible split
# only in planetoid_split after the fill
UNUSABLE_RUNS = {
    "lr-zero": ({"lr": 0.0}, r"^lr must be finite and above 0, got 0.0$"),
    "lr-below": ({"lr": -1.0}, r"^lr must be finite and above 0, got -1.0$"),
    "lr-nan": ({"lr": float("nan")}, r"^lr must be finite and above 0, got nan$"),
    "lr-inf": ({"lr": float("inf")}, r"^lr must be finite and above 0, got inf$"),
    "lam-below": ({"lam": -1.0}, r"^lam must be finite and at least 0, got -1.0$"),
    "lam-nan": ({"lam": float("nan")}, r"^lam must be finite and at least 0, got nan$"),
    "lam-inf": ({"lam": float("inf")}, r"^lam must be finite and at least 0, got inf$"),
    "dropout-one": ({"dropout": 1.0}, r"^dropout must be in \[0, 1\), got 1.0$"),
    "dropout-below": ({"dropout": -0.1}, r"^dropout must be in \[0, 1\), got -0.1$"),
    "dropout-nan": ({"dropout": float("nan")}, r"^dropout must be in \[0, 1\), got nan$"),
    "num-test-one": ({"num_test": 1},
                     "^num_test must be at least 2, the fewest rows MAD can take, got 1$"),
}
# the planted dataset has 60 nodes in 3 classes of 20
UNUSABLE_SPLITS = {
    "per-class": ({"per_class": 21}, "^class 0 has only 20 nodes, fewer than per_class=21$"),
    "val-test": ({"num_val": 30, "num_test": 30},
                 "^not enough nodes left for val\\+test: have 51, need 60$"),
}


@pytest.mark.parametrize("case", [*UNUSABLE_RUNS, *UNUSABLE_SPLITS])
def test_unusable_runs_fail_before_any_work(case, monkeypatch):
    for work in ("score_all_sources", "score_picks", "train", "edge_betweenness"):
        monkeypatch.setattr(harness, work, _unreachable)
    overrides, message = {**UNUSABLE_RUNS, **UNUSABLE_SPLITS}[case]
    ds = planted_dataset(seed=7)
    with pytest.raises(ValueError, match=message):
        run_baseline(ds, fast_config(**overrides))
    with pytest.raises(ValueError, match=message):
        run_ablation(ds, fast_config().with_overrides(**overrides))
    with pytest.raises(ValueError, match=message):
        run_l_sweep(ds, fast_config().with_overrides(**overrides), l_values=(4, 5))
    with pytest.raises(ValueError, match=message):
        run_attack_comparison(ds, fast_config().with_overrides(**overrides))
    if case in UNUSABLE_RUNS:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**fast_config().to_dict(), **overrides})


def test_load_dataset_rejects_another_format():
    # a config saved when JSON bundles were a second format
    cfg = ExperimentConfig(dataset_path="cache/cora.json", dataset_format="bundle")
    message = "^dataset_format 'bundle' is not supported; datasets are 'content-cites' pairs"
    with pytest.raises(ValueError, match=message):
        harness.load_dataset(cfg)


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(3, "split") == derive_seed(3, "split")
    assert derive_seed(3, "split") != derive_seed(3, "model")
    assert derive_seed(3, "dpp", 0) != derive_seed(3, "dpp", 1)
    # generator streams reproduce
    assert substream(5, "x").random() == substream(5, "x").random()


# ------------------------------------------------------------------- runs


def test_baseline_report_structure():
    ds = planted_dataset(seed=7)
    report = run_baseline(ds, fast_config())
    assert len(report.rows) == 2
    assert set(report.aggregates) == {
        "accuracy_mean",
        "accuracy_std",
        "mad_mean",
        "mad_std",
    }
    accs = [row["accuracy"] for row in report.rows]
    assert report.aggregates["accuracy_mean"] == pytest.approx(np.mean(accs), abs=1e-12)
    assert report.aggregates["accuracy_std"] == pytest.approx(np.std(accs, ddof=1), abs=1e-12)


def test_baseline_learns_planted_partition():
    ds = planted_dataset(seed=7)
    report = run_baseline(ds, fast_config(epochs=40))
    assert report.aggregates["accuracy_mean"] > 0.8


def test_plain_gcn_variant_skips_sampling():
    ds = planted_dataset(seed=7)
    report = run_baseline(ds, fast_config(lam=0.0))
    assert "sampling" not in report.timings
    assert len(report.rows) == 2


def test_identical_configs_give_identical_rows():
    ds = planted_dataset(seed=7)
    cfg = fast_config()
    r1 = run_baseline(ds, cfg)
    r2 = run_baseline(ds, cfg)
    assert r1.rows == r2.rows


def test_an_attack_reports_config_is_the_config_plus_its_cell():
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=1, epochs=4)
    grid = [("ctbca", 0.1), ("twpa", 0.5)]
    for rep, (kind, intensity) in zip(run_attack_comparison(ds, cfg, attack_grid=grid), grid):
        assert rep.config == {**cfg.to_dict(), "attack_kind": kind, "attack_intensity": intensity}
        assert rep.config_hash == config_hash(rep.config)
        # a baseline would train on the clean graph under the attacked
        # cell's hash, so its config does not load
        with pytest.raises(ValueError, match=r"^unknown config fields: \['attack_intensity', "
                                             r"'attack_kind'\]$"):
            ExperimentConfig.from_dict(rep.config)
    # the hash of the default config's ctbca 0.1 cell
    attacked = {**ExperimentConfig().to_dict(), "attack_kind": "ctbca", "attack_intensity": 0.1}
    assert config_hash(attacked) == "2c851daa7401521c"


def test_an_empty_attack_grid_trains_nothing(monkeypatch):
    for work in ("score_all_sources", "train", "edge_betweenness"):
        monkeypatch.setattr(harness, work, _unreachable)
    with pytest.raises(ValueError, match="^empty attack grid$"):
        run_attack_comparison(planted_dataset(seed=7), fast_config(), attack_grid=[])


def test_twpa_sigma_zero_matches_clean_bit_for_bit():
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=2)
    reports = run_attack_comparison(ds, cfg, attack_grid=[("twpa", 0.0)])
    (report,) = reports
    for row in report.rows:
        assert row["attacked_accuracy_rwnsgcn"] == row["clean_accuracy_rwnsgcn"]
        assert row["attacked_accuracy_gcn"] == row["clean_accuracy_gcn"]


def test_attack_comparison_row_schema():
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=1, epochs=8)
    reports = run_attack_comparison(
        ds, cfg, attack_grid=[("ctbca", 0.1), ("twpa", 0.5)]
    )
    assert [r.label for r in reports] == ["attack/ctbca@0.1", "attack/twpa@0.5"]
    for rep in reports:
        for row in rep.rows:
            assert row["degradation_rwnsgcn"] == pytest.approx(
                row["clean_accuracy_rwnsgcn"] - row["attacked_accuracy_rwnsgcn"]
            )
            assert row["rwnsgcn_no_worse"] in (0, 1)


class _TickClock:
    """Stands in for the harness's ``time`` module: each reading is 1.0 later."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


def test_attack_reports_time_only_their_own_cell(monkeypatch):
    monkeypatch.setattr(harness, "time", _TickClock())
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=1, epochs=4)
    ctbca, twpa = run_attack_comparison(
        ds, cfg, attack_grid=[("ctbca", 0.1), ("twpa", 0.5)]
    )
    # every timed block lasts one tick; each report covers the two clean
    # trainings plus its own cell's two attacked ones
    assert ctbca.timings["training"] == 4.0
    assert twpa.timings["training"] == 4.0
    assert ctbca.timings["betweenness"] == 1.0
    assert "betweenness" not in twpa.timings


def test_clean_variants_report_the_shared_scoring_time_once(monkeypatch):
    monkeypatch.setattr(harness, "time", _TickClock())
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=2, epochs=4)
    reports = run_ablation(ds, cfg) + run_l_sweep(ds, cfg, l_values=(4, 5))
    assert len(reports) == 5
    for rep in reports:
        # every timed block lasts one tick: each call scores the graph once,
        # and each report adds only its own two runs
        assert rep.timings["scoring"] == 1.0
        assert rep.timings["sampling"] == 2.0
        assert rep.timings["training"] == 2.0


def test_clean_variants_without_negatives_score_nothing(monkeypatch):
    for work in ("score_all_sources", "score_picks"):
        monkeypatch.setattr(harness, work, _unreachable)
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=1, epochs=4, lam=0.0)
    reports = run_ablation(ds, cfg) + run_l_sweep(ds, cfg, l_values=(4, 5))
    assert len(reports) == 5
    assert all("scoring" not in rep.timings for rep in reports)


def test_ablation_and_sweep_walk_each_block_once(bench_gen, monkeypatch):
    import rwnsgcn.scoring as scoring

    content, cites, _ = bench_gen.generate(bench_gen.SCALES["cora"], 501)
    ds = load_content_cites(content.decode(), cites.decode())
    cfg = ExperimentConfig(dataset_path="(generated)", runs=1, epochs=3, num_val=200,
                           num_test=300, base_seed=501)
    walked = []
    for name in ("bfs_layers", "rwr_scores"):
        real = getattr(scoring, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            walked.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(scoring, name, spy)
    blocks = -(-ds.num_nodes // 64)  # every node is a source, 64 to a block
    ablation = run_ablation(ds, cfg)
    assert sorted(walked) == ["bfs_layers"] * blocks + ["rwr_scores"] * blocks
    walked.clear()
    sweep = run_l_sweep(ds, cfg, l_values=(5, 6))
    assert sorted(walked) == ["bfs_layers"] * blocks + ["rwr_scores"] * blocks
    monkeypatch.undo()
    # each variant's rows are those of a baseline scored on its own
    for rep in ablation + sweep:
        alone = run_baseline(ds, ExperimentConfig.from_dict(rep.config), label=rep.label)
        assert (rep.config_hash, rep.rows) == (alone.config_hash, alone.rows)


def test_ablation_variants_share_per_run_seeds():
    ds = planted_dataset(seed=7)
    reports = run_ablation(ds, fast_config(runs=1, epochs=8))
    assert [r.label for r in reports] == [
        "ablate/combined",
        "ablate/rwr-only",
        "ablate/pgr-only",
    ]
    betas = [r.config["beta"] for r in reports]
    assert betas == [0.5, 1.0, 0.0]
    first_rows = [r.rows[0] for r in reports]
    assert len({row["split_seed"] for row in first_rows}) == 1
    assert len({row["model_seed"] for row in first_rows}) == 1


def test_l_sweep_levels_follow_distance():
    ds = planted_dataset(seed=7)
    reports = run_l_sweep(ds, fast_config(runs=1, epochs=8), l_values=(5, 6))
    assert [r.label for r in reports] == ["sweep-l/L=5", "sweep-l/L=6"]
    assert reports[0].config["levels"] == [2, 3, 4]
    assert reports[1].config["levels"] == [2, 3, 4, 5]


def test_l_sweep_rejects_degenerate_distance():
    ds = planted_dataset(seed=7)
    with pytest.raises(ValueError, match="no candidate levels"):
        run_l_sweep(ds, fast_config(), l_values=(1,))


@pytest.mark.parametrize(
    "grid, message",
    [
        ([("ctbca", 1.5)], "ctbca intensity must be a fraction"),
        ([("twpa", -0.5)], "twpa intensity"),
        ([("ctbca", 0.1), ("foo", 0.1)], "unknown attack kind 'foo'"),
    ],
)
def test_attack_comparison_checks_every_cell_before_the_first_run(monkeypatch, grid, message):
    for work in ("score_all_sources", "train", "edge_betweenness", "apply_attack"):
        monkeypatch.setattr(harness, work, _unreachable)
    with pytest.raises(ValueError, match=message):
        run_attack_comparison(planted_dataset(seed=7), fast_config(), attack_grid=grid)


def test_l_sweep_checks_every_distance_before_the_first_run(monkeypatch):
    for work in ("run_baseline", "score_all_sources", "score_picks", "train"):
        monkeypatch.setattr(harness, work, _unreachable)
    with pytest.raises(ValueError, match="^L=2 leaves no candidate levels"):
        run_l_sweep(planted_dataset(seed=7), fast_config(), l_values=(5, 2))


def test_resampling_schedule_is_deterministic_and_changes_draws():
    ds = planted_dataset(seed=7)
    static_cfg = fast_config(runs=1, epochs=12)
    resample_cfg = fast_config(runs=1, epochs=12, resample_every=4)
    r_static = run_baseline(ds, static_cfg)
    r1 = run_baseline(ds, resample_cfg)
    r2 = run_baseline(ds, resample_cfg)
    assert r1.rows == r2.rows  # epoch-tagged streams keep runs reproducible
    assert r1.config_hash != r_static.config_hash


def _recording(monkeypatch, name):
    """Replace ``harness.<name>`` by a wrapper that keeps each call's
    arguments and result, in call order."""
    calls = []
    original = getattr(harness, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(harness, name, wrapper)
    return calls


def test_resampling_builds_each_kernel_once_per_run(monkeypatch):
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=2, epochs=12, resample_every=3, k_per_level=2)
    built = []
    original = harness.build_negative_kernels

    def recording(*args, **kwargs):
        kernels = original(*args, **kwargs)
        built.append(sorted(kernels))
        return kernels

    monkeypatch.setattr(harness, "build_negative_kernels", recording)
    draws = _recording(monkeypatch, "draw_negative_samples")
    fills = _recording(monkeypatch, "score_all_sources")
    run_baseline(ds, cfg)
    ((_, cands),) = fills
    choosing = [s for s, cs in cands.items() if len(cs) > cfg.k_dpp]
    assert choosing  # some draws really choose
    assert len(draws) == cfg.runs * 4  # the first draw and three redraws per run
    # one build per run, with a kernel for exactly the choosing sources
    assert built == [sorted(choosing)] * cfg.runs


def test_back_to_back_baselines_score_once_each(monkeypatch):
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=3, epochs=5)
    fills = _recording(monkeypatch, "score_all_sources")
    first = run_baseline(ds, cfg)
    assert len(fills) == 1
    second = run_baseline(ds, cfg)
    assert len(fills) == 2  # nothing is kept from the first call
    assert first.rows == second.rows


def test_attack_comparison_scores_each_distinct_graph_once(monkeypatch):
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=3, epochs=4)
    attacked = _recording(monkeypatch, "apply_attack")
    fills = _recording(monkeypatch, "score_all_sources")
    run_attack_comparison(ds, cfg, attack_grid=[("ctbca", 0.1), ("twpa", 0.5)])
    fingerprint = harness._graph_fingerprint
    perturbed = [g for _, g in attacked]
    distinct = {fingerprint(g) for g in perturbed} - {fingerprint(ds.graph)}
    assert len(perturbed) == 2 * cfg.runs
    assert len(distinct) < len(perturbed)  # some perturbed graph repeats
    assert len(fills) == 1 + len(distinct)
    scored = [fingerprint(args[0]) for args, _ in fills]
    assert scored[0] == fingerprint(ds.graph)
    assert set(scored[1:]) == distinct


def test_attack_comparison_plain_gcn_arms_neither_score_nor_propagate(monkeypatch):
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=2, epochs=4, k_per_level=2)
    grid = [("ctbca", 0.1), ("twpa", 0.5)]
    fills = _recording(monkeypatch, "score_all_sources")
    communities = _recording(monkeypatch, "label_propagation")
    run_attack_comparison(ds, cfg.with_overrides(lam=0.0), attack_grid=grid)
    assert fills == [] and communities == []
    run_attack_comparison(ds, cfg, attack_grid=grid)
    # one community search per negative-sampling run: the clean runs and
    # each attack cell's runs; the paired plain-GCN runs add none
    assert len(communities) == cfg.runs * (1 + len(grid))


def test_label_propagation_runs_only_when_some_draw_chooses(monkeypatch):
    ds = planted_dataset(seed=7)
    defaults = ExperimentConfig()

    def unreachable(*args, **kwargs):
        raise AssertionError("label propagation ran for forced draws only")

    monkeypatch.setattr(harness, "label_propagation", unreachable)
    # default k_per_level and k_dpp: at most one candidate per level and
    # three levels, so every draw keeps all its candidates
    cfg = fast_config(
        runs=2, epochs=4, k_per_level=defaults.k_per_level, k_dpp=defaults.k_dpp
    )
    run_baseline(ds, cfg)
    monkeypatch.undo()

    communities = _recording(monkeypatch, "label_propagation")
    run_baseline(ds, cfg.with_overrides(k_per_level=2))
    assert len(communities) == cfg.runs


# ------------------------------------------- evaluation of the best epoch


def _fresh_predict(ds, config, negatives, best):
    """The evaluation the harness ran before train() returned its best
    epoch's outputs: rebuild both operators and predict from the CSR
    features with the best weights over the given negative graph."""
    pos_op = sym_normalized_operator(ds.graph, self_loops=True)
    neg_op = sym_normalized_operator(negatives, self_loops=False)
    return predict(best.params, ds.features, pos_op, neg_op)


BEST_EPOCH_CASES = {
    "seed-501": (501, {}),
    "seed-601": (601, {}),
    "resampled": (501, {"k_per_level": 2, "resample_every": 4}),
    "lambda-0": (501, {"lam": 0.0}),
    "one-layer": (501, {"layers": 1}),
}


@pytest.mark.parametrize("case", BEST_EPOCH_CASES)
def test_best_epoch_outputs_match_a_fresh_predict(case, bench_gen, monkeypatch):
    seed, overrides = BEST_EPOCH_CASES[case]
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["cora"], seed)
    ds = load_content_cites(content.decode(), cites.decode())
    cfg = ExperimentConfig(dataset_path="(generated)", runs=1, epochs=30, num_val=200,
                           num_test=300, base_seed=seed, **overrides)
    trainings = []
    original = harness.train

    def recording(*args, **kwargs):
        best = original(*args, **kwargs)
        trainings.append((args, kwargs["negatives_schedule"], best))
        return best

    monkeypatch.setattr(harness, "train", recording)
    report = run_baseline(ds, cfg)
    ((args, schedule, best),) = trainings
    negatives = args[2]
    if case == "resampled":  # the best epoch trained on a redrawn graph
        assert best.best_epoch >= cfg.resample_every
    for epoch in range(best.best_epoch + 1):  # replay the seeded redraws
        redrawn = schedule(epoch) if schedule is not None else None
        negatives = negatives if redrawn is None else redrawn
    preds, embeddings = _fresh_predict(ds, cfg, negatives, best)
    assert_same_bytes(best.preds, preds)
    if case == "one-layer":  # sparse features go straight to the classifier
        assert sp.issparse(ds.features)
        assert best.embeddings is embeddings is ds.features  # no dense copy
    else:
        assert_same_bytes(best.embeddings, embeddings)
    assert len(best.train_loss) == len(best.val_acc) == cfg.epochs
    assert best.val_acc[best.best_epoch] == best.best_val_acc == max(best.val_acc)
    assert report.rows[0]["best_epoch"] == best.best_epoch


def test_one_layer_baseline_holds_no_dense_feature_matrix(bench_gen, monkeypatch):
    # one layer: the classifier reads the CSR features directly, the
    # embeddings are those features, and only the test rows are made
    # dense, for MAD
    content, cites, _ = bench_gen.generate(bench_gen.SCALES["citeseer"], 501)
    ds = load_content_cites(content.decode(), cites.decode())
    cfg = ExperimentConfig(dataset_path="(generated)", runs=1, epochs=10, num_val=150,
                           num_test=300, base_seed=501, layers=1)
    trainings, mad_rows = [], []
    original = harness.train

    def traced_train(*args, **kwargs):
        tracemalloc.start()
        try:
            best = original(*args, **kwargs)
            trainings.append((best, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return best

    def recording_mad(rows):
        mad_rows.append(rows)
        return mad(rows)

    monkeypatch.setattr(harness, "train", traced_train)
    monkeypatch.setattr(harness, "mad", recording_mad)
    (row,) = run_baseline(ds, cfg).rows
    ((best, peak),), (rows,) = trainings, mad_rows
    assert best.embeddings is ds.features
    assert peak < 0.25 * ds.num_nodes * ds.feature_dim * 8
    assert isinstance(rows, np.ndarray) and rows.shape == (cfg.num_test, ds.feature_dim)
    # the MAD of the test rows of the whole densified matrix, as before
    masks = planetoid_split(ds, per_class=cfg.per_class, num_val=cfg.num_val,
                            num_test=cfg.num_test, seed=row["split_seed"])
    assert row["mad"] == mad(ds.features.toarray()[masks.test]).value


# ---------------------------------------------------------------- reporting


def test_emit_report_row_counts(tmp_path):
    ds = planted_dataset(seed=7)
    report = run_baseline(ds, fast_config(runs=2, epochs=5))
    csv_path, json_path = emit_report([report], tmp_path, stem="r")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 2 + 1  # header + runs + aggregate
    for line in lines[1:]:
        assert line.startswith(report.config_hash + ",")  # hash on every row
    payload = json.loads(json_path.read_text())
    assert payload[0]["aggregates"] == report.aggregates


def test_negatives_dump_written(tmp_path):
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=1, epochs=5)
    run_baseline(ds, cfg, dump_negatives_dir=tmp_path / "dumps")
    dumps = sorted((tmp_path / "dumps").glob("negatives-run*.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text())
    assert payload["config_hash"] == config_hash(cfg.to_dict())
    assert all(isinstance(v, list) for v in payload["negatives"].values())


def test_emit_report_deterministic_bytes(tmp_path):
    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=2, epochs=5)
    r1 = run_baseline(ds, cfg)
    r2 = run_baseline(ds, cfg)
    p1, _ = emit_report([r1], tmp_path / "a", stem="out")
    p2, _ = emit_report([r2], tmp_path / "b", stem="out")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)


def test_emit_report_rejects_unknown_formats_before_writing(tmp_path):
    report = run_baseline(planted_dataset(seed=7), fast_config(runs=1, epochs=2))
    for formats in (("xml",), ("csv", "json", "xml")):
        with pytest.raises(ValueError, match=r"^unknown report formats: \['xml'\]$"):
            emit_report([report], tmp_path / "out", formats=formats)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------- CLI


def run_cli(*args, cwd=None, interpreter_flags=()):
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "rwnsgcn.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def toy_prefix(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("toy") / "toy"
    save_content_cites(planted_dataset(seed=7), prefix)
    return prefix


def test_cli_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    # every text file names its encoding: with the locale's default an
    # EncodingWarning, here an error, fails the command
    ds = planted_dataset(seed=7)
    ds = dataclasses.replace(ds, node_names=[f"nœud-{i}" for i in range(ds.num_nodes)],
                             class_names=["théorie", "Übung", "数据"])
    save_content_cites(ds, tmp_path / "toy")
    strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    res = run_cli("prepare", "--content", tmp_path / "toy.content",
                  "--cites", tmp_path / "toy.cites", "--out", tmp_path / "prepared",
                  interpreter_flags=strict)
    assert res.returncode == 0, res.stderr
    content = (tmp_path / "prepared.content").read_text(encoding="utf-8")
    assert content.startswith("nœud-0\t") and "数据" in content
    out = tmp_path / "res"
    res = run_cli("baseline", "--dataset-path", tmp_path / "prepared", "--per-class", 3,
                  "--num-val", 12, "--num-test", 24, "--layers", 3, "--hidden", 12,
                  "--epochs", 5, "--runs", 2, "--k-dpp", 2, "--out", out,
                  interpreter_flags=strict)
    assert res.returncode == 0, res.stderr
    res = run_cli("report", out / "baseline.json", "--out", tmp_path / "again",
                  interpreter_flags=strict)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "again" / "report.csv").read_bytes() == (out / "baseline.csv").read_bytes()


def test_cli_prepare_and_baseline(tmp_path, toy_prefix):
    prepared = tmp_path / "toy50"
    res = run_cli(
        "prepare", "--content", f"{toy_prefix}.content", "--cites", f"{toy_prefix}.cites",
        "--subgraph-size", "50", "--out", str(prepared),
    )
    assert res.returncode == 0, res.stderr
    info = json.loads(res.stdout)
    assert info["dataset_path"] == str(prepared)
    assert (info["num_nodes"], info["classes"], info["feature_dim"]) == (50, 3, 12)
    assert (tmp_path / "toy50.content").read_text().count("\n") == 50

    out = tmp_path / "results"
    res = run_cli(
        "baseline",
        "--dataset-path", str(prepared),
        "--per-class", "3", "--num-val", "12", "--num-test", "24",
        "--layers", "3", "--hidden", "12", "--epochs", "5", "--runs", "1",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert (out / "baseline.csv").exists()
    summary = json.loads(res.stdout.splitlines()[-1])
    assert "accuracy_mean" in summary


def test_cli_flags_override_config_file(tmp_path, toy_prefix):
    cfg_file = tmp_path / "cfg.json"
    cfg = ExperimentConfig(
        dataset_path=str(toy_prefix), **{**FAST, "epochs": 5, "runs": 1}
    )
    cfg_file.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "res"
    res = run_cli(
        "baseline", "--config", str(cfg_file), "--runs", "2", "--out", str(out)
    )
    assert res.returncode == 0, res.stderr
    lines = (out / "baseline.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 1  # flag value (2 runs) won over the file (1)


def test_cli_error_is_machine_readable(tmp_path):
    res = run_cli("baseline", "--dataset-path", str(tmp_path / "missing"))
    assert res.returncode == 1
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert "error" in err


def test_config_flags_mirror_the_config_fields():
    # one flag per field; dataset_format has none, since load_dataset
    # reads one format only
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert len(fields) == 21
    assert sorted(dest for _, dest, _, _ in cli._CONFIG_FLAGS) == sorted(
        set(fields) - {"dataset_format"})


RETIRED_FLAGS = [["--jitter", "1e-8"], ["--degree-lo", "3"], ["--degree-hi", "6"],
                 ["--row-normalize"], ["--no-row-normalize"], ["--gcn-self-loops"],
                 ["--no-gcn-self-loops"]]
BAD_ARGV = {
    "bad-int": (["baseline", "--runs", "abc"], "argument --runs: invalid int value: 'abc'"),
    "bad-float": (["attack", "--alpha", "x"], "argument --alpha: invalid float value: 'x'"),
    "bad-levels": (["ablate", "--levels", "2,x"],
                   "argument --levels: invalid _ints value: '2,x'"),
    "unknown-flag": (["baseline", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    "no-subcommand": ([], "the following arguments are required: command"),
    **{flag[0]: (["baseline", *flag], f"unrecognized arguments: {' '.join(flag)}")
       for flag in RETIRED_FLAGS},
}


@pytest.mark.parametrize("case", BAD_ARGV)
def test_cli_argument_errors_are_one_json_line(case, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_dataset", _unreachable)
    argv, message = BAD_ARGV[case]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [json.dumps({"error": f"ArgumentError: {message}"})]


def test_cli_argument_error_exits_1_and_help_exits_0():
    res = run_cli("baseline", "--runs", "abc")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.splitlines() == [
        '{"error": "ArgumentError: argument --runs: invalid int value: \'abc\'"}'
    ]
    res = run_cli("baseline", "--help")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.startswith("usage: rwnsgcn baseline")


def test_cli_rejects_removed_cache_dir_field(tmp_path, toy_prefix):
    cfg_file = tmp_path / "cfg.json"
    raw = ExperimentConfig(dataset_path=str(toy_prefix), runs=1).to_dict()
    cfg_file.write_text(json.dumps({**raw, "cache_dir": str(tmp_path / "cache")}))
    res = run_cli("baseline", "--config", str(cfg_file), "--out", str(tmp_path / "res"))
    assert res.returncode == 1
    assert res.stderr.strip().splitlines()[-1] == (
        '{"error": "ValueError: unknown config fields: [\'cache_dir\']"}'
    )


@pytest.mark.parametrize("field, value", [
    ("l_max", 5), ("pgr_mode", "converged"),
    # retired with their defaults as constants: self loops on the positive
    # operator, row-normalised features, jitter 1e-8, degree-range 3..6
    ("gcn_self_loops", True), ("row_normalize", True), ("jitter", 1e-8),
    ("degree_lo", 3), ("degree_hi", 6),
])
def test_cli_rejects_removed_scoring_fields(tmp_path, toy_prefix, field, value):
    # a config saved before these fields were removed fails by name, even
    # with the value the program now fixes; it is not dropped silently
    cfg_file = tmp_path / "old.json"
    raw = ExperimentConfig(dataset_path=str(toy_prefix), runs=1).to_dict()
    cfg_file.write_text(json.dumps({**raw, field: value}))
    res = run_cli("baseline", "--config", str(cfg_file), "--out", str(tmp_path / "res"))
    assert res.returncode == 1
    assert res.stderr.strip().splitlines() == [
        f'{{"error": "ValueError: unknown config fields: [\'{field}\']"}}'
    ]
    assert not (tmp_path / "res").exists()


def test_cli_rejects_an_unknown_sampler_in_one_line(tmp_path, toy_prefix):
    res = run_cli(
        "ablate", "--dataset-path", str(toy_prefix), "--sampler", "foo",
        "--out", str(tmp_path / "results"),
    )
    assert res.returncode == 1
    assert res.stderr.strip().splitlines() == [
        '{"error": "ValueError: unknown sampling method \'foo\'"}'
    ]
    assert not (tmp_path / "results").exists()


def test_cli_rejects_a_zero_learning_rate_in_one_line(tmp_path, toy_prefix):
    res = run_cli(
        "baseline", "--dataset-path", str(toy_prefix), "--lr", "0",
        "--out", str(tmp_path / "results"),
    )
    assert res.returncode == 1
    assert res.stderr.strip().splitlines() == [
        '{"error": "ValueError: lr must be finite and above 0, got 0.0"}'
    ]
    assert not (tmp_path / "results").exists()


def test_cli_baseline_rejects_zero_layers(tmp_path, toy_prefix):
    res = run_cli(
        "baseline",
        "--dataset-path", str(toy_prefix),
        "--per-class", "3", "--num-val", "12", "--num-test", "24",
        "--layers", "0", "--epochs", "5", "--runs", "1",
        "--out", str(tmp_path / "results"),
    )
    assert res.returncode == 1
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"].startswith("ValueError: layers")
    assert not (tmp_path / "results").exists()


def test_cli_baseline_rejects_an_attack_reports_config(tmp_path, toy_prefix):
    cfg = fast_config(runs=1, epochs=2).with_overrides(dataset_path=str(toy_prefix))
    reports = run_attack_comparison(planted_dataset(seed=7), cfg, attack_grid=[("ctbca", 0.1)])
    _, report_json = emit_report(reports, tmp_path / "attack")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(json.loads(report_json.read_text())[0]["config"]))
    res = run_cli("baseline", "--config", str(cfg_file), "--out", str(tmp_path / "res"))
    assert res.returncode == 1
    assert json.loads(res.stderr.strip().splitlines()[-1]) == {
        "error": "ValueError: unknown config fields: ['attack_intensity', 'attack_kind']"
    }
    assert not (tmp_path / "res").exists()


def test_cli_report_round_trip(tmp_path, toy_prefix):
    # the JSON stores each report's aggregates key-sorted; the attack
    # report's are not sorted in their CSV order, the baseline's already are
    for command in ("baseline", "attack"):
        out = tmp_path / command
        res = run_cli(
            command,
            "--dataset-path", str(toy_prefix),
            "--per-class", "3", "--num-val", "12", "--num-test", "24",
            "--layers", "3", "--hidden", "12", "--epochs", "5", "--runs", "2",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        re_out = tmp_path / f"{command}-again"
        res = run_cli(
            "report", str(out / f"{command}.json"), "--out", str(re_out), "--stem", "again"
        )
        assert res.returncode == 0, res.stderr
        assert (re_out / "again.csv").read_bytes() == (out / f"{command}.csv").read_bytes()
