import json
import subprocess
import sys

import numpy as np
import pytest

from rwnsgcn import harness
from rwnsgcn.config import ExperimentConfig, config_hash, derive_seed, substream
from rwnsgcn.data import save_json_bundle
from rwnsgcn.harness import (
    emit_report,
    run_ablation,
    run_attack_comparison,
    run_baseline,
    run_l_sweep,
)

from conftest import planted_dataset

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
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(fast_config(base_seed=0))


def test_config_round_trip():
    cfg = fast_config(levels=(2, 3), beta=0.25)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"no_such_field": 1})


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
    assert reports[0].config["l_max"] == 5
    assert reports[0].config["levels"] == [2, 3, 4]
    assert reports[1].config["l_max"] == 6
    assert reports[1].config["levels"] == [2, 3, 4, 5]


def test_l_sweep_rejects_degenerate_distance():
    ds = planted_dataset(seed=7)
    with pytest.raises(ValueError, match="no candidate levels"):
        run_l_sweep(ds, fast_config(), l_values=(1,))


def test_resampling_schedule_is_deterministic_and_changes_draws():
    ds = planted_dataset(seed=7)
    static_cfg = fast_config(runs=1, epochs=12)
    resample_cfg = fast_config(runs=1, epochs=12, resample_every=4)
    r_static = run_baseline(ds, static_cfg)
    r1 = run_baseline(ds, resample_cfg)
    r2 = run_baseline(ds, resample_cfg)
    assert r1.rows == r2.rows  # epoch-tagged streams keep runs reproducible
    assert r1.config_hash != r_static.config_hash


def test_candidate_cache_round_trip(tmp_path):
    ds = planted_dataset(seed=7)
    cfg = fast_config(cache_dir=str(tmp_path), runs=1, epochs=5)
    from rwnsgcn.harness import _CACHE

    _CACHE.clear()
    r1 = run_baseline(ds, cfg)
    cached = list(tmp_path.glob("candidates-*.json"))
    assert len(cached) == 1
    _CACHE.clear()  # force the disk path
    r2 = run_baseline(ds, cfg)
    assert r1.rows == r2.rows


def test_resampling_builds_each_kernel_once_per_run(monkeypatch):
    from rwnsgcn import dpp

    ds = planted_dataset(seed=7)
    cfg = fast_config(runs=2, epochs=12, resample_every=3, k_per_level=2)
    built = []
    original = dpp.build_dpp_kernel

    def counting(source, candidates, *args, **kwargs):
        built.append(source)
        return original(source, candidates, *args, **kwargs)

    draws = []

    def counting_draw(*args, **kwargs):
        draws.append(1)
        return dpp.draw_negative_samples(*args, **kwargs)

    monkeypatch.setattr(dpp, "build_dpp_kernel", counting)
    monkeypatch.setattr(harness, "draw_negative_samples", counting_draw)
    run_baseline(ds, cfg)
    cands = harness._CACHE.get(ds.graph, cfg)
    choosing = [s for s, cs in cands.items() if len(cs) > cfg.k_dpp]
    assert choosing  # some draws really choose
    assert len(draws) == cfg.runs * 4  # the first draw and three redraws per run
    assert sorted(built) == sorted(choosing * cfg.runs)


def _counting_scorer(monkeypatch):
    calls = []
    original = harness.score_all_sources

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "score_all_sources", counting)
    return calls


def test_scorer_version_change_misses_disk_cache(tmp_path, monkeypatch):
    ds = planted_dataset(seed=7)
    cfg = fast_config(cache_dir=str(tmp_path))
    calls = _counting_scorer(monkeypatch)
    first = harness._CandidateCache().get(ds.graph, cfg)
    assert harness._CandidateCache().get(ds.graph, cfg) is not first  # read from disk
    assert len(calls) == 1
    monkeypatch.setattr(harness, "SCORER_VERSION", harness.SCORER_VERSION + 1)
    harness._CandidateCache().get(ds.graph, cfg)
    assert len(calls) == 2
    assert len(list(tmp_path.glob("candidates-*.json"))) == 2


def test_cache_never_reads_a_partial_write(tmp_path, monkeypatch):
    ds = planted_dataset(seed=7)
    cfg = fast_config(cache_dir=str(tmp_path))
    calls = _counting_scorer(monkeypatch)
    real_replace = harness.os.replace
    seen = []

    def interrupted(src, dst):
        # the complete document sits beside the target, which does not exist yet
        seen.append(json.loads(harness.Path(src).read_text())["key"])
        assert not harness.Path(dst).exists()
        assert harness.Path(src).parent == harness.Path(dst).parent
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(harness.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        harness._CandidateCache().get(ds.graph, cfg)
    assert seen and list(tmp_path.iterdir()) == []  # no target, no temp file left

    # a writer killed mid-write leaves only a temp file, which is never read
    key = seen[0]
    (tmp_path / f".candidates-{key}.json.x1.tmp").write_text('{"key": "')
    monkeypatch.setattr(harness.os, "replace", real_replace)
    fresh = harness._CandidateCache().get(ds.graph, cfg)
    assert len(calls) == 2
    again = harness._CandidateCache().get(ds.graph, cfg)
    assert len(calls) == 2  # the renamed file is complete and read back
    assert {s: c.chosen for s, c in again.items()} == {s: c.chosen for s, c in fresh.items()}


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
    assert payload["config_hash"]
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


# ---------------------------------------------------------------------- CLI


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rwnsgcn.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "toy.json"
    save_json_bundle(planted_dataset(seed=7), path)
    return path


def test_cli_prepare_and_baseline(tmp_path, toy_bundle):
    content = tmp_path / "toy.content"
    cites = tmp_path / "toy.cites"
    content.write_text("a\t1\t0\tx\nb\t0\t1\ty\nc\t1\t1\tx\n")
    cites.write_text("a\tb\nb\tc\n")
    bundle = tmp_path / "toy_bundle.json"
    res = run_cli(
        "prepare", "--content", str(content), "--cites", str(cites),
        "--out-bundle", str(bundle),
    )
    assert res.returncode == 0, res.stderr
    info = json.loads(res.stdout)
    assert info["num_nodes"] == 3
    assert info["num_edges"] == 2

    out = tmp_path / "results"
    res = run_cli(
        "baseline",
        "--dataset-path", str(toy_bundle),
        "--per-class", "3", "--num-val", "12", "--num-test", "24",
        "--layers", "3", "--hidden", "12", "--epochs", "5", "--runs", "1",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert (out / "baseline.csv").exists()
    summary = json.loads(res.stdout.splitlines()[-1])
    assert "accuracy_mean" in summary


def test_cli_flags_override_config_file(tmp_path, toy_bundle):
    cfg_file = tmp_path / "cfg.json"
    cfg = ExperimentConfig(
        dataset_path=str(toy_bundle), **{**FAST, "epochs": 5, "runs": 1}
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
    res = run_cli("baseline", "--dataset-path", str(tmp_path / "missing.json"))
    assert res.returncode == 1
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert "error" in err


def test_cli_report_round_trip(tmp_path, toy_bundle):
    out = tmp_path / "first"
    res = run_cli(
        "baseline",
        "--dataset-path", str(toy_bundle),
        "--per-class", "3", "--num-val", "12", "--num-test", "24",
        "--layers", "3", "--hidden", "12", "--epochs", "5", "--runs", "1",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    re_out = tmp_path / "second"
    res = run_cli(
        "report", str(out / "baseline.json"), "--out", str(re_out), "--stem", "again"
    )
    assert res.returncode == 0, res.stderr
    first_csv = (out / "baseline.csv").read_text()
    again_csv = (re_out / "again.csv").read_text()
    assert first_csv == again_csv
