"""The command-line workflow end to end, in process, on the benchmark's
generated graphs (``perfbench/gen.py``, seed 501).

Each test calls ``cli.main`` with the sizes and flags of a README workflow
and compares the bytes of what it writes: repeated runs of one
configuration write equal CSVs, and ``report`` re-emits a saved report's
CSV byte for byte.  ``perfbench/`` is only read.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rwnsgcn import cli


@pytest.fixture(scope="module")
def generated(bench_gen, tmp_path_factory):
    """The seed-501 ``.content``/``.cites`` prefix of a benchmark scale,
    written once per module."""
    out = tmp_path_factory.mktemp("generated")
    stems = {}

    def stem(scale: str) -> Path:
        if scale not in stems:
            stems[scale], _ = bench_gen.write_dataset(bench_gen.SCALES[scale], 501, out)
        return stems[scale]

    return stem


def run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def prepare(stem: Path, out: Path, *flags) -> Path:
    run("prepare", "--content", stem.with_suffix(".content"),
        "--cites", stem.with_suffix(".cites"), "--out", out, *flags)
    return out


def test_prepare_then_baseline_ablate_and_sweep_l(generated, tmp_path):
    # prepare writes a 300-node BFS subgraph of the cora-scale graph as a
    # .content/.cites pair; baseline trains on that pair, and ablate and
    # sweep-l each score it once for all of their variants
    small = ["--dataset-path", prepare(generated("cora"), tmp_path / "cora300",
                                       "--subgraph-size", "300"),
             "--per-class", "5", "--num-val", "50", "--num-test", "100",
             "--epochs", "5", "--runs", "1", "--out", tmp_path / "results"]
    run("baseline", *small)
    run("ablate", *small)
    run("sweep-l", "--l-values", "4,5", *small)
    for stem in ("baseline", "ablate", "sweep-l"):
        assert (tmp_path / "results" / f"{stem}.csv").exists()


def test_each_sampler_writes_equal_csvs_twice(generated, tmp_path):
    # k_per_level 2 gives up to 6 candidates for k = 3, so label
    # propagation, kernel assembly and the redraws every 2 epochs all run
    # from the CSR features the loader builds; the greedy picker runs end
    # to end nowhere else
    small = ["--dataset-path", prepare(generated("citeseer"), tmp_path / "citeseer-prepared"),
             "--k-per-level", "2", "--resample-every", "2", "--num-val", "150",
             "--num-test", "300", "--epochs", "5", "--runs", "1"]
    for sampler in ("exact", "greedy"):
        for copy in ("a", "b"):
            run("baseline", *small, "--sampler", sampler, "--out", tmp_path / f"{sampler}-{copy}")
        csv = [(tmp_path / f"{sampler}-{copy}" / "baseline.csv").read_bytes() for copy in "ab"]
        assert csv[0] == csv[1], sampler


def test_attack_writes_equal_csvs_and_its_report_round_trips(generated, tmp_path):
    # the paired clean-vs-attacked comparison: two attack runs write equal
    # CSVs, and the report re-emitted from one run's JSON (whose aggregates
    # are key-sorted) writes the same CSV bytes again
    small = ["--dataset-path", generated("pubmed3k"), "--sources", "degree-range",
             "--runs", "2", "--epochs", "3", "--num-val", "150", "--num-test", "300"]
    run("attack", *small, "--out", tmp_path / "a")
    run("attack", *small, "--out", tmp_path / "b")
    first = (tmp_path / "a" / "attack.csv").read_bytes()
    assert first == (tmp_path / "b" / "attack.csv").read_bytes()
    run("report", tmp_path / "a" / "attack.json", "--out", tmp_path / "again")
    assert first == (tmp_path / "again" / "report.csv").read_bytes()


def test_one_layer_baseline(generated, tmp_path):
    # with one layer the classifier reads the CSR features directly: the
    # embeddings stay sparse and only the test rows are made dense for MAD
    run("baseline", "--dataset-path", generated("citeseer"), "--layers", "1",
        "--num-val", "150", "--num-test", "300", "--epochs", "5", "--runs", "1",
        "--out", tmp_path / "results")
    assert (tmp_path / "results" / "baseline.csv").exists()


def test_tab_and_space_separated_pairs_train_alike(generated, tmp_path):
    # the published Cora and CiteSeer .content files separate tokens with
    # tabs; the same pair rewritten with tabs gives the same CSV in every
    # column but the hash, which covers the dataset path
    spaces = generated("citeseer")
    (tmp_path / "tabs").mkdir()
    tabs = tmp_path / "tabs" / "citeseer"
    content = spaces.with_suffix(".content").read_bytes()
    tabs.with_suffix(".content").write_bytes(content.replace(b" ", b"\t"))
    tabs.with_suffix(".cites").write_bytes(spaces.with_suffix(".cites").read_bytes())
    small = ["--num-val", "150", "--num-test", "300", "--epochs", "5", "--runs", "1"]
    run("baseline", "--dataset-path", spaces, *small, "--out", tmp_path / "spaces")
    run("baseline", "--dataset-path", tabs, *small, "--out", tmp_path / "tabbed")

    def after_hash(out: str) -> list[bytes]:
        # `cut -d, -f2-`: a line without a comma is kept whole
        lines = (tmp_path / out / "baseline.csv").read_bytes().splitlines()
        return [line.split(b",", 1)[-1] for line in lines]

    assert after_hash("spaces") == after_hash("tabbed")
