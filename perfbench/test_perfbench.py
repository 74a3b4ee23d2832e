"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    scale = toy(WORKLOADS[name]).scale
    first = gen.generate(scale, 3)
    assert gen.generate(scale, 3)[:2] == first[:2]
    other = gen.generate(scale, 4)
    assert other[0] != first[0] and other[1] != first[1]


def test_generator_stats_match_the_files(tmp_path):
    scale = gen.SCALES["citeseer"]
    stem, stats = gen.write_dataset(scale, 5, tmp_path)
    rows = stem.with_suffix(".content").read_text().splitlines()
    assert len(rows) == stats["nodes"] == scale.nodes
    assert len(rows[0].split()) == scale.features + 2
    assert stats["edges"] == scale.edges
    assert stats["isolated_nodes"] >= round(scale.isolated * scale.nodes) > 0
    assert 0.0 < stats["feature_density"] < 0.05


# -- self-time arithmetic ----------------------------------------------------

def _tree():
    # root [0, 10] has back-to-back children a [1, 4] and b [4, 6] and a
    # child c [6.5, 7]; a has a nested child a1 [2, 3]
    return [
        ("root", 0.0, 10.0, None, None),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 4.0, 6.0, 0, 0),
        ("c", 6.5, 7.0, 0, 1),
    ]


def test_self_time_subtracts_each_child_once():
    self_s, calls, total_s = spans.self_times(_tree())
    assert self_s == {"root": 4.5, "a": 2.0, "a1": 1.0, "b": 2.0, "c": 0.5}
    assert sum(self_s.values()) == total_s["root"] == 10.0
    assert calls == {"root": 1, "a": 1, "a1": 1, "b": 1, "c": 1}


def test_repeated_names_sum_and_count():
    tree = _tree() + [("a", 11.0, 12.5, None, None)]
    self_s, calls, total_s = spans.self_times(tree)
    assert self_s["a"] == 3.5 and calls["a"] == 2 and total_s["a"] == 4.5


def test_tracer_records_parents_runs_and_the_unaccounted_rest():
    ticks = iter(range(100))
    tracer = spans.Tracer({111: 0, 222: 1}, clock=lambda: float(next(ticks)))

    def planetoid_split(ds, seed):
        return seed

    split = tracer._wrap(planetoid_split, "data.planetoid_split")
    train = tracer._wrap(lambda: split(None, seed=222), "model.train")
    with tracer.span(spans.SETUP):
        pass
    with tracer.span(spans.EXPERIMENT):
        split(None, seed=111)
        train()
    names = [s[0] for s in tracer.spans]
    assert names == [spans.SETUP, spans.EXPERIMENT, "data.planetoid_split",
                     "model.train", "data.planetoid_split"]
    assert [s[3] for s in tracer.spans] == [None, None, 1, 1, 3]
    assert [s[4] for s in tracer.spans][2:] == [0, 1, 1]
    layers = spans.per_layer(tracer.spans, tracer.counts, {})
    reported = sum(layers[f"{n}.s"] for n in spans.SELF_TIMES)
    assert reported + layers["trace.unaccounted_s"] == (
        layers["trace.setup_s"] + layers["trace.experiment_s"])
    assert layers["data.planetoid_split.s"] == 2.0
    assert layers["model.train.s"] == 2.0


def test_per_layer_counts_and_epoch_time():
    class Negatives:
        def __init__(self, num_edges):
            self.num_edges = num_edges

    tree = [
        (spans.EXPERIMENT, 0.0, 10.0, None, None),
        ("model.train", 1.0, 5.0, 0, 0),
        ("dpp.draw_negative_samples", 2.0, 4.0, 1, 0),  # a redraw inside train
        ("model.forward.train", 4.0, 4.5, 1, 0),
        ("model.forward.train", 4.5, 5.0, 1, 0),
    ]
    recorded = {"candidates": [{0: [1, 2], 1: []}, {0: [3]}],
                "negative_graphs": [Negatives(4), Negatives(6)]}
    layers = spans.per_layer(tree, {}, recorded)
    assert layers["scoring.empty_sources"] == 0.5  # per fill
    assert layers["scoring.candidates_per_source"] == 1.0
    assert layers["dpp.negative_edges"] == 5.0
    assert layers["model.epochs"] == 2.0
    # train's own 1 s plus the two forwards, without the redraw
    assert layers["model.ms_per_epoch"] == 1000.0


def test_install_restores_every_wrapped_function():
    sys.path.insert(0, str(ROOT / "src"))
    import rwnsgcn.graph
    import rwnsgcn.harness

    before = (rwnsgcn.harness.train, rwnsgcn.graph.Graph.edges)
    with spans.Tracer().install():
        assert rwnsgcn.harness.train.__wrapped__ is before[0]
        assert rwnsgcn.graph.Graph.edges.__wrapped__ is before[1]
    assert (rwnsgcn.harness.train, rwnsgcn.graph.Graph.edges) == before


# -- the command -------------------------------------------------------------

def test_benchmark_json_names_what_the_command_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_run(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "2", "--seconds", "0",
                "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in final["metrics"].items()] == [
        (m["name"], m["unit"]) for m in expected]
    if trace == "0":
        assert all(v["value"] > 0 for v in final["metrics"].values())
        # times are the wall times scaled by the reference kernel around them
        info = json.loads(proc.stdout.splitlines()[-2].removeprefix("info "))
        scaled = [probe.at_reference_speed(wall, statistics.mean(ref)) for wall, ref in
                  zip(info["experiment_wall_s_samples"], info["reference_s_samples"])]
        assert final["metrics"]["experiment_s"]["value"] == statistics.median(scaled)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cora-train", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
