"""One repetition of one workload, run in a fresh process by ``run.py``.

A fresh process per repetition starts with the harness's process-wide
candidate cache cold and gives a peak resident size that belongs to this
repetition alone.  The repetition loads the generated dataset through
``load_dataset`` (set-up), runs the workload's harness entry point plus
``emit_report`` (the experiment), then checks the outputs and writes one
JSON result file.  The reference kernel of ``probe.py`` is timed before
set-up and after the experiment, so ``run.py`` can tell how fast the
machine ran meanwhile.  With ``--trace 1`` it also records spans around every
layer's public functions and writes them out when the run ends.

    python3 perfbench/worker.py --workload cora-train --stem DIR/cora \
        --seed 1 --trace 0 --out DIR/rep0
"""

from __future__ import annotations

import os

# BLAS / OpenMP pools are sized when numpy loads, so pin them first.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LOADS = 3  # load_dataset calls per repetition, for the set-up median


def import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rwnsgcn" / "__init__.py").is_file():
        raise SystemExit(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rwnsgcn.harness

    if Path(rwnsgcn.__file__).resolve().parent != SRC / "rwnsgcn":
        raise SystemExit(f"imported rwnsgcn from {rwnsgcn.__file__}, not {SRC}")
    return rwnsgcn.harness


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def fingerprint(recorded: dict, csv_bytes: bytes) -> dict:
    """Behaviour hashes: candidate sets, negative-graph edges, CSV bytes.

    Informational: a change that legitimately moves last bits changes
    them without failing the benchmark.
    """
    candidates = _digest(
        repr([(s, fill[s].chosen) for s in sorted(fill)]).encode()
        for fill in recorded["candidates"]
    )
    negatives = _digest(
        g.indptr.tobytes() + g.indices.tobytes() for g in recorded["negative_graphs"]
    )
    return {"candidates": candidates, "negative_edges": negatives,
            "csv": _digest([csv_bytes])}


def _neighbour_keys(graph):
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    return set((rows * graph.num_nodes + graph.indices).tolist())


def negatives_clear(graph, dump_dir: Path, negative_graphs) -> bool:
    """No dumped negative is its source or one of its neighbours, and no
    negative graph drawn during training shares an edge with the graph."""
    edges = _neighbour_keys(graph)
    n = graph.num_nodes
    dumps = sorted(dump_dir.glob("negatives-run*.json"))
    if not dumps:
        return False
    for path in dumps:
        for src, picked in json.loads(path.read_text())["negatives"].items():
            s = int(src)
            if any(j == s or s * n + j in edges for j in picked):
                return False
    return all(edges.isdisjoint(_neighbour_keys(g)) for g in negative_graphs)


def quality(workload, reports, recorded) -> dict:
    mads = [r.value for r in recorded["mad"]]
    if workload.entry == "baseline":
        rows = reports[0].rows
        accs = [row["accuracy"] for row in rows]
        no_worse = None
    else:
        rows = [row for rep in reports for row in rep.rows]
        accs = [row["attacked_accuracy_rwnsgcn"] for row in rows]
        no_worse = sum(row["rwnsgcn_no_worse"] for row in rows) / len(rows)
    return {
        "test_acc": sum(accs) / len(accs),
        "mad": sum(mads) / len(mads),
        "no_worse_rate": no_worse,
        "rows": len(rows),
    }


def check_outputs(workload, ds, reports, recorded, q: dict, out: Path, harness) -> dict:
    """Output checks, one boolean each; every False counts as a failure."""
    mads = [r.value for r in recorded["mad"]]
    checks = {
        "test_acc_finite_in_range": math.isfinite(q["test_acc"]) and 0.0 <= q["test_acc"] <= 1.0,
        "mad_finite_in_range": all(math.isfinite(m) and 0.0 <= m <= 200.0 for m in mads),
    }
    again = harness.emit_report(reports, out / "again", formats=("csv",))[0]
    checks["csv_identical"] = again.read_bytes() == (out / "report" / "report.csv").read_bytes()
    if workload.entry == "baseline":
        checks["negatives_not_neighbours"] = negatives_clear(
            ds.graph, out / "negatives", recorded["negative_graphs"])
        checks["mad_matches_rows"] = mads == [row["mad"] for row in reports[0].rows]
    return checks


def expected_rows(workload, cfg) -> int:
    if workload.entry == "baseline":
        return cfg.runs
    return cfg.runs * 2  # the default attack grid has two cells


def run(workload, stem: str, seed: int, trace: bool, out: Path) -> dict:
    harness = import_program()
    from rwnsgcn.config import ExperimentConfig, derive_seed
    import scipy
    from spans import EXPERIMENT, SETUP, Recorder, Tracer, per_layer

    cfg = ExperimentConfig(
        dataset_path=stem, dataset_format="content-cites", base_seed=seed,
        **workload.overrides,
    )
    recorder = Recorder()
    tracer = None
    if trace:
        tracer = Tracer({derive_seed(seed + r, "split"): r for r in range(cfg.runs)})

    def root(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def load():
        t0 = time.perf_counter()
        ds = harness.load_dataset(cfg)
        setup_samples.append(time.perf_counter() - t0)
        return ds

    # the machine's speed just before set-up and just after the experiment
    reference = [probe.reference_time()]
    # set-up is short, so it is sampled several times; the last load is
    # the one the experiment uses (and the one traced)
    setup_samples: list[float] = []
    for _ in range(SETUP_LOADS - 1):
        load()
    result = {"ok": False, "errors": [], "setup_samples": setup_samples,
              "reference_s": reference}
    with recorder.install(), (tracer.install() if tracer else contextlib.nullcontext()):
        with root(SETUP):
            ds = load()
        try:
            with root(EXPERIMENT):
                t0 = time.perf_counter()
                if workload.entry == "baseline":
                    reports = [harness.run_baseline(
                        ds, cfg, label=workload.name, dump_negatives_dir=out / "negatives")]
                else:
                    reports = harness.run_attack_comparison(ds, cfg)
                harness.emit_report(reports, out / "report")
                result["experiment_s"] = time.perf_counter() - t0
        except Exception:  # the experiment aborted: report it, do not hide it
            result["errors"].append(traceback.format_exc())
            reports = None
    reference.append(probe.reference_time())

    expected = expected_rows(workload, cfg)
    checks = {}
    rows_done = 0
    if reports is not None:
        q = quality(workload, reports, recorder.values)
        checks = check_outputs(workload, ds, reports, recorder.values, q, out, harness)
        rows_done = q.pop("rows")
        result.update(q)
        csv_bytes = (out / "report" / "report.csv").read_bytes()
        result["fingerprint"] = fingerprint(recorder.values, csv_bytes)
    if tracer is not None and reports is not None:
        layers = per_layer(tracer.spans, tracer.counts, recorder.values)
        result["per_layer"] = layers
        self_sum = sum(v for k, v in layers.items() if k.endswith(".s"))
        checks["trace_self_times_sum"] = math.isclose(
            self_sum + layers["trace.unaccounted_s"],
            layers["trace.setup_s"] + layers["trace.experiment_s"], rel_tol=1e-9)
        result["spans_file"] = str(out / "spans.json")
        Path(result["spans_file"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run"], "spans": tracer.spans}))
    # operations: the seeded runs (attack cells), each output check, and,
    # when the harness raised, the aborted experiment itself
    aborted = int(reports is None)
    result["checks"] = checks
    result["attempted"] = expected + len(checks) + aborted
    result["failed"] = expected - rows_done + sum(not ok for ok in checks.values()) + aborted
    result["ok"] = not aborted
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["machine"] = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS, toy

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--stem", required=True, help="dataset path without .content/.cites")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size configuration")
    p.add_argument("--out", required=True, help="directory for reports and result.json")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = toy(workload)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run(workload, args.stem, args.seed, bool(args.trace), out)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
