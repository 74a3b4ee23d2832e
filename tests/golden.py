"""The behaviour fingerprint that ``test_golden.py`` pins, and the script
that writes it.

    PYTHONPATH=src python tests/golden.py

rewrites ``tests/golden.json`` from the program in ``src``.  Each entry is
one benchmark workload's experiment on its ``perfbench/gen.py`` graph at
seed 501, with a short epoch count: the digest of every candidate map
(each source's ``(node, layer)`` picks), the negative-edge digest of every draw (redraws included), every
training's per-epoch loss bits and best epoch, every test accuracy and
MAD, and the report CSV.  Rewrite the file only in a change that says
which bits moved and why, and shows that candidates and predictions did
not.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from rwnsgcn import harness
from rwnsgcn.config import ExperimentConfig
from rwnsgcn.data import load_content_cites

GOLDEN = Path(__file__).with_name("golden.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 501
EPOCHS = 20
# (gen scale, harness entry point, overrides) of the benchmark workloads in
# perfbench/workloads.py.  citeseer-dpp redraws every 5 epochs instead of
# 15, so that the short run still draws four times, as the long one does.
WORKLOADS = {
    "cora-train": ("cora", "baseline", {"num_val": 200, "num_test": 300}),
    "citeseer-dpp": ("citeseer", "baseline",
                     {"k_per_level": 2, "resample_every": 5, "num_val": 150, "num_test": 300}),
    "pubmed3k-attack": ("pubmed3k", "attack",
                        {"sources": "degree-range", "num_val": 150, "num_test": 300}),
}
# harness globals whose calls the fingerprint reads
RECORDED = ("build_negative_kernels", "build_negative_graph", "train", "accuracy", "mad")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@contextmanager
def _recording():
    """Every call of the ``RECORDED`` harness globals, as (args, result)."""
    calls: dict[str, list] = {name: [] for name in RECORDED}
    originals = {name: getattr(harness, name) for name in RECORDED}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name].append((args, result))
            return result
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(harness, name, wrap(name, fn))
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)


def behaviour(gen, name: str) -> dict:
    """The fingerprint of one workload; ``gen`` is ``perfbench/gen.py``."""
    scale, entry, overrides = WORKLOADS[name]
    content, cites, _ = gen.generate(gen.SCALES[scale], SEED)
    ds = load_content_cites(content.decode(), cites.decode())
    config = ExperimentConfig(base_seed=SEED, runs=1, epochs=EPOCHS, **overrides)
    with _recording() as calls:
        if entry == "baseline":
            reports = [harness.run_baseline(ds, config, label=name)]
        else:
            reports = harness.run_attack_comparison(ds, config)
    with tempfile.TemporaryDirectory() as out:
        (csv_path,) = harness.emit_report(reports, out, formats=("csv",))
        csv_text = csv_path.read_text(encoding="utf-8")
    trained = [model for _, model in calls["train"]]
    return {
        "candidates": [
            _digest(repr([(s, cands[s].chosen) for s in sorted(cands)]).encode())
            for (cands, *_), _ in calls["build_negative_kernels"]
        ],
        "negative_edges": [
            _digest(g.indptr.tobytes() + g.indices.tobytes() + g.weights.tobytes())
            for _, g in calls["build_negative_graph"]
        ],
        "train_loss": [[loss.hex() for loss in model.train_loss] for model in trained],
        "best_epoch": [model.best_epoch for model in trained],
        "test_accuracy": [acc.hex() for _, acc in calls["accuracy"]],
        "mad": [report.value.hex() for _, report in calls["mad"]],
        "csv": csv_text,
    }


def load_perfbench(name: str):
    """``perfbench/<name>.py``, loaded from its path as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    spec.loader.exec_module(module)
    return module


def main() -> int:
    gen = load_perfbench("gen")
    golden = {name: behaviour(gen, name) for name in WORKLOADS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
