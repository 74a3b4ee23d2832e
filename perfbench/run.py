"""The repository's benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload cora-train --seed 1 --seconds 20 --trace 0

Generates the workload's synthetic citation dataset from ``--seed`` (the
program only ever sees the ``.content``/``.cites`` files), then runs
repetitions back to back, each in a fresh process, until ``--seconds``
have passed (at least ``MIN_REPS``).  The load is a closed loop: one
process, one experiment at a time, BLAS and OpenMP pinned to one thread.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics
are medians over them.  Times are reported at the reference speed of
``probe.py``, so a host that changes speed between runs does not read as
a change of the program.  With ``--trace 1`` untraced and traced repetitions
alternate; the per-layer metrics come from the traced repetition with the
median experiment time, and ``trace.overhead_s`` is the traced minus the
untraced median experiment time.

Human-readable lines go first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The run exits non-zero
without that line when the program's sources are missing or no
repetition finished.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, SRC  # pins BLAS threads, here and in children, before numpy loads

import gen  # noqa: E402  (imports numpy)
import probe  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
MIN_REPS = 3
HARD_LIMIT_S = 150.0  # start no repetition that could end past this

END_TO_END = [
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_acc", "fraction"),
]


def repetition(workload: str, stem: Path, seed: int, traced: bool, out: Path,
               toy_size: bool, timeout: float) -> dict | None:
    """Run one repetition in a fresh process; None if it did not finish."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--stem", str(stem), "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(out)]
    if toy_size:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    result_file = out / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        print(f"repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())
    for error in result["errors"]:
        print(error, file=sys.stderr)
    return result


def measure(args, stem: Path, work: Path) -> list[tuple[bool, dict | None]]:
    """Repetitions until --seconds have passed; traced ones alternate in
    when --trace 1.  Returns (traced, result) pairs."""
    done: list[tuple[bool, dict | None]] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        have_plain = sum(not t for t, r in done if r and r["ok"])
        have_traced = sum(t for t, r in done if r and r["ok"])
        enough = have_plain >= (1 if args.trace else MIN_REPS) and (
            have_traced >= 1 or not args.trace)
        if (enough and elapsed >= args.seconds) or elapsed + longest > HARD_LIMIT_S:
            break
        if done and not (done[-1][1] and done[-1][1]["ok"]):
            break  # the same seeded experiment failed: repeating it only fails again
        traced = bool(args.trace) and len(done) % 2 == 1
        t0 = time.perf_counter()
        result = repetition(args.workload, stem, args.seed, traced,
                            work / f"rep{len(done)}", args.toy,
                            timeout=max(HARD_LIMIT_S - elapsed, 1.0))
        longest = max(longest, time.perf_counter() - t0)
        done.append((traced, result))
    return done


def summarise(args, done, stats) -> tuple[dict, dict]:
    """(final JSON object, informational record) from the repetitions."""
    ok = [(t, r) for t, r in done if r and r["ok"]]
    plain = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]
    attempted = sum(r["attempted"] if r else 1 for _, r in done)
    failed = sum(r["failed"] if r else 1 for _, r in done)

    # every repetition ran the same seeded experiment: its CSV must agree
    attempted += 1
    csv_hashes = {r["fingerprint"]["csv"] for _, r in ok}
    failed += len(csv_hashes) != 1

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    # times at the reference speed: set-up by the kernel timed just before
    # it, the experiment by the mean of the kernel before and after it
    experiment = [probe.at_reference_speed(r["experiment_s"], statistics.mean(r["reference_s"]))
                  for r in plain]
    setup = [probe.at_reference_speed(s, r["reference_s"][0])
             for r in plain for s in r["setup_samples"]]
    if args.trace:
        chosen = sorted(traced, key=lambda r: r["per_layer"]["trace.experiment_s"])
        reported = chosen[(len(chosen) - 1) // 2]
        layers = dict(reported["per_layer"])
        layers["trace.overhead_s"] = (
            statistics.median(r["per_layer"]["trace.experiment_s"] for r in traced)
            - median(plain, "experiment_s"))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        values = {name: median(plain, name) for name in ("peak_rss_mb", "test_acc")}
        values["setup_s"] = statistics.median(setup)
        values["experiment_s"] = statistics.median(experiment)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    first = ok[0][1]
    info = {
        "workload": args.workload,
        "dataset": stats,
        "repetitions": {"untraced": len(plain), "traced": len(traced),
                        "unfinished": sum(r is None or not r["ok"] for _, r in done)},
        "experiment_wall_s_samples": [r["experiment_s"] for r in plain],
        "setup_wall_s_samples": [s for r in plain for s in r["setup_samples"]],
        "reference_s_samples": [r["reference_s"] for r in plain],
        "experiment_s_samples": experiment,
        "failed_share": failed / attempted,
        "mad": first["mad"],
        "no_worse_rate": first["no_worse_rate"],
        "checks": {name: all(r["checks"].get(name, True) for _, r in ok)
                   for name in sorted({n for _, r in ok for n in r["checks"]})},
        "fingerprint": first["fingerprint"],
        "machine": first["machine"],
    }
    if args.trace:
        # keep the reported repetition's spans; the rest of the work dir goes
        kept = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        shutil.copyfile(reported["spans_file"], kept)
        info["spans_file"] = str(kept.relative_to(ROOT))
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return final, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy-size graphs and epochs, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (SRC / "rwnsgcn" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = toy(workload)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        stem, stats = gen.write_dataset(workload.scale, args.seed, work / "data")
        done = measure(args, stem, work)
        if not any(r and r["ok"] for _, r in done):
            print("no repetition finished", file=sys.stderr)
            return 1
        if args.trace and not any(t and r and r["ok"] for t, r in done):
            print("no traced repetition finished", file=sys.stderr)
            return 1
        final, info = summarise(args, done, stats)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  dataset {json.dumps(stats)}")
    for name, metric in final["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_share':40s} {info['failed_share']:14.6g} fraction "
          f"({final['failed']} of {final['attempted']} operations)")
    print(f"  {'mad':40s} {info['mad']:14.6g} x100 (informational)")
    if info["no_worse_rate"] is not None:
        print(f"  {'no_worse_rate':40s} {info['no_worse_rate']:14.6g} fraction")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
