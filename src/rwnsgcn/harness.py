"""Experiment orchestration: baseline runs, attack comparisons, the
scoring ablation, and the max-distance sweep, with CSV/JSON reporting.

Each run r uses seed base_seed + r; every stochastic phase (split,
communities, sampling, init/dropout, attack) draws from a named
sub-stream of that seed, so variants sharing a base seed share the
randomness of every phase they have in common.  CSV output is a pure
function of the configuration, so identical configs produce
byte-identical files; wall-clock timings go to the JSON only.
Candidates are scored once per graph per experiment call and handed to
each run; nothing persists between calls.  The clean-graph variants of
one call (the ablation's betas, the sweep's levels) share one walk of
the graph.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from rwnsgcn import data as data_mod
from rwnsgcn.attacks import AttackSpec, apply_attack, edge_betweenness
from rwnsgcn.config import ExperimentConfig, config_hash, derive_seed, substream
from rwnsgcn.data import Dataset, check_split, degree_filtered_nodes, planetoid_split
from rwnsgcn.dpp import (
    build_negative_graph,
    build_negative_kernels,
    draw_negative_samples,
    label_propagation,
)
# unused here: perfbench/spans.py wraps predict and sym_normalized_operator on this module
from rwnsgcn.graph import Graph, build_graph, sym_normalized_operator
from rwnsgcn.metrics import accuracy, mad
from rwnsgcn.model import predict, train
from rwnsgcn.scoring import CandidateSet, score_all_sources, score_picks

__all__ = [
    "RunReport",
    "load_dataset",
    "run_baseline",
    "run_ablation",
    "run_l_sweep",
    "run_attack_comparison",
    "emit_report",
]

log = logging.getLogger(__name__)


@dataclass
class RunReport:
    label: str
    config_hash: str
    config: dict
    columns: list[str]
    rows: list[dict]
    aggregates: dict[str, float]
    timings: dict[str, float] = field(default_factory=dict)


def load_dataset(config: ExperimentConfig) -> Dataset:
    """Load the ``<dataset_path>.content`` / ``<dataset_path>.cites`` pair,
    feature rows normalised to sum 1."""
    path = config.dataset_path
    if not path:
        raise ValueError("config.dataset_path is empty")
    if config.dataset_format != "content-cites":
        raise ValueError(
            f"dataset_format {config.dataset_format!r} is not supported; datasets are "
            "'content-cites' pairs (rwnsgcn prepare writes one)"
        )
    return data_mod.load_content_cites_paths(path + ".content", path + ".cites")


def _graph_fingerprint(g: Graph) -> str:
    h = hashlib.sha256()
    h.update(np.int64(g.num_nodes).tobytes())
    h.update(np.ascontiguousarray(g.indptr).tobytes())
    h.update(np.ascontiguousarray(g.indices).tobytes())
    h.update(np.ascontiguousarray(g.weights).tobytes())
    return h.hexdigest()[:16]


def _experiment_sources(g: Graph, config: ExperimentConfig) -> list[int]:
    if config.sources == "degree-range":  # unweighted degree 3..6
        return [int(v) for v in degree_filtered_nodes(g)]
    return list(range(g.num_nodes))


def _score(
    g: Graph, configs: Sequence[ExperimentConfig], timings: dict[str, float]
) -> list[dict[int, CandidateSet]]:
    """Candidates of every experiment source of ``g``, one map per config,
    timed as "scoring".  The configs differ at most in beta and levels."""
    config = configs[0]
    t0 = time.perf_counter()
    common = dict(alpha=config.alpha, k_per_level=config.k_per_level)
    sources = _experiment_sources(g, config)
    # perfbench/spans.py times and records the baseline and attack fills as
    # score_all_sources calls, one candidate map each
    if len(configs) == 1:
        fills = [score_all_sources(g, sources, beta=config.beta, levels=config.levels, **common)]
    else:
        fills = score_picks(g, sources, [(c.beta, c.levels) for c in configs], **common)
    timings["scoring"] = timings.get("scoring", 0.0) + time.perf_counter() - t0
    return fills


def _run_once(
    ds: Dataset,
    config: ExperimentConfig,
    run_index: int,
    timings: dict[str, float],
    candidates: dict[int, CandidateSet] | None,
    dump_dir: Path | None = None,
) -> dict:
    """One full pipeline execution. Returns the per-run report row.

    ``candidates`` are ``config``'s map from ``_score``, scored once by the
    caller for all runs on that graph; None when ``config.lam`` is 0.
    """
    seed = config.base_seed + run_index
    split_seed = derive_seed(seed, "split")
    masks = planetoid_split(
        ds,
        per_class=config.per_class,
        num_val=config.num_val,
        num_test=config.num_test,
        seed=split_seed,
    )
    n = ds.num_nodes
    lp_seed = derive_seed(seed, "labelprop")
    negatives_schedule = None
    if config.lam != 0.0:
        t0 = time.perf_counter()
        # dpp's default jitter of 1e-8
        sampling = dict(k=config.k_dpp, method=config.sampler)
        # built once per run: every redraw samples from the same kernels.
        # Communities are found only if some draw chooses
        kernels = build_negative_kernels(
            candidates,
            ds.features,
            lambda: label_propagation(ds.graph, features=ds.features, seed=lp_seed),
            **sampling,
        )

        def draw(*rng_tags):
            sampled = draw_negative_samples(
                candidates,
                kernels,
                **sampling,
                rng_for_source=lambda src: substream(seed, "dpp", src, *rng_tags),
            )
            return sampled, build_negative_graph(sampled, n)

        negatives, neg_graph = draw()
        timings["sampling"] = timings.get("sampling", 0.0) + time.perf_counter() - t0
        if config.resample_every > 0:

            def negatives_schedule(epoch: int):
                if epoch == 0 or epoch % config.resample_every != 0:
                    return None
                return draw("epoch", epoch)[1]
        if dump_dir is not None:
            dump_dir.mkdir(parents=True, exist_ok=True)
            (dump_dir / f"negatives-run{run_index}.json").write_text(
                json.dumps(
                    {
                        "config_hash": config_hash(config.to_dict()),
                        "run": run_index,
                        "negatives": {str(s): v for s, v in negatives.items()},
                    }
                ),
                encoding="utf-8",
            )
    else:
        neg_graph = build_graph(n, np.empty((0, 2)))

    model_seed = derive_seed(seed, "model")
    t0 = time.perf_counter()
    best = train(ds, masks, neg_graph, config, model_seed,
                 negatives_schedule=negatives_schedule)
    timings["training"] = timings.get("training", 0.0) + time.perf_counter() - t0

    t0 = time.perf_counter()
    acc = accuracy(best.preds, ds.labels, masks.test)
    test_rows = best.embeddings[masks.test]
    # with one layer the embeddings are the CSR features: densify these rows only
    mad_report = mad(test_rows.toarray() if sp.issparse(test_rows) else test_rows)
    timings["evaluation"] = timings.get("evaluation", 0.0) + time.perf_counter() - t0
    return {
        "run": run_index,
        "seed": seed,
        "accuracy": acc,
        "mad": mad_report.value,
        "best_epoch": best.best_epoch,
        "split_seed": split_seed,
        "labelprop_seed": lp_seed,
        "model_seed": model_seed,
    }


def _report(
    label: str, config: dict, rows: list[dict], metrics: Iterable[str], timings: dict[str, float]
) -> RunReport:
    """The report of ``rows`` under ``config``, the dict its hash covers.

    Its columns are the rows' keys and its aggregates the mean and std of
    each metric.
    """
    aggregates = {}
    for m in metrics:
        vals = np.array([row[m] for row in rows], dtype=np.float64)
        aggregates[f"{m}_mean"] = float(vals.mean())
        # sample standard deviation, matching mean +/- std reporting
        aggregates[f"{m}_std"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return RunReport(label, config_hash(config), config, list(rows[0]), rows, aggregates, timings)


def _run_clean(
    ds: Dataset,
    variants: Sequence[tuple[str, ExperimentConfig]],
    dump_dir: Path | None = None,
) -> list[RunReport]:
    """One report per (label, config) variant, all on the clean graph.

    The configs differ at most in beta and levels, so the graph is scored
    once for all of them and each report's "scoring" time is that fill.
    """
    configs = [cfg for _, cfg in variants]
    # the variants share one split: an impossible one fails before the fill
    check_split(ds, configs[0].per_class, configs[0].num_val, configs[0].num_test)
    shared: dict[str, float] = {}
    fills = _score(ds.graph, configs, shared) if configs[0].lam != 0.0 else [None] * len(configs)
    reports = []
    for (label, cfg), candidates in zip(variants, fills):
        timings = dict(shared)
        rows = []
        for r in range(cfg.runs):
            rows.append(_run_once(ds, cfg, r, timings, candidates, dump_dir=dump_dir))
            log.info("%s run %d: accuracy=%.4f", label, r, rows[-1]["accuracy"])
        reports.append(_report(label, cfg.to_dict(), rows, ("accuracy", "mad"), timings))
    return reports


def run_baseline(
    ds: Dataset,
    config: ExperimentConfig,
    label: str = "baseline",
    dump_negatives_dir: str | Path | None = None,
) -> RunReport:
    """Full pipeline for ``config.runs`` seeded runs, with aggregates."""
    dump = Path(dump_negatives_dir) if dump_negatives_dir else None
    return _run_clean(ds, [(label, config)], dump_dir=dump)[0]


def run_ablation(ds: Dataset, config: ExperimentConfig) -> list[RunReport]:
    """Combined vs single-score variants under identical seeds."""
    variants = [
        ("ablate/combined", config.beta),
        ("ablate/rwr-only", 1.0),
        ("ablate/pgr-only", 0.0),
    ]
    return _run_clean(ds, [(label, config.with_overrides(beta=b)) for label, b in variants])


def run_l_sweep(
    ds: Dataset, config: ExperimentConfig, l_values: Sequence[int] = (5, 6)
) -> list[RunReport]:
    """One report per maximum hop distance, shared seeds.

    Candidate levels follow the distance: levels = 2..L-1 (layer 1 is
    reserved for positives, so L must be at least 3).
    """
    if not l_values:
        raise ValueError("no L values to sweep")
    for l in l_values:  # all of them before the first run
        if l < 3:
            raise ValueError(f"L={l} leaves no candidate levels (levels are 2..L-1)")
    return _run_clean(ds, [
        (f"sweep-l/L={l}", config.with_overrides(levels=tuple(range(2, l)))) for l in l_values
    ])


def run_attack_comparison(
    ds: Dataset,
    config: ExperimentConfig,
    attack_grid: Sequence[tuple[str, float]] = (("ctbca", 0.10), ("twpa", 0.5)),
) -> list[RunReport]:
    """Clean-vs-attacked accuracy for the negative-sampling model and the
    plain GCN under shared per-run seeds (retraining on the perturbed
    graph).  One report per attack, one paired row per run."""
    if not attack_grid:
        raise ValueError("empty attack grid")
    # every cell's attack of every run, built (and so checked) before the first run
    specs = [
        [
            AttackSpec(kind=kind, intensity=intensity,
                       seed=derive_seed(config.base_seed + r, "attack"))
            for r in range(config.runs)
        ]
        for kind, intensity in attack_grid
    ]
    # every graph has ds's labels: an impossible split fails before any fill
    check_split(ds, config.per_class, config.num_val, config.num_test)
    gcn_config = config.with_overrides(lam=0.0)
    clean_timings: dict[str, float] = {}
    # candidates by graph fingerprint, for this call only: a perturbed graph
    # equal to one already scored (ctbca without ties gives the same graph
    # in every run) is not scored again
    scored: dict[str, dict[int, CandidateSet]] = {}

    def candidates_of(g: Graph, timings: dict[str, float]):
        key = _graph_fingerprint(g)
        if config.lam != 0.0 and key not in scored:
            scored[key] = _score(g, [config], timings)[0]
        return scored.get(key)

    clean = candidates_of(ds.graph, clean_timings)
    clean_rw = [
        _run_once(ds, config, r, clean_timings, clean) for r in range(config.runs)
    ]
    clean_gcn = [
        _run_once(ds, gcn_config, r, clean_timings, None) for r in range(config.runs)
    ]

    betweenness = None
    if any(kind == "ctbca" for kind, _ in attack_grid):
        t0 = time.perf_counter()
        betweenness = edge_betweenness(ds.graph)
        betweenness_s = time.perf_counter() - t0

    reports = []
    for (kind, intensity), cell_specs in zip(attack_grid, specs):
        # each report times the clean runs plus its own cell only
        timings = dict(clean_timings)
        if kind == "ctbca":
            timings["betweenness"] = betweenness_s
        rows = []
        for r, spec in enumerate(cell_specs):
            perturbed_graph = apply_attack(ds.graph, spec, scores=betweenness)
            perturbed = replace(ds, graph=perturbed_graph)
            att_rw = _run_once(
                perturbed, config, r, timings, candidates_of(perturbed_graph, timings)
            )
            att_gcn = _run_once(perturbed, gcn_config, r, timings, None)
            deg_rw = clean_rw[r]["accuracy"] - att_rw["accuracy"]
            deg_gcn = clean_gcn[r]["accuracy"] - att_gcn["accuracy"]
            rows.append(
                {
                    "run": r,
                    "seed": config.base_seed + r,
                    "attack_seed": spec.seed,
                    "clean_accuracy_rwnsgcn": clean_rw[r]["accuracy"],
                    "attacked_accuracy_rwnsgcn": att_rw["accuracy"],
                    "degradation_rwnsgcn": deg_rw,
                    "clean_accuracy_gcn": clean_gcn[r]["accuracy"],
                    "attacked_accuracy_gcn": att_gcn["accuracy"],
                    "degradation_gcn": deg_gcn,
                    "rwnsgcn_no_worse": int(deg_rw <= deg_gcn),
                }
            )
        # the report, not the config, names the attack; every column after
        # run, seed and attack_seed is a metric
        attacked = {**config.to_dict(), "attack_kind": kind, "attack_intensity": intensity}
        reports.append(_report(f"attack/{kind}@{intensity:g}", attacked, rows,
                               list(rows[0])[3:], timings))
    return reports


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(
    reports: Sequence[RunReport],
    out_dir: str | Path,
    formats: Sequence[str] = ("csv", "json"),
    stem: str = "report",
) -> list[Path]:
    """Write per-run CSV rows (plus one aggregate row per report) and a
    JSON document with full configs and aggregates.  Column order and
    float formatting are fixed, so equal inputs give equal bytes."""
    if not reports:
        raise ValueError("no reports to emit")
    unknown = set(formats) - {"csv", "json"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        columns = list(dict.fromkeys(c for rep in reports for c in rep.columns))
        # in the order of the columns they summarise, not the aggregates'
        # own order, which a report read back from its key-sorted JSON loses
        agg_cols = [
            key for c in columns for key in (f"{c}_mean", f"{c}_std")
            if any(key in rep.aggregates for rep in reports)
        ]
        path = out / f"{stem}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["config_hash", "label", "row"] + columns + agg_cols)
            for rep in reports:
                for row in rep.rows:
                    writer.writerow(
                        [rep.config_hash, rep.label, row["run"]]
                        + [_fmt(row[c]) if c in row else "" for c in columns]
                        + ["" for _ in agg_cols]
                    )
                writer.writerow(
                    [rep.config_hash, rep.label, "aggregate"]
                    + ["" for _ in columns]
                    + [
                        _fmt(rep.aggregates[k]) if k in rep.aggregates else ""
                        for k in agg_cols
                    ]
                )
        written.append(path)
    if "json" in formats:
        path = out / f"{stem}.json"
        payload = [
            {
                "label": rep.label,
                "config_hash": rep.config_hash,
                "config": rep.config,
                "columns": rep.columns,
                "rows": rep.rows,
                "aggregates": rep.aggregates,
                "timings": rep.timings,
            }
            for rep in reports
        ]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        written.append(path)
    return written
