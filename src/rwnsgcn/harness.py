"""Experiment orchestration: one arms-by-cells runner, its four presets, and reports.

Each run r uses seed base_seed + r; every stochastic phase (split,
communities, sampling, init/dropout, attack) draws from a named
sub-stream of that seed, so variants sharing a base seed share the
randomness of every phase they have in common.  CSV output is a pure
function of the configuration and the loaded data (the hash reads a
digest of the data, not its path), so identical configs on equal data
produce byte-identical files; wall-clock timings go to the JSON only.

``run_grid`` runs (label, config) arms, which differ at most in beta,
levels and lam, on the clean graph and then on each (kind, intensity)
attack cell.  One call checks the split once, computes betweenness once,
perturbs each (cell, run) once and scores each distinct graph once for
all arms with negatives; nothing persists between calls.  The baseline,
the scoring ablation, the max-distance sweep and the attack comparison
are presets of it that shape its rows into CSV/JSON reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
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
from rwnsgcn.scoring import CandidateSet, check_integer, score_all_sources, score_picks

__all__ = [
    "RunReport",
    "load_dataset",
    "run_baseline",
    "run_ablation",
    "run_l_sweep",
    "run_attack_comparison",
    "run_grid",
    "check_l_values",
    "attack_labels",
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
    return data_mod.load_content_cites_paths(path + ".content", path + ".cites")


def _graph_fingerprint(g: Graph, *arrays: np.ndarray) -> str:
    """sha256 of ``g`` and then of ``arrays``, each read in place."""
    h = hashlib.sha256(np.int64(g.num_nodes).tobytes())
    for a in (g.indptr, g.indices, g.weights, *arrays):
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()[:16]


def _config_hash(ds: Dataset, config: dict) -> str:
    """``config_hash`` of ``config`` with its ``dataset_path`` replaced by a
    digest of the loaded graph, features and labels: equal data under two
    paths gives one hash."""
    x = ds.features  # a canonical CSR array
    digest = _graph_fingerprint(ds.graph, np.array(x.shape), x.indptr, x.indices, x.data,
                                ds.labels)
    return config_hash({**config, "dataset_path": digest})


def _experiment_sources(g: Graph, config: ExperimentConfig) -> list[int]:
    """The sources a fill of ``g`` scores: every node, or with
    ``sources="degree-range"`` the nodes of unweighted degree 3..6 in ``g``
    itself.  So a ctbca cell, whose removed edges change degrees, scores
    another source set than the clean cell; a twpa cell, which keeps the
    topology, scores the same one."""
    if config.sources == "degree-range":
        return [int(v) for v in degree_filtered_nodes(g)]
    return list(range(g.num_nodes))


def _score(
    g: Graph, configs: Sequence[ExperimentConfig], timings: dict[str, float]
) -> list[dict[int, CandidateSet]]:
    """Candidates of every experiment source of ``g``, one map per config,
    timed as "scoring".  The configs share every scoring field but beta and levels."""
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
        # built once per run, with dpp's default jitter of 1e-8: every
        # redraw samples from the same kernels.  Communities are found only
        # if some source has more than k_dpp candidates
        kernels = build_negative_kernels(
            candidates,
            ds.features,
            lambda: label_propagation(ds.graph, features=ds.features, seed=lp_seed),
            k=config.k_dpp,
        )

        def draw(*rng_tags):
            sampled = draw_negative_samples(
                kernels, rng_for_source=lambda src: substream(seed, "dpp", src, *rng_tags)
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
                        "config_hash": _config_hash(ds, config.to_dict()),
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


def _report(label: str, ds: Dataset, config: dict, rows: list[dict], metrics: Iterable[str],
            *timings: dict[str, float]) -> RunReport:
    """The report of ``rows`` under ``config`` on ``ds``, hashed by ``_config_hash``.

    Its columns are the rows' keys, its aggregates the mean and std of
    each metric, and its timings those of ``timings`` added phase by phase.
    """
    aggregates = {}
    for m in metrics:
        vals = np.array([row[m] for row in rows], dtype=np.float64)
        aggregates[f"{m}_mean"] = float(vals.mean())
        # sample standard deviation, matching mean +/- std reporting
        aggregates[f"{m}_std"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    phases = dict.fromkeys(phase for part in timings for phase in part)
    summed = {phase: sum(part.get(phase, 0.0) for part in timings) for phase in phases}
    config_key = _config_hash(ds, config)
    return RunReport(label, config_key, config, list(rows[0]), rows, aggregates, summed)


def run_grid(
    ds: Dataset,
    arms: Sequence[tuple[str, ExperimentConfig]],
    attack_grid: Sequence[tuple[str, float]] = (),
    dump_dir: Path | None = None,
) -> dict[str, tuple[dict[str, float], list[tuple[list[dict], dict[str, float]]]]]:
    """Every (label, config) arm, whose configs may differ only in beta, levels
    and lam, on the clean graph and then on each (kind, intensity) attack cell.

    Returns, per cell label ("clean", then ``attack_labels``), the cell's own
    timings (its fills and betweenness) and each arm's ``(rows, timings)``;
    an attacked row also names its ``attack_seed``.  ``dump_dir`` gets one
    negatives file per run, ``negatives-run{r}.json``, so it takes a single
    arm on the clean graph only.
    """
    if not arms:
        raise ValueError("no arms to run")
    if dump_dir is not None and (len(arms) > 1 or attack_grid):
        raise ValueError("dump_dir names its files by run only: one arm on the clean graph, "
                         f"not {len(arms)} arm(s) and {len(attack_grid)} attack cell(s)")
    first_label, first = arms[0]
    for i, (label, cfg) in enumerate(arms):
        if label in (arm for arm, _ in arms[:i]):
            raise ValueError(f"arm label {label!r} is repeated")
        if replace(cfg, beta=first.beta, levels=first.levels, lam=first.lam) != first:
            raise ValueError(f"arm {label!r} differs from arm {first_label!r} beyond beta, "
                             "levels and lam")
    labels = ["clean", *(attack_labels(attack_grid) if attack_grid else ())]
    # every graph has ds's labels: an impossible split fails before any fill
    check_split(ds, first.per_class, first.num_val, first.num_test)
    betweenness = None
    if any(kind == "ctbca" for kind, _ in attack_grid):
        t0 = time.perf_counter()
        betweenness = edge_betweenness(ds.graph)
        betweenness_s = time.perf_counter() - t0
    scoring = [i for i, (_, cfg) in enumerate(arms) if cfg.lam != 0.0]
    # candidates by graph fingerprint and arm, for this call only: a perturbed
    # graph equal to one already scored (ctbca without ties gives the same
    # graph in every run) is not scored again
    scored: dict[str, dict[int, dict[int, CandidateSet]]] = {}
    grid = {}
    for label, cell in zip(labels, [None, *attack_grid]):
        cell_timings = {"betweenness": betweenness_s} if cell and cell[0] == "ctbca" else {}
        results: list[tuple[list[dict], dict[str, float]]] = [([], {}) for _ in arms]
        for r in range(first.runs):
            run_ds, attacked = ds, {}
            if cell is not None:
                spec = AttackSpec(*cell, seed=derive_seed(first.base_seed + r, "attack"))
                run_ds = replace(ds, graph=apply_attack(ds.graph, spec, scores=betweenness))
                attacked = {"attack_seed": spec.seed}
            key = _graph_fingerprint(run_ds.graph)
            if scoring and key not in scored:
                fills = _score(run_ds.graph, [arms[i][1] for i in scoring], cell_timings)
                scored[key] = dict(zip(scoring, fills))
            for i, ((arm, cfg), (rows, timings)) in enumerate(zip(arms, results)):
                row = _run_once(run_ds, cfg, r, timings, scored.get(key, {}).get(i), dump_dir)
                rows.append({**row, **attacked})
                log.info("%s %s run %d: accuracy=%.4f", label, arm, r, row["accuracy"])
        grid[label] = (cell_timings, results)
    return grid


def _clean_reports(ds: Dataset, arms: Sequence[tuple[str, ExperimentConfig]],
                   dump_dir: Path | None = None) -> list[RunReport]:
    """One report per arm on the clean graph, each timed with the shared fill."""
    fills, results = run_grid(ds, arms, dump_dir=dump_dir)["clean"]
    return [_report(label, ds, cfg.to_dict(), rows, ("accuracy", "mad"), fills, timings)
            for (label, cfg), (rows, timings) in zip(arms, results)]


def run_baseline(
    ds: Dataset,
    config: ExperimentConfig,
    label: str = "baseline",
    dump_negatives_dir: str | Path | None = None,
) -> RunReport:
    """Full pipeline for ``config.runs`` seeded runs, with aggregates."""
    dump = Path(dump_negatives_dir) if dump_negatives_dir else None
    return _clean_reports(ds, [(label, config)], dump_dir=dump)[0]


def run_ablation(ds: Dataset, config: ExperimentConfig) -> list[RunReport]:
    """Combined vs single-score variants under identical seeds."""
    variants = [
        ("ablate/combined", config.beta),
        ("ablate/rwr-only", 1.0),
        ("ablate/pgr-only", 0.0),
    ]
    return _clean_reports(ds, [(label, replace(config, beta=b)) for label, b in variants])


def check_l_values(l_values: Sequence[int]) -> None:
    """Refuse an empty sweep, a non-integer, repeated or below-3 L, before any work."""
    if not l_values:
        raise ValueError("no L values to sweep")
    for i, l in enumerate(l_values):
        check_integer("L", l)
        if l < 3:
            raise ValueError(f"L={l} leaves no candidate levels (levels are 2..L-1)")
        if l in l_values[:i]:
            raise ValueError(f"L={l} is repeated")


def run_l_sweep(
    ds: Dataset, config: ExperimentConfig, l_values: Sequence[int] = (5, 6)
) -> list[RunReport]:
    """One report per maximum hop distance, shared seeds.

    Candidate levels follow the distance: levels = 2..L-1 (layer 1 is
    reserved for positives, so L must be at least 3).
    """
    check_l_values(l_values)
    return _clean_reports(ds, [
        (f"sweep-l/L={l}", replace(config, levels=tuple(range(2, l)))) for l in l_values
    ])


def attack_labels(attack_grid: Sequence[tuple[str, float]]) -> list[str]:
    """The report label of each (kind, intensity) cell.  Refuses an empty
    grid, a bad cell, and two cells under one label and hash."""
    if not attack_grid:
        raise ValueError("empty attack grid")
    cells: dict[str, float] = {}
    for kind, intensity in attack_grid:
        intensity = AttackSpec(kind=kind, intensity=intensity).intensity  # checks the cell
        label = f"attack/{kind}@{intensity:g}"
        if label in cells:
            if cells[label] == intensity:
                raise ValueError(f"attack cell {kind}@{intensity:g} is repeated")
            raise ValueError(f"attack cells {kind}@{cells[label]!r} and {kind}@{intensity!r} "
                             f"share the label {label}")
        cells[label] = intensity
    return list(cells)


def run_attack_comparison(
    ds: Dataset,
    config: ExperimentConfig,
    attack_grid: Sequence[tuple[str, float]] = (("ctbca", 0.10), ("twpa", 0.5)),
) -> list[RunReport]:
    """Clean-vs-attacked accuracy for the negative-sampling model and the
    plain GCN under shared per-run seeds (retraining on the perturbed
    graph).  One report per attack, one paired row per run."""
    attack_labels(attack_grid)  # refuses the empty grid, which run_grid runs clean only
    arms = [("rwnsgcn", config), ("gcn", replace(config, lam=0.0))]
    grid = run_grid(ds, arms, attack_grid)
    clean_timings, clean = grid.pop("clean")
    reports = []
    for (label, (cell_timings, cell_arms)), (kind, intensity) in zip(grid.items(), attack_grid):
        rows = []
        for r, first in enumerate(cell_arms[0][0]):
            row = {key: first[key] for key in ("run", "seed", "attack_seed")}
            for (arm, _), (clean_rows, _), (attacked_rows, _) in zip(arms, clean, cell_arms):
                before, after = clean_rows[r]["accuracy"], attacked_rows[r]["accuracy"]
                row.update({f"clean_accuracy_{arm}": before, f"attacked_accuracy_{arm}": after,
                            f"degradation_{arm}": before - after})
            row["rwnsgcn_no_worse"] = int(row["degradation_rwnsgcn"] <= row["degradation_gcn"])
            rows.append(row)
        # the report, not the config, names the attack (as the float of its
        # cell); every column after run, seed and attack_seed is a metric
        attacked = {**config.to_dict(), "attack_kind": kind, "attack_intensity": float(intensity)}
        # each report times the clean runs plus its own cell only
        timings = [clean_timings, cell_timings, *(t for _, t in clean + cell_arms)]
        reports.append(_report(label, ds, attacked, rows, list(rows[0])[3:], *timings))
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
        payload = [asdict(rep) for rep in reports]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        written.append(path)
    return written
