"""Command-line entry points.

Subcommands: ``prepare`` (write a dataset, or a BFS subgraph of it, as a
new ``.content``/``.cites`` pair), ``baseline``, ``attack``, ``ablate``,
``sweep-l``, ``report``.  Every ExperimentConfig field but
``dataset_format`` has one experiment flag; a JSON config file may supply
all of them and explicit flags win over file values.  Failures, a bad
argument included, exit 1 with a single machine-readable error line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from rwnsgcn import data as data_mod
from rwnsgcn.config import ExperimentConfig
from rwnsgcn.harness import (
    RunReport,
    emit_report,
    load_dataset,
    run_ablation,
    run_attack_comparison,
    run_baseline,
    run_l_sweep,
)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


_CONFIG_FLAGS = [
    # (flag, ExperimentConfig field, type, help)
    ("--dataset-path", "dataset_path", str, "prefix of the .content/.cites pair"),
    ("--per-class", "per_class", int, "train nodes per class"),
    ("--num-val", "num_val", int, "validation pool size"),
    ("--num-test", "num_test", int, "test pool size"),
    ("--layers", "layers", int, "number of weight layers"),
    ("--hidden", "hidden", int, "hidden width"),
    ("--dropout", "dropout", float, "dropout probability"),
    ("--lambda", "lam", float, "negative-branch balance coefficient"),
    ("--alpha", "alpha", float, "walk damping / restart factor"),
    ("--beta", "beta", float, "restart-walk vs global-rank mix"),
    ("--k-per-level", "k_per_level", int, "candidates kept per layer"),
    ("--k-dpp", "k_dpp", int, "negatives sampled per source"),
    ("--sampler", "sampler", str, "exact | greedy"),
    ("--resample-every", "resample_every", int, "re-draw negatives every N epochs (0 = static)"),
    ("--sources", "sources", str, "all | degree-range (unweighted degree 3..6)"),
    ("--runs", "runs", int, "number of seeded runs"),
    ("--epochs", "epochs", int, "training epochs per run"),
    ("--lr", "lr", float, "learning rate"),
    ("--base-seed", "base_seed", int, "seed of run 0"),
    ("--levels", "levels", _ints, "comma-separated candidate layers, e.g. 2,3,4"),
]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    for flag, dest, typ, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    parser.add_argument("--out", type=str, default="results", help="output directory")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = (
        ExperimentConfig.from_json_file(args.config)
        if args.config
        else ExperimentConfig()
    )
    # an unset flag is None and keeps the file's (or the default) value
    values = {dest: getattr(args, dest) for _, dest, _, _ in _CONFIG_FLAGS}
    return config.with_overrides(**{k: v for k, v in values.items() if v is not None})


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def cmd_prepare(args: argparse.Namespace) -> int:
    # raw features: an experiment normalises the rows when it loads the pair
    ds = data_mod.load_content_cites_paths(args.content, args.cites, row_normalize=False)
    if args.subgraph_size:
        if args.subgraph_seed_node is None:
            seed_node = int(np.argmax(ds.graph.unweighted_degrees()))
        else:
            seed_node = args.subgraph_seed_node
        ds = data_mod.bfs_subgraph(ds, seed_node, args.subgraph_size)
    data_mod.save_content_cites(ds, args.out)
    print(
        json.dumps(
            {
                "dataset_path": args.out,
                "num_nodes": ds.num_nodes,
                "num_edges": ds.graph.num_edges,
                "classes": int(np.unique(ds.labels).size),  # the classes the pair loads with
                "feature_dim": ds.feature_dim,
                "dropped_edges": ds.dropped_edges,
            }
        )
    )
    return 0


def _print_aggregates(reports: list[RunReport]) -> None:
    for rep in reports:
        summary = {"label": rep.label}
        summary.update({k: round(v, 6) for k, v in rep.aggregates.items()})
        print(json.dumps(summary))


def cmd_baseline(args: argparse.Namespace) -> int:
    config = _build_config(args)
    ds = load_dataset(config)
    report = run_baseline(
        ds,
        config,
        label=args.label,
        dump_negatives_dir=args.dump_negatives,
    )
    emit_report([report], args.out, stem=args.stem)
    _print_aggregates([report])
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    config = _build_config(args)
    ds = load_dataset(config)
    grid = [("ctbca", f) for f in _parse_floats(args.ctbca_fractions)]
    grid += [("twpa", s) for s in _parse_floats(args.twpa_sigmas)]
    reports = run_attack_comparison(ds, config, attack_grid=grid)
    emit_report(reports, args.out, stem=args.stem)
    _print_aggregates(reports)
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    ds = load_dataset(config)
    reports = run_ablation(ds, config)
    emit_report(reports, args.out, stem=args.stem)
    _print_aggregates(reports)
    return 0


def cmd_sweep_l(args: argparse.Namespace) -> int:
    config = _build_config(args)
    ds = load_dataset(config)
    l_values = [int(x) for x in args.l_values.split(",")]
    reports = run_l_sweep(ds, config, l_values=l_values)
    emit_report(reports, args.out, stem=args.stem)
    _print_aggregates(reports)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    for path in args.json_reports:
        for entry in json.loads(Path(path).read_text(encoding="utf-8")):
            reports.append(
                RunReport(
                    label=entry["label"],
                    config_hash=entry["config_hash"],
                    config=entry["config"],
                    columns=entry["columns"],
                    rows=entry["rows"],
                    aggregates=entry["aggregates"],
                    timings=entry.get("timings", {}),
                )
            )
    emit_report(reports, args.out, stem=args.stem)
    _print_aggregates(reports)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises on a bad argument, so ``main`` reports it in one line
    instead of exiting 2 after a usage block."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rwnsgcn",
        description="Negative-sampling GCN experiments on citation networks",
    )
    parser.add_argument("--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "prepare", help="write a (sub)graph of a .content/.cites pair as a new pair"
    )
    p.add_argument("--content", required=True, help=".content file path")
    p.add_argument("--cites", required=True, help=".cites file path")
    p.add_argument(
        "--out", required=True, help="output prefix: writes PREFIX.content and PREFIX.cites"
    )
    p.add_argument(
        "--subgraph-size",
        type=int,
        default=0,
        help="extract an induced breadth-first subgraph of this many nodes",
    )
    p.add_argument(
        "--subgraph-seed-node",
        type=int,
        default=None,
        help="subgraph start node (default: highest-degree node)",
    )
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("baseline", help="run the configured pipeline")
    _add_config_flags(p)
    p.add_argument("--label", default="baseline", help="report label")
    p.add_argument("--stem", default="baseline", help="output file stem")
    p.add_argument(
        "--dump-negatives",
        default=None,
        help="directory for per-run sampled-negative JSON dumps",
    )
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("attack", help="paired clean/attacked comparison")
    _add_config_flags(p)
    p.add_argument("--ctbca-fractions", default="0.10", help="comma list of fractions")
    p.add_argument("--twpa-sigmas", default="0.5", help="comma list of sigmas")
    p.add_argument("--stem", default="attack", help="output file stem")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("ablate", help="combined vs single-score variants")
    _add_config_flags(p)
    p.add_argument("--stem", default="ablate", help="output file stem")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-l", help="sweep the maximum hop distance")
    _add_config_flags(p)
    p.add_argument("--l-values", default="5,6", help="comma list of L values")
    p.add_argument("--stem", default="sweep-l", help="output file stem")
    p.set_defaults(func=cmd_sweep_l)

    p = sub.add_parser("report", help="re-emit CSV/JSON from saved JSON reports")
    p.add_argument("json_reports", nargs="+", help="JSON report files")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--stem", default="report", help="output file stem")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --help still exits 0
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except Exception as exc:  # surface a single machine-readable line
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
