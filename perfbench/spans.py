"""Spans recorded around the program's public functions, from outside.

``Tracer.install()`` replaces each function named in ``SPAN_POINTS`` on the
module that looks it up (``rwnsgcn.scoring.bfs_layers`` is what
``score_all_sources`` calls, ``rwnsgcn.harness.train`` is what the harness
calls) with a wrapper that records one span per call: name, start, end,
parent span and seeded-run id.  Spans stay in memory until the run ends.
``per_layer`` turns them into the benchmark's per-layer metrics; self
time is a span's duration minus the part of it that child spans cover.

``Recorder`` keeps the return values of a few harness-boundary calls, in
traced and untraced runs alike: the output checks, the fingerprint and
the per-layer counts of candidates and negative edges read them.  It
takes no timestamps.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict


def _forward_name(args, kwargs) -> str:
    train_mode = kwargs.get("train_mode", args[4] if len(args) > 4 else False)
    return "model.forward.train" if train_mode else "model.forward.eval"


# (module the caller looks the name up in, attribute, span name).  A span
# name that is a function picks the name per call.  Several entries may
# share a span name when a function is looked up from several modules.
SPAN_POINTS = [
    ("rwnsgcn.harness", "load_dataset", "harness.load_dataset"),
    ("rwnsgcn.harness", "run_baseline", "harness.run_baseline"),
    ("rwnsgcn.harness", "run_attack_comparison", "harness.run_attack_comparison"),
    ("rwnsgcn.harness", "emit_report", "harness.emit_report"),
    ("rwnsgcn.data", "load_content_cites_paths", "data.load_content_cites_paths"),
    ("rwnsgcn.harness", "planetoid_split", "data.planetoid_split"),
    ("rwnsgcn.data", "build_graph", "graph.build_graph"),
    ("rwnsgcn.harness", "build_graph", "graph.build_graph"),
    ("rwnsgcn.dpp", "build_graph", "graph.build_graph"),
    ("rwnsgcn.attacks", "build_graph", "graph.build_graph"),
    ("rwnsgcn.harness", "sym_normalized_operator", "graph.sym_normalized_operator"),
    ("rwnsgcn.model", "sym_normalized_operator", "graph.sym_normalized_operator"),
    ("rwnsgcn.graph:Graph", "edges", "graph.Graph.edges"),
    ("rwnsgcn.harness", "score_all_sources", "scoring.score_all_sources"),
    ("rwnsgcn.scoring", "pagerank_scores", "scoring.pagerank_scores"),
    ("rwnsgcn.scoring", "bfs_layers", "scoring.bfs_layers"),
    ("rwnsgcn.scoring", "rwr_scores", "scoring.rwr_scores"),
    ("rwnsgcn.scoring", "combined_scores", "scoring.combined_scores"),
    ("rwnsgcn.scoring", "select_candidates", "scoring.select_candidates"),
    ("rwnsgcn.harness", "label_propagation", "dpp.label_propagation"),
    ("rwnsgcn.harness", "draw_negative_samples", "dpp.draw_negative_samples"),
    ("rwnsgcn.dpp", "build_dpp_kernel", "dpp.build_dpp_kernel"),
    ("rwnsgcn.dpp", "kdpp_sample_exact", "dpp.kdpp_sample_exact"),
    ("rwnsgcn.harness", "build_negative_graph", "dpp.build_negative_graph"),
    ("rwnsgcn.harness", "train", "model.train"),
    ("rwnsgcn.model", "init_params", "model.init_params"),
    ("rwnsgcn.model", "forward", _forward_name),
    ("rwnsgcn.model", "loss_cross_entropy", "model.loss_cross_entropy"),
    ("rwnsgcn.model", "backward", "model.backward"),
    ("rwnsgcn.model", "adam_step", "model.adam_step"),
    ("rwnsgcn.harness", "predict", "model.predict"),
    ("rwnsgcn.harness", "accuracy", "metrics.accuracy"),
    ("rwnsgcn.harness", "mad", "metrics.mad"),
    ("rwnsgcn.harness", "edge_betweenness", "attacks.edge_betweenness"),
    ("rwnsgcn.attacks", "ctbca_remove", "attacks.ctbca_remove"),
    ("rwnsgcn.attacks", "twpa_perturb", "attacks.twpa_perturb"),
]

# Root spans the benchmark opens itself; they are not per-layer metrics.
SETUP, EXPERIMENT = "bench.setup", "bench.experiment"

# Per-layer metrics, in the order they are printed: (name, unit).
SELF_TIMES = [
    "data.load_content_cites_paths", "data.planetoid_split",
    "graph.build_graph", "graph.sym_normalized_operator", "graph.Graph.edges",
    "scoring.score_all_sources", "scoring.pagerank_scores", "scoring.bfs_layers",
    "scoring.rwr_scores", "scoring.combined_scores", "scoring.select_candidates",
    "dpp.label_propagation", "dpp.draw_negative_samples", "dpp.build_dpp_kernel",
    "dpp.kdpp_sample_exact", "dpp.build_negative_graph",
    "model.train", "model.init_params", "model.forward.train", "model.forward.eval",
    "model.loss_cross_entropy", "model.backward", "model.adam_step", "model.predict",
    "metrics.accuracy", "metrics.mad",
    "attacks.edge_betweenness", "attacks.ctbca_remove", "attacks.twpa_perturb",
    "harness.load_dataset", "harness.run_baseline", "harness.run_attack_comparison",
    "harness.emit_report",
]
CALL_COUNTS = [
    "graph.build_graph", "graph.sym_normalized_operator",
    "scoring.score_all_sources", "scoring.bfs_layers", "scoring.rwr_scores",
    "dpp.label_propagation", "dpp.build_dpp_kernel", "dpp.kdpp_sample_exact",
]
DERIVED = [
    ("harness.candidate_cache.miss_ratio", "ratio"),
    ("scoring.empty_sources", "count"),
    ("scoring.candidates_per_source", "count"),
    ("dpp.kdpp_sample_exact.us_per_draw", "us"),
    ("dpp.nontrivial_draw_ratio", "ratio"),
    ("dpp.negative_edges", "count"),
    ("model.epochs", "count"),
    ("model.ms_per_epoch", "ms"),
    ("trace.setup_s", "s"),
    ("trace.experiment_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]
# Spans whose self time is the model's own work, for model.ms_per_epoch.
MODEL_SPANS = [
    "model.train", "model.forward.train", "model.forward.eval",
    "model.loss_cross_entropy", "model.backward", "model.adam_step",
]
PER_LAYER = (
    [(f"{n}.s", "s") for n in SELF_TIMES]
    + [(f"{n}.calls", "count") for n in CALL_COUNTS]
    + DERIVED
)


def _target(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def _patched(points):
    """Install (target, attribute, replacement) triples; undo on exit."""
    saved = []
    try:
        for target, attr, make in points:
            original = getattr(target, attr)
            saved.append((target, attr, original))
            setattr(target, attr, make(original))
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


class Tracer:
    """In-memory span recorder.

    A span is the tuple (name, start, end, parent index or None, run id or
    None).  The run id is the seeded-run index of the harness run that most
    recently started, read from the split seed handed to
    ``planetoid_split``: ``run_of_split_seed`` maps those seeds back to
    run indices.
    """

    def __init__(self, run_of_split_seed=None, clock=time.perf_counter):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = None
        self._stack: list[int] = []
        self._clock = clock
        self._run_of_split_seed = run_of_split_seed or {}
        # counters taken from a call's arguments as it starts
        self._before = {"data.planetoid_split": self._on_split,
                        "dpp.kdpp_sample_exact": self._on_draw}

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    def _wrap(self, fn, name):
        before = self._before.get(name)
        span = self.span

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with span(name(args, kwargs) if callable(name) else name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_split(self, args, kwargs):
        self.run = self._run_of_split_seed.get(kwargs.get("seed"))

    def _on_draw(self, args, kwargs):
        kernel, k = args[0], args[1]
        self.counts["dpp.nontrivial_draws"] += k < len(kernel.items)

    def install(self):
        """Context manager that wraps every span point for its duration."""
        return _patched(
            (_target(path), attr, lambda fn, name=name: self._wrap(fn, name))
            for path, attr, name in SPAN_POINTS
        )


class Recorder:
    """Keeps return values of harness-boundary calls; takes no timestamps."""

    POINTS = [
        ("rwnsgcn.harness", "mad", "mad"),
        ("rwnsgcn.harness", "score_all_sources", "candidates"),
        ("rwnsgcn.harness", "build_negative_graph", "negative_graphs"),
    ]

    def __init__(self):
        self.values: dict[str, list] = defaultdict(list)

    def _wrap(self, fn, key):
        store = self.values[key]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        return _patched(
            (_target(path), attr, lambda fn, key=key: self._wrap(fn, key))
            for path, attr, key in self.POINTS
        )


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: (self seconds, call count, inclusive seconds).

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span, so nested and back-to-back children
    are each subtracted once.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s, calls, total_s = defaultdict(float), defaultdict(int), defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        self_s[name] += (end - start) - covered
        calls[name] += 1
        total_s[name] += end - start
    return self_s, calls, total_s


def per_layer(spans, counts, recorded) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (all but overhead).

    ``counts`` are the tracer's counters, ``recorded`` the ``Recorder``'s
    return values (candidate fills, negative graphs) of the same run.
    ``trace.unaccounted_s`` is what the root spans took beyond the self
    times reported here, so the ``.s`` metrics plus it sum exactly to
    ``trace.setup_s + trace.experiment_s``.
    """
    self_s, calls, total_s = self_times(spans)
    out = {f"{n}.s": self_s.get(n, 0.0) for n in SELF_TIMES}
    out.update({f"{n}.calls": float(calls.get(n, 0)) for n in CALL_COUNTS})

    def ratio(num, den):
        return num / den if den else 0.0

    fills = recorded.get("candidates", [])
    sets = [c for fill in fills for c in fill.values()]
    negative_graphs = recorded.get("negative_graphs", [])
    draws = calls.get("dpp.kdpp_sample_exact", 0)
    epochs = calls.get("model.forward.train", 0)
    out["harness.candidate_cache.miss_ratio"] = ratio(
        len(fills), calls.get("dpp.label_propagation", 0))
    out["scoring.empty_sources"] = ratio(sum(len(c) == 0 for c in sets), len(fills))
    out["scoring.candidates_per_source"] = ratio(sum(len(c) for c in sets), len(sets))
    out["dpp.kdpp_sample_exact.us_per_draw"] = 1e6 * ratio(
        self_s.get("dpp.kdpp_sample_exact", 0.0), draws)
    out["dpp.nontrivial_draw_ratio"] = ratio(counts.get("dpp.nontrivial_draws", 0), draws)
    out["dpp.negative_edges"] = ratio(
        sum(g.num_edges for g in negative_graphs), len(negative_graphs))
    out["model.epochs"] = float(epochs)
    # the model's own work only: train() also times the negative redraws
    # its schedule asks for, which belong to the dpp layer
    out["model.ms_per_epoch"] = 1e3 * ratio(sum(self_s.get(n, 0.0) for n in MODEL_SPANS), epochs)
    out["trace.setup_s"] = total_s.get(SETUP, 0.0)
    out["trace.experiment_s"] = total_s.get(EXPERIMENT, 0.0)
    out["trace.unaccounted_s"] = (
        out["trace.setup_s"] + out["trace.experiment_s"]
        - sum(out[f"{n}.s"] for n in SELF_TIMES)
    )
    out["trace.spans"] = float(len(spans))
    return out
