"""The benchmark's workloads: a generated dataset, a harness entry point
and the configuration overrides it runs with.

Graph sizes are scaled down from Cora / CiteSeer / PubMed so that one
seeded experiment takes seconds, not minutes; the shapes that decide
which layer does the work (degree, feature width and density, class
count, isolated share, k-DPP choice) follow the originals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from gen import SCALES, Scale


@dataclass(frozen=True)
class Workload:
    name: str
    scale: Scale
    entry: str  # "baseline" -> run_baseline, "attack" -> run_attack_comparison
    overrides: dict


def _split(num_val: int, num_test: int) -> dict:
    return {"num_val": num_val, "num_test": num_test}


WORKLOADS = {
    w.name: w
    for w in [
        # default model and sampler config; every DPP draw keeps all its
        # candidates, so training dominates and the sampler is a control
        Workload("cora-train", SCALES["cora"], "baseline",
                 {"runs": 1, "epochs": 150, **_split(200, 300)}),
        # up to 6 candidates for k=3 and redraws every 15 epochs: the exact
        # k-DPP really chooses, and does it four times per run
        Workload("citeseer-dpp", SCALES["citeseer"], "baseline",
                 {"runs": 1, "epochs": 60, "k_per_level": 2, "resample_every": 15,
                  **_split(150, 300)}),
        # the default attack grid: exact edge betweenness, then a cold
        # candidate fill per perturbed graph, for both models.  Scoring only
        # the degree-3..6 sources leaves betweenness the largest single cost
        Workload("pubmed3k-attack", SCALES["pubmed3k"], "attack",
                 {"runs": 1, "epochs": 30, "sources": "degree-range",
                  **_split(150, 300)}),
    ]
}


def toy(workload: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    nodes = 160
    scale = dataclasses.replace(
        workload.scale, nodes=nodes,
        edges=workload.scale.edges * nodes // workload.scale.nodes,
    )
    overrides = {**workload.overrides, "epochs": 4, "per_class": 5, **_split(30, 40)}
    if overrides.get("resample_every"):
        overrides["resample_every"] = 2
    return dataclasses.replace(workload, scale=scale, overrides=overrides)
