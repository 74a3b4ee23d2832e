"""Experiment configuration, stable hashing, and seed sub-streams.

Every report row carries the hash of the exact configuration that
produced it.  Per-run randomness is split into named sub-streams via
sha256 so that ablation variants sharing a base seed also share the
randomness of every phase they have in common, independent of process
or scheduling order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from rwnsgcn.dpp import check_method
from rwnsgcn.scoring import check_alpha, check_beta, check_levels

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "derive_seed",
    "substream",
]


def check_dropout(dropout_p: float) -> None:
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout_p}")


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    dataset_path: str = ""
    dataset_format: str = "content-cites"  # the only format load_dataset reads
    # split
    per_class: int = 20
    num_val: int = 500
    num_test: int = 1000
    # model
    layers: int = 4
    hidden: int = 64
    dropout: float = 0.5
    lam: float = 0.1
    # scoring
    alpha: float = 0.85
    beta: float = 0.5
    levels: tuple = (2, 3, 4)
    k_per_level: int = 1
    # sampling
    k_dpp: int = 3
    sampler: str = "exact"  # "exact" | "greedy"
    resample_every: int = 0  # re-draw negatives every N epochs (0 = static)
    sources: str = "all"  # "all" | "degree-range" (unweighted degree 3..6)
    # run
    runs: int = 10
    epochs: int = 200
    lr: float = 0.01
    base_seed: int = 0

    def __post_init__(self) -> None:
        # checked when built, so an unusable config fails before any work
        for name in ("runs", "epochs", "layers", "num_val", "num_test", "per_class",
                     "hidden", "k_dpp", "k_per_level"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.num_test < 2:
            raise ValueError(f"num_test must be at least 2, the fewest rows MAD can take, "
                             f"got {self.num_test}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and above 0, got {self.lr}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and at least 0, got {self.lam}")
        check_dropout(self.dropout)
        check_alpha(self.alpha)
        check_beta(self.beta)
        # the sorted, de-duplicated levels the scoring uses: one hash per pick
        object.__setattr__(self, "levels", tuple(check_levels(self.levels, self.k_per_level)))
        check_method(self.sampler)
        if self.sources not in ("all", "degree-range"):
            raise ValueError(f"unknown sources mode {self.sources!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["levels"] = list(self.levels)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def config_hash(config: dict) -> str:
    """sha256 over the canonical JSON form of a report's config dict (first
    16 hex chars)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit sub-seed for (seed, tags), identical across processes."""
    text = str(int(seed)) + "/" + "/".join(str(t) for t in tags)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, *tags) -> np.random.Generator:
    """Named random sub-stream derived from (seed, tags)."""
    return np.random.default_rng(derive_seed(seed, *tags))
