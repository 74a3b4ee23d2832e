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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "derive_seed",
    "substream",
]


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    dataset_path: str = ""
    dataset_format: str = "content-cites"  # the only format load_dataset reads
    row_normalize: bool = True
    # split
    per_class: int = 20
    num_val: int = 500
    num_test: int = 1000
    # model
    layers: int = 4
    hidden: int = 64
    dropout: float = 0.5
    lam: float = 0.1
    gcn_self_loops: bool = True
    # scoring
    alpha: float = 0.85
    beta: float = 0.5
    l_max: int = 5
    levels: tuple = (2, 3, 4)
    k_per_level: int = 1
    pgr_mode: str = "converged"
    # sampling
    k_dpp: int = 3
    sampler: str = "exact"  # "exact" | "greedy"
    jitter: float = 1e-8
    resample_every: int = 0  # re-draw negatives every N epochs (0 = static)
    sources: str = "all"  # "all" | "degree-range"
    degree_lo: int = 3
    degree_hi: int = 6
    # attack (optional)
    attack_kind: str | None = None  # "ctbca" | "twpa"
    attack_intensity: float = 0.0
    # run
    runs: int = 10
    epochs: int = 200
    lr: float = 0.01
    base_seed: int = 0

    def __post_init__(self) -> None:
        # checked when built, so an unusable config fails before any work
        for name in ("runs", "epochs", "layers", "num_val"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.attack_kind is None and self.attack_intensity != 0.0:
            # a clean cell would otherwise hash differently by a stray intensity
            raise ValueError(f"attack_intensity is {self.attack_intensity}, but "
                             "attack_kind is None; set a kind or leave the intensity at 0")

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
        clean = dict(raw)
        if "levels" in clean and clean["levels"] is not None:
            clean["levels"] = tuple(int(l) for l in clean["levels"])
        return cls(**clean)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        if "levels" in kwargs and kwargs["levels"] is not None:
            kwargs["levels"] = tuple(int(l) for l in kwargs["levels"])
        return replace(self, **kwargs)


def config_hash(config: ExperimentConfig) -> str:
    """sha256 over the canonical JSON form (first 16 hex chars)."""
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit sub-seed for (seed, tags), identical across processes."""
    text = str(int(seed)) + "/" + "/".join(str(t) for t in tags)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, *tags) -> np.random.Generator:
    """Named random sub-stream derived from (seed, tags)."""
    return np.random.default_rng(derive_seed(seed, *tags))
