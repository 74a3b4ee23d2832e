"""Classification accuracy and the mean average cosine distance (MAD).

MAD is the over-smoothing statistic of Chen et al. (*Measuring and
Relieving the Over-smoothing Problem*, AAAI 2020): each row's mean cosine
distance to the rows it is not identical to, averaged over the rows that
have any.  Distances below ``ZERO_DISTANCE_TOL`` count as identical and
zero-norm rows, which have no direction, are left out; both are counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MadReport", "accuracy", "mad"]

ZERO_DISTANCE_TOL = 1e-12


@dataclass(frozen=True)
class MadReport:
    value: float  # reported x100
    pairs_used: int
    pairs_skipped_zero: int
    zero_rows: int  # left out: a zero row has no direction
    collapsed: bool  # no pair survived, so value is 0


def accuracy(preds: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked nodes classified correctly."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("mask is empty")
    return float(np.mean(np.asarray(preds)[mask] == np.asarray(labels)[mask]))


def mad(embeddings: np.ndarray) -> MadReport:
    """Mean average cosine distance of the rows, x100 (Chen et al. 2020).

    D_ij = 1 - cos(x_i, x_j) over the ordered pairs of non-zero rows;
    pairs with D_ij below ``ZERO_DISTANCE_TOL`` are skipped.  D_i is the
    mean of row i's surviving D_ij, and MAD is the mean of D_i over the
    rows with any surviving pair.  When no pair survives (every row zero
    or all rows parallel) MAD is 0 and the report is ``collapsed``.
    """
    # C order: each row's norm then has the bits of the same row on its own
    emb = np.ascontiguousarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 2:
        raise ValueError("need at least two embedding rows")
    norms = np.linalg.norm(emb, axis=1)
    nonzero = norms > 0
    unit = emb[nonzero]
    n = unit.shape[0]
    # the unit rows, made once in this copy (cosine_rows(emb, emb) makes two
    # with the same bits: each row's norm reduces on its own); the copied
    # second operand keeps the product on gemm, because ``a @ a.T`` on one
    # buffer goes to syrk, whose last bits can differ
    unit /= norms[nonzero][:, None]
    dist = 1.0 - unit @ unit.copy().T
    offdiag = ~np.eye(n, dtype=bool)
    usable = offdiag & (dist >= ZERO_DISTANCE_TOL)
    pairs_used = int(usable.sum())
    counts = usable.sum(axis=1)
    rows = counts > 0
    d_i = np.where(usable, dist, 0.0).sum(axis=1)[rows] / counts[rows]
    return MadReport(
        value=100.0 * float(d_i.mean()) if pairs_used else 0.0,
        pairs_used=pairs_used,
        pairs_skipped_zero=int(offdiag.sum()) - pairs_used,
        zero_rows=int(nonzero.size - n),
        collapsed=not pairs_used,
    )
