"""A fixed reference kernel that tells how fast the machine runs right now.

Shared hosts change speed while a benchmark runs: CPU speed states and
neighbours' load can slow everything by tens of percent for seconds to
minutes.  ``reference_time()`` runs the same work every time, independent
of the program, in the proportions the program spends its time on: pure
Python loops and dict updates, many calls on small numpy arrays, a
sparse product and a dense single-thread product.  ``worker.py`` times it
before and after each experiment.

Times are then reported at the reference speed: measured seconds times
``REFERENCE_S / reference time``.  Work that slows down with the machine
reads the same, and work the program stops doing still reads faster.
On a 2-vCPU host with two busy-looping processes beside it, the
experiment's wall time grew 1.52x while its time at the reference speed
moved by 4.5 %.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

CALLS = 7  # kernel calls per sample
# The kernel's mean time on the machine the bounds were tuned on
# (2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS at one thread, fast state);
# it only scales the reported times, so any fixed value would do.
REFERENCE_S = 0.040

_rng = np.random.default_rng(20240813)
_dense = _rng.random((160, 160))
_small = _rng.integers(0, 400, size=300)
_sparse = sp.random_array((3000, 3000), density=0.002, random_state=_rng, format="csr")
_vec = _rng.random(3000)
_keys = _rng.integers(0, 5000, size=6000).tolist()


def _kernel() -> None:
    counts: dict[int, int] = {}
    for key in _keys * 4:  # pure Python, like the per-node loops
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for i in range(80000):
        total += i * i % 7
    for _ in range(480):  # small-array calls, like per-source BFS
        np.unique(_small[np.flatnonzero(_small > 200)])
    v = _vec
    for _ in range(160):  # sparse products, like RWR and the GCN operator
        v = _sparse @ v + _vec
    for _ in range(24):  # dense products, like the GCN layers
        _dense @ _dense


def reference_time() -> float:
    """Mean seconds of ``CALLS`` kernel calls.  The mean, not the median:
    the experiment's time is a sum, so it pays for preempted calls too."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        _kernel()
    return (time.perf_counter() - t0) / CALLS


def at_reference_speed(seconds: float, reference: float) -> float:
    """Measured seconds scaled to the speed at which the kernel takes
    ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference
