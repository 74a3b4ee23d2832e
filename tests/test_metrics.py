import tracemalloc

import numpy as np
import pytest

from rwnsgcn.dpp import cosine_rows
from rwnsgcn.metrics import ZERO_DISTANCE_TOL, MadReport, accuracy, mad


def brute_force_mad(emb, tol=1e-12):
    """Loop form of Chen et al.'s MAD (AAAI 2020), x100.

    D_bar_i = sum_j D_ij / sum_j 1(D_ij > 0) and
    MAD = sum_i D_bar_i / sum_i 1(D_bar_i > 0), with D_ij = 1 - cos and
    distances below ``tol`` read as 0.  Zero-norm rows are left out; with
    no non-zero distance at all the value is 0.
    """
    rows = [x for x in np.asarray(emb, dtype=np.float64) if np.linalg.norm(x) > 0]
    d_bar = []
    for i, xi in enumerate(rows):
        total, count = 0.0, 0
        for j, xj in enumerate(rows):
            if i == j:
                continue
            dij = 1.0 - float(xi @ xj / (np.linalg.norm(xi) * np.linalg.norm(xj)))
            if dij >= tol:
                total += dij
                count += 1
        if count:
            d_bar.append(total / count)
    return 100.0 * sum(d_bar) / len(d_bar) if d_bar else 0.0


def test_accuracy_three_of_four():
    preds = np.array([0, 1, 2, 2])
    labels = np.array([0, 1, 2, 1])
    assert accuracy(preds, labels, np.arange(4)) == 0.75


def test_accuracy_all_correct():
    labels = np.array([1, 0, 1])
    assert accuracy(labels, labels, np.arange(3)) == 1.0


def test_accuracy_random_balanced_statistics():
    rng = np.random.default_rng(0)
    n = 10_000
    labels = rng.integers(0, 2, size=n)
    preds = rng.permutation(labels)
    assert abs(accuracy(preds, labels, np.arange(n)) - 0.5) < 0.02


def test_accuracy_empty_mask_rejected():
    with pytest.raises(ValueError):
        accuracy(np.zeros(3), np.zeros(3), np.array([], dtype=int))


def test_mad_two_orthogonal_rows():
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    report = mad(emb)
    assert report.value == pytest.approx(100.0)
    assert report.pairs_used == 2
    assert report.pairs_skipped_zero == 0


def test_mad_identical_rows_collapse_to_zero():
    emb = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 4.0]])
    report = mad(emb)
    assert report.value == 0.0
    assert report.collapsed
    assert report.pairs_used == 0
    assert report.pairs_skipped_zero == 6
    assert report.zero_rows == 0
    assert brute_force_mad(emb) == 0.0


def test_mad_zero_rows_left_out_and_counted():
    report = mad(np.zeros((5, 4)))
    assert report.value == 0.0
    assert report.collapsed
    assert report.zero_rows == 5
    assert report.pairs_used == report.pairs_skipped_zero == 0

    rng = np.random.default_rng(12)
    live = rng.normal(size=(6, 3))
    emb = np.vstack([live[:2], np.zeros((2, 3)), live[2:]])
    report = mad(emb)
    assert report.value == mad(live).value
    assert report.zero_rows == 2
    assert report.pairs_used == 30
    assert not report.collapsed


def test_mad_equiangular_rows_give_100_d():
    # rows e_i + c 1 of R^5 meet at one angle: d = 1 / (1 + 2c + 5c^2)
    c = 0.5
    emb = np.eye(5) + c
    d = 1.0 / (1.0 + 2.0 * c + 5.0 * c * c)
    report = mad(emb)
    assert report.value == pytest.approx(100.0 * d, abs=1e-9)
    assert report.value == pytest.approx(30.769230769, abs=1e-6)
    assert report.pairs_used == 20


def test_mad_two_rows_at_distance_d():
    for theta in (0.1, 0.7, 2.0, np.pi):
        emb = np.array([[2.0, 0.0], [np.cos(theta), np.sin(theta)]])
        d = 1.0 - np.cos(theta)
        assert mad(emb).value == pytest.approx(100.0 * d, abs=1e-9)


def test_mad_leaves_out_a_row_whose_pairs_are_all_near_zero():
    # rows at angles 0, phi, 2 phi: the pairs of the middle row sit at
    # ~phi^2 / 2 = 5e-13, below the tolerance; the outer pair at ~2e-12 does not
    phi = 1e-6
    angles = np.array([0.0, phi, 2 * phi])
    emb = np.column_stack((np.cos(angles), np.sin(angles)))
    report = mad(emb)
    assert report.pairs_used == 2
    assert report.pairs_skipped_zero == 4
    # the mean over the two outer rows only, not over all three
    assert report.value == pytest.approx(100.0 * (1.0 - np.cos(2 * phi)), rel=1e-3)
    assert report.value == pytest.approx(brute_force_mad(emb), rel=1e-9)


def test_mad_counts_skipped_pairs():
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    report = mad(emb)
    # the identical pair (0,1) is skipped in both directions
    assert report.pairs_skipped_zero == 2
    assert report.pairs_used == 4


def test_mad_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        emb = rng.normal(size=(n, int(rng.integers(2, 6))))
        assert mad(emb).value == pytest.approx(brute_force_mad(emb), abs=1e-9)


def test_mad_invariant_to_positive_row_scaling():
    rng = np.random.default_rng(9)
    emb = rng.normal(size=(10, 4))
    scaled = emb * rng.uniform(0.1, 10.0, size=(10, 1))
    assert mad(scaled).value == pytest.approx(mad(emb).value, abs=1e-9)


def test_mad_invariant_to_row_permutation():
    rng = np.random.default_rng(10)
    emb = rng.normal(size=(12, 5))
    perm = rng.permutation(12)
    assert mad(emb[perm]).value == pytest.approx(mad(emb).value, abs=1e-9)


def two_copy_mad(embeddings):
    """``mad`` as it was with two unit copies: ``cosine_rows(emb, emb)``."""
    emb = np.asarray(embeddings, dtype=np.float64)
    nonzero = np.linalg.norm(emb, axis=1) > 0
    emb = emb[nonzero]
    n = emb.shape[0]
    dist = 1.0 - cosine_rows(emb, emb)
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


def test_mad_bits_equal_the_two_copy_form():
    rng = np.random.default_rng(12)
    cases = [np.maximum(rng.normal(size=(300, 3703)), 0.0) * (rng.random((300, 3703)) < 0.05)]
    for _ in range(30):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 70))
        emb = rng.normal(size=(n, d)) * (rng.random((n, d)) < rng.uniform(0.1, 1.0))
        emb[rng.random(n) < 0.2] = 0.0  # zero rows
        emb[rng.random(n) < 0.2] = emb[0] * rng.uniform(0.5, 3.0)  # parallel rows
        cases.append(emb)
    cases.append(np.zeros((3, 4)))
    cases.append(np.array([[1e-150, 0.0], [0.0, 1e150], [-0.0, 2.0], [3.0, 1e-150]]))
    for emb in cases:
        got, want = mad(emb), two_copy_mad(emb)
        assert got == want
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()


def test_mad_bits_do_not_depend_on_the_memory_order():
    # a row's norm over Fortran-ordered or strided memory can differ in the
    # last bits from the same row's norm over C-ordered memory
    rng = np.random.default_rng(14)
    for _ in range(200):  # about one Fortran-ordered case in 25 moved a bit
        n, d = int(rng.integers(2, 40)), int(rng.integers(2, 300))
        emb = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-100, 100)
        emb[rng.random(n) < 0.2] = 0.0  # zero rows
        for view in (np.asfortranarray(emb), emb[:, ::2], emb[::-1]):
            got, want = mad(view), two_copy_mad(np.ascontiguousarray(view))
            assert got == want
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()


def test_mad_normalises_one_copy_of_its_rows():
    rng = np.random.default_rng(13)
    emb = np.maximum(rng.normal(size=(300, 3703)), 0.0)
    tracemalloc.start()
    try:
        mad(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the non-zero rows, scaled in place, and the copy that keeps the
    # product off syrk: two copies of the input; two unit copies and the
    # rows they were divided from made it four
    assert peak < 2.5 * emb.nbytes


def test_mad_needs_two_rows():
    with pytest.raises(ValueError):
        mad(np.ones((1, 3)))


def test_accuracy_range_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 4, size=n)
        labels = rng.integers(0, 4, size=n)
        acc = accuracy(preds, labels, np.arange(n))
        assert 0.0 <= acc <= 1.0
