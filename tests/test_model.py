import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rwnsgcn import model
from rwnsgcn.config import ExperimentConfig
from rwnsgcn.data import Dataset, SplitMasks, load_content_cites, planetoid_split
from rwnsgcn.graph import build_graph, sym_normalized_operator
from rwnsgcn.model import (
    AdamState,
    ForwardTrace,
    Gradients,
    ModelParams,
    TrainedModel,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    loss_cross_entropy,
    predict,
    train,
)

from conftest import assert_same_bytes, dense_adjacency, random_graph


def ops_for(g, self_loops=True):
    pos = sym_normalized_operator(g, self_loops=self_loops)
    neg = sym_normalized_operator(build_graph(g.num_nodes, []), self_loops=False)
    return pos, neg


def plain_gcn_reference(g, x, weights, self_loops=True):
    """Independent dense forward: relu(A x W) per hidden layer, then A x W."""
    a = dense_adjacency(g)
    if self_loops:
        a = a + np.eye(g.num_nodes)
    d = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        s = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1)), 0.0)
    a_hat = s[:, None] * a * s[None, :]
    h = np.asarray(x)
    for w in weights[:-1]:
        h = np.maximum(a_hat @ (h @ w), 0.0)
    return a_hat @ (h @ weights[-1])


# -------------------------------------------------------------------- init


def test_init_glorot_bound():
    params = init_params([4, 3, 2], lam=0.1, seed=1)
    bound = np.sqrt(6.0 / 7.0)
    assert np.all(np.abs(params.W[0]) <= bound)
    assert np.all(np.abs(params.W_dpp[0]) <= bound)
    assert np.all(np.abs(params.W[1]) <= np.sqrt(6.0 / 5.0))


def test_init_deterministic():
    a = init_params([5, 4, 3], lam=0.1, seed=9)
    b = init_params([5, 4, 3], lam=0.1, seed=9)
    for wa, wb in zip(a.W + a.W_dpp, b.W + b.W_dpp):
        assert np.array_equal(wa, wb)


def test_init_four_layer_shapes():
    params = init_params([1433, 64, 64, 64, 7], lam=0.1, seed=0)
    assert len(params.W) == 4
    assert len(params.W_dpp) == 3
    assert params.W[0].shape == (1433, 64)
    assert params.W[-1].shape == (64, 7)
    assert [w.shape for w in params.W_dpp] == [w.shape for w in params.W[:-1]]


def test_init_draws_positive_then_hidden_negative_weights():
    # the classifier has no negative-branch weight; every other weight is
    # drawn in the order W[0], ..., W[-1], W_dpp[0], ..., W_dpp[-1]
    dims = [6, 5, 4, 3]
    params = init_params(dims, lam=0.1, seed=4)
    rng = np.random.default_rng(4)
    shapes = list(zip(dims[:-1], dims[1:]))
    weights = params.W + params.W_dpp
    assert [w.shape for w in weights] == shapes + shapes[:-1]
    for w, (din, dout) in zip(weights, shapes + shapes[:-1]):
        a = np.sqrt(6.0 / (din + dout))
        assert np.array_equal(w, rng.uniform(-a, a, size=(din, dout)))


def test_init_rejects_zero_dim():
    with pytest.raises(ValueError):
        init_params([4, 0, 2], lam=0.1, seed=0)


# ----------------------------------------------------------------- forward


def test_forward_lambda_zero_equals_plain_gcn():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 10, 0.4)
    x = rng.random((10, 5))
    params = init_params([5, 4, 3], lam=0.0, seed=3)
    pos, neg = ops_for(g)
    trace = forward(params, x, pos, neg)
    ref = plain_gcn_reference(g, x, params.W)
    assert np.max(np.abs(trace.logits - ref)) < 1e-9


def test_forward_empty_negative_graph_matches_lambda_zero():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 8, 0.4)
    x = rng.random((8, 5))
    a = init_params([5, 4, 3], lam=0.7, seed=3)
    pos, neg = ops_for(g)  # neg graph empty
    with_branch = forward(a, x, pos, neg)
    a0 = init_params([5, 4, 3], lam=0.0, seed=3)
    without = forward(a0, x, pos, neg)
    assert np.array_equal(with_branch.logits, without.logits)


def test_forward_two_node_hand_computation():
    g = build_graph(2, [(0, 1, 1.0)])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    params = init_params([2, 2, 2], lam=0.5, seed=0)
    w0 = np.array([[1.0, -1.0], [0.5, 1.0]])
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    wd0 = np.array([[0.2, 0.1], [-0.3, 0.4]])
    params.W[0], params.W[1], params.W_dpp[0] = w0, w1, wd0
    neg_g = build_graph(2, [(0, 1, 1.0)])
    pos = sym_normalized_operator(g, self_loops=True)
    neg = sym_normalized_operator(neg_g, self_loops=False)
    trace = forward(params, x, pos, neg)

    a_hat = np.full((2, 2), 0.5)
    a_neg = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = np.maximum(a_hat @ (x @ w0), 0) - 0.5 * np.maximum(a_neg @ (x @ wd0), 0)
    expected = a_hat @ (h @ w1)
    assert np.max(np.abs(trace.logits - expected)) < 1e-9


def test_forward_dimension_mismatch():
    # the input width is W[0]'s row count
    g = build_graph(2, [(0, 1, 1.0)])
    params = init_params([3, 2], lam=0.0, seed=0)
    pos, neg = ops_for(g)
    with pytest.raises(ValueError, match="incompatible .* input dim 3"):
        forward(params, np.ones((2, 4)), pos, neg)


# -------------------------------------------------------------------- loss


def test_loss_uniform_logits():
    logits = np.zeros((3, 7))
    labels = np.array([0, 3, 6])
    mask = np.arange(3)
    assert loss_cross_entropy(logits, labels, mask) == pytest.approx(np.log(7))


def test_loss_confident_correct_goes_to_zero():
    logits = np.zeros((2, 3))
    logits[0, 1] = 50.0
    logits[1, 2] = 50.0
    labels = np.array([1, 2])
    assert loss_cross_entropy(logits, labels, np.arange(2)) < 1e-8


def test_loss_two_node_hand_value():
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0])
    expected = 0.5 * (
        -np.log(np.exp(1) / (np.exp(1) + 1)) - np.log(1 / (1 + np.exp(1)))
    )
    got = loss_cross_entropy(logits, labels, np.arange(2))
    assert got == pytest.approx(expected, abs=1e-12)


def test_loss_empty_mask_rejected():
    with pytest.raises(ValueError, match="mask"):
        loss_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int), np.array([], dtype=int))


# ----------------------------------------------------------------- backward


def finite_difference_check(g, dims, lam, seed, mask_frac=0.7, h=1e-4):
    rng = np.random.default_rng(seed)
    n = g.num_nodes
    x = rng.random((n, dims[0]))
    labels = rng.integers(0, dims[-1], size=n)
    mask = rng.choice(n, size=max(1, int(mask_frac * n)), replace=False)
    neg_edges = []
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            neg_edges.append((int(u), int(v), 1.0))
    pos = sym_normalized_operator(g, self_loops=True)
    neg = sym_normalized_operator(build_graph(n, neg_edges), self_loops=False)
    params = init_params(dims, lam=lam, seed=seed, dropout_p=0.0)

    trace = forward(params, x, pos, neg, train_mode=True)
    grads = backward(trace, params, labels, mask)

    def loss_at():
        t = forward(params, x, pos, neg)
        return loss_cross_entropy(t.logits, labels, mask)

    worst = 0.0
    for wlist, glist in ((params.W, grads.dW), (params.W_dpp, grads.dW_dpp)):
        for w, gmat in zip(wlist, glist):
            idx = [tuple(rng.integers(0, s) for s in w.shape) for _ in range(6)]
            for ij in idx:
                orig = w[ij]
                w[ij] = orig + h
                up = loss_at()
                w[ij] = orig - h
                down = loss_at()
                w[ij] = orig
                fd = (up - down) / (2 * h)
                rel = abs(gmat[ij] - fd) / max(abs(gmat[ij]), abs(fd), 1.0)
                worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(100)
    for trial in range(6):
        n = int(rng.integers(4, 9))
        g = random_graph(rng, n, 0.5)
        worst = finite_difference_check(
            g, [5, 4, 3], lam=float(rng.uniform(0.05, 0.6)), seed=trial
        )
        assert worst < 1e-4


def test_lambda_zero_negative_gradients_are_zero():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 6, 0.5)
    x = rng.random((6, 4))
    labels = rng.integers(0, 3, size=6)
    pos, _ = ops_for(g)
    neg = sym_normalized_operator(build_graph(6, [(0, 3, 1.0)]), self_loops=False)
    params = init_params([4, 4, 3], lam=0.0, seed=1, dropout_p=0.0)
    trace = forward(params, x, pos, neg, train_mode=True)
    grads = backward(trace, params, labels, np.arange(6))
    for gmat in grads.dW_dpp:
        assert np.all(gmat == 0.0)


def test_masked_gradients_ignore_disconnected_unmasked_nodes():
    # two components; mask only touches the first, so logits of the second
    # cannot influence any gradient that feeds the first component
    g = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    rng = np.random.default_rng(3)
    x = rng.random((6, 3))
    labels = np.array([0, 1, 0, 1, 0, 1])
    pos, neg = ops_for(g)
    params = init_params([3, 3, 2], lam=0.0, seed=5, dropout_p=0.0)
    mask = np.array([0, 1, 2])
    trace = forward(params, x, pos, neg, train_mode=True)
    base = backward(trace, params, labels, mask)

    x2 = x.copy()
    x2[3:] = rng.random((3, 3))  # perturb only the disconnected component
    trace2 = forward(params, x2, pos, neg, train_mode=True)
    alt = backward(trace2, params, labels, mask)
    for a, b in zip(base.dW, alt.dW):
        assert np.allclose(a, b, atol=1e-12)


# --------------------------------------------------------------------- adam


def test_adam_zero_gradients_keep_params():
    params = init_params([3, 2], lam=0.0, seed=0)
    state = init_adam_state(params, lr=0.01)
    before = [w.copy() for w in params.W]
    from rwnsgcn.model import Gradients

    grads = Gradients(
        dW=[np.zeros_like(w) for w in params.W],
        dW_dpp=[np.zeros_like(w) for w in params.W_dpp],
    )
    adam_step(params, grads, state)
    for w, b in zip(params.W, before):
        assert np.array_equal(w, b)
    assert state.step == 1


def test_adam_constant_gradient_step_approaches_lr():
    params = init_params([1, 1], lam=0.0, seed=0)
    state = init_adam_state(params, lr=0.01)
    from rwnsgcn.model import Gradients

    g = Gradients(dW=[np.full((1, 1), 0.37)], dW_dpp=[])
    prev = params.W[0][0, 0]
    for _ in range(200):
        adam_step(params, g, state)
    step = prev - params.W[0][0, 0]
    last = params.W[0][0, 0]
    adam_step(params, g, state)
    assert abs((last - params.W[0][0, 0]) - 0.01) < 1e-4


def test_adam_step_counter_increments():
    params = init_params([2, 2], lam=0.0, seed=0)
    state = init_adam_state(params, lr=0.01)
    from rwnsgcn.model import Gradients

    g = Gradients(dW=[np.ones((2, 2))], dW_dpp=[])
    for expected in range(1, 4):
        adam_step(params, g, state)
        assert state.step == expected


# -------------------------------------------------------------------- train


def two_clique_dataset():
    from rwnsgcn.data import Dataset

    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j, 1.0))
    edges.append((4, 5, 1.0))  # bridge
    g = build_graph(10, edges)
    x = np.eye(10)
    labels = np.array([0] * 5 + [1] * 5)
    return Dataset(graph=g, features=x, labels=labels, class_count=2)


def two_clique_masks():
    return SplitMasks(
        train=np.array([0, 5]),
        val=np.array([1, 6]),
        test=np.array([2, 3, 4, 7, 8, 9]),
    )


def test_train_separable_toy_reaches_perfect_accuracy():
    ds = two_clique_dataset()
    masks = two_clique_masks()
    config = ExperimentConfig(epochs=200, lr=0.01, hidden=16, layers=4, dropout=0.5,
                              lam=0.0)
    best = train(ds, masks, build_graph(10, []), config, seed=0)
    pos, neg = ops_for(ds.graph)
    preds, _ = predict(best.params, ds.features, pos, neg)
    assert np.array_equal(preds[masks.test], ds.labels[masks.test])
    assert len(best.train_loss) == 200


def test_train_deterministic_history():
    ds = two_clique_dataset()
    masks = two_clique_masks()
    config = ExperimentConfig(epochs=30, lr=0.01, hidden=8, layers=3, dropout=0.5,
                              lam=0.0)
    h1 = train(ds, masks, build_graph(10, []), config, seed=77)
    h2 = train(ds, masks, build_graph(10, []), config, seed=77)
    assert h1.train_loss == h2.train_loss
    assert h1.val_acc == h2.val_acc


@pytest.mark.parametrize("layers", [0, -2])
def test_train_rejects_fewer_than_one_layer(layers, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the layers check")

    monkeypatch.setattr(model, "init_params", no_work)
    monkeypatch.setattr(model, "sym_normalized_operator", no_work)
    # the config itself refuses, before train() is even called
    with pytest.raises(ValueError, match="layers"):
        config = ExperimentConfig(epochs=3, hidden=4, layers=layers, dropout=0.0, lam=0.0)
        train(two_clique_dataset(), two_clique_masks(), build_graph(10, []), config, seed=0)


@pytest.mark.parametrize("epochs", [0, -3])
def test_train_rejects_fewer_than_one_epoch(epochs, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the epochs check")

    monkeypatch.setattr(model, "init_params", no_work)
    monkeypatch.setattr(model, "sym_normalized_operator", no_work)
    # the config itself refuses, before train() is even called
    with pytest.raises(ValueError, match="epochs"):
        config = ExperimentConfig(epochs=epochs, hidden=4, layers=2, dropout=0.0, lam=0.0)
        train(two_clique_dataset(), two_clique_masks(), build_graph(10, []), config, seed=0)


def test_train_rejects_an_empty_validation_set(monkeypatch):
    # without validation nodes every epoch's accuracy would be nan and the
    # untrained initial weights would come back as the best snapshot
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the validation check")

    monkeypatch.setattr(model, "init_params", no_work)
    monkeypatch.setattr(model, "sym_normalized_operator", no_work)
    masks = two_clique_masks()
    masks = SplitMasks(train=masks.train, val=np.array([], dtype=np.int64), test=masks.test)
    config = ExperimentConfig(epochs=3, hidden=4, layers=2, dropout=0.0, lam=0.0)
    with pytest.raises(ValueError, match="validation set is empty"):
        train(two_clique_dataset(), masks, build_graph(10, []), config, seed=0)


@pytest.mark.parametrize("dropout", [1.5, -0.5, 1.0, float("nan")])
def test_train_rejects_dropout_outside_unit_interval(dropout, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the dropout check")

    with pytest.raises(ValueError, match="dropout"):
        init_params([4, 3, 2], lam=0.1, seed=0, dropout_p=dropout)
    monkeypatch.setattr(model, "sym_normalized_operator", no_work)
    with pytest.raises(ValueError, match=r"^dropout must be in \[0, 1\), got "):
        ExperimentConfig(dropout=dropout)
    # train keeps its own check for a config that skipped the constructor's
    config = ExperimentConfig(epochs=3, hidden=4, layers=2, dropout=0.0, lam=0.0)
    object.__setattr__(config, "dropout", dropout)
    with pytest.raises(ValueError, match="dropout"):
        train(two_clique_dataset(), two_clique_masks(), build_graph(10, []), config, seed=0)


def test_train_aborts_on_nonfinite_loss():
    ds = two_clique_dataset()
    bad = type(ds)(
        graph=ds.graph,
        features=ds.features * np.nan,
        labels=ds.labels,
        class_count=2,
    )
    masks = two_clique_masks()
    config = ExperimentConfig(epochs=5, lr=0.01, hidden=4, layers=2, dropout=0.0, lam=0.0)
    with pytest.raises(RuntimeError, match="epoch 0"):
        train(bad, masks, build_graph(10, []), config, seed=0)


def test_loss_decreases_after_one_adam_step():
    ds = two_clique_dataset()
    pos, neg = ops_for(ds.graph)
    mask = np.arange(10)
    for seed in range(20):
        params = init_params([10, 6, 2], lam=0.0, seed=seed, dropout_p=0.0)
        state = init_adam_state(params, lr=0.01)
        trace = forward(params, ds.features, pos, neg, train_mode=True)
        before = loss_cross_entropy(trace.logits, ds.labels, mask)
        grads = backward(trace, params, ds.labels, mask)
        adam_step(params, grads, state)
        after_trace = forward(params, ds.features, pos, neg)
        after = loss_cross_entropy(after_trace.logits, ds.labels, mask)
        assert after < before


# ------------------------------------------------------------------ predict


def test_predict_tie_prefers_smaller_class():
    logits = np.array([[0.2, 0.9, 0.9]])
    assert int(np.argmax(logits, axis=1)[0]) == 1


def test_predict_deterministic_and_dropout_off():
    ds = two_clique_dataset()
    masks = two_clique_masks()
    config = ExperimentConfig(epochs=10, lr=0.01, hidden=8, layers=3, dropout=0.5, lam=0.0)
    best = train(ds, masks, build_graph(10, []), config, seed=1)
    pos, neg = ops_for(ds.graph)
    p1, e1 = predict(best.params, ds.features, pos, neg)
    p2, e2 = predict(best.params, ds.features, pos, neg)
    assert np.array_equal(p1, p2)
    assert np.array_equal(e1, e2)


def test_permutation_equivariance():
    rng = np.random.default_rng(50)
    n = 9
    g = random_graph(rng, n, 0.4)
    x = rng.random((n, 4))
    params = init_params([4, 5, 3], lam=0.3, seed=2, dropout_p=0.0)
    neg_g = build_graph(n, [(0, 4, 1.0), (2, 7, 1.0)])
    pos = sym_normalized_operator(g, self_loops=True)
    neg = sym_normalized_operator(neg_g, self_loops=False)
    base = forward(params, x, pos, neg).logits

    perm = rng.permutation(n)
    g_p = build_graph(n, [(perm[u], perm[v], w) for u, v, w in g.edges()])
    neg_p = build_graph(n, [(perm[u], perm[v], w) for u, v, w in neg_g.edges()])
    x_p = np.empty_like(x)
    x_p[perm] = x
    out = forward(
        params,
        x_p,
        sym_normalized_operator(g_p, self_loops=True),
        sym_normalized_operator(neg_p, self_loops=False),
    ).logits
    assert np.max(np.abs(out[perm] - base)) < 1e-9


# ------------------------------------------- bit-for-bit training oracles
#
# Verbatim copies of the forward, backward, Adam step and epoch loop that
# every pass computed from scratch with fresh temporaries.  train() reuses
# layer 0 across passes and updates in place; it must give the same bits.


def reference_forward(
    params: ModelParams,
    X,
    pos_op,
    neg_op,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    n = pos_op.shape[0]
    if X.shape[0] != n or X.shape[1] != params.W[0].shape[0]:
        raise ValueError(
            f"feature matrix {X.shape} incompatible with operator {pos_op.shape} "
            f"and input dim {params.W[0].shape[0]}"
        )
    if neg_op.shape[0] != n:
        raise ValueError("negative operator size mismatch")
    num_layers = len(params.W)
    use_neg = params.lam != 0.0 and neg_op.nnz > 0
    if train_mode and params.dropout_p > 0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")

    inputs: list = []
    gates: list = []
    keeps: list = []
    keep = 1.0 - params.dropout_p
    x = X
    for l in range(num_layers - 1):
        inputs.append(x)
        z_pos = pos_op @ (x @ params.W[l])
        a = np.maximum(z_pos, 0.0)
        z_neg = None
        if use_neg:
            z_neg = neg_op @ (x @ params.W_dpp[l])
            a = a - params.lam * np.maximum(z_neg, 0.0)
        kept = None
        if train_mode and params.dropout_p > 0:
            kept = rng.random(a.shape) < keep
            a = a * (kept.astype(np.float64) / keep)
        gates.append((z_pos > 0, None if z_neg is None else z_neg > 0))
        keeps.append(kept)
        x = a
    inputs.append(x)
    logits = pos_op @ (x @ params.W[-1])
    return ForwardTrace(
        inputs=inputs,
        first=None,
        gates=gates,
        keeps=keeps,
        logits=logits,
        pos_op=pos_op,
        neg_op=neg_op,
    )


def reference_backward(trace, params, labels, mask) -> Gradients:
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("mask is empty")
    n, c = trace.logits.shape
    rows = trace.logits[mask]
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    dlogits = np.zeros((n, c))
    dlogits[mask] = probs
    dlogits[mask, labels[mask]] -= 1.0
    dlogits /= mask.size

    num_layers = len(params.W)
    dW: list[np.ndarray] = [np.zeros_like(w) for w in params.W]
    dW_dpp: list[np.ndarray] = [np.zeros_like(w) for w in params.W_dpp]
    op_pos = trace.pos_op
    op_neg = trace.neg_op

    h = trace.inputs[-1]
    du = op_pos @ dlogits
    dW[-1] = h.T @ du
    dx = du @ params.W[-1].T

    for l in range(num_layers - 2, -1, -1):
        g = dx
        if trace.keeps[l] is not None:  # the float mask of 0 and 1 / keep
            g = g * (trace.keeps[l].astype(np.float64) / (1.0 - params.dropout_p))
        x = trace.inputs[l]
        on_pos, on_neg = trace.gates[l]
        dz_pos = g * on_pos
        du_pos = op_pos @ dz_pos
        dW[l] = x.T @ du_pos
        du_neg = None
        if on_neg is not None:
            dz_neg = (-params.lam * g) * on_neg
            du_neg = op_neg @ dz_neg
            dW_dpp[l] = x.T @ du_neg
        if l > 0:
            dx = du_pos @ params.W[l].T
            if du_neg is not None:
                dx = dx + du_neg @ params.W_dpp[l].T
    return Gradients(dW=dW, dW_dpp=dW_dpp)


def reference_adam_step(params, grads, state) -> None:
    state.step += 1
    t = state.step
    b1, b2 = model.ADAM_BETA1, model.ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t

    def update(w, g, m, v) -> None:
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        w -= state.lr * (m / corr1) / (np.sqrt(v / corr2) + model.ADAM_EPS)

    weights = params.W + params.W_dpp
    for w, g, m, v in zip(weights, grads.dW + grads.dW_dpp, state.m, state.v):
        update(w, g, m, v)


def reference_train(ds, masks, negatives, config, seed, negatives_schedule=None):
    pos_op = sym_normalized_operator(ds.graph, self_loops=True)
    current_negatives = negatives
    neg_op = sym_normalized_operator(current_negatives, self_loops=False)
    dims = (
        [ds.feature_dim]
        + [config.hidden] * (config.layers - 1)
        + [ds.class_count]
    )
    params = init_params(dims, config.lam, seed=seed, dropout_p=config.dropout)
    state = AdamState(
        lr=config.lr,
        m=[np.zeros_like(w) for w in params.W + params.W_dpp],
        v=[np.zeros_like(w) for w in params.W + params.W_dpp],
    )
    drop_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))

    X = ds.features
    labels = ds.labels
    train_loss, val_accs = [], []
    best, best_val_acc = None, -1.0
    for epoch in range(config.epochs):
        if negatives_schedule is not None:
            refreshed = negatives_schedule(epoch)
            if refreshed is not None:
                current_negatives = refreshed
                neg_op = sym_normalized_operator(current_negatives, self_loops=False)
        trace = reference_forward(params, X, pos_op, neg_op, train_mode=True, rng=drop_rng)
        loss = loss_cross_entropy(trace.logits, labels, masks.train)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={loss}")
        grads = reference_backward(trace, params, labels, masks.train)
        reference_adam_step(params, grads, state)

        eval_trace = reference_forward(params, X, pos_op, neg_op, train_mode=False)
        preds = np.argmax(eval_trace.logits, axis=1)
        val_acc = float(np.mean(preds[masks.val] == labels[masks.val]))
        train_loss.append(loss)
        val_accs.append(val_acc)
        if val_acc > best_val_acc:
            best_val_acc = val_acc
            hidden = eval_trace.inputs[-1]  # the CSR features with one layer
            best = TrainedModel(
                params=params.copy(),
                best_epoch=epoch,
                preds=preds,
                embeddings=hidden,
                train_loss=train_loss,
                val_acc=val_accs,
            )
    return best


def oracle_problem(sparse: bool, n: int = 48, dim: int = 40, classes: int = 3):
    """Planted graph with features at ~10 % density (``sparse``) or with every
    entry non-zero; ``Dataset`` stores both as CSR."""
    rng = np.random.default_rng(31)
    labels = np.repeat(np.arange(classes), n // classes)
    edges = [
        (i, j, 1.0)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < (0.3 if labels[i] == labels[j] else 0.04)
    ]
    x = rng.random((n, dim)) + 0.05 * labels[:, None]
    if sparse:
        x *= rng.random((n, dim)) < 0.1
    ds = Dataset(
        graph=build_graph(n, edges), features=x, labels=labels,
        class_count=classes,
    )
    order = rng.permutation(n)
    masks = SplitMasks(train=order[:12], val=order[12:30], test=order[30:])

    def negative_graph(seed: int, p: float = 0.08):
        return random_graph(np.random.default_rng(seed), n, p)

    return ds, masks, negative_graph


def assert_same_training(best, ref_best):
    for a, b in zip(best.params.W + best.params.W_dpp,
                    ref_best.params.W + ref_best.params.W_dpp):
        assert np.array_equal(a, b)
    assert best.best_epoch == ref_best.best_epoch
    assert best.train_loss == ref_best.train_loss
    assert best.val_acc == ref_best.val_acc
    assert_same_bytes(best.preds, ref_best.preds)
    if sp.issparse(ref_best.embeddings):  # one layer: the features, not a dense copy
        assert best.embeddings is ref_best.embeddings
    else:
        assert_same_bytes(best.embeddings, ref_best.embeddings)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize(
    "lam, dropout, layers",
    [(0.3, 0.5, 2), (0.0, 0.5, 2), (0.3, 0.0, 4), (0.3, 0.5, 4), (0.3, 0.5, 1),
     (0.0, 0.0, 1)],
)
def test_train_matches_reference_loop_bit_for_bit(sparse, lam, dropout, layers):
    ds, masks, negative_graph = oracle_problem(sparse)
    assert (ds.features.nnz < 0.25 * ds.num_nodes * ds.feature_dim) == sparse
    config = ExperimentConfig(epochs=25, lr=0.05, hidden=8, layers=layers,
                              dropout=dropout, lam=lam)
    negatives = negative_graph(1)
    assert_same_training(
        train(ds, masks, negatives, config, seed=11),
        reference_train(ds, masks, negatives, config, seed=11),
    )


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("dropout, layers", [(0.5, 2), (0.0, 4), (0.5, 1)])
def test_train_with_swapped_negatives_matches_reference(sparse, dropout, layers):
    # the swaps include an empty graph (negative branch switches off, then
    # on again) and the graph already active; every swap must drop the
    # carried layer 0
    ds, masks, negative_graph = oracle_problem(sparse)
    first = negative_graph(1)
    swaps = {3: negative_graph(2), 4: negative_graph(3, p=0.2),
             9: build_graph(ds.num_nodes, []), 13: negative_graph(4), 14: None}
    swaps[17] = swaps[13]

    def schedule(epoch):
        return swaps.get(epoch)

    config = ExperimentConfig(epochs=22, lr=0.05, hidden=8, layers=layers,
                              dropout=dropout, lam=0.4)
    assert_same_training(
        train(ds, masks, first, config, seed=5, negatives_schedule=schedule),
        reference_train(ds, masks, first, config, seed=5, negatives_schedule=schedule),
    )


def test_train_reuses_eval_layer_zero_between_swaps(monkeypatch):
    ds, masks, negative_graph = oracle_problem(sparse=True)
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("first") is not None)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", spy)
    config = ExperimentConfig(epochs=10, hidden=8, layers=3, dropout=0.5, lam=0.4)
    swaps = {4: negative_graph(7)}
    train(ds, masks, negative_graph(1), config, seed=2, negatives_schedule=swaps.get)
    carried = seen[0::2]  # training passes; the eval passes never take a layer
    assert not any(seen[1::2])
    assert carried == [e not in (0, 4) for e in range(10)]


@pytest.mark.parametrize("scratch", ["fresh", "oversized", "undersized"])
def test_adam_step_matches_fresh_temporaries_formula(scratch):
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (64, 7), (300, 16)]
    params = ModelParams(
        W=[rng.normal(size=s) for s in shapes],
        W_dpp=[rng.normal(size=s) for s in reversed(shapes)],
        lam=0.1,
    )
    ref_params = params.copy()
    state = init_adam_state(params, lr=0.01)
    ref_state = init_adam_state(ref_params, lr=0.01)
    # a fresh state sizes its scratch by the 300x16 weights on the first
    # step, so the 1x1 and 64x7 updates also run on a larger scratch
    state.scratch = {
        "fresh": None,
        "oversized": np.empty((2, 10_000)),
        "undersized": np.empty((2, 7)),
    }[scratch]
    for step in range(50):
        dW = [rng.normal(size=s) for s in shapes]
        dW_dpp = [rng.normal(size=s) * (step % 3 != 0) for s in reversed(shapes)]
        if step % 5 == 0:
            dW = [np.zeros(s) for s in shapes]
        dW_dpp[0] = np.zeros_like(dW_dpp[0])
        adam_step(params, Gradients(dW=dW, dW_dpp=dW_dpp), state)
        reference_adam_step(
            ref_params, Gradients(dW=[g.copy() for g in dW],
                                  dW_dpp=[g.copy() for g in dW_dpp]), ref_state
        )
        for got, want in (
            (params.W + params.W_dpp, ref_params.W + ref_params.W_dpp),
            (state.m, ref_state.m),
            (state.v, ref_state.v),
        ):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
    assert state.step == ref_state.step == 50


def test_adam_leaves_an_inactive_branch_untouched():
    # lam = 0: every W_dpp gradient is exactly zero, so adam_step never
    # touches those weights or their moments
    ds, masks, negative_graph = oracle_problem(sparse=True)
    params = init_params([ds.feature_dim, 8, 8, ds.class_count], lam=0.0, seed=3)
    init = params.copy()
    state = init_adam_state(params, lr=0.05)
    pos = sym_normalized_operator(ds.graph)
    neg = sym_normalized_operator(negative_graph(1), self_loops=False)
    X = ds.features
    rng = np.random.default_rng(5)
    for _ in range(5):
        trace = forward(params, X, pos, neg, train_mode=True, rng=rng)
        adam_step(params, backward(trace, params, ds.labels, masks.train), state)
    assert state.moving == set(range(len(params.W)))
    first_dpp = len(params.W)  # the W_dpp moments follow every W's
    for w, w0, m, v in zip(params.W_dpp, init.W_dpp, state.m[first_dpp:], state.v[first_dpp:]):
        assert np.array_equal(w, w0) and not m.any() and not v.any()
    assert not any(np.array_equal(w, w0) for w, w0 in zip(params.W, init.W))


@pytest.mark.parametrize("sparse", [True, False])
def test_train_with_branch_switched_on_then_off_matches_reference(sparse):
    # the branch starts off (empty negative graph, moments stay zero), is
    # switched on at epoch 5 and off again at epoch 12, after which its
    # zero gradients must still decay the non-zero moments
    ds, masks, negative_graph = oracle_problem(sparse)
    empty = build_graph(ds.num_nodes, [])
    swaps = {5: negative_graph(2), 12: empty, 16: negative_graph(3)}
    config = ExperimentConfig(epochs=20, lr=0.05, hidden=8, layers=3,
                              dropout=0.5, lam=0.4)
    assert_same_training(
        train(ds, masks, empty, config, seed=6, negatives_schedule=swaps.get),
        reference_train(ds, masks, empty, config, seed=6, negatives_schedule=swaps.get),
    )


# ------------------------------------------------ Adam chunks and CSR X.T


@pytest.mark.parametrize("sparse", [True, False])
def test_backward_with_transposed_features_matches_reference(sparse):
    # train() hands backward a CSR copy of X.T for the layer-0 weight
    # gradients; a direct caller may run forward and backward on a dense X
    # and hand over the view of its transpose
    ds, masks, negative_graph = oracle_problem(sparse, dim=600)
    X = ds.features if sparse else ds.features.toarray()
    X_T = X.T.tocsr() if sparse else X.T
    assert sp.issparse(X_T) == sparse
    params = init_params([600, 16, 16, ds.class_count], lam=0.3, seed=4)
    pos = sym_normalized_operator(ds.graph)
    neg = sym_normalized_operator(negative_graph(1), self_loops=False)
    trace = forward(params, X, pos, neg, True, np.random.default_rng(3))
    got = backward(trace, params, ds.labels, masks.train, xt=X_T)
    want = reference_backward(trace, params, ds.labels, masks.train)
    for a, b in zip(got.dW + got.dW_dpp, want.dW + want.dW_dpp):
        assert np.array_equal(a, b)
    assert got.dW_dpp[0].any()


def test_adam_step_across_chunk_boundaries_matches_reference():
    chunk = model._ADAM_CHUNK
    shapes = [(chunk - 1, 1), (1, chunk), (chunk + 1, 1), (2 * chunk + 3, 1)]
    rng = np.random.default_rng(21)
    params = ModelParams(
        W=[rng.normal(size=s) for s in shapes],
        W_dpp=[rng.normal(size=s) for s in reversed(shapes[:3])],
        lam=0.1,
    )
    ref_params = params.copy()
    state = init_adam_state(params, lr=0.01)
    ref_state = init_adam_state(ref_params, lr=0.01)
    for step in range(12):
        dW = [rng.normal(size=s) for s in shapes]
        dW_dpp = [rng.normal(size=w.shape) for w in params.W_dpp]
        if step % 4 == 0:  # all-zero gradients still move the moments
            dW = [np.zeros(s) for s in shapes]
        if step < 5:  # a branch that starts moving late
            dW_dpp[1] = np.zeros_like(dW_dpp[1])
        adam_step(params, Gradients(dW=dW, dW_dpp=dW_dpp), state)
        reference_adam_step(ref_params, Gradients(dW=dW, dW_dpp=dW_dpp), ref_state)
        for got, want in (
            (params.W + params.W_dpp, ref_params.W + ref_params.W_dpp),
            (state.m, ref_state.m),
            (state.v, ref_state.v),
        ):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
    # the work rows span one chunk, not the largest weight
    assert state.scratch.shape == (2, chunk)


def test_adam_step_rejects_a_weight_it_cannot_update_in_place():
    params = ModelParams(W=[np.asfortranarray(np.ones((3, 4)))], W_dpp=[], lam=0.0)
    state = init_adam_state(params, lr=0.01)
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(params, Gradients(dW=[np.ones((3, 4))], dW_dpp=[]), state)
    assert state.step == 0 and not state.moving


@pytest.mark.parametrize("sparse", [True, False])
def test_train_with_first_layer_wider_than_an_adam_chunk_matches_reference(sparse):
    ds, masks, negative_graph = oracle_problem(sparse, dim=600)
    assert (ds.features.nnz < 0.25 * ds.num_nodes * ds.feature_dim) == sparse
    config = ExperimentConfig(epochs=12, lr=0.05, hidden=64, layers=3,
                              dropout=0.5, lam=0.3)
    assert 600 * 64 > model._ADAM_CHUNK
    negatives = negative_graph(1)
    assert_same_training(
        train(ds, masks, negatives, config, seed=13),
        reference_train(ds, masks, negatives, config, seed=13),
    )


# ------------------------------------------------------ lean traces


@pytest.mark.parametrize("keep", [0.5, 0.7, 0.9])
def test_bool_keep_then_scale_equals_the_float_mask_bit_for_bit(keep):
    # forward and backward multiply by the bool keep mask, then by 1 / keep;
    # the float mask of 0 and 1 / keep gave these bits, signed zeros included
    rng = np.random.default_rng(14)
    edge = np.array([-0.0, 0.0, -5e-324, 5e-324, -1e-310, 1e-310, -1e300, 1e300, -1.0])
    values = np.concatenate([rng.normal(size=500), edge, edge])
    kept = rng.random(values.shape) < keep
    kept[-2 * len(edge):] = np.arange(2 * len(edge)) < len(edge)  # each kept, then dropped
    got = values.copy()
    got *= kept
    got *= 1.0 / keep
    float_mask = np.multiply(kept, 1.0 / keep)  # exactly 0 or 1 / keep
    assert_same_bytes(got, values * float_mask)
    dropped_negative = ~kept & np.signbit(values)
    assert dropped_negative.any() and np.signbit(got[dropped_negative]).all()
    assert (got[dropped_negative] == 0.0).all()


def test_train_trace_with_negative_activations_matches_the_float_mask_reference():
    # lam = 3 makes many hidden activations negative, so dropout leaves -0.0
    # behind; the bool-keep trace must give the float-mask reference's bits
    ds, masks, negative_graph = oracle_problem(sparse=True)
    params = init_params([ds.feature_dim, 16, 16, ds.class_count], lam=3.0, seed=9,
                         dropout_p=0.4)
    pos = sym_normalized_operator(ds.graph)
    neg = sym_normalized_operator(negative_graph(1, p=0.3), self_loops=False)
    got = forward(params, ds.features, pos, neg, True, np.random.default_rng(4))
    want = reference_forward(params, ds.features, pos, neg, True, np.random.default_rng(4))
    hidden = got.inputs[1:]
    assert any((np.signbit(x) & (x == 0.0)).any() for x in hidden)
    assert any((x < 0).any() for x in hidden)
    for a, b in zip(hidden, want.inputs[1:]):
        assert_same_bytes(a, b)
    assert_same_bytes(got.logits, want.logits)
    for (gp, gn), (wp, wn), k, wk in zip(got.gates, want.gates, got.keeps, want.keeps):
        assert gp.dtype == gn.dtype == k.dtype == np.bool_
        assert_same_bytes(gp, wp)
        assert_same_bytes(gn, wn)
        assert_same_bytes(k, wk)
    grads = backward(got, params, ds.labels, masks.train)
    ref = reference_backward(got, params, ds.labels, masks.train)
    for a, b in zip(grads.dW + grads.dW_dpp, ref.dW + ref.dW_dpp):
        assert_same_bytes(a, b)


def test_eval_trace_keeps_only_what_the_next_epoch_and_the_outputs_read():
    ds, masks, negative_graph = oracle_problem(sparse=True)
    params = init_params([ds.feature_dim, 8, 8, 8, ds.class_count], lam=0.3, seed=2)
    pos = sym_normalized_operator(ds.graph)
    neg = sym_normalized_operator(negative_graph(1), self_loops=False)
    trace = forward(params, ds.features, pos, neg)
    ref = reference_forward(params, ds.features, pos, neg)
    assert trace.gates == [] and trace.keeps == []
    (hidden,) = trace.inputs
    assert_same_bytes(hidden, ref.inputs[-1])
    # layer 0's pre-activations, which the next training pass takes as first
    z_pos, z_neg = trace.first
    assert_same_bytes(z_pos, pos @ (ds.features @ params.W[0]))
    assert_same_bytes(z_neg, neg @ (ds.features @ params.W_dpp[0]))
    with pytest.raises(ValueError, match="train-mode trace"):
        backward(trace, params, ds.labels, masks.train)
    # a training pass that carries them gives the bits of one that does not
    rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
    carried = forward(params, ds.features, pos, neg, True, rng_a, first=trace.first)
    fresh = forward(params, ds.features, pos, neg, True, rng_b)
    assert carried.first is None
    for a, b in zip(carried.inputs[1:], fresh.inputs[1:]):
        assert_same_bytes(a, b)
    assert_same_bytes(carried.logits, fresh.logits)


def test_forward_never_overwrites_a_passed_first_and_gates_on_the_pre_activations():
    # forward computes ReLUs in the pre-activation buffers it made itself:
    # a passed first, and the eval pass's own layer-0 pair, stay as they were
    ds, masks, negative_graph = oracle_problem(sparse=True)
    for lam in (0.3, 0.0):
        params = init_params([ds.feature_dim, 8, 8, 8, ds.class_count], lam=lam, seed=2)
        pos = sym_normalized_operator(ds.graph)
        neg = sym_normalized_operator(negative_graph(1), self_loops=False)
        first = forward(params, ds.features, pos, neg).first
        z_pos, z_neg = first
        assert (z_neg is None) == (lam == 0.0)
        assert (z_pos < 0).any()
        saved = [z.copy() for z in first if z is not None]
        trace = forward(params, ds.features, pos, neg, True, np.random.default_rng(6),
                        first=first)
        for z, was in zip([z for z in first if z is not None], saved):
            assert_same_bytes(z, was)
        for l, (on_pos, on_neg) in enumerate(trace.gates):
            x = trace.inputs[l]
            assert_same_bytes(on_pos, pos @ (x @ params.W[l]) > 0)
            if lam:
                assert_same_bytes(on_neg, neg @ (x @ params.W_dpp[l]) > 0)
            else:
                assert on_neg is None


@pytest.mark.parametrize("overrides, bound", [
    ({}, 15.0),
    ({"lam": 0.0}, 12.5),
    ({"layers": 8}, 22.0),
], ids=["default", "lam-0", "depth-8"])
def test_training_memory_is_bounded_by_lean_traces(bench_gen, overrides, bound):
    # A PubMed-like graph of 6000 nodes, hidden width 64.  In units of one
    # n x hidden float array, with h hidden layers (3 by default):
    #   between passes train keeps the features' CSR transpose (~1.1), the
    #   best epoch's embeddings (1) and the layer-0 pair that the next
    #   training pass takes as first (2; 1 with lam = 0);
    #   a train trace keeps, per hidden layer, its float input and three
    #   bool arrays (two gates, one keep mask): h * 11/8, 4.1 by default;
    #   the eval pass runs while that trace is still bound (freeing it
    #   first makes the allocator hand pages back and fault them in again)
    #   and adds its own layer-0 pair (2) plus one layer's work: its input,
    #   two pre-activations that become the activation and the negative
    #   term in place, and one dense product (4).
    # That is ~13.6 by default, ~11.3 with lam = 0 and ~19.4 at depth 8
    # (7 hidden layers).  Keeping the previous traces, gradients and the
    # consumed first through the next passes, with a fresh ReLU output
    # beside each pre-activation, measured 18.8, 15.1 and 30.1.
    scale = dataclasses.replace(bench_gen.SCALES["pubmed3k"], nodes=6000, edges=12000)
    content, cites, _ = bench_gen.generate(scale, 501)
    ds = load_content_cites(content.decode(), cites.decode())
    masks = planetoid_split(ds, per_class=20, num_val=500, num_test=1000, seed=1)
    n = ds.num_nodes
    rng = np.random.default_rng(2)
    src = np.arange(n).repeat(3)
    negatives = build_graph(n, np.stack([src, (src + rng.integers(1, n, src.size)) % n], 1))
    config = ExperimentConfig(epochs=3, **overrides)
    assert config.hidden == 64
    tracemalloc.start()
    try:
        train(ds, masks, negatives, config, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * n * config.hidden * 8
