"""Two-branch graph convolutional model trained with manual gradients.

Each hidden layer propagates the features over the normalized graph
(positive branch) and over the negative-sample graph (negative branch),
then combines them as  h = relu(A_pos x W) - lam * relu(A_neg x W_neg).
The classifier layer uses the positive branch only and emits raw logits.
Gradients are computed by hand (reverse traversal of the stored trace)
and applied with bias-corrected Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from rwnsgcn.graph import Graph, LinearOperator, sym_normalized_operator

__all__ = [
    "ModelParams",
    "ForwardTrace",
    "Gradients",
    "AdamState",
    "TrainConfig",
    "TrainedModel",
    "History",
    "init_params",
    "forward",
    "loss_cross_entropy",
    "backward",
    "init_adam_state",
    "adam_step",
    "train",
    "predict",
]


@dataclass
class ModelParams:
    layer_dims: list[int]
    W: list[np.ndarray]
    W_dpp: list[np.ndarray]
    lam: float
    dropout_p: float = 0.5

    def copy(self) -> "ModelParams":
        return ModelParams(
            layer_dims=list(self.layer_dims),
            W=[w.copy() for w in self.W],
            W_dpp=[w.copy() for w in self.W_dpp],
            lam=self.lam,
            dropout_p=self.dropout_p,
        )


@dataclass
class ForwardTrace:
    """Everything the backward pass needs to reproduce exact gradients."""

    inputs: list  # x^(l) entering each layer (the first entry may be sparse)
    z_pos: list  # pre-activations, hidden layers only
    z_neg: list  # negative-branch pre-activations (None when the branch is off)
    drop_masks: list  # inverted-dropout masks (None outside train mode)
    logits: np.ndarray
    train_mode: bool
    pos_op: LinearOperator
    neg_op: LinearOperator

    @property
    def final_hidden(self) -> np.ndarray:
        """Activations entering the classifier layer."""
        return self.inputs[-1]


@dataclass
class Gradients:
    dW: list[np.ndarray]
    dW_dpp: list[np.ndarray]


@dataclass
class AdamState:
    lr: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m_W: list[np.ndarray] = field(default_factory=list)
    v_W: list[np.ndarray] = field(default_factory=list)
    m_Wd: list[np.ndarray] = field(default_factory=list)
    v_Wd: list[np.ndarray] = field(default_factory=list)
    # two flat work rows for the update, sized by adam_step to the largest weight
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 0.01
    hidden: int = 64
    layers: int = 4
    dropout: float = 0.5
    lam: float = 0.1
    seed: int = 0
    self_loops: bool = True


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)


@dataclass
class TrainedModel:
    params: ModelParams
    best_epoch: int
    best_val_acc: float
    # negative graph active at the best epoch (set when a resampling
    # schedule is in use, so evaluation propagates over the same graph)
    negatives: Graph | None = None


def init_params(
    layer_dims: list[int], lam: float, seed: int, dropout_p: float = 0.5
) -> ModelParams:
    """Glorot-uniform weights for both branches, deterministic per seed."""
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout_p}")
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    if any(d <= 0 for d in layer_dims):
        raise ValueError(f"layer dims must be positive, got {layer_dims}")
    rng = np.random.default_rng(seed)

    def glorot(din: int, dout: int) -> np.ndarray:
        a = np.sqrt(6.0 / (din + dout))
        return rng.uniform(-a, a, size=(din, dout))

    W = [glorot(layer_dims[i], layer_dims[i + 1]) for i in range(len(layer_dims) - 1)]
    W_dpp = [
        glorot(layer_dims[i], layer_dims[i + 1]) for i in range(len(layer_dims) - 1)
    ]
    return ModelParams(
        layer_dims=list(layer_dims), W=W, W_dpp=W_dpp, lam=lam, dropout_p=dropout_p
    )


def _negative_branch_active(params: ModelParams, neg_op: LinearOperator) -> bool:
    # with lam = 0 or an empty negative graph the branch is identically zero
    return params.lam != 0.0 and neg_op.matrix.nnz > 0


def forward(
    params: ModelParams,
    X,
    pos_op: LinearOperator,
    neg_op: LinearOperator,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    *,
    first: tuple | None = None,
) -> ForwardTrace:
    """Run the two-branch propagation and record a gradient-ready trace.

    ``X`` may be dense or a scipy sparse array.  Dropout hits hidden
    activations only, in train mode only.  ``first`` may carry the
    ``(z_pos, z_neg)`` of layer 0 from an earlier trace made with exactly
    these params and operators; layer 0 has no dropout on its input, so
    that pair does not depend on the mode, and reusing it skips the two
    products with ``X``.
    """
    n = pos_op.shape[0]
    if X.shape[0] != n or X.shape[1] != params.layer_dims[0]:
        raise ValueError(
            f"feature matrix {X.shape} incompatible with operator {pos_op.shape} "
            f"and input dim {params.layer_dims[0]}"
        )
    if neg_op.shape[0] != n:
        raise ValueError("negative operator size mismatch")
    num_layers = len(params.W)
    use_neg = _negative_branch_active(params, neg_op)
    if train_mode and params.dropout_p > 0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")

    inputs: list = []
    z_pos_all: list = []
    z_neg_all: list = []
    masks: list = []
    x = X
    for l in range(num_layers - 1):
        inputs.append(x)
        if l == 0 and first is not None:
            z_pos, z_neg = first
        else:
            z_pos = pos_op.matrix @ (x @ params.W[l])
            z_neg = neg_op.matrix @ (x @ params.W_dpp[l]) if use_neg else None
        a = np.maximum(z_pos, 0.0)
        if use_neg:
            a = a - params.lam * np.maximum(z_neg, 0.0)
        mask = None
        if train_mode and params.dropout_p > 0:
            keep = 1.0 - params.dropout_p
            # a bool times 1 / keep is exactly 0 or 1 / keep
            mask = (rng.random(a.shape) < keep) * (1.0 / keep)
            a *= mask
        z_pos_all.append(z_pos)
        z_neg_all.append(z_neg)
        masks.append(mask)
        x = a
    inputs.append(x)
    logits = pos_op.matrix @ (x @ params.W[-1])
    return ForwardTrace(
        inputs=inputs,
        z_pos=z_pos_all,
        z_neg=z_neg_all,
        drop_masks=masks,
        logits=logits,
        train_mode=train_mode,
        pos_op=pos_op,
        neg_op=neg_op,
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> float:
    """Mean negative log likelihood over the masked nodes."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("mask is empty")
    rows = logits[mask]
    shifted = rows - rows.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(rows.shape[0]), labels[mask]]
    return float(np.mean(logz - picked))


def backward(
    trace: ForwardTrace,
    params: ModelParams,
    labels: np.ndarray,
    mask: np.ndarray,
) -> Gradients:
    """Exact gradients of the masked cross entropy for both weight sets.

    The combination h = a_pos - lam * a_neg routes a -lam-scaled cotangent
    through the negative branch; ReLU gates on the stored pre-activation
    signs; each propagation step multiplies by the operator, which equals
    its own transpose.
    """
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("mask is empty")
    n, c = trace.logits.shape
    probs = _softmax(trace.logits[mask])
    dlogits = np.zeros((n, c))
    dlogits[mask] = probs
    dlogits[mask, labels[mask]] -= 1.0
    dlogits /= mask.size

    num_layers = len(params.W)
    dW: list = [None] * num_layers
    # the classifier has no negative branch, so its W_dpp gradient is zero
    dW_dpp: list = [None] * (num_layers - 1) + [np.zeros_like(params.W_dpp[-1])]
    # No transpose: both operators come from sym_normalized_operator on an
    # undirected graph, which computes the (u,v) and (v,u) entries
    # identically, so each matrix equals its transpose bit for bit.
    op_pos = trace.pos_op.matrix
    op_neg = trace.neg_op.matrix

    # classifier layer: logits = A_pos (h W_last)
    h = trace.inputs[-1]
    du = op_pos @ dlogits
    dW[-1] = h.T @ du
    dx = du @ params.W[-1].T

    for l in range(num_layers - 2, -1, -1):
        g = dx
        if trace.drop_masks[l] is not None:
            g = g * trace.drop_masks[l]
        x = trace.inputs[l]
        dz_pos = g * (trace.z_pos[l] > 0)
        du_pos = op_pos @ dz_pos
        dW[l] = x.T @ du_pos
        du_neg = None
        if trace.z_neg[l] is not None:
            dz_neg = (-params.lam * g) * (trace.z_neg[l] > 0)
            du_neg = op_neg @ dz_neg
            dW_dpp[l] = x.T @ du_neg
        else:
            dW_dpp[l] = np.zeros_like(params.W_dpp[l])
        if l > 0:
            dx = du_pos @ params.W[l].T
            if du_neg is not None:
                dx = dx + du_neg @ params.W_dpp[l].T
    return Gradients(dW=dW, dW_dpp=dW_dpp)


def init_adam_state(params: ModelParams, lr: float) -> AdamState:
    return AdamState(
        lr=lr,
        m_W=[np.zeros_like(w) for w in params.W],
        v_W=[np.zeros_like(w) for w in params.W],
        m_Wd=[np.zeros_like(w) for w in params.W_dpp],
        v_Wd=[np.zeros_like(w) for w in params.W_dpp],
    )


def adam_step(params: ModelParams, grads: Gradients, state: AdamState) -> None:
    """Standard bias-corrected Adam update, in place.

    Evaluates ``w -= lr * (m / corr1) / (sqrt(v / corr2) + eps)`` in the
    same operation order as the plain expression, so the result is the
    same bit for bit, but into the state's two scratch rows instead of
    fresh temporaries.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    largest = max(w.size for w in params.W + params.W_dpp)
    if state.scratch is None or state.scratch.shape[1] < largest:
        state.scratch = np.empty((2, largest))

    def update(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
        step = state.scratch[0, : w.size].reshape(w.shape)
        denom = state.scratch[1, : w.size].reshape(w.shape)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        np.multiply(g, 1.0 - b2, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, corr1, out=step)
        step *= state.lr
        np.divide(v, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        w -= step

    for w, g, m, v in zip(params.W, grads.dW, state.m_W, state.v_W):
        update(w, g, m, v)
    for w, g, m, v in zip(params.W_dpp, grads.dW_dpp, state.m_Wd, state.v_Wd):
        update(w, g, m, v)


def _maybe_sparse(X: np.ndarray):
    """Use CSR for the input features when they are mostly zeros."""
    if X.size and np.count_nonzero(X) / X.size < 0.25:
        return sp.csr_array(X)
    return X


def train(
    ds,
    masks,
    negatives: Graph,
    config: TrainConfig,
    negatives_schedule=None,
) -> tuple[TrainedModel, History]:
    """Full-batch training; returns the best-validation parameter snapshot.

    Records train loss and validation accuracy each epoch.  Aborts with
    RuntimeError when the loss stops being finite.  ``negatives_schedule``
    may map an epoch index to a replacement negative graph (or None to
    keep the current one); the snapshot remembers the graph it was
    trained against.

    The eval pass at the end of one epoch and the training pass of the
    next see the same weights, so the next epoch takes its layer 0 from
    the eval trace (dropped whenever the schedule swaps the negative
    graph).  The trained weights are the same bit for bit as when every
    pass computes its own layer 0.
    """
    if config.layers < 1:
        raise ValueError(f"layers must be at least 1, got {config.layers}")
    dims = (
        [ds.feature_dim]
        + [config.hidden] * (config.layers - 1)
        + [ds.class_count]
    )
    params = init_params(dims, config.lam, seed=config.seed, dropout_p=config.dropout)
    pos_op = sym_normalized_operator(ds.graph, self_loops=config.self_loops)
    current_negatives = negatives
    neg_op = sym_normalized_operator(current_negatives, self_loops=False)
    state = init_adam_state(params, lr=config.lr)
    drop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))

    X = _maybe_sparse(ds.features)
    labels = ds.labels
    history = History()
    best = TrainedModel(
        params=params.copy(), best_epoch=-1, best_val_acc=-1.0,
        negatives=current_negatives,
    )
    first = None
    for epoch in range(config.epochs):
        if negatives_schedule is not None:
            refreshed = negatives_schedule(epoch)
            if refreshed is not None:
                current_negatives = refreshed
                neg_op = sym_normalized_operator(current_negatives, self_loops=False)
                first = None
        trace = forward(
            params, X, pos_op, neg_op, train_mode=True, rng=drop_rng, first=first
        )
        loss = loss_cross_entropy(trace.logits, labels, masks.train)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={loss}")
        grads = backward(trace, params, labels, masks.train)
        adam_step(params, grads, state)

        eval_trace = forward(params, X, pos_op, neg_op, train_mode=False)
        if eval_trace.z_pos:  # layers == 1 has no hidden layer to carry
            first = (eval_trace.z_pos[0], eval_trace.z_neg[0])
        preds = np.argmax(eval_trace.logits, axis=1)
        val_acc = float(np.mean(preds[masks.val] == labels[masks.val]))
        history.train_loss.append(loss)
        history.val_acc.append(val_acc)
        if val_acc > best.best_val_acc:
            best = TrainedModel(
                params=params.copy(),
                best_epoch=epoch,
                best_val_acc=val_acc,
                negatives=current_negatives,
            )
    return best, history


def predict(
    params: ModelParams,
    X,
    pos_op: LinearOperator,
    neg_op: LinearOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """Class predictions (argmax, ties to the smaller id) and the final
    hidden-layer embeddings."""
    trace = forward(params, X, pos_op, neg_op, train_mode=False)
    preds = np.argmax(trace.logits, axis=1)
    hidden = trace.final_hidden
    if hasattr(hidden, "toarray"):
        hidden = hidden.toarray()
    return preds, np.asarray(hidden)
