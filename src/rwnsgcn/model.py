"""Two-branch graph convolutional model trained with manual gradients.

Each hidden layer propagates the features over the normalized graph
(positive branch) and over the negative-sample graph (negative branch),
then combines them as  h = relu(A_pos x W) - lam * relu(A_neg x W_neg).
The classifier layer uses the positive branch only and emits raw logits,
so there is one negative-branch weight per hidden layer.  Both operators
are the ``scipy.sparse.csr_array`` of ``sym_normalized_operator``.
Gradients are computed by hand (reverse traversal of the stored trace)
and applied with bias-corrected Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from rwnsgcn.config import ExperimentConfig, check_dropout
from rwnsgcn.graph import Graph, sym_normalized_operator

__all__ = [
    "ModelParams",
    "ForwardTrace",
    "Gradients",
    "AdamState",
    "TrainedModel",
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
    W: list[np.ndarray]  # W[l] is (width in, width out) of layer l
    W_dpp: list[np.ndarray]  # hidden layers only: len(W) - 1
    lam: float
    dropout_p: float = 0.5

    def copy(self) -> "ModelParams":
        return ModelParams(
            W=[w.copy() for w in self.W],
            W_dpp=[w.copy() for w in self.W_dpp],
            lam=self.lam,
            dropout_p=self.dropout_p,
        )


@dataclass
class ForwardTrace:
    """What ``backward`` and the next epoch read of one forward pass.

    A train-mode trace keeps what ``backward`` reads: the rows entering
    every layer and, as bool arrays, each hidden layer's ReLU gates and
    dropout keep mask.  An eval-mode trace keeps only layer 0's float
    pre-activations (which the next epoch's training pass takes as
    ``first``), the last hidden rows and the logits.
    """

    # train mode: x^(l) entering each layer (the first may be sparse); eval mode: the last
    inputs: list
    first: tuple | None  # eval mode: layer 0's (z_pos, z_neg), z_neg None when the branch is off
    gates: list  # train mode, per hidden layer: (z_pos > 0, z_neg > 0 or None) as bool arrays
    keeps: list  # train mode, per hidden layer: the bool dropout keep mask (None without dropout)
    logits: np.ndarray
    pos_op: sp.csr_array
    neg_op: sp.csr_array

    def outputs(self) -> tuple[np.ndarray, np.ndarray | sp.csr_array]:
        """Class predictions (argmax, ties to the smaller id) and the rows entering
        the classifier: with one layer, the features as they were given."""
        return np.argmax(self.logits, axis=1), self.inputs[-1]


@dataclass
class Gradients:
    dW: list[np.ndarray]
    dW_dpp: list[np.ndarray]


# Adam's decay rates and denominator offset (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    step: int = 0
    # first and second moments, aligned with params.W + params.W_dpp
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    # two flat work rows for the update, one chunk (or the largest weight) long
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)
    # positions in W + W_dpp that have had a non-zero gradient; the others
    # still have all-zero moments
    moving: set[int] = field(default_factory=set)


@dataclass
class TrainedModel:
    params: ModelParams
    best_epoch: int  # its validation accuracy is val_acc[best_epoch]
    # the best epoch's own evaluation pass (``ForwardTrace.outputs``)
    preds: np.ndarray
    embeddings: np.ndarray | sp.csr_array  # the CSR features when layers == 1
    train_loss: list[float]  # per epoch
    val_acc: list[float]  # per epoch


def init_params(
    layer_dims: list[int], lam: float, seed: int, dropout_p: float = 0.5
) -> ModelParams:
    """Glorot-uniform weights for both branches, deterministic per seed.

    The negative branch has a weight per hidden layer only, drawn after
    every positive-branch weight.
    """
    check_dropout(dropout_p)
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    if any(d <= 0 for d in layer_dims):
        raise ValueError(f"layer dims must be positive, got {layer_dims}")
    rng = np.random.default_rng(seed)

    def glorot(din: int, dout: int) -> np.ndarray:
        a = np.sqrt(6.0 / (din + dout))
        return rng.uniform(-a, a, size=(din, dout))

    W = [glorot(layer_dims[i], layer_dims[i + 1]) for i in range(len(layer_dims) - 1)]
    W_dpp = [glorot(layer_dims[i], layer_dims[i + 1]) for i in range(len(layer_dims) - 2)]
    return ModelParams(W=W, W_dpp=W_dpp, lam=lam, dropout_p=dropout_p)


def _negative_branch_active(params: ModelParams, neg_op: sp.csr_array) -> bool:
    # with lam = 0 or an empty negative graph the branch is identically zero
    return params.lam != 0.0 and neg_op.nnz > 0


def forward(
    params: ModelParams,
    X,
    pos_op: sp.csr_array,
    neg_op: sp.csr_array,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    *,
    first: tuple | None = None,
) -> ForwardTrace:
    """Run the two-branch propagation and record its trace (see ``ForwardTrace``).

    ``X`` may be dense or a scipy sparse array.  Dropout hits hidden
    activations only, in train mode only.  ``first`` may carry the
    ``(z_pos, z_neg)`` of layer 0 from an earlier trace made with exactly
    these params and operators; layer 0 has no dropout on its input, so
    that pair does not depend on the mode, and reusing it skips the two
    products with ``X``.

    Each layer's ReLU and negative term are written into the two
    pre-activation arrays this call computed for that layer, once the
    train-mode gates have read them.  A passed ``first`` is never
    overwritten, and neither is the eval-mode layer-0 pair, which the
    trace returns as its ``first``.
    """
    n = pos_op.shape[0]
    if X.shape[0] != n or X.shape[1] != params.W[0].shape[0]:
        raise ValueError(
            f"feature matrix {X.shape} incompatible with operator {pos_op.shape} "
            f"and input dim {params.W[0].shape[0]}"
        )
    if neg_op.shape[0] != n:
        raise ValueError("negative operator size mismatch")
    num_layers = len(params.W)
    use_neg = _negative_branch_active(params, neg_op)
    if train_mode and params.dropout_p > 0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")

    keep = 1.0 - params.dropout_p
    inputs: list = []
    layer0 = None
    gates: list = []
    keeps: list = []
    x = X
    for l in range(num_layers - 1):
        if train_mode:
            inputs.append(x)
        if l == 0 and first is not None:
            z_pos, z_neg = first
            owned = False
        else:
            z_pos = pos_op @ (x @ params.W[l])
            z_neg = neg_op @ (x @ params.W_dpp[l]) if use_neg else None
            # eval layer 0's pair outlives the call as the trace's first
            owned = train_mode or l > 0
        if train_mode:
            gates.append((z_pos > 0, None if z_neg is None else z_neg > 0))
        elif l == 0:
            layer0 = (z_pos, z_neg)
        a = np.maximum(z_pos, 0.0, out=z_pos if owned else None)
        if use_neg:
            t = np.maximum(z_neg, 0.0, out=z_neg if owned else None)
            t *= params.lam
            a -= t
        z_pos = z_neg = t = None  # the negative term is spent: free it before the next layer
        keep_mask = None
        if train_mode and params.dropout_p > 0:
            # times the bool, then times 1 / keep: the bits of multiplying by
            # a float mask of 0 and 1 / keep, signed zeros included
            keep_mask = rng.random(a.shape) < keep
            a *= keep_mask
            a *= 1.0 / keep
        if train_mode:
            keeps.append(keep_mask)
        x = a
    inputs.append(x)
    logits = pos_op @ (x @ params.W[-1])
    return ForwardTrace(
        inputs=inputs,
        first=layer0,
        gates=gates,
        keeps=keeps,
        logits=logits,
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
    *,
    xt=None,
) -> Gradients:
    """Exact gradients of the masked cross entropy for both weight sets.

    ``trace`` must come from a train-mode ``forward``.  The combination
    h = a_pos - lam * a_neg routes a -lam-scaled cotangent through the
    negative branch; ReLU gates on the stored bool signs; each propagation
    step multiplies by the operator, which equals its own transpose.
    ``xt`` may carry the transpose of the features ``trace.inputs[0]`` for
    the layer-0 weight gradients: a CSR copy of a sparse ``X.T`` sums each
    row in the same order as the CSC view, so the gradients are the same
    bit for bit, only faster.
    """
    if len(trace.inputs) != len(params.W):
        raise ValueError("backward needs a train-mode trace; an eval-mode one "
                         "keeps no gates or hidden inputs")
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
    dW_dpp: list = [None] * (num_layers - 1)
    # No transpose: both operators come from sym_normalized_operator on an
    # undirected graph, which computes the (u,v) and (v,u) entries
    # identically, so each matrix equals its transpose bit for bit.
    op_pos = trace.pos_op
    op_neg = trace.neg_op

    def input_t(l: int):  # the transpose of the rows entering layer l
        return xt if l == 0 and xt is not None else trace.inputs[l].T

    # classifier layer: logits = A_pos (h W_last); with one layer h is the
    # features, whose (n x f) gradient nothing reads
    du = op_pos @ dlogits
    dW[-1] = input_t(num_layers - 1) @ du
    dx = du @ params.W[-1].T if num_layers > 1 else None

    for l in range(num_layers - 2, -1, -1):
        # dx is a fresh product, so its buffer is free to overwrite; each
        # n x hidden temporary below is released once read
        g, dx = dx, None
        if trace.keeps[l] is not None:
            g *= trace.keeps[l]
            g *= 1.0 / (1.0 - params.dropout_p)  # forward's scale of a kept activation
        x_t = input_t(l)
        on_pos, on_neg = trace.gates[l]
        # a float gate multiplies faster than a bool one, to the same bits
        dz = on_pos.astype(np.float64)
        dz *= g
        du_pos = op_pos @ dz
        dz = None
        dW[l] = x_t @ du_pos
        du_neg = None
        if on_neg is not None:
            dz = on_neg.astype(np.float64)
            dz *= np.multiply(g, -params.lam, out=g)  # the positive gate has read g
            g = None
            du_neg = op_neg @ dz
            dz = None
            dW_dpp[l] = x_t @ du_neg
        else:
            dW_dpp[l] = np.zeros_like(params.W_dpp[l])
        g = None
        if l > 0:
            dx = du_pos @ params.W[l].T
            if du_neg is not None:
                dx += du_neg @ params.W_dpp[l].T
    return Gradients(dW=dW, dW_dpp=dW_dpp)


def init_adam_state(params: ModelParams, lr: float) -> AdamState:
    weights = params.W + params.W_dpp
    return AdamState(lr=lr, m=[np.zeros_like(w) for w in weights],
                     v=[np.zeros_like(w) for w in weights])


# elements per Adam chunk: the two work rows and the chunk's weight,
# gradient and moments (6 x 256 KiB) stay in a 2 MB L2 cache
_ADAM_CHUNK = 32768


def adam_step(params: ModelParams, grads: Gradients, state: AdamState) -> None:
    """Standard bias-corrected Adam update, in place.

    Evaluates ``w -= lr * (m / corr1) / (sqrt(v / corr2) + eps)`` in the
    same operation order as the plain expression, so the result is the
    same bit for bit, but into the state's two scratch rows instead of
    fresh temporaries.  Each weight is updated in flat chunks of
    ``_ADAM_CHUNK`` elements, so every pass over a chunk reads what the
    previous one left in cache; the update is elementwise, so chunking
    changes no bit.  A weight whose gradient and moments are all zero
    would subtract exactly 0, so it is skipped: with lam = 0 that is the
    whole negative branch.
    """
    weights = params.W + params.W_dpp
    if not all(a.flags.c_contiguous for a in weights + state.m + state.v):
        raise ValueError("Adam updates the weights and moments in place as flat "
                         "chunks, so they must be C-contiguous")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    width = min(_ADAM_CHUNK, max(w.size for w in weights))
    if state.scratch is None or state.scratch.shape[1] < width:
        state.scratch = np.empty((2, width))

    def update(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
        step = state.scratch[0, : w.size]
        denom = state.scratch[1, : w.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        np.multiply(g, 1.0 - b2, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, corr1, out=step)
        step *= state.lr
        np.divide(v, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        w -= step

    moments = zip(weights, grads.dW + grads.dW_dpp, state.m, state.v)
    for i, (w, g, m, v) in enumerate(moments):
        if i not in state.moving:
            if not g.any():
                continue
            state.moving.add(i)
        w, g, m, v = (a.reshape(-1) for a in (w, g, m, v))
        for lo in range(0, w.size, _ADAM_CHUNK):
            chunk = slice(lo, lo + _ADAM_CHUNK)
            update(w[chunk], g[chunk], m[chunk], v[chunk])


def train(
    ds,
    masks,
    negatives: Graph,
    config: ExperimentConfig,
    seed: int,
    negatives_schedule=None,
) -> TrainedModel:
    """Full-batch training; returns the best-validation epoch's weights with
    the predictions and embeddings of its own eval pass, and every epoch's
    train loss and validation accuracy.

    Reads the model fields of ``config``; ``seed`` draws the initial weights
    and dropout masks.  Aborts with RuntimeError when the loss stops being
    finite.  ``negatives_schedule`` may map an epoch index to a replacement
    negative graph (or None to keep the current one).

    The eval pass at the end of one epoch and the training pass of the
    next see the same weights, so the next epoch takes its layer 0 from
    the eval trace (dropped whenever the schedule swaps the negative
    graph).  The trained weights are the same bit for bit as when every
    pass computes its own layer 0.  An empty validation set (no epoch
    could be chosen) raises ValueError before any work.

    Each n x hidden array lives only while something reads it: that
    layer-0 pair until the training pass has read it, the gradients
    until Adam has applied them, and the train trace until the epoch's
    eval pass is done; of the eval trace only the pair crosses into the
    next epoch (and the best epoch's outputs into its snapshot).
    """
    if np.asarray(masks.val).size == 0:
        raise ValueError(
            "the validation set is empty: the best epoch is chosen by "
            "validation accuracy, so at least one validation node is needed"
        )
    dims = (
        [ds.feature_dim]
        + [config.hidden] * (config.layers - 1)
        + [ds.class_count]
    )
    params = init_params(dims, config.lam, seed=seed, dropout_p=config.dropout)
    pos_op = sym_normalized_operator(ds.graph, self_loops=True)
    neg_op = sym_normalized_operator(negatives, self_loops=False)
    state = init_adam_state(params, lr=config.lr)
    drop_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))

    X = ds.features  # CSR (``Dataset`` keeps no other form)
    # a CSR copy of X.T: its products are faster than the CSC view's
    X_T = X.T.tocsr()
    labels = ds.labels
    # every snapshot shares these two lists; they are complete at return
    train_loss: list[float] = []
    val_acc: list[float] = []
    best = None
    first = None
    for epoch in range(config.epochs):
        if negatives_schedule is not None:
            refreshed = negatives_schedule(epoch)
            if refreshed is not None:
                neg_op = sym_normalized_operator(refreshed, self_loops=False)
                first = None
        trace = forward(
            params, X, pos_op, neg_op, train_mode=True, rng=drop_rng, first=first
        )
        first = None
        loss = loss_cross_entropy(trace.logits, labels, masks.train)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch}: loss={loss}")
        grads = backward(trace, params, labels, masks.train, xt=X_T)
        adam_step(params, grads, state)
        grads = None

        eval_trace = forward(params, X, pos_op, neg_op, train_mode=False)
        first = eval_trace.first  # None when layers == 1: no hidden layer to carry
        # argmax is taken row by row, so the validation rows alone suffice;
        # the full outputs are made only for a new best epoch
        val_preds = np.argmax(eval_trace.logits[masks.val], axis=1)
        acc = float(np.mean(val_preds == labels[masks.val]))
        train_loss.append(loss)
        val_acc.append(acc)
        if best is None or acc > val_acc[best.best_epoch]:
            best = TrainedModel(params.copy(), epoch, *eval_trace.outputs(),
                                train_loss, val_acc)
        # only first crosses into the next epoch; the train trace lives
        # through the eval pass, since freeing it earlier makes the
        # allocator return the pages and fault them in again
        trace = eval_trace = None
    return best


def predict(
    params: ModelParams,
    X,
    pos_op: sp.csr_array,
    neg_op: sp.csr_array,
) -> tuple[np.ndarray, np.ndarray]:
    """Class predictions and the final hidden-layer embeddings of one
    evaluation pass (``ForwardTrace.outputs``): ``X`` itself when there is
    one layer."""
    return forward(params, X, pos_op, neg_op, train_mode=False).outputs()
