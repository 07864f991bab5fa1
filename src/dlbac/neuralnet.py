"""Feedforward sigmoid-output network with exact backprop and Adam training.

All arithmetic is float64 so gradient checks against finite differences are
meaningful.  Hidden layers use the rectifier; the output layer is a sigmoid
per operation, read as the probability of granting that operation.  Every
parameter lives in one flat vector, which Adam updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import Dataset
from .encoding import Encoder, encode_positions
from .errors import ConfigError, FormatError, is_real, is_whole
from .rng import SplitMix64

PROB_EPS = 1e-12  # clamp for log() in the loss
TILE_ROWS = 1024  # rows in one pass through layers 1..L, and in one encoded tile of positions
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam (Kingma & Ba, 2015) defaults


@dataclass(frozen=True)
class NetworkConfig:
    input_width: int
    num_ops: int
    hidden_layers: tuple[int, ...] = (256, 128, 64, 32)
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if not (is_whole(self.input_width, 1) and is_whole(self.num_ops, 1)):
            raise ConfigError("input_width and num_ops must be whole numbers >= 1")
        if not all(is_whole(w, 1) for w in self.hidden_layers):
            raise ConfigError("hidden layer widths must be whole numbers >= 1")
        if not is_whole(self.init_seed, 0):
            raise ConfigError(f"init_seed must be a whole number >= 0, not {self.init_seed!r}")

    def check_op(self, op: int) -> None:
        if not (is_whole(op, 0) and op < self.num_ops):
            raise ConfigError(f"operation index {op} out of range")

    def check_dataset_ops(self, num_ops: int) -> None:
        """ConfigError unless a dataset of `num_ops` operations fits the outputs."""
        if num_ops != self.num_ops:
            raise ConfigError(
                f"dataset operation count {num_ops} differs from the model's {self.num_ops}"
            )

    @cached_property  # computed once: every forward reads it
    def widths(self) -> tuple[int, ...]:
        return (self.input_width, *self.hidden_layers, self.num_ops)

    @property
    def num_params(self) -> int:
        widths = self.widths
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def _aligned_zeros(size: int) -> np.ndarray:
    """A zeroed float64 vector whose first element starts a 64-byte cache line.

    Where numpy's own allocation lands (any multiple of 16 bytes past a
    line) moves the time of a one-row decision by a few percent.
    """
    buf = np.zeros(size + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + size]


class Network:
    """Network parameters, stored as one contiguous float64 vector `flat`.

    The layout is model-file order: W0, b0, W1, b1, ...  `weights[l]` (shape
    `(in_l, out_l)`, row-major) and `biases[l]` are views into `flat`, so a
    write through either is a write to `flat`.  Without `flat` the
    parameters start at zero, in a vector that starts a 64-byte cache line.
    """

    def __init__(self, config: NetworkConfig, flat: np.ndarray | None = None):
        size = config.num_params
        flat = _aligned_zeros(size) if flat is None else flat
        if flat.shape != (size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ConfigError(f"flat parameters must be a contiguous float64 vector of {size}")
        self.config = config
        self.flat = flat
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        start = 0
        for fan_in, fan_out in zip(config.widths[:-1], config.widths[1:]):
            end = start + fan_in * fan_out
            self.weights.append(flat[start:end].reshape(fan_in, fan_out))
            self.biases.append(flat[end : end + fan_out])
            start = end + fan_out

    def params(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.001
    lr_decay_epochs: int = 10  # divide lr by 10 after every this many epochs
    epochs: int = 60
    batch_size: int = 16
    early_stop_patience: int = 5
    class_weights: tuple[float, float] = (1.0, 1.0)  # (w_grant, w_deny)
    val_fraction: float = 0.1
    shuffle_seed: int = 0

    def __post_init__(self):
        if not (is_real(self.lr0) and 0.0 < self.lr0 < np.inf):
            raise ConfigError("lr0 must be positive and finite")
        for name in ("lr_decay_epochs", "epochs", "batch_size", "early_stop_patience"):
            if not is_whole(getattr(self, name), 1):
                raise ConfigError(f"{name} must be a whole number >= 1")
        if not is_whole(self.shuffle_seed):
            raise ConfigError(f"shuffle_seed must be a whole number, not {self.shuffle_seed!r}")
        weights = self.class_weights
        if not (
            isinstance(weights, (tuple, list))
            and len(weights) == 2
            and all(is_real(w) and 0.0 < w < np.inf for w in weights)
        ):
            raise ConfigError("class weights must be two positive finite numbers")
        if not (is_real(self.val_fraction) and 0.0 <= self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in [0, 1)")


class AdamState:
    """Moments `m`, `v` and step count `t` of Adam on a flat vector; `_a`, `_b` are scratch."""

    def __init__(self, size: int):
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._a, self._b = np.empty(size), np.empty(size)
        self.t = 0


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    stopped_epoch: int = 0  # number of epochs actually run
    best_epoch: int = 0


def init_network(config: NetworkConfig) -> Network:
    """He-scheme initialization: W ~ N(0, 2/fan_in), biases zero."""
    rng = np.random.default_rng(config.init_seed)
    net = Network(config)
    for W in net.weights:
        W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)
    return net


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _layers(net: Network, z0: np.ndarray) -> list[np.ndarray]:
    """Pre-activations of layers 0..L, given layer 0's: the one walk through layers 1..L."""
    zs = [z0]
    for W, b in zip(net.weights[1:], net.biases[1:]):
        z = np.maximum(zs[-1], 0.0) @ W
        z += b
        zs.append(z)
    return zs


def _rows(net: Network, x) -> tuple[np.ndarray, bool]:
    """`x` as a float64 matrix of finite inputs to `net`, and whether it was one vector."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ConfigError("non-finite network input")
    if x.ndim not in (1, 2):
        raise ConfigError("network input must be a vector or a matrix")
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.config.input_width:
        raise ConfigError("input width does not match the network")
    return X, single


def _tiled(net: Network, rows: np.ndarray, layer0) -> np.ndarray:
    """Probabilities of `rows`; `layer0(net, tile)` gives a tile's layer-0 sums without b0.

    Layers 1..L see at most TILE_ROWS rows at a time, padded by `_padded` to
    whole blocks of 4 rows.  numpy multiplies a single row with gemv, which
    adds in another order than gemm; OpenBLAS 0.3.31 gives the rows past a
    product's last whole block of 4 other bits in a layer of at most 3
    outputs, and multiplies 8,192 rows or more in another order.  So a row
    gets the same bits in every batch wherever the BLAS gives a row of a
    padded tile the same bits in every tile.
    """
    n = len(rows)
    if n > TILE_ROWS:  # each slice is one tile
        tiles = range(0, n, TILE_ROWS)
        return np.concatenate([_tiled(net, rows[k : k + TILE_ROWS], layer0) for k in tiles])
    z0 = layer0(net, rows)
    z0 += net.biases[0]
    return _sigmoid(_layers(net, _padded(z0, 0))[-1])[:n]


# OpenBLAS 0.3.31 gives a row of layer 3's backward product other bits in a
# batch of 1-18 rows than in a batch of 1,024, so backward passes are padded to 20.
_LEAST_PASS_ROWS = 20


def _padded(rows: np.ndarray, least: int) -> np.ndarray:
    """`rows` with its last row repeated up to whole blocks of 4, and to at least `least` rows."""
    n = len(rows)
    extra = max(n + -n % 4, least) - n
    return rows.repeat([1] * (n - 1) + [1 + extra], axis=0) if extra else rows


def _gemm(net: Network, X: np.ndarray) -> np.ndarray:
    # a single row is multiplied as two: numpy would multiply it with gemv
    return (X[[0, 0]] @ net.weights[0])[:1] if len(X) == 1 else X @ net.weights[0]


def _gather(net: Network, C: np.ndarray) -> np.ndarray:
    # a tile without padding adds every term unmasked, which is faster
    where = (C >= 0)[:, :, None] if C.min(initial=0) < 0 else True
    return np.add.reduce(net.weights[0].take(C, axis=0), axis=1, where=where)


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Grant probabilities, one per operation. Accepts a vector or a matrix.

    A vector is a batch of one, cut and padded as every batch is (`_tiled`),
    so `forward(net, X[i])` equals `forward(net, X)[i]`.
    """
    X, single = _rows(net, x)
    P = _tiled(net, X, _gemm)
    return P[0] if single else P


def forward_active(net: Network, C: np.ndarray) -> np.ndarray:
    """`forward` of 0/1 rows given by their active columns, one row per row of C.

    Row i of C lists the input columns that are 1 in row i, ascending, as
    `encoding.active_columns` gives them; a -1 is padding and does not count.
    Layer 0 adds the selected rows of W0 in column order: the gemm of
    `forward` adds the same terms in the same order plus exact 0.0 terms, so
    layer 0 gives each row the bits a dense `forward` gives it.  Layers 1..L
    see the tiles `forward` gives them.
    """
    return _tiled(net, C, _gather)


def _check_width(net: Network, encoder: Encoder) -> None:
    if encoder.width != net.config.input_width:
        raise ConfigError(
            f"encoder width {encoder.width} differs from the network input width "
            f"{net.config.input_width}"
        )


def forward_positions(net: Network, encoder: Encoder, M) -> np.ndarray:
    """`forward` of the encoded rows of M, each a pair's positions as `Dataset.M` holds them.

    The bulk scoring path: each tile of `_tiled` is encoded just before its
    layer 0, so no dense input holds more than TILE_ROWS rows.  The tiles
    are the row slices `forward` cuts, so every row gets the bits of
    `forward(net, encode_positions(encoder, M))`.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[1] != encoder.num_positions:
        raise ConfigError(f"position rows must form a matrix of {encoder.num_positions} columns")
    _check_width(net, encoder)
    return _tiled(net, M, lambda net, tile: _gemm(net, encode_positions(encoder, tile)))


def loss(
    probs: np.ndarray, labels: np.ndarray, class_weights: tuple[float, float] = (1.0, 1.0)
) -> float:
    """Weighted binary cross-entropy, averaged over every (sample, op) entry."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ConfigError("probs and labels must have equal shapes")
    wg, wd = class_weights
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    per = -(wg * labels * np.log(p) + wd * (1.0 - labels) * np.log(1.0 - p))
    return float(np.mean(per))


def _loss_grads(net: Network, X: np.ndarray, Y: np.ndarray, class_weights, grad: Network) -> float:
    """loss(forward(X), Y); its gradient w.r.t. every parameter is written into `grad`."""
    wg, wd = class_weights
    zs = _layers(net, X @ net.weights[0] + net.biases[0])
    probs = _sigmoid(zs[-1])
    total_loss = loss(probs, Y, class_weights)

    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    inside = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    dL_dp = (-(wg * Y / p) + wd * (1.0 - Y) / (1.0 - p)) * inside / probs.size
    delta = dL_dp * probs * (1.0 - probs)  # dL/dz at the output layer

    for l in range(len(net.weights) - 1, -1, -1):
        a = np.maximum(zs[l - 1], 0.0) if l > 0 else X  # layer l's input
        np.matmul(a.T, delta, out=grad.weights[l])
        np.sum(delta, axis=0, out=grad.biases[l])
        if l > 0:
            delta = (delta @ net.weights[l].T) * (zs[l - 1] > 0.0)
    return total_loss


def backward(
    net: Network,
    x: np.ndarray,
    labels: np.ndarray,
    class_weights: tuple[float, float] = (1.0, 1.0),
):
    """Exact parameter gradients of the (batch-mean) loss.

    Returns (grads_weights, grads_biases) shaped like the network parameters.
    """
    X, single = _rows(net, x)
    labels = np.asarray(labels, dtype=np.float64)
    grad = Network(net.config)
    _loss_grads(net, X, labels[None, :] if single else labels, class_weights, grad)
    return grad.weights, grad.biases


def _dprob_dz0(net: Network, z0: np.ndarray, op_index: int) -> np.ndarray:
    """d(probability of op)/d(layer-0 pre-activation), one row per row of `z0`."""
    zs = _layers(net, z0)
    probs = _sigmoid(zs[-1])
    delta = np.zeros_like(probs)
    delta[:, op_index] = probs[:, op_index] * (1.0 - probs[:, op_index])
    for l in range(len(net.weights) - 1, 0, -1):
        delta = (delta @ net.weights[l].T) * (zs[l - 1] > 0.0)
    return delta


def path_gradient(
    net: Network, x: np.ndarray, baseline: np.ndarray, op_index: int, steps: int
) -> np.ndarray:
    """Sum over k = 1..steps of d(probability of op)/d(input) at B + (k/steps)*D.

    D = X - B, one row per row of x.  Layer 0 is linear in k, so its
    pre-activation is (B W0 + b0) + (k/steps)*(D W0), and the summed input
    gradient is (sum_k dP/dz0_k) W0^T.  A row's steps run in chunks of
    `chunk = min(steps, TILE_ROWS)`, and a pass through the other layers
    holds the chunks of TILE_ROWS // chunk whole rows, padded by `_padded`
    to at least `_LEAST_PASS_ROWS`, so memory does not grow with `steps`.
    A row's steps are summed in step order (pairwise, by numpy, when layer 0
    has one unit) and back-projected with one gemv.  No pass, sum or product
    depends on the row count, so a row's sum is the same alone and in any
    batch, wherever the BLAS gives a row of a padded pass the same bits in
    every pass.
    """
    X, single = _rows(net, x)
    B, _ = _rows(net, baseline)
    if np.shape(x) != np.shape(baseline):
        raise ConfigError("input and baseline shapes differ")
    if not is_whole(steps, 1):
        raise ConfigError(f"steps must be a whole number >= 1, not {steps!r}")
    net.config.check_op(op_index)
    W0 = net.weights[0]
    D = X - B
    total = np.zeros((len(X), W0.shape[1]))  # sum over steps of dP/dz0
    chunk = min(steps, TILE_ROWS)
    per = TILE_ROWS // chunk  # whole rows per pass
    for r in range(0, len(X), per):
        b, s = _gemm(net, B[r : r + per]), _gemm(net, D[r : r + per])
        b += net.biases[0]
        for k in range(1, steps + 1, chunk):
            alphas = np.arange(k, min(k + chunk, steps + 1)) / steps
            z0 = s[:, None, :] * alphas[:, None]  # the bits of b + alpha*s, one temporary
            z0 += b[:, None, :]
            z0 = z0.reshape(-1, W0.shape[1])
            dz0 = _dprob_dz0(net, _padded(z0, _LEAST_PASS_ROWS), op_index)[: len(z0)]
            total[r : r + per] += dz0.reshape(len(b), len(alphas), -1).sum(axis=1)
    grad = np.matmul(W0, total[:, :, None])[:, :, 0]
    return grad[0] if single else grad


def input_gradient(net: Network, x: np.ndarray, op_index: int) -> np.ndarray:
    """d(probability of op)/d(input), exact: `path_gradient` from a zero baseline in one step."""
    X = np.asarray(x, dtype=np.float64)
    return path_gradient(net, X, np.zeros_like(X), op_index, 1)


def adam_step(flat: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `flat`, `state.m` and `state.v`, in place.

    It runs the operations of `p - lr * m_hat / (sqrt(v_hat) + eps)`, taken
    array by array, in the same order, so the bits match that expression.
    """
    state.t += 1
    m, v, a, b = state.m, state.v, state._a, state._b
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=a)
    v *= BETA2
    v += np.multiply(np.multiply(grad, grad, out=a), 1.0 - BETA2, out=a)
    np.divide(m, 1.0 - BETA1**state.t, out=a)  # m_hat
    a *= lr
    np.divide(v, 1.0 - BETA2**state.t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    flat -= a


class EarlyStopper:
    """Stops after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = -1
        self._since = 0
        self._epoch = -1

    def update(self, value: float) -> bool:
        """Record one epoch's monitored value; returns True when training should stop."""
        self._epoch += 1
        if value < self.best:
            self.best = value
            self.best_epoch = self._epoch
            self._since = 0
        else:
            self._since += 1
        return self._since >= self.patience


def train(
    net: Network, train_set: Dataset, encoder: Encoder, tc: TrainConfig
) -> tuple[Network, TrainReport]:
    """Mini-batch Adam with step-decayed learning rate and early stopping.

    Adam updates a working copy of `net.flat` in place.  A `val_fraction`
    carve-out of the training tuples is the early-stopping monitor; the
    returned network holds the best-validation-epoch parameters.  Training
    keeps position rows, not encoded ones: each epoch encodes its shuffled
    rows a tile of whole mini-batches at a time.
    """
    if len(train_set) == 0:
        raise ConfigError("empty training set")
    encoder.check_layout(train_set.num_user_meta, train_set.num_res_meta)
    _check_width(net, encoder)
    M, Y = train_set.M, train_set.Y.astype(np.float64)

    rng = SplitMix64(tc.shuffle_seed)
    order = rng.permutation(len(train_set))
    n_val = int(tc.val_fraction * len(order))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    if len(tr_idx) == 0:
        raise ConfigError("val_fraction leaves no training samples")
    Mtr, Ytr = M[tr_idx], Y[tr_idx]
    Mval, Yval = M[val_idx], Y[val_idx]

    work, grad, best = Network(net.config), Network(net.config), _aligned_zeros(net.flat.size)
    np.copyto(work.flat, net.flat)
    np.copyto(best, net.flat)
    state = AdamState(work.flat.size)
    stopper = EarlyStopper(tc.early_stop_patience)
    report = TrainReport()

    n = len(tr_idx)
    batch_order = np.arange(n)
    span = tc.batch_size * max(1, TILE_ROWS // tc.batch_size)  # whole batches per tile
    for epoch in range(tc.epochs):
        lr = tc.lr0 / (10.0 ** (epoch // tc.lr_decay_epochs))
        batch_order = batch_order[rng.permutation(n)]  # as shuffling the last epoch's order
        epoch_loss = 0.0
        for first in range(0, n, span):
            tile = batch_order[first : first + span]
            X, Yt = encode_positions(encoder, Mtr[tile]), Ytr[tile]
            for start in range(0, len(tile), tc.batch_size):
                xb, yb = X[start : start + tc.batch_size], Yt[start : start + tc.batch_size]
                batch_loss = _loss_grads(work, xb, yb, tc.class_weights, grad)
                adam_step(work.flat, grad.flat, state, lr)
                epoch_loss += batch_loss * len(yb)
        epoch_loss /= n

        if len(val_idx) > 0:
            val_loss = loss(forward_positions(work, encoder, Mval), Yval, tc.class_weights)
        else:
            val_loss = epoch_loss

        report.train_losses.append(epoch_loss)
        report.val_losses.append(val_loss)
        report.learning_rates.append(lr)

        should_stop = stopper.update(val_loss)
        if stopper.best_epoch == epoch:
            np.copyto(best, work.flat)
        if should_stop:
            break

    report.stopped_epoch = len(report.train_losses)
    report.best_epoch = max(stopper.best_epoch, 0)
    return Network(net.config, best), report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_HEADER = "dlbac-model v1"


def save_model(net: Network) -> str:
    """Text serialization with exact hexadecimal float literals."""
    if not np.isfinite(net.flat).all():
        raise ConfigError("model parameters must be finite")
    lines = [_HEADER, "widths " + " ".join(str(w) for w in net.config.widths)]
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {l} weight {W.shape[0]} {W.shape[1]}")
        for row in W:
            lines.append(" ".join(float(v).hex() for v in row))
        lines.append(f"layer {l} bias {b.shape[0]}")
        lines.append(" ".join(float(v).hex() for v in b))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> Network:
    lines = iter(text.splitlines())
    header = next(lines, None)
    if header is None or header.strip() != _HEADER:
        raise FormatError("bad model header")
    widths_line = next(lines, None)
    if widths_line is None or not widths_line.startswith("widths "):
        raise FormatError("missing widths line")
    try:
        widths = [int(t) for t in widths_line.split()[1:]]
    except ValueError:
        raise FormatError("non-integer width") from None
    if len(widths) < 2:
        raise FormatError("model needs at least input and output widths")
    try:
        config = NetworkConfig(
            input_width=widths[0], num_ops=widths[-1], hidden_layers=tuple(widths[1:-1])
        )
    except ConfigError as exc:
        raise FormatError(f"bad widths line: {exc}") from None

    # every value takes a token and a separator: reject before allocating
    if 2 * config.num_params > len(text):
        raise FormatError("model file is too short for its widths")
    net = Network(config)
    i = 2  # lines read
    non_finite = None  # the first line holding a non-finite value, reported last
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        rows, cols = W.shape
        for expect, block, truncated in (
            (f"layer {l} weight {rows} {cols}", W, "truncated weight matrix"),
            (f"layer {l} bias {cols}", b[None, :], "truncated bias vector"),
        ):
            line = next(lines, None)
            if line is None or line.strip() != expect:
                raise FormatError(f"expected {expect!r} at line {i + 1}")
            i += 1
            for row in block:
                line = next(lines, None)
                if line is None:
                    raise FormatError(truncated)
                row[:] = _hex_floats(line, cols, i)
                i += 1
            if non_finite is None and not np.isfinite(block).all():
                bad = np.flatnonzero(~np.isfinite(block).all(axis=1))[0]
                non_finite = i - len(block) + bad + 1
    if non_finite is not None:
        raise FormatError(f"line {non_finite}: non-finite value")
    return net


def _hex_floats(line: str, count: int, i: int) -> np.ndarray:
    toks = line.split()
    if len(toks) != count:
        raise FormatError(f"line {i + 1}: expected {count} values")
    try:
        return np.fromiter(map(float.fromhex, toks), np.float64, count)
    except (ValueError, OverflowError):  # not a hex float, or beyond float64
        raise FormatError(f"line {i + 1}: bad float literal") from None
