"""Feedforward sigmoid-output network with exact backprop and Adam training.

All arithmetic is float64 so gradient checks against finite differences are
meaningful.  Hidden layers use the rectifier; the output layer is a sigmoid
per operation, read as the probability of granting that operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .encoding import Encoder, encode_dataset
from .errors import ConfigError, FormatError
from .rng import SplitMix64

PROB_EPS = 1e-12  # clamp for log() in the loss


@dataclass(frozen=True)
class NetworkConfig:
    input_width: int
    num_ops: int
    hidden_layers: tuple[int, ...] = (256, 128, 64, 32)
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.input_width < 1 or self.num_ops < 1:
            raise ConfigError("input_width and num_ops must be >= 1")
        if any(w < 1 for w in self.hidden_layers):
            raise ConfigError("hidden layer widths must be >= 1")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_width, *self.hidden_layers, self.num_ops)

    @property
    def num_params(self) -> int:
        widths = self.widths
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))


class Network:
    """Network parameters, stored as one contiguous float64 vector `flat`.

    The layout is model-file order: W0, b0, W1, b1, ...  `weights[l]` (shape
    `(in_l, out_l)`, row-major) and `biases[l]` are views into `flat`, so a
    write through either is a write to `flat`.  Without `flat` the
    parameters start at zero.
    """

    def __init__(self, config: NetworkConfig, flat: np.ndarray | None = None):
        size = config.num_params
        flat = np.zeros(size) if flat is None else flat
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
    threshold: float = 0.5
    val_fraction: float = 0.1
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")
        if not all(0.0 < w < np.inf for w in self.class_weights):
            raise ConfigError("class weights must be positive and finite")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be strictly between 0 and 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_cache(net: Network, X: np.ndarray):
    """Returns (activations, pre_activations); activations[0] is the input."""
    acts = [X]
    zs = []
    a = X
    n_layers = len(net.weights)
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W + b
        zs.append(z)
        a = _sigmoid(z) if l == n_layers - 1 else np.maximum(z, 0.0)
        acts.append(a)
    return acts, zs


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Grant probabilities, one per operation. Accepts a vector or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ConfigError("non-finite network input")
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.config.input_width:
        raise ConfigError("input width does not match the network")
    acts, _ = _forward_cache(net, X)
    probs = acts[-1]
    return probs[0] if single else probs


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


def _loss_grads(net: Network, X: np.ndarray, Y: np.ndarray, class_weights):
    """Gradient of loss(forward(X), Y) w.r.t. every parameter, as a Network; also the loss."""
    wg, wd = class_weights
    acts, zs = _forward_cache(net, X)
    probs = acts[-1]
    total_loss = loss(probs, Y, class_weights)

    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    inside = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    dL_dp = (-(wg * Y / p) + wd * (1.0 - Y) / (1.0 - p)) * inside / probs.size
    delta = dL_dp * probs * (1.0 - probs)  # dL/dz at the output layer

    grad = Network(net.config, np.empty_like(net.flat))
    for l in range(len(net.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grad.weights[l])
        np.sum(delta, axis=0, out=grad.biases[l])
        if l > 0:
            delta = (delta @ net.weights[l].T) * (zs[l - 1] > 0.0)
    return grad, total_loss


def backward(
    net: Network,
    x: np.ndarray,
    labels: np.ndarray,
    class_weights: tuple[float, float] = (1.0, 1.0),
):
    """Exact parameter gradients of the (batch-mean) loss.

    Returns (grads_weights, grads_biases) shaped like the network parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
        labels = labels[None, :]
    grad, _ = _loss_grads(net, x, labels, class_weights)
    return grad.weights, grad.biases


def input_gradient(net: Network, x: np.ndarray, op_index: int) -> np.ndarray:
    """d(probability of op)/d(input), exact, via the same graph as forward."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if not 0 <= op_index < net.config.num_ops:
        raise ConfigError(f"op index {op_index} out of range")
    acts, zs = _forward_cache(net, X)
    probs = acts[-1]
    delta = np.zeros_like(probs)
    delta[:, op_index] = probs[:, op_index] * (1.0 - probs[:, op_index])
    for l in range(len(net.weights) - 1, 0, -1):
        delta = (delta @ net.weights[l].T) * (zs[l - 1] > 0.0)
    grad = delta @ net.weights[0].T
    return grad[0] if single else grad


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params]
    )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; inputs are not mutated."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("params, grads, and state shapes must align")
    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m2 = b1 * m + (1.0 - b1) * g
        v2 = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m2 / (1.0 - b1**t)
        v_hat = v2 / (1.0 - b2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, AdamState(new_m, new_v, t, b1, b2, eps)


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

    A `val_fraction` carve-out of the training tuples is the early-stopping
    monitor; the returned network holds the best-validation-epoch parameters.
    """
    if len(train_set.tuples) == 0:
        raise ConfigError("empty training set")
    X = encode_dataset(encoder, train_set)
    Y = train_set.labels_matrix().astype(np.float64)
    if X.shape[1] != net.config.input_width:
        raise ConfigError("dataset is inconsistent with the network input width")

    rng = SplitMix64(tc.shuffle_seed)
    order = list(range(X.shape[0]))
    rng.shuffle(order)
    n_val = int(tc.val_fraction * len(order))
    val_idx = order[:n_val]
    tr_idx = order[n_val:]
    if not tr_idx:
        raise ConfigError("val_fraction leaves no training samples")
    Xtr, Ytr = X[tr_idx], Y[tr_idx]
    Xval, Yval = X[val_idx], Y[val_idx]

    work = net  # adam_step is pure, so the input network is never written
    state = init_adam([work.flat])
    stopper = EarlyStopper(tc.early_stop_patience)
    best = net.flat.copy()
    report = TrainReport()

    n = Xtr.shape[0]
    batch_order = list(range(n))
    for epoch in range(tc.epochs):
        lr = tc.lr0 / (10.0 ** (epoch // tc.lr_decay_epochs))
        rng.shuffle(batch_order)
        epoch_loss = 0.0
        for start in range(0, n, tc.batch_size):
            idx = batch_order[start : start + tc.batch_size]
            grad, batch_loss = _loss_grads(work, Xtr[idx], Ytr[idx], tc.class_weights)
            (flat,), state = adam_step([work.flat], [grad.flat], state, lr)
            work = Network(net.config, flat)
            epoch_loss += batch_loss * len(idx)
        epoch_loss /= n

        if len(val_idx) > 0:
            val_loss = loss(forward(work, Xval), Yval, tc.class_weights)
        else:
            val_loss = epoch_loss

        report.train_losses.append(epoch_loss)
        report.val_losses.append(val_loss)
        report.learning_rates.append(lr)

        improved_to_best = val_loss < stopper.best
        should_stop = stopper.update(val_loss)
        if improved_to_best:
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
    lines = [_HEADER, "widths " + " ".join(str(w) for w in net.config.widths)]
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {l} weight {W.shape[0]} {W.shape[1]}")
        for row in W:
            lines.append(" ".join(float(v).hex() for v in row))
        lines.append(f"layer {l} bias {b.shape[0]}")
        lines.append(" ".join(float(v).hex() for v in b))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> Network:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise FormatError("bad model header")
    if len(lines) < 2 or not lines[1].startswith("widths "):
        raise FormatError("missing widths line")
    try:
        widths = [int(t) for t in lines[1].split()[1:]]
    except ValueError:
        raise FormatError("non-integer width") from None
    if len(widths) < 2:
        raise FormatError("model needs at least input and output widths")
    config = NetworkConfig(
        input_width=widths[0], num_ops=widths[-1], hidden_layers=tuple(widths[1:-1])
    )

    # every value takes a token and a separator: reject before allocating
    if 2 * config.num_params > len(text):
        raise FormatError("model file is too short for its widths")
    net = Network(config)
    i = 2
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        rows, cols = W.shape
        expect = f"layer {l} weight {rows} {cols}"
        if i >= len(lines) or lines[i].strip() != expect:
            raise FormatError(f"expected {expect!r} at line {i + 1}")
        i += 1
        for r in range(rows):
            if i >= len(lines):
                raise FormatError("truncated weight matrix")
            W[r] = _hex_floats(lines[i], cols, i)
            i += 1
        expect = f"layer {l} bias {cols}"
        if i >= len(lines) or lines[i].strip() != expect:
            raise FormatError(f"expected {expect!r} at line {i + 1}")
        i += 1
        if i >= len(lines):
            raise FormatError("truncated bias vector")
        b[:] = _hex_floats(lines[i], cols, i)
        i += 1
    return net


def _hex_floats(line: str, count: int, i: int) -> list[float]:
    toks = line.split()
    if len(toks) != count:
        raise FormatError(f"line {i + 1}: expected {count} values")
    try:
        return [float.fromhex(t) for t in toks]
    except ValueError:
        raise FormatError(f"line {i + 1}: bad float literal") from None
