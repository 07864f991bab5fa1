"""Integrated-gradients attribution plus metadata-flipping experiments.

Attribution uses a right-Riemann approximation of the path integral from an
all-zero baseline (no category active).  `neuralnet.path_gradient` sums the
gradients along the path in passes whose shape `steps` alone sets, so a
pair's attribution is the same alone and in any batch.
Per-metadata scores sum absolute per-feature scores over the
metadata's encoder block and are normalized by the maximum block score, so
a block with zero attribution keeps an exact 0.0 (read as "no impact").

A pair's metadata is one row of positions (user positions, then resource
positions) named as in `Encoder.names`, so replacing a metadata value with
a donor's writes one position.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .encoding import Encoder, encode_positions
from .engine import MetadataStore
from .errors import ConfigError, is_whole
from .neuralnet import Network, forward_positions, path_gradient
from .rng import SplitMix64


@dataclass(frozen=True)
class Attribution:
    feature_scores: np.ndarray  # raw per-feature scores, length input_width
    metadata_scores: np.ndarray  # normalized per-metadata scores in [0, 1]
    metadata_names: tuple[str, ...]
    op_index: int
    steps: int
    baseline: str


@dataclass(frozen=True)
class FlipCurve:
    replaced: tuple[str, ...]  # metadata names, in replacement order
    fractions: tuple[float, ...]  # len(replaced) + 1; entry 0 is pre-change


def integrated_gradients(
    net: Network, x: np.ndarray, baseline: np.ndarray, op: int, steps: int
) -> np.ndarray:
    """Per-feature attribution of the op's probability against the baseline.

    Right-Riemann sum over alpha = k/steps, k = 1..steps, on the path
    B + alpha*D with D = X - B: D times `path_gradient`'s summed gradient,
    over steps.  Its passes make a row's scores the same alone and in any
    batch.
    """
    grad = path_gradient(net, x, baseline, op, steps)
    D = np.asarray(x, dtype=np.float64) - np.asarray(baseline, dtype=np.float64)
    return D * grad / steps


def aggregate(feature_scores: np.ndarray, encoder: Encoder) -> np.ndarray:
    """Per-metadata normalized scores: sum of |features| per block, max -> 1.0."""
    feature_scores = np.asarray(feature_scores, dtype=np.float64)
    if feature_scores.shape[-1] != encoder.width:
        raise ConfigError("feature scores do not match the encoder width")
    single = feature_scores.ndim == 1
    F = feature_scores[None, :] if single else feature_scores
    blocks = np.empty((F.shape[0], encoder.num_positions))
    for p, (start, width) in enumerate(encoder.field_spans):
        blocks[:, p] = np.abs(F[:, start : start + width]).sum(axis=1)
    peak = blocks.max(axis=1, keepdims=True)
    out = np.divide(blocks, peak, out=np.zeros_like(blocks), where=peak > 0)
    return out[0] if single else out


def _pair_row(encoder: Encoder, row) -> np.ndarray:
    """`row` as one pair's positions, user then resource, as a row of `Dataset.M`."""
    row = np.asarray(row)
    if row.shape != (encoder.num_positions,):
        raise ConfigError(f"a pair row holds {encoder.num_positions} positions, not {row.shape}")
    return row


def _attribution(
    net: Network, encoder: Encoder, x: np.ndarray, op: int, steps: int
) -> Attribution:
    raw = integrated_gradients(net, x, np.zeros_like(x), op, steps)
    return Attribution(
        feature_scores=raw,
        metadata_scores=aggregate(raw, encoder),
        metadata_names=tuple(encoder.names),
        op_index=op,
        steps=steps,
        baseline="zero",
    )


def local_explain(
    net: Network,
    encoder: Encoder,
    store: MetadataStore,
    uid: int,
    rid: int,
    op: int,
    steps: int = 128,
) -> Attribution:
    """Attribution for a single (user, resource) decision, on `decide`'s feature row."""
    return _attribution(net, encoder, store.features(encoder, uid, rid), op, steps)


def global_explain(
    net: Network,
    encoder: Encoder,
    dataset: Dataset,
    op: int,
    decision_class: int = 1,
    sample_n: int = 50,
    seed: int = 0,
    steps: int = 128,
) -> Attribution:
    """Mean per-tuple normalized attribution over a sample of one label class."""
    net.config.check_op(op)
    net.config.check_dataset_ops(dataset.num_ops)
    if not is_whole(sample_n, 1):
        raise ConfigError(f"sample size must be a whole number >= 1, not {sample_n!r}")
    if not is_whole(seed):
        raise ConfigError(f"seed must be a whole number, not {seed!r}")
    pool = np.flatnonzero(dataset.Y[:, op] == decision_class)
    if len(pool) < sample_n:
        raise ConfigError(
            f"need {sample_n} tuples with label {decision_class} for op {op}, "
            f"only {len(pool)} available"
        )
    encoder.check_layout(dataset.num_user_meta, dataset.num_res_meta)
    picks = pool[SplitMix64(seed).sample_indices(len(pool), sample_n)]
    rows = _attribution(net, encoder, encode_positions(encoder, dataset.M[picks]), op, steps)
    return replace(
        rows,
        feature_scores=rows.feature_scores.mean(axis=0),
        metadata_scores=rows.metadata_scores.mean(axis=0),
    )


def significance_order(attribution: Attribution) -> list[str]:
    """Metadata names sorted by descending score (stable on ties)."""
    order = np.argsort(-attribution.metadata_scores, kind="stable")
    return [attribution.metadata_names[i] for i in order]


def _position(encoder: Encoder, name: str) -> int:
    """Position index of a metadata name like umeta3 / rmeta0."""
    names = encoder.names
    if name not in names:
        raise ConfigError(f"unknown metadata name {name!r}")
    return names.index(name)


def flip_study(
    net: Network,
    encoder: Encoder,
    dataset: Dataset,
    op: int,
    donor: np.ndarray,
    order: list[str],
    threshold: float = 0.5,
) -> FlipCurve:
    """Cumulative donor-value replacement over all network-denied tuples.

    `donor` is a granted pair's row of positions, as `dataset.M` holds it.
    After each replacement (in the given order, typically the global
    significance order) the fraction of formerly denied tuples now granted
    is recorded; entry 0 is the unmodified fraction, which is 0 because the
    deny set is defined by the network's own decisions.
    """
    net.config.check_op(op)
    encoder.check_layout(dataset.num_user_meta, dataset.num_res_meta)
    donor = _pair_row(encoder, donor)
    if not float(forward_positions(net, encoder, donor[None, :])[0, op]) > threshold:
        raise ConfigError("donor tuple is denied for the requested operation")

    probs = forward_positions(net, encoder, dataset.M)[:, op]
    M = dataset.M[probs <= threshold]
    if M.shape[0] == 0:
        raise ConfigError("no denied tuples to flip")

    fractions = [0.0]
    for name in order:
        p = _position(encoder, name)
        M[:, p] = donor[p]
        probs = forward_positions(net, encoder, M)[:, op]
        fractions.append(float(np.mean(probs > threshold)))
    return FlipCurve(replaced=tuple(order), fractions=tuple(fractions))


def insignificance_check(
    net: Network,
    encoder: Encoder,
    row: np.ndarray,
    donor: np.ndarray,
    op: int,
    score_threshold: float = 0.05,
    steps: int = 128,
    threshold: float = 0.5,
) -> bool:
    """True when replacing all low-attribution metadata leaves the decision unchanged.

    `row` and `donor` are pairs' rows of positions, as `Dataset.M` holds
    them.  Positions whose local normalized score is strictly below
    `score_threshold` (exact zeros included) take the donor's values, and
    one two-row `forward_positions` scores the row before and after.
    """
    row, donor = _pair_row(encoder, row), _pair_row(encoder, donor)
    x = encode_positions(encoder, row[None, :])[0]
    low = _attribution(net, encoder, x, op, steps).metadata_scores < score_threshold
    pair = np.stack((row, np.where(low, donor, row)))
    before, after = forward_positions(net, encoder, pair)[:, op] > threshold
    return bool(before == after)


def attribution_to_csv(attribution: Attribution) -> str:
    lines = ["metadata_name,normalized_score"]
    for name, s in zip(attribution.metadata_names, attribution.metadata_scores):
        lines.append(f"{name},{s:.6f}")
    return "\n".join(lines) + "\n"


def flip_curve_to_csv(curve: FlipCurve) -> str:
    lines = ["step,metadata_replaced,fraction_granted"]
    lines.append(f"0,,{curve.fractions[0]:.6f}")
    for i, name in enumerate(curve.replaced, start=1):
        lines.append(f"{i},{name},{curve.fractions[i]:.6f}")
    return "\n".join(lines) + "\n"
