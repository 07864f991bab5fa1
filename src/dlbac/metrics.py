"""Confusion-matrix accounting: precision, TPR, FPR, F1, per op and micro.

Every (tuple, op) prediction is scored independently; the micro report
pools raw counts across operations.  A metric with a zero denominator is
reported as None rather than coerced to 0 or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .encoding import Encoder
from .errors import ConfigError
from .neuralnet import Network, forward_positions


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class OpMetrics:
    confusion: Confusion
    precision: float | None
    tpr: float | None
    fpr: float | None
    f1: float | None


@dataclass(frozen=True)
class MetricsReport:
    per_op: tuple[OpMetrics, ...]
    micro: OpMetrics


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def _op_metrics(c: Confusion) -> OpMetrics:
    precision = _ratio(c.tp, c.tp + c.fp)
    tpr = _ratio(c.tp, c.tp + c.fn)
    fpr = _ratio(c.fp, c.fp + c.tn)
    if precision is None or tpr is None or precision + tpr == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * tpr / (precision + tpr)
    return OpMetrics(c, precision, tpr, fpr, f1)


def _bits(a, what: str) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype.kind not in "biuf" or not ((a == 0) | (a == 1)).all():
        raise ConfigError(f"{what} must be 0 or 1")
    return a.astype(np.int64)


def score(preds: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Score 0/1 prediction and label matrices of shape (n_tuples, n_ops), all ops at once."""
    P, Y = _bits(preds, "predictions"), _bits(labels, "labels")
    if P.shape != Y.shape:
        raise ConfigError("prediction and label shapes differ")
    if P.ndim == 1:
        P, Y = P[:, None], Y[:, None]
    if P.ndim != 2:
        raise ConfigError("predictions and labels must be vectors or matrices")
    tp = (P * Y).sum(axis=0)
    fp, fn = P.sum(axis=0) - tp, Y.sum(axis=0) - tp
    counts = np.stack([tp, fp, len(P) - tp - fp - fn, fn], axis=1)  # one row per op
    per_op = tuple(_op_metrics(Confusion(*row)) for row in counts.tolist())
    return MetricsReport(per_op, _op_metrics(Confusion(*counts.sum(axis=0).tolist())))


def evaluate(
    net: Network, encoder: Encoder, test: Dataset, threshold: float = 0.5
) -> MetricsReport:
    """Score thresholded network predictions against the dataset labels."""
    net.config.check_dataset_ops(test.num_ops)
    encoder.check_layout(test.num_user_meta, test.num_res_meta)
    probs = forward_positions(net, encoder, test.M)
    preds = (probs > threshold).astype(np.int64)
    return score(preds, test.Y)


def report_to_csv(report: MetricsReport) -> str:
    """CSV rows op0..opN then micro; undefined metrics render as NA."""
    fmt = lambda v: "NA" if v is None else f"{v:.6f}"
    lines = ["row,tp,fp,tn,fn,precision,tpr,fpr,f1"]
    rows = [(f"op{k}", m) for k, m in enumerate(report.per_op)] + [("micro", report.micro)]
    for name, m in rows:
        c = m.confusion
        lines.append(
            f"{name},{c.tp},{c.fp},{c.tn},{c.fn},"
            f"{fmt(m.precision)},{fmt(m.tpr)},{fmt(m.fpr)},{fmt(m.f1)}"
        )
    return "\n".join(lines) + "\n"
