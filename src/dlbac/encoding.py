"""Categorical metadata -> binary feature vectors (one-hot or binary scheme).

Feature layout: user metadata blocks first, then resource metadata blocks,
positions in declared order.  One-hot blocks reserve a trailing unknown
column; binary blocks reserve the all-zero pattern (dense index 0) for
unseen values, so seen values map to dense indices 1..cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, metadata_names
from .errors import ConfigError, FormatError

SCHEMES = ("onehot", "binary")


@dataclass(frozen=True)
class Encoder:
    scheme: str
    num_user_meta: int
    num_res_meta: int
    # per position (user then resource): sorted distinct training values
    seen_values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown encoding scheme {self.scheme!r}")
        if len(self.seen_values) != self.num_positions:
            raise ConfigError("seen_values must cover every metadata position")

    @property
    def num_positions(self) -> int:
        return self.num_user_meta + self.num_res_meta

    @property
    def block_widths(self) -> tuple[int, ...]:
        if self.scheme == "onehot":
            return tuple(len(vals) + 1 for vals in self.seen_values)
        return tuple(
            max(1, math.ceil(math.log2(len(vals) + 1))) for vals in self.seen_values
        )

    @property
    def field_spans(self) -> tuple[tuple[int, int], ...]:
        """(start, width) of every metadata block; tiles [0, width)."""
        spans = []
        start = 0
        for w in self.block_widths:
            spans.append((start, w))
            start += w
        return tuple(spans)

    @property
    def width(self) -> int:
        return sum(self.block_widths)

    @property
    def names(self) -> list[str]:
        return metadata_names(self.num_user_meta, self.num_res_meta)


def build_encoder(train: Dataset, scheme: str = "onehot") -> Encoder:
    """Category maps from the training tuples only, columns in ascending value order."""
    if len(train.tuples) == 0:
        raise ConfigError("cannot build an encoder from an empty dataset")
    U = train.umeta_matrix()
    R = train.rmeta_matrix()
    seen = []
    for i in range(train.num_user_meta):
        seen.append(tuple(int(v) for v in np.unique(U[:, i])))
    for j in range(train.num_res_meta):
        seen.append(tuple(int(v) for v in np.unique(R[:, j])))
    return Encoder(
        scheme=scheme,
        num_user_meta=train.num_user_meta,
        num_res_meta=train.num_res_meta,
        seen_values=tuple(seen),
    )


def _dense_columns(encoder: Encoder, position: int, values: np.ndarray) -> np.ndarray:
    """Rank of each value among the position's seen values; unseen -> cardinality."""
    seen = np.asarray(encoder.seen_values[position], dtype=np.int64)
    pos = np.searchsorted(seen, values)
    pos_clipped = np.minimum(pos, len(seen) - 1)
    known = seen[pos_clipped] == values
    return np.where(known, pos_clipped, len(seen))


def encode_matrix(encoder: Encoder, U: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Vectorized encoding of row-aligned user/resource metadata matrices."""
    U = np.asarray(U, dtype=np.int64)
    R = np.asarray(R, dtype=np.int64)
    if U.shape[1] != encoder.num_user_meta or R.shape[1] != encoder.num_res_meta:
        raise ConfigError("metadata matrix width does not match encoder positions")
    if U.shape[0] != R.shape[0]:
        raise ConfigError("user and resource matrices must have equal row counts")
    n = U.shape[0]
    X = np.zeros((n, encoder.width), dtype=np.float64)
    spans = encoder.field_spans
    rows = np.arange(n)
    for p in range(encoder.num_positions):
        col_vals = U[:, p] if p < encoder.num_user_meta else R[:, p - encoder.num_user_meta]
        dense = _dense_columns(encoder, p, col_vals)
        start, width = spans[p]
        if encoder.scheme == "onehot":
            X[rows, start + dense] = 1.0
        else:
            # unseen keeps the reserved all-zero pattern (dense index 0)
            card = len(encoder.seen_values[p])
            idx = np.where(dense < card, dense + 1, 0)
            for bit in range(width):
                X[:, start + bit] = (idx >> bit) & 1
    return X


def encode_pair(encoder: Encoder, umeta, rmeta) -> np.ndarray:
    """Feature vector for one (user metadata, resource metadata) pair."""
    umeta = np.asarray(umeta, dtype=np.int64)
    rmeta = np.asarray(rmeta, dtype=np.int64)
    if umeta.shape != (encoder.num_user_meta,) or rmeta.shape != (encoder.num_res_meta,):
        raise ConfigError("metadata vector length does not match encoder positions")
    return encode_matrix(encoder, umeta[None, :], rmeta[None, :])[0]


def encode_dataset(encoder: Encoder, dataset: Dataset) -> np.ndarray:
    return encode_matrix(encoder, dataset.umeta_matrix(), dataset.rmeta_matrix())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "dlbac-encoder v1"


def save_encoder(encoder: Encoder) -> str:
    lines = [
        f"{_HEADER_PREFIX} {encoder.scheme} {encoder.num_user_meta} {encoder.num_res_meta}"
    ]
    for p, vals in enumerate(encoder.seen_values):
        for col, v in enumerate(vals):
            lines.append(f"{p} {v} {col}")
    return "\n".join(lines) + "\n"


def load_encoder(text: str) -> Encoder:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty encoder file")
    parts = lines[0].split()
    if parts[:2] != ["dlbac-encoder", "v1"] or len(parts) != 5:
        raise FormatError(f"bad encoder header {lines[0]!r}")
    scheme = parts[2]
    try:
        num_user_meta, num_res_meta = int(parts[3]), int(parts[4])
    except ValueError:
        raise FormatError("non-integer encoder header field") from None
    per_pos: dict[int, list[tuple[int, int]]] = {}
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise FormatError(f"bad encoder entry {ln!r}")
        try:
            p, v, col = (int(t) for t in toks)
        except ValueError:
            raise FormatError(f"non-integer encoder entry {ln!r}") from None
        per_pos.setdefault(p, []).append((col, v))
    seen = []
    for p in range(num_user_meta + num_res_meta):
        entries = sorted(per_pos.get(p, []))
        if not entries:
            raise FormatError(f"encoder file truncated: no values for position {p}")
        if [c for c, _ in entries] != list(range(len(entries))):
            raise FormatError(f"encoder file has gaps in columns for position {p}")
        values = tuple(v for _, v in entries)
        if any(a >= b for a, b in zip(values, values[1:])):
            raise FormatError(f"encoder values for position {p} are not strictly ascending")
        seen.append(values)
    return Encoder(scheme, num_user_meta, num_res_meta, tuple(seen))
