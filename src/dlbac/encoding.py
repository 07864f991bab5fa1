"""Categorical metadata -> binary feature vectors (one-hot or binary scheme).

Feature layout: user metadata blocks first, then resource metadata blocks,
positions in declared order.  One-hot blocks reserve a trailing unknown
column; binary blocks reserve the all-zero pattern (dense index 0) for
unseen values, so seen values map to dense indices 1..cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        if self.num_user_meta < 0 or self.num_res_meta < 0:
            raise ConfigError("negative metadata count")
        if len(self.seen_values) != self.num_positions:
            raise ConfigError("seen_values must cover every metadata position")
        for p, values in enumerate(self.seen_values):
            if not values:
                raise ConfigError(f"no seen values for position {p}")
            if not all(isinstance(v, (int, np.integer)) for v in values):
                raise ConfigError(f"seen values for position {p} must be integers")
            if any(a >= b for a, b in zip(values, values[1:])):
                raise ConfigError(f"seen values for position {p} are not strictly ascending")

    @property
    def num_positions(self) -> int:
        return self.num_user_meta + self.num_res_meta

    @cached_property  # computed once: a decision reads `width`
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

    @cached_property
    def width(self) -> int:
        return sum(self.block_widths)

    @property
    def names(self) -> list[str]:
        return metadata_names(self.num_user_meta, self.num_res_meta)

    def check_layout(self, num_user_meta: int, num_res_meta: int) -> None:
        """ConfigError unless pairs of this many user and resource metadata fit."""
        if (num_user_meta, num_res_meta) != (self.num_user_meta, self.num_res_meta):
            raise ConfigError(
                f"{num_user_meta} user and {num_res_meta} resource metadata do not match "
                f"encoder positions ({self.num_user_meta} + {self.num_res_meta})"
            )


def build_encoder(train: Dataset, scheme: str = "onehot") -> Encoder:
    """Category maps from the training tuples only, columns in ascending value order.

    One sort orders every position's column; a value is seen where it
    differs from the one above it.
    """
    if len(train) == 0:
        raise ConfigError("cannot build an encoder from an empty dataset")
    S = np.sort(train.M, axis=0)
    new = np.ones(S.shape, dtype=bool)
    new[1:] = S[1:] != S[:-1]
    return Encoder(
        scheme=scheme,
        num_user_meta=train.num_user_meta,
        num_res_meta=train.num_res_meta,
        seen_values=tuple(tuple(col[keep].tolist()) for col, keep in zip(S.T, new.T)),
    )


def _dense_columns(encoder: Encoder, position: int, values: np.ndarray) -> np.ndarray:
    """Rank of each value among the position's seen values; unseen -> cardinality."""
    seen = np.asarray(encoder.seen_values[position], dtype=np.int64)
    pos = np.searchsorted(seen, values)
    pos_clipped = np.minimum(pos, len(seen) - 1)
    known = seen[pos_clipped] == values
    return np.where(known, pos_clipped, len(seen))


def _whole_numbers(M: np.ndarray) -> np.ndarray:
    """M as int64; ConfigError unless every value is a whole number int64 can hold."""
    if M.dtype.kind in "bi":
        return M.astype(np.int64, copy=False)
    if M.dtype.kind in "uf":
        with np.errstate(invalid="ignore"):
            whole = (M == np.floor(M)) & (M >= -(2.0**63)) & (M < 2.0**63)
        if whole.all():
            return M.astype(np.int64)
    raise ConfigError("metadata values must be whole numbers")


def encode_positions(encoder: Encoder, M, first: int = 0) -> np.ndarray:
    """Encoded blocks of positions first .. first + M.shape[1] - 1, one row per row of M.

    Column j of M holds the values of position first + j, and column 0 of
    the result is where the block of position `first` starts.  A full row of
    positions gives the whole feature row; a store encodes its users from
    position 0 and its resources from position num_user_meta.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ConfigError("metadata matrix must be 2-D")
    last = first + M.shape[1]
    if not 0 <= first <= last <= encoder.num_positions:
        raise ConfigError(
            f"positions {first}..{last - 1} are outside the encoder's "
            f"{encoder.num_positions} positions"
        )
    M = _whole_numbers(M)
    spans = encoder.field_spans[first:last]
    offset = spans[0][0] if spans else 0
    X = np.zeros((M.shape[0], sum(w for _, w in spans)), dtype=np.float64)
    rows = np.arange(M.shape[0])
    for j, (start, width) in enumerate(spans):
        p = first + j
        dense = _dense_columns(encoder, p, M[:, j])
        start -= offset
        if encoder.scheme == "onehot":
            X[rows, start + dense] = 1.0
        else:
            # unseen keeps the reserved all-zero pattern (dense index 0)
            card = len(encoder.seen_values[p])
            idx = np.where(dense < card, dense + 1, 0)
            for bit in range(width):
                X[:, start + bit] = (idx >> bit) & 1
    return X


def active_columns(encoder: Encoder, M, first: int = 0) -> np.ndarray:
    """The input columns that are 1, ascending, one intp row per row of M.

    M and `first` are as in `encode_positions`, but the columns are absolute
    feature columns, so a user row from position 0 followed by a resource row
    from position num_user_meta lists a pair's columns in ascending order.  A
    one-hot row has one column per position.  A binary row has one per set
    bit, and an unseen value sets none, so shorter rows are padded at the end
    with -1.
    """
    X = encode_positions(encoder, M, first)
    rows, cols = np.nonzero(X)  # row-major: each row's columns ascend
    counts = np.bincount(rows, minlength=X.shape[0])
    C = np.full((X.shape[0], counts.max(initial=0)), -1, dtype=np.intp)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    C[rows, slot] = cols + sum(encoder.block_widths[:first])
    return C


def encode_pair(encoder: Encoder, umeta, rmeta) -> np.ndarray:
    """Feature vector for one (user metadata, resource metadata) pair."""
    umeta, rmeta = np.asarray(umeta), np.asarray(rmeta)
    if umeta.shape != (encoder.num_user_meta,) or rmeta.shape != (encoder.num_res_meta,):
        raise ConfigError("metadata vector length does not match encoder positions")
    return encode_positions(encoder, np.hstack((umeta, rmeta))[None, :])[0]


def encode_dataset(encoder: Encoder, dataset: Dataset) -> np.ndarray:
    encoder.check_layout(dataset.num_user_meta, dataset.num_res_meta)
    return encode_positions(encoder, dataset.M)


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
    if scheme not in SCHEMES:
        raise FormatError(f"unknown encoding scheme {scheme!r}")
    try:
        num_user_meta, num_res_meta = int(parts[3]), int(parts[4])
    except ValueError:
        raise FormatError("non-integer encoder header field") from None
    if num_user_meta < 0 or num_res_meta < 0:  # before the entries are read against them
        raise FormatError("negative metadata count in encoder header")
    per_pos: dict[int, list[tuple[int, int]]] = {}
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise FormatError(f"bad encoder entry {ln!r}")
        try:
            p, v, col = (int(t) for t in toks)
        except ValueError:
            raise FormatError(f"non-integer encoder entry {ln!r}") from None
        if not 0 <= p < num_user_meta + num_res_meta:
            raise FormatError(f"encoder entry {ln!r} names no metadata position")
        per_pos.setdefault(p, []).append((col, v))
    seen = []
    for p in range(num_user_meta + num_res_meta):
        entries = sorted(per_pos.get(p, []))
        if [c for c, _ in entries] != list(range(len(entries))):
            raise FormatError(f"encoder file has gaps in columns for position {p}")
        seen.append(tuple(v for _, v in entries))
    try:
        return Encoder(scheme, num_user_meta, num_res_meta, tuple(seen))
    except ConfigError as exc:
        raise FormatError(f"bad encoder file: {exc}") from None
