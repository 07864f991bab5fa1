"""Authorization-tuple datasets: synthesis, file format, projection, splitting.

A dataset is three read-only int64 columns: (uid, rid) pairs, their raw
categorical metadata (user positions, then resource positions) and one
grant/deny bit per operation.  Every stage reads and writes these columns;
the file parser and CSV ingestion reject values outside int64.
`Dataset.tuples` is a view of the rows as `AuthorizationTuple`s of Python
ints, built on first access, that no stage of the pipeline reads.

Synthesis starts from conjunctive rules; ground-truth labels are always
computed against the FULL metadata, while `project_visible` later hides
trailing metadata columns from the learner.  Each stage reads its own
SplitMix64 sub-stream.  Rules are drawn one call at a time; entity
metadata and negative pairs come from blocks of draws (`SplitMix64.block`),
indexed so that every value is the one a draw-at-a-time loop would give:
each entity takes a known number of draws, and negatives are the first new
keys in draw order.  The split's permutation reads its swaps from one block.
"""

from __future__ import annotations

import array
import csv
import functools
import io
import itertools
import math
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, IngestError, SynthesisError, is_real, is_whole
from .rng import SplitMix64, derive_seed

_RULES_TAG = 1
_ENTITIES_TAG = 2
_TUPLES_TAG = 3

MIN_VALUE_SET = 6
MAX_VALUE_SET = 20
_MAX_COUNT = 2**31 - 1  # metadata or operation count a dataset accepts


@dataclass(frozen=True)
class SynthConfig:
    num_users: int
    num_resources: int
    num_user_meta: int
    num_res_meta: int
    num_rules: int
    num_ops: int = 4
    value_set_sizes: tuple[int, ...] | None = None
    visible_user_meta: int = 8
    visible_res_meta: int = 8
    constraint_prob: float = 0.5
    seed: int = 0
    neg_ratio: float = 0.3
    value_distribution: str = "uniform"  # or "zipf" (exponent 1 skew)

    def __post_init__(self):
        if not all(is_whole(v, 1) for v in (self.num_users, self.num_resources, self.num_rules)):
            raise ConfigError("entity and rule counts must be positive whole numbers")
        if not is_whole(self.num_ops, 1):
            raise ConfigError("num_ops must be a whole number >= 1")
        if not (is_whole(self.num_user_meta, 1) and is_whole(self.num_res_meta, 1)):
            raise ConfigError("metadata counts must be positive whole numbers")
        if not (is_whole(self.visible_user_meta, 1) and is_whole(self.visible_res_meta, 1)):
            raise ConfigError("visible metadata counts must be positive whole numbers")
        if self.visible_user_meta > self.num_user_meta:
            raise ConfigError("visible_user_meta exceeds num_user_meta")
        if self.visible_res_meta > self.num_res_meta:
            raise ConfigError("visible_res_meta exceeds num_res_meta")
        if not is_whole(self.seed):
            raise ConfigError(f"seed must be a whole number, not {self.seed!r}")
        if not (is_real(self.constraint_prob) and 0.0 <= self.constraint_prob <= 1.0):
            raise ConfigError("constraint_prob must be in [0, 1]")
        if not (is_real(self.neg_ratio) and 0.0 <= self.neg_ratio < math.inf):  # also false for nan
            raise ConfigError("neg_ratio must be finite and non-negative")
        if self.value_distribution not in ("uniform", "zipf"):
            raise ConfigError("value_distribution must be 'uniform' or 'zipf'")
        if self.num_users < self.num_rules or self.num_resources < self.num_rules:
            raise ConfigError("need at least one user and resource per rule")
        sizes = self.value_set_sizes
        if sizes is None:
            sizes = (10,) * (self.num_user_meta + self.num_res_meta)
            object.__setattr__(self, "value_set_sizes", sizes)
        else:
            object.__setattr__(self, "value_set_sizes", tuple(sizes))
            sizes = self.value_set_sizes
        if len(sizes) != self.num_user_meta + self.num_res_meta:
            raise ConfigError(
                "value_set_sizes must cover user then resource metadata "
                f"({self.num_user_meta + self.num_res_meta} entries)"
            )
        if not all(is_whole(s, MIN_VALUE_SET) and s <= MAX_VALUE_SET for s in sizes):
            raise ConfigError(
                f"every value set size must be a whole number in [{MIN_VALUE_SET}, {MAX_VALUE_SET}]"
            )

    @property
    def user_sizes(self) -> tuple[int, ...]:
        return self.value_set_sizes[: self.num_user_meta]

    @property
    def res_sizes(self) -> tuple[int, ...]:
        return self.value_set_sizes[self.num_user_meta :]


@dataclass(frozen=True)
class Rule:
    """Conjunctive grant rule: UAE and RAE conditions, operations, constraints.

    A condition (index, values) is satisfied when the entity's metadata at
    that index is one of `values` (the generator emits singletons).  A
    constraint (user_index, res_index) requires equal values on both sides
    and may only reference visible metadata positions.
    """

    uae: tuple[tuple[int, tuple[int, ...]], ...]
    rae: tuple[tuple[int, tuple[int, ...]], ...]
    ops: frozenset[int]
    constraints: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not self.ops:
            raise ConfigError("rule must grant at least one operation")


@dataclass(frozen=True)
class AuthorizationTuple:
    uid: int
    rid: int
    umeta: tuple[int, ...]
    rmeta: tuple[int, ...]
    ops: tuple[int, ...]


class Dataset:
    """Read-only int64 columns `ids` (n x 2), `M` (n x (nu + nr)), `Y` (n x num_ops)."""

    _FIELDS = ("num_user_meta", "num_res_meta", "num_ops", "ids", "M", "Y")

    def __init__(self, num_user_meta: int, num_res_meta: int, num_ops: int, tuples):
        ids, meta, ops = (array.array("q") for _ in range(3))  # int64: a float or larger int raises
        seen = set()
        for t in tuples:
            if (len(t.umeta), len(t.rmeta), len(t.ops)) != (num_user_meta, num_res_meta, num_ops):
                raise FormatError(f"tuple ({t.uid}, {t.rid}) is inconsistent with the header")
            if not {0, 1}.issuperset(t.ops):
                raise FormatError(f"tuple ({t.uid}, {t.rid}): operation bits must be 0 or 1")
            try:
                ids.fromlist([t.uid, t.rid])
                meta.fromlist([*t.umeta, *t.rmeta])
                ops.fromlist(list(t.ops))
            except TypeError:
                raise FormatError(f"tuple ({t.uid}, {t.rid}) holds a non-integer value") from None
            except OverflowError:
                raise FormatError(f"tuple ({t.uid}, {t.rid}) holds a value outside int64") from None
            if (t.uid, t.rid) in seen:
                raise FormatError(f"duplicate (uid, rid) pair ({t.uid}, {t.rid})")
            seen.add((t.uid, t.rid))
        ids = np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)
        columns = Dataset._of(num_user_meta, num_res_meta, num_ops, ids, meta, ops)
        self.__dict__.update(vars(columns))

    @classmethod
    def _of(cls, num_user_meta: int, num_res_meta: int, num_ops: int, ids, M, Y) -> Dataset:
        """A dataset over these columns, each made a read-only int64 array."""
        counts = (num_user_meta, num_res_meta, num_ops)
        if not all(0 <= c <= _MAX_COUNT for c in counts):
            raise FormatError(f"counts {counts} must lie in [0, {_MAX_COUNT}]")
        dataset = cls.__new__(cls)
        dataset.num_user_meta, dataset.num_res_meta, dataset.num_ops = counts
        widths = (2, num_user_meta + num_res_meta, num_ops)
        for name, a, k in zip(("ids", "M", "Y"), (ids, M, Y), widths):
            a = np.ascontiguousarray(a, dtype=np.int64).reshape(len(ids), k)
            a.flags.writeable = False
            setattr(dataset, name, a)
        return dataset

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self._FIELDS)

    @functools.cached_property
    def tuples(self) -> tuple[AuthorizationTuple, ...]:
        """The rows as `AuthorizationTuple`s of Python ints, built on first access."""
        nu, rows = self.num_user_meta, (a.tolist() for a in (self.ids, self.M, self.Y))
        return tuple(
            AuthorizationTuple(uid, rid, tuple(meta[:nu]), tuple(meta[nu:]), tuple(ops))
            for (uid, rid), meta, ops in zip(*rows)
        )


def metadata_names(num_user_meta: int, num_res_meta: int) -> list[str]:
    """Column names, user metadata first: umeta0.. then rmeta0.. ."""
    return [f"umeta{i}" for i in range(num_user_meta)] + [
        f"rmeta{j}" for j in range(num_res_meta)
    ]


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def generate_rules(config: SynthConfig) -> list[Rule]:
    """Draw `num_rules` conjunctive rules.

    Each rule carries 1-3 UAE and 1-3 RAE equality conditions (over any
    metadata position, hidden included), a non-empty operation set, and with
    probability `constraint_prob` one equality constraint over visible
    positions not already conditioned by the rule.
    """
    rng = SplitMix64(derive_seed(config.seed, _RULES_TAG))
    rules: list[Rule] = []
    for rule_no in range(config.num_rules):
        for _ in range(100):
            rule = _draw_rule(rng, config)
            if rule is not None:
                rules.append(rule)
                break
        else:
            raise SynthesisError(f"could not satisfy constraints for rule {rule_no}")
    return rules


def _draw_rule(rng: SplitMix64, config: SynthConfig) -> Rule | None:
    n_uae = min(1 + rng.randint(3), config.num_user_meta)
    n_rae = min(1 + rng.randint(3), config.num_res_meta)
    uae_idx = rng.sample_indices(config.num_user_meta, n_uae)
    rae_idx = rng.sample_indices(config.num_res_meta, n_rae)
    uae = tuple((i, (rng.randint(config.user_sizes[i]),)) for i in uae_idx)
    rae = tuple((j, (rng.randint(config.res_sizes[j]),)) for j in rae_idx)
    n_ops = 1 + rng.randint(config.num_ops)
    ops = frozenset(rng.sample_indices(config.num_ops, n_ops))
    constraints: tuple[tuple[int, int], ...] = ()
    if rng.random() < config.constraint_prob:
        u_free = [i for i in range(config.visible_user_meta) if i not in uae_idx]
        r_free = [j for j in range(config.visible_res_meta) if j not in rae_idx]
        if not u_free or not r_free:
            return None  # retry with a fresh draw
        constraints = ((rng.choice(u_free), rng.choice(r_free)),)
    return Rule(uae=uae, rae=rae, ops=ops, constraints=constraints)


def _values(draws: np.ndarray, sizes: tuple[int, ...], distribution: str) -> np.ndarray:
    """Metadata values from one draw each; column i ranges over range(sizes[i])."""
    if distribution == "uniform":
        return (draws % np.array(sizes, dtype=np.uint64)).astype(np.int64)
    # zipf with exponent 1: P(v) proportional to 1/(v+1).  A draw's value is
    # the first v whose running weight exceeds random() * total, with the
    # running weights and the total summed as Python floats
    u = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53
    values = np.empty(draws.shape, dtype=np.int64)
    for i, size in enumerate(sizes):
        weights = [1.0 / (v + 1) for v in range(size)]
        bounds = np.array(list(itertools.accumulate(weights)))
        found = np.searchsorted(bounds, u[:, i] * sum(weights), side="right")
        values[:, i] = np.minimum(found, size - 1)
    return values


def _options(rule_no: int, cond: tuple[int, tuple[int, ...]], size: int) -> tuple[int, list[int]]:
    """(index, admissible values) of a condition forced on rule `rule_no`'s entity."""
    index, values = cond
    feasible = [v for v in values if 0 <= v < size]
    if not feasible:
        raise SynthesisError(
            f"rule {rule_no}: no admissible value for metadata index {index}"
        )
    return index, feasible


def _draw_side(
    rng: SplitMix64, n: int, sizes: tuple[int, ...], distribution: str,
    forced: list[list[tuple[int, Sequence[int]]]],
) -> np.ndarray:
    """n entities as a writable int64 matrix, read from one block of draws.

    Entity k takes one draw per position, then, when k < len(forced), one
    draw per (index, options) in forced[k], in order: that position becomes
    options[draw % len(options)].
    """
    width = len(sizes)
    extra = np.zeros(n, dtype=np.int64)
    extra[: len(forced)] = [len(f) for f in forced]
    start = np.arange(n, dtype=np.int64) * width + np.cumsum(extra) - extra
    draws = rng.block(n * width + int(extra.sum()))
    M = _values(draws[start[:, None] + np.arange(width)], sizes, distribution)
    for k, patches in enumerate(forced):
        first = int(start[k]) + width
        for (index, options), draw in zip(patches, draws[first : first + len(patches)].tolist()):
            M[k, index] = options[draw % len(options)]
    return M


def generate_entities(rules: list[Rule], config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Users and resources as read-only int64 matrices; row k is entity k.

    Entity k (k < num_rules) is forced to satisfy rule k, so every rule has
    at least one satisfying user and, for each resource created for a rule,
    a user matching its constraint value.  Remaining entities draw all
    metadata from the configured distribution.  All users take one block
    of draws, then all resources the next (see `_draw_side`).
    """
    if not rules:
        raise SynthesisError("no rules to generate entities from")
    us, rs = config.user_sizes, config.res_sizes
    # a constraint's user value stays inside both domains so that the
    # forced resource below can mirror it
    user_forced = [
        [_options(k, cond, us[cond[0]]) for cond in rule.uae]
        + [(cu, range(min(us[cu], rs[cr]))) for cu, cr in rule.constraints]
        for k, rule in enumerate(rules[: config.num_users])
    ]
    res_forced = [
        [_options(k, cond, rs[cond[0]]) for cond in rule.rae]
        for k, rule in enumerate(rules[: config.num_resources])
    ]
    rng = SplitMix64(derive_seed(config.seed, _ENTITIES_TAG))
    dist = config.value_distribution
    U = _draw_side(rng, config.num_users, us, dist, user_forced)
    R = _draw_side(rng, config.num_resources, rs, dist, res_forced)
    for k, rule in enumerate(rules[: config.num_resources]):
        for cu, cr in rule.constraints:
            R[k, cr] = U[k, cu]
    U.flags.writeable = R.flags.writeable = False
    return U, R


def _matching(M: np.ndarray, conditions) -> np.ndarray:
    """Row indices of M whose value at each condition's column is among its values."""
    mask = np.ones(len(M), dtype=bool)
    for index, values in conditions:
        mask &= (M[:, index, None] == np.array(values, dtype=np.int64)).any(axis=1)
    return np.flatnonzero(mask)


_MAX_BLOCK = 1 << 20  # draws per block of negative sampling: 8 MiB of uint64


def _negatives(rng: SplitMix64, taken: np.ndarray, n_neg: int, total_pairs: int) -> np.ndarray:
    """Keys of up to n_neg pairs outside the distinct keys `taken`, in draw order.

    Each draw is a key `next_u64() % total_pairs`.  The first n_neg keys not
    taken and not drawn before are kept, or every free key once all are
    drawn, out of at most 100 * max(n_neg, 1) draws.  The draws come in
    blocks, sized from the expected number of draws still needed; the keys
    kept are those that one draw at a time would keep.
    """
    need = min(n_neg, total_pairs - len(taken))
    budget = 100 * max(n_neg, 1)
    picked = [np.empty(0, dtype=np.int64)]
    while need > 0 and budget > 0:
        free = total_pairs - len(taken)
        k = min(budget, _MAX_BLOCK, need * total_pairs // free + need // 4 + 64)
        budget -= k
        drawn = (rng.block(k) % np.uint64(total_pairs)).astype(np.int64)
        keys, first = np.unique(drawn, return_index=True)
        fresh = ~np.isin(keys, taken, assume_unique=True)
        new = drawn[np.sort(first[fresh])[:need]]
        picked.append(new)
        need -= len(new)
        taken = np.concatenate((taken, new))
    return np.concatenate(picked)


def generate_tuples(
    rules: list[Rule], U: np.ndarray, R: np.ndarray, config: SynthConfig
) -> Dataset:
    """Materialize the authorization tuples implied by the rules.

    Row k of the user matrix U is user k, and row k of R is resource k.
    One tuple per pair granted at least one operation (ops = union over all
    satisfied rules) plus round(neg_ratio * positives) all-deny pairs sampled
    uniformly from the remaining pairs, or every remaining pair when there
    are fewer.  A rule's grants are the true cells of one boolean matrix over
    the users x resources its conditions match, one AND per constraint; a
    pair's op bitmask is the OR over the rules that grant it.  Tuples come
    sorted by (uid, rid).
    """
    U, R = np.asarray(U), np.asarray(R)
    for side, M, width in (("user", U, config.num_user_meta), ("resource", R, config.num_res_meta)):
        if M.ndim != 2 or M.shape[1] != width or M.dtype.kind != "i":
            raise ConfigError(f"{side} matrix must be signed integers in {width} columns")
    n_res = len(R)

    dtype = np.int64 if config.num_ops < 63 else object  # op bitmasks past bit 62 stay Python ints
    keys, masks = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=dtype)]
    for rule in rules:  # a pair's key is user_idx * n_res + res_idx
        u_idx, r_idx = _matching(U, rule.uae), _matching(R, rule.rae)
        granted = np.ones((u_idx.size, r_idx.size), dtype=bool)
        for cu, cr in rule.constraints:
            granted &= U[u_idx, cu][:, None] == R[r_idx, cr][None, :]
        ui, ri = np.nonzero(granted)
        mask = sum(1 << op for op in rule.ops if op < config.num_ops)
        keys.append(u_idx[ui] * n_res + r_idx[ri])
        masks.append(np.full(ui.size, mask, dtype=dtype))
    keys, masks = np.concatenate(keys), np.concatenate(masks)
    order = np.argsort(keys)
    keys, masks = keys[order], masks[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each pair's run of rules starts
    keys, masks = keys[first], np.bitwise_or.reduceat(masks, first)

    rng = SplitMix64(derive_seed(config.seed, _TUPLES_TAG))
    n_neg = int(round(config.neg_ratio * len(keys)))
    negatives = _negatives(rng, keys, n_neg, len(U) * n_res)
    keys = np.concatenate((keys, negatives))
    masks = np.concatenate((masks, np.zeros(negatives.size, dtype=dtype)))
    order = np.argsort(keys)  # by key, which is by (uid, rid)
    uids, rids = np.divmod(keys[order], n_res)  # an entity's id is its row
    bits = (masks[order, None] >> np.arange(config.num_ops)) & 1
    return Dataset._of(
        config.num_user_meta, config.num_res_meta, config.num_ops,
        np.column_stack((uids, rids)), np.hstack((U[uids], R[rids])), bits,
    )


def synthesize(config: SynthConfig):
    """Full pipeline: rules -> entities -> dataset.

    Returns (dataset, rules, U, R), where row k of U is user k and row k of
    R is resource k.
    """
    rules = generate_rules(config)
    U, R = generate_entities(rules, config)
    return generate_tuples(rules, U, R, config), rules, U, R


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "dlbac-ds v1"


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical text form: header line then tuples sorted by (uid, rid).

    A line is `str.format` of the template `"{} {} | {} ... | {}"`, one
    `{}` per column, written by numpy instead: the body is formatted in
    tiles of `_WRITE_TILE_ROWS` rows, each into one byte buffer.  The text
    after each column is the template's text between its `{}`s, so a
    section of width 0 keeps its bars (`1 2 |  |  | `).  A value's digits
    come from repeated `// 10` of its magnitude, in uint32 when the tile's
    largest magnitude fits, else in uint64.
    """
    nu, nr, no = dataset.num_user_meta, dataset.num_res_meta, dataset.num_ops
    after = " | ".join(" ".join(["{}"] * k) for k in (2, nu, nr, no)).split("{}")[1:]
    after[-1] += "\n"
    order = np.lexsort((dataset.ids[:, 1], dataset.ids[:, 0]))  # stable: by (uid, rid)
    parts = [f"{_HEADER_PREFIX} {nu} {nr} {no}\n".encode()]
    for at in range(0, len(order), _WRITE_TILE_ROWS):
        rows = order[at : at + _WRITE_TILE_ROWS]
        tile = np.hstack((dataset.ids[rows], dataset.M[rows], dataset.Y[rows]))
        parts.append(_lines(tile, after))
    body = b"".join(parts)
    parts.clear()  # the tiles' bytes go before the text is decoded
    return body.decode("ascii")


_WRITE_TILE_ROWS = 1024  # rows per numpy pass of the writer: temporaries of a few hundred KB


def _lines(rows: np.ndarray, after: list[str]) -> bytes:
    """ASCII lines of the int64 `rows`: each value in decimal, followed by after[column]."""
    negative = rows < 0
    u = rows.view(np.uint64)
    magnitude = np.where(negative, -u, u)  # two's complement, so -2**63 gives 2**63
    top = int(magnitude.max())
    if top < 2**32:
        magnitude = magnitude.astype(np.uint32)
    seps = np.array([len(s) for s in after])
    length = negative + seps + 1  # sign, separator and a first digit
    for p in range(1, len(str(top))):
        length += magnitude >= 10**p
    end = np.cumsum(length).reshape(length.shape)  # one past each cell's last byte
    out = np.full(end[-1, -1], ord(" "), dtype=np.uint8)
    for j, s in enumerate(after):
        for k, c in enumerate(s):
            if c != " ":
                out[end[:, j] - len(s) + k] = ord(c)
    out[(end - length)[negative]] = ord("-")
    at, magnitude = (end - seps - 1).ravel(), magnitude.ravel()  # each value's last digit
    while True:
        quotient = magnitude // 10
        out[at] = magnitude - quotient * 10 + ord("0")
        more = np.flatnonzero(quotient)
        if not more.size:
            return out.tobytes()
        at, magnitude = at[more] - 1, quotient[more]  # the digit before, where one is left


_PARSE_TILE_LINES = 1024  # body lines per numpy pass: temporaries of a few hundred KB
_TOKEN = re.compile(r"[+-]?[0-9]+")
_SPACED = re.compile(r"[^ \t]+")  # what separators delimit, to be matched against _TOKEN
_TOKEN_BYTE, _BLANK, _BAR, _EOL = 1, 2, 3, 4  # classes of the bytes a body may hold
_CLASS_OF = {
    **dict.fromkeys(b"+-0123456789", _TOKEN_BYTE), **dict.fromkeys(b" \t", _BLANK),
    ord("|"): _BAR, ord("\n"): _EOL,
}
_BYTE_CLASS = bytes(_CLASS_OF.get(b, 0) for b in range(256))  # a `bytes.translate` table
_LINE_MARKS = np.array([_BAR, _BAR, _BAR, _EOL], dtype=np.uint8)


def parse_dataset(text: str) -> Dataset:
    """Parse the text form: a header line, then one line per tuple.

    A body line is `<uid> <rid> | <user metadata> | <resource metadata> |
    <operation bits>`.  A token is an optional sign followed by ASCII digits
    and must fit int64; tokens are separated by spaces or tabs.  Blank lines
    are skipped.  The body is read in tiles of `_PARSE_TILE_LINES` lines,
    each checked with one pass over its bytes and converted with one
    `np.loadtxt`; a file that fails a check is read again one line at a
    time, to name its first bad line.
    """
    lines = text.splitlines()
    header_line = next((n for n, line in enumerate(lines, start=1) if line.strip()), 0)
    if not header_line:
        raise FormatError("empty dataset file")
    header = lines[header_line - 1].strip()
    parts = header.split()
    if parts[:2] != ["dlbac-ds", "v1"] or len(parts) != 5:
        raise FormatError(f"line {header_line}: bad header {header!r}")
    try:
        counts = tuple(int(p) for p in parts[2:])
    except ValueError:
        raise FormatError(f"line {header_line}: non-integer header field") from None
    if not all(0 <= c <= _MAX_COUNT for c in counts):
        raise FormatError(f"line {header_line}: header counts must lie in [0, {_MAX_COUNT}]")
    num_user_meta, num_res_meta, num_ops = counts

    body = [line for line in lines[header_line:] if line.strip()]
    widths, row_width = np.array((2, *counts)), 2 + sum(counts)  # tokens per section, per line
    if len(body) * row_width > len(text):  # each value takes a token and a separator
        raise _first_error(lines, header_line, counts)  # before allocating for the header's widths
    rows = np.empty((len(body), row_width), dtype=np.int64)
    for at in range(0, len(body), _PARSE_TILE_LINES):
        tile = "\n".join(body[at : at + _PARSE_TILE_LINES]) + "\n"
        if not _tile_follows_grammar(tile, widths):
            raise _first_error(lines, header_line, counts)
        try:
            with warnings.catch_warnings():
                # numpy 1.x reads an integer outside int64 through a float,
                # with a DeprecationWarning; as an error it fails the tile
                warnings.simplefilter("error", DeprecationWarning)
                rows[at : at + _PARSE_TILE_LINES] = np.loadtxt(
                    tile.replace("|", " ").splitlines(), dtype=np.int64, comments=None, ndmin=2
                )
        except (ValueError, DeprecationWarning):  # a value outside int64
            raise _first_error(lines, header_line, counts) from None

    ops = rows[:, rows.shape[1] - num_ops :]
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    pairs = rows[order, :2]
    if (ops.size and (ops.min() < 0 or ops.max() > 1)) or (pairs[1:] == pairs[:-1]).all(1).any():
        raise _first_error(lines, header_line, counts)
    return Dataset._of(*counts, *np.split(rows, [2, 2 + num_user_meta + num_res_meta], axis=1))


def _tile_follows_grammar(tile: str, widths: np.ndarray) -> bool:
    """Whether every '\\n'-ended line of `tile` holds `widths` tokens per section.

    Sections are separated by exactly three '|', tokens by spaces or tabs.
    """
    c = np.frombuffer(tile.encode("ascii", "replace").translate(_BYTE_CLASS), dtype=np.uint8)
    if not c.all():  # class 0: a byte outside the grammar, or '?' for a non-ASCII character
        return False
    token = c == _TOKEN_BYTE  # a sign out of place inside a token fails `np.loadtxt`
    first = token.copy()  # the first byte of each token
    first[1:] &= ~token[:-1]
    marks = np.flatnonzero(c >= _BAR)
    n = len(marks) // 4
    if len(marks) % 4 or not (c[marks].reshape(n, 4) == _LINE_MARKS).all():
        return False
    # tokens before each mark, so tokens per section between consecutive marks
    before = np.searchsorted(np.flatnonzero(first), marks)
    return bool((np.diff(before, prepend=0).reshape(n, 4) == widths).all())


def _first_error(lines: list[str], header_line: int, counts: tuple[int, int, int]) -> FormatError:
    """The error of the first bad body line, read one line at a time."""
    num_user_meta, num_res_meta, num_ops = counts
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines[header_line:], start=header_line + 1):
        if not line.strip():
            continue
        sections = line.split("|")
        if len(sections) != 4:
            return FormatError(f"line {lineno}: expected 4 '|'-separated sections")
        ids, umeta, rmeta, ops = map(_SPACED.findall, sections)
        tokens = ids + umeta + rmeta + ops
        bad = next((tok for tok in tokens if not _TOKEN.fullmatch(tok)), None)
        if bad is not None:
            return FormatError(f"line {lineno}: non-integer token {bad!r}")
        if len(ids) != 2:
            return FormatError(f"line {lineno}: expected '<uid> <rid>'")
        if len(umeta) != num_user_meta or len(rmeta) != num_res_meta or len(ops) != num_ops:
            return FormatError(f"line {lineno}: dimension mismatch with header")
        values = [int(tok) for tok in tokens]
        if not {0, 1}.issuperset(values[len(values) - num_ops :]):
            return FormatError(f"line {lineno}: operation bits must be 0 or 1")
        if not all(-(2**63) <= v < 2**63 for v in values):
            return FormatError(f"line {lineno}: value outside the int64 range")
        key = (values[0], values[1])
        if key in seen:
            return FormatError(f"line {lineno}: duplicate (uid, rid) pair {key}")
        seen.add(key)
    return FormatError("dataset body failed a check that no line fails")  # not expected


# ---------------------------------------------------------------------------
# projection and splitting
# ---------------------------------------------------------------------------


def project_visible(
    dataset: Dataset, visible_user_meta: int, visible_res_meta: int
) -> Dataset:
    """Keep only the first visible_* metadata of each side; labels unchanged."""
    if not (is_whole(visible_user_meta, 1) and is_whole(visible_res_meta, 1)):
        raise ConfigError("visible metadata counts must be positive whole numbers")
    if visible_user_meta > dataset.num_user_meta:
        raise ConfigError("visible_user_meta exceeds dataset user metadata count")
    if visible_res_meta > dataset.num_res_meta:
        raise ConfigError("visible_res_meta exceeds dataset resource metadata count")
    nu = dataset.num_user_meta
    kept = np.r_[:visible_user_meta, nu : nu + visible_res_meta]
    return Dataset._of(
        visible_user_meta, visible_res_meta, dataset.num_ops,
        dataset.ids, dataset.M[:, kept], dataset.Y,
    )


def split_dataset(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Disjoint train/test partition; |test| = round(test_fraction * N)."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be strictly between 0 and 1")
    if not is_whole(seed):
        raise ConfigError(f"split seed must be a whole number, not {seed!r}")
    n = len(dataset)
    order = SplitMix64(seed).permutation(n)
    n_test = int(test_fraction * n + 0.5)
    mk = lambda idx: Dataset._of(
        dataset.num_user_meta, dataset.num_res_meta, dataset.num_ops,
        dataset.ids[idx], dataset.M[idx], dataset.Y[idx],
    )
    return mk(np.sort(order[n_test:])), mk(np.sort(order[:n_test]))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    `user_meta_cols` identify a user (there is no separate user-id column;
    distinct metadata vectors get sequential synthetic uids).  When
    `res_meta_cols` is empty the resource id doubles as the single resource
    metadata column.
    """

    user_meta_cols: tuple[str, ...]
    resource_id_col: str
    label_cols: tuple[str, ...]
    res_meta_cols: tuple[str, ...] = ()


def _cell_int(row: dict, col: str, row_no: int) -> int:
    if row[col] is None:  # DictReader's fill for a row shorter than the header
        raise IngestError(f"row {row_no}: no cell in column {col!r}")
    raw = row[col].strip()
    try:
        value = int(raw)
    except ValueError:
        raise IngestError(
            f"row {row_no}: non-categorical cell {raw!r} in column {col!r}"
        ) from None
    if not -(2**63) <= value < 2**63:
        raise IngestError(f"row {row_no}: cell {raw!r} in column {col!r} outside the int64 range")
    return value


def _csv_rows(reader: csv.DictReader):
    """(row number, row) for each record after the header, which is row 1."""
    for row_no in itertools.count(2):
        try:
            row = next(reader, None)
        except csv.Error as exc:  # e.g. an oversized field or a bare carriage return
            raise IngestError(f"row {row_no}: {exc}") from None
        if row is None:
            return
        yield row_no, row


def ingest_csv(text: str, schema: CsvSchema) -> Dataset:
    """Build a Dataset from an RFC-4180 CSV with a header row."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        fieldnames = reader.fieldnames
    except csv.Error as exc:
        raise IngestError(f"row 1: {exc}") from None
    if fieldnames is None:
        raise IngestError("missing CSV header row")
    needed = (
        set(schema.user_meta_cols)
        | set(schema.res_meta_cols)
        | {schema.resource_id_col}
        | set(schema.label_cols)
    )
    missing = needed - set(fieldnames)
    if missing:
        raise IngestError(f"missing column(s): {', '.join(sorted(missing))}")

    uid_of: dict[tuple[int, ...], int] = {}
    rmeta_of: dict[int, tuple[tuple[int, ...], int]] = {}  # rid -> (rmeta, first row)
    records: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}  # -> (labels, row)
    for row_no, row in _csv_rows(reader):
        if None in row:  # DictReader's key for cells beyond the header
            raise IngestError(f"row {row_no}: more cells than header columns")
        umeta = tuple(_cell_int(row, c, row_no) for c in schema.user_meta_cols)
        rid = _cell_int(row, schema.resource_id_col, row_no)
        if schema.res_meta_cols:
            rmeta = tuple(_cell_int(row, c, row_no) for c in schema.res_meta_cols)
        else:
            rmeta = (rid,)
        labels = []
        for c in schema.label_cols:
            v = _cell_int(row, c, row_no)
            if v not in (0, 1):
                raise IngestError(f"row {row_no}: label {v} in column {c!r} not in {{0, 1}}")
            labels.append(v)
        prev_rmeta, prev_row = rmeta_of.setdefault(rid, (rmeta, row_no))
        if prev_rmeta != rmeta:
            raise IngestError(
                f"rows {prev_row} and {row_no}: resource {rid} with conflicting metadata"
            )
        uid = uid_of.setdefault(umeta, len(uid_of))
        prev_labels, prev_row = records.setdefault((uid, rid), (tuple(labels), row_no))
        if prev_labels != tuple(labels):
            raise IngestError(
                f"rows {prev_row} and {row_no}: duplicate (user, resource) "
                "with conflicting labels"
            )

    umeta_of = list(uid_of)  # uids count up from 0 in first-row order
    pairs = sorted(records)
    return Dataset._of(
        len(schema.user_meta_cols), len(schema.res_meta_cols) or 1, len(schema.label_cols), pairs,
        [umeta_of[uid] + rmeta_of[rid][0] for uid, rid in pairs],
        [records[pair][0] for pair in pairs],
    )
