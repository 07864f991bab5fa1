"""Authorization-tuple datasets: synthesis, file format, projection, splitting.

A dataset is a list of (user, resource) records, each carrying the raw
categorical metadata of both sides and a per-operation grant/deny bit
vector.  Synthesis starts from conjunctive rules; ground-truth labels are
always computed against the FULL metadata, while `project_visible` later
hides trailing metadata columns from the learner.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, FormatError, IngestError, SynthesisError
from .rng import SplitMix64, derive_seed

_RULES_TAG = 1
_ENTITIES_TAG = 2
_TUPLES_TAG = 3

MIN_VALUE_SET = 6
MAX_VALUE_SET = 20


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
        if min(self.num_users, self.num_resources, self.num_rules) < 1:
            raise ConfigError("entity and rule counts must be positive")
        if self.num_ops < 1:
            raise ConfigError("num_ops must be >= 1")
        if self.num_user_meta < 1 or self.num_res_meta < 1:
            raise ConfigError("metadata counts must be positive")
        if self.visible_user_meta > self.num_user_meta:
            raise ConfigError("visible_user_meta exceeds num_user_meta")
        if self.visible_res_meta > self.num_res_meta:
            raise ConfigError("visible_res_meta exceeds num_res_meta")
        if self.visible_user_meta < 1 or self.visible_res_meta < 1:
            raise ConfigError("visible metadata counts must be positive")
        if not 0.0 <= self.constraint_prob <= 1.0:
            raise ConfigError("constraint_prob must be in [0, 1]")
        if self.neg_ratio < 0.0:
            raise ConfigError("neg_ratio must be non-negative")
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
        if any(s < MIN_VALUE_SET or s > MAX_VALUE_SET for s in sizes):
            raise ConfigError(
                f"every value set size must be in [{MIN_VALUE_SET}, {MAX_VALUE_SET}]"
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
class Entity:
    id: int
    meta: tuple[int, ...]


@dataclass(frozen=True)
class AuthorizationTuple:
    uid: int
    rid: int
    umeta: tuple[int, ...]
    rmeta: tuple[int, ...]
    ops: tuple[int, ...]


@dataclass(frozen=True)
class Dataset:
    num_user_meta: int
    num_res_meta: int
    num_ops: int
    tuples: tuple[AuthorizationTuple, ...]

    def __post_init__(self):
        for t in self.tuples:
            if (
                len(t.umeta) != self.num_user_meta
                or len(t.rmeta) != self.num_res_meta
                or len(t.ops) != self.num_ops
            ):
                raise FormatError(
                    f"tuple ({t.uid}, {t.rid}) is inconsistent with the header"
                )

    def __len__(self) -> int:
        return len(self.tuples)

    def umeta_matrix(self) -> np.ndarray:
        return np.array([t.umeta for t in self.tuples], dtype=np.int64).reshape(
            len(self.tuples), self.num_user_meta
        )

    def rmeta_matrix(self) -> np.ndarray:
        return np.array([t.rmeta for t in self.tuples], dtype=np.int64).reshape(
            len(self.tuples), self.num_res_meta
        )

    def labels_matrix(self) -> np.ndarray:
        return np.array([t.ops for t in self.tuples], dtype=np.int64).reshape(
            len(self.tuples), self.num_ops
        )


def metadata_names(num_user_meta: int, num_res_meta: int) -> list[str]:
    """Column names, user metadata first: umeta0.. then rmeta0.. ."""
    return [f"umeta{i}" for i in range(num_user_meta)] + [
        f"rmeta{j}" for j in range(num_res_meta)
    ]


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _sample_value(rng: SplitMix64, size: int, distribution: str) -> int:
    if distribution == "uniform":
        return rng.randint(size)
    # zipf with exponent 1: P(v) proportional to 1/(v+1)
    weights = [1.0 / (v + 1) for v in range(size)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for v, w in enumerate(weights):
        acc += w
        if u < acc:
            return v
    return size - 1


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


def _force_condition(
    rng: SplitMix64, meta: list[int], cond: tuple[int, tuple[int, ...]], size: int, rule_no: int
) -> None:
    index, values = cond
    feasible = [v for v in values if 0 <= v < size]
    if not feasible:
        raise SynthesisError(
            f"rule {rule_no}: no admissible value for metadata index {index}"
        )
    meta[index] = rng.choice(feasible)


def generate_entities(
    rules: list[Rule], config: SynthConfig
) -> tuple[list[Entity], list[Entity]]:
    """Create users and resources with per-position restricted values.

    Entity k (k < num_rules) is forced to satisfy rule k, so every rule has
    at least one satisfying user and, for each resource created for a rule,
    a user matching its constraint value.  Remaining entities draw all
    metadata from the configured distribution.
    """
    if not rules:
        raise SynthesisError("no rules to generate entities from")
    rng = SplitMix64(derive_seed(config.seed, _ENTITIES_TAG))
    users: list[Entity] = []
    for uid in range(config.num_users):
        meta = [
            _sample_value(rng, config.user_sizes[i], config.value_distribution)
            for i in range(config.num_user_meta)
        ]
        if uid < len(rules):
            rule = rules[uid]
            for cond in rule.uae:
                _force_condition(rng, meta, cond, config.user_sizes[cond[0]], uid)
            for cu, cr in rule.constraints:
                # keep the value inside both domains so the forced resource
                # below can mirror it
                meta[cu] = rng.randint(
                    min(config.user_sizes[cu], config.res_sizes[cr])
                )
        users.append(Entity(uid, tuple(meta)))

    resources: list[Entity] = []
    for rid in range(config.num_resources):
        meta = [
            _sample_value(rng, config.res_sizes[j], config.value_distribution)
            for j in range(config.num_res_meta)
        ]
        if rid < len(rules):
            rule = rules[rid]
            for cond in rule.rae:
                _force_condition(rng, meta, cond, config.res_sizes[cond[0]], rid)
            for cu, cr in rule.constraints:
                meta[cr] = users[rid].meta[cu]
        resources.append(Entity(rid, tuple(meta)))
    return users, resources


def evaluate_rule(rule: Rule, user: Entity, resource: Entity) -> set[int]:
    """Operations the rule grants to (user, resource); empty if unsatisfied.

    Evaluation uses full metadata, hidden positions included.
    """
    for index, values in rule.uae:
        if user.meta[index] not in values:
            return set()
    for index, values in rule.rae:
        if resource.meta[index] not in values:
            return set()
    for cu, cr in rule.constraints:
        if user.meta[cu] != resource.meta[cr]:
            return set()
    return set(rule.ops)


def generate_tuples(
    rules: list[Rule],
    users: list[Entity],
    resources: list[Entity],
    config: SynthConfig,
) -> Dataset:
    """Materialize the authorization tuples implied by the rules.

    One tuple per pair granted at least one operation (ops = union over all
    satisfied rules) plus round(neg_ratio * positives) all-deny pairs sampled
    uniformly from the remaining pairs.
    """
    U = np.array([u.meta for u in users], dtype=np.int64)
    R = np.array([r.meta for r in resources], dtype=np.int64)
    n_res = len(resources)

    grants: dict[int, int] = {}  # user_idx * n_res + res_idx -> op bitmask
    for rule in rules:
        mu = np.ones(len(users), dtype=bool)
        for index, values in rule.uae:
            mu &= np.isin(U[:, index], np.array(values, dtype=np.int64))
        mr = np.ones(n_res, dtype=bool)
        for index, values in rule.rae:
            mr &= np.isin(R[:, index], np.array(values, dtype=np.int64))
        u_idx = np.flatnonzero(mu)
        r_idx = np.flatnonzero(mr)
        if u_idx.size == 0 or r_idx.size == 0:
            continue
        mask = 0
        for op in rule.ops:
            mask |= 1 << op
        for ui, ri in _rule_pairs(rule, U, R, u_idx, r_idx):
            key = int(ui) * n_res + int(ri)
            grants[key] = grants.get(key, 0) | mask

    rng = SplitMix64(derive_seed(config.seed, _TUPLES_TAG))
    n_neg = int(round(config.neg_ratio * len(grants)))
    negatives: set[int] = set()
    total_pairs = len(users) * n_res
    attempts = 0
    while len(negatives) < n_neg and attempts < 100 * max(n_neg, 1):
        key = rng.randint(total_pairs)
        attempts += 1
        if key not in grants and key not in negatives:
            negatives.add(key)

    records = []
    for key, mask in grants.items():
        records.append((key, mask))
    for key in negatives:
        records.append((key, 0))

    tuples = []
    for key, mask in records:
        ui, ri = divmod(key, n_res)
        ops = tuple((mask >> op) & 1 for op in range(config.num_ops))
        tuples.append(
            AuthorizationTuple(
                uid=users[ui].id,
                rid=resources[ri].id,
                umeta=users[ui].meta,
                rmeta=resources[ri].meta,
                ops=ops,
            )
        )
    tuples.sort(key=lambda t: (t.uid, t.rid))
    return Dataset(
        num_user_meta=config.num_user_meta,
        num_res_meta=config.num_res_meta,
        num_ops=config.num_ops,
        tuples=tuple(tuples),
    )


def _rule_pairs(rule, U, R, u_idx, r_idx):
    """(user_idx, res_idx) pairs satisfying the rule's constraints."""
    if not rule.constraints:
        for ui in u_idx:
            for ri in r_idx:
                yield ui, ri
        return
    cu, cr = rule.constraints[0]
    shared = np.intersect1d(U[u_idx, cu], R[r_idx, cr])
    for v in shared:
        us = u_idx[U[u_idx, cu] == v]
        rs = r_idx[R[r_idx, cr] == v]
        for ui in us:
            for ri in rs:
                if all(U[ui, a] == R[ri, b] for a, b in rule.constraints[1:]):
                    yield ui, ri


def synthesize(config: SynthConfig):
    """Full pipeline: rules -> entities -> dataset.

    Returns (dataset, rules, users, resources).
    """
    rules = generate_rules(config)
    users, resources = generate_entities(rules, config)
    dataset = generate_tuples(rules, users, resources, config)
    return dataset, rules, users, resources


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "dlbac-ds v1"


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical text form: header line then tuples sorted by (uid, rid)."""
    lines = [
        f"{_HEADER_PREFIX} {dataset.num_user_meta} {dataset.num_res_meta} {dataset.num_ops}"
    ]
    for t in sorted(dataset.tuples, key=lambda t: (t.uid, t.rid)):
        lines.append(
            f"{t.uid} {t.rid} | "
            + " ".join(str(v) for v in t.umeta)
            + " | "
            + " ".join(str(v) for v in t.rmeta)
            + " | "
            + " ".join(str(v) for v in t.ops)
        )
    return "\n".join(lines) + "\n"


def _parse_ints(part: str, lineno: int) -> list[int]:
    out = []
    for tok in part.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer token {tok!r}") from None
    return out


def parse_dataset(text: str) -> Dataset:
    lines = text.splitlines()
    header = None
    header_line = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            header = line.strip()
            header_line = lineno
            break
    if header is None:
        raise FormatError("empty dataset file")
    parts = header.split()
    if parts[:2] != ["dlbac-ds", "v1"] or len(parts) != 5:
        raise FormatError(f"line {header_line}: bad header {header!r}")
    try:
        num_user_meta, num_res_meta, num_ops = (int(p) for p in parts[2:])
    except ValueError:
        raise FormatError(f"line {header_line}: non-integer header field") from None

    tuples = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines, start=1):
        if lineno <= header_line or not line.strip():
            continue
        sections = [s.strip() for s in line.split("|")]
        if len(sections) != 4:
            raise FormatError(f"line {lineno}: expected 4 '|'-separated sections")
        ids = _parse_ints(sections[0], lineno)
        umeta = _parse_ints(sections[1], lineno)
        rmeta = _parse_ints(sections[2], lineno)
        ops = _parse_ints(sections[3], lineno)
        if len(ids) != 2:
            raise FormatError(f"line {lineno}: expected '<uid> <rid>'")
        if len(umeta) != num_user_meta or len(rmeta) != num_res_meta or len(ops) != num_ops:
            raise FormatError(f"line {lineno}: dimension mismatch with header")
        if any(o not in (0, 1) for o in ops):
            raise FormatError(f"line {lineno}: operation bits must be 0 or 1")
        key = (ids[0], ids[1])
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate (uid, rid) pair {key}")
        seen.add(key)
        tuples.append(
            AuthorizationTuple(ids[0], ids[1], tuple(umeta), tuple(rmeta), tuple(ops))
        )
    return Dataset(num_user_meta, num_res_meta, num_ops, tuple(tuples))


# ---------------------------------------------------------------------------
# projection and splitting
# ---------------------------------------------------------------------------


def project_visible(
    dataset: Dataset, visible_user_meta: int, visible_res_meta: int
) -> Dataset:
    """Keep only the first visible_* metadata of each side; labels unchanged."""
    if visible_user_meta > dataset.num_user_meta:
        raise ConfigError("visible_user_meta exceeds dataset user metadata count")
    if visible_res_meta > dataset.num_res_meta:
        raise ConfigError("visible_res_meta exceeds dataset resource metadata count")
    tuples = tuple(
        replace(t, umeta=t.umeta[:visible_user_meta], rmeta=t.rmeta[:visible_res_meta])
        for t in dataset.tuples
    )
    return Dataset(visible_user_meta, visible_res_meta, dataset.num_ops, tuples)


def split_dataset(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Disjoint train/test partition; |test| = round(test_fraction * N)."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be strictly between 0 and 1")
    n = len(dataset.tuples)
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    n_test = int(test_fraction * n + 0.5)
    test_idx = sorted(order[:n_test])
    train_idx = sorted(order[n_test:])
    mk = lambda idx: Dataset(
        dataset.num_user_meta,
        dataset.num_res_meta,
        dataset.num_ops,
        tuple(dataset.tuples[i] for i in idx),
    )
    return mk(train_idx), mk(test_idx)


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
        return int(raw)
    except ValueError:
        raise IngestError(
            f"row {row_no}: non-categorical cell {raw!r} in column {col!r}"
        ) from None


def ingest_csv(text: str, schema: CsvSchema) -> Dataset:
    """Build a Dataset from an RFC-4180 CSV with a header row."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise IngestError("missing CSV header row")
    needed = (
        set(schema.user_meta_cols)
        | set(schema.res_meta_cols)
        | {schema.resource_id_col}
        | set(schema.label_cols)
    )
    missing = needed - set(reader.fieldnames)
    if missing:
        raise IngestError(f"missing column(s): {', '.join(sorted(missing))}")

    uid_of: dict[tuple[int, ...], int] = {}
    records: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], int]] = {}
    for row_no, row in enumerate(reader, start=2):  # header is row 1
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
        uid = uid_of.setdefault(umeta, len(uid_of))
        key = (uid, rid)
        if key in records:
            prev_labels, _prev_rmeta, prev_row = records[key]
            if prev_labels != tuple(labels):
                raise IngestError(
                    f"rows {prev_row} and {row_no}: duplicate (user, resource) "
                    "with conflicting labels"
                )
            continue
        records[key] = (tuple(labels), rmeta, row_no)

    tuples = []
    inv_uid = {}
    for umeta, uid in uid_of.items():
        inv_uid[uid] = umeta
    for (uid, rid), (labels, rmeta, _row) in sorted(records.items()):
        tuples.append(AuthorizationTuple(uid, rid, inv_uid[uid], rmeta, labels))
    num_res_meta = len(schema.res_meta_cols) if schema.res_meta_cols else 1
    return Dataset(
        num_user_meta=len(schema.user_meta_cols),
        num_res_meta=num_res_meta,
        num_ops=len(schema.label_cols),
        tuples=tuple(tuples),
    )
