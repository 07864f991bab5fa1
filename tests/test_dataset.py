import array
import hashlib
import random
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac import dataset
from dlbac.errors import ConfigError, FormatError, IngestError, SynthesisError
from dlbac.rng import derive_seed


def small_config(**overrides):
    base = dict(
        num_users=40,
        num_resources=40,
        num_user_meta=8,
        num_res_meta=8,
        num_rules=4,
        num_ops=4,
        seed=11,
    )
    base.update(overrides)
    return d.SynthConfig(**base)


class TestSynthConfig:
    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -0.5])
    def test_rejects_non_finite_or_negative_neg_ratio(self, ratio):
        with pytest.raises(ConfigError, match="neg_ratio"):
            small_config(neg_ratio=ratio)

    @pytest.mark.parametrize("field", ["constraint_prob", "neg_ratio"])
    @pytest.mark.parametrize("value", ["a", "0.5", None, True, False])
    def test_rejects_a_non_number_probability_or_ratio(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    def test_rejects_visible_over_total(self):
        with pytest.raises(ConfigError):
            small_config(num_user_meta=6, visible_user_meta=8)

    def test_rejects_out_of_range_value_sets(self):
        with pytest.raises(ConfigError):
            small_config(value_set_sizes=(5,) * 16)
        with pytest.raises(ConfigError):
            small_config(value_set_sizes=(21,) * 16)

    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            small_config(num_users=0)
        with pytest.raises(ConfigError):
            small_config(num_ops=0)


class TestGenerateRules:
    def test_deterministic(self):
        cfg = small_config(num_rules=5)
        assert d.generate_rules(cfg) == d.generate_rules(cfg)

    def test_constraint_prob_zero_means_no_constraints(self):
        rules = d.generate_rules(small_config(constraint_prob=0.0, num_rules=20))
        assert all(r.constraints == () for r in rules)

    def test_indices_stay_in_range_when_all_visible(self):
        cfg = small_config(num_rules=30, constraint_prob=1.0)
        for rule in d.generate_rules(cfg):
            for i, _ in rule.uae:
                assert 0 <= i < 8
            for j, _ in rule.rae:
                assert 0 <= j < 8
            for cu, cr in rule.constraints:
                assert cu < cfg.visible_user_meta and cr < cfg.visible_res_meta

    def test_shape_bounds(self):
        cfg = small_config(num_rules=40, num_users=40, num_resources=40)
        for rule in d.generate_rules(cfg):
            assert 1 <= len(rule.uae) <= 3
            assert 1 <= len(rule.rae) <= 3
            assert 1 <= len(rule.ops) <= 4

    def test_constraints_never_reference_hidden_metadata(self):
        cfg = small_config(
            num_user_meta=13, num_res_meta=13, num_rules=40, constraint_prob=1.0,
            value_set_sizes=(10,) * 26,
        )
        for rule in d.generate_rules(cfg):
            for cu, cr in rule.constraints:
                assert cu < 8 and cr < 8


class TestGenerateEntities:
    def test_forced_user_satisfies_uae(self):
        # the rule's designated user mirrors user(student1, title=student,
        # department=cs): every UAE condition holds on it
        cfg = small_config(num_rules=6, constraint_prob=1.0)
        rules = d.generate_rules(cfg)
        U, R = d.generate_entities(rules, cfg)
        for k, rule in enumerate(rules):
            for i, values in rule.uae:
                assert U[k, i] in values
            for j, values in rule.rae:
                assert R[k, j] in values
            for cu, cr in rule.constraints:
                assert U[k, cu] == R[k, cr]

    def test_values_respect_restricted_sets(self):
        cfg = small_config(value_set_sizes=(6,) * 16)
        rules = d.generate_rules(cfg)
        U, R = d.generate_entities(rules, cfg)
        assert (U >= 0).all() and (U < 6).all()
        assert (R >= 0).all() and (R < 6).all()

    def test_deterministic(self):
        cfg = small_config()
        rules = d.generate_rules(cfg)
        first, again = d.generate_entities(rules, cfg), d.generate_entities(rules, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_ids_unique_and_sequential(self):
        # an entity's id is its row: the dataset's metadata is that row's
        cfg = small_config()
        dset, _, U, R = d.synthesize(cfg)
        assert U.shape == (cfg.num_users, cfg.num_user_meta)
        assert R.shape == (cfg.num_resources, cfg.num_res_meta)
        assert np.array_equal(dset.M, np.hstack((U[dset.ids[:, 0]], R[dset.ids[:, 1]])))

    def test_matrices_are_read_only_int64(self):
        cfg = small_config()
        for M in d.generate_entities(d.generate_rules(cfg), cfg):
            assert M.dtype == np.int64 and M.flags.c_contiguous and not M.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 1


def evaluate_rule(rule: d.Rule, umeta, rmeta) -> set[int]:
    """Operations the rule grants to a (user, resource) metadata pair; empty if unsatisfied.

    The pairwise oracle for `generate_tuples`: one pair at a time, over full
    metadata, hidden positions included.
    """
    for index, values in rule.uae:
        if umeta[index] not in values:
            return set()
    for index, values in rule.rae:
        if rmeta[index] not in values:
            return set()
    for cu, cr in rule.constraints:
        if umeta[cu] != rmeta[cr]:
            return set()
    return set(rule.ops)


class TestEvaluateRule:
    # index 0 plays "title"/"type", index 1 plays "department"
    rule = d.Rule(
        uae=((0, (2,)),),  # title=student
        rae=((0, (5,)),),  # type=document
        ops=frozenset({0}),  # read
        constraints=((1, 1),),  # department=department
    )

    def test_satisfying_pair_gets_the_rule_ops(self):
        student = (2, 7, 0, 0, 0, 0, 0, 0)
        document = (5, 7, 0, 0, 0, 0, 0, 0)
        assert evaluate_rule(self.rule, student, document) == {0}

    def test_failed_uae_condition_denies(self):
        user = (3, 7, 0, 0, 0, 0, 0, 0)
        document = (5, 7, 0, 0, 0, 0, 0, 0)
        assert evaluate_rule(self.rule, user, document) == set()

    def test_unequal_constraint_denies(self):
        student = (2, 7, 0, 0, 0, 0, 0, 0)
        document = (5, 6, 0, 0, 0, 0, 0, 0)
        assert evaluate_rule(self.rule, student, document) == set()

    def test_hidden_metadata_participate(self):
        rule = d.Rule(uae=((7, (1,)),), rae=((0, (0,)),), ops=frozenset({1}))
        user_match = (0,) * 7 + (1,)
        user_miss = (0,) * 8
        res = (0,) * 8
        assert evaluate_rule(rule, user_match, res) == {1}
        assert evaluate_rule(rule, user_miss, res) == set()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    width=st.integers(1, 4),
    conditions=st.lists(
        st.tuples(st.integers(0, 3), st.lists(st.integers(-3, 3), max_size=5)), max_size=4
    ),
)
def test_rule_matching_equals_isin(seed, width, conditions):
    # conditions of 0, 1 and several values, over a column of few distinct values
    M = np.random.default_rng(seed).integers(-3, 4, (50, width))
    conditions = [(index % width, tuple(values)) for index, values in conditions]
    mask = np.ones(len(M), dtype=bool)
    for index, values in conditions:
        mask &= np.isin(M[:, index], np.array(values, dtype=np.int64))
    assert np.array_equal(dataset._matching(M, conditions), np.flatnonzero(mask))


class TestGenerateTuples:
    def test_ops_equal_union_of_rules_over_full_metadata(self):
        cfg = small_config(constraint_prob=1.0, neg_ratio=0.5)
        dset, rules, U, R = d.synthesize(cfg)
        for t in dset.tuples:
            granted = set()
            for rule in rules:
                granted |= evaluate_rule(rule, U[t.uid], R[t.rid])
            expected = tuple(1 if op in granted else 0 for op in range(cfg.num_ops))
            assert t.ops == expected

    def test_negative_tuples_are_all_deny(self):
        cfg = small_config(neg_ratio=1.0)
        dset, *_ = d.synthesize(cfg)
        negatives = [t for t in dset.tuples if all(o == 0 for o in t.ops)]
        positives = [t for t in dset.tuples if any(t.ops)]
        assert len(negatives) == round(cfg.neg_ratio * len(positives))

    def test_negatives_stop_once_every_free_pair_is_drawn(self, monkeypatch):
        # 36 pairs, 3 granted: 3e5 negatives wanted, 33 possible
        cfg = small_config(num_users=6, num_resources=6, num_rules=2, seed=1, neg_ratio=1e5)
        rules = d.generate_rules(cfg)
        U, R = d.generate_entities(rules, cfg)
        fewer = d.generate_tuples(rules, U, R, replace(cfg, neg_ratio=1e3))
        draws = []  # sizes of the blocks drawn
        block = d.SplitMix64.block
        monkeypatch.setattr(d.SplitMix64, "block", lambda rng, k: draws.append(k) or block(rng, k))
        dset = d.generate_tuples(rules, U, R, cfg)
        assert sum(not any(t.ops) for t in dset.tuples) == 33
        assert len(dset.tuples) == 36 and dset == fewer
        assert sum(draws) < 100 * 33

    @pytest.mark.parametrize("side", [0, 1], ids=["users", "resources"])
    def test_rejects_matrices_of_the_wrong_width(self, side):
        cfg = small_config()
        rules = d.generate_rules(cfg)
        matrices = list(d.generate_entities(rules, cfg))
        M = matrices[side]
        for wrong in (M[:, 1:], M[:, 0], M + 0.5, M.astype(np.uint64)):
            args = list(matrices)
            args[side] = wrong
            with pytest.raises(ConfigError, match=("user", "resource")[side] + " matrix"):
                d.generate_tuples(rules, *args, cfg)

    def test_no_duplicate_pairs(self):
        dset, *_ = d.synthesize(small_config())
        keys = [(t.uid, t.rid) for t in dset.tuples]
        assert len(keys) == len(set(keys))

    def test_regeneration_is_byte_identical(self):
        cfg = small_config(seed=99)
        a = d.serialize_dataset(d.synthesize(cfg)[0])
        b = d.serialize_dataset(d.synthesize(cfg)[0])
        assert a == b

    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(seed=3, constraint_prob=1.0), dict(seed=5, constraint_prob=0.0),
         dict(seed=8, constraint_prob=1.0, value_distribution="zipf", neg_ratio=1.2),
         dict(seed=12, num_user_meta=3, num_res_meta=2, value_set_sizes=(6,) * 5,
              visible_user_meta=3, visible_res_meta=2, constraint_prob=1.0, num_rules=6),
         # from 63 ops the bitmasks are Python ints: these grant ops 62 and 69
         dict(num_ops=63), dict(seed=4, num_ops=70)],
    )
    def test_positives_equal_the_pairwise_oracle(self, overrides):
        cfg = small_config(**overrides)
        dset, rules, U, R = d.synthesize(cfg)
        assert _positives(dset) == _oracle_grants(rules, U, R)

    def test_multi_value_conditions_and_two_constraints(self):
        # shapes `_draw_rule` never emits: several admissible values per
        # condition, two constraints, two constraints sharing a user column
        cfg = small_config(
            num_users=60, num_resources=60, num_user_meta=4, num_res_meta=4,
            num_rules=3, value_set_sizes=(6,) * 8, visible_user_meta=4,
            visible_res_meta=4, neg_ratio=0.7, seed=21,
        )
        rules = [
            d.Rule(uae=((0, (1, 2, 3)),), rae=((1, (0, 4)),), ops=frozenset({0, 2}),
                   constraints=((1, 0), (2, 2))),
            d.Rule(uae=((0, (2,)), (3, (0, 1, 2, 3, 4, 5))), rae=((0, (1, 2)),),
                   ops=frozenset({1}), constraints=((1, 1), (2, 3))),
            d.Rule(uae=((3, (4, 5)),), rae=((2, (0, 1, 2)),), ops=frozenset({3, 0}),
                   constraints=((0, 0), (0, 3))),
        ]
        U, R = d.generate_entities(rules, cfg)
        dset = d.generate_tuples(rules, U, R, cfg)
        expected = _oracle_grants(rules, U, R)
        assert len(expected) > 0
        assert _positives(dset) == expected
        assert all((t.umeta, t.rmeta) == (tuple(U[t.uid].tolist()), tuple(R[t.rid].tolist()))
                   for t in dset.tuples)
        assert len(dset) - len(expected) == round(cfg.neg_ratio * len(expected))

    def test_acceptance_dataset_is_pinned(self):
        cfg = d.SynthConfig(
            num_users=4500, num_resources=4500, num_user_meta=8, num_res_meta=8,
            num_rules=20, num_ops=4, value_set_sizes=(20,) * 16, seed=29, neg_ratio=0.3,
        )
        text = d.serialize_dataset(d.synthesize(cfg)[0])
        assert text.count("\n") == 11905  # header and 11,904 tuples
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "54071e29a4e80ad9"

    # pins of the SplitMix64 streams: a port of the generator, or a change
    # to how the draws are taken, must reproduce these byte for byte
    def test_zipf_dataset_is_pinned(self):
        cfg = d.SynthConfig(**ACCEPTANCE, value_distribution="zipf")
        text = d.serialize_dataset(d.synthesize(cfg)[0])
        assert text.count("\n") == 5785  # header and 5,784 tuples
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f88196a2b07e222b"

    def test_acceptance_split_is_pinned(self):
        data = d.synthesize(d.SynthConfig(**ACCEPTANCE))[0]
        train, test = d.split_dataset(data, 0.2, 0)
        assert (len(train), len(test)) == (9523, 2381)
        assert _digest(train.ids.ravel().tolist()) == "3435aa430f269aee"
        assert _digest(test.ids.ravel().tolist()) == "a78a8e87995247be"

    def test_shuffle_is_pinned(self):
        assert _digest(d.SplitMix64(7).permutation(1000).tolist()) == "18448dc5a0750f42"


ACCEPTANCE = dict(
    num_users=4500, num_resources=4500, num_user_meta=8, num_res_meta=8,
    num_rules=20, num_ops=4, value_set_sizes=(20,) * 16, seed=29, neg_ratio=0.3,
)


def _digest(values) -> str:
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]


def _oracle_grants(rules, U, R):
    """(uid, rid) -> granted ops for every pair, scored one pair at a time."""
    grants = {}
    for uid, umeta in enumerate(U.tolist()):
        for rid, rmeta in enumerate(R.tolist()):
            ops = set().union(*(evaluate_rule(rule, umeta, rmeta) for rule in rules))
            if ops:
                grants[uid, rid] = ops
    return grants


def _positives(dset):
    return {
        (t.uid, t.rid): {op for op, bit in enumerate(t.ops) if bit}
        for t in dset.tuples
        if any(t.ops)
    }


@settings(max_examples=60, deadline=None)
@given(
    num_rules=st.integers(1, 4),
    extra=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    metas=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    num_ops=st.integers(1, 4),
    constraint_prob=st.sampled_from([0.0, 0.5, 1.0]),
    neg_ratio=st.floats(0.0, 2.0),
    zipf=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_random_configs_match_the_pairwise_oracle(
    num_rules, extra, metas, num_ops, constraint_prob, neg_ratio, zipf, seed
):
    nu, nr = metas
    cfg = d.SynthConfig(
        num_users=num_rules + extra[0], num_resources=num_rules + extra[1],
        num_user_meta=nu, num_res_meta=nr, num_rules=num_rules, num_ops=num_ops,
        value_set_sizes=(6,) * (nu + nr), visible_user_meta=nu, visible_res_meta=nr,
        constraint_prob=constraint_prob, seed=seed, neg_ratio=neg_ratio,
        value_distribution="zipf" if zipf else "uniform",
    )
    try:
        dset, rules, U, R = d.synthesize(cfg)
    except d.SynthesisError:  # no free visible position left for a constraint
        return
    positives = _positives(dset)
    assert positives == _oracle_grants(rules, U, R)
    free = len(U) * len(R) - len(positives)
    assert len(dset) - len(positives) <= min(round(neg_ratio * len(positives)), free)
    assert len({(t.uid, t.rid) for t in dset.tuples}) == len(dset)


# ---------------------------------------------------------------------------
# scalar oracles for the block draws of synthesis: one SplitMix64 call per value
# ---------------------------------------------------------------------------


def _sample_value(rng, size, distribution):
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


def _force_condition(rng, meta, cond, size, rule_no):
    index, values = cond
    feasible = [v for v in values if 0 <= v < size]
    if not feasible:
        raise SynthesisError(f"rule {rule_no}: no admissible value for metadata index {index}")
    meta[index] = rng.choice(feasible)


def _scalar_entities(rules, config):
    """`generate_entities` one draw at a time: every user, then every resource."""
    rng = d.SplitMix64(derive_seed(config.seed, dataset._ENTITIES_TAG))
    users = []
    for uid in range(config.num_users):
        meta = [_sample_value(rng, size, config.value_distribution) for size in config.user_sizes]
        if uid < len(rules):
            for cond in rules[uid].uae:
                _force_condition(rng, meta, cond, config.user_sizes[cond[0]], uid)
            for cu, cr in rules[uid].constraints:
                meta[cu] = rng.randint(min(config.user_sizes[cu], config.res_sizes[cr]))
        users.append(meta)
    resources = []
    for rid in range(config.num_resources):
        meta = [_sample_value(rng, size, config.value_distribution) for size in config.res_sizes]
        if rid < len(rules):
            for cond in rules[rid].rae:
                _force_condition(rng, meta, cond, config.res_sizes[cond[0]], rid)
            for cu, cr in rules[rid].constraints:
                meta[cr] = users[rid][cu]
        resources.append(meta)
    return np.array(users, dtype=np.int64), np.array(resources, dtype=np.int64)


def _scalar_dataset(rules, U, R, config):
    """`generate_tuples` from the pairwise oracle and one negative draw per iteration."""
    grants = _oracle_grants(rules, U, R)
    labels = dict.fromkeys((uid * len(R) + rid for uid, rid in grants), 1)
    n_neg = int(round(config.neg_ratio * len(labels)))
    total_pairs = len(U) * len(R)
    wanted = len(labels) + min(n_neg, total_pairs - len(labels))
    rng = d.SplitMix64(derive_seed(config.seed, dataset._TUPLES_TAG))
    for _ in range(100 * max(n_neg, 1)):
        if len(labels) >= wanted:
            break
        labels.setdefault(rng.randint(total_pairs), 0)
    tuples = []
    for key in sorted(labels):
        uid, rid = divmod(key, len(R))
        ops = grants.get((uid, rid), set())
        tuples.append(d.AuthorizationTuple(
            uid, rid, tuple(U[uid].tolist()), tuple(R[rid].tolist()),
            tuple(int(op in ops) for op in range(config.num_ops)),
        ))
    return d.Dataset(config.num_user_meta, config.num_res_meta, config.num_ops, tuples)


@settings(max_examples=50, deadline=None)
@given(
    num_rules=st.integers(1, 4),
    extra=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    metas=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    sizes=st.lists(
        st.integers(dataset.MIN_VALUE_SET, dataset.MAX_VALUE_SET), min_size=6, max_size=6
    ),
    constraint_prob=st.sampled_from([0.0, 1.0]),
    neg_ratio=st.sampled_from([0.0, 0.3, 1.0, 50.0]),  # 50: every free pair is wanted
    zipf=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_block_synthesis_equals_the_scalar_oracles(
    num_rules, extra, metas, sizes, constraint_prob, neg_ratio, zipf, seed
):
    nu, nr = metas
    cfg = d.SynthConfig(
        num_users=num_rules + extra[0], num_resources=num_rules + extra[1],
        num_user_meta=nu, num_res_meta=nr, num_rules=num_rules,
        value_set_sizes=sizes[:nu] + sizes[3 : 3 + nr], visible_user_meta=nu,
        visible_res_meta=nr, constraint_prob=constraint_prob, seed=seed,
        neg_ratio=neg_ratio, value_distribution="zipf" if zipf else "uniform",
    )
    try:
        rules = d.generate_rules(cfg)
    except SynthesisError:  # no free visible position left for a constraint
        return
    U, R = d.generate_entities(rules, cfg)
    oracle_U, oracle_R = _scalar_entities(rules, cfg)
    assert np.array_equal(U, oracle_U) and np.array_equal(R, oracle_R)
    assert d.generate_tuples(rules, U, R, cfg) == _scalar_dataset(rules, U, R, cfg)


def test_negatives_equal_the_scalar_loop_when_the_draw_budget_binds():
    # 400 pairs, 399 granted: one negative wanted, found or not in 100 draws
    cfg = d.SynthConfig(
        num_users=20, num_resources=20, num_user_meta=1, num_res_meta=1, num_rules=2,
        value_set_sizes=(6, 6), visible_user_meta=1, visible_res_meta=1, neg_ratio=0.0025,
    )
    rules = [
        d.Rule(uae=((0, (0,)),), rae=((0, tuple(range(6))),), ops=frozenset({0})),
        d.Rule(uae=((0, (1,)),), rae=((0, (0,)),), ops=frozenset({1})),
    ]
    U = np.zeros((20, 1), dtype=np.int64)
    R = np.zeros((20, 1), dtype=np.int64)
    U[7, 0] = R[11, 0] = 1  # (7, 11) is the one free pair
    sizes = set()
    for seed in range(40):
        cfg = replace(cfg, seed=seed)
        dset = d.generate_tuples(rules, U, R, cfg)
        assert dset == _scalar_dataset(rules, U, R, cfg)
        sizes.add(len(dset))
    assert sizes == {399, 400}


@pytest.mark.parametrize(
    "second_uae, expected",
    [(((4, (2,)), (0, (-1, 10, 12))), "rule 1: no admissible value for metadata index 0"),
     (((4, (2,)),), "rule 0: no admissible value for metadata index 2")],
    ids=["users-first", "resources"],
)
def test_no_admissible_value_raises_the_scalar_error(second_uae, expected):
    # rule 0 has no admissible resource value; the user side is checked first
    cfg = small_config(num_rules=2)  # every value set is range(10)
    rules = [
        d.Rule(uae=((1, (3,)),), rae=((2, (99,)),), ops=frozenset({0})),
        d.Rule(uae=second_uae, rae=((0, (1,)),), ops=frozenset({1})),
    ]
    with pytest.raises(SynthesisError) as block:
        d.generate_entities(rules, cfg)
    with pytest.raises(SynthesisError) as scalar:
        _scalar_entities(rules, cfg)
    assert str(block.value) == str(scalar.value) == expected


class TestFileFormat:
    def test_parses_documented_example_tuple(self):
        text = (
            "dlbac-ds v1 8 8 4\n"
            "1011 2021 | 30 49 5 26 63 129 3 42 | 43 49 5 16 63 108 3 3 | 1 1 0 1\n"
        )
        dset = d.parse_dataset(text)
        (t,) = dset.tuples
        assert (t.uid, t.rid) == (1011, 2021)
        assert t.umeta == (30, 49, 5, 26, 63, 129, 3, 42)
        assert t.rmeta == (43, 49, 5, 16, 63, 108, 3, 3)
        assert t.ops == (1, 1, 0, 1)

    def test_header_only_file_gives_empty_dataset(self):
        dset = d.parse_dataset("dlbac-ds v1 3 2 1\n")
        assert len(dset.tuples) == 0
        assert (dset.num_user_meta, dset.num_res_meta, dset.num_ops) == (3, 2, 1)

    def test_dimension_mismatch_reports_line(self):
        text = "dlbac-ds v1 2 2 1\n5 6 | 1 | 2 3 | 1\n"
        with pytest.raises(FormatError, match="line 2"):
            d.parse_dataset(text)

    def test_non_integer_token_reports_line(self):
        text = "dlbac-ds v1 1 1 1\n5 6 | x | 2 | 1\n"
        with pytest.raises(FormatError, match="line 2"):
            d.parse_dataset(text)

    def test_duplicate_pair_reports_line(self):
        text = "dlbac-ds v1 1 1 1\n5 6 | 1 | 2 | 1\n5 6 | 1 | 2 | 1\n"
        with pytest.raises(FormatError, match="line 3"):
            d.parse_dataset(text)

    def test_round_trip_is_idempotent(self):
        dset, *_ = d.synthesize(small_config(num_users=200, num_resources=200))
        once = d.serialize_dataset(dset)
        twice = d.serialize_dataset(d.parse_dataset(once))
        assert once == twice


_ORACLE_TOKEN = re.compile(r"[+-]?[0-9]+")


def _oracle_parse(text: str) -> d.Dataset:
    """The file format read one line at a time, the reference for `parse_dataset`.

    A token is an optional sign followed by ASCII digits; spaces and tabs
    separate tokens.  Each line is checked in turn, so an error names the
    first line that breaks a rule.
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
    if not all(0 <= c <= 2**31 - 1 for c in counts):
        raise FormatError(f"line {header_line}: header counts must lie in [0, {2**31 - 1}]")
    num_user_meta, num_res_meta, num_ops = counts

    flat = array.array("q")
    seen = set()
    for lineno, line in enumerate(lines[header_line:], start=header_line + 1):
        if not line.strip():
            continue
        sections = line.split("|")
        if len(sections) != 4:
            raise FormatError(f"line {lineno}: expected 4 '|'-separated sections")
        ids, umeta, rmeta, ops = ([t for t in re.split("[ \t]", s) if t] for s in sections)
        tokens = ids + umeta + rmeta + ops
        for tok in tokens:
            if not _ORACLE_TOKEN.fullmatch(tok):
                raise FormatError(f"line {lineno}: non-integer token {tok!r}")
        values = list(map(int, tokens))
        if len(ids) != 2:
            raise FormatError(f"line {lineno}: expected '<uid> <rid>'")
        if len(umeta) != num_user_meta or len(rmeta) != num_res_meta or len(ops) != num_ops:
            raise FormatError(f"line {lineno}: dimension mismatch with header")
        if not {0, 1}.issuperset(values[len(values) - num_ops :]):
            raise FormatError(f"line {lineno}: operation bits must be 0 or 1")
        try:
            flat.fromlist(values)
        except OverflowError:
            raise FormatError(f"line {lineno}: value outside the int64 range") from None
        key = (values[0], values[1])
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate (uid, rid) pair {key}")
        seen.add(key)

    rows = np.frombuffer(flat, dtype=np.int64).reshape(len(seen), 2 + sum(counts))
    return d.Dataset._of(*counts, *np.split(rows, [2, 2 + num_user_meta + num_res_meta], axis=1))


def _outcome(parse, text: str):
    """The dataset `parse` reads from `text`, or the text of the error it raises."""
    try:
        return parse(text)
    except d.DlbacError as exc:
        return f"{type(exc).__name__}: {exc}"


LO, HI = -(2**63), 2**63 - 1
BLANK_LINES = ["", " ", "\t \t", "\xa0", "\x1f"]  # str.strip() empties each


def _valid_text(rng: random.Random, n: int) -> str:
    """A valid file of n tuples, in no order, with the spacing the grammar allows.

    Blank lines fall at random and on both sides of each 1,024-line tile
    boundary; line breaks mix LF, CRLF and CR.
    """
    nu, nr, no = (rng.randint(0, 3) for _ in range(3))
    sep = lambda: rng.choice([" ", "  ", "\t", " \t "])
    def tok(v):
        text = str(v)
        return rng.choice([text, text, f"+{text}", f"00{text}"]) if v >= 0 else text
    value = lambda: rng.choice([0, 1, 19, -3, LO, HI, rng.randint(-10**6, 10**6)])
    keys = rng.sample(range(10**6), n)
    pairs = [(k // 1000 - 5, k % 1000) for k in keys]
    if n:
        pairs[rng.randrange(n)] = (LO, HI)
    out = [rng.choice(["", " "]) + f"dlbac-ds v1 {nu} {nr} {no}"]
    for i, pair in enumerate(pairs):
        if i % 1024 in (0, 1023) or rng.random() < 0.02:
            out.append(rng.choice(BLANK_LINES))
        sections = [pair, [value() for _ in range(nu)], [value() for _ in range(nr)],
                    [rng.choice([0, 1]) for _ in range(no)]]
        line = (sep() + "|" + sep()).join(sep().join(map(tok, vals)) for vals in sections)
        out.append(rng.choice(["", sep()]) + line + rng.choice(["", sep()]))
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in out)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32))
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_tiled_parse_equals_the_per_line_oracle(n, seed):
    text = _valid_text(random.Random(seed), n)
    dset = d.parse_dataset(text)
    assert len(dset) == n
    assert dset == _oracle_parse(text)


@pytest.mark.parametrize("text", ["dlbac-ds v1 3 2 1\n", "dlbac-ds v1 3 2 1\n\n \t\n\r\n"])
def test_header_only_file_parses_without_a_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dset = d.parse_dataset(text)
    assert len(dset) == 0 and dset.M.shape == (0, 5)


@pytest.mark.parametrize(
    "line, token",
    [
        ("5 6 | 1_0 | 2 | 1", "1_0"),  # int() reads 10
        ("5 6 | \u0661 | 2 | 1", "\u0661"),  # ARABIC-INDIC DIGIT ONE; int() reads 1
        ("5\x1f6 | 1 | 2 | 1", "5\x1f6"),  # str.split() splits at the unit separator
        ("5\xa06 | 1 | 2 | 1", "5\xa06"),  # ... and at a no-break space
        ("5 6 | 1 | 2 | 1.0", "1.0"),
        ("5 6 | +-1 | 2 | 1", "+-1"),
        ("5 6 | 1- | 2 | 1", "1-"),
    ],
)
def test_token_outside_the_grammar_reports_its_line(line, token):
    text = "dlbac-ds v1 1 1 1\n0 0 | 1 | 2 | 0\n" + line + "\n"
    message = f"line 3: non-integer token {token!r}"
    assert _outcome(_oracle_parse, text) == f"FormatError: {message}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        d.parse_dataset(text)


@st.composite
def datasets(draw):
    num_u = draw(st.integers(1, 4))
    num_r = draw(st.integers(1, 4))
    num_ops = draw(st.integers(1, 4))
    n = draw(st.integers(0, 20))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 500)),
            min_size=n, max_size=n, unique=True,
        )
    )
    vals = st.integers(0, 200)
    bits = st.integers(0, 1)
    tuples = []
    for uid, rid in sorted(keys):
        tuples.append(
            d.AuthorizationTuple(
                uid,
                rid,
                tuple(draw(vals) for _ in range(num_u)),
                tuple(draw(vals) for _ in range(num_r)),
                tuple(draw(bits) for _ in range(num_ops)),
            )
        )
    return d.Dataset(num_u, num_r, num_ops, tuple(tuples))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_parse_serialize_round_trip(dset):
    assert d.parse_dataset(d.serialize_dataset(dset)) == dset


def _oracle_serialize(dset: d.Dataset) -> str:
    """The per-row `str.format` writer that the tiled writer replaced."""
    nu, nr, no = dset.num_user_meta, dset.num_res_meta, dset.num_ops
    line = " | ".join(" ".join(["{}"] * k) for k in (2, nu, nr, no)).format
    order = np.lexsort((dset.ids[:, 1], dset.ids[:, 0]))
    rows = np.hstack((dset.ids, dset.M, dset.Y))[order].tolist()
    return "\n".join([f"dlbac-ds v1 {nu} {nr} {no}"] + [line(*r) for r in rows]) + "\n"


# around each change of digit count, of sign and of the writer's digit type
EDGES = (LO, LO + 1, -(10**18), -(2**32), -10, -9, -1, 0, 1, 9, 10, 2**32 - 1, 2**32, 10**18,
         HI - 1, HI)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    n=st.sampled_from([0, 1, dataset._WRITE_TILE_ROWS + 1]),
    span=st.sampled_from([200, 2**32, 2**63]),
    seed=st.integers(0, 2**32),
)
def test_tiled_writer_equals_the_per_row_oracle(counts, n, span, seed):
    # values in [-span, span], a fifth of them from EDGES; widths of 0 included.  With
    # span 2**32 a tile's largest magnitude is 2**32 - 1 (uint32 digits) or 2**32 (uint64)
    nu, nr, no = counts
    rng = np.random.default_rng(seed)
    edges = [e for e in EDGES if -span <= e <= span]
    def values(k):
        drawn = rng.integers(-span, span - 1, (n, k), endpoint=True)
        return np.where(rng.random((n, k)) < 0.2, rng.choice(edges, (n, k)), drawn)
    rid = rng.permutation(n) - n // 2  # distinct, so every (uid, rid) pair is
    if span > n:
        rid[:2] = (1 - span, span - 1)[:n]  # outside the permutation's range
    ids = np.column_stack((values(1)[:, 0], rid))
    ids = ids[np.lexsort((ids[:, 1], ids[:, 0]))]  # in file order, as a parsed dataset is
    dset = d.Dataset._of(nu, nr, no, ids, values(nu + nr), rng.integers(0, 2, (n, no)))
    text = d.serialize_dataset(dset)
    assert text == _oracle_serialize(dset)
    assert d.parse_dataset(text) == dset
    shuffled = rng.permutation(n)  # the writer sorts the rows by (uid, rid)
    columns = (a[shuffled] for a in (ids, dset.M, dset.Y))
    assert d.serialize_dataset(d.Dataset._of(*counts, *columns)) == text


def test_writer_keeps_its_temporaries_to_a_tile():
    # 100,000 rows: past the output, the writer holds its tiles' bytes and one tile's arrays
    n = 100_000
    rng = np.random.default_rng(0)
    ids = np.column_stack((rng.permutation(n), rng.integers(-5, 5, n)))
    dset = d.Dataset._of(4, 4, 2, ids, rng.integers(-300, 300, (n, 8)), rng.integers(0, 2, (n, 2)))
    tracemalloc.start()
    try:
        text = d.serialize_dataset(dset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)  # the per-row writer peaked near 10 times


class TestInt64Range:
    BASE = "dlbac-ds v1 1 1 1\n0 0 | 1 | 2 | 0\n"

    @pytest.mark.parametrize(
        "line",
        [
            "5 6 | 99999999999999999999 | 2 | 1",  # user metadata
            "5 6 | 1 | -9223372036854775809 | 1",  # resource metadata
            "9223372036854775808 6 | 1 | 2 | 1",  # uid
            "5 -9223372036854775809 | 1 | 2 | 1",  # rid
            "5 6 | 1 | 2 | 99999999999999999999",  # operation bit
        ],
    )
    def test_value_outside_int64_reports_line(self, line):
        with pytest.raises(FormatError, match="line 3"):
            d.parse_dataset(self.BASE + line + "\n")

    def test_int64_bounds_load_and_round_trip(self):
        lo, hi = -(2**63), 2**63 - 1
        text = f"dlbac-ds v1 1 1 1\n{lo} {hi} | {hi} | {lo} | 1\n"
        dset = d.parse_dataset(text)
        assert dset.tuples[0] == d.AuthorizationTuple(lo, hi, (hi,), (lo,), (1,))
        assert d.serialize_dataset(dset) == text

    @pytest.mark.parametrize("header", ["-3 1 1", "1 -1 1", "1 1 -2", "1 1 99999999999"])
    def test_header_count_out_of_range_reports_header_line(self, header):
        with pytest.raises(FormatError, match="line 2: header counts"):
            d.parse_dataset(f"\ndlbac-ds v1 {header}\n")

    def test_header_wider_than_the_file_reports_line_before_allocating(self):
        with pytest.raises(FormatError, match="^line 2: dimension mismatch with header$"):
            d.parse_dataset("dlbac-ds v1 2000000000 2000000000 1\n1 2 | 3 | 4 | 1\n")

    def test_constructor_rejects_negative_counts(self):
        with pytest.raises(FormatError, match=r"counts \(1, -1, 1\)"):
            d.Dataset(1, -1, 1, ())


class TestColumns:
    def test_columns_are_read_only_int64(self):
        dset, *_ = d.synthesize(small_config())
        for a in (dset.ids, dset.M, dset.Y):
            assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dset.M[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            dset.Y[0, 0] = 1

    def test_view_is_built_once(self):
        dset, *_ = d.synthesize(small_config())
        assert dset.tuples is dset.tuples

    def test_inconsistent_tuple_rejected(self):
        t = d.AuthorizationTuple(4, 5, (1, 2), (3,), (1,))
        with pytest.raises(FormatError, match=r"tuple \(4, 5\) is inconsistent"):
            d.Dataset(1, 1, 1, (t,))

    @pytest.mark.parametrize(
        "t", [d.AuthorizationTuple(0, 0, (1.7,), (2,), (1,)),
              d.AuthorizationTuple(0, 0, (1,), (2.0,), (1,)),
              d.AuthorizationTuple(0.5, 0, (1,), (2,), (1,))],
    )
    def test_non_integer_value_rejected(self, t):
        with pytest.raises(FormatError, match="holds a non-integer value$"):
            d.Dataset(1, 1, 1, (t,))

    @pytest.mark.parametrize("ops", [(7,), (-1,), (0.5,), (1.0,)])
    def test_operation_value_other_than_a_bit_rejected(self, ops):
        t = d.AuthorizationTuple(4, 5, (1,), (2,), ops)
        with pytest.raises(FormatError, match=r"tuple \(4, 5\)"):
            d.Dataset(1, 1, 1, (t,))

    def test_repeated_pair_rejected(self):
        # parse_dataset rejects the same text, so no file could hold such a dataset
        t = d.AuthorizationTuple(1, 2, (3,), (4,), (1,))
        other = d.AuthorizationTuple(1, 3, (3,), (4,), (0,))
        with pytest.raises(FormatError, match=r"duplicate \(uid, rid\) pair \(1, 2\)$"):
            d.Dataset(1, 1, 1, [t, other, t])


def _assert_view_round_trips(x):
    assert d.Dataset(x.num_user_meta, x.num_res_meta, x.num_ops, x.tuples) == x
    for t in x.tuples:
        assert all(type(f) is tuple for f in (t.umeta, t.rmeta, t.ops))
        assert all(type(v) is int for v in (t.uid, t.rid, *t.umeta, *t.rmeta, *t.ops))


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    fraction=st.floats(0.05, 0.95),
    visible=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    csv_rows=st.dictionaries(
        st.tuples(INT64, st.integers(0, 3), st.integers(-5, 5)), st.tuples(st.integers(0, 1)),
        max_size=12,
    ),
    rtypes=st.lists(INT64, min_size=11, max_size=11),  # resource metadata of rids -5..5
)
def test_every_producer_round_trips_through_the_view(seed, fraction, visible, csv_rows, rtypes):
    cfg = small_config(
        num_users=12, num_resources=10, num_user_meta=3, num_res_meta=3, num_rules=2,
        value_set_sizes=(6,) * 6, visible_user_meta=3, visible_res_meta=3, seed=seed,
    )
    try:
        synthesized = d.synthesize(cfg)[0]
    except d.SynthesisError:
        return
    parsed = d.parse_dataset(d.serialize_dataset(synthesized))
    train, test = d.split_dataset(parsed, fraction, seed)
    projected = d.project_visible(parsed, *visible)
    text = "dept,level,rid,rtype,read\n" + "".join(
        f"{dept},{level},{rid},{rtypes[rid + 5]},{read}\n"
        for (dept, level, rid), (read,) in csv_rows.items()
    )
    schema = d.CsvSchema(("dept", "level"), "rid", ("read",), res_meta_cols=("rtype",))
    ingested = d.ingest_csv(text, schema)
    assert len(ingested) == len(csv_rows)
    for x in (synthesized, parsed, train, test, projected, ingested):
        _assert_view_round_trips(x)


class TestProjectVisible:
    def make_13_13(self):
        cfg = small_config(
            num_user_meta=13, num_res_meta=13, value_set_sizes=(8,) * 26
        )
        return d.synthesize(cfg)[0]

    def test_keeps_first_eight_of_each_side(self):
        full = self.make_13_13()
        proj = d.project_visible(full, 8, 8)
        assert proj.num_user_meta == proj.num_res_meta == 8
        for before, after in zip(full.tuples, proj.tuples):
            assert after.umeta == before.umeta[:8]
            assert after.rmeta == before.rmeta[:8]

    def test_full_visibility_is_identity(self):
        full = self.make_13_13()
        assert d.project_visible(full, 13, 13) == full

    def test_labels_untouched(self):
        full = self.make_13_13()
        proj = d.project_visible(full, 8, 8)
        assert [t.ops for t in proj.tuples] == [t.ops for t in full.tuples]

    @pytest.mark.parametrize("visible", [(0, 8), (8, 0), (-1, 8)])
    def test_rejects_visible_below_one(self, visible):
        with pytest.raises(ConfigError, match="positive"):
            d.project_visible(self.make_13_13(), *visible)

    def test_rejects_excess_visible(self):
        full = self.make_13_13()
        with pytest.raises(ConfigError):
            d.project_visible(full, 14, 13)


@pytest.mark.parametrize(
    "call",
    [
        "small_config(num_users=60.5)",
        "small_config(num_rules=4.0)",
        "small_config(num_ops=1.5)",
        "small_config(num_user_meta=8.0)",
        "small_config(visible_res_meta=2.5)",
        "small_config(value_set_sizes=(6.5,) * 16)",
        "small_config(seed=1.5)",
        "project_visible(data, 1.5, 2)",
        "split_dataset(data, 0.5, seed=1.5)",
        'split_dataset(data, 0.5, seed="1")',
    ],
)
def test_non_integer_counts_and_seeds_are_refused(call):
    data = d.synthesize(small_config())[0]
    with pytest.raises(ConfigError):
        eval(call, {**vars(d), "small_config": small_config, "data": data})


class TestSplitDataset:
    def test_sizes(self):
        dset, *_ = d.synthesize(small_config())
        n = len(dset.tuples)
        train, test = d.split_dataset(dset, 0.2, seed=1)
        assert len(test.tuples) == int(0.2 * n + 0.5)
        assert len(train.tuples) + len(test.tuples) == n

    def test_ten_tuples_fraction_point_two_gives_8_2(self):
        dset = d.Dataset(
            1, 1, 1,
            tuple(d.AuthorizationTuple(i, 0, (i,), (0,), (1,)) for i in range(10)),
        )
        train, test = d.split_dataset(dset, 0.2, seed=4)
        assert (len(train.tuples), len(test.tuples)) == (8, 2)

    def test_same_seed_same_split(self):
        dset, *_ = d.synthesize(small_config())
        assert d.split_dataset(dset, 0.3, 17) == d.split_dataset(dset, 0.3, 17)

    def test_partition(self):
        dset, *_ = d.synthesize(small_config())
        train, test = d.split_dataset(dset, 0.25, 5)
        combined = sorted(train.tuples + test.tuples, key=lambda t: (t.uid, t.rid))
        assert tuple(combined) == dset.tuples
        assert not set(train.tuples) & set(test.tuples)


CSV_TEXT = """dept,level,RESOURCE,ACTION
3,1,900,1
3,2,900,0
4,1,901,1
"""


class TestIngestCsv:
    schema = d.CsvSchema(
        user_meta_cols=("dept", "level"),
        resource_id_col="RESOURCE",
        label_cols=("ACTION",),
    )

    def test_shape_mapping(self):
        dset = d.ingest_csv(CSV_TEXT, self.schema)
        assert (dset.num_user_meta, dset.num_res_meta, dset.num_ops) == (2, 1, 1)
        assert len(dset.tuples) == 3

    def test_resource_id_becomes_metadata_when_no_res_cols(self):
        dset = d.ingest_csv(CSV_TEXT, self.schema)
        assert all(t.rmeta == (t.rid,) for t in dset.tuples)

    def test_label_outside_01_rejected(self):
        text = CSV_TEXT.replace("900,1", "900,2", 1)
        with pytest.raises(IngestError, match="label"):
            d.ingest_csv(text, self.schema)

    def test_conflicting_duplicate_lists_both_rows(self):
        text = CSV_TEXT + "3,1,900,0\n"
        with pytest.raises(IngestError, match="rows 2 and 5"):
            d.ingest_csv(text, self.schema)

    @pytest.mark.parametrize("second", ["2,900,4,0", "1,900,4,1"])
    def test_resource_with_conflicting_metadata_lists_both_rows(self, second):
        # another user's row, then a repeated pair's row
        schema = d.CsvSchema(("dept",), "rid", ("read",), res_meta_cols=("rtype",))
        text = f"dept,rid,rtype,read\n1,900,3,1\n{second}\n"
        with pytest.raises(IngestError, match="rows 2 and 3: resource 900"):
            d.ingest_csv(text, schema)

    def test_resource_metadata_columns_kept(self):
        schema = d.CsvSchema(("dept",), "rid", ("read",), res_meta_cols=("rtype",))
        dset = d.ingest_csv("dept,rid,rtype,read\n1,900,3,1\n2,900,3,0\n", schema)
        assert [(t.uid, t.rid, t.rmeta, t.ops) for t in dset.tuples] == [
            (0, 900, (3,), (1,)), (1, 900, (3,), (0,))
        ]

    def test_agreeing_duplicate_collapses(self):
        text = CSV_TEXT + "3,1,900,1\n"
        assert len(d.ingest_csv(text, self.schema).tuples) == 3

    @pytest.mark.parametrize(
        "row",
        [
            "99999999999999999999,1,900,1",  # user metadata
            "3,-9223372036854775809,900,1",  # user metadata, below
            "3,1,9223372036854775808,1",  # resource id
            "3,1,900,99999999999999999999",  # label
        ],
    )
    def test_cell_outside_int64_reports_row(self, row):
        with pytest.raises(IngestError, match="row 5"):
            d.ingest_csv(CSV_TEXT + row + "\n", self.schema)

    def test_resource_metadata_outside_int64_reports_row(self):
        schema = d.CsvSchema(("dept",), "rid", ("read",), res_meta_cols=("rtype",))
        text = "dept,rid,rtype,read\n1,900,3,1\n2,901,-99999999999999999999,0\n"
        with pytest.raises(IngestError, match="row 3: cell '-99999999999999999999'"):
            d.ingest_csv(text, schema)

    def test_missing_column(self):
        with pytest.raises(IngestError, match="missing column"):
            d.ingest_csv("a,b\n1,2\n", self.schema)

    def test_non_categorical_cell_reports_row(self):
        text = CSV_TEXT.replace("4,1", "4,x")
        with pytest.raises(IngestError, match="row 4"):
            d.ingest_csv(text, self.schema)

    def test_short_row_reports_row(self):
        text = CSV_TEXT.replace("4,1", "4", 1)
        with pytest.raises(IngestError, match="row 4"):
            d.ingest_csv(text, self.schema)

    def test_long_row_reports_row(self):
        text = CSV_TEXT.replace("4,1", "4,1,7,8", 1)
        with pytest.raises(IngestError, match="row 4: more cells"):
            d.ingest_csv(text, self.schema)

    def test_oversized_field_reports_row(self):
        text = CSV_TEXT.replace("901", "9" * 200_000, 1)
        with pytest.raises(IngestError, match="row 4: field larger than field limit"):
            d.ingest_csv(text, self.schema)

    def test_bare_carriage_return_reports_row(self):
        text = CSV_TEXT.replace("3,2,", "3,2\r,", 1)
        with pytest.raises(IngestError, match="row 3: new-line character"):
            d.ingest_csv(text, self.schema)


def _damaged(base: str, cut: int, at: int, char: str, truncate: bool) -> str:
    """`base` cut short at `cut`, or with the character at `at` replaced by `char`."""
    if truncate:
        return base[:cut]
    at %= len(base)
    return base[:at] + char + base[at + 1 :]


DAMAGE = dict(
    cut=st.integers(0, 400),
    at=st.integers(0, 400),
    # weighted toward separators and line breaks, where parsers go wrong
    char=st.one_of(
        st.sampled_from("\r\n\t ,|=#\"-"), st.characters(min_codepoint=9, max_codepoint=126)
    ),
    truncate=st.booleans(),
)

SMALL_DATASET_TEXT = (
    "dlbac-ds v1 2 2 2\n"
    "0 0 | 3 14 | 15 9 | 1 0\n"
    "0 7 | 3 14 | 26 5 | 0 1\n"
    "12 7 | 8 0 | 26 5 | 1 1\n"
)


# a dataset file's damage also draws characters outside the grammar that
# str.split() or int() would accept
DATASET_DAMAGE = {**DAMAGE, "char": st.one_of(DAMAGE["char"], st.sampled_from("\x1f\xa0\u0661_+"))}


@settings(max_examples=300, deadline=None)
@given(**DATASET_DAMAGE)
def test_damaged_dataset_file_loads_or_raises_dlbac_error(cut, at, char, truncate):
    text = _damaged(SMALL_DATASET_TEXT, cut, at, char, truncate)
    got = _outcome(d.parse_dataset, text)
    assert isinstance(got, (d.Dataset, str))
    assert got == _outcome(_oracle_parse, text)


def _large_text(n: int = 1100) -> str:
    """A canonical file of n tuples: two tiles, the second 76 lines long."""
    k = np.arange(n)
    ids = np.column_stack((k // 10, k % 10))
    M = (np.arange(4 * n).reshape(n, 4) * 7) % 20
    Y = np.column_stack((k % 3 == 0, k % 2)).astype(np.int64)
    return d.serialize_dataset(d.Dataset._of(2, 2, 2, ids, M, Y))


LARGE_DATASET_TEXT = _large_text()
SECOND_TILE = LARGE_DATASET_TEXT.index("\n102 4 |") + 1  # line 1,026: the 1,025th tuple


@settings(max_examples=150, deadline=None)
@given(at=st.integers(0, 2000), char=DATASET_DAMAGE["char"])
def test_fault_in_the_second_tile_is_named_as_the_oracle_names_it(at, char):
    text = _damaged(LARGE_DATASET_TEXT, 0, SECOND_TILE + at, char, False)
    assert _outcome(d.parse_dataset, text) == _outcome(_oracle_parse, text)


@pytest.mark.parametrize(
    "edits, error",
    [
        ({1060: "0 1 | 1 2 | 5 6 | 0 1"}, "line 1060: duplicate (uid, rid) pair (0, 1)"),
        ({500: "49 8 | 1 2 | 5 6 | 2 1", 1050: "x"}, "line 500: operation bits must be 0 or 1"),
        ({1080: "107 8 | 1 2 | 5 6 | 1 -1"}, "line 1080: operation bits must be 0 or 1"),
        ({700: "0 1 | 1 2 | 5 6 | 0 1", 1050: "x"}, "line 700: duplicate (uid, rid) pair (0, 1)"),
        ({1030: "0 1 | 1 2 | 5 6 | 0 1", 1090: "1 2 | 9223372036854775808 2 | 5 6 | 0 1"},
         "line 1030: duplicate (uid, rid) pair (0, 1)"),
        ({1090: "1 2 | 9223372036854775808 2 | 5 6 | 0 1"}, "line 1090: value outside the int64 range"),
        ({1100: "109 8 | 1 2 | 5 6 | 0 1 |"}, "line 1100: expected 4 '|'-separated sections"),
        ({3: "\xa0"}, None),  # a blank line in the first tile
    ],
)
def test_first_bad_line_is_named_across_tiles(edits, error):
    lines = LARGE_DATASET_TEXT.splitlines()
    for lineno, line in edits.items():
        lines[lineno - 1] = line
    text = "\n".join(lines) + "\n"
    got = _outcome(d.parse_dataset, text)
    assert got == _outcome(_oracle_parse, text)
    if error is None:
        assert isinstance(got, d.Dataset) and len(got) == 1099
    else:
        assert got == f"FormatError: {error}"


@settings(max_examples=300, deadline=None)
@given(**DAMAGE)
def test_damaged_csv_loads_or_raises_dlbac_error(cut, at, char, truncate):
    try:
        dset = d.ingest_csv(_damaged(CSV_TEXT, cut, at, char, truncate), TestIngestCsv.schema)
    except d.DlbacError:
        return
    assert isinstance(dset, d.Dataset)
