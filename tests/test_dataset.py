import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac.errors import ConfigError, FormatError, IngestError


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
        users, resources = d.generate_entities(rules, cfg)
        for k, rule in enumerate(rules):
            for i, values in rule.uae:
                assert users[k].meta[i] in values
            for j, values in rule.rae:
                assert resources[k].meta[j] in values
            for cu, cr in rule.constraints:
                assert users[k].meta[cu] == resources[k].meta[cr]

    def test_values_respect_restricted_sets(self):
        cfg = small_config(value_set_sizes=(6,) * 16)
        rules = d.generate_rules(cfg)
        users, resources = d.generate_entities(rules, cfg)
        assert all(v < 6 for u in users for v in u.meta)
        assert all(v < 6 for r in resources for v in r.meta)

    def test_deterministic(self):
        cfg = small_config()
        rules = d.generate_rules(cfg)
        assert d.generate_entities(rules, cfg) == d.generate_entities(rules, cfg)

    def test_ids_unique_and_sequential(self):
        cfg = small_config()
        users, resources = d.generate_entities(d.generate_rules(cfg), cfg)
        assert [u.id for u in users] == list(range(cfg.num_users))
        assert [r.id for r in resources] == list(range(cfg.num_resources))


class TestEvaluateRule:
    # index 0 plays "title"/"type", index 1 plays "department"
    rule = d.Rule(
        uae=((0, (2,)),),  # title=student
        rae=((0, (5,)),),  # type=document
        ops=frozenset({0}),  # read
        constraints=((1, 1),),  # department=department
    )

    def test_satisfying_pair_gets_the_rule_ops(self):
        student = d.Entity(0, (2, 7, 0, 0, 0, 0, 0, 0))
        document = d.Entity(0, (5, 7, 0, 0, 0, 0, 0, 0))
        assert d.evaluate_rule(self.rule, student, document) == {0}

    def test_failed_uae_condition_denies(self):
        user = d.Entity(0, (3, 7, 0, 0, 0, 0, 0, 0))
        document = d.Entity(0, (5, 7, 0, 0, 0, 0, 0, 0))
        assert d.evaluate_rule(self.rule, user, document) == set()

    def test_unequal_constraint_denies(self):
        student = d.Entity(0, (2, 7, 0, 0, 0, 0, 0, 0))
        document = d.Entity(0, (5, 6, 0, 0, 0, 0, 0, 0))
        assert d.evaluate_rule(self.rule, student, document) == set()

    def test_hidden_metadata_participate(self):
        rule = d.Rule(uae=((7, (1,)),), rae=((0, (0,)),), ops=frozenset({1}))
        user_match = d.Entity(0, (0,) * 7 + (1,))
        user_miss = d.Entity(1, (0,) * 8)
        res = d.Entity(0, (0,) * 8)
        assert d.evaluate_rule(rule, user_match, res) == {1}
        assert d.evaluate_rule(rule, user_miss, res) == set()


class TestGenerateTuples:
    def test_ops_equal_union_of_rules_over_full_metadata(self):
        cfg = small_config(constraint_prob=1.0, neg_ratio=0.5)
        dset, rules, users, resources = d.synthesize(cfg)
        user_by_id = {u.id: u for u in users}
        res_by_id = {r.id: r for r in resources}
        for t in dset.tuples:
            granted = set()
            for rule in rules:
                granted |= d.evaluate_rule(rule, user_by_id[t.uid], res_by_id[t.rid])
            expected = tuple(1 if op in granted else 0 for op in range(cfg.num_ops))
            assert t.ops == expected

    def test_negative_tuples_are_all_deny(self):
        cfg = small_config(neg_ratio=1.0)
        dset, *_ = d.synthesize(cfg)
        negatives = [t for t in dset.tuples if all(o == 0 for o in t.ops)]
        positives = [t for t in dset.tuples if any(t.ops)]
        assert len(negatives) == round(cfg.neg_ratio * len(positives))

    def test_no_duplicate_pairs(self):
        dset, *_ = d.synthesize(small_config())
        keys = [(t.uid, t.rid) for t in dset.tuples]
        assert len(keys) == len(set(keys))

    def test_regeneration_is_byte_identical(self):
        cfg = small_config(seed=99)
        a = d.serialize_dataset(d.synthesize(cfg)[0])
        b = d.serialize_dataset(d.synthesize(cfg)[0])
        assert a == b


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

    def test_rejects_excess_visible(self):
        full = self.make_13_13()
        with pytest.raises(ConfigError):
            d.project_visible(full, 14, 13)


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

    def test_agreeing_duplicate_collapses(self):
        text = CSV_TEXT + "3,1,900,1\n"
        assert len(d.ingest_csv(text, self.schema).tuples) == 3

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
