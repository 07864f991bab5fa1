import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac.errors import ConfigError, FormatError


def tiny_dataset():
    # one user metadata column with values {0,1,2,3}, one resource column {5,9}
    tuples = []
    for i, (u, r) in enumerate([(0, 5), (1, 9), (2, 5), (3, 9)]):
        tuples.append(d.AuthorizationTuple(i, 100 + i, (u,), (r,), (1,)))
    return d.Dataset(1, 1, 1, tuple(tuples))


class TestOneHot:
    def test_documented_block_example(self):
        # value 2 among seen {0,1,2,3}: four value columns plus a trailing
        # unknown column
        enc = d.build_encoder(tiny_dataset(), "onehot")
        x = d.encode_pair(enc, (2,), (5,))
        block = x[:5]
        assert list(block[:4]) == [0.0, 0.0, 1.0, 0.0]
        assert block[4] == 0.0

    def test_width(self):
        enc = d.build_encoder(tiny_dataset(), "onehot")
        assert enc.block_widths == (5, 3)
        assert enc.width == 8

    def test_unseen_value_hits_unknown_column(self):
        enc = d.build_encoder(tiny_dataset(), "onehot")
        x = d.encode_pair(enc, (7,), (5,))
        assert list(x[:5]) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_each_block_sums_to_one(self):
        dset, *_ = d.synthesize(
            d.SynthConfig(
                num_users=50, num_resources=50, num_user_meta=4, num_res_meta=4,
                num_rules=3, num_ops=2, value_set_sizes=(8,) * 8, seed=2,
                visible_user_meta=4, visible_res_meta=4,
            )
        )
        enc = d.build_encoder(dset, "onehot")
        X = d.encode_dataset(enc, dset)
        for start, width in enc.field_spans:
            assert np.all(X[:, start : start + width].sum(axis=1) == 1.0)


class TestBinary:
    def test_width_is_log2_of_card_plus_one(self):
        enc = d.build_encoder(tiny_dataset(), "binary")
        # card 4 -> ceil(log2(5)) = 3 bits; card 2 -> ceil(log2(3)) = 2 bits
        assert enc.block_widths == (3, 2)

    def test_unseen_value_is_all_zero(self):
        enc = d.build_encoder(tiny_dataset(), "binary")
        x = d.encode_pair(enc, (7,), (5,))
        assert list(x[:3]) == [0.0, 0.0, 0.0]

    def test_seen_values_encode_rank_plus_one_little_endian(self):
        enc = d.build_encoder(tiny_dataset(), "binary")
        # seen user values sorted {0,1,2,3} -> dense codes 1..4
        for value, code in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            x = d.encode_pair(enc, (value,), (5,))
            got = int(x[0]) | int(x[1]) << 1 | int(x[2]) << 2
            assert got == code

    def test_injective_on_seen_values(self):
        enc = d.build_encoder(tiny_dataset(), "binary")
        rows = {tuple(d.encode_pair(enc, (v,), (5,))) for v in range(4)}
        assert len(rows) == 4


class TestEncodeMatrix:
    def test_matches_row_by_row_pairs(self):
        dset = tiny_dataset()
        enc = d.build_encoder(dset, "onehot")
        X = d.encode_dataset(enc, dset)
        for i, t in enumerate(dset.tuples):
            assert np.array_equal(X[i], d.encode_pair(enc, t.umeta, t.rmeta))

    def test_width_mismatch_rejected(self):
        enc = d.build_encoder(tiny_dataset(), "onehot")
        with pytest.raises(ConfigError):
            d.encode_pair(enc, (1, 2), (5,))

    def test_row_count_mismatch_rejected(self):
        enc = d.build_encoder(tiny_dataset(), "onehot")
        with pytest.raises(ConfigError):
            d.encode_matrix(enc, np.zeros((2, 1)), np.zeros((3, 1)))


class TestBuildEncoder:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            d.build_encoder(d.Dataset(1, 1, 1, ()), "onehot")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            d.build_encoder(tiny_dataset(), "ordinal")

    def test_seen_values_sorted_per_position(self):
        enc = d.build_encoder(tiny_dataset(), "onehot")
        assert enc.seen_values == ((0, 1, 2, 3), (5, 9))


class TestPersistence:
    def test_round_trip(self):
        enc = d.build_encoder(tiny_dataset(), "binary")
        assert d.load_encoder(d.save_encoder(enc)) == enc

    def test_bad_header(self):
        with pytest.raises(FormatError):
            d.load_encoder("dlbac-encoder v2 onehot 1 1\n")

    def test_column_gap_detected(self):
        text = "dlbac-encoder v1 onehot 1 1\n0 5 0\n0 9 2\n1 3 0\n"
        with pytest.raises(FormatError, match="gaps"):
            d.load_encoder(text)

    @pytest.mark.parametrize("order", ["0 5 0\n0 3 1", "0 5 0\n0 5 1"])
    def test_values_must_ascend(self, order):
        # (5, 3) would silently encode the seen value 3 as unknown
        text = f"dlbac-encoder v1 onehot 1 1\n{order}\n1 3 0\n"
        with pytest.raises(FormatError, match="ascending"):
            d.load_encoder(text)

    def test_missing_position_detected(self):
        text = "dlbac-encoder v1 onehot 1 1\n0 5 0\n"
        with pytest.raises(FormatError, match="position 1"):
            d.load_encoder(text)


@st.composite
def value_tables(draw):
    num_u = draw(st.integers(1, 3))
    num_r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 15))
    vals = st.integers(0, 30)
    tuples = tuple(
        d.AuthorizationTuple(
            i, i,
            tuple(draw(vals) for _ in range(num_u)),
            tuple(draw(vals) for _ in range(num_r)),
            (1,),
        )
        for i in range(n)
    )
    return d.Dataset(num_u, num_r, 1, tuples)


@settings(max_examples=40, deadline=None)
@given(value_tables(), st.sampled_from(["onehot", "binary"]))
def test_encoder_round_trip_property(dset, scheme):
    enc = d.build_encoder(dset, scheme)
    loaded = d.load_encoder(d.save_encoder(enc))
    assert loaded == enc
    assert np.array_equal(d.encode_dataset(loaded, dset), d.encode_dataset(enc, dset))


@settings(max_examples=40, deadline=None)
@given(value_tables())
def test_onehot_encoding_is_injective_on_training_rows(dset):
    enc = d.build_encoder(dset, "onehot")
    X = d.encode_dataset(enc, dset)
    metas = {(t.umeta, t.rmeta) for t in dset.tuples}
    assert len({tuple(row) for row in X}) == len(metas)
