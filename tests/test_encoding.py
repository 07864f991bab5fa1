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


class TestEncodePositions:
    @pytest.mark.parametrize("scheme", ["onehot", "binary"])
    def test_side_rows_are_column_slices_of_the_full_row(self, scheme):
        tuples = tuple(
            d.AuthorizationTuple(i, i, (i % 3, i % 5), (i % 4,), (1,)) for i in range(12)
        )
        enc = d.build_encoder(d.Dataset(2, 1, 1, tuples), scheme)
        rng = np.random.default_rng(0)
        U = rng.integers(-1, 7, size=(30, 2))  # unseen values included
        R = rng.integers(-1, 7, size=(30, 1))
        X = d.encode_positions(enc, np.hstack((U, R)))
        split = sum(enc.block_widths[:2])
        assert np.array_equal(d.encode_positions(enc, U, 0), X[:, :split])
        assert np.array_equal(d.encode_positions(enc, R, 2), X[:, split:])

    @pytest.mark.parametrize(
        "call",
        [
            lambda enc: d.encode_positions(enc, np.zeros(2, dtype=np.int64)),
            lambda enc: d.encode_positions(enc, np.zeros((1, 1, 2), dtype=np.int64)),
            lambda enc: d.encode_positions(enc, np.zeros(1, dtype=np.int64), 1),
            lambda enc: d.encode_pair(enc, [1.5], [5]),
            lambda enc: d.encode_positions(enc, [[np.nan, 5.0]]),
            lambda enc: d.encode_positions(enc, [[np.inf, 5.0]]),
            lambda enc: d.encode_positions(enc, [[1e30, 5.0]]),
            lambda enc: d.encode_positions(enc, [["1", "5"]]),
            lambda enc: d.encode_positions(enc, np.zeros((1, 2), dtype=np.int64), 1),
            lambda enc: d.encode_positions(enc, np.zeros((1, 3), dtype=np.int64)),
            lambda enc: d.encode_positions(enc, np.zeros((1, 1), dtype=np.int64), -1),
            lambda enc: d.encode_positions(enc, np.zeros((1, 0), dtype=np.int64), 3),
            lambda enc: d.encode_dataset(
                enc, d.Dataset(2, 0, 1, (d.AuthorizationTuple(0, 0, (1, 5), (), (1,)),))
            ),
        ],
        ids=["1-d", "3-d", "1-d-sides", "fraction", "nan", "inf", "huge", "text",
             "past-end", "too-wide", "negative-first", "first-past-end", "other-split"],
    )
    def test_bad_input_rejected(self, call):
        with pytest.raises(ConfigError):
            call(d.build_encoder(tiny_dataset(), "onehot"))

    def test_whole_floats_encode_like_ints(self):
        enc = d.build_encoder(tiny_dataset(), "binary")
        assert np.array_equal(d.encode_pair(enc, [2.0], [9.0]), d.encode_pair(enc, (2,), (9,)))


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


@settings(max_examples=40, deadline=None)
@given(
    counts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    n=st.integers(1, 40),
    span=st.sampled_from([5, 2**63]),
    seed=st.integers(0, 2**32),
)
def test_seen_values_are_the_unique_values_of_each_column(counts, n, span, seed):
    # negative and int64-extreme values, repeats, and datasets of 0 positions
    rng = np.random.default_rng(seed)
    k = sum(counts)
    M = rng.integers(-span, span - 1, (n, k), endpoint=True)
    M = np.where(rng.random((n, k)) < 0.2, rng.choice([-(2**63), -1, 0, 2**63 - 1], (n, k)), M)
    train = d.Dataset._of(*counts, 1, np.column_stack((np.arange(n), np.arange(n))), M,
                          np.zeros((n, 1)))
    expected = tuple(tuple(int(v) for v in np.unique(col)) for col in M.T)
    assert d.build_encoder(train).seen_values == expected


class TestEncoderInvariants:
    @pytest.mark.parametrize(
        "args, match",
        [
            # the seen value 2 would encode as unknown
            (("onehot", 1, 1, ((5, 2, 9), (1, 3))), "ascending"),
            (("onehot", 1, 1, ((5, 5), (1, 3))), "ascending"),
            # the never-seen value 1 would take the column of 1.5
            (("onehot", 1, 1, ((1.5, 2), (1, 3))), "integers"),
            (("binary", 1, 1, (("1", "2"), (1, 3))), "integers"),
            # three names for two positions
            (("onehot", -1, 3, ((1,), (2,))), "negative"),
            # an empty block has no unknown column to fall back on
            (("onehot", 1, 1, ((), (1, 3))), "position 0"),
            (("binary", 1, 1, ((1,), ())), "position 1"),
        ],
    )
    def test_bad_encoder_rejected(self, args, match):
        with pytest.raises(ConfigError, match=match):
            d.Encoder(*args)

    def test_numpy_integers_and_no_positions_accepted(self):
        enc = d.Encoder("onehot", 1, 0, ((np.int64(-3), np.int64(4)),))
        assert enc.width == 3 and d.Encoder("binary", 0, 0, ()).width == 0


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

    @pytest.mark.parametrize("entry", ["99 4 0", "-1 2 0", "2 7 0"])
    def test_position_out_of_range_rejected(self, entry):
        # positions are 0 and 1 only; any other entry used to be dropped silently
        text = f"dlbac-encoder v1 onehot 1 1\n0 5 0\n1 3 0\n{entry}\n"
        with pytest.raises(FormatError, match="position"):
            d.load_encoder(text)

    @pytest.mark.parametrize(
        "header, match",
        [("dlbac-encoder v1 onehob 1 1", "scheme"), ("dlbac-encoder v1 onehot -1 2", "negative")],
    )
    def test_bad_header_field_rejected(self, header, match):
        # neither may escape as ConfigError or load an encoder with -1 user positions
        with pytest.raises(FormatError, match=match):
            d.load_encoder(f"{header}\n0 5 0\n1 3 0\n")

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


def _dense_from_columns(C, width):
    """The 0/1 rows whose active columns C lists, -1 entries skipped."""
    X = np.zeros((C.shape[0], width))
    for i, row in enumerate(C.tolist()):
        X[i, [c for c in row if c >= 0]] = 1.0
    return X


@settings(max_examples=60, deadline=None)
@given(value_tables(), st.sampled_from(["onehot", "binary"]), st.integers(0, 2**32 - 1))
def test_active_columns_list_the_encoded_ones(dset, scheme, seed):
    enc = d.build_encoder(dset, scheme)
    rng = np.random.default_rng(seed)
    M = rng.integers(-1, 32, size=(rng.integers(0, 9), enc.num_positions))  # unseen values too
    first = int(rng.integers(0, enc.num_positions + 1))
    last = int(rng.integers(first, enc.num_positions + 1))
    C = d.active_columns(enc, M[:, first:last], first)
    assert C.dtype == np.intp and C.shape[0] == M.shape[0]
    offset = sum(enc.block_widths[:first])
    want = d.encode_positions(enc, M[:, first:last], first)
    got = _dense_from_columns(C, enc.width)[:, offset : offset + want.shape[1]]
    assert np.array_equal(got, want) and got.sum() == (C >= 0).sum()
    for row in C.tolist():
        real = [c for c in row if c >= 0]
        assert row == real + [-1] * (len(row) - len(real))  # padding only at the end
        assert real == sorted(set(real))
    if scheme == "onehot" and len(M):  # one column per position, unseen values included
        assert C.shape == (len(M), last - first) and (C >= 0).all()


def test_pair_columns_are_user_columns_then_resource_columns():
    enc = d.build_encoder(tiny_dataset(), "binary")
    M = np.array([[2, 9], [7, 5], [0, 4]])  # 7 and 4 are unseen: they set no bit
    users, resources = d.active_columns(enc, M[:, :1], 0), d.active_columns(enc, M[:, 1:], 1)
    assert users.tolist() == [[0, 1], [-1, -1], [0, -1]]
    assert resources.tolist() == [[4], [3], [-1]]
    assert d.active_columns(enc, M).tolist() == [[0, 1, 4], [3, -1, -1], [0, -1, -1]]


@settings(max_examples=40, deadline=None)
@given(value_tables())
def test_onehot_encoding_is_injective_on_training_rows(dset):
    enc = d.build_encoder(dset, "onehot")
    X = d.encode_dataset(enc, dset)
    metas = {(t.umeta, t.rmeta) for t in dset.tuples}
    assert len({tuple(row) for row in X}) == len(metas)


SMALL_ENCODER_TEXTS = {
    scheme: d.save_encoder(d.build_encoder(tiny_dataset(), scheme))
    for scheme in ("onehot", "binary")
}


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(sorted(SMALL_ENCODER_TEXTS)),
    cut=st.integers(0, 200),
    at=st.integers(0, 200),
    char=st.characters(min_codepoint=9, max_codepoint=126),
    truncate=st.booleans(),
)
def test_damaged_encoder_file_loads_or_raises_format_error(scheme, cut, at, char, truncate):
    base = SMALL_ENCODER_TEXTS[scheme]
    at %= len(base)
    if truncate:
        text = base[:cut]
    else:
        text = base[:at] + char + base[at + 1 :]
    try:
        enc = d.load_encoder(text)
    except FormatError:
        return
    assert isinstance(enc, d.Encoder)
