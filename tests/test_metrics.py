import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac.errors import ConfigError


class TestScoreSingleOp:
    # 10 predictions: 4 tp, 1 fp, 3 tn, 2 fn
    preds = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 1])

    def test_confusion_counts(self):
        m = d.score(self.preds, self.labels).per_op[0]
        c = m.confusion
        assert (c.tp, c.fp, c.tn, c.fn) == (4, 1, 3, 2)

    def test_derived_ratios(self):
        m = d.score(self.preds, self.labels).per_op[0]
        assert m.precision == pytest.approx(4 / 5)
        assert m.tpr == pytest.approx(4 / 6)
        assert m.fpr == pytest.approx(1 / 4)
        p, r = 4 / 5, 4 / 6
        assert m.f1 == pytest.approx(2 * p * r / (p + r))

    def test_micro_equals_per_op_for_single_op(self):
        rep = d.score(self.preds, self.labels)
        assert rep.micro == rep.per_op[0]


class TestUndefinedMetrics:
    def test_no_positives_predicted(self):
        rep = d.score(np.zeros(4, int), np.array([1, 1, 0, 0]))
        m = rep.per_op[0]
        assert m.precision is None
        assert m.tpr == 0.0
        assert m.f1 is None

    def test_no_positive_labels(self):
        rep = d.score(np.zeros(4, int), np.zeros(4, int))
        m = rep.per_op[0]
        assert m.tpr is None and m.precision is None and m.f1 is None
        assert m.fpr == 0.0

    def test_no_negative_labels(self):
        m = d.score(np.ones(4, int), np.ones(4, int)).per_op[0]
        assert m.fpr is None
        assert m.f1 == 1.0

    def test_zero_precision_and_tpr_gives_undefined_f1(self):
        m = d.score(np.array([1, 0]), np.array([0, 1])).per_op[0]
        assert m.precision == 0.0 and m.tpr == 0.0 and m.f1 is None


class TestMultiOp:
    def test_micro_pools_counts(self):
        preds = np.array([[1, 0], [0, 1], [1, 1]])
        labels = np.array([[1, 1], [0, 1], [0, 0]])
        rep = d.score(preds, labels)
        c = rep.micro.confusion
        total = c.tp + c.fp + c.tn + c.fn
        assert total == preds.size
        per = [m.confusion for m in rep.per_op]
        assert c.tp == sum(x.tp for x in per)
        assert c.fp == sum(x.fp for x in per)

    def test_each_op_scored_independently(self):
        preds = np.array([[1, 0], [1, 0]])
        labels = np.array([[1, 1], [1, 1]])
        rep = d.score(preds, labels)
        assert rep.per_op[0].tpr == 1.0
        assert rep.per_op[1].tpr == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            d.score(np.zeros((2, 2)), np.zeros((2, 3)))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_counts_always_partition_the_entries(pair):
    preds, labels = (np.array(v) for v in pair)
    c = d.score(preds, labels).per_op[0].confusion
    assert c.tp + c.fp + c.tn + c.fn == len(preds)
    for v in (c.tp, c.fp, c.tn, c.fn):
        assert v >= 0


class TestEvaluate:
    def test_threshold_is_strict(self):
        # a constant-0.5 network must deny at threshold 0.5
        net = d.init_network(d.NetworkConfig(2, 1, hidden_layers=(1,)))
        for W in net.weights:
            W[:] = 0.0
        dset = d.Dataset(
            1, 1, 1, (d.AuthorizationTuple(0, 0, (3,), (4,), (1,)),)
        )
        enc = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(enc.width, 1, hidden_layers=(1,)))
        for W in net.weights:
            W[:] = 0.0
        assert float(d.forward(net, d.encode_dataset(enc, dset))[0, 0]) == 0.5
        rep = d.evaluate(net, enc, dset, threshold=0.5)
        assert rep.per_op[0].confusion.fn == 1

    def test_perfectly_trained_model_scores_cleanly(self):
        cfg = d.SynthConfig(
            num_users=120, num_resources=120, num_user_meta=4, num_res_meta=4,
            num_rules=3, num_ops=2, value_set_sizes=(6,) * 8, seed=6,
            visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
        )
        dset, *_ = d.synthesize(cfg)
        enc = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(enc.width, 2, (32, 16), init_seed=0))
        tc = d.TrainConfig(
            lr0=0.01, lr_decay_epochs=20, epochs=40, early_stop_patience=40,
            val_fraction=0.0,
        )
        net, _ = d.train(net, dset, enc, tc)
        rep = d.evaluate(net, enc, dset)
        assert rep.micro.f1 is not None and rep.micro.f1 > 0.9


class TestCsv:
    def test_layout_and_na(self):
        rep = d.score(np.array([[0, 1]]), np.array([[0, 1]]))
        text = d.report_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "row,tp,fp,tn,fn,precision,tpr,fpr,f1"
        assert lines[1].startswith("op0,0,0,1,0,NA,NA,0.000000,NA")
        assert lines[2].startswith("op1,1,0,0,0,1.000000,1.000000,NA,1.000000")
        assert lines[3].startswith("micro,1,0,1,0,")
        assert len(lines) == 4

    def test_six_decimal_formatting(self):
        rep = d.score(np.array([1, 1, 0]), np.array([1, 0, 0]))
        row = d.report_to_csv(rep).strip().split("\n")[1].split(",")
        assert row[5] == "0.500000"


@pytest.mark.parametrize(
    "preds, labels",
    [
        (np.array([0.7, 1.0, 0.0]), np.array([1, 1, 0])),  # truncated to 0 by an int cast
        (np.array([1, 2, 0]), np.array([1, 1, 0])),  # a 2 lands in no cell
        (np.array([1, 0, 0]), np.array([1, -1, 0])),
        (np.array([1.0, np.nan]), np.array([1, 0])),
        (np.array(["1", "0"]), np.array([1, 0])),
    ],
)
def test_score_refuses_values_other_than_0_and_1(preds, labels):
    with pytest.raises(ConfigError, match="must be 0 or 1"):
        d.score(preds, labels)


def test_score_of_zero_operations_is_empty_with_an_all_na_micro_row():
    rep = d.score(np.zeros((3, 0), int), np.zeros((3, 0), int))
    assert rep.per_op == ()
    assert d.report_to_csv(rep).splitlines()[1:] == ["micro,0,0,0,0,NA,NA,NA,NA"]


def _per_op_oracle(preds, labels):
    """One count loop per op and per cell, micro as a plain sum: the oracle for `score`."""
    cells = [
        tuple(
            int(np.sum((preds[:, k] == p) & (labels[:, k] == y)))
            for p, y in ((1, 1), (1, 0), (0, 0), (0, 1))
        )
        for k in range(preds.shape[1])
    ]
    return cells, tuple(sum(c[i] for c in cells) for i in range(4))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_whole_array_counts_equal_the_per_op_loop(n, ops, seed, as_bool):
    rng = np.random.default_rng(seed)
    preds, labels = rng.integers(0, 2, (n, ops)), rng.integers(0, 2, (n, ops))
    rep = d.score(preds.astype(bool) if as_bool else preds, labels.astype(np.float64))
    cells, micro = _per_op_oracle(preds, labels)
    got = [(m.confusion.tp, m.confusion.fp, m.confusion.tn, m.confusion.fn) for m in rep.per_op]
    assert got == cells
    c = rep.micro.confusion
    assert (c.tp, c.fp, c.tn, c.fn) == micro
    assert all(type(v) is int for v in (c.tp, c.fp, c.tn, c.fn, *got[0]))
