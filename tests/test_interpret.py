import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac.interpret import attribution_to_csv, flip_curve_to_csv
from dlbac.errors import ConfigError
from dlbac.neuralnet import TILE_ROWS


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def linear_net(weights_row):
    """1-hidden-unit network computing sigmoid(w . x) for non-negative w.x."""
    w = np.asarray(weights_row, dtype=float)
    cfg = d.NetworkConfig(input_width=len(w), num_ops=1, hidden_layers=(1,))
    net = d.init_network(cfg)
    net.weights[0][:, 0] = w
    net.weights[1][:] = 1.0
    net.biases[0][:] = 0.0
    net.biases[1][:] = 0.0
    return net


@pytest.fixture(scope="module")
def trained():
    cfg = d.SynthConfig(
        num_users=120, num_resources=120, num_user_meta=4, num_res_meta=4,
        num_rules=3, num_ops=2, value_set_sizes=(6,) * 8, seed=21,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    dset, *_ = d.synthesize(cfg)
    enc = d.build_encoder(dset)
    net = d.init_network(d.NetworkConfig(enc.width, 2, (32, 16), init_seed=0))
    tc = d.TrainConfig(lr0=0.01, lr_decay_epochs=20, epochs=30, val_fraction=0.0)
    net, _ = d.train(net, dset, enc, tc)
    return net, enc, dset


class TestIntegratedGradients:
    def test_single_step_is_endpoint_gradient_times_diff(self):
        # one right-Riemann step evaluates the gradient at x itself
        net = linear_net([1.0])
        x = np.array([1.0])
        got = d.integrated_gradients(net, x, np.zeros(1), 0, steps=1)
        s = sigmoid(1.0)
        assert got[0] == pytest.approx(s * (1 - s) * 1.0, abs=1e-12)

    def test_completeness_at_many_steps(self):
        net = linear_net([0.7, 0.3, 1.1])
        x = np.array([1.0, 1.0, 1.0])
        scores = d.integrated_gradients(net, x, np.zeros(3), 0, steps=2048)
        gap = abs(scores.sum() - (sigmoid(2.1) - sigmoid(0.0)))
        assert gap < 1e-3

    def test_error_shrinks_when_steps_double(self):
        net = linear_net([0.7, 0.3, 1.1])
        x = np.array([1.0, 1.0, 1.0])
        target = sigmoid(2.1) - sigmoid(0.0)

        def gap(steps):
            return abs(
                d.integrated_gradients(net, x, np.zeros(3), 0, steps).sum() - target
            )

        assert gap(256) < gap(128) < gap(64)

    def test_input_equal_to_baseline_gives_zero(self):
        net = linear_net([0.5, 0.5])
        x = np.array([0.3, 0.9])
        scores = d.integrated_gradients(net, x, x, 0, steps=16)
        assert np.all(scores == 0.0)

    def test_zero_weight_feature_gets_zero_score(self):
        net = linear_net([1.0, 0.0])
        scores = d.integrated_gradients(
            net, np.array([1.0, 1.0]), np.zeros(2), 0, steps=64
        )
        assert scores[1] == 0.0
        assert scores[0] != 0.0

    def test_batch_rows_match_single_calls(self, trained, batch_invariant_blas):
        net, enc, dset = trained
        batch_invariant_blas(net)
        X = d.encode_dataset(enc, dset)[:5]
        B = np.zeros_like(X)
        batch = d.integrated_gradients(net, X, B, 0, steps=8)
        for i in range(5):
            single = d.integrated_gradients(net, X[i], B[i], 0, steps=8)
            assert np.array_equal(batch[i], single)

    def test_invalid_steps(self):
        net = linear_net([1.0])
        for steps in (0, -3, 2.5, 4.0):
            with pytest.raises(ConfigError, match="steps"):
                d.integrated_gradients(net, np.ones(1), np.zeros(1), 0, steps=steps)

    @pytest.mark.parametrize("x", [np.ones(2), np.ones((0, 2))], ids=["one-row", "no-rows"])
    def test_op_out_of_range(self, x):
        with pytest.raises(ConfigError, match="operation index 1"):
            d.integrated_gradients(linear_net([1.0, 1.0]), x, np.zeros_like(x), 1, steps=4)

    @pytest.mark.parametrize(
        "x, baseline",
        [
            (np.ones(3), np.zeros(3)),
            (np.ones((2, 3)), np.zeros((2, 3))),
            (np.array([1.0, np.nan]), np.zeros(2)),
            (np.ones(2), np.array([0.0, np.inf])),
            (np.ones((2, 2, 2)), np.zeros((2, 2, 2))),
        ],
        ids=["wide-vector", "wide-matrix", "nan-input", "inf-baseline", "3-d"],
    )
    def test_bad_input_rejected(self, x, baseline):
        with pytest.raises(ConfigError):
            d.integrated_gradients(linear_net([1.0, 1.0]), x, baseline, 0, steps=4)

    def test_memory_does_not_grow_with_steps(self):
        net = linear_net([0.7, 0.3, 1.1])
        x = np.ones(3)

        def peak(steps):
            tracemalloc.start()
            try:
                d.integrated_gradients(net, x, np.zeros(3), 0, steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(64 * TILE_ROWS) < 1.5 * peak(2 * TILE_ROWS)


def ig_oracle(net, x, baseline, op, steps):
    """Right-Riemann integrated gradients as a loop of exact per-point gradients."""
    diff = x - baseline
    total = np.zeros_like(x)
    for k in range(1, steps + 1):
        total += d.input_gradient(net, baseline + (k / steps) * diff, op)
    return diff * total / steps


@st.composite
def ig_cases(draw):
    """A random small net with non-zero biases, inputs, baselines, op and steps.

    Most cases are a few rows at up to 400 steps, so rows * steps crosses the
    chunk budget with a part-filled last chunk; a few have more rows than the
    budget itself.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hidden = tuple(draw(st.lists(st.integers(1, 8), max_size=3)))
    width = draw(st.integers(1, 8))
    net = d.init_network(d.NetworkConfig(width, draw(st.integers(1, 3)), hidden))
    net.flat[:] = rng.normal(0.0, 0.8, size=net.flat.shape)
    if draw(st.booleans()):
        rows, steps = draw(st.integers(1, 12)), draw(st.integers(1, 400))
    else:
        rows, steps = draw(st.integers(TILE_ROWS - 2, TILE_ROWS + 3)), draw(st.integers(1, 3))
    shape = (width,) if rows == 1 and draw(st.booleans()) else (rows, width)
    x = rng.normal(0.0, 1.0, size=shape)
    baseline = rng.normal(0.0, 1.0, size=shape)
    op = draw(st.integers(0, net.config.num_ops - 1))
    return net, x, baseline, op, steps


@settings(max_examples=60, deadline=None)
@given(ig_cases())
def test_matches_per_step_oracle(case):
    net, x, baseline, op, steps = case
    got = d.integrated_gradients(net, x, baseline, op, steps)
    want = ig_oracle(net, x, baseline, op, steps)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(
    steps=st.one_of(st.integers(1, 128), st.just(TILE_ROWS + 476)),
    zero_baseline=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_row_gets_the_same_bits_in_every_batch(
    trained, batch_invariant_blas, steps, zero_baseline, seed
):
    # default hidden widths: their backward products need the 20-row floor
    _, enc, dset = trained
    net = d.init_network(d.NetworkConfig(enc.width, 2, init_seed=1))
    batch_invariant_blas(net)
    rng = np.random.default_rng(seed)
    X = d.encode_dataset(enc, dset)[:16]
    B = np.zeros_like(X) if zero_baseline else rng.random(X.shape)
    op = int(rng.integers(net.config.num_ops))
    full = d.integrated_gradients(net, X, B, op, steps)
    subset = rng.permutation(len(X))[: rng.integers(1, len(X) + 1)]
    assert np.array_equal(d.integrated_gradients(net, X[subset], B[subset], op, steps), full[subset])
    for i in subset:
        assert np.array_equal(d.integrated_gradients(net, X[i], B[i], op, steps), full[i])


class TestAggregate:
    def make_encoder(self):
        tuples = (
            d.AuthorizationTuple(0, 0, (0, 5), (2,), (1,)),
            d.AuthorizationTuple(1, 1, (1, 6), (3,), (1,)),
        )
        return d.build_encoder(d.Dataset(2, 1, 1, tuples))

    def test_blocks_sum_absolute_values_and_peak_is_one(self):
        enc = self.make_encoder()  # widths (3, 3, 3)
        f = np.array([0.5, -0.5, 0.0, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
        scores = d.aggregate(f, enc)
        assert scores == pytest.approx([1.0, 0.2, 0.0])

    def test_zero_block_stays_exactly_zero(self):
        enc = self.make_encoder()
        scores = d.aggregate(np.zeros(9), enc)
        assert np.all(scores == 0.0)

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            d.aggregate(np.zeros(4), self.make_encoder())


class TestExplain:
    def test_local_scores_normalized(self, trained):
        net, enc, dset = trained
        store = d.build_store(dset)
        t = dset.tuples[0]
        attr = d.local_explain(net, enc, store, t.uid, t.rid, 0, steps=32)
        assert attr.metadata_scores.max() == pytest.approx(1.0)
        assert np.all(attr.metadata_scores >= 0.0)
        assert attr.metadata_names == ("umeta0", "umeta1", "umeta2", "umeta3",
                                       "rmeta0", "rmeta1", "rmeta2", "rmeta3")
        assert attr.baseline == "zero"

    def test_global_deterministic(self, trained):
        net, enc, dset = trained
        a = d.global_explain(net, enc, dset, 0, sample_n=20, seed=3, steps=16)
        b = d.global_explain(net, enc, dset, 0, sample_n=20, seed=3, steps=16)
        assert np.array_equal(a.metadata_scores, b.metadata_scores)

    def test_global_insufficient_class_members(self, trained):
        net, enc, dset = trained
        with pytest.raises(ConfigError, match="available"):
            d.global_explain(net, enc, dset, 0, sample_n=10 ** 6)

    @pytest.mark.parametrize(
        "op, sample_n, message",
        [(2, 5, "operation index 2"), (9, 5, "operation index 9"),
         (-1, 5, "operation index -1"),
         (0, 0, "sample size"), (0, -2, "sample size"), (0, 1.5, "sample size"),
         (0, True, "sample size"), (0, "3", "sample size"), (0, 3.0, "sample size")],
    )
    def test_global_bad_op_or_sample_size_rejected(self, trained, op, sample_n, message):
        net, enc, dset = trained
        assert dset.num_ops == 2
        with pytest.raises(ConfigError, match=message):
            d.global_explain(net, enc, dset, op, sample_n=sample_n, steps=4)

    @pytest.mark.parametrize("seed", [1.5, "3", True, None])
    def test_global_seed_must_be_whole(self, trained, seed):
        net, enc, dset = trained
        with pytest.raises(ConfigError, match="seed"):
            d.global_explain(net, enc, dset, 0, sample_n=5, seed=seed, steps=4)

    def test_global_dataset_and_model_ops_must_agree(self, trained):
        net, enc, dset = trained
        one_op = d.Dataset(4, 4, 1, [
            d.AuthorizationTuple(t.uid, t.rid, t.umeta, t.rmeta, t.ops[1:]) for t in dset.tuples
        ])
        message = "^dataset operation count 1 differs from the model's 2$"
        with pytest.raises(ConfigError, match=message):
            d.global_explain(net, enc, one_op, 1, sample_n=5, steps=4)

    def test_significance_order_sorted_descending(self, trained):
        net, enc, dset = trained
        attr = d.global_explain(net, enc, dset, 0, sample_n=20, steps=16)
        order = d.significance_order(attr)
        by_name = dict(zip(attr.metadata_names, attr.metadata_scores))
        ranked = [by_name[n] for n in order]
        assert ranked == sorted(ranked, reverse=True)
        assert sorted(order) == sorted(attr.metadata_names)


def network_grants(net, enc, row, op, threshold=0.5):
    nu = enc.num_user_meta
    return float(d.forward(net, d.encode_pair(enc, row[:nu], row[nu:]))[op]) > threshold


def pick_donor(net, enc, dset, op):
    for row in dset.M:
        if network_grants(net, enc, row, op):
            return row
    raise AssertionError("no granted tuple in fixture dataset")


class TestFlipStudy:
    def test_first_entry_zero_and_curve_in_unit_interval(self, trained):
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        attr = d.global_explain(net, enc, dset, 0, sample_n=20, steps=16)
        curve = d.flip_study(net, enc, dset, 0, donor, d.significance_order(attr))
        assert curve.fractions[0] == 0.0
        assert all(0.0 <= f <= 1.0 for f in curve.fractions)
        assert len(curve.fractions) == len(curve.replaced) + 1

    def test_replacing_everything_reaches_one(self, trained):
        # after every column holds the donor's values, all rows equal the
        # donor row, which is granted by construction
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        order = list(enc.names)
        curve = d.flip_study(net, enc, dset, 0, donor, order)
        assert curve.fractions[-1] == 1.0

    @pytest.mark.parametrize("op", [2, -1, 1.5, 1.0])
    def test_op_out_of_range_rejected(self, trained, op):
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        with pytest.raises(ConfigError, match=f"^operation index {op} out of range$"):
            d.flip_study(net, enc, dset, op, donor, list(enc.names))

    def test_denied_donor_rejected(self, trained):
        net, enc, dset = trained
        denied = next(row for row in dset.M if not network_grants(net, enc, row, 0))
        with pytest.raises(ConfigError, match="donor"):
            d.flip_study(net, enc, dset, 0, denied, list(enc.names))


def side_based_flip_study(net, enc, dset, op, donor, order, threshold=0.5):
    """flip_study on separate user and resource matrices."""
    nu = enc.num_user_meta
    U, R = dset.M[:, :nu].copy(), dset.M[:, nu:].copy()
    donor_u, donor_r = donor[:nu], donor[nu:]
    denied = d.forward(net, d.encode_positions(enc, np.hstack((U, R))))[:, op] <= threshold
    U, R = U[denied], R[denied]
    fractions = [0.0]
    for name in order:
        col = int(name[5:])
        if name.startswith("umeta"):
            U[:, col] = donor_u[col]
        else:
            R[:, col] = donor_r[col]
        probs = d.forward(net, d.encode_positions(enc, np.hstack((U, R))))[:, op]
        fractions.append(float(np.mean(probs > threshold)))
    return d.FlipCurve(tuple(order), tuple(fractions))


def side_based_insignificance(net, enc, row, donor, op, score_threshold, steps):
    """insignificance_check on separate user and resource vectors."""
    nu = enc.num_user_meta
    x = d.encode_pair(enc, row[:nu], row[nu:])
    scores = d.aggregate(d.integrated_gradients(net, x, np.zeros_like(x), op, steps), enc)
    umeta, rmeta = list(row[:nu]), list(row[nu:])
    for name, s in zip(enc.names, scores):
        if s < score_threshold:
            col = int(name[5:])
            if name.startswith("umeta"):
                umeta[col] = donor[col]
            else:
                rmeta[col] = donor[nu + col]
    after = d.encode_pair(enc, umeta, rmeta)
    return (d.forward(net, x)[op] > 0.5) == (d.forward(net, after)[op] > 0.5)


class TestSideBasedOracle:
    def test_flip_study(self, trained):
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        attr = d.global_explain(net, enc, dset, 0, sample_n=20, steps=16)
        for order in (d.significance_order(attr), list(enc.names)[::-1]):
            want = side_based_flip_study(net, enc, dset, 0, donor, order)
            assert d.flip_study(net, enc, dset, 0, donor, order) == want

    def test_insignificance_check(self, trained):
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        cases = [(row, s) for row in dset.M[:40] for s in (0.05, 0.3, 0.7, 1.1)]
        got = [d.insignificance_check(net, enc, row, donor, 0, s, steps=8) for row, s in cases]
        want = [side_based_insignificance(net, enc, row, donor, 0, s, 8) for row, s in cases]
        assert got == want
        assert not all(got)  # some replacement moved a decision

    def test_other_layout_rejected(self, trained):
        # same number of positions, split 5 + 3 instead of the encoder's 4 + 4
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        moved = [d.AuthorizationTuple(t.uid, t.rid, t.umeta + t.rmeta[:1], t.rmeta[1:], t.ops)
                 for t in dset.tuples]
        other = d.Dataset(5, 3, dset.num_ops, tuple(moved))
        for call in (
            lambda: d.global_explain(net, enc, other, 0, sample_n=5, steps=4),
            lambda: d.flip_study(net, enc, other, 0, donor, list(enc.names)),
        ):
            with pytest.raises(ConfigError, match="encoder positions"):
                call()

    @pytest.mark.parametrize(
        "bad", [np.arange(7), np.arange(9), np.arange(16).reshape(2, 8)],
        ids=["7 positions", "9 positions", "two rows"],
    )
    def test_other_row_rejected(self, trained, bad):
        net, enc, dset = trained
        donor, row = pick_donor(net, enc, dset, 0), dset.M[0]
        message = r"^a pair row holds 8 positions, not \(\d+,( \d+)?\)$"
        for call in (
            lambda: d.flip_study(net, enc, dset, 0, bad, list(enc.names)),
            lambda: d.insignificance_check(net, enc, bad, donor, 0, steps=4),
            lambda: d.insignificance_check(net, enc, row, bad, 0, steps=4),
        ):
            with pytest.raises(ConfigError, match=message):
                call()

    def test_unknown_name_still_rejected(self, trained):
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        with pytest.raises(ConfigError, match="unknown metadata name 'xmeta0'"):
            d.flip_study(net, enc, dset, 0, donor, ["xmeta0"])


class TestInsignificance:
    def test_replacing_nothing_keeps_decision(self, trained):
        # score_threshold 0 replaces no metadata at all
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        assert d.insignificance_check(
            net, enc, dset.M[0], donor, 0, score_threshold=0.0, steps=8
        )

    def test_full_replacement_moves_to_donor_decision(self, trained):
        # threshold above 1 replaces every column with the donor's values
        net, enc, dset = trained
        donor = pick_donor(net, enc, dset, 0)
        denied = next(row for row in dset.M if not network_grants(net, enc, row, 0))
        changed = not d.insignificance_check(
            net, enc, denied, donor, 0, score_threshold=1.1, steps=8
        )
        assert changed


class TestCsv:
    def test_attribution_csv(self, trained):
        net, enc, dset = trained
        store = d.build_store(dset)
        t = dset.tuples[0]
        attr = d.local_explain(net, enc, store, t.uid, t.rid, 0, steps=8)
        lines = attribution_to_csv(attr).strip().split("\n")
        assert lines[0] == "metadata_name,normalized_score"
        assert len(lines) == 1 + len(attr.metadata_names)
        name, score = lines[1].split(",")
        assert name == "umeta0"
        float(score)

    def test_flip_curve_csv(self):
        curve = d.FlipCurve(replaced=("umeta1", "rmeta0"), fractions=(0.0, 0.25, 1.0))
        text = flip_curve_to_csv(curve)
        assert text == (
            "step,metadata_replaced,fraction_granted\n"
            "0,,0.000000\n"
            "1,umeta1,0.250000\n"
            "2,rmeta0,1.000000\n"
        )
