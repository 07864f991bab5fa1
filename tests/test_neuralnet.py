import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
import dlbac.neuralnet as nn
from dlbac.errors import ConfigError, FormatError
from dlbac.neuralnet import TILE_ROWS, EarlyStopper, _sigmoid
from dlbac.rng import SplitMix64


def tiny_net(input_width=3, num_ops=2, hidden=(4,), seed=0):
    return d.init_network(
        d.NetworkConfig(
            input_width=input_width, num_ops=num_ops, hidden_layers=hidden,
            init_seed=seed,
        )
    )


def identity_net():
    """1-1-1 network computing sigmoid(x): unit weights, zero biases."""
    cfg = d.NetworkConfig(input_width=1, num_ops=1, hidden_layers=(1,), init_seed=0)
    net = d.init_network(cfg)
    net.weights[0][:] = 1.0
    net.weights[1][:] = 1.0
    net.biases[0][:] = 0.0
    net.biases[1][:] = 0.0
    return net


SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))  # 0.7310585786300049


class TestInit:
    def test_shapes_follow_widths(self):
        net = tiny_net(input_width=5, num_ops=3, hidden=(7, 2))
        assert [W.shape for W in net.weights] == [(5, 7), (7, 2), (2, 3)]
        assert [b.shape for b in net.biases] == [(7,), (2,), (3,)]

    def test_biases_start_at_zero(self):
        net = tiny_net()
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_weight_scale_tracks_fan_in(self):
        cfg = d.NetworkConfig(input_width=800, num_ops=1, hidden_layers=(400,))
        net = d.init_network(cfg)
        assert np.std(net.weights[0]) == pytest.approx(math.sqrt(2 / 800), rel=0.1)
        assert np.std(net.weights[1]) == pytest.approx(math.sqrt(2 / 400), rel=0.1)

    def test_same_seed_same_weights(self):
        a, b = tiny_net(seed=5), tiny_net(seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_default_hidden_stack(self):
        cfg = d.NetworkConfig(input_width=10, num_ops=4)
        assert cfg.widths == (10, 256, 128, 64, 32, 4)


class TestForward:
    def test_identity_net_computes_sigmoid(self):
        net = identity_net()
        assert d.forward(net, np.array([1.0]))[0] == pytest.approx(SIGMOID_1, abs=1e-12)

    def test_relu_blocks_negative_input(self):
        # hidden relu clamps -1 to 0, output sees z=0 -> 0.5
        net = identity_net()
        assert d.forward(net, np.array([-1.0]))[0] == 0.5

    def test_outputs_in_unit_interval(self):
        net = tiny_net()
        X = np.random.default_rng(0).normal(size=(50, 3))
        P = d.forward(net, X)
        assert P.shape == (50, 2)
        assert np.all((P > 0) & (P < 1))

    def test_matrix_matches_vector_rows(self):
        net = tiny_net()
        X = np.random.default_rng(1).normal(size=(10, 3))
        P = d.forward(net, X)
        for i in range(10):
            assert np.allclose(P[i], d.forward(net, X[i]), atol=1e-12)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ConfigError):
            d.forward(tiny_net(), np.array([1.0, np.nan, 0.0]))

    def test_rejects_wrong_width(self):
        with pytest.raises(ConfigError):
            d.forward(tiny_net(), np.zeros(4))

    @pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((2, 4, 3))], ids=["scalar", "3-d"])
    def test_rejects_other_ranks(self, x):
        with pytest.raises(ConfigError, match="vector or a matrix"):
            d.forward(tiny_net(), x)


class TestLoss:
    def test_perfect_half_probability_gives_ln2(self):
        p = np.full((3, 2), 0.5)
        y = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        assert d.loss(p, y) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_weighted_entries(self):
        # single grant entry at p=0.5 with weight 3: loss = 3 ln 2
        assert d.loss(np.array([[0.5]]), np.array([[1.0]]), (3.0, 1.0)) == pytest.approx(
            3.0 * math.log(2.0), abs=1e-12
        )
        # single deny entry at p=0.5 with deny weight 3
        assert d.loss(np.array([[0.5]]), np.array([[0.0]]), (1.0, 3.0)) == pytest.approx(
            3.0 * math.log(2.0), abs=1e-12
        )

    def test_clamped_probabilities_stay_finite(self):
        val = d.loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert math.isfinite(val)
        assert val == pytest.approx(-math.log(1e-12), rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            d.loss(np.zeros((2, 1)), np.zeros((1, 2)))


def numeric_param_grads(net, X, Y, weights, h=1e-6):
    """Central finite differences of the loss over every parameter."""
    grads = []
    for p in net.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = d.loss(d.forward(net, X), Y, weights)
            p[idx] = orig - h
            down = d.loss(d.forward(net, X), Y, weights)
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / denom)


class TestBackward:
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 4.0), (2.5, 0.5)])
    def test_matches_finite_differences(self, weights):
        rng = np.random.default_rng(3)
        net = tiny_net(input_width=4, num_ops=2, hidden=(5, 3), seed=8)
        for b in net.biases:
            # zero biases can leave a pre-activation exactly on the relu
            # kink, where finite differences see a one-sided slope
            b += rng.normal(0.1, 0.05, size=b.shape)
        X = rng.normal(size=(6, 4))
        Y = (rng.random((6, 2)) > 0.5).astype(float)
        gw, gb = d.backward(net, X, Y, weights)
        analytic = []
        for W, b in zip(gw, gb):
            analytic.append(W)
            analytic.append(b)
        numeric = numeric_param_grads(net, X, Y, weights)
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4

    def test_vector_input_promoted(self):
        net = tiny_net()
        gw, gb = d.backward(net, np.ones(3), np.array([1.0, 0.0]))
        assert gw[0].shape == net.weights[0].shape
        assert gb[-1].shape == net.biases[-1].shape

    @pytest.mark.parametrize(
        "x", [np.zeros(4), np.zeros((2, 2, 3)), np.array([0.0, np.nan, 0.0])],
        ids=["wide-vector", "3-d", "nan"],
    )
    def test_bad_input_rejected(self, x):
        with pytest.raises(ConfigError):
            d.backward(tiny_net(), x, np.zeros(2))


class TestInputGradient:
    def test_identity_net_gradient_at_one(self):
        # d sigmoid(x) / dx at x=1 is sigmoid(1)(1-sigmoid(1))
        net = identity_net()
        g = d.input_gradient(net, np.array([1.0]), 0)
        assert g[0] == pytest.approx(SIGMOID_1 * (1 - SIGMOID_1), abs=1e-12)

    def test_matches_finite_differences(self):
        net = tiny_net(input_width=5, num_ops=3, hidden=(6,), seed=2)
        x = np.random.default_rng(4).normal(size=5) + 0.3
        for op in range(3):
            g = d.input_gradient(net, x, op)
            num = np.zeros(5)
            h = 1e-6
            for i in range(5):
                up, down = x.copy(), x.copy()
                up[i] += h
                down[i] -= h
                num[i] = (d.forward(net, up)[op] - d.forward(net, down)[op]) / (2 * h)
            assert rel_err(g, num) < 1e-4

    def test_batch_rows_match_single_calls(self, batch_invariant_blas):
        net = tiny_net()
        batch_invariant_blas(net)
        X = np.random.default_rng(5).normal(size=(7, 3))
        G = d.input_gradient(net, X, 1)
        for i in range(7):
            assert np.array_equal(G[i], d.input_gradient(net, X[i], 1))

    def test_op_out_of_range(self):
        with pytest.raises(ConfigError):
            d.input_gradient(tiny_net(), np.zeros(3), 2)

    @pytest.mark.parametrize(
        "x",
        [np.zeros(4), np.zeros((2, 2)), np.array([0.0, np.nan, 0.0]),
         np.array([[0.0, 0.0, np.inf]]), np.zeros((2, 2, 3))],
        ids=["wide-vector", "narrow-matrix", "nan", "inf", "3-d"],
    )
    def test_bad_input_rejected(self, x):
        with pytest.raises(ConfigError):
            d.input_gradient(tiny_net(), x, 0)


# Adam over lists of arrays, each step building fresh arrays: the reference
# that the in-place `adam_step` must match bit for bit.
@dataclass
class ListAdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_oracle_adam(params: list[np.ndarray]) -> ListAdamState:
    return ListAdamState(
        m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params]
    )


def oracle_adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: ListAdamState,
    lr: float,
) -> tuple[list[np.ndarray], ListAdamState]:
    """One bias-corrected Adam update; inputs are not mutated."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("params, grads, and state shapes must align")
    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m2 = b1 * m + (1.0 - b1) * g
        v2 = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m2 / (1.0 - b1**t)
        v_hat = v2 / (1.0 - b2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, ListAdamState(new_m, new_v, t, b1, b2, eps)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update lr * g/|g| (up to eps)
        flat = np.array([1.0])
        grad = np.array([0.5])
        state = d.AdamState(1)
        d.adam_step(flat, grad, state, lr=0.001)
        assert flat[0] == pytest.approx(1.0 - 0.001, rel=1e-6)
        assert state.t == 1
        assert np.array_equal(grad, [0.5])

    def test_inputs_not_mutated(self):
        params = [np.array([1.0, 2.0])]
        grads = [np.array([0.3, -0.3])]
        state = init_oracle_adam(params)
        oracle_adam_step(params, grads, state, 0.01)
        assert np.array_equal(params[0], [1.0, 2.0])
        assert state.t == 0 and np.all(state.m[0] == 0.0)

    def test_converges_on_quadratic(self):
        # minimize (theta - 3)^2 by following its gradient
        flat = np.array([0.0])
        state = d.AdamState(1)
        for _ in range(4000):
            d.adam_step(flat, 2.0 * (flat - 3.0), state, lr=0.01)
        assert flat[0] == pytest.approx(3.0, abs=1e-3)

    def test_default_hyperparameters(self):
        assert (nn.BETA1, nn.BETA2, nn.EPS) == (0.9, 0.999, 1e-8)
        oracle = init_oracle_adam([np.zeros(1)])
        assert (oracle.beta1, oracle.beta2, oracle.eps) == (nn.BETA1, nn.BETA2, nn.EPS)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_in_place_adam_matches_oracle_bit_for_bit(data):
    size = data.draw(st.integers(1, 40), label="size")
    steps = data.draw(st.integers(1, 25), label="steps")
    decay_at = data.draw(st.integers(1, steps), label="decay_at")
    lr0 = data.draw(st.sampled_from([1e-3, 0.01, 0.3]), label="lr0")
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)
    vectors = st.lists(values, min_size=size, max_size=size)
    flat = np.array(data.draw(vectors, label="params"))
    params, oracle = [flat.copy()], init_oracle_adam([flat])
    state = d.AdamState(size)
    for k in range(steps):
        grad = np.array(data.draw(vectors))
        lr = lr0 if k < decay_at else lr0 / 10.0  # train's step decay
        params, oracle = oracle_adam_step(params, [grad], oracle, lr)
        d.adam_step(flat, grad, state, lr)
        assert state.t == oracle.t
        assert np.array_equal(flat, params[0])
        assert np.array_equal(state.m, oracle.m[0])
        assert np.array_equal(state.v, oracle.v[0])


class TestEarlyStopper:
    def test_stops_after_patience_without_improvement(self):
        s = EarlyStopper(patience=2)
        assert s.update(1.0) is False
        assert s.update(1.1) is False
        assert s.update(1.2) is True
        assert s.best_epoch == 0

    def test_improvement_resets_counter(self):
        s = EarlyStopper(patience=2)
        for v in [1.0, 1.1, 0.9, 1.0]:
            assert s.update(v) is False
        assert s.update(1.0) is True
        assert s.best_epoch == 2

    def test_equal_value_is_not_improvement(self):
        s = EarlyStopper(patience=1)
        s.update(1.0)
        assert s.update(1.0) is True


def trainable_dataset(seed=3):
    cfg = d.SynthConfig(
        num_users=60, num_resources=60, num_user_meta=4, num_res_meta=4,
        num_rules=4, num_ops=2, value_set_sizes=(6,) * 8, seed=seed,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    return d.synthesize(cfg)[0]


class TestTrain:
    def test_loss_decreases(self):
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        net = d.init_network(
            d.NetworkConfig(enc.width, dset.num_ops, hidden_layers=(16, 8))
        )
        tc = d.TrainConfig(epochs=8, early_stop_patience=8, val_fraction=0.0)
        trained, report = d.train(net, dset, enc, tc)
        assert report.train_losses[-1] < report.train_losses[0]
        assert report.stopped_epoch == 8

    def test_learning_rate_decays_by_ten_every_decay_epochs(self):
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(enc.width, dset.num_ops, (8,)))
        tc = d.TrainConfig(
            epochs=7, lr_decay_epochs=3, early_stop_patience=50, val_fraction=0.0
        )
        _, report = d.train(net, dset, enc, tc)
        assert report.learning_rates == [
            0.001, 0.001, 0.001, 0.0001, 0.0001, 0.0001, 0.00001
        ]

    def test_early_stopping_halts(self):
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(enc.width, dset.num_ops, (8,)))
        tc = d.TrainConfig(epochs=60, lr0=0.5, early_stop_patience=2, val_fraction=0.2)
        _, report = d.train(net, dset, enc, tc)
        assert report.stopped_epoch < 60
        assert report.best_epoch <= report.stopped_epoch - 1

    def test_deterministic(self):
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        cfg = d.NetworkConfig(enc.width, dset.num_ops, (8,), init_seed=1)
        tc = d.TrainConfig(epochs=3, early_stop_patience=5)
        a, _ = d.train(d.init_network(cfg), dset, enc, tc)
        b, _ = d.train(d.init_network(cfg), dset, enc, tc)
        assert d.save_model(a) == d.save_model(b)

    def test_returned_network_has_best_epoch_params(self):
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(enc.width, dset.num_ops, (8,)))
        tc = d.TrainConfig(epochs=10, lr0=0.3, early_stop_patience=3, val_fraction=0.2)
        trained, report = d.train(net, dset, enc, tc)
        assert min(report.val_losses) == report.val_losses[report.best_epoch]

    def test_returned_network_is_a_snapshot_of_the_best_epoch(self):
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(enc.width, dset.num_ops, (8,)))
        before = net.flat.copy()
        tc = d.TrainConfig(epochs=10, lr0=0.3, early_stop_patience=3, val_fraction=0.2)
        trained, report = d.train(net, dset, enc, tc)
        assert np.array_equal(net.flat, before)
        # epochs after the best one moved the working parameters on
        assert report.best_epoch < report.stopped_epoch - 1
        # the validation carve-out, drawn as train draws it
        order = SplitMix64(tc.shuffle_seed).permutation(len(dset))
        val = order[: int(tc.val_fraction * len(order))]
        X = d.encode_dataset(enc, dset)[val]
        Y = dset.Y.astype(np.float64)[val]
        assert d.loss(d.forward(trained, X), Y) == report.val_losses[report.best_epoch]


def test_train_with_oracle_adam_writes_the_same_model(monkeypatch):
    dset = trainable_dataset()
    enc = d.build_encoder(dset)
    cfg = d.NetworkConfig(enc.width, dset.num_ops, (16, 8), init_seed=2)
    # the lr decays mid-run, and epochs after the best one leave a snapshot
    tc = d.TrainConfig(
        epochs=8, lr0=0.3, lr_decay_epochs=2, early_stop_patience=3, val_fraction=0.2
    )
    expected, _ = d.train(d.init_network(cfg), dset, enc, tc)
    calls = []

    def oracle_in_place(flat, grad, state, lr):
        listed = ListAdamState([state.m], [state.v], state.t)
        (new,), listed = oracle_adam_step([flat], [grad], listed, lr)
        flat[...], state.m[...], state.v[...] = new, listed.m[0], listed.v[0]
        state.t = listed.t
        calls.append(lr)

    monkeypatch.setattr(nn, "adam_step", oracle_in_place)
    got, report = d.train(d.init_network(cfg), dset, enc, tc)
    assert len(set(calls)) > 1 and report.best_epoch < report.stopped_epoch - 1
    assert d.save_model(got) == d.save_model(expected)


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def short_training():
    # Pins taken before training, forward and the gradient paths shared one
    # layer walk. The finite-difference and per-step IG oracles go through
    # the same walk, so they cannot see a drift that it introduces.
    dset = trainable_dataset()
    enc = d.build_encoder(dset)
    cfg = d.NetworkConfig(enc.width, dset.num_ops, (16, 8, 4), init_seed=4)
    tc = d.TrainConfig(epochs=3, early_stop_patience=5)
    net, _ = d.train(d.init_network(cfg), dset, enc, tc)
    return net, d.encode_dataset(enc, dset)


def test_short_training_and_its_network_outputs_are_pinned(short_training):
    net, X = short_training
    assert _sha16(d.save_model(net).encode()) == "21739ee9f625f134"
    outputs = [d.forward(net, X), d.forward(net, X[0])]
    assert _sha16(b"".join(o.tobytes() for o in outputs)) == "c85736e3138be158"


def test_short_training_input_gradients_are_pinned(short_training):
    # kept apart from the forward pin, so a change to the gradient's pass rule moves only this one
    net, X = short_training
    outputs = []
    for op in range(net.config.num_ops):
        outputs += [d.input_gradient(net, X, op), d.input_gradient(net, X[0], op)]
    assert _sha16(b"".join(o.tobytes() for o in outputs)) == "95b41febe8053182"


def test_short_training_integrated_gradients_are_pinned(short_training):
    # kept apart from the network pins, so a change to IG's pass rule moves only this one
    net, X = short_training
    outputs = [
        d.integrated_gradients(net, X, np.zeros_like(X), op, steps=32)
        for op in range(net.config.num_ops)
    ]
    assert X.shape[0] * 32 > TILE_ROWS  # the IG passes span several batches
    assert _sha16(b"".join(o.tobytes() for o in outputs)) == "443cface5ebc40bf"


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 0),
            ("epochs", -3),
            ("batch_size", 0),
            ("batch_size", -4),
            ("lr_decay_epochs", 0),
            ("lr0", 0.0),
            ("lr0", float("nan")),
            ("lr0", float("inf")),
            ("early_stop_patience", 0),
            ("lr0", "a"),
            ("lr0", True),
            ("lr0", None),
            ("val_fraction", "a"),
            ("val_fraction", False),
            ("val_fraction", None),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            d.TrainConfig(**{field: value})

    def test_numpy_reals_accepted(self):
        tc = d.TrainConfig(lr0=np.float32(0.5), val_fraction=np.int64(0),
                           class_weights=(np.float64(2.0), 1))
        assert (tc.lr0, tc.val_fraction) == (0.5, 0)


@pytest.mark.parametrize(
    "call",
    [
        "NetworkConfig(3, 2).check_op(1.5)",
        "NetworkConfig(3, 2).check_op(True)",
        "NetworkConfig(2.5, 2)",
        "NetworkConfig(3, 2.0)",
        "NetworkConfig(3, 2, hidden_layers=(2.5,))",
        "NetworkConfig(3, 2, init_seed=-1)",
        "NetworkConfig(3, 2, init_seed=0.5)",
        "TrainConfig(epochs=1.5)",
        "TrainConfig(batch_size=2.5)",
        "TrainConfig(early_stop_patience=1.5)",
        "TrainConfig(lr_decay_epochs=1.5)",
        "TrainConfig(shuffle_seed=1.5)",
        "TrainConfig(class_weights=(1.0, 1.0, 1.0))",
        "TrainConfig(class_weights=(1.0,))",
        'TrainConfig(class_weights=("a", 1))',
        "TrainConfig(class_weights=((1.0, 2.0), 1.0))",
        "TrainConfig(class_weights=1.0)",
        "TrainConfig(class_weights=(True, 1.0))",
    ],
)
def test_malformed_network_and_training_values_are_refused(call):
    with pytest.raises(ConfigError):
        eval(call, vars(d))


def test_numpy_integers_are_whole_numbers():
    cfg = d.NetworkConfig(np.int64(3), np.int32(2), (np.int64(4),), init_seed=np.uint8(1))
    cfg.check_op(np.int64(1))
    d.TrainConfig(epochs=np.int64(2), class_weights=(np.float64(2.0), 1))


class TestFlatParameters:
    def test_weights_and_biases_are_views_in_file_order(self):
        net = tiny_net(input_width=3, num_ops=2, hidden=(4,))
        assert net.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in net.params()]))
        net.biases[0][1] = 7.0
        assert net.flat[3 * 4 + 1] == 7.0

    def test_given_buffer_is_used_without_copying(self):
        cfg = d.NetworkConfig(input_width=2, num_ops=1, hidden_layers=(2,))
        flat = np.arange(9, dtype=np.float64)
        net = d.Network(cfg, flat)
        assert net.flat is flat
        assert np.array_equal(net.weights[1], [[6.0], [7.0]])

    def test_init_load_and_train_start_parameters_on_a_cache_line(self):
        # numpy alone lands 0, 16 or 48 bytes past a line; eight sizes make luck unlikely
        dset = trainable_dataset()
        enc = d.build_encoder(dset)
        tc = d.TrainConfig(epochs=1, val_fraction=0.0)
        for hidden in range(3, 11):
            cfg = d.NetworkConfig(enc.width, dset.num_ops, (hidden,), init_seed=hidden)
            net = d.init_network(cfg)
            nets = [net, d.load_model(d.save_model(net)), d.train(net, dset, enc, tc)[0]]
            assert [n.flat.ctypes.data % 64 for n in nets] == [0, 0, 0]

    @pytest.mark.parametrize(
        "flat", [np.zeros(8), np.zeros(9, dtype=np.float32), np.zeros(18)[::2]]
    )
    def test_bad_buffer_rejected(self, flat):
        cfg = d.NetworkConfig(input_width=2, num_ops=1, hidden_layers=(2,))
        with pytest.raises(ConfigError):
            d.Network(cfg, flat)


class TestPersistence:
    def test_round_trip_bit_exact(self):
        net = tiny_net(input_width=6, num_ops=3, hidden=(5, 4), seed=11)
        loaded = d.load_model(d.save_model(net))
        assert loaded.config.widths == net.config.widths
        for a, b in zip(loaded.params(), net.params()):
            assert np.array_equal(a, b)

    def test_round_trip_bit_exact_at_float64_extremes(self):
        net = tiny_net()
        extremes = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        net.flat[: len(extremes)] = extremes
        net.flat[-len(extremes) :] = extremes[::-1]
        loaded = d.load_model(d.save_model(net))
        assert loaded.flat.tobytes() == net.flat.tobytes()

    # widths 3 4 2: lines 4-6 are the rows of W0, four values each
    @pytest.mark.parametrize("at", [4, 6])
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_wrong_value_count_on_a_weight_row_names_its_line(self, at, change):
        lines = d.save_model(tiny_net()).splitlines()
        row = lines[at - 1].split()
        lines[at - 1] = " ".join(row[:-1] if change == "drop" else row + row[:1])
        with pytest.raises(FormatError, match=f"^line {at}: expected 4 values$"):
            d.load_model("\n".join(lines) + "\n")

    def test_round_trip_preserves_forward(self):
        net = tiny_net()
        loaded = d.load_model(d.save_model(net))
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(d.forward(net, x), d.forward(loaded, x))

    def test_bad_header(self):
        with pytest.raises(FormatError):
            d.load_model("model v1\nwidths 1 1\n")

    def test_truncated_file(self):
        text = d.save_model(tiny_net())
        with pytest.raises(FormatError):
            d.load_model("\n".join(text.splitlines()[:-2]) + "\n")

    def test_cut_after_bias_header(self):
        lines = d.save_model(tiny_net()).splitlines()
        cut = next(i for i, ln in enumerate(lines) if ln.startswith("layer 0 bias"))
        with pytest.raises(FormatError):
            d.load_model("\n".join(lines[: cut + 1]) + "\n")

    def test_huge_widths_rejected_before_allocating(self):
        with pytest.raises(FormatError):
            d.load_model("dlbac-model v1\nwidths 1000000000 1000000 1\n")

    @pytest.mark.parametrize("widths", ["3 0 2", "0 4 2", "3 4 -2"])
    def test_non_positive_width_rejected(self, widths):
        text = d.save_model(tiny_net()).replace("widths 3 4 2", f"widths {widths}")
        with pytest.raises(FormatError, match="widths"):
            d.load_model(text)

    def test_float_beyond_float64_rejected(self):
        text = d.save_model(tiny_net()).replace("p-", "p+9999", 1)
        with pytest.raises(FormatError, match="bad float"):
            d.load_model(text)

    def test_bad_float_literal(self):
        text = d.save_model(tiny_net()).replace("0x1.", "0y1.", 1)
        with pytest.raises(FormatError):
            d.load_model(text)

    # widths 3 4 2: line 5 is the second weight row of layer 0, line 15 the last bias line
    @pytest.mark.parametrize("at", [5, 15])
    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_its_line(self, at, literal):
        lines = d.save_model(tiny_net()).splitlines()
        row = lines[at - 1].split()
        row[1] = literal
        lines[at - 1] = " ".join(row)
        with pytest.raises(FormatError, match=f"^line {at}: non-finite value$"):
            d.load_model("\n".join(lines) + "\n")

    def test_save_rejects_non_finite_parameter(self):
        net = tiny_net()
        net.biases[1][0] = np.inf
        with pytest.raises(ConfigError, match="finite"):
            d.save_model(net)


SMALL_MODEL_TEXT = d.save_model(tiny_net(input_width=3, num_ops=2, hidden=(2,), seed=5))


@settings(max_examples=300, deadline=None)
@given(
    cut=st.integers(0, len(SMALL_MODEL_TEXT)),
    at=st.integers(0, len(SMALL_MODEL_TEXT) - 1),
    char=st.characters(min_codepoint=9, max_codepoint=126),
    truncate=st.booleans(),
)
def test_damaged_model_file_loads_or_raises_format_error(cut, at, char, truncate):
    if truncate:
        text = SMALL_MODEL_TEXT[:cut]
    else:
        text = SMALL_MODEL_TEXT[:at] + char + SMALL_MODEL_TEXT[at + 1 :]
    try:
        net = d.load_model(text)
    except FormatError:
        return
    assert isinstance(net, d.Network)


def test_sigmoid_stable_at_extremes():
    z = np.array([-800.0, 800.0])
    out = _sigmoid(z)
    assert out[0] == 0.0 and out[1] == 1.0
    assert np.all(np.isfinite(out))


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The boolean-mask sigmoid that `_sigmoid` replaced, kept as its oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("shape", [(4,), (1, 4), (7,), (2381, 4), (6400, 4)])
@pytest.mark.parametrize("scale", [1.0, 40.0, 1e3])
def test_sigmoid_matches_the_masked_oracle_bit_for_bit(shape, scale):
    z = np.random.default_rng(shape[0]).normal(scale=scale, size=shape)
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_sigmoid_matches_the_masked_oracle_on_any_float(values):
    z = np.array(values + [0.0, -0.0, 745.0, -745.0, 1e300, -1e300])
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


@pytest.fixture(scope="module")
def trained_rows():
    dset = trainable_dataset()
    enc = d.build_encoder(dset)
    cfg = d.NetworkConfig(enc.width, dset.num_ops, (32, 16), init_seed=5)
    net, _ = d.train(d.init_network(cfg), dset, enc, d.TrainConfig(epochs=6))
    return net, d.encode_dataset(enc, dset)


class TestOneRowKernel:
    def test_one_row_agrees_with_its_row_of_a_batch(self, trained_rows, batch_invariant_blas):
        net, X = trained_rows
        batch_invariant_blas(net)
        rows = np.array([d.forward(net, x) for x in X])
        assert rows.tobytes() == d.forward(net, X).tobytes()
        assert rows.tobytes() == np.vstack([d.forward(net, x[None, :]) for x in X]).tobytes()

    def test_all_zero_row_is_the_bias_walk(self, trained_rows):
        net, X = trained_rows
        want = _sigmoid(nn._layers(net, net.biases[0])[-1])
        assert d.forward(net, np.zeros(X.shape[1])).tobytes() == want.tobytes()

    def test_any_finite_row_matches_the_dense_product(self, trained_rows):
        net, X = trained_rows
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=X.shape[1]) * (rng.random(X.shape[1]) < 0.4)
            dense = _sigmoid(nn._layers(net, x @ net.weights[0] + net.biases[0])[-1])
            assert np.abs(d.forward(net, x) - dense).max() <= 1e-15


def test_a_batch_past_8192_rows_gives_each_row_its_own_bits(batch_invariant_blas):
    # OpenBLAS 0.3.31 multiplies 8,192 rows and more in another order than a
    # tile of at most TILE_ROWS rows, so only the tile loop keeps these bits
    rng = np.random.default_rng(18)
    n, fields, values = 9000, 16, 21
    net = d.init_network(d.NetworkConfig(fields * values, 4, init_seed=18))
    batch_invariant_blas(net)
    C = np.arange(fields) * values + rng.integers(0, values, (n, fields))
    X = np.zeros((n, fields * values))
    X[np.arange(n)[:, None], C] = 1.0
    P = d.forward(net, X)
    assert P.tobytes() == d.forward_active(net, C).tobytes()
    for i in rng.choice(n, 40, replace=False):
        assert d.forward(net, X[i]).tobytes() == P[i].tobytes()


def _columns(X):
    """The active columns of 0/1 rows, padded at the end with -1."""
    width = max([int(row.sum()) for row in X], default=0)
    C = np.full((len(X), width), -1, dtype=np.intp)
    for i, row in enumerate(X):
        ones = np.flatnonzero(row)
        C[i, : len(ones)] = ones
    return C


@pytest.fixture(scope="module")
def binary_rows():
    dset = trainable_dataset()
    enc = d.build_encoder(d.Dataset(4, 4, 2, dset.tuples[:10]), "binary")  # unseen values later
    cfg = d.NetworkConfig(enc.width, dset.num_ops, (32, 16), init_seed=6)
    return d.init_network(cfg), d.encode_dataset(enc, dset)


class TestForwardActive:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("scheme", ["onehot", "binary"])
    def test_rows_equal_a_dense_forward_of_the_same_batch(
        self, trained_rows, binary_rows, batch_invariant_blas, scheme, data
    ):
        net, X = trained_rows if scheme == "onehot" else binary_rows
        batch_invariant_blas(net)
        n = data.draw(st.integers(1, 5) | st.integers(1, nn.TILE_ROWS))
        idx = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, len(X), n)
        got = d.forward_active(net, _columns(X[idx]))
        assert got.shape == (n, net.config.num_ops)
        assert got.tobytes() == d.forward(net, X[idx]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("scheme", ["onehot", "binary"])
    def test_rows_equal_their_rows_of_one_dense_forward(
        self, trained_rows, binary_rows, batch_invariant_blas, scheme, data
    ):
        # with repeats, so batches cross TILE_ROWS; a last tile may hold one row
        net, X = trained_rows if scheme == "onehot" else binary_rows
        batch_invariant_blas(net)
        n = data.draw(st.sampled_from([1, 2, 3, nn.TILE_ROWS, nn.TILE_ROWS + 1])
                      | st.integers(1, nn.TILE_ROWS + 76))
        idx = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, len(X), n)
        got = d.forward_active(net, _columns(X[idx]))
        assert got.tobytes() == d.forward(net, X)[idx].tobytes()

    @pytest.mark.parametrize("n, seen", [
        (1, [4]), (3, [4]), (5, [8]), (1024, [1024]), (1025, [1024, 4]),
        (2100, [1024, 1024, 52]),
    ])
    def test_layers_see_whole_blocks_of_at_most_a_tile(self, trained_rows, monkeypatch, n, seen):
        net, X = trained_rows
        rows, layers = [], nn._layers
        monkeypatch.setattr(nn, "_layers", lambda net, z0: rows.append(len(z0)) or layers(net, z0))
        C = _columns(X[np.arange(n) % len(X)])
        assert d.forward_active(net, C).shape == (n, net.config.num_ops)
        assert d.forward(net, X[np.arange(n) % len(X)]).shape == (n, net.config.num_ops)
        assert rows == seen + seen

    @pytest.mark.parametrize("ops", [4, 3])
    def test_every_network_pads_to_whole_blocks(self, monkeypatch, ops):
        net = tiny_net(input_width=6, num_ops=ops, hidden=(8, 5))
        rows, layers = [], nn._layers
        monkeypatch.setattr(nn, "_layers", lambda net, z0: rows.append(len(z0)) or layers(net, z0))
        for n in (1, 2, 3, 5):
            d.forward_active(net, np.zeros((n, 2), dtype=np.intp))
        assert rows == [4, 4, 4, 8]

    def test_an_empty_row_is_the_bias_walk(self, binary_rows):
        net, X = binary_rows
        want = d.forward(net, np.zeros((2, X.shape[1])))
        assert d.forward_active(net, np.full((2, 3), -1, dtype=np.intp)).tobytes() == want.tobytes()
        assert d.forward_active(net, np.zeros((2, 0), dtype=np.intp)).tobytes() == want.tobytes()

    def test_padding_is_masked_only_where_a_row_holds_it(self, binary_rows, batch_invariant_blas):
        net, X = binary_rows
        batch_invariant_blas(net)
        C = _columns(X[:40])
        assert (C < 0).any() and not (C < 0).all()
        want = d.forward(net, X[:40])
        assert d.forward_active(net, C).tobytes() == want.tobytes()
        full = C[(C >= 0).all(axis=1)]
        assert d.forward_active(net, full).tobytes() == d.forward(
            net, X[:40][(C >= 0).all(axis=1)]).tobytes()

    def test_no_rows(self, trained_rows):
        net, X = trained_rows
        assert d.forward_active(net, np.zeros((0, 8), dtype=np.intp)).shape == (0, 2)
        assert d.forward(net, X[:0]).shape == (0, 2)


def wide_dataset():
    """2,592 tuples: more training rows than a tile, whatever the batch size."""
    cfg = d.SynthConfig(
        num_users=400, num_resources=400, num_user_meta=4, num_res_meta=4,
        num_rules=6, num_ops=2, value_set_sizes=(6,) * 8, seed=5,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    return d.synthesize(cfg)[0]


@pytest.fixture(scope="module")
def position_nets():
    """Per scheme, a network and an encoder that saw 30 rows: other rows hold unseen values."""
    dset = wide_dataset()
    seen = d.Dataset._of(4, 4, 2, dset.ids[:30], dset.M[:30], dset.Y[:30])
    out = {}
    for seed, scheme in enumerate(("onehot", "binary")):
        enc = d.build_encoder(seen, scheme)
        out[scheme] = d.init_network(d.NetworkConfig(enc.width, 2, (32, 16), init_seed=seed)), enc
    return out, dset.M


class TestForwardPositions:
    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(["onehot", "binary"]),
        n=st.sampled_from([0, 1, TILE_ROWS - 1, TILE_ROWS + 1, 2 * TILE_ROWS + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_a_forward_of_the_encoded_rows(self, position_nets, scheme, n, seed):
        nets, M = position_nets
        net, enc = nets[scheme]
        rows = M[np.random.default_rng(seed).choice(len(M), n)]  # random rows, random order
        want = d.forward(net, d.encode_positions(enc, rows))
        got = d.forward_positions(net, enc, rows)
        assert got.shape == (n, 2) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cols", [7, 9])
    def test_rows_of_another_width_rejected(self, position_nets, cols):
        nets, M = position_nets
        net, enc = nets["onehot"]
        with pytest.raises(ConfigError, match="8 columns"):
            d.forward_positions(net, enc, np.zeros((3, cols), dtype=np.int64))
        with pytest.raises(ConfigError, match="8 columns"):
            d.forward_positions(net, enc, M[0])  # a vector is not a matrix of rows

    def test_encoder_of_another_width_rejected(self, position_nets):
        nets, M = position_nets
        with pytest.raises(ConfigError, match="encoder width"):
            d.forward_positions(nets["onehot"][0], nets["binary"][1], M[:3])


def _other_layout(dset):
    """`dset` with one user position moved to the resources: the same width, another layout."""
    return d.Dataset._of(dset.num_user_meta - 1, dset.num_res_meta + 1, dset.num_ops,
                         dset.ids, dset.M, dset.Y)


@pytest.mark.parametrize(
    "call",
    [
        lambda net, enc, dset: d.evaluate(net, enc, dset),
        lambda net, enc, dset: d.soft_labels(net, enc, dset, 0),
        lambda net, enc, dset: d.train(net, dset, enc, d.TrainConfig(epochs=1)),
    ],
    ids=["evaluate", "soft_labels", "train"],
)
def test_bulk_scorers_reject_a_dataset_of_another_layout(call):
    dset = trainable_dataset()
    enc = d.build_encoder(dset)
    net = d.init_network(d.NetworkConfig(enc.width, dset.num_ops, (8,)))
    with pytest.raises(ConfigError, match="do not match encoder positions"):
        call(net, enc, _other_layout(dset))


def test_train_rejects_an_encoder_of_another_width():
    dset = trainable_dataset()
    enc = d.build_encoder(dset)
    net = d.init_network(d.NetworkConfig(enc.width + 1, dset.num_ops, (8,)))
    with pytest.raises(ConfigError, match="encoder width"):
        d.train(net, dset, enc, d.TrainConfig(epochs=1))


def _wide_training(scheme, batch_size):
    dset = wide_dataset()
    enc = d.build_encoder(dset, scheme)
    cfg = d.NetworkConfig(enc.width, dset.num_ops, (16, 8), init_seed=1)
    tc = d.TrainConfig(epochs=2, batch_size=batch_size, early_stop_patience=5, val_fraction=0.1)
    assert len(dset) - int(tc.val_fraction * len(dset)) > max(TILE_ROWS, batch_size)
    return d.save_model(d.train(d.init_network(cfg), dset, enc, tc)[0])


# Models pinned before `train` encoded its rows a tile at a time: a batch of
# 7 leaves tiles of 1,022 rows and a short last batch of 2 rows.
@pytest.mark.parametrize(
    "scheme, want", [("onehot", "8fba816b4b808f18"), ("binary", "8fcdccbdb2b9845d")]
)
def test_training_in_encoded_tiles_is_pinned(scheme, want):
    assert _sha16(_wide_training(scheme, 7).encode()) == want


# A batch of 1,500 rows is a tile of its own.  Its products are large enough
# for OpenBLAS to spread over threads, and the onehot model's bits then
# follow the thread count, so it is compared with a run whose single tile
# holds every training row, as the whole encoded training set did.
@pytest.mark.parametrize("scheme", ["onehot", "binary"])
@pytest.mark.parametrize("batch_size", [7, 1500])
def test_training_in_encoded_tiles_equals_one_whole_tile(monkeypatch, scheme, batch_size):
    tiled = _wide_training(scheme, batch_size)
    monkeypatch.setattr(nn, "TILE_ROWS", 10**6)
    assert _wide_training(scheme, batch_size) == tiled
