import math

import numpy as np
import pytest

import dlbac as d
from dlbac.errors import ConfigError, FormatError
from dlbac.neuralnet import EarlyStopper, _sigmoid
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

    def test_batch_rows_match_single_calls(self):
        net = tiny_net()
        X = np.random.default_rng(5).normal(size=(7, 3))
        G = d.input_gradient(net, X, 1)
        for i in range(7):
            assert np.allclose(G[i], d.input_gradient(net, X[i], 1), atol=1e-12)

    def test_op_out_of_range(self):
        with pytest.raises(ConfigError):
            d.input_gradient(tiny_net(), np.zeros(3), 2)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update lr * g/|g| (up to eps)
        params = [np.array([1.0])]
        grads = [np.array([0.5])]
        state = d.init_adam(params)
        new, state2 = d.adam_step(params, grads, state, lr=0.001)
        assert new[0][0] == pytest.approx(1.0 - 0.001, rel=1e-6)
        assert state2.t == 1

    def test_inputs_not_mutated(self):
        params = [np.array([1.0, 2.0])]
        grads = [np.array([0.3, -0.3])]
        state = d.init_adam(params)
        d.adam_step(params, grads, state, 0.01)
        assert np.array_equal(params[0], [1.0, 2.0])
        assert state.t == 0 and np.all(state.m[0] == 0.0)

    def test_converges_on_quadratic(self):
        # minimize (theta - 3)^2 by following its gradient
        params = [np.array([0.0])]
        state = d.init_adam(params)
        for _ in range(4000):
            g = [2.0 * (params[0] - 3.0)]
            params, state = d.adam_step(params, g, state, lr=0.01)
        assert params[0][0] == pytest.approx(3.0, abs=1e-3)

    def test_default_hyperparameters(self):
        state = d.init_adam([np.zeros(1)])
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)


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


def trainable_dataset(n_tuples=160, seed=3):
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
        order = list(range(len(dset.tuples)))
        SplitMix64(tc.shuffle_seed).shuffle(order)
        val = order[: int(tc.val_fraction * len(order))]
        X = d.encode_dataset(enc, dset)[val]
        Y = dset.labels_matrix().astype(np.float64)[val]
        assert d.loss(d.forward(trained, X), Y) == report.val_losses[report.best_epoch]


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

    def test_bad_float_literal(self):
        text = d.save_model(tiny_net()).replace("0x1.", "0y1.", 1)
        with pytest.raises(FormatError):
            d.load_model(text)


def test_sigmoid_stable_at_extremes():
    z = np.array([-800.0, 800.0])
    out = _sigmoid(z)
    assert out[0] == 0.0 and out[1] == 1.0
    assert np.all(np.isfinite(out))
