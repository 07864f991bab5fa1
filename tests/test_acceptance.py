"""End-to-end acceptance checks for the whole pipeline.

Each test prints one PASS/FAIL line.  Expensive artifacts (the full-scale
dataset and its trained model, the planted-rule models) are session fixtures
shared across criteria.
"""

import socket
import time

import numpy as np
import pytest

import dlbac as d
from dlbac.engine import handle_line
from dlbac.neuralnet import _layers


def verdict(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

FULL_SCALE = d.SynthConfig(
    num_users=4500, num_resources=4500, num_user_meta=8, num_res_meta=8,
    num_rules=20, num_ops=4, value_set_sizes=(20,) * 16, seed=29, neg_ratio=0.3,
)


@pytest.fixture(scope="session")
def full_scale():
    """~11k-tuple dataset, 80/20 split, defaults-trained model, and timings."""
    t0 = time.time()
    dset, *_ = d.synthesize(FULL_SCALE)
    train, test = d.split_dataset(dset, 0.2, seed=0)
    encoder = d.build_encoder(train)
    net = d.init_network(d.NetworkConfig(encoder.width, dset.num_ops, init_seed=0))
    net, report = d.train(net, train, encoder, d.TrainConfig())
    return {
        "dataset": dset, "train": train, "test": test,
        "encoder": encoder, "net": net, "report": report,
        "runtime": time.time() - t0,
    }


def planted_rules():
    """op0 keys on umeta0/rmeta0, op1 on umeta2/rmeta2 only."""
    return [
        d.Rule(uae=((0, (3,)),), rae=((0, (5,)),), ops=frozenset({0})),
        d.Rule(uae=((2, (7,)),), rae=((2, (11,)),), ops=frozenset({1})),
    ]


def planted_dataset(seed):
    cfg = d.SynthConfig(
        num_users=800, num_resources=800, num_user_meta=8, num_res_meta=8,
        num_rules=2, num_ops=2, value_set_sizes=(20,) * 16, seed=seed, neg_ratio=0.3,
    )
    U, R = d.generate_entities(planted_rules(), cfg)
    return d.generate_tuples(planted_rules(), U, R, cfg)


@pytest.fixture(scope="session")
def planted_models():
    """Per-seed (net, encoder, dataset) for the planted-rule generator."""
    out = {}
    for seed in range(5):
        dset = planted_dataset(seed)
        encoder = d.build_encoder(dset)
        net = d.init_network(d.NetworkConfig(encoder.width, 2, (64, 32), init_seed=0))
        tc = d.TrainConfig(val_fraction=0.0, epochs=20, early_stop_patience=20)
        net, _ = d.train(net, dset, encoder, tc)
        out[seed] = (net, encoder, dset)
    return out


# ---------------------------------------------------------------------------
# 1. end-to-end generalization
# ---------------------------------------------------------------------------


def test_criterion_01_end_to_end_generalization(full_scale):
    n = len(full_scale["dataset"].tuples)
    m = d.evaluate(full_scale["net"], full_scale["encoder"], full_scale["test"]).micro
    runtime = full_scale["runtime"]
    ok = (
        9000 <= n <= 13000
        and m.f1 is not None and m.f1 >= 0.90
        and m.tpr is not None and m.tpr >= 0.90
        and m.fpr is not None and m.fpr <= 0.10
        and runtime <= 15 * 60
    )
    verdict(
        "criterion 1 end-to-end generalization", ok,
        f"tuples={n} F1={m.f1:.4f} TPR={m.tpr:.4f} FPR={m.fpr:.4f} "
        f"runtime={runtime:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. hidden-metadata degradation
# ---------------------------------------------------------------------------


def _f1_for(dset, hidden_seed):
    train, test = d.split_dataset(dset, 0.2, seed=0)
    encoder = d.build_encoder(train)
    net = d.init_network(
        d.NetworkConfig(encoder.width, dset.num_ops, (64, 32), init_seed=0)
    )
    net, _ = d.train(net, train, encoder, d.TrainConfig())
    return d.evaluate(net, encoder, test).micro.f1


def test_criterion_02_hidden_metadata_degradation():
    margins = []
    for seed in (4, 8, 18):
        cfg = d.SynthConfig(
            num_users=1200, num_resources=1200, num_user_meta=13, num_res_meta=13,
            num_rules=10, num_ops=4, value_set_sizes=(20,) * 26, seed=seed,
            neg_ratio=0.3,
        )
        full, rules, _, _ = d.synthesize(cfg)
        uses_hidden = any(i >= 8 for r in rules for i, _ in r.uae) or any(
            j >= 8 for r in rules for j, _ in r.rae
        )
        assert uses_hidden, f"seed {seed}: drawn rules never touch hidden metadata"
        f1_full = _f1_for(full, seed)
        f1_vis = _f1_for(d.project_visible(full, 8, 8), seed)
        margins.append(f1_full - f1_vis)
    ok = all(m > 0 for m in margins)
    verdict(
        "criterion 2 hidden-metadata degradation", ok,
        "F1 margins (full - visible) " + ", ".join(f"{m:.4f}" for m in margins),
    )


# ---------------------------------------------------------------------------
# 3. weighted-loss trade-off
# ---------------------------------------------------------------------------


def _at_most_one_small_inversion(seq, direction, slack=0.005):
    """direction=-1: non-increasing; +1: non-decreasing; one slip <= slack."""
    slips = 0
    for a, b in zip(seq, seq[1:]):
        delta = (b - a) * direction
        if delta < 0:
            if -delta > slack:
                return False
            slips += 1
    return slips <= 1


def test_criterion_03_weighted_loss_tradeoff():
    cfg = d.SynthConfig(
        num_users=1200, num_resources=1200, num_user_meta=8, num_res_meta=8,
        num_rules=8, num_ops=1, value_set_sizes=(20,) * 16, seed=10, neg_ratio=0.2,
    )
    dset, *_ = d.synthesize(cfg)
    grant_share = float(np.mean(dset.Y))
    assert grant_share >= 0.80, f"dataset not imbalanced enough: {grant_share:.2f}"
    train, test = d.split_dataset(dset, 0.2, seed=0)
    encoder = d.build_encoder(train)
    fpr, prec, tpr, f1 = [], [], [], []
    for wd in (1.0, 2.0, 4.0, 8.0):
        net = d.init_network(d.NetworkConfig(encoder.width, 1, (64, 32), init_seed=0))
        net, _ = d.train(net, train, encoder, d.TrainConfig(class_weights=(1.0, wd)))
        m = d.evaluate(net, encoder, test).micro
        fpr.append(m.fpr)
        prec.append(m.precision)
        tpr.append(m.tpr)
        f1.append(m.f1)
    ok = (
        _at_most_one_small_inversion(fpr, -1)
        and _at_most_one_small_inversion(prec, +1)
        and tpr[-1] <= tpr[0] + 0.005
        and f1[-1] <= f1[0] + 0.005
    )
    verdict(
        "criterion 3 weighted-loss trade-off", ok,
        f"grant={grant_share:.2f} fpr={[round(v, 4) for v in fpr]} "
        f"prec={[round(v, 4) for v in prec]} tpr={[round(v, 4) for v in tpr]}",
    )


# ---------------------------------------------------------------------------
# 4. gradient oracle
# ---------------------------------------------------------------------------

FD_H = 1e-5


def _gradient_case(seed):
    """Random net/batch, rejected when near a relu kink or saturated output."""
    rng = np.random.default_rng(seed)
    hid = tuple(int(w) for w in rng.integers(2, 6, size=int(rng.integers(0, 4))))
    k = int(rng.integers(2, 6))
    nops = int(rng.integers(1, 3))
    net = d.init_network(d.NetworkConfig(k, nops, hid, init_seed=seed))
    for b in net.biases:
        b += rng.normal(0.05, 0.2, size=b.shape)
    X = rng.normal(0, 1.0, size=(3, k))
    Y = (rng.random((3, nops)) > 0.5).astype(float)
    zs = _layers(net, X @ net.weights[0] + net.biases[0])
    probs = d.forward(net, X)
    if len(zs) > 1 and min(np.min(np.abs(z)) for z in zs[:-1]) < 1e-3:
        return None
    if np.min(probs) < 1e-6 or np.max(probs) > 1 - 1e-6:
        return None
    return net, X, Y


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def test_criterion_04_gradient_oracle():
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < 100:
        case = _gradient_case(seed)
        seed += 1
        if case is None:
            continue
        accepted += 1
        net, X, Y = case
        gw, gb = d.backward(net, X, Y)
        analytic = []
        for W, b in zip(gw, gb):
            analytic.append(W)
            analytic.append(b)
        for p, a in zip(net.params(), analytic):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = p[i]
                p[i] = orig + FD_H
                up = d.loss(d.forward(net, X), Y)
                p[i] = orig - FD_H
                down = d.loss(d.forward(net, X), Y)
                p[i] = orig
                worst = max(worst, _rel((up - down) / (2 * FD_H), a[i]))
        for op in range(net.config.num_ops):
            g = d.input_gradient(net, X, op)
            for r in range(X.shape[0]):
                for c in range(X.shape[1]):
                    orig = X[r, c]
                    X[r, c] = orig + FD_H
                    up = d.forward(net, X)[r, op]
                    X[r, c] = orig - FD_H
                    down = d.forward(net, X)[r, op]
                    X[r, c] = orig
                    worst = max(worst, _rel((up - down) / (2 * FD_H), g[r, c]))
    ok = worst < 1e-4
    verdict(
        "criterion 4 gradient oracle", ok,
        f"100 networks, max relative error {worst:.2e} (< 1e-4)",
    )


# ---------------------------------------------------------------------------
# 5. integrated-gradients completeness
# ---------------------------------------------------------------------------


def _ig_case(seed):
    rng = np.random.default_rng(seed)
    hid = tuple(int(w) for w in rng.integers(2, 8, size=int(rng.integers(1, 3))))
    k = int(rng.integers(2, 8))
    net = d.init_network(d.NetworkConfig(k, int(rng.integers(1, 3)), hid, init_seed=seed))
    for b in net.biases:
        b += rng.normal(0, 0.2, size=b.shape)
    return net, rng.normal(0, 1.0, size=k)


def test_criterion_05_ig_completeness():
    gaps512, gaps1024 = [], []
    exact_zero = True
    for seed in range(50):
        net, x = _ig_case(seed)
        baseline = np.zeros_like(x)
        target = float(d.forward(net, x)[0] - d.forward(net, baseline)[0])
        gaps512.append(
            abs(float(d.integrated_gradients(net, x, baseline, 0, 512).sum()) - target)
        )
        gaps1024.append(
            abs(float(d.integrated_gradients(net, x, baseline, 0, 1024).sum()) - target)
        )
        exact_zero &= bool(
            np.all(d.integrated_gradients(net, x, x, 0, 16) == 0.0)
        )
    max512 = max(gaps512)
    shrinks = float(np.mean(gaps1024)) < float(np.mean(gaps512))
    ok = max512 < 1e-3 and shrinks and exact_zero
    verdict(
        "criterion 5 IG completeness", ok,
        f"max gap {max512:.2e} (< 1e-3), mean gap 512={np.mean(gaps512):.2e} "
        f"-> 1024={np.mean(gaps1024):.2e}, IG(x,x)=0 {exact_zero}",
    )


# ---------------------------------------------------------------------------
# 6-8. planted-rule attribution, flip study, insignificance
# ---------------------------------------------------------------------------


def test_criterion_06_planted_rule_attribution(planted_models):
    hits = 0
    tops = []
    for seed, (net, encoder, dset) in planted_models.items():
        attr = d.global_explain(
            net, encoder, dset, 1, decision_class=1, sample_n=50, seed=0, steps=64
        )
        top2 = set(d.significance_order(attr)[:2])
        tops.append(sorted(top2))
        hits += top2 == {"umeta2", "rmeta2"}
    ok = hits >= 4
    verdict(
        "criterion 6 planted-rule attribution", ok,
        f"top-2 = (umeta2, rmeta2) on {hits}/5 seeds; tops={tops}",
    )


def _granted_donor(net, encoder, dset, op):
    for row in dset.M:
        if float(d.forward(net, d.encode_positions(encoder, row[None, :])[0])[op]) > 0.5:
            return row
    raise AssertionError("planted model grants nothing")


def test_criterion_07_flip_study_shape(planted_models):
    net, encoder, dset = planted_models[0]
    attr = d.global_explain(
        net, encoder, dset, 1, decision_class=1, sample_n=50, seed=0, steps=64
    )
    order = d.significance_order(attr)
    donor = _granted_donor(net, encoder, dset, 1)
    curve = d.flip_study(net, encoder, dset, 1, donor, order)
    ok = (
        curve.fractions[0] == 0.0
        and curve.fractions[2] > curve.fractions[1]
        and curve.fractions[-1] == 1.0
    )
    verdict(
        "criterion 7 flip-study shape", ok,
        f"fractions[:4]={[round(f, 4) for f in curve.fractions[:4]]} "
        f"endpoint={curve.fractions[-1]}",
    )


def test_criterion_08_insignificance_robustness(planted_models):
    net, encoder, dset = planted_models[0]
    donor = _granted_donor(net, encoder, dset, 1)
    rng = d.SplitMix64(1)
    idx = rng.sample_indices(len(dset), 200)
    changed = sum(
        not d.insignificance_check(
            net, encoder, dset.M[i], donor, 1, score_threshold=1e-12, steps=64
        )
        for i in idx
    )
    ok = changed / 200 < 0.05
    verdict(
        "criterion 8 insignificance robustness", ok,
        f"decision changed on {changed}/200 tuples (< 5%)",
    )


# ---------------------------------------------------------------------------
# 9-10. distillation
# ---------------------------------------------------------------------------


def _half_integer_thresholds(tree):
    thresholds = tree.threshold[tree.feature >= 0]
    return bool(np.all(thresholds * 2 == np.round(thresholds * 2)))


def test_criterion_09_distillation_fidelity(full_scale):
    net, encoder, train = full_scale["net"], full_scale["encoder"], full_scale["train"]
    tree8 = d.distill(net, encoder, train, 0, max_depth=8, min_samples_leaf=5)
    fid8 = d.fidelity(tree8, net, encoder, train, 0)

    X = train.M
    _, first = np.unique(X, axis=0, return_index=True)
    unique_train = d.Dataset(
        train.num_user_meta, train.num_res_meta, train.num_ops,
        tuple(train.tuples[i] for i in sorted(first)),
    )
    tree_full = d.distill(net, encoder, unique_train, 0, max_depth=None, min_samples_leaf=1)
    fid_full = d.fidelity(tree_full, net, encoder, unique_train, 0)

    midpoints = _half_integer_thresholds(tree8) and _half_integer_thresholds(tree_full)
    rules_ok = True
    for t in unique_train.tuples[:50]:
        rule = d.extract_rule(tree8, t.umeta, t.rmeta)
        rules_ok &= rule.matches(t.umeta, t.rmeta, tree8.feature_names)
        rules_ok &= rule.leaf_value == d.tree_predict(tree8, t.umeta, t.rmeta)

    ok = fid8 >= 0.90 and fid_full == 1.0 and midpoints and rules_ok
    verdict(
        "criterion 9 distillation fidelity", ok,
        f"depth-8 fidelity {fid8:.4f} (>= 0.90), unlimited fidelity {fid_full} "
        f"(== 1.0), value-midpoint thresholds {midpoints}, extract_rule {rules_ok}",
    )


def test_distilled_labels_are_the_served_probabilities(full_scale, batch_invariant_blas):
    # a tree is fitted to what the enforcement point would answer, bit for bit
    net, encoder, train = full_scale["net"], full_scale["encoder"], full_scale["train"]
    batch_invariant_blas(net)
    store = d.build_store(train)
    users, resources = store.columns(encoder)
    rows = np.array([store.locate(u, r) for u, r in train.ids.tolist()])
    C = np.concatenate((users[rows[:, 0]], resources[rows[:, 1]]), axis=1)
    served = d.forward_active(net, C)
    differ = [int((d.soft_labels(net, encoder, train, op) != served[:, op]).sum())
              for op in range(train.num_ops)]
    verdict("soft labels are served probabilities", differ == [0] * train.num_ops,
            f"{len(train)} training rows, rows differing per op {differ}")


def test_local_explanations_are_rows_of_a_batched_explanation(full_scale, batch_invariant_blas):
    # a pair's attribution is one set of numbers, whichever call computed it
    net, encoder, test = full_scale["net"], full_scale["encoder"], full_scale["test"]
    batch_invariant_blas(net)
    store = d.build_store(full_scale["dataset"])
    pairs = test.ids[:40].tolist()
    X = np.array([store.features(encoder, u, r) for u, r in pairs])
    batch = d.integrated_gradients(net, X, np.zeros_like(X), 0, 128)
    differ = sum(
        not np.array_equal(d.local_explain(net, encoder, store, u, r, 0, 128).feature_scores, row)
        for (u, r), row in zip(pairs, batch)
    )
    verdict("local explanations are batch rows", differ == 0,
            f"{len(pairs)} test pairs, op 0, 128 steps, rows differing {differ}")


def test_input_gradients_are_rows_of_a_batched_gradient(full_scale, batch_invariant_blas):
    # a pair's gradient is one set of numbers, whichever call computed it
    net, encoder, test = full_scale["net"], full_scale["encoder"], full_scale["test"]
    batch_invariant_blas(net)
    X = d.encode_dataset(encoder, test)[:40]
    batch = d.input_gradient(net, X, 0)
    differ = sum(not np.array_equal(d.input_gradient(net, x, 0), row) for x, row in zip(X, batch))
    verdict("input gradients are batch rows", differ == 0,
            f"{len(X)} test rows, op 0, rows differing {differ}")


def _brute_force_split(X, y, min_leaf):
    n = len(y)
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            yl, yr = y[mask], y[~mask]
            sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
            key = (sse, f, thr)
            if best is None or key < best:
                best = key
    return best


def test_criterion_10_brute_force_split_oracle():
    mismatches = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 51))
        k = int(rng.integers(1, 5))
        X = rng.integers(0, 12, size=(n, k)).astype(float)
        y = rng.random(n)
        min_leaf = int(rng.integers(1, 4))
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=min_leaf)
        expect = _brute_force_split(X, y, min_leaf)
        if expect is None:
            mismatches += bool(tree.feature[0] != -1)
        else:
            _, f, thr = expect
            mismatches += bool(tree.feature[0] != f or tree.threshold[0] != thr)
    ok = mismatches == 0
    verdict(
        "criterion 10 brute-force split oracle", ok,
        f"{200 - mismatches}/200 root splits match exhaustive search exactly",
    )


# ---------------------------------------------------------------------------
# 11. determinism, round-trips, wire protocol
# ---------------------------------------------------------------------------


def _small_pipeline():
    cfg = d.SynthConfig(
        num_users=200, num_resources=200, num_user_meta=4, num_res_meta=4,
        num_rules=3, num_ops=2, value_set_sizes=(8,) * 8, seed=5,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    dset, *_ = d.synthesize(cfg)
    encoder = d.build_encoder(dset)
    net = d.init_network(d.NetworkConfig(encoder.width, 2, (16, 8), init_seed=0))
    net, _ = d.train(net, dset, encoder, d.TrainConfig(epochs=5))
    metrics = d.report_to_csv(d.evaluate(net, encoder, dset))
    return dset, encoder, net, metrics


def test_criterion_11_determinism_roundtrips_protocol():
    dset_a, enc_a, net_a, metrics_a = _small_pipeline()
    dset_b, enc_b, net_b, metrics_b = _small_pipeline()
    deterministic = (
        d.serialize_dataset(dset_a) == d.serialize_dataset(dset_b)
        and d.save_model(net_a) == d.save_model(net_b)
        and metrics_a == metrics_b
    )

    loaded_net = d.load_model(d.save_model(net_a))
    loaded_enc = d.load_encoder(d.save_encoder(enc_a))
    tree = d.distill(net_a, enc_a, dset_a, 0, max_depth=4)
    round_trips = (
        d.parse_dataset(d.serialize_dataset(dset_a)) == dset_a
        and all(np.array_equal(x, y) for x, y in zip(loaded_net.params(), net_a.params()))
        and loaded_enc == enc_a
        and d.load_tree(d.save_tree(tree)) == tree
    )

    store = d.build_store(dset_a)
    server = d.serve(net_a, enc_a, store, host="127.0.0.1", port=0)
    rng = d.SplitMix64(7)
    uids, rids = store.user_ids, store.resource_ids
    protocol_ok = True
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=10) as sock:
            f = sock.makefile("rw", encoding="utf-8", newline="\n")
            for _ in range(1000):
                kind = rng.randint(5)
                if kind == 0:
                    line = "PING"
                elif kind == 1:
                    line = f"DECIDE {rng.choice(uids)} {rng.choice(rids)} {rng.randint(2)}"
                elif kind == 2:
                    line = f"DECIDE {rng.choice(uids)} {rng.choice(rids)} 9"
                elif kind == 3:
                    line = f"DECIDE 999999 {rng.choice(rids)} 0"
                else:
                    line = ["", "garbage", "DECIDE 1", "DECIDE a b c"][rng.randint(4)]
                f.write(line + "\n")
                f.flush()
                reply = f.readline().strip()
                expected = handle_line(line, net_a, enc_a, store, 0.5)
                protocol_ok &= reply == expected
                if kind == 1:
                    v, p = reply.split()
                    protocol_ok &= v in ("GRANT", "DENY") and 0.0 <= float(p) <= 1.0
                elif kind == 0:
                    protocol_ok &= reply == "PONG"
                else:
                    protocol_ok &= reply.startswith("ERR ")
    finally:
        server.shutdown()
        server.server_close()

    ok = deterministic and round_trips and protocol_ok
    verdict(
        "criterion 11 determinism, round-trips, protocol", ok,
        f"byte-identical reruns {deterministic}, round-trips {round_trips}, "
        f"1000-line protocol exchange {protocol_ok}",
    )
