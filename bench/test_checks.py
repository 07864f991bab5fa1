"""The benchmark's output checks pass on real outputs and reject corrupted ones.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import dlbac as d  # noqa: E402


@pytest.fixture(scope="module")
def small():
    cfg = d.SynthConfig(
        num_users=200, num_resources=200, num_user_meta=4, num_res_meta=4,
        num_rules=3, num_ops=2, value_set_sizes=(8,) * 8, seed=5,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    data, *_ = d.synthesize(cfg)
    train, test = d.split_dataset(data, 0.2, seed=0)
    encoder = d.build_encoder(train)
    net = d.init_network(d.NetworkConfig(encoder.width, 2, (16, 8), init_seed=0))
    net, _ = d.train(net, train, encoder, d.TrainConfig(epochs=3))
    weights, biases = checks.read_model(d.save_model(net))
    seen = checks.read_encoder(d.save_encoder(encoder))
    return {"data": data, "train": train, "test": test, "encoder": encoder, "net": net,
            "weights": weights, "biases": biases, "seen": seen}


def raw(dataset):
    return np.array([t.umeta + t.rmeta for t in dataset.tuples], dtype=np.float64)


def onehot(small, dataset):
    U = np.array([t.umeta for t in dataset.tuples])
    R = np.array([t.rmeta for t in dataset.tuples])
    return checks.one_hot(small["seen"], U, R)


def test_reader_and_forward_match_the_library(small):
    X = onehot(small, small["test"])
    assert np.array_equal(X, d.encode_dataset(small["encoder"], small["test"]))
    mine = checks.forward(small["weights"], small["biases"], X)
    assert np.allclose(mine, d.forward(small["net"], X), rtol=0, atol=1e-12)
    ids, U, R, Y = checks.read_dataset(d.serialize_dataset(small["data"]))
    assert len(ids) == len(small["data"].tuples) and Y.shape[1] == 2


def test_splitmix_sample_matches_the_library():
    assert checks.splitmix_sample(7, 100, 10) == d.SplitMix64(7).sample_indices(100, 10)


def test_one_hot_check_rejects_a_second_one(small):
    X = d.encode_dataset(small["encoder"], small["train"])
    ref = onehot(small, small["train"])
    checks.check_one_hot(X, ref, small["seen"])
    X[3, 0] = 1.0 - X[3, 0]
    with pytest.raises(checks.CheckFailed):
        checks.check_one_hot(X, ref, small["seen"])


def test_score_check_rejects_a_wrong_f1(small):
    mine = checks.micro_rates(
        checks.forward(small["weights"], small["biases"], onehot(small, small["test"])),
        np.array([t.ops for t in small["test"].tuples]),
    )
    theirs = d.evaluate(small["net"], small["encoder"], small["test"]).micro
    assert (mine["tp"], mine["fp"], mine["tn"], mine["fn"]) == (
        theirs.confusion.tp, theirs.confusion.fp, theirs.confusion.tn, theirs.confusion.fn)
    assert abs(mine["f1"] - theirs.f1) <= 1e-12

    # a 3-epoch model on a tiny set is not held to criterion 1, so use set figures
    good = dict(mine, f1=0.95, tpr=0.95, fpr=0.05)
    checks.check_scores(good, 0.95, 0.95, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(good, 0.95 + 1e-6, 0.95, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(dict(good, f1=0.85), 0.85, 0.95, 0.05)


def test_reply_check_rejects_a_flipped_verdict(small):
    store = d.build_store(small["data"])
    requests = [(t.uid, t.rid, op) for t in small["test"].tuples[:40] for op in range(2)]
    replies = [
        d.format_decision(d.decide(small["net"], small["encoder"], store, u, r, op))
        for u, r, op in requests
    ]
    X = onehot(small, small["test"])[:40]
    probs = checks.forward(small["weights"], small["biases"], X)
    expected = np.array([probs[i // 2, op] for i, (_, _, op) in enumerate(requests)])
    checks.check_replies(replies, expected)

    verdict, p = replies[5].split()
    flipped = list(replies)
    flipped[5] = f"{'DENY' if verdict == 'GRANT' else 'GRANT'} {p}"
    with pytest.raises(checks.CheckFailed):
        checks.check_replies(flipped, expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_replies(replies[:-1], expected)
    swapped = list(replies)
    i = next(i for i in range(1, len(replies)) if replies[i] != replies[0])
    swapped[0], swapped[i] = swapped[i], swapped[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_replies(swapped, expected)


def test_attribution_check_rejects_a_perturbed_score(small):
    store = d.build_store(small["data"])
    t = small["test"].tuples[0]
    attr = d.local_explain(small["net"], small["encoder"], store, t.uid, t.rid, 0, 32)
    x = onehot(small, small["test"])[0]
    ref = checks.integrated_gradients(small["weights"], small["biases"], x, 0, 32)
    checks.check_attribution(attr.feature_scores, attr.metadata_scores, ref, small["seen"])

    bad = attr.feature_scores.copy()
    k = int(np.argmax(np.abs(bad)))
    bad[k] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_attribution(bad, attr.metadata_scores, ref, small["seen"])
    scores = attr.metadata_scores.copy()
    scores[scores < 1.0] = scores[scores < 1.0] * 0.5
    with pytest.raises(checks.CheckFailed):
        checks.check_attribution(attr.feature_scores, scores, ref, small["seen"])


def test_tree_check_rejects_a_moved_threshold(small):
    train = small["train"]
    tree = d.distill(small["net"], small["encoder"], train, 0, max_depth=4, min_samples_leaf=2)
    X = raw(train)
    y = checks.forward(small["weights"], small["biases"], onehot(small, train))[:, 0]
    text = d.save_tree(tree)
    parsed = checks.check_tree(text, X, y, 2, tree.mse)
    leaves = [(t.umeta, t.rmeta) for t in train.tuples[:20]]
    values = checks.tree_values(parsed, X[:20])
    assert list(values) == [d.tree_predict(tree, u, r) for u, r in leaves]

    root = text.splitlines()[2]
    name, thr = root.split()[1], float(root.split()[3])
    for moved in (thr + 1.0, thr + 0.25):
        bad = text.replace(root, f"node {name} <= {moved!r}", 1)
        with pytest.raises(checks.CheckFailed):
            checks.check_tree(bad, X, y, 2, tree.mse)
    with pytest.raises(checks.CheckFailed):
        checks.check_tree(text, X, y, 2, tree.mse * 1.01 + 1e-9)
