import itertools

import numpy as np
import pytest

import dlbac as d
from dlbac.errors import ConfigError, FormatError


def brute_force_best_split(X, y, min_leaf):
    """Exhaustive minimum-SSE split with the same tie-breaking contract:
    lowest feature index first, then lowest threshold."""
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


def collect_depth(node, depth=0):
    if node.is_leaf:
        return [depth]
    return collect_depth(node.left, depth + 1) + collect_depth(node.right, depth + 1)


class TestBestSplit:
    def test_two_cluster_midpoint(self):
        # values {1,2,3} then {7,8,9} with a target jump: split at 5.0
        X = np.array([[1], [2], [3], [7], [8], [9]], dtype=float)
        y = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.root.threshold == 5.0
        assert tree.root.left.value == pytest.approx(0.1)
        assert tree.root.right.value == pytest.approx(0.9)

    def test_threshold_is_half_integer_for_integer_metadata(self):
        X = np.array([[16], [17], [18], [19]], dtype=float)
        y = np.array([0.2, 0.2, 0.8, 0.8])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.root.threshold == 17.5

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # both features separate y identically; feature 0 must win
        X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.root.feature == 0
        assert tree.root.threshold == 0.5

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        k = int(rng.integers(1, 4))
        X = rng.integers(0, 8, size=(n, k)).astype(float)
        y = rng.random(n)
        min_leaf = int(rng.integers(1, 4))
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=min_leaf)
        expect = brute_force_best_split(X, y, min_leaf)
        if expect is None:
            assert tree.root.is_leaf
        else:
            _, f, thr = expect
            assert tree.root.feature == f
            assert tree.root.threshold == pytest.approx(thr, abs=0)


class TestGrow:
    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 20, size=(200, 3)).astype(float)
        y = rng.random(200)
        tree = d.fit_tree(X, y, max_depth=3, min_samples_leaf=1)
        assert max(collect_depth(tree.root)) <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 20, size=(100, 2)).astype(float)
        y = rng.random(100)
        tree = d.fit_tree(X, y, max_depth=None, min_samples_leaf=7)

        def check(node):
            if node.is_leaf:
                assert node.count >= 7
            else:
                check(node.left)
                check(node.right)

        check(tree.root)

    def test_pure_node_is_leaf(self):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        tree = d.fit_tree(X, np.full(4, 0.5), max_depth=None, min_samples_leaf=1)
        assert tree.root.is_leaf
        assert tree.root.value == 0.5
        assert tree.mse == 0.0

    def test_unlimited_depth_on_distinct_rows_reaches_zero_mse(self):
        X = np.arange(16, dtype=float)[:, None]
        y = np.random.default_rng(3).random(16)
        tree = d.fit_tree(X, y, max_depth=None, min_samples_leaf=1)
        assert tree.mse == 0.0

    def test_leaf_value_is_mean_of_members(self):
        X = np.array([[0], [0], [9], [9]], dtype=float)
        y = np.array([0.7, 0.9, 0.1, 0.1])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.root.left.value == pytest.approx(0.8)
        assert tree.root.left.count == 2


class TestPredictAndRules:
    def grown(self):
        X = np.array(
            [[1, 10], [2, 10], [3, 10], [7, 10], [8, 20], [9, 20]], dtype=float
        )
        y = np.array([0.1, 0.1, 0.1, 0.82, 0.9, 0.9])
        return d.fit_tree(
            X, y, max_depth=3, min_samples_leaf=1, feature_names=("umeta0", "rmeta0")
        ), X, y

    def test_predict_reproduces_training_leaves(self):
        tree, X, y = self.grown()
        for row, target in zip(X, y):
            pred = d.tree_predict(tree, row[:1], row[1:])
            # every leaf mean lies within the target range
            assert 0.1 <= pred <= 0.9

    def test_wrong_vector_lengths(self):
        tree, _, _ = self.grown()
        with pytest.raises(ConfigError):
            d.tree_predict(tree, (1, 2), (3,))

    def test_extract_rule_matches_own_pair(self):
        tree, X, _ = self.grown()
        for row in X:
            rule = d.extract_rule(tree, row[:1], row[1:])
            assert rule.matches(row[:1], row[1:], tree.feature_names)
            assert rule.leaf_value == d.tree_predict(tree, row[:1], row[1:])

    def test_rule_text_renders_intervals(self):
        X = np.array([[1], [2], [3], [7]], dtype=float)
        y = np.array([0.1, 0.2, 0.8, 0.9])
        tree = d.fit_tree(
            X, y, max_depth=2, min_samples_leaf=1, feature_names=("rmeta2",)
        )
        text = d.extract_rule(tree, (), (2,)).text()
        assert "rmeta2" in text and "<=" in text

    def test_root_leaf_gives_true_rule(self):
        tree = d.fit_tree(np.zeros((3, 1)), np.full(3, 0.4), feature_names=("umeta0",))
        rule = d.extract_rule(tree, (), (0,))
        assert rule.text() == "TRUE"
        assert rule.bounds == {}

    def test_consolidated_interval(self):
        # path umeta0 <= 10 then umeta0 > 2 must read 2 < umeta0 <= 10
        left = d.TreeNode(value=0.1, count=1)
        inner_right = d.TreeNode(value=0.9, count=1)
        inner = d.TreeNode(feature=0, threshold=2.0, left=left, right=inner_right)
        root = d.TreeNode(
            feature=0, threshold=10.0, left=inner, right=d.TreeNode(value=0.0, count=1)
        )
        tree = d.DistilledTree(root, 0, 8, 1, 0.0, ("umeta0",))
        rule = d.extract_rule(tree, (5,), ())
        assert rule.bounds == {"umeta0": (2.0, 10.0)}
        assert rule.text() == "2 < umeta0 <= 10"


@pytest.fixture(scope="module")
def trained():
    cfg = d.SynthConfig(
        num_users=120, num_resources=120, num_user_meta=4, num_res_meta=4,
        num_rules=3, num_ops=2, value_set_sizes=(6,) * 8, seed=30,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    dset, *_ = d.synthesize(cfg)
    enc = d.build_encoder(dset)
    net = d.init_network(d.NetworkConfig(enc.width, 2, (32, 16), init_seed=0))
    tc = d.TrainConfig(lr0=0.01, lr_decay_epochs=20, epochs=30, val_fraction=0.0)
    net, _ = d.train(net, dset, enc, tc)
    return net, enc, dset


class TestDistill:
    def test_soft_labels_are_probabilities(self, trained):
        net, enc, dset = trained
        y = d.soft_labels(net, enc, dset, 0)
        assert y.shape == (len(dset.tuples),)
        assert np.all((y > 0) & (y < 1))

    def test_distill_uses_raw_metadata_names(self, trained):
        net, enc, dset = trained
        tree = d.distill(net, enc, dset, 0, max_depth=4)
        assert tree.feature_names == ("umeta0", "umeta1", "umeta2", "umeta3",
                                      "rmeta0", "rmeta1", "rmeta2", "rmeta3")
        assert tree.op_index == 0

    def test_fidelity_high_on_training_data(self, trained):
        net, enc, dset = trained
        tree = d.distill(net, enc, dset, 0, max_depth=8, min_samples_leaf=1)
        assert d.fidelity(tree, net, enc, dset, 0) >= 0.9

    def test_deeper_trees_fit_at_least_as_well(self, trained):
        net, enc, dset = trained
        shallow = d.distill(net, enc, dset, 0, max_depth=2)
        deep = d.distill(net, enc, dset, 0, max_depth=8)
        assert deep.mse <= shallow.mse


class TestPersistence:
    def test_round_trip(self, trained):
        net, enc, dset = trained
        tree = d.distill(net, enc, dset, 1, max_depth=5)
        loaded = d.load_tree(d.save_tree(tree))
        assert loaded == tree

    def test_round_trip_unlimited_depth(self):
        X = np.arange(10, dtype=float)[:, None]
        y = np.random.default_rng(0).random(10)
        tree = d.fit_tree(X, y, max_depth=None, min_samples_leaf=1)
        loaded = d.load_tree(d.save_tree(tree))
        assert loaded.max_depth is None
        assert loaded == tree

    def test_predictions_survive_round_trip(self, trained):
        net, enc, dset = trained
        tree = d.distill(net, enc, dset, 0)
        loaded = d.load_tree(d.save_tree(tree))
        for t in dset.tuples[:20]:
            assert d.tree_predict(loaded, t.umeta, t.rmeta) == d.tree_predict(
                tree, t.umeta, t.rmeta
            )

    def test_bad_header(self):
        with pytest.raises(FormatError):
            d.load_tree("tree v1 op=0\n")

    def test_truncated_body(self, trained):
        net, enc, dset = trained
        text = d.save_tree(d.distill(net, enc, dset, 0, max_depth=3))
        with pytest.raises(FormatError):
            d.load_tree("\n".join(text.splitlines()[:-1]) + "\n")

    def test_unknown_feature_name_rejected(self):
        text = (
            "dlbac-tree v1 op=0 max_depth=1 min_samples_leaf=1 mse=0.0\n"
            "features umeta0\n"
            "node bogus <= 0.5\n"
            " leaf 0.1 1\n"
            " leaf 0.9 1\n"
        )
        with pytest.raises(FormatError):
            d.load_tree(text)

    @pytest.mark.parametrize(
        "node, leaf",
        [
            ("node umeta0 <= 0.5", "leaf x 1"),
            ("node umeta0 <= 0.5", "leaf 0.1 many"),
            ("node umeta0 <= half", "leaf 0.1 1"),
        ],
    )
    def test_non_numeric_field_rejected(self, node, leaf):
        text = (
            "dlbac-tree v1 op=0 max_depth=1 min_samples_leaf=1 mse=0.0\n"
            f"features umeta0\n{node}\n {leaf}\n leaf 0.9 1\n"
        )
        with pytest.raises(FormatError, match="tree line"):
            d.load_tree(text)
