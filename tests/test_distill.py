import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def leaf_depths(tree):
    depth = [0] * len(tree.feature)
    for k, f in enumerate(tree.feature):
        if f >= 0:
            depth[k + 1] = depth[tree.right[k]] = depth[k] + 1
    return [depth[k] for k, f in enumerate(tree.feature) if f < 0]


class TestBestSplit:
    def test_two_cluster_midpoint(self):
        # values {1,2,3} then {7,8,9} with a target jump: split at 5.0
        X = np.array([[1], [2], [3], [7], [8], [9]], dtype=float)
        y = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.threshold[0] == 5.0
        assert tree.value[1] == pytest.approx(0.1)
        assert tree.value[tree.right[0]] == pytest.approx(0.9)

    def test_threshold_is_half_integer_for_integer_metadata(self):
        X = np.array([[16], [17], [18], [19]], dtype=float)
        y = np.array([0.2, 0.2, 0.8, 0.8])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.threshold[0] == 17.5

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # both features separate y identically; feature 0 must win
        X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = d.fit_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 0.5

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
            assert tree.feature[0] == -1
        else:
            _, f, thr = expect
            assert tree.feature[0] == f
            assert tree.threshold[0] == pytest.approx(thr, abs=0)


class TestGrow:
    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 20, size=(200, 3)).astype(float)
        y = rng.random(200)
        tree = d.fit_tree(X, y, max_depth=3, min_samples_leaf=1)
        assert max(leaf_depths(tree)) <= 3

    @pytest.mark.parametrize("max_depth", [-1, -2])
    def test_negative_max_depth_rejected(self, max_depth):
        X = np.arange(8, dtype=float)[:, None]
        with pytest.raises(ConfigError, match="max_depth"):
            d.fit_tree(X, np.arange(8.0), max_depth=max_depth)

    @pytest.mark.parametrize("target", ["features", "targets"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, target, value):
        X, y = np.arange(8, dtype=float)[:, None], np.arange(8.0)
        (X[:, 0] if target == "features" else y)[3] = value
        with pytest.raises(ConfigError, match="must be finite"):
            d.fit_tree(X, y)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 20, size=(100, 2)).astype(float)
        y = rng.random(100)
        tree = d.fit_tree(X, y, max_depth=None, min_samples_leaf=7)
        for count in tree.count[tree.feature == -1]:
            assert count >= 7

    def test_pure_node_is_leaf(self):
        X = np.array([[0], [1], [2], [3]], dtype=float)
        tree = d.fit_tree(X, np.full(4, 0.5), max_depth=None, min_samples_leaf=1)
        assert tree.feature[0] == -1
        assert tree.value[0] == 0.5
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
        assert tree.value[1] == pytest.approx(0.8)
        assert tree.count[1] == 2


    @pytest.mark.parametrize("names, message", [
        (("a",), "1 distinct feature names for 2"),
        (("a", "b", "c"), "3 distinct feature names for 2"),
        (("a", "a"), "1 distinct feature names for 2"),
        (("a", ""), "whitespace"),
        (("a", "b c"), "whitespace"),
        (("a\u2028b", "c"), "whitespace"),
        (("a", 7), "strings"),
    ])
    def test_names_the_file_cannot_hold_are_rejected(self, names, message):
        X = np.arange(16, dtype=float).reshape(8, 2)
        with pytest.raises(ConfigError, match=message):
            d.fit_tree(X, np.arange(8.0), feature_names=names)


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.text(max_size=4), max_size=3), seed=st.integers(0, 2**32 - 1))
def test_a_tree_fit_accepts_loads_back_from_its_file(names, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (12, len(names))).astype(float)
    try:
        tree = d.fit_tree(X, rng.random(12), max_depth=None, min_samples_leaf=1,
                          feature_names=tuple(names))
    except ConfigError:
        return
    loaded = d.load_tree(d.save_tree(tree))
    assert loaded.feature_names == tree.feature_names == tuple(names)
    assert loaded == tree


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
        tree = d.load_tree(
            "dlbac-tree v1 op=0 max_depth=8 min_samples_leaf=1 mse=0.0\n"
            "features umeta0\n"
            "node umeta0 <= 10.0\n"
            " node umeta0 <= 2.0\n"
            "  leaf 0.1 1\n"
            "  leaf 0.9 1\n"
            " leaf 0.0 1\n"
        )
        rule = d.extract_rule(tree, (5,), ())
        assert rule.bounds == {"umeta0": (2.0, 10.0)}
        assert rule.text() == "2 < umeta0 <= 10"


def _header(op="0", max_depth="8", min_samples_leaf="1"):
    return (
        f"dlbac-tree v1 op={op} max_depth={max_depth} min_samples_leaf={min_samples_leaf} "
        "mse=0.0\nfeatures umeta0\nleaf 0.5 3\n"
    )


@pytest.mark.parametrize(
    "make, error, field",
    [
        (lambda X, y: d.fit_tree(X, y, min_samples_leaf=2.5), ConfigError, "min_samples_leaf"),
        (lambda X, y: d.fit_tree(X, y, max_depth=2.5), ConfigError, "max_depth"),
        (lambda X, y: d.fit_tree(X, y, op_index=-1), ConfigError, "op"),
        (lambda X, y: d.fit_tree(X, y, op_index=1.0), ConfigError, "op"),
        (lambda X, y: d.load_tree(_header(op="-1")), FormatError, "op"),
        (lambda X, y: d.load_tree(_header(max_depth="-5")), FormatError, "max_depth"),
        (lambda X, y: d.load_tree(_header(min_samples_leaf="0")), FormatError, "min_samples_leaf"),
    ],
)
def test_tree_settings_follow_one_rule_when_fitted_and_loaded(make, error, field):
    X, y = np.arange(12.0).reshape(6, 2), np.linspace(0.0, 1.0, 6)
    with pytest.raises(error, match=f"\\b{field} must be a whole number"):
        make(X, y)
    assert d.load_tree(_header()).min_samples_leaf == 1  # the valid header loads


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
    @pytest.mark.parametrize("op", [1.5, 1.0, 2])
    def test_soft_labels_refuse_an_op_outside_the_outputs(self, trained, op):
        net, enc, dset = trained
        with pytest.raises(ConfigError, match="operation index"):
            d.soft_labels(net, enc, dset, op)

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

    def test_fidelity_rejects_another_layout(self, trained):
        net, enc, dset = trained
        tree = d.fit_tree(dset.M[:, :2], d.soft_labels(net, enc, dset, 0), max_depth=2)
        with pytest.raises(ConfigError, match="8 metadata positions, the tree 2 features"):
            d.fidelity(tree, net, enc, dset, 0)

    def test_fidelity_rejects_another_op(self, trained):
        net, enc, dset = trained
        tree = d.distill(net, enc, dset, 0, max_depth=2)
        with pytest.raises(ConfigError, match="operation 1 differs from the tree's operation 0"):
            d.fidelity(tree, net, enc, dset, 1)

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

    def test_repeated_feature_name_rejected(self):
        text = (
            "dlbac-tree v1 op=0 max_depth=1 min_samples_leaf=1 mse=0.0\n"
            "features umeta0 umeta0\n"
            "node umeta0 <= 0.5\n"
            " leaf 0.1 1\n"
            " leaf 0.9 1\n"
        )
        with pytest.raises(FormatError, match="repeated"):
            d.load_tree(text)

    @pytest.mark.parametrize(
        "node, leaf",
        [
            ("node umeta0 <= 0.5", "leaf x 1"),
            ("node umeta0 <= 0.5", "leaf 0.1 many"),
            ("node umeta0 <= 0.5", "leaf 0.1 99999999999999999999"),
            ("node umeta0 <= 0.5", "leaf 0.1 -5"),
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

    @pytest.mark.parametrize(
        "old, new, line",
        [("mse=0.0", "mse=nan", 1), ("<= 0.5", "<= nan", 3), ("<= 0.5", "<= -inf", 3),
         ("leaf 0.1 1", "leaf nan 2", 4), ("leaf 0.9 1", "leaf inf 1", 5)],
    )
    def test_non_finite_number_rejected_with_its_line(self, old, new, line):
        text = (
            "dlbac-tree v1 op=0 max_depth=1 min_samples_leaf=1 mse=0.0\n"
            "features umeta0\nnode umeta0 <= 0.5\n leaf 0.1 1\n leaf 0.9 1\n"
        )
        with pytest.raises(FormatError, match=f"tree line {line}$"):
            d.load_tree(text.replace(old, new))

    @pytest.mark.parametrize(
        "bad, message",
        [(" leaf x 1", "bad number at tree line 6$"),
         (" leaf inf 1", "bad number at tree line 6$"),
         ("  leaf 0.1 1", "bad indentation at tree line 6$")],
    )
    def test_errors_name_the_file_line_after_blank_lines(self, bad, message):
        text = (
            "dlbac-tree v1 op=0 max_depth=1 min_samples_leaf=1 mse=0.0\n"
            f"features umeta0\nnode umeta0 <= 0.5\n\n\n{bad}\n leaf 0.9 1\n"
        )
        with pytest.raises(FormatError, match=message):
            d.load_tree(text)


def chain_tree_text(levels):
    """A valid tree file whose node k tests umeta0 <= k + 0.5, right child deepest."""
    lines = [
        "dlbac-tree v1 op=0 max_depth=none min_samples_leaf=1 mse=0.0",
        "features umeta0",
    ]
    for k in range(levels):
        lines.append(" " * k + f"node umeta0 <= {k + 0.5!r}")
        lines.append(" " * (k + 1) + f"leaf {k / levels!r} {k + 1}")
    lines.append(" " * levels + f"leaf 1.0 {levels + 1}")
    return "\n".join(lines) + "\n"


class TestDeepTree:
    LEVELS = 2500  # well past Python's default recursion limit of 1000

    def test_chain_loads_and_saves_back_unchanged(self):
        text = chain_tree_text(self.LEVELS)
        tree = d.load_tree(text)
        assert len(tree.feature) == 2 * self.LEVELS + 1
        assert d.save_tree(tree) == text

    def test_chain_answers_predict_and_rules(self):
        tree = d.load_tree(chain_tree_text(self.LEVELS))
        assert d.tree_predict(tree, (self.LEVELS + 7,), ()) == 1.0
        rule = d.extract_rule(tree, (2000,), ())
        assert rule.bounds == {"umeta0": (1999.5, 2000.5)}
        assert rule.leaf_value == 2000 / self.LEVELS
        assert rule.leaf_count == 2001


def _small_tree_text():
    X = np.array([[1, 10], [2, 10], [3, 20], [7, 10], [8, 20], [9, 20]], dtype=float)
    y = np.array([0.1, 0.2, 0.3, 0.8, 0.9, 0.7])
    tree = d.fit_tree(X, y, max_depth=3, min_samples_leaf=1, feature_names=("umeta0", "rmeta0"))
    return d.save_tree(tree)


SMALL_TREE_TEXT = _small_tree_text()


@settings(max_examples=300, deadline=None)
@given(
    cut=st.integers(0, len(SMALL_TREE_TEXT)),
    at=st.integers(0, len(SMALL_TREE_TEXT) - 1),
    char=st.characters(min_codepoint=9, max_codepoint=126),
    truncate=st.booleans(),
)
def test_damaged_tree_file_loads_or_raises_format_error(cut, at, char, truncate):
    if truncate:
        text = SMALL_TREE_TEXT[:cut]
    else:
        text = SMALL_TREE_TEXT[:at] + char + SMALL_TREE_TEXT[at + 1 :]
    try:
        tree = d.load_tree(text)
    except FormatError:
        return
    assert isinstance(tree, d.DistilledTree)
