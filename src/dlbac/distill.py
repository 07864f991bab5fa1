"""Knowledge transfer: fit a regression tree to the network's probabilities.

The tree consumes raw integer metadata values (user columns then resource
columns), not the encoded features, so its thresholds land at readable
midpoints between observed values.  Splits minimize the weighted child MSE;
ties break toward the lowest feature index, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, metadata_names
from .encoding import Encoder
from .errors import ConfigError, FormatError, is_whole
from .neuralnet import Network, forward_positions


@dataclass
class DistilledTree:
    """A regression tree as flat per-node arrays, nodes numbered in file pre-order.

    Node 0 is the root.  Internal node k sends a row to its left child k + 1
    when row[feature[k]] <= threshold[k], else to node right[k].  A leaf has
    feature -1 and carries value (mean target) and count (training rows);
    the fields a node kind does not use hold nan, -1 or 0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    op_index: int
    max_depth: int | None
    min_samples_leaf: int
    mse: float  # training mean squared error
    feature_names: tuple[str, ...]

    def __eq__(self, other):  # equal iff they save to the same file
        return isinstance(other, DistilledTree) and save_tree(self) == save_tree(other)


def _node_arrays(nodes: list[list]) -> tuple[np.ndarray, ...]:
    """The five field arrays from [feature, threshold, right, value, count] rows."""
    dtypes = (np.int64, np.float64, np.int64, np.float64, np.int64)
    return tuple(np.array(col, dtype=t) for col, t in zip(zip(*nodes), dtypes))


def soft_labels(net: Network, encoder: Encoder, dataset: Dataset, op: int) -> np.ndarray:
    """The network's grant probability for op, one entry per tuple."""
    net.config.check_op(op)
    encoder.check_layout(dataset.num_user_meta, dataset.num_res_meta)
    return forward_positions(net, encoder, dataset.M)[:, op]


def _exact_sse(X: np.ndarray, y: np.ndarray, f: int, thr: float) -> float:
    mask = X[:, f] <= thr
    yl, yr = y[mask], y[~mask]
    return float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """(sse, feature, threshold) minimizing the summed child SSE, or None.

    Summed child squared error orders splits identically to weighted child
    MSE (both divide by the fixed node size).  The prefix-sum scan only
    shortlists near-minimal candidates; finalists are re-scored with the
    plain two-pass formula so exact SSE ties break deterministically toward
    the lowest feature index, then the lowest threshold.  Needs
    n >= 2 * min_leaf, which `_grow` checks.
    """
    n = len(y)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        cum = np.cumsum(ys)
        cumsq = np.cumsum(ys * ys)
        total_sum = cum[-1]
        total_sq = cumsq[-1]
        # split after position i (left size i); candidates only between
        # distinct consecutive values, honoring the leaf-size floor
        sizes = np.arange(min_leaf, n - min_leaf + 1)
        sizes = sizes[xs[sizes - 1] != xs[sizes]]
        if sizes.size == 0:
            continue
        left_sum = cum[sizes - 1]
        left_sq = cumsq[sizes - 1]
        sse_left = left_sq - left_sum**2 / sizes
        right_n = n - sizes
        sse_right = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n
        sse = sse_left + sse_right
        slack = 1e-9 * (total_sq + 1.0)  # prefix-sum rounding margin
        for k in np.flatnonzero(sse <= sse.min() + slack):
            i = int(sizes[k])
            thr = (float(xs[i - 1]) + float(xs[i])) / 2.0
            cand = (_exact_sse(X, y, f, thr), f, thr)
            if best is None or cand < best:
                best = cand
    return best


def _grow(X, y, max_depth, min_leaf) -> tuple[np.ndarray, ...]:
    """Node arrays in pre-order: the stack pops a left subtree before its right."""
    nodes: list[list] = []
    stack = [(X, y, 0, None)]  # rows, depth, node whose right child they are
    while stack:
        X, y, depth, parent = stack.pop()
        if parent is not None:
            parent[2] = len(nodes)
        grow = (max_depth is None or depth < max_depth) and len(y) >= 2 * min_leaf
        split = _best_split(X, y, min_leaf) if grow and np.ptp(y) != 0.0 else None
        if split is None:
            nodes.append([-1, np.nan, -1, float(np.mean(y)), len(y)])
            continue
        _, f, thr = split
        nodes.append(node := [f, thr, -1, np.nan, 0])  # internal nodes carry no prediction
        mask = X[:, f] <= thr
        stack += [(X[~mask], y[~mask], depth + 1, node), (X[mask], y[mask], depth + 1, None)]
    return _node_arrays(nodes)


def _check_fields(op_index, max_depth, min_samples_leaf) -> None:
    """ConfigError naming the first of a tree's settings that is not a whole number in range."""
    for name, value, least in (
        ("op", op_index, 0),
        ("max_depth", 0 if max_depth is None else max_depth, 0),  # None: unlimited
        ("min_samples_leaf", min_samples_leaf, 1),
    ):
        if not is_whole(value, least):
            raise ConfigError(f"{name} must be a whole number >= {least}, not {value!r}")


def fit_tree(
    features: np.ndarray,
    targets: np.ndarray,
    max_depth: int | None = 8,
    min_samples_leaf: int = 5,
    feature_names: tuple[str, ...] | None = None,
    op_index: int = 0,
) -> DistilledTree:
    """CART regression over raw metadata, thresholds at value midpoints."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ConfigError("features must be a non-empty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ConfigError("targets must align with feature rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ConfigError("features and targets must be finite")
    _check_fields(op_index, max_depth, min_samples_leaf)
    default = (f"f{i}" for i in range(X.shape[1]))
    names = tuple(default if feature_names is None else feature_names)
    # the tree file splits its features line on whitespace and finds a node's feature by name
    if not all(isinstance(n, str) and n.split() == [n] for n in names):
        raise ConfigError("feature names must be non-empty strings without whitespace")
    if len(set(names)) != len(names) or len(names) != X.shape[1]:
        raise ConfigError(f"{len(set(names))} distinct feature names for {X.shape[1]} columns")
    arrays = _grow(X, y, max_depth, min_samples_leaf)
    tree = DistilledTree(*arrays, op_index, max_depth, min_samples_leaf, 0.0, names)
    tree.mse = float(np.mean((_leaf_values(tree, X) - y) ** 2))
    return tree


def distill(
    net: Network,
    encoder: Encoder,
    dataset: Dataset,
    op: int,
    max_depth: int | None = 8,
    min_samples_leaf: int = 5,
) -> DistilledTree:
    """Fit a tree to the network's probabilities over a dataset's raw metadata."""
    X = dataset.M.astype(np.float64)
    y = soft_labels(net, encoder, dataset, op)
    names = tuple(metadata_names(dataset.num_user_meta, dataset.num_res_meta))
    return fit_tree(X, y, max_depth, min_samples_leaf, names, op_index=op)


def _descend(tree: DistilledTree, row: np.ndarray):
    """Leaf index reached by the row plus the (node, went_left) path taken."""
    feature, threshold, right = tree.feature, tree.threshold, tree.right
    path, k = [], 0
    while (f := feature[k]) >= 0:
        left = row[f] <= threshold[k]
        path.append((k, left))
        k = k + 1 if left else right[k]
    return k, path


def _leaf_values(tree: DistilledTree, X: np.ndarray) -> np.ndarray:
    return tree.value[[_descend(tree, row)[0] for row in X]]


def _row(tree: DistilledTree, umeta, rmeta) -> np.ndarray:
    row = np.asarray(tuple(umeta) + tuple(rmeta), dtype=np.float64)
    if row.shape != (len(tree.feature_names),):
        raise ConfigError("metadata vector lengths do not match the tree layout")
    return row


def tree_predict(tree: DistilledTree, umeta, rmeta) -> float:
    """Leaf value for the pair; grant iff the value exceeds 0.5."""
    leaf, _ = _descend(tree, _row(tree, umeta, rmeta))
    return float(tree.value[leaf])


@dataclass(frozen=True)
class ExtractedRule:
    """Conjunction of per-feature intervals read off a root-to-leaf path.

    bounds maps feature name -> (lower, upper); a feature value must satisfy
    lower < value <= upper (None means unbounded on that side).
    """

    bounds: dict[str, tuple[float | None, float | None]]
    leaf_value: float
    leaf_count: int

    def matches(self, umeta, rmeta, feature_names: tuple[str, ...]) -> bool:
        values = dict(zip(feature_names, tuple(umeta) + tuple(rmeta)))
        for name, (lo, hi) in self.bounds.items():
            v = values[name]
            if lo is not None and not v > lo:
                return False
            if hi is not None and not v <= hi:
                return False
        return True

    def text(self) -> str:
        if not self.bounds:
            return "TRUE"
        parts = []
        for name, (lo, hi) in self.bounds.items():
            if lo is not None and hi is not None:
                parts.append(f"{lo:g} < {name} <= {hi:g}")
            elif hi is not None:
                parts.append(f"{name} <= {hi:g}")
            else:
                parts.append(f"{name} > {lo:g}")
        return " and ".join(parts)


def extract_rule(tree: DistilledTree, umeta, rmeta) -> ExtractedRule:
    """The conjunctive rule justifying the pair's leaf, intervals consolidated."""
    leaf, path = _descend(tree, _row(tree, umeta, rmeta))
    bounds: dict[str, tuple[float | None, float | None]] = {}
    for k, went_left in path:
        name = tree.feature_names[tree.feature[k]]
        thr = float(tree.threshold[k])
        lo, hi = bounds.get(name, (None, None))
        if went_left:  # value <= threshold
            hi = thr if hi is None else min(hi, thr)
        else:  # value > threshold
            lo = thr if lo is None else max(lo, thr)
        bounds[name] = (lo, hi)
    return ExtractedRule(bounds, float(tree.value[leaf]), int(tree.count[leaf]))


def fidelity(
    tree: DistilledTree,
    net: Network,
    encoder: Encoder,
    dataset: Dataset,
    op: int,
    threshold: float = 0.5,
) -> float:
    """Fraction of tuples where tree and network agree after thresholding."""
    if dataset.M.shape[1] != len(tree.feature_names):
        raise ConfigError(
            f"dataset has {dataset.M.shape[1]} metadata positions, "
            f"the tree {len(tree.feature_names)} features"
        )
    if op != tree.op_index:
        raise ConfigError(f"operation {op} differs from the tree's operation {tree.op_index}")
    net_dec = soft_labels(net, encoder, dataset, op) > threshold
    tree_dec = _leaf_values(tree, dataset.M.astype(np.float64)) > threshold
    return float(np.mean(net_dec == tree_dec))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "dlbac-tree v1"


def save_tree(tree: DistilledTree) -> str:
    depth = "none" if tree.max_depth is None else str(tree.max_depth)
    lines = [
        f"{_HEADER_PREFIX} op={tree.op_index} max_depth={depth} "
        f"min_samples_leaf={tree.min_samples_leaf} mse={tree.mse!r}"
    ]
    lines.append("features " + " ".join(tree.feature_names))
    feature, threshold, right, value, count = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.right, tree.value, tree.count)
    )
    indent = [0] * len(feature)  # node depth; children follow their parent
    for k, f in enumerate(feature):
        pad = " " * indent[k]
        if f < 0:
            lines.append(f"{pad}leaf {value[k]!r} {count[k]}")
        else:
            lines.append(f"{pad}node {tree.feature_names[f]} <= {threshold[k]!r}")
            indent[k + 1] = indent[right[k]] = indent[k] + 1
    return "\n".join(lines) + "\n"


def load_tree(text: str) -> DistilledTree:
    numbered = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    line_no, lines = [k for k, _ in numbered], [ln for _, ln in numbered]  # blank lines skipped
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise FormatError("bad tree header")
    fields = dict(
        tok.split("=", 1) for tok in lines[0][len(_HEADER_PREFIX) :].split() if "=" in tok
    )
    try:
        op_index = int(fields["op"])
        max_depth = None if fields["max_depth"] == "none" else int(fields["max_depth"])
        min_leaf = int(fields["min_samples_leaf"])
        mse = float(fields["mse"])
    except (KeyError, ValueError):
        raise FormatError("bad tree header fields") from None
    try:
        _check_fields(op_index, max_depth, min_leaf)
    except ConfigError as exc:
        raise FormatError(f"bad tree header field: {exc}") from None
    if not np.isfinite(mse):
        raise FormatError(f"non-finite mse at tree line {line_no[0]}")
    if len(lines) < 3 or not lines[1].startswith("features "):
        raise FormatError("missing tree feature names")
    names = tuple(lines[1].split()[1:])
    name_index = {n: i for i, n in enumerate(names)}
    if len(name_index) != len(names):
        raise FormatError("repeated tree feature name")

    nodes: list[list] = []
    slots = [(None, 0)]  # (node whose right child comes here, depth) per pending node
    for pos, line in zip(line_no[2:], lines[2:]):
        if not slots:
            raise FormatError("trailing content after tree")
        parent, depth = slots.pop()
        if len(line) - len(line.lstrip(" ")) != depth:
            raise FormatError(f"bad indentation at tree line {pos}")
        if parent is not None:
            parent[2] = len(nodes)
        toks = line.split()
        try:
            if toks[0] == "leaf":
                if len(toks) != 3:
                    raise FormatError(f"bad leaf at tree line {pos}")
                node = [-1, np.nan, -1, float(toks[1]), np.int64(toks[2])]
                if node[4] < 0:
                    raise FormatError(f"bad number at tree line {pos}")
            elif toks[0] == "node":
                if len(toks) != 4 or toks[2] != "<=" or toks[1] not in name_index:
                    raise FormatError(f"bad node at tree line {pos}")
                node = [name_index[toks[1]], float(toks[3]), -1, np.nan, 0]
                slots += [(node, depth + 1), (None, depth + 1)]  # left child's slot on top
            else:
                raise FormatError(f"unknown tree entry at line {pos}")
        except (ValueError, OverflowError):  # not a number, or a count beyond int64
            raise FormatError(f"bad number at tree line {pos}") from None
        nodes.append(node)
    if slots:
        raise FormatError("truncated tree file")
    arrays = _node_arrays(nodes)
    feature, threshold, _, value, _ = arrays
    bad = np.flatnonzero(~np.isfinite(np.where(feature < 0, value, threshold)))
    if bad.size:  # node k is on lines[k + 2]
        raise FormatError(f"bad number at tree line {line_no[bad[0] + 2]}")
    return DistilledTree(*arrays, op_index, max_depth, min_leaf, mse, names)
