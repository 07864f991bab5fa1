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
from .encoding import Encoder, encode_dataset
from .errors import ConfigError, FormatError
from .neuralnet import Network, forward


@dataclass
class TreeNode:
    # internal node: feature/threshold/left/right set, value None
    # leaf: value/count set, feature None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None
    count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DistilledTree:
    root: TreeNode
    op_index: int
    max_depth: int | None
    min_samples_leaf: int
    mse: float  # training mean squared error
    feature_names: tuple[str, ...]


def soft_labels(net: Network, encoder: Encoder, dataset: Dataset, op: int) -> np.ndarray:
    """The network's grant probability for op, one entry per tuple."""
    if not 0 <= op < net.config.num_ops:
        raise ConfigError(f"operation index {op} out of range")
    return forward(net, encode_dataset(encoder, dataset))[:, op]


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
    the lowest feature index, then the lowest threshold.
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
        if sizes.size == 0:
            continue
        valid = xs[sizes - 1] != xs[np.minimum(sizes, n - 1)]
        sizes = sizes[valid & (sizes < n)]
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


def _grow(X, y, depth, max_depth, min_leaf) -> TreeNode:
    node = TreeNode(value=float(np.mean(y)), count=len(y))
    if max_depth is not None and depth >= max_depth:
        return node
    if len(y) < 2 * min_leaf or np.ptp(y) == 0.0:
        return node
    split = _best_split(X, y, min_leaf)
    if split is None:
        return node
    _, f, thr = split
    mask = X[:, f] <= thr
    node.feature = f
    node.threshold = thr
    node.value = None  # internal nodes carry no prediction in the file format
    node.count = 0
    node.left = _grow(X[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


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
    if min_samples_leaf < 1:
        raise ConfigError("min_samples_leaf must be >= 1")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    root = _grow(X, y, 0, max_depth, min_samples_leaf)
    tree = DistilledTree(
        root=root,
        op_index=op_index,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        mse=0.0,
        feature_names=tuple(feature_names),
    )
    preds = np.array([_descend(root, row)[0].value for row in X])
    tree.mse = float(np.mean((preds - y) ** 2))
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
    X = np.hstack([dataset.umeta_matrix(), dataset.rmeta_matrix()]).astype(np.float64)
    y = soft_labels(net, encoder, dataset, op)
    names = tuple(metadata_names(dataset.num_user_meta, dataset.num_res_meta))
    return fit_tree(X, y, max_depth, min_samples_leaf, names, op_index=op)


def _descend(root: TreeNode, row: np.ndarray):
    """Leaf reached by the row plus the (node, went_left) path taken."""
    path = []
    node = root
    while not node.is_leaf:
        left = row[node.feature] <= node.threshold
        path.append((node, left))
        node = node.left if left else node.right
    return node, path


def _row(tree: DistilledTree, umeta, rmeta) -> np.ndarray:
    row = np.asarray(tuple(umeta) + tuple(rmeta), dtype=np.float64)
    if row.shape != (len(tree.feature_names),):
        raise ConfigError("metadata vector lengths do not match the tree layout")
    return row


def tree_predict(tree: DistilledTree, umeta, rmeta) -> float:
    """Leaf value for the pair; grant iff the value exceeds 0.5."""
    leaf, _ = _descend(tree.root, _row(tree, umeta, rmeta))
    return leaf.value


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
    leaf, path = _descend(tree.root, _row(tree, umeta, rmeta))
    bounds: dict[str, tuple[float | None, float | None]] = {}
    for node, went_left in path:
        name = tree.feature_names[node.feature]
        lo, hi = bounds.get(name, (None, None))
        if went_left:  # value <= threshold
            hi = node.threshold if hi is None else min(hi, node.threshold)
        else:  # value > threshold
            lo = node.threshold if lo is None else max(lo, node.threshold)
        bounds[name] = (lo, hi)
    return ExtractedRule(bounds=bounds, leaf_value=leaf.value, leaf_count=leaf.count)


def fidelity(
    tree: DistilledTree,
    net: Network,
    encoder: Encoder,
    dataset: Dataset,
    op: int,
    threshold: float = 0.5,
) -> float:
    """Fraction of tuples where tree and network agree after thresholding."""
    probs = soft_labels(net, encoder, dataset, op)
    net_dec = probs > threshold
    X = np.hstack([dataset.umeta_matrix(), dataset.rmeta_matrix()]).astype(np.float64)
    tree_dec = np.array([_descend(tree.root, row)[0].value > threshold for row in X])
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

    def emit(node: TreeNode, indent: int):
        pad = " " * indent
        if node.is_leaf:
            lines.append(f"{pad}leaf {node.value!r} {node.count}")
        else:
            lines.append(
                f"{pad}node {tree.feature_names[node.feature]} <= {node.threshold!r}"
            )
            emit(node.left, indent + 1)
            emit(node.right, indent + 1)

    emit(tree.root, 0)
    return "\n".join(lines) + "\n"


def load_tree(text: str) -> DistilledTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
    if len(lines) < 3 or not lines[1].startswith("features "):
        raise FormatError("missing tree feature names")
    names = tuple(lines[1].split()[1:])
    name_index = {n: i for i, n in enumerate(names)}

    pos = 2

    def parse(indent: int) -> TreeNode:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("truncated tree file")
        line = lines[pos]
        if len(line) - len(line.lstrip(" ")) != indent:
            raise FormatError(f"bad indentation at tree line {pos + 1}")
        toks = line.split()
        pos += 1
        if toks[0] == "leaf":
            if len(toks) != 3:
                raise FormatError(f"bad leaf at tree line {pos}")
            return TreeNode(value=float(toks[1]), count=int(toks[2]))
        if toks[0] == "node":
            if len(toks) != 4 or toks[2] != "<=" or toks[1] not in name_index:
                raise FormatError(f"bad node at tree line {pos}")
            node = TreeNode(feature=name_index[toks[1]], threshold=float(toks[3]))
            node.left = parse(indent + 1)
            node.right = parse(indent + 1)
            return node
        raise FormatError(f"unknown tree entry at line {pos}")

    try:
        root = parse(0)
    except ValueError:  # a leaf value, leaf count or node threshold that is not a number
        raise FormatError(f"bad number at tree line {pos}") from None
    if pos != len(lines):
        raise FormatError("trailing content after tree")
    return DistilledTree(root, op_index, max_depth, min_leaf, mse, names)
