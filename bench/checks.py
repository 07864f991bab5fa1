"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports dlbac.  The dataset, model, encoder and tree files are
read by this module's own parsers, and the forward pass, input gradients,
integrated gradients, confusion counts, split search and the SplitMix64
sample draw are written out again, so a fault in the program cannot hide in
the reference it is compared with.  Every check raises `CheckFailed` with a
one-line reason.
"""

from __future__ import annotations

import numpy as np

# Integrated gradients summed over 128 steps in one matrix product against
# the program's step-by-step sum: float64 reassociation error stays near
# 1e-15 relative; 1e-9 leaves room for that and nothing else.
IG_RTOL = 1e-9
# A printed probability has six decimals, so it is within half a unit of the
# sixth decimal of the exact value, plus float noise.
PRINTED_TOL = 5e-7 + 1e-12
# Split search: the reference targets come from this module's own forward
# pass, which may differ from the program's in the last bits, so two SSEs
# closer than this are a tie.
SSE_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------


def read_dataset(text: str):
    """(ids, U, R, Y) int64 arrays from a `dlbac-ds v1` file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    require(head[:2] == ["dlbac-ds", "v1"], "dataset header")
    nu, nr, no = (int(t) for t in head[2:5])
    rows = []
    for ln in lines[1:]:
        ids, u, r, y = ln.split("|")
        rows.append([int(t) for t in (ids + u + r + y).split()])
    a = np.array(rows, dtype=np.int64).reshape(len(rows), 2 + nu + nr + no)
    return a[:, :2], a[:, 2 : 2 + nu], a[:, 2 + nu : 2 + nu + nr], a[:, 2 + nu + nr :]


def read_model(text: str):
    """(weights, biases) from a `dlbac-model v1` file."""
    lines = text.splitlines()
    require(lines[0].strip() == "dlbac-model v1", "model header")
    widths = [int(t) for t in lines[1].split()[1:]]
    weights, biases, i = [], [], 2
    for rows, cols in zip(widths[:-1], widths[1:]):
        require(lines[i].split()[2:] == ["weight", str(rows), str(cols)], f"model line {i + 1}")
        W = np.array([[float.fromhex(t) for t in lines[i + 1 + r].split()] for r in range(rows)])
        i += 1 + rows
        require(lines[i].split()[2:] == ["bias", str(cols)], f"model line {i + 1}")
        b = np.array([float.fromhex(t) for t in lines[i + 1].split()])
        i += 2
        require(W.shape == (rows, cols) and b.shape == (cols,), "model shapes")
        weights.append(W)
        biases.append(b)
    return weights, biases


def read_encoder(text: str) -> list[list[int]]:
    """Per metadata position (user then resource), the seen values by column."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    require(head[:3] == ["dlbac-encoder", "v1", "onehot"], "one-hot encoder header")
    positions = int(head[3]) + int(head[4])
    seen: list[dict[int, int]] = [{} for _ in range(positions)]
    for ln in lines[1:]:
        p, v, col = (int(t) for t in ln.split())
        seen[p][col] = v
    return [[cols[c] for c in range(len(cols))] for cols in seen]


def one_hot(seen: list[list[int]], U: np.ndarray, R: np.ndarray) -> np.ndarray:
    """One block per position, a column per seen value plus a trailing unknown column."""
    M = np.hstack([U, R])
    n = M.shape[0]
    X = np.zeros((n, sum(len(s) + 1 for s in seen)))
    start = 0
    for p, values in enumerate(seen):
        col = {v: k for k, v in enumerate(values)}
        X[np.arange(n), [start + col.get(int(v), len(values)) for v in M[:, p]]] = 1.0
        start += len(values) + 1
    return X


def read_tree(text: str):
    """Flat arrays (feature, threshold, left, right, value, count) and feature names.

    Nodes are numbered in file (pre-)order; leaves have feature -1.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    require(lines[0].startswith("dlbac-tree v1"), "tree header")
    names = lines[1].split()[1:]
    index = {n: i for i, n in enumerate(names)}
    feat, thr, left, right, value, count = [], [], [], [], [], []
    open_nodes: list[int] = []  # internal nodes still missing a child
    for ln in lines[2:]:
        toks = ln.split()
        k = len(feat)
        if open_nodes:
            parent = open_nodes[-1]
            if left[parent] < 0:
                left[parent] = k
            else:
                right[parent] = k
                open_nodes.pop()
        if toks[0] == "node":
            feat.append(index[toks[1]])
            thr.append(float(toks[3]))
            value.append(np.nan)
            count.append(0)
            open_nodes.append(k)
        else:
            feat.append(-1)
            thr.append(np.nan)
            value.append(float(toks[1]))
            count.append(int(toks[2]))
        left.append(-1)
        right.append(-1)
    require(not open_nodes, "tree file ends inside a subtree")
    arrays = [np.array(a) for a in (feat, thr, left, right, value, count)]
    return arrays, names


def tree_values(tree, X: np.ndarray) -> np.ndarray:
    """Leaf value reached by every row, by a vectorized descent."""
    feat, thr, left, right, value, _ = tree
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        inner = feat[node] >= 0
        if not inner.any():
            return value[node]
        rows = np.flatnonzero(inner)
        at = node[rows]
        go_left = X[rows, feat[at]] <= thr[at]
        node[rows] = np.where(go_left, left[at], right[at])


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------


def _layers(weights, biases, X):
    """Pre-activations of every layer and the output probabilities."""
    zs, a = [], X
    for l, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        zs.append(z)
        a = np.maximum(z, 0.0) if l < len(weights) - 1 else 0.5 * (1.0 + np.tanh(0.5 * z))
    return zs, a


def forward(weights, biases, X) -> np.ndarray:
    return _layers(weights, biases, X)[1]


def input_gradients(weights, biases, X, op: int) -> np.ndarray:
    """d p_op / d x for every row of X, by backprop."""
    zs, p = _layers(weights, biases, X)
    g = (p[:, op] * (1.0 - p[:, op]))[:, None] * weights[-1][:, op][None, :]
    for l in range(len(weights) - 2, -1, -1):
        g = (g * (zs[l] > 0.0)) @ weights[l].T
    return g


def integrated_gradients(weights, biases, x, op: int, steps: int) -> np.ndarray:
    """Right-Riemann IG from the all-zero baseline, every step in one batch."""
    alphas = np.arange(1, steps + 1, dtype=np.float64)[:, None] / steps
    grads = input_gradients(weights, biases, alphas * x[None, :], op)
    return x * grads.sum(axis=0) / steps


def block_scores(feature_scores, seen) -> np.ndarray:
    sums, start = [], 0
    for values in seen:
        width = len(values) + 1
        sums.append(np.abs(feature_scores[start : start + width]).sum())
        start += width
    sums = np.array(sums)
    return sums / sums.max() if sums.max() > 0 else sums


# ---------------------------------------------------------------------------
# SplitMix64, for global_explain's sample
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def splitmix_sample(seed: int, n: int, k: int) -> list[int]:
    """k distinct indices of range(n) in draw order, modulo reduction."""
    state, picked, seen = seed & _M64, [], set()
    while len(picked) < k:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        i = (z ^ (z >> 31)) % n
        if i not in seen:
            seen.add(i)
            picked.append(i)
    return picked


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def micro_rates(probs: np.ndarray, Y: np.ndarray) -> dict[str, float]:
    """F1, TPR and FPR pooled over every (tuple, op) entry at threshold 0.5."""
    pred = probs > 0.5
    truth = Y == 1
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))
    precision, tpr = tp / (tp + fp), tp / (tp + fn)
    return {
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "f1": 2.0 * precision * tpr / (precision + tpr), "tpr": tpr, "fpr": fp / (fp + tn),
    }


def check_scores(mine: dict, f1: float, tpr: float, fpr: float) -> None:
    """The program's micro figures equal the reference and meet criterion 1."""
    for name, theirs in (("f1", f1), ("tpr", tpr), ("fpr", fpr)):
        require(theirs is not None and abs(theirs - mine[name]) <= 1e-12,
                f"micro {name} {theirs} != reference {mine[name]:.12f}")
    require(mine["f1"] >= 0.90 and mine["tpr"] >= 0.90 and mine["fpr"] <= 0.10,
            f"criterion 1 missed: F1 {mine['f1']:.4f} TPR {mine['tpr']:.4f} FPR {mine['fpr']:.4f}")


def check_one_hot(X: np.ndarray, reference: np.ndarray, seen) -> None:
    require(X.shape == reference.shape and np.array_equal(X, reference),
            "encoded rows differ from the reference one-hot")
    start = 0
    for values in seen:
        width = len(values) + 1
        require(np.all(X[:, start : start + width].sum(axis=1) == 1.0),
                "an encoded metadata block does not hold exactly one 1")
        start += width


def check_replies(replies: list[str], expected: np.ndarray) -> None:
    """One `GRANT|DENY p` line per request, in order, matching the reference."""
    require(len(replies) == len(expected), f"{len(replies)} replies for {len(expected)} requests")
    for i, (line, p) in enumerate(zip(replies, expected)):
        parts = line.split()
        require(len(parts) == 2 and parts[0] in ("GRANT", "DENY"), f"reply {i}: {line!r}")
        printed = float(parts[1])
        require(abs(printed - p) <= PRINTED_TOL, f"reply {i}: {line!r}, reference p={p:.9f}")
        if abs(p - 0.5) > 1e-12:
            require((parts[0] == "GRANT") == (p > 0.5), f"reply {i}: verdict {line!r} for p={p:.9f}")


def check_attribution(feature_scores, metadata_scores, reference, seen) -> None:
    """Per-feature IG within IG_RTOL of the reference; normalized scores in [0, 1], max 1."""
    scale = np.abs(reference).max()
    err = np.abs(np.asarray(feature_scores) - reference).max()
    require(err <= IG_RTOL * scale + 1e-15, f"attribution off by {err:.3g} (scale {scale:.3g})")
    m = np.asarray(metadata_scores)
    require(np.all((m >= 0.0) & (m <= 1.0)) and m.max() == 1.0, "normalized scores outside [0, 1] or max != 1")
    err = np.abs(m - block_scores(reference, seen)).max()
    require(err <= IG_RTOL, f"normalized scores off by {err:.3g}")


def check_global(feature_scores, metadata_scores, ref_feature, ref_metadata) -> None:
    scale = np.abs(ref_feature).max()
    err = np.abs(np.asarray(feature_scores) - ref_feature).max()
    require(err <= IG_RTOL * scale + 1e-15, f"global attribution off by {err:.3g}")
    m = np.asarray(metadata_scores)
    require(np.all((m >= 0.0) & (m <= 1.0)), "global normalized scores outside [0, 1]")
    require(np.abs(m - ref_metadata).max() <= IG_RTOL, "global normalized scores differ")


def _sse(y, mask) -> float:
    yl, yr = y[mask], y[~mask]
    return float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())


def best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Exhaustive search over every feature and value midpoint: (sse, feature, threshold)."""
    n, best = len(y), None
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for thr in (values[:-1] + values[1:]) / 2.0:
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            cand = (_sse(y, mask), f, float(thr))
            if best is None or cand < best:
                best = cand
    return best


def check_tree(text: str, X: np.ndarray, y: np.ndarray, min_leaf: int, mse: float):
    """Root split, half-integer thresholds and MSE of a saved tree; returns the parsed tree."""
    tree, _ = read_tree(text)
    feat, thr = tree[0], tree[1]
    inner = feat >= 0
    require(np.all(2.0 * thr[inner] == np.round(2.0 * thr[inner])), "a threshold is not a value midpoint")
    best = best_split(X, y, min_leaf)
    require(best is not None and feat[0] >= 0, "root should split")
    if (int(feat[0]), float(thr[0])) != best[1:]:
        root = _sse(y, X[:, feat[0]] <= thr[0])
        require(root <= best[0] * (1 + SSE_RTOL) + 1e-15,
                f"root split f{feat[0]} <= {thr[0]} (sse {root:.9g}) is not the best "
                f"f{best[1]} <= {best[2]} (sse {best[0]:.9g})")
    walked = float(np.mean((tree_values(tree, X) - y) ** 2))
    require(abs(walked - mse) <= SSE_RTOL * max(mse, 1e-12) + 1e-15,
            f"tree mse {mse!r} != {walked!r} from walking the saved tree")
    return tree


def agreement(tree, X: np.ndarray, probs: np.ndarray) -> float:
    """Share of rows where the tree's and the network's thresholded decisions agree."""
    return float(np.mean((tree_values(tree, X) > 0.5) == (probs > 0.5)))
