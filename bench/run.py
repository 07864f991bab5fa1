#!/usr/bin/env python3
"""Benchmark of the three DLBAC jobs: train, serve and explain.

    python3 bench/run.py --workload {train,serve,explain} [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: it imports the library from
src/ and, for `serve`, launches `python -m dlbac.cli serve` as a child.
Every output is checked against bench/checks.py.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1.  Inputs, metric definitions and reference
figures are in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The full-scale acceptance config: 11,904 tuples, 16 metadata positions of
# 20 values, 4 ops, 336-wide one-hot input, an 80/20 split at seed 0.  Other
# synthesis seeds give 3.7k to 400k tuples, so the synthesis seed is fixed
# and the workload seed varies only inputs that leave the work the same.
SYNTH = dict(
    num_users=4500, num_resources=4500, num_user_meta=8, num_res_meta=8,
    num_rules=20, num_ops=4, value_set_sizes=(20,) * 16, seed=29, neg_ratio=0.3,
)
TEST_FRACTION = 0.2
SPLIT_SEED = 0
MODEL_SEED = 0  # init and shuffle seed of the model that serve and explain load
SETUP_REPS = 5
EVAL_REPS = 20  # `evaluate` calls per train round
LOCAL_SAMPLES = 24  # local explanations per explain round
IG_STEPS = 128
GLOBAL_SAMPLES = 50
WINDOW = 32  # requests outstanding in the pipelined serve phase
GROUP = 250  # serve requests per timing group

clock = time.perf_counter


class Run:
    """What one run measured: operation counts, check failures, metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end: dict[str, tuple[float, str]] = {}
        self.reference: dict[str, float] = {}  # untimed extras for the README
        self.extra_layers: dict[str, float] = {}  # per-layer figures not taken from spans
        self.child_spans: list = []

    def span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def verify(self, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))
            return None


def fastest_median(samples: list[float], size: int) -> float:
    """Lowest median over consecutive groups of `size` samples, in run order.

    Each core of the reference machine switches, for 0.5 to 3 s at a time,
    between a fast state and one 1.45 to 1.9 times slower, and the share of
    each varies between runs, so a plain median drifts with it.  The median
    of the fastest group is the cost in the fast state, which nearly every
    run reaches.  Single operations of 10 ms and more use `min` instead.
    """
    groups = [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]
    return float(min(statistics.median(g) for g in groups) if groups else statistics.median(samples))


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: tells a slow machine state apart."""
    times = []
    for _ in range(5):
        t0 = clock()
        s = 0
        for i in range(200_000):
            s += i
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the model that serve and explain load
# ---------------------------------------------------------------------------


def source_key() -> str:
    """Hash of the library source and the model's config: the cache key."""
    h = hashlib.sha256(repr((SYNTH, TEST_FRACTION, SPLIT_SEED, MODEL_SEED)).encode())
    for path in sorted((SRC / "dlbac").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:24]


def ensure_model() -> Path:
    """Directory with model.txt, encoder.txt and data.txt, trained by this source."""
    models = OUT / "models"
    target = models / source_key()
    if (target / "data.txt").is_file():
        return target
    models.mkdir(parents=True, exist_ok=True)
    data, *_ = ds.synthesize(ds.SynthConfig(**SYNTH))
    train, _ = ds.split_dataset(data, TEST_FRACTION, SPLIT_SEED)
    encoder = enc.build_encoder(train)
    net = nn.init_network(nn.NetworkConfig(encoder.width, data.num_ops, init_seed=MODEL_SEED))
    net, _ = nn.train(net, train, encoder, nn.TrainConfig(shuffle_seed=MODEL_SEED))
    tmp = Path(tempfile.mkdtemp(dir=models))
    (tmp / "model.txt").write_text(nn.save_model(net))
    (tmp / "encoder.txt").write_text(enc.save_encoder(encoder))
    (tmp / "data.txt").write_text(ds.serialize_dataset(data))
    try:
        tmp.rename(target)
    except OSError:  # another run got there first
        shutil.rmtree(tmp)
    return target


def raw_matrix(dataset) -> np.ndarray:
    return np.array([t.umeta + t.rmeta for t in dataset.tuples], dtype=np.float64)


# ---------------------------------------------------------------------------
# train: synthesize -> encoder, then `train` with defaults and score
# ---------------------------------------------------------------------------


def prepare_train(seed):
    return {}


def measure_train(state, seed, seconds, run: Run):
    setup = []
    for _ in range(SETUP_REPS):
        with run.span("bench.setup"):
            t0 = clock()
            data, *_ = ds.synthesize(ds.SynthConfig(**SYNTH))
            text = ds.serialize_dataset(data)
            parsed = ds.parse_dataset(text)
            train, test = ds.split_dataset(parsed, TEST_FRACTION, SPLIT_SEED)
            encoder = enc.build_encoder(train)
            setup.append(clock() - t0)
        run.attempted += 1

    run.verify(checks.require, parsed == data, "parse(serialize(d)) != d")
    run.verify(checks.require, 9000 <= len(data.tuples) <= 13000,
               f"{len(data.tuples)} tuples, outside [9000, 13000]")
    seen = checks.read_encoder(enc.save_encoder(encoder))
    U = np.array([t.umeta for t in train.tuples])
    R = np.array([t.rmeta for t in train.tuples])
    run.verify(checks.check_one_hot, enc.encode_dataset(encoder, train), checks.one_hot(seen, U, R), seen)
    X_test = checks.one_hot(seen, np.array([t.umeta for t in test.tuples]),
                            np.array([t.rmeta for t in test.tuples]))
    Y_test = np.array([t.ops for t in test.tuples])

    def fresh():
        return nn.init_network(nn.NetworkConfig(encoder.width, data.num_ops, init_seed=seed))

    def score(net):
        scored = mt.evaluate(net, encoder, test).micro
        mine = checks.micro_rates(checks.forward(net.weights, net.biases, X_test), Y_test)
        run.verify(checks.check_scores, mine, scored.f1, scored.tpr, scored.fpr)
        return mine["f1"]

    # `train` with every default, to its early stop: the model and its F1.
    # Its length follows the early stop (7 to 12 epochs over seeds), so the
    # timed unit below is one epoch.
    with run.span("bench.train_full"):
        t0 = clock()
        best, report = nn.train(fresh(), train, encoder, nn.TrainConfig(shuffle_seed=seed))
        train_s = clock() - t0
    run.attempted += 1
    f1 = score(best)

    epoch_s, eval_ms = [], []
    deadline = clock() + seconds
    while True:
        with run.span("bench.round"):
            t0 = clock()
            one, _ = nn.train(fresh(), train, encoder, nn.TrainConfig(epochs=1, shuffle_seed=seed))
            epoch_s.append(clock() - t0)
            for _ in range(EVAL_REPS):
                t0 = clock()
                mt.evaluate(one, encoder, test)
                eval_ms.append((clock() - t0) * 1e3)
        run.attempted += 1 + EVAL_REPS
        if clock() >= deadline:
            break
    score(one)

    run.end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms": (min(eval_ms), "ms"),
        "bulk_s": (min(epoch_s), "s"),
        "quality": (f1, "ratio"),
    }
    run.reference = {
        "train_s": train_s,
        "epochs": report.stopped_epoch,
        "train_epoch_mean_s": train_s / report.stopped_epoch,
        "epoch_median_s": statistics.median(epoch_s),
        "evaluate_median_ms": statistics.median(eval_ms),
    }
    run.extra_layers = {
        "neuralnet.epochs": report.stopped_epoch,
        "neuralnet.useful_epoch_ratio": (report.best_epoch + 1) / report.stopped_epoch,
    }


# ---------------------------------------------------------------------------
# serve: `dlbac serve` child, one loopback connection, closed loop + pipelined
# ---------------------------------------------------------------------------


def prepare_serve(seed):
    mdir = ensure_model()
    data_text = (mdir / "data.txt").read_text()
    _, test = ds.split_dataset(ds.parse_dataset(data_text), TEST_FRACTION, SPLIT_SEED)
    ids, U, R, Y = checks.read_dataset(data_text)
    row_of = {(int(u), int(r)): i for i, (u, r) in enumerate(ids)}
    weights, biases = checks.read_model((mdir / "model.txt").read_text())
    seen = checks.read_encoder((mdir / "encoder.txt").read_text())
    pairs = [row_of[(t.uid, t.rid)] for t in test.tuples]
    requests = [(row, op) for row in pairs for op in range(Y.shape[1])]
    order = np.random.default_rng(seed).permutation(len(requests))
    requests = [requests[i] for i in order]
    rows = np.array([r for r, _ in requests])
    ops = np.array([op for _, op in requests])
    probs = checks.forward(weights, biases, checks.one_hot(seen, U[rows], R[rows]))
    lines = [f"DECIDE {ids[r, 0]} {ids[r, 1]} {op}\n".encode() for r, op in requests]
    repeated = len(lines) - len({(ids[r, 0], ids[r, 1]) for r, _ in requests})
    return {
        "mdir": mdir,
        "lines": lines,
        "expected": probs[np.arange(len(requests)), ops],
        "labels": Y[rows, ops],
        "repeated_pair_share": repeated / len(lines),
    }


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Child:
    """One `dlbac serve` process; launched, pinged until PONG, terminated."""

    def __init__(self, mdir: Path, spans_path: Path | None):
        self.port = free_port()
        serve_args = ["serve", "--model", str(mdir), "--store", str(mdir / "data.txt"),
                      "--listen", f"127.0.0.1:{self.port}"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "dlbac.cli", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH / "serve_child.py"), str(spans_path), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.log = tempfile.TemporaryFile(dir=OUT)
        self.launched = clock()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        self.sock = None

    def connect(self, timeout=60.0) -> float:
        """Poll with PING until the first PONG; returns launch-to-PONG seconds.

        `dlbac serve` prints its `listening on` line before it binds and
        without a flush, so the line cannot tell when the server is up.
        """
        give_up = self.launched + timeout
        while True:
            if self.proc.poll() is not None:
                self.log.seek(0)
                raise RuntimeError(f"dlbac serve exited: {self.log.read().decode()[-2000:]}")
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=5)
            except OSError:
                if clock() > give_up:
                    raise RuntimeError("dlbac serve did not answer in time") from None
                time.sleep(0.002)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")
            sock.sendall(b"PING\n")
            reply = reader.readline()
            ready = clock()
            if reply != b"PONG\n":
                raise RuntimeError(f"PING answered {reply!r}")
            sock.settimeout(60)
            self.sock, self.reader = sock, reader
            return ready - self.launched

    def close(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def read_spans(path: Path) -> list:
    spans = json.loads(path.read_text())["spans"]
    path.unlink()
    return spans


def sequential(child: Child, lines, rtts: list[float]) -> list[bytes]:
    sock, reader = child.sock, child.reader
    replies = []
    for line in lines:
        t0 = clock()
        sock.sendall(line)
        replies.append(reader.readline())
        rtts.append(clock() - t0)
    return replies


def pipelined(child: Child, lines, group_s: list[float]) -> list[bytes]:
    """Keeps WINDOW requests outstanding; appends the time of every GROUP replies."""
    sock, reader = child.sock, child.reader
    n = len(lines)
    sent = min(WINDOW, n)
    last = clock()
    sock.sendall(b"".join(lines[:sent]))
    replies = []
    while len(replies) < n:
        replies.append(reader.readline())
        if sent < n:
            sock.sendall(lines[sent])
            sent += 1
        if len(replies) % GROUP == 0:
            now = clock()
            group_s.append(now - last)
            last = now
    return replies


def measure_serve(state, seed, seconds, run: Run):
    traced = run.tracer is not None
    lines, expected = state["lines"], state["expected"]
    setup, children_spans, startups = [], [], []
    child = None
    try:
        for k in range(SETUP_REPS):
            spans_path = OUT / "traces" / f"serve-child-{k}.json" if traced else None
            if spans_path is not None:
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                spans_path.unlink(missing_ok=True)
            with run.span("bench.setup"):
                child = Child(state["mdir"], spans_path)
                setup.append(child.connect())
            run.attempted += 1
            if k < SETUP_REPS - 1:
                child.close()
                if traced:
                    children_spans.append((k, read_spans(spans_path)))
                child = None

        rtts, seq_windows, pipe_s, group_s, served = [], [], [], [], []
        deadline = clock() + seconds
        while True:
            with run.span("bench.round"):
                t0 = clock()
                with run.span("bench.sequential"):
                    seq = sequential(child, lines, rtts)
                seq_windows.append((t0, clock()))
                t0 = clock()
                with run.span("bench.pipelined"):
                    pipe = pipelined(child, lines, group_s)
                pipe_s.append(clock() - t0)
            for replies in (seq, pipe):
                run.attempted += len(replies)
                text = [r.decode().strip() for r in replies]
                ok = np.array([not t.startswith("ERR") for t in text])
                run.failed += int((~ok).sum())
                run.verify(checks.check_replies, [t for t, g in zip(text, ok) if g], expected[ok])
                served.append(np.array([t.startswith("GRANT") for t in text]) & ok)
            if clock() >= deadline:
                break
    finally:
        if child is not None:
            child.close()
    if traced:
        children_spans.append((SETUP_REPS - 1, read_spans(spans_path)))

    rtt_ms = np.array(rtts) * 1e3
    grants = served[0].astype(int)
    labels = state["labels"]
    tp = int(np.sum((grants == 1) & (labels == 1)))
    fp = int(np.sum((grants == 1) & (labels == 0)))
    fn = int(np.sum((grants == 0) & (labels == 1)))
    run.end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms": (fastest_median(list(rtt_ms), GROUP), "ms"),
        "bulk_s": (min(group_s) * 1000 / GROUP, "s"),
        "quality": (2 * tp / (2 * tp + fp + fn), "ratio"),
    }
    run.reference = {
        "decide_p50_ms": float(np.median(rtt_ms)),
        "decide_p99_ms": float(np.percentile(rtt_ms, 99)),
        "rtt_samples": len(rtts),
        "pipelined_decide_per_s": len(lines) / statistics.median(pipe_s),
        "repeated_pair_share": state["repeated_pair_share"],
    }
    if traced:
        merged = []
        for k, spans in children_spans:
            offset = (k + 1) * 10**9
            merged += [[s[0] + offset, s[1], s[2], s[3], s[4] + offset if s[4] else 0, s[5]]
                       for s in spans]
        run.child_spans = merged
        S = tracing.Spans(merged)
        loads = ("dataset.parse_dataset", "encoding.load_encoder", "neuralnet.load_model",
                 "engine.build_store")
        for k, spans in children_spans:
            own = tracing.Spans(spans)
            startups.append(setup[k] - sum(own.total(own.named(n)) for n in loads))
        handled = sum(S.total(S.named("engine.handle_line", within=w)) for w in seq_windows)
        run.extra_layers = {
            "cli.startup_s": statistics.median(startups),
            "engine.io_wait_us": (sum(rtts) - handled) / len(rtts) * 1e6,
        }


# ---------------------------------------------------------------------------
# explain: local and global integrated gradients, depth-8 and unlimited trees
# ---------------------------------------------------------------------------


def prepare_explain(seed):
    mdir = ensure_model()
    data = ds.parse_dataset((mdir / "data.txt").read_text())
    train, test = ds.split_dataset(data, TEST_FRACTION, SPLIT_SEED)
    X_train = raw_matrix(train)
    _, first = np.unique(X_train, axis=0, return_index=True)
    unique = ds.Dataset(train.num_user_meta, train.num_res_meta, train.num_ops,
                        tuple(train.tuples[i] for i in sorted(first)))
    weights, biases = checks.read_model((mdir / "model.txt").read_text())
    seen = checks.read_encoder((mdir / "encoder.txt").read_text())
    nu = train.num_user_meta

    def op0_probs(X_raw):
        return checks.forward(weights, biases, checks.one_hot(seen, X_raw[:, :nu], X_raw[:, nu:]))[:, 0]

    def onehot_row(t):
        return checks.one_hot(seen, np.array([t.umeta]), np.array([t.rmeta]))[0]

    rng = np.random.default_rng(seed)
    picks = rng.choice(len(test.tuples), LOCAL_SAMPLES, replace=False)
    local = []
    for i in picks:
        t = test.tuples[int(i)]
        op = int(rng.integers(data.num_ops))
        ref = checks.integrated_gradients(weights, biases, onehot_row(t), op, IG_STEPS)
        local.append((t.uid, t.rid, op, ref))

    glob = []
    for op in range(data.num_ops):
        pool = [t for t in test.tuples if t.ops[op] == 1]
        raws = [checks.integrated_gradients(weights, biases, onehot_row(pool[i]), op, IG_STEPS)
                for i in checks.splitmix_sample(seed, len(pool), GLOBAL_SAMPLES)]
        glob.append((np.mean(raws, axis=0),
                     np.mean([checks.block_scores(r, seen) for r in raws], axis=0)))

    X_unique, X_test = raw_matrix(unique), raw_matrix(test)
    return {
        "mdir": mdir, "train": train, "test": test, "unique": unique, "seen": seen,
        "local": local, "global": glob,
        "X_train": X_train, "y_train": op0_probs(X_train),
        "X_unique": X_unique, "y_unique": op0_probs(X_unique),
        "X_test": X_test, "y_test": op0_probs(X_test),
    }


def measure_explain(state, seed, seconds, run: Run):
    mdir, seen = state["mdir"], state["seen"]
    train, test = state["train"], state["test"]
    setup = []
    for _ in range(SETUP_REPS):
        with run.span("bench.setup"):
            t0 = clock()
            net = nn.load_model((mdir / "model.txt").read_text())
            encoder = enc.load_encoder((mdir / "encoder.txt").read_text())
            store = eng.build_store(ds.parse_dataset((mdir / "data.txt").read_text()))
            setup.append(clock() - t0)
        run.attempted += 1

    # The trees are fitted once per run: their fit times spread 11-22 %
    # between runs under every estimator tried, so they are reference
    # figures, not gated metrics.
    with run.span("bench.trees"):
        t0 = clock()
        with run.span("bench.distill8"):
            tree8 = dst.distill(net, encoder, train, 0, 8, 5)
            fid8 = dst.fidelity(tree8, net, encoder, test, 0)
        d8_s = clock() - t0
        t0 = clock()
        with run.span("bench.distill_full"):
            tree = dst.distill(net, encoder, state["unique"], 0, None, 1)
            fid_full = dst.fidelity(tree, net, encoder, state["unique"], 0)
            text = dst.save_tree(tree)
            back = dst.load_tree(text)
        full_s = clock() - t0
    run.attempted += 2

    parsed8 = run.verify(checks.check_tree, dst.save_tree(tree8), state["X_train"], state["y_train"], 5,
                         tree8.mse)
    if parsed8 is not None:
        run.verify(checks.require, checks.agreement(parsed8, state["X_test"], state["y_test"]) == fid8,
                   f"depth-8 fidelity {fid8} differs from the reference")
    X, y = state["X_unique"], state["y_unique"]
    parsed = run.verify(checks.check_tree, text, X, y, 1, tree.mse)
    run.verify(checks.require, fid_full == 1.0, f"unlimited tree fidelity {fid_full}, expected 1.0")
    if parsed is not None:
        run.verify(checks.require, checks.agreement(parsed, X, y) == 1.0,
                   "unlimited tree disagrees with the reference network on its training set")
    run.verify(checks.require, dst.save_tree(back) == text, "tree changed in a save/load round trip")

    local_ms, global_s = [], []
    deadline = clock() + seconds
    while True:
        with run.span("bench.round"):
            with run.span("bench.local"):
                attrs = []
                for uid, rid, op, _ in state["local"]:
                    t0 = clock()
                    attrs.append(itp.local_explain(net, encoder, store, uid, rid, op, IG_STEPS))
                    local_ms.append((clock() - t0) * 1e3)
            t0 = clock()
            with run.span("bench.global"):
                globs = [itp.global_explain(net, encoder, test, op, 1, GLOBAL_SAMPLES, seed, IG_STEPS)
                         for op in range(len(state["global"]))]
            global_s.append(clock() - t0)
        run.attempted += len(attrs) + len(globs)
        for a, (_, _, _, ref) in zip(attrs, state["local"]):
            run.verify(checks.check_attribution, a.feature_scores, a.metadata_scores, ref, seen)
        for g, (ref_f, ref_m) in zip(globs, state["global"]):
            run.verify(checks.check_global, g.feature_scores, g.metadata_scores, ref_f, ref_m)
        if clock() >= deadline:
            break

    run.end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms": (min(local_ms), "ms"),
        "bulk_s": (min(global_s), "s"),
        "quality": (fid8, "ratio"),
    }
    run.reference = {
        "local_explain_median_ms": statistics.median(local_ms),
        "global_explain_median_s": statistics.median(global_s),
        "distill8_s": d8_s,
        "distill_full_s": full_s,
        "local_samples": len(local_ms),
    }
    run.extra_layers = {
        "distill.nodes8": 0 if parsed8 is None else len(parsed8[0]),
        "distill.nodes_full": 0 if parsed is None else len(parsed[0]),
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

# (metric, unit, span, container span, how).  A span `a<b` counts calls of
# `a` made directly by `b`; `x|y` takes the first container the workload
# has.  "sum" is the median over containers of the time in the span,
# "calls" the median count per container, "per_call" and "self_per_call"
# the mean over all calls, "self" the median over containers of the time
# outside wrapped child calls.
LAYER_METRICS = [
    ("dataset.synthesize_s", "s", "dataset.synthesize", "bench.setup", "sum"),
    ("dataset.serialize_s", "s", "dataset.serialize_dataset", "bench.setup", "sum"),
    ("dataset.parse_s", "s", "dataset.parse_dataset", "bench.setup", "sum"),
    ("dataset.split_s", "s", "dataset.split_dataset", "bench.setup", "sum"),
    ("encoding.build_encoder_s", "s", "encoding.build_encoder", "bench.setup", "sum"),
    ("encoding.load_encoder_s", "s", "encoding.load_encoder", "bench.setup", "sum"),
    ("neuralnet.load_model_s", "s", "neuralnet.load_model", "bench.setup", "sum"),
    ("engine.build_store_s", "s", "engine.build_store", "bench.setup", "sum"),
    ("encoding.encode_dataset_s", "s", "encoding.encode_dataset", "bench.trees|bench.round", "sum"),
    ("encoding.encode_pair_us", "us/call", "encoding.encode_pair", "bench.round", "per_call"),
    ("encoding.encode_pair_calls", "count", "encoding.encode_pair", "bench.round", "calls"),
    ("neuralnet.train_s", "s", "neuralnet.train", "bench.train_full", "sum"),
    ("neuralnet.train_self_s", "s", "neuralnet.train", "bench.train_full", "self"),
    ("neuralnet.adam_step_ms", "ms/call", "neuralnet.adam_step", "bench.round", "per_call"),
    ("neuralnet.adam_step_calls", "count", "neuralnet.adam_step", "bench.train_full", "calls"),
    ("neuralnet.val_forward_s", "s", "neuralnet.forward<neuralnet.train", "bench.train_full", "sum"),
    ("neuralnet.forward_us", "us/call", "neuralnet.forward", "bench.round", "per_call"),
    ("neuralnet.forward_calls", "count", "neuralnet.forward", "bench.round", "calls"),
    ("neuralnet.input_gradient_ms", "ms/call", "neuralnet.input_gradient", "bench.round", "per_call"),
    ("neuralnet.input_gradient_calls", "count", "neuralnet.input_gradient", "bench.round", "calls"),
    ("metrics.evaluate_ms", "ms/call", "metrics.evaluate", "bench.round", "per_call"),
    ("engine.handle_line_us", "us/call", "engine.handle_line", "bench.round", "per_call"),
    ("engine.requests", "count", "engine.handle_line", "bench.round", "calls"),
    ("engine.handle_line_self_us", "us/call", "engine.handle_line", "bench.round", "self_per_call"),
    ("engine.decide_self_us", "us/call", "engine.decide", "bench.round", "self_per_call"),
    ("interpret.local_explain_ms", "ms/call", "interpret.local_explain", "bench.round", "per_call"),
    ("interpret.global_explain_s", "s", "interpret.global_explain", "bench.round", "sum"),
    ("interpret.integrated_gradients_ms", "ms/call", "interpret.integrated_gradients", "bench.local", "per_call"),
    ("interpret.ig_self_ms", "ms/call", "interpret.integrated_gradients", "bench.local", "self_per_call"),
    ("interpret.aggregate_us", "us/call", "interpret.aggregate", "bench.round", "per_call"),
    ("distill.soft_labels_s", "s", "distill.soft_labels", "bench.trees", "sum"),
    ("distill.distill8_s", "s", "distill.distill", "bench.distill8", "sum"),
    ("distill.fit_tree8_s", "s", "distill.fit_tree", "bench.distill8", "sum"),
    ("distill.fit_tree_full_s", "s", "distill.fit_tree", "bench.distill_full", "sum"),
    ("distill.fidelity_s", "s", "distill.fidelity", "bench.trees", "sum"),
    ("distill.save_tree_s", "s", "distill.save_tree", "bench.trees", "sum"),
    ("distill.load_tree_s", "s", "distill.load_tree", "bench.trees", "sum"),
]
# figures the workloads compute themselves (0 where a workload has none)
EXTRA_LAYERS = [
    ("cli.startup_s", "s"),
    ("engine.io_wait_us", "us/req"),
    ("neuralnet.epochs", "count"),
    ("neuralnet.useful_epoch_ratio", "ratio"),
    ("distill.nodes8", "count"),
    ("distill.nodes_full", "count"),
]
SCALE = {"s": 1.0, "ms/call": 1e3, "us/call": 1e6, "count": 1.0}


def layer_metrics(spans: tracing.Spans, run: Run) -> dict[str, tuple[float, str]]:
    out = {}
    for metric, unit, span, container, how in LAYER_METRICS:
        name, _, parent = span.partition("<")
        # the first of the listed containers that the workload has
        container = next((c for c in container.split("|") if spans.named(c)), container)
        boxes = [(c[tracing.START], c[tracing.END]) for c in spans.named(container)]
        per_box = [spans.named(name, within=b, parent=parent or None) for b in boxes]
        calls = sum(len(p) for p in per_box)
        if how == "sum":
            value = statistics.median([spans.total(p) for p in per_box]) if boxes else 0.0
        elif how == "self":
            value = statistics.median([spans.self_time(p) for p in per_box]) if boxes else 0.0
        elif how == "calls":
            value = statistics.median([len(p) for p in per_box]) if boxes else 0.0
        else:
            flat = [s for p in per_box for s in p]
            total = spans.self_time(flat) if how == "self_per_call" else spans.total(flat)
            value = total / calls if calls else 0.0
        out[metric] = (value * SCALE[unit], unit)
    for metric, unit in EXTRA_LAYERS:
        out[metric] = (float(run.extra_layers.get(metric, 0.0)), unit)
    return out


# ---------------------------------------------------------------------------


WORKLOADS = {
    "train": (prepare_train, measure_train),
    "serve": (prepare_serve, measure_serve),
    "explain": (prepare_explain, measure_explain),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dlbac" / "__init__.py").is_file():
        print(f"error: no dlbac sources under {SRC}; run from the root of a dlbac checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global ds, enc, nn, mt, eng, itp, dst
    # by module path: the package re-exports a function named `distill`
    ds, dst, enc, eng, itp, mt, nn = (
        importlib.import_module(f"dlbac.{m}")
        for m in ("dataset", "distill", "encoding", "engine", "interpret", "metrics", "neuralnet")
    )

    OUT.mkdir(exist_ok=True)
    calibration = [calibrate()]
    prepare, measure = WORKLOADS[args.workload]
    state = prepare(args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = Run(tracer)
    measure(state, args.seed, args.seconds, run)
    calibration.append(calibrate())

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {k: round(v, 6) for k, (v, _) in run.end_to_end.items()} | {
        k: round(v, 6) for k, v in run.reference.items()}
    print(f"{args.workload} seed={args.seed} calibration_loop_ms={calibration} {summary}",
          file=sys.stderr)
    if tracer is None:
        metrics = run.end_to_end
    else:
        bench_spans = tracer.dump()
        metrics = layer_metrics(tracing.Spans(bench_spans + run.child_spans), run)
        tracing.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed,
            "calibration_loop_ms": calibration,
            "end_to_end_traced": {k: v for k, (v, _) in run.end_to_end.items()},
            "reference_traced": run.reference,
            "per_layer": {k: v for k, (v, _) in metrics.items()},
            "spans": bench_spans, "child_spans": run.child_spans,
        })
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
