import re
import socket
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbac as d
from dlbac import engine
from dlbac.engine import handle_line
from dlbac.errors import ConfigError, ConflictError, NotFoundError


@pytest.fixture(scope="module")
def setup():
    cfg = d.SynthConfig(
        num_users=40, num_resources=40, num_user_meta=4, num_res_meta=4,
        num_rules=3, num_ops=2, value_set_sizes=(6,) * 8, seed=9,
        visible_user_meta=4, visible_res_meta=4, neg_ratio=1.0,
    )
    dset, *_ = d.synthesize(cfg)
    enc = d.build_encoder(dset)
    net = d.init_network(d.NetworkConfig(enc.width, 2, (16,), init_seed=0))
    net, _ = d.train(net, dset, enc, d.TrainConfig(epochs=10, val_fraction=0.0))
    store = d.build_store(dset)
    return net, enc, store, dset


class TestStore:
    def test_lookup_round_trip(self, setup):
        _, _, store, dset = setup
        t = dset.tuples[0]
        assert tuple(store.U[store.uids.tolist().index(t.uid)].tolist()) == t.umeta
        assert tuple(store.R[store.rids.tolist().index(t.rid)].tolist()) == t.rmeta

    def test_unknown_ids(self, setup):
        _, enc, store, dset = setup
        t = dset.tuples[0]
        with pytest.raises(NotFoundError, match="unknown user 999999"):
            store.features(enc, 999999, t.rid)
        with pytest.raises(NotFoundError, match="unknown resource"):
            store.features(enc, t.uid, 999999)

    @pytest.mark.parametrize("scheme", ["onehot", "binary"])
    def test_features_are_each_tuples_encoded_row(self, setup, scheme):
        _, _, store, dset = setup
        enc = d.build_encoder(dset, scheme)
        want = d.encode_positions(enc, dset.M)
        got = np.array([store.features(enc, u, r) for u, r in dset.ids.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_arrays_are_read_only_int64(self, setup):
        _, _, store, dset = setup
        assert store.U.shape == (len(store.uids), dset.num_user_meta)
        assert store.R.shape == (len(store.rids), dset.num_res_meta)
        for a in (store.uids, store.U, store.rids, store.R):
            assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_conflicting_metadata_rejected(self):
        tuples = (
            d.AuthorizationTuple(1, 2, (5,), (6,), (1,)),
            d.AuthorizationTuple(1, 3, (7,), (6,), (1,)),
        )
        with pytest.raises(ConflictError, match="user 1"):
            d.build_store(d.Dataset(1, 1, 1, tuples))

    def test_id_listings_sorted(self, setup):
        _, _, store, _ = setup
        assert store.user_ids == sorted(store.user_ids)
        assert store.resource_ids == sorted(store.resource_ids)


def _store_oracle(dataset):
    """`build_store` as a per-tuple loop: each id's first metadata, or the first conflict."""
    users: dict[int, tuple[int, ...]] = {}
    resources: dict[int, tuple[int, ...]] = {}
    for t in dataset.tuples:
        for table, key, meta, kind in (
            (users, t.uid, t.umeta, "user"),
            (resources, t.rid, t.rmeta, "resource"),
        ):
            prev = table.get(key)
            if prev is None:
                table[key] = meta
            elif prev != meta:
                raise ConflictError(f"conflicting metadata for {kind} {key}: {prev} vs {meta}")
    return users, resources


@st.composite
def store_datasets(draw):
    """Few ids and values, so repeated ids and conflicts are common; pairs are distinct."""
    nu, nr = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    value = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(
        st.integers(-3, 3), st.integers(-3, 3),
        st.lists(value, min_size=nu, max_size=nu), st.lists(value, min_size=nr, max_size=nr),
    ), max_size=12, unique_by=lambda row: row[:2]))
    tuples = [d.AuthorizationTuple(u, r, tuple(um), tuple(rm), (1,)) for u, r, um, rm in rows]
    return d.Dataset(nu, nr, 1, tuples)


@settings(max_examples=300, deadline=None)
@given(store_datasets())
def test_store_matches_the_per_tuple_oracle(dset):
    try:
        users, resources = _store_oracle(dset)
    except ConflictError as expected:
        with pytest.raises(ConflictError) as got:
            d.build_store(dset)
        assert str(got.value) == str(expected)
        return
    store = d.build_store(dset)
    for ids, M, width, table in (
        (store.uids, store.U, dset.num_user_meta, users),
        (store.rids, store.R, dset.num_res_meta, resources),
    ):
        assert ids.dtype == M.dtype == np.int64 and M.shape == (len(table), width)
        assert not (ids.flags.writeable or M.flags.writeable)
        assert ids.tolist() == list(table)
        assert [tuple(row) for row in M.tolist()] == list(table.values())


@pytest.mark.parametrize(
    "tuples, message",
    [
        # the third tuple conflicts on both sides: the user is named
        (((1, 2, 5, 6), (3, 4, 0, 8), (1, 4, 7, 9)), "user 1: (5,) vs (7,)"),
        # the resource conflict comes a tuple before the user's
        (((1, 2, 5, 6), (3, 2, 0, 9), (1, 4, 7, 0)), "resource 2: (6,) vs (9,)"),
    ],
)
def test_earliest_conflict_is_named(tuples, message):
    dset = d.Dataset(1, 1, 1, [d.AuthorizationTuple(u, r, (um,), (rm,), (0,))
                               for u, r, um, rm in tuples])
    with pytest.raises(ConflictError, match=re.escape(message)):
        d.build_store(dset)


class TestDecide:
    def test_agrees_with_forward(self, setup):
        net, enc, store, dset = setup
        t = dset.tuples[0]
        dec = d.decide(net, enc, store, t.uid, t.rid, 0)
        x = d.encode_pair(enc, t.umeta, t.rmeta)
        assert dec.probability == pytest.approx(float(d.forward(net, x)[0]), abs=0)
        assert dec.granted == (dec.probability > 0.5)

    def test_grant_requires_strictly_above_threshold(self, setup):
        net, enc, store, dset = setup
        t = dset.tuples[0]
        dec = d.decide(net, enc, store, t.uid, t.rid, 0)
        at_prob = d.decide(net, enc, store, t.uid, t.rid, 0, threshold=dec.probability)
        assert at_prob.granted is False

    def test_op_out_of_range(self, setup):
        net, enc, store, dset = setup
        t = dset.tuples[0]
        with pytest.raises(ConfigError):
            d.decide(net, enc, store, t.uid, t.rid, 5)

    def test_format(self):
        assert d.format_decision(d.Decision(0, 0.8312999, True, 0.5)) == "GRANT 0.831300"
        assert d.format_decision(d.Decision(1, 0.25, False, 0.5)) == "DENY 0.250000"


@pytest.fixture(scope="module")
def unseen_setup():
    """A store whose later entities hold metadata values the encoders never saw."""
    cfg = d.SynthConfig(
        num_users=20, num_resources=20, num_user_meta=3, num_res_meta=3,
        num_rules=3, num_ops=2, value_set_sizes=(9,) * 6, seed=4,
        visible_user_meta=3, visible_res_meta=3, neg_ratio=1.0,
    )
    dset, *_ = d.synthesize(cfg)
    seen = d.Dataset(3, 3, 2, dset.tuples[: len(dset.tuples) // 4])
    pairs = []
    for seed, scheme in enumerate(("onehot", "binary")):
        enc = d.build_encoder(seen, scheme)
        pairs.append((d.init_network(d.NetworkConfig(enc.width, 2, (8,), init_seed=seed)), enc))
    return pairs, d.build_store(dset)


def _metadata(store, uid, rid):
    """The pair's user and resource metadata rows, from the store's arrays."""
    return store.U[store.uids.tolist().index(uid)], store.R[store.rids.tolist().index(rid)]


def _reference(net, enc, store, uid, rid):
    return d.forward(net, d.encode_pair(enc, *_metadata(store, uid, rid)))


class TestPreEncodedRows:
    def test_store_holds_unseen_values(self, unseen_setup):
        pairs, store = unseen_setup
        enc = pairs[0][1]
        user_seen, res_seen = enc.seen_values[:3], enc.seen_values[3:]
        assert any(v not in seen for row in store.U.tolist()
                   for v, seen in zip(row, user_seen))
        assert any(v not in seen for row in store.R.tolist()
                   for v, seen in zip(row, res_seen))

    def test_decisions_are_bit_exact_for_every_pair(self, unseen_setup):
        pairs, store = unseen_setup
        # onehot, binary, onehot again: the store's rows must follow the encoder
        for net, enc in (pairs[0], pairs[1], pairs[0]):
            for uid in store.user_ids:
                for rid in store.resource_ids:
                    ref = _reference(net, enc, store, uid, rid)
                    for op in range(net.config.num_ops):
                        assert d.decide(net, enc, store, uid, rid, op).probability == float(ref[op])

    def test_rows_follow_the_encoder_object(self, unseen_setup):
        pairs, store = unseen_setup
        (_, onehot), (_, binary) = pairs
        for enc in (onehot, binary, onehot):
            users, resources = store.columns(enc)
            assert np.array_equal(users, d.active_columns(enc, store.U, 0))
            assert np.array_equal(resources, d.active_columns(enc, store.R, 3))
        users, resources = store.columns(onehot)
        assert store.columns(onehot)[0] is users and store.columns(onehot)[1] is resources

    def test_features_are_the_encoded_pair(self, unseen_setup):
        pairs, store = unseen_setup
        for _, enc in pairs:
            for uid in store.user_ids:
                for rid in store.resource_ids:
                    want = d.encode_pair(enc, *_metadata(store, uid, rid))
                    assert np.array_equal(store.features(enc, uid, rid), want)
        with pytest.raises(NotFoundError, match="^unknown user 999999$"):
            store.features(enc, 999999, 999998)
        with pytest.raises(NotFoundError, match="^unknown resource 999998$"):
            store.features(enc, store.user_ids[0], 999998)

    @pytest.mark.parametrize("which", [0, 1], ids=["onehot", "binary"])
    def test_local_explain_is_ig_on_the_encoded_pair(self, unseen_setup, which):
        pairs, store = unseen_setup
        net, enc = pairs[which]
        for uid in store.user_ids[::3]:
            for rid in store.resource_ids[::3]:
                x = d.encode_pair(enc, *_metadata(store, uid, rid))
                for op in range(net.config.num_ops):
                    want = d.integrated_gradients(net, x, np.zeros_like(x), op, 16)
                    got = d.local_explain(net, enc, store, uid, rid, op, steps=16)
                    assert np.array_equal(got.feature_scores, want)
                    assert np.array_equal(got.metadata_scores, d.aggregate(want, enc))

    def test_store_and_encoder_layouts_must_agree(self, unseen_setup):
        pairs, store = unseen_setup
        enc = pairs[0][1]
        other = d.Encoder(enc.scheme, 2, 4, enc.seen_values)
        with pytest.raises(ConfigError, match="encoder positions"):
            store.features(other, store.user_ids[0], store.resource_ids[0])

    def test_threads_alternating_encoders_stay_bit_exact(self, unseen_setup):
        # the server's threads share one store; a torn cache would pair one
        # encoder's rows with the other encoder's network
        pairs, store = unseen_setup
        ids = [(u, r) for u in store.user_ids[:6] for r in store.resource_ids[:6]]
        expected = [{p: _reference(*pair, store, *p).tolist() for p in ids} for pair in pairs]
        wrong = []

        def worker(k):
            for i in range(120):
                which = (i + k) % 2
                net, enc = pairs[which]
                uid, rid = ids[(7 * i + k) % len(ids)]
                try:
                    got = [d.decide(net, enc, store, uid, rid, op).probability for op in (0, 1)]
                except Exception as exc:  # a dying thread would otherwise go unseen
                    got = repr(exc)
                if got != expected[which][(uid, rid)]:
                    wrong.append((k, i, got))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_errors_unchanged(self, unseen_setup):
        pairs, store = unseen_setup
        net, enc = pairs[0]
        uid, rid = store.user_ids[0], store.resource_ids[0]
        with pytest.raises(NotFoundError, match="^unknown user 999999$"):
            d.decide(net, enc, store, 999999, 999998, 0)
        with pytest.raises(NotFoundError, match="^unknown resource 999998$"):
            d.decide(net, enc, store, uid, 999998, 0)
        with pytest.raises(ConfigError, match="^operation index 2 out of range$"):
            d.decide(net, enc, store, 999999, 999998, 2)
        with pytest.raises(ConfigError, match="^operation index 1.0 out of range$"):
            d.decide(net, enc, store, uid, rid, 1.0)
        assert handle_line(f"DECIDE 999999 {rid} 0", net, enc, store, 0.5) == (
            "ERR unknown user 999999"
        )
        assert handle_line(f"DECIDE {uid} {rid} -1", net, enc, store, 0.5) == (
            "ERR operation index -1 out of range"
        )


@pytest.fixture(scope="module")
def four_op_setup():
    """The acceptance network's shape (4 operations, default hidden widths) per scheme.

    The store holds values the encoders never saw.
    """
    rng = np.random.default_rng(4)
    store = engine.MetadataStore(
        rng.permutation(90)[:40], rng.integers(0, 12, (40, 3)),
        rng.permutation(90)[:40] - 45, rng.integers(0, 12, (40, 3)),
    )
    seen = tuple(tuple(range(p % 3, 9)) for p in range(6))  # values below p % 3 and 9-11 unseen
    pairs = [(u, r) for u in store.uids.tolist() for r in store.rids.tolist()]
    M = np.array([np.concatenate(_metadata(store, u, r)) for u, r in pairs])
    out = {}
    for seed, scheme in enumerate(("onehot", "binary")):
        enc = d.Encoder(scheme, 3, 3, seen)
        net = d.init_network(d.NetworkConfig(enc.width, 4, init_seed=seed))
        out[scheme] = net, enc, d.forward(net, d.encode_positions(enc, M))
    return out, store, pairs


def _scored(net, enc, store, pairs, ops):
    """Each pair's op, picked from the row `engine._score` gives its user and resource rows."""
    user_rows, res_rows = zip(*(store.locate(u, r) for u, r in pairs))
    return engine._score(net, enc, store, user_rows, res_rows)[np.arange(len(ops)), ops]


class TestBatchedScoring:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("scheme", ["onehot", "binary"])
    def test_a_batch_equals_its_rows_of_one_dense_forward(
        self, four_op_setup, batch_invariant_blas, scheme, data
    ):
        nets, store, pairs = four_op_setup
        net, enc, dense = nets[scheme]
        batch_invariant_blas(net)
        assert len(pairs) > 1100
        n = data.draw(st.sampled_from([1, 2, 1024, 1025]) | st.integers(1, 1100))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        idx, ops = rng.choice(len(pairs), n, replace=False), rng.integers(0, 4, n)
        chosen = [pairs[k] for k in idx]
        got = _scored(net, enc, store, chosen, ops)
        assert np.array(got).tobytes() == dense[idx, ops].tobytes()

    @pytest.mark.parametrize("scheme", ["onehot", "binary"])
    def test_every_pair_decided_alone_equals_its_dense_row(
        self, four_op_setup, batch_invariant_blas, scheme
    ):
        nets, store, pairs = four_op_setup
        net, enc, dense = nets[scheme]
        batch_invariant_blas(net)
        got = [[d.decide(net, enc, store, u, r, op).probability for op in range(4)]
               for u, r in pairs[::7]]
        assert np.array(got).tobytes() == dense[::7].tobytes()

    def test_a_two_op_network_decides_alone_as_in_one_dense_forward(
        self, setup, batch_invariant_blas
    ):
        # its 16 -> 2 output layer is where rows past a whole block of 4 took other bits
        net, enc, store, _ = setup
        batch_invariant_blas(net)
        pairs = [(u, r) for u in store.user_ids for r in store.resource_ids]
        dense = d.forward(net, [d.encode_pair(enc, *_metadata(store, u, r)) for u, r in pairs])
        alone = [[d.decide(net, enc, store, u, r, op).probability for op in range(2)]
                 for u, r in pairs[::5]]
        assert np.array(alone).tobytes() == dense[::5].tobytes()
        order = np.random.default_rng(5).permutation(len(pairs))[:1027]
        got = _scored(net, enc, store, [pairs[k] for k in order], order % 2)
        assert np.array(got).tobytes() == dense[order, order % 2].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("which", ["setup", "onehot", "binary"])
    def test_any_network_scores_a_batch_as_forward_does(
        self, setup, unseen_setup, batch_invariant_blas, which, data
    ):
        if which == "setup":
            net, enc, store, _ = setup
        else:
            net, enc = unseen_setup[0][which == "binary"]
            store = unseen_setup[1]
        batch_invariant_blas(net)
        pairs = [(u, r) for u in store.user_ids for r in store.resource_ids]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        idx = rng.choice(len(pairs), data.draw(st.integers(1, min(len(pairs), 300))))
        chosen = [pairs[k] for k in idx]
        ops = rng.integers(0, net.config.num_ops, len(chosen))
        X = np.array([d.encode_pair(enc, *_metadata(store, u, r)) for u, r in chosen])
        got = _scored(net, enc, store, chosen, ops)
        assert np.array(got).tobytes() == d.forward(net, X)[np.arange(len(X)), ops].tobytes()

    def test_lines_are_answered_in_order_as_line_by_line(self, setup):
        net, enc, store, _ = setup
        uid, rid = store.user_ids[0], store.resource_ids[0]
        pairs = [(u, r) for u in store.user_ids for r in store.resource_ids]
        decides = [f"DECIDE {u} {r} {k % 2}" for k, (u, r) in enumerate((pairs * 6)[:1400])]
        assert len(decides) == 1400
        lines = [*decides[:700], "PING", f"DECIDE 999999 {rid} 0", f"DECIDE {uid} 999998 1",
                 f"DECIDE {uid} {rid} 2", "DECIDE 1 2", "\ufffd", *decides[700:]]
        want = [handle_line(line, net, enc, store, 0.5) for line in lines]
        assert engine.handle_lines(lines, net, enc, store, 0.5) == want
        assert engine.handle_lines([], net, enc, store, 0.5) == []

    def test_an_encoder_that_does_not_fit_answers_err_per_decide(self, unseen_setup):
        # the layout is checked before the ids, as a decision always has
        pairs, store = unseen_setup
        net, enc = pairs[0]
        other = d.Encoder(enc.scheme, 2, 4, enc.seen_values)
        uid, rid = store.user_ids[0], store.resource_ids[0]
        replies = engine.handle_lines(
            ["PING", f"DECIDE {uid} {rid} 0", f"DECIDE 999999 {rid} 0", f"DECIDE {uid} {rid} 5"],
            net, other, store, 0.5)
        assert replies[0] == "PONG"
        assert replies[1] == replies[2] == (
            "ERR 3 user and 3 resource metadata do not match encoder positions (2 + 4)")
        assert replies[3] == "ERR operation index 5 out of range"


_LAYOUT_ERR = "3 user and 3 resource metadata do not match encoder positions (2 + 4)"
_WIDTH_ERR = "input width does not match the network"


def _precedence(request, num_ops, store, layout, width):
    """The documented order of the checks: the first that fails, or None if none does."""
    uid, rid, op = request
    if not 0 <= op < num_ops:
        return f"operation index {op} out of range"
    if layout:
        return _LAYOUT_ERR
    if uid not in store.uids.tolist():
        return f"unknown user {uid}"
    if rid not in store.rids.tolist():
        return f"unknown resource {rid}"
    return _WIDTH_ERR if width else None


@st.composite
def mixed_lines(draw, store, num_ops):
    """(line, (uid, rid, op) or the fixed reply) for a mix of every kind of line."""
    uid = st.sampled_from(store.uids.tolist()) | st.just(int(store.uids.max()) + 1)
    rid = st.sampled_from(store.rids.tolist()) | st.just(int(store.rids.min()) - 1)
    long_op = st.sampled_from([-(10**29), 10**29])  # 30 digits
    op = st.integers(0, num_ops - 1) | st.integers(-3, num_ops + 2) | long_op
    sep, pad = st.sampled_from([" ", "\t", "  ", " \t"]), st.sampled_from(["", " ", "\r", "\t "])

    def decide(u, r, o, s, p):
        return f"{p}DECIDE{s}{u}{s}{r}{s}{o}{p}", (u, r, o)

    decides = st.builds(decide, uid, rid, op, sep, pad)
    pings = pad.map(lambda p: (f"{p}PING{p}", "PONG"))
    malformed = st.sampled_from(["", " \t ", "DECIDE 1 2", "DECIDE\xa01\xa02\xa00", "\u2003PING",
                                 "PING\u2003", "\ufffd", "DECIDE 1 2 \ufffd"])
    others = malformed.map(lambda line: (line, "ERR malformed request"))
    return draw(st.lists(decides | decides | pings | others, min_size=1, max_size=40))


class TestOnePassOverABatch:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("fit", ["fits", "layout", "width"])
    def test_a_batch_answers_each_line_as_alone_in_the_documented_order(
        self, unseen_setup, fit, data
    ):
        pairs, store = unseen_setup
        net, enc = pairs[0]
        enc = {"fits": enc, "layout": d.Encoder(enc.scheme, 2, 4, enc.seen_values),
               "width": _resized(enc, 4)}[fit]
        items = data.draw(mixed_lines(store, net.config.num_ops))
        lines = [line for line, _ in items]
        replies = engine.handle_lines(lines, net, enc, store, 0.5)
        assert replies == [handle_line(line, net, enc, store, 0.5) for line in lines]
        for (_, request), reply in zip(items, replies):
            if isinstance(request, str):
                assert reply == request
                continue
            error = _precedence(request, net.config.num_ops, store, fit == "layout",
                                fit == "width")
            try:
                decided = d.format_decision(d.decide(net, enc, store, *request))
            except (ConfigError, NotFoundError) as exc:
                assert isinstance(exc, NotFoundError) == str(exc).startswith("unknown ")
                decided = f"ERR {exc}"
            assert reply == decided
            if error is None:
                assert re.fullmatch(r"(GRANT|DENY) [01]\.[0-9]{6}", reply)
            else:
                assert reply == f"ERR {error}"

    def test_pings_build_nothing_in_the_store(self, setup):
        net, enc, _, dset = setup
        store = d.build_store(dset)
        assert engine.handle_lines(["PING", "PING"], net, enc, store, 0.5) == ["PONG", "PONG"]
        assert store._columns is None and "_row_of" not in vars(store)
        t = dset.tuples[0]
        assert handle_line(f"DECIDE {t.uid} {t.rid} 0", net, enc, store, 0.5).startswith(
            ("GRANT", "DENY"))
        assert store._columns is not None and store._columns[0] is enc


def _resized(enc, change):
    """`enc` with its first position's seen values widened (change > 0) or narrowed."""
    first = enc.seen_values[0]
    first = first + tuple(range(1000, 1000 + change)) if change > 0 else first[:change]
    return d.Encoder(enc.scheme, enc.num_user_meta, enc.num_res_meta,
                     (first, *enc.seen_values[1:]))


class TestEncoderWidth:
    """An encoder of the store's layout but not the network's width answers an error."""

    @pytest.mark.parametrize("change", [9, 4, -1])
    @pytest.mark.parametrize("which", [0, 1])
    def test_decide_and_lines_say_the_width_does_not_match(self, unseen_setup, which, change):
        pairs, store = unseen_setup
        net, enc = pairs[which]
        other = _resized(enc, change)
        assert other.width != net.config.input_width
        uid, rid = store.user_ids[0], store.resource_ids[0]
        with pytest.raises(ConfigError, match="^input width does not match the network$"):
            d.decide(net, other, store, uid, rid, 0)
        lines = [f"DECIDE {uid} {rid} 0", "PING", f"DECIDE 999999 {rid} 0",
                 f"DECIDE {uid} 999998 1", f"DECIDE {uid} {rid} 2", f"DECIDE {uid} {rid} 1"]
        want = ["ERR input width does not match the network", "PONG", "ERR unknown user 999999",
                "ERR unknown resource 999998", "ERR operation index 2 out of range",
                "ERR input width does not match the network"]
        assert engine.handle_lines(lines, net, other, store, 0.5) == want
        assert [handle_line(line, net, other, store, 0.5) for line in lines] == want

    @pytest.mark.parametrize("change", [9, -1])
    def test_a_served_line_says_the_width_does_not_match(self, unseen_setup, change):
        pairs, store = unseen_setup
        net, enc = pairs[0]
        uid, rid = store.user_ids[0], store.resource_ids[0]
        server = d.serve(net, _resized(enc, change), store, host="127.0.0.1", port=0)
        try:
            wire = f"DECIDE {uid} {rid} 0\nPING\nDECIDE {uid} {rid} 1\n".encode()
            assert _exchange(server.server_address, [wire], 3) == [
                b"ERR input width does not match the network\n", b"PONG\n",
                b"ERR input width does not match the network\n"]
            assert _closed_loop(server.server_address, [b"PING"]) == [b"PONG\n"]
        finally:
            server.shutdown()
            server.server_close()


class TestProtocolLines:
    def test_ping(self, setup):
        net, enc, store, _ = setup
        assert handle_line("PING\n", net, enc, store, 0.5) == "PONG"

    def test_decide_line(self, setup):
        net, enc, store, dset = setup
        t = dset.tuples[0]
        reply = handle_line(f"DECIDE {t.uid} {t.rid} 0", net, enc, store, 0.5)
        dec = d.decide(net, enc, store, t.uid, t.rid, 0)
        assert reply == d.format_decision(dec)

    @pytest.mark.parametrize(
        "line",
        ["", "DECIDE 1 2", "DECIDE 1 2 3 4", "DECIDE a b c", "GRANT 1 2 3", "ping",
         "DECIDE \u0661 \u0662 0", "DECIDE 0_0 0 0", "DECIDE +0 0 0", "DECIDE 0 0 1.0",
         "DECIDE " + "9" * 5000 + " 0 0",
         # Unicode whitespace is neither a separator nor padding
         "DECIDE\xa00\xa0100\xa00", "PING\x1c", "\u2003PING"],
    )
    def test_malformed_requests(self, setup, line):
        net, enc, store, _ = setup
        assert handle_line(line, net, enc, store, 0.5) == "ERR malformed request"

    def test_unknown_user_is_err_not_crash(self, setup):
        net, enc, store, _ = setup
        reply = handle_line("DECIDE 999999 0 0", net, enc, store, 0.5)
        assert reply == "ERR unknown user 999999"

    def test_op_out_of_range_is_err(self, setup):
        net, enc, store, dset = setup
        t = dset.tuples[0]
        reply = handle_line(f"DECIDE {t.uid} {t.rid} 9", net, enc, store, 0.5)
        assert reply.startswith("ERR")


class TestServer:
    def test_tcp_round_trip(self, setup):
        net, enc, store, dset = setup
        server = d.serve(net, enc, store, host="127.0.0.1", port=0)
        try:
            host, port = server.server_address
            with socket.create_connection((host, port), timeout=5) as sock:
                f = sock.makefile("rw", encoding="utf-8", newline="\n")
                f.write("PING\n")
                f.flush()
                assert f.readline().strip() == "PONG"
                t = dset.tuples[0]
                f.write(f"DECIDE {t.uid} {t.rid} 0\n")
                f.flush()
                expected = d.format_decision(d.decide(net, enc, store, t.uid, t.rid, 0))
                assert f.readline().strip() == expected
                f.write("garbage\n")
                f.flush()
                assert f.readline().strip() == "ERR malformed request"
                # server must still answer after a bad request
                f.write("PING\n")
                f.flush()
                assert f.readline().strip() == "PONG"
        finally:
            server.shutdown()
            server.server_close()

    def test_overlong_line_answers_err_and_closes(self, setup, monkeypatch):
        net, enc, store, _ = setup
        monkeypatch.setattr(engine, "MAX_LINE", 16)
        server = d.serve(net, enc, store, host="127.0.0.1", port=0)
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                f = sock.makefile("rwb")
                f.write(b"PING" + b" " * 12 + b"\n")  # 16 bytes: at the cap
                f.flush()
                assert f.readline() == b"PONG\n"
                f.write(b"PING" + b" " * 13)  # 17 bytes and no newline yet
                f.flush()
                assert f.readline() == b"ERR line too long\n"
                assert f.readline() == b""  # the server closed the connection
        finally:
            server.shutdown()
            server.server_close()

    def test_concurrent_connections(self, setup):
        net, enc, store, _ = setup
        server = d.serve(net, enc, store, host="127.0.0.1", port=0)
        try:
            host, port = server.server_address
            socks = [socket.create_connection((host, port), timeout=5) for _ in range(4)]
            files = [s.makefile("rw", encoding="utf-8") for s in socks]
            for f in files:
                f.write("PING\n")
                f.flush()
            assert all(f.readline().strip() == "PONG" for f in files)
            for s in socks:
                s.close()
        finally:
            server.shutdown()
            server.server_close()


@pytest.fixture(scope="module")
def server(setup):
    net, enc, store, _ = setup
    srv = d.serve(net, enc, store, host="127.0.0.1", port=0)
    yield srv
    srv.shutdown()
    srv.server_close()


def _exchange(address, chunks, n_replies, pause=0.0):
    """Send each chunk with its own `sendall`, then read `n_replies` lines."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        f = sock.makefile("rb")
        for chunk in chunks:
            sock.sendall(chunk)
            time.sleep(pause)  # lets the server's recv end between chunks
        return [f.readline() for _ in range(n_replies)]


def _closed_loop(address, lines):
    """One line per send, the next only after its reply: one line per batch."""
    with socket.create_connection(address, timeout=10) as sock:
        f = sock.makefile("rb")
        replies = []
        for line in lines:
            sock.sendall(line + b"\n")
            replies.append(f.readline())
        return replies


@st.composite
def request_lines(draw, uids, rids):
    known = st.builds(lambda u, r, op: f"DECIDE {u} {r} {op}".encode(),
                      st.sampled_from(uids), st.sampled_from(rids), st.integers(-1, 2))
    unknown = st.builds(lambda r: f"DECIDE 999999 {r} 0".encode(), st.sampled_from(rids))
    other = st.sampled_from([b"PING", b"", b"  PING\r", b"garbage", b"DECIDE 1", b"ping"])
    raw = st.binary(max_size=24).map(lambda b: b.replace(b"\n", b""))  # non-UTF-8 too
    return draw(st.lists(st.one_of(known, unknown, other, raw), min_size=1, max_size=24))


class TestBatchedConnection:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_replies_do_not_depend_on_how_lines_are_batched(self, setup, server, data):
        net, enc, store, _ = setup
        lines = data.draw(request_lines(store.user_ids, store.resource_ids))
        wire = b"".join(line + b"\n" for line in lines)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=8)))
        chunks = [wire[a:b] for a, b in zip([0, *cuts], [*cuts, len(wire)])]
        want = [(handle_line(line.decode("utf-8", errors="replace"), net, enc, store, 0.5)
                 + "\n").encode() for line in lines]
        address = server.server_address
        assert _closed_loop(address, lines) == want
        assert _exchange(address, [wire], len(lines)) == want
        assert _exchange(address, chunks, len(lines), pause=0.001) == want

    def test_last_line_without_newline_is_answered_at_eof(self, server):
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(b"PING\nPI")
            sock.sendall(b"NG")
            sock.shutdown(socket.SHUT_WR)
            f = sock.makefile("rb")
            assert f.read() == b"PONG\nPONG\n"

    def test_overlong_tail_split_across_sends_answers_err_and_closes(self, server, monkeypatch):
        monkeypatch.setattr(engine, "MAX_LINE", 16)
        with socket.create_connection(server.server_address, timeout=5) as sock:
            f = sock.makefile("rb")
            sock.sendall(b"PING\n" + b"x" * 10)
            assert f.readline() == b"PONG\n"  # the tail's 10 bytes are held
            sock.sendall(b"x" * 7)  # 17 bytes, still no newline
            assert f.readline() == b"ERR line too long\n"
            assert f.readline() == b""

    def test_one_recv_of_mixed_lines_is_answered_in_order(self, setup, server):
        net, enc, store, dset = setup
        (u, r), (u2, r2) = dset.ids[:2].tolist()
        lines = [f"DECIDE {u} {r} 0", "PING", f"DECIDE 999999 {r} 0", f"DECIDE {u} 999998 1",
                 f"DECIDE {u} {r} 7", "DECIDE 1 2", f"DECIDE {u2} {r2} 1", "\tPING ",
                 f"DECIDE {u} {r} -1", "", f"DECIDE {u2} {r} 0"]
        want = [(handle_line(line, net, enc, store, 0.5) + "\n").encode() for line in lines]
        wire = b"".join(line.encode() + b"\n" for line in lines)
        assert _exchange(server.server_address, [wire], len(lines)) == want

    def test_more_than_a_tile_of_decide_lines_is_answered_in_full(self, setup, server):
        net, enc, store, _ = setup
        pairs = [(u, r) for u in store.user_ids for r in store.resource_ids]
        lines = [f"DECIDE {u} {r} {k % 2}" for k, (u, r) in enumerate((pairs * 6)[:1500])]
        want = [(handle_line(line, net, enc, store, 0.5) + "\n").encode() for line in lines]
        wire = b"".join(line.encode() + b"\n" for line in lines)
        assert len(lines) == 1500 and len(wire) < engine.RECV_BYTES
        assert _exchange(server.server_address, [wire], len(lines)) == want

    def test_overlong_line_inside_a_batch_ends_it(self, server, monkeypatch):
        monkeypatch.setattr(engine, "MAX_LINE", 16)
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(b"PING\n" + b"x" * 17 + b"\nPING\n")
            f = sock.makefile("rb")
            assert f.read() == b"PONG\nERR line too long\n"


def test_connections_over_the_cap_are_told_busy(setup, monkeypatch):
    net, enc, store, _ = setup
    monkeypatch.setattr(engine, "MAX_CONNECTIONS", 2)
    server = d.serve(net, enc, store, host="127.0.0.1", port=0)
    address = server.server_address

    def ping(sock):
        try:
            sock.sendall(b"PING\n")
            return sock.makefile("rb").readline()
        except ConnectionResetError:  # a busy server may close before reading the PING
            return b"reset"

    try:
        a = socket.create_connection(address, timeout=5)
        b = socket.create_connection(address, timeout=5)
        with a, b:
            assert ping(a) == ping(b) == b"PONG\n"
            with socket.create_connection(address, timeout=5) as c:
                assert c.makefile("rb").read() == b"ERR server busy\n"
            a.close()  # its slot is free once the server's thread for it ends
            deadline = time.monotonic() + 10
            replies = []
            while b"PONG\n" not in replies and time.monotonic() < deadline:
                with socket.create_connection(address, timeout=5) as c:
                    replies.append(ping(c))
            assert replies[-1] == b"PONG\n"
            assert set(replies[:-1]) <= {b"ERR server busy\n", b"reset"}
            assert ping(b) == b"PONG\n"
    finally:
        server.shutdown()
        server.server_close()


def _wait_for_pong(address, seconds=10):
    """PING on fresh connections until one reads PONG; the replies read on the way."""
    deadline, replies = time.monotonic() + seconds, []
    while b"PONG\n" not in replies and time.monotonic() < deadline:
        with socket.create_connection(address, timeout=5) as c:
            try:
                c.sendall(b"PING\n")
                replies.append(c.makefile("rb").readline())
            except ConnectionResetError:
                replies.append(b"reset")
    return replies


@pytest.fixture
def idle_server(setup, monkeypatch):
    net, enc, store, _ = setup
    monkeypatch.setattr(engine, "IDLE_SECONDS", 0.2)
    monkeypatch.setattr(engine, "MAX_CONNECTIONS", 2)
    server = d.serve(net, enc, store, host="127.0.0.1", port=0)
    yield server
    server.shutdown()
    server.server_close()


class TestIdleDeadline:
    def test_silent_clients_are_closed_and_their_slots_reused(self, idle_server):
        address = idle_server.server_address
        a = socket.create_connection(address, timeout=5)
        b = socket.create_connection(address, timeout=5)
        with a, b:
            time.sleep(0.05)  # both hold their slots
            with socket.create_connection(address, timeout=5) as c:
                assert c.makefile("rb").read() == b"ERR server busy\n"
            started = time.monotonic()
            assert a.makefile("rb").read() == b""  # closed without a reply
            assert b.makefile("rb").read() == b""
            assert time.monotonic() - started < 5
            replies = _wait_for_pong(address)
            assert replies[-1] == b"PONG\n"
            assert set(replies[:-1]) <= {b"ERR server busy\n", b"reset"}

    def test_a_client_that_never_reads_is_closed(self, idle_server):
        address = idle_server.server_address
        with socket.socket() as flood:
            flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            flood.settimeout(10)
            flood.connect(address)
            try:
                flood.sendall(b"PING\n" * 200_000)  # 1 MB, and no reply is read
            except OSError:  # the server closed it before it took every byte
                pass
            with socket.create_connection(address, timeout=5) as other:
                other.sendall(b"PING\n")
                assert other.makefile("rb").readline() == b"PONG\n"
            # the flooder's slot comes back: with both slots held, this reads busy
            replies = _wait_for_pong(address)
            assert replies[-1] == b"PONG\n"
            flood.shutdown(socket.SHUT_WR)
            got = b""
            try:
                while chunk := flood.recv(1 << 16):
                    got += chunk
            except ConnectionResetError:
                pass
            assert (b"PONG\n" * 200_000).startswith(got)

    def test_a_sendall_that_cannot_finish_is_cut_off(self, setup, monkeypatch):
        # small socket buffers on both ends, so the replies to 1 MB of PING back up
        net, enc, store, _ = setup
        monkeypatch.setattr(engine, "IDLE_SECONDS", 0.2)
        # stands in for a DecisionServer: the five attributes a handler reads
        server = types.SimpleNamespace(net=net, encoder=enc, store=store, threshold=0.5,
                                       cache=engine.RowCache())
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = socket.socket()
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            client.connect(listener.getsockname())
            conn, _ = listener.accept()
        with client, conn:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

            def flood():
                try:
                    client.sendall(b"PING\n" * 200_000)
                except OSError:  # the server end was closed
                    pass

            handler = threading.Thread(target=engine._Handler, args=(conn, None, server))
            flooder = threading.Thread(target=flood, daemon=True)
            started = time.monotonic()
            handler.start()
            flooder.start()
            handler.join(timeout=10)
            assert not handler.is_alive() and time.monotonic() - started < 10
            client.settimeout(0.5)
            got = b""
            try:
                while chunk := client.recv(1 << 16):
                    got += chunk
            except TimeoutError:  # all that was sent has been read
                pass
            conn.close()
            flooder.join(timeout=10)
            assert 0 < len(got) < 5 * 200_000  # replies were cut off, not all sent
            assert (b"PONG\n" * 200_000).startswith(got)


@pytest.fixture
def fresh_server(setup):
    """A server of its own, so its cache starts empty."""
    net, enc, store, _ = setup
    srv = d.serve(net, enc, store, host="127.0.0.1", port=0)
    yield srv
    srv.shutdown()
    srv.server_close()


def _chunked(lines, sizes):
    """The lines' wire bytes, cut after every `sizes[k % len(sizes)]` lines."""
    chunks, k = [], 0
    while lines:
        n = sizes[k % len(sizes)]
        chunks.append(b"".join(line.encode() + b"\n" for line in lines[:n]))
        lines, k = lines[n:], k + 1
    return chunks


class _SizeLog(engine.RowCache):
    """A dict that logs its size after every insert, and tells its size late.

    The delay leaves other threads time to insert between a size check and
    the insert that follows it.
    """

    def __init__(self):
        super().__init__()
        self.sizes = []

    def __len__(self):
        size = super().__len__()
        time.sleep(0.0005)
        return size

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.sizes.append(super().__len__())  # list.append is atomic under the interpreter lock


class TestCache:
    def _stream(self, setup, seed, num_pairs=120, repeats=3):
        """Every op of `num_pairs` pairs, `repeats` times over, shuffled, with a few others."""
        net, enc, store, _ = setup
        rng = np.random.default_rng(seed)
        pairs = [(u, r) for u in store.user_ids for r in store.resource_ids]
        chosen = [pairs[k] for k in rng.choice(len(pairs), num_pairs, replace=False)]
        lines = [f"DECIDE {u} {r} {op}" for u, r in chosen for op in range(2)] * repeats
        lines += ["PING", f"DECIDE 999999 {chosen[0][1]} 0", f"DECIDE {chosen[0][0]} 0 5"]
        return [lines[k] for k in rng.permutation(len(lines))]

    def _run_connections(self, address, streams, sizes):
        got, errors = [None] * len(streams), []

        def client(k):
            try:
                got[k] = _exchange(address, _chunked(streams[k], sizes), len(streams[k]),
                                   pause=0.0005)
            except Exception as exc:  # a dying thread would otherwise go unseen
                errors.append(repr(exc))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(len(streams))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        return got

    def _want(self, setup, lines):
        net, enc, store, _ = setup
        return [(handle_line(line, net, enc, store, 0.5) + "\n").encode() for line in lines]

    def test_repeated_pairs_over_recvs_and_connections_answer_as_line_by_line(
        self, setup, fresh_server
    ):
        streams = [self._stream(setup, seed) for seed in (1, 2)]
        got = self._run_connections(fresh_server.server_address, streams, [1, 7, 30, 3, 64])
        assert got == [self._want(setup, lines) for lines in streams]
        assert 0 < len(fresh_server.cache) <= 2 * 120
        # a second pass is all hits
        assert self._run_connections(fresh_server.server_address, streams, [50]) == got

    def test_the_cache_never_holds_more_than_its_bound(self, setup, fresh_server, monkeypatch):
        monkeypatch.setattr(engine, "CACHE_PAIRS", 8)
        fresh_server.cache = _SizeLog()
        streams = [self._stream(setup, seed, num_pairs=40) for seed in (3, 4)]
        got = self._run_connections(fresh_server.server_address, streams, [1, 5, 13, 2])
        assert got == [self._want(setup, lines) for lines in streams]
        assert len(fresh_server.cache.sizes) > 8
        assert max(fresh_server.cache.sizes) == 8

    def test_a_write_to_the_callers_network_changes_no_reply(self, setup):
        net, enc, store, _ = setup
        own = d.Network(net.config, net.flat.copy())
        lines = self._stream(setup, 5, num_pairs=30, repeats=1)
        want = self._want(setup, lines)
        srv = d.serve(own, enc, store, host="127.0.0.1", port=0)
        try:
            assert not srv.net.flat.flags.writeable
            assert _exchange(srv.server_address, _chunked(lines[:30], [4]), 30) == want[:30]
            own.flat += 1.0  # the cached pairs and the pairs still to come
            assert _exchange(srv.server_address, _chunked(lines, [4]), len(lines)) == want
        finally:
            srv.shutdown()
            srv.server_close()

    def test_one_recv_repeating_a_pair_equals_its_lines_sent_one_at_a_time(self, setup):
        net, enc, store, dset = setup
        (u, r), (u2, r2) = dset.ids[:2].tolist()
        lines = [f"DECIDE {u} {r} 0", f"DECIDE {u} {r} 1", "PING", f"DECIDE {u} {r} 0",
                 f"DECIDE {u2} {r2} 1", f"DECIDE  {u} {r} 0 ", f"DECIDE {u2} {r2} 0",
                 f"DECIDE {u} {r} 1"]
        servers = [d.serve(net, enc, store, host="127.0.0.1", port=0) for _ in range(2)]
        try:
            wire = b"".join(line.encode() + b"\n" for line in lines)
            together = _exchange(servers[0].server_address, [wire], len(lines))
            alone = _closed_loop(servers[1].server_address, [line.encode() for line in lines])
        finally:
            for srv in servers:
                srv.shutdown()
                srv.server_close()
        assert together == alone == self._want(setup, lines)

    def test_handle_lines_fills_and_answers_from_a_given_cache(self, setup):
        net, enc, store, _ = setup
        lines = self._stream(setup, 6, num_pairs=20)
        want = [handle_line(line, net, enc, store, 0.5) for line in lines]
        cache = engine.RowCache()
        assert engine.handle_lines(lines, net, enc, store, 0.5, cache) == want
        assert len(cache) == 20
        rows = dict(cache)
        assert engine.handle_lines(lines, net, enc, store, 0.5, cache) == want
        assert cache == rows
