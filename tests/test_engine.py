import socket

import pytest

import dlbac as d
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
        assert store.lookup_user(t.uid) == t.umeta
        assert store.lookup_resource(t.rid) == t.rmeta

    def test_unknown_ids(self, setup):
        _, _, store, _ = setup
        with pytest.raises(NotFoundError, match="unknown user 999999"):
            store.lookup_user(999999)
        with pytest.raises(NotFoundError, match="unknown resource"):
            store.lookup_resource(999999)

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

    def test_decide_all_covers_every_op(self, setup):
        net, enc, store, dset = setup
        t = dset.tuples[0]
        decs = d.decide_all(net, enc, store, t.uid, t.rid)
        assert [x.op_index for x in decs] == [0, 1]
        for dec in decs:
            single = d.decide(net, enc, store, t.uid, t.rid, dec.op_index)
            assert dec.probability == single.probability

    def test_format(self):
        assert d.format_decision(d.Decision(0, 0.8312999, True, 0.5)) == "GRANT 0.831300"
        assert d.format_decision(d.Decision(1, 0.25, False, 0.5)) == "DENY 0.250000"


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
        ["", "DECIDE 1 2", "DECIDE 1 2 3 4", "DECIDE a b c", "GRANT 1 2 3", "ping"],
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
