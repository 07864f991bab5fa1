"""Bulk stages hold one encoded tile of rows, never a dense matrix of a whole dataset.

Peaks are `tracemalloc` peaks over the acceptance config (11,904 tuples, a
336-wide one-hot input) with an untrained default network.  Encoding the
whole dataset first peaked at 37.6 MB in `evaluate`, 31.1 MB in
`soft_labels` over the train split and 64.7 MB in a one-epoch `train`; one
tile at a time reads about 5.6, 5.5 and 15.8 MB.
"""

import tracemalloc

import pytest

import dlbac as d
from dlbac.neuralnet import TILE_ROWS

ACCEPTANCE = d.SynthConfig(
    num_users=4500, num_resources=4500, num_user_meta=8, num_res_meta=8,
    num_rules=20, num_ops=4, value_set_sizes=(20,) * 16, seed=29, neg_ratio=0.3,
)
MB = 1e6


@pytest.fixture(scope="module")
def acceptance():
    dset, *_ = d.synthesize(ACCEPTANCE)
    train, _ = d.split_dataset(dset, 0.2, seed=0)
    encoder = d.build_encoder(train)
    net = d.init_network(d.NetworkConfig(encoder.width, dset.num_ops, init_seed=0))
    return dset, train, encoder, net


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_holds_a_tile(acceptance):
    dset, _, encoder, net = acceptance
    assert len(dset) > 10 * TILE_ROWS
    assert peak_bytes(lambda: d.evaluate(net, encoder, dset)) < 15 * MB


def test_soft_labels_hold_a_tile(acceptance):
    _, train, encoder, net = acceptance
    assert peak_bytes(lambda: d.soft_labels(net, encoder, train, 0)) < 15 * MB


def test_an_epoch_of_training_holds_a_tile(acceptance):
    _, train, encoder, net = acceptance
    tc = d.TrainConfig(epochs=1)
    assert peak_bytes(lambda: d.train(net, train, encoder, tc)) < 32 * MB
