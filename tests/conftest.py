import numpy as np
import pytest

from dlbac import neuralnet as nn

# Batch sizes at which a product's rows are compared with the rows of a
# TILE_ROWS-row product: whole blocks of 4, the only sizes neuralnet
# multiplies, and for the backward products whole blocks of at least 20,
# the passes of `neuralnet.path_gradient`, which integrated gradients and
# `input_gradient` share.  They are stated
# here rather than read from dlbac, so a wrong padding rule there fails the
# exact tests instead of skipping them.
SIZES = (4, 8, 100, nn.TILE_ROWS - 4)
LAYER0_SIZES = (2, 3, 5, 100)  # layer 0 multiplies unpadded batches of 2 or more
BACKWARD_SIZES = (20, 24, 100, nn.TILE_ROWS - 4)


def _blas_gives_batch_invariant_rows(net) -> bool:
    """Whether this BLAS meets the three properties exact cross-batch tests rely on.

    (1) A 0/1 row times W0 equals the sum of W0's selected rows in column
    order, and any row times W0 gets the same bits in every batch of 2 or
    more rows.  (2) In each of layers 1..L, a row of a product gets the same
    bits in every batch of whole blocks of 4 rows, up to TILE_ROWS.  (3) So
    does a row of each backward product `A @ W.T` in every batch of whole
    blocks of 4 and at least 20 rows.  These are properties of the BLAS
    (OpenBLAS 0.3.31 meets them for the networks tested here), not of dlbac.
    """
    rng = np.random.default_rng(0)
    W0 = net.weights[0]
    X = (rng.random((64, W0.shape[0])) < 0.05).astype(np.float64)
    gathered = np.array([np.add.reduce(W0[np.flatnonzero(x)], axis=0) for x in X])
    if gathered.tobytes() != (X @ W0).tobytes():
        return False
    products = [(W0, LAYER0_SIZES)]  # real rows too: baselines are not 0/1
    for W in net.weights[1:]:
        products += [(W, SIZES), (W.T, BACKWARD_SIZES)]
    for M, sizes in products:
        A = rng.standard_normal((nn.TILE_ROWS, M.shape[0]))
        full = A @ M
        if any((A[:n] @ M).tobytes() != full[:n].tobytes() for n in sizes):
            return False
    return True


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return "this BLAS"


@pytest.fixture(scope="session")
def batch_invariant_blas():
    """Call with a network to skip, naming the BLAS, a test whose exact bits need it."""
    seen = {}

    def require(net):
        key = net.config.widths
        if key not in seen:
            seen[key] = _blas_gives_batch_invariant_rows(net)
        if not seen[key]:
            pytest.skip(f"{_blas_name()} gives a row other bits in another batch for widths {key}")

    return require
