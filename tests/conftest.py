import numpy as np
import pytest

from dlbac import neuralnet as nn

# Batch sizes at which a product's rows are compared with the rows of a
# TILE_ROWS-row product: whole blocks of 4, the only sizes neuralnet
# multiplies.  They are stated here rather than read from neuralnet, so a
# wrong padding rule there fails the exact tests instead of skipping them.
SIZES = (4, 8, 100, nn.TILE_ROWS - 4)


def _blas_gives_batch_invariant_rows(net) -> bool:
    """Whether this BLAS meets the two properties exact cross-batch tests rely on.

    (1) A 0/1 row times W0 equals the sum of W0's selected rows in column
    order.  (2) In each of layers 1..L, a row of a product gets the same bits
    in every batch of whole blocks of 4 rows, up to TILE_ROWS.  Both are
    properties of the BLAS (OpenBLAS 0.3.31 meets them for the networks
    tested here), not of dlbac.
    """
    rng = np.random.default_rng(0)
    W0 = net.weights[0]
    X = (rng.random((64, W0.shape[0])) < 0.05).astype(np.float64)
    gathered = np.array([np.add.reduce(W0[np.flatnonzero(x)], axis=0) for x in X])
    if gathered.tobytes() != (X @ W0).tobytes():
        return False
    for W in net.weights[1:]:
        A = rng.standard_normal((nn.TILE_ROWS, W.shape[0]))
        full = A @ W
        for n in SIZES:
            if (A[:n] @ W).tobytes() != full[:n].tobytes():
                return False
    return True


@pytest.fixture(scope="session")
def batch_invariant_blas():
    """Call with a network to skip, naming the BLAS, a test whose exact bits need it."""
    seen = {}

    def require(net):
        key = net.config.widths
        if key not in seen:
            seen[key] = _blas_gives_batch_invariant_rows(net)
        if not seen[key]:
            pytest.skip(f"this BLAS gives a row other bits in another batch for widths {key}")

    return require
