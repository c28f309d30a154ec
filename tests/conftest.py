import numpy as np
import pytest

from gitest.matrixcore import ScoreMatrix


def dense_scores(M):
    """The score matrix of a dense array: its nonzero cells."""
    M = np.asarray(M, dtype=float)
    rows, cols = np.nonzero(M)
    return ScoreMatrix(M.shape[0], rows, cols, M[rows, cols])


def center(C):
    """``C`` less total / (n (n - 1)) on every off-diagonal cell, so the grand
    sum becomes zero: a dense score matrix storing every nonzero cell."""
    n = C.n
    v = C.dense() - C.values.sum() / (n * (n - 1))
    np.fill_diagonal(v, 0.0)
    return dense_scores(v)


def random_symmetric_scores(rng, n, low=-3, high=3):
    """Integer-valued symmetric score matrix with a zero diagonal."""
    M = rng.integers(low, high + 1, size=(n, n)).astype(float)
    M = np.triu(M, 1)
    M = M + M.T
    return dense_scores(M)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_quadruple(rng, n, low=-3, high=3):
    from gitest.moments import QuadrupleInputs

    return QuadrupleInputs(
        sx=random_symmetric_scores(rng, n, low, high),
        dx=random_symmetric_scores(rng, n, low, high),
        sy=random_symmetric_scores(rng, n, low, high),
        dy=random_symmetric_scores(rng, n, low, high),
    )
