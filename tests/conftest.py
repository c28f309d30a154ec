import numpy as np
import pytest

from gitest.matrixcore import DISSIMILARITY, SIMILARITY, ScoreMatrix


def random_symmetric_scores(rng, n, low=-3, high=3, role=SIMILARITY):
    """Integer-valued symmetric score matrix with a zero diagonal."""
    M = rng.integers(low, high + 1, size=(n, n)).astype(float)
    M = np.triu(M, 1)
    M = M + M.T
    return ScoreMatrix(M, role)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_quadruple(rng, n, low=-3, high=3):
    from gitest.moments import QuadrupleInputs

    return QuadrupleInputs(
        sx=random_symmetric_scores(rng, n, low, high, SIMILARITY),
        dx=random_symmetric_scores(rng, n, low, high, DISSIMILARITY),
        sy=random_symmetric_scores(rng, n, low, high, SIMILARITY),
        dy=random_symmetric_scores(rng, n, low, high, DISSIMILARITY),
    )
