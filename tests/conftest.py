"""Shared test helpers, and the oracles the library's fast paths are checked
against: n! enumeration of the null moments, the chi-square and normal CDFs,
and exhaustive search for the robust objective's optimum."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import gammainc

from gitest.graphs import Digraph, robust_objective
from gitest.matrixcore import ScoreMatrix
from gitest.moments import QuadrupleInputs, _cross_sums, _spectral_rank


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
    return QuadrupleInputs(
        sx=random_symmetric_scores(rng, n, low, high),
        dx=random_symmetric_scores(rng, n, low, high),
        sy=random_symmetric_scores(rng, n, low, high),
        dy=random_symmetric_scores(rng, n, low, high),
    )


def brute_force_moments(q):
    """Exact null moments by enumerating all n! relabelings of the Y sample:
    the oracle for ``null_moments``, guarded to n <= 8."""
    n = q.n
    if n > 8:
        raise ValueError(f"enumeration over {n}! permutations refused (n <= 8)")
    n_perm = math.factorial(n)
    y_at = tuple(m.dense().ravel().take for m in (q.dy, q.sy))
    T = np.empty((n_perm, 4))
    for idx, pi in enumerate(itertools.permutations(range(n))):
        T[idx] = _cross_sums(q, np.asarray(pi), y_at)
    mu = T.mean(axis=0)
    dev = T - mu
    return _spectral_rank(mu, dev.T @ dev / n_perm)


def chi_square_cdf(x, df):
    """Chi-square CDF: the regularized lower incomplete gamma P(df/2, x/2)."""
    return float(gammainc(df / 2.0, x / 2.0))


def standard_normal_cdf(x):
    """Phi(x) via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def exhaustive_best_objective(D, k, lam, direction):
    """The robust objective's global minimum over every k-out graph."""
    n = D.shape[0]
    best = np.inf
    for combo in itertools.product(*[
        itertools.combinations([j for j in range(n) if j != i], k) for i in range(n)
    ]):
        G = Digraph(n, k, np.array([sorted(c) for c in combo]))
        best = min(best, robust_objective(D, G, lam, direction))
    return best
