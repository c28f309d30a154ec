"""Score matrices and the scalar summaries consumed by the moment formulas.

A score matrix is an n-by-n real matrix with an exactly-zero diagonal.  All
reductions go through ``numpy.sum``, whose pairwise (tree) accumulation keeps
results deterministic and bounds error growth on the large cancelling sums
the covariance formulas feed on.  Matrices are frozen after construction, so
concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError


@dataclass(frozen=True)
class ScoreMatrix:
    """Immutable n-by-n score matrix with a zero diagonal.

    Attributes:
        values: the scores, float64, read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise StructuralError(f"score matrix must be square, got shape {v.shape}")
        if v.shape[0] < 2:
            raise StructuralError("score matrix needs at least 2 observations")
        if not np.all(np.isfinite(v)):
            raise StructuralError("score matrix entries must be finite")
        if np.any(np.diagonal(v) != 0.0):
            raise StructuralError("score matrix diagonal must be exactly zero")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CrossBundle:
    """Two-matrix summaries: entrywise and row-sum cross products.

    c2:      sum_ij C_ij C'_ij
    c3:      sum_i (row sum of C)_i (row sum of C')_i
    """

    c2: float
    c3: float


def cross_summarize(Cs: ScoreMatrix, Cs2: ScoreMatrix) -> CrossBundle:
    """Cross summaries of two equally sized score matrices."""
    if Cs.n != Cs2.n:
        raise StructuralError(f"dimension mismatch: {Cs.n} vs {Cs2.n}")
    a, b = Cs.values, Cs2.values
    row_a, row_b = a.sum(axis=1), b.sum(axis=1)
    return CrossBundle(c2=float((a * b).sum()), c3=float((row_a * row_b).sum()))


def center(C: ScoreMatrix) -> ScoreMatrix:
    """Subtract the off-diagonal mean so the grand sum becomes zero.

    Each off-diagonal entry loses total / (n (n - 1)); the diagonal stays
    zero.  Centering leaves the downstream quadratic-form statistic unchanged.
    """
    v = C.values.copy()
    n = C.n
    shift = v.sum() / (n * (n - 1))
    v -= shift
    np.fill_diagonal(v, 0.0)
    return ScoreMatrix(v)


def symmetrize(C: ScoreMatrix) -> ScoreMatrix:
    """Replace the matrix by the average of itself and its transpose."""
    v = C.values + C.values.T
    v /= 2.0
    return ScoreMatrix(v)
