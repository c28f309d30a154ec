"""Generalized correlations and their exact permutation-null moments.

Each sample brings a (dissimilarity, similarity) pair of score matrices,
(dx, sx) for X and (dy, sy) for Y.  Statistic s = 0..3 pairs X-side matrix
s // 2 with Y-side matrix s % 2:

    T1 = sum_{i != j} DX_ij DY_ij        T2 = sum_{i != j} DX_ij SY_ij
    T3 = sum_{i != j} SX_ij DY_ij        T4 = sum_{i != j} SX_ij SY_ij

Under a uniformly random relabeling of the Y sample the mean and covariance
of (T1..T4) have closed forms that factor into per-sample summaries: the
grand sums of the sample's two matrices and the 2x2 tables of their cross
summaries c2 and c3 (``matrixcore.cross_summarize``).  ``null_moments``
computes them once per sample and expands them to the four statistics by the
pairing index; ``diagnostics`` reports the same tables centered, in O(nnz).
All formulas require symmetric matrices with zero diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateDataError, StructuralError
from .matrixcore import ScoreMatrix, cross_summarize

#: eigenvalues below RANK_TOL times the largest count as zero
RANK_TOL = 1e-10

#: the module docstring's pairing as index arrays: statistic s's X-side and
#: Y-side matrix, which enumerate (dx, sx) x (dy, sy) in order
_X_SIDE, _Y_SIDE = np.divmod(np.arange(4), 2)


@dataclass(frozen=True)
class QuadrupleInputs:
    """The four score matrices: each sample's similarity and dissimilarity."""

    sx: ScoreMatrix
    dx: ScoreMatrix
    sy: ScoreMatrix
    dy: ScoreMatrix

    def __post_init__(self):
        mats = [self.sx, self.dx, self.sy, self.dy]
        if len({m.n for m in mats}) != 1:
            raise StructuralError("all four score matrices must share one n")
        for name, m in zip(("sx", "dx", "sy", "dy"), mats):
            transposed = m.cols * m.n + m.rows
            t = np.argsort(transposed)  # symmetric: the transpose has the same cells and values
            if not (np.array_equal(transposed[t], m.keys) and np.array_equal(m.values[t], m.values)):
                raise StructuralError(f"{name} must be symmetric; symmetrize it first")

    @property
    def n(self) -> int:
        return self.sx.n


@dataclass(frozen=True)
class NullMoments:
    """Permutation-null mean vector and covariance of the four sums.

    ``eigvals`` (ascending) and the columns of ``eigvecs`` are the eigenpairs
    of ``sigma`` above RANK_TOL times its largest eigenvalue; there are
    ``rank`` of them, and the quadratic-form statistic whitens along them.
    """

    mu: np.ndarray
    sigma: np.ndarray
    rank: int
    condition_estimate: float
    eigvals: np.ndarray
    eigvecs: np.ndarray


def _cross_sums(q: QuadrupleInputs, perm: np.ndarray | None = None, y_at=None) -> np.ndarray:
    """(T1..T4) in pairing order with the Y sample relabeled by ``perm``:
    T = sum_ij A_ij B_{perm(i) perm(j)}, over the stored cells of A.  ``y_at``
    holds dy's and sy's lookups of cells i * n + j: by default ScoreMatrix.at,
    for many relabelings the ``take`` of flat dense copies, several times faster."""
    t = []
    for a in (q.dx, q.sx):
        cells = a.keys if perm is None else perm[a.rows] * q.n + perm[a.cols]
        t += [(a.values * at(cells)).sum() for at in y_at or (q.dy.at, q.sy.at)]
    return np.array(t)


def t_stats(q: QuadrupleInputs) -> np.ndarray:
    """The observed four generalized correlations, in pairing order."""
    return _cross_sums(q)


def _sample_summaries(d: ScoreMatrix, s: ScoreMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sample's grand sums (2,) and symmetric 2x2 ``c2`` and ``c3`` tables
    over its (dissimilarity, similarity) pair."""
    pair = (d, s)
    c2, c3 = np.empty((2, 2)), np.empty((2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        c2[i, j], c3[i, j] = c2[j, i], c3[j, i] = cross_summarize(pair[i], pair[j])
    return np.array([m.values.sum() for m in pair]), c2, c3


def _centered(a1, a1p, a2, a3, n: int):
    """(c2, c3) of two matrices less their off-diagonal means, from the raw (a1, a1p, a2, a3)."""
    return a2 - a1 * a1p / (n * (n - 1)), a3 - a1 * a1p / n


def _cov_from_summaries(a1, a1p, a2, a3, b1, b1p, b2, b3, n: int):
    """Null covariance of two statistics from their sides' grand sums (a1, a1p;
    b1, b1p) and cross summaries c2 (a2, b2) and c3 (a3, b3); elementwise on arrays."""
    da2, da3 = _centered(a1, a1p, a2, a3, n)
    db2, db3 = _centered(b1, b1p, b2, b3, n)
    return (
        4.0 * (n + 1) * da3 * db3 / (n * (n - 1) * (n - 2) * (n - 3))
        + 2.0 * da2 * db2 / (n * (n - 3))
        - 4.0 * da2 * db3 / (n * (n - 2) * (n - 3))
        - 4.0 * da3 * db2 / (n * (n - 2) * (n - 3))
    )


def _spectral_rank(mu: np.ndarray, sigma: np.ndarray) -> NullMoments:
    """Moments with the rank, condition and kept eigenpairs of ``sigma``;
    a ``sigma`` that overflowed has no spectrum and raises."""
    if not np.isfinite(sigma).all():
        raise DegenerateDataError("null covariance is not finite: the scores overflow")
    eigvals, eigvecs = np.linalg.eigh((sigma + sigma.T) / 2.0)
    lam_max = float(eigvals[-1])
    kept = eigvals > RANK_TOL * max(lam_max, 0.0)
    rank = int(kept.sum())
    cond = lam_max / float(eigvals[kept][0]) if rank else 0.0
    return NullMoments(mu=mu, sigma=sigma, rank=rank, condition_estimate=cond,
                       eigvals=eigvals[kept], eigvecs=eigvecs[:, kept])


def null_moments(q: QuadrupleInputs) -> NullMoments:
    """Mean vector and covariance matrix of (T1..T4) under the null.

    The covariance formula is evaluated elementwise on the two samples'
    summaries, each expanded to 4x4 by its side of the pairing; the result
    is exactly symmetric.
    """
    n = q.n
    if n < 4:
        raise StructuralError(f"null moments need n >= 4, got n={n}")
    with np.errstate(over="ignore", invalid="ignore"):  # _spectral_rank refuses a non-finite sigma
        tx, c2x, c3x = _sample_summaries(q.dx, q.sx)
        ty, c2y, c3y = _sample_summaries(q.dy, q.sy)
        X, Y = np.ix_(_X_SIDE, _X_SIDE), np.ix_(_Y_SIDE, _Y_SIDE)
        ax, ay = tx[_X_SIDE], ty[_Y_SIDE]
        mu = ax * ay / (n * (n - 1))
        sigma = _cov_from_summaries(ax[:, None], ax, c2x[X], c3x[X],
                                    ay[:, None], ay, c2y[Y], c3y[Y], n)
    return _spectral_rank(mu, sigma)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Raw finite-n quantities behind the normality and invertibility theory.

    All summaries are of the centered matrices; ``c2`` and ``c3`` are the
    tables ``null_moments`` builds the covariance from.  Side "A" holds each
    statistic's X-side matrix and side "B" its Y-side one; keys "s" and "ss'"
    name statistics 1..4 (s <= s').  ``gram2`` is the Gram matrix of the four
    unit-normalized flattened A-matrices tensored with their B counterparts;
    ``gram3`` the analogue built from row-sum vectors.
    ``variance_regime_ratio`` compares the entrywise variance proxy
    2 n^-2 A2 B2 against the row-sum proxy 4 n^-3 A3 B3 per statistic.
    ``degenerate`` names every centered normalizer, a c2 or c3 diagonal
    entry, that is at most 1e-12 times its uncentered value, so zero up to
    rounding; a flagged statistic's ratio is inf.
    ``sigma_rank`` and ``sigma_condition`` are the rank and condition
    estimate of the null covariance, as ``null_moments`` reports them.
    """

    n: int
    c0_plus: dict
    c1_plus: dict
    c2: dict
    c2_plus: dict
    c3: dict
    c3_plus: dict
    gram2: np.ndarray
    gram3: np.ndarray
    gram2_eigenvalues: np.ndarray
    gram3_eigenvalues: np.ndarray
    variance_regime_ratio: dict
    degenerate: tuple
    sigma_rank: int
    sigma_condition: float

    def to_json_dict(self) -> dict:
        """The fields in order; non-finite floats become None."""
        def clean(x):
            if isinstance(x, np.ndarray):
                return x.tolist()
            if isinstance(x, tuple):
                return list(x)
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, float) and not math.isfinite(x):
                return None
            return x

        return {f.name: clean(getattr(self, f.name)) for f in fields(self)}


def _unit_diagonal(t: np.ndarray) -> np.ndarray:
    """``t`` scaled to t_ij / sqrt(t_ii t_jj); zero where a diagonal entry is not positive."""
    d = np.diagonal(t)
    return np.divide(t, np.sqrt(np.outer(d, d)), out=np.zeros(t.shape),
                     where=(d[:, None] > 0) & (d > 0))


def diagnostics(q: QuadrupleInputs) -> DiagnosticsReport:
    """Summaries, Gram spectra and variance-regime ratios for the inputs."""
    n = q.n
    report = {name: {} for name in ("c0_plus", "c1_plus", "c2", "c2_plus", "c3", "c3_plus")}
    tables, degenerate, flagged = {}, [], set()
    for side, pick, pair in (("A", _X_SIDE, (q.dx, q.sx)), ("B", _Y_SIDE, (q.dy, q.sy))):
        t, raw2, raw3 = _sample_summaries(*pair)
        c2, c3 = _centered(t[:, None], t, raw2, raw3, n)
        # C less its mean m is -m on an unstored cell, so |C - m| is a = |m|
        # there and a + e on a stored cell v, e = |v - m| - a
        a = np.abs(t / (n * (n - 1)))
        dev = [np.abs(c.values - t_c / (n * (n - 1))) for c, t_c in zip(pair, t)]
        e = [ScoreMatrix(n, c.rows, c.cols, d - a_c) for c, d, a_c in zip(pair, dev, a)]
        te, c2e, c3e = _sample_summaries(*e)
        cross, aa = np.outer(a, te) + np.outer(te, a), np.outer(a, a)
        c2_plus = c2e + cross + n * (n - 1) * aa
        c3_plus = c3e + (n - 1) * cross + n * (n - 1) ** 2 * aa
        c0_plus = [d.max(initial=a_c if len(d) < n * (n - 1) else 0.0) for d, a_c in zip(dev, a)]
        c1_plus = [(n - 1) * a_c + c.row_sums.max() for c, a_c in zip(e, a)]
        report["c0_plus"][side] = {str(s + 1): float(c0_plus[m]) for s, m in enumerate(pick)}
        report["c1_plus"][side] = {str(s + 1): float(c1_plus[m]) for s, m in enumerate(pick)}
        for name, t in (("c2", c2), ("c2_plus", c2_plus), ("c3", c3), ("c3_plus", c3_plus)):
            report[name][side] = {f"{s + 1}{sp + 1}": float(t[pick[s], pick[sp]])
                                  for s in range(4) for sp in range(s, 4)}
        # a normalizer within rounding of zero is zero: centering a constant
        # score leaves about 1e-16 of its uncentered sum of squares, of either sign
        for s, m in enumerate(pick):
            for c, raw, what in ((c2, raw2, "entrywise"), (c3, raw3, "row-sum")):
                if c[m, m] <= 1e-12 * raw[m, m]:
                    degenerate.append(f"{side}{s + 1}: zero {what} normalizer")
                    flagged.add(s)
        grid = np.ix_(pick, pick)
        tables[side] = c2[grid], c3[grid]

    (a2, a3), (b2, b3) = tables["A"], tables["B"]
    gram2 = _unit_diagonal(a2) * _unit_diagonal(b2)
    gram3 = _unit_diagonal(a3) * _unit_diagonal(b3)
    ratio = {}
    for s in range(4):
        num = 2.0 * a2[s, s] * b2[s, s] / n**2
        den = 4.0 * a3[s, s] * b3[s, s] / n**3
        ratio[str(s + 1)] = float(num / den) if den > 0 and s not in flagged else math.inf

    moments = null_moments(q)
    return DiagnosticsReport(
        n=n,
        **report,
        gram2=gram2,
        gram3=gram3,
        gram2_eigenvalues=np.linalg.eigvalsh(gram2),
        gram3_eigenvalues=np.linalg.eigvalsh(gram3),
        variance_regime_ratio=ratio,
        degenerate=tuple(degenerate),
        sigma_rank=moments.rank,
        sigma_condition=moments.condition_estimate,
    )
