"""Generalized correlations and their exact permutation-null moments.

Four sums pair the X-side score matrices with the Y-side ones:

    T1 = sum_{i != j} DX_ij DY_ij        T2 = sum_{i != j} DX_ij SY_ij
    T3 = sum_{i != j} SX_ij DY_ij        T4 = sum_{i != j} SX_ij SY_ij

Under a uniformly random relabeling of the Y sample the mean and covariance
of (T1..T4) have closed forms in the scalar summaries of the score matrices;
``brute_force_moments`` provides the exhaustive-enumeration oracle for them.
All formulas require symmetric matrices with zero diagonals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import StructuralError
from .matrixcore import ScoreMatrix, center, cross_summarize

#: eigenvalues below RANK_TOL times the largest count as zero
RANK_TOL = 1e-10

_PAIR_A = ("dx", "dx", "sx", "sx")
_PAIR_B = ("dy", "sy", "dy", "sy")


@dataclass(frozen=True)
class QuadrupleInputs:
    """The four score matrices, with the fixed pairing map

    A(1) = A(2) = dx,  A(3) = A(4) = sx,  B(1) = B(3) = dy,  B(2) = B(4) = sy.
    """

    sx: ScoreMatrix
    dx: ScoreMatrix
    sy: ScoreMatrix
    dy: ScoreMatrix

    def __post_init__(self):
        mats = [self.sx, self.dx, self.sy, self.dy]
        if len({m.n for m in mats}) != 1:
            raise StructuralError("all four score matrices must share one n")
        for name, m in zip(("sx", "dx", "sy", "dy"), mats):
            if not np.array_equal(m.values, m.values.T):
                raise StructuralError(f"{name} must be symmetric; symmetrize it first")

    @property
    def n(self) -> int:
        return self.sx.n

    def a_matrix(self, s: int) -> ScoreMatrix:
        return getattr(self, _PAIR_A[s - 1])

    def b_matrix(self, s: int) -> ScoreMatrix:
        return getattr(self, _PAIR_B[s - 1])


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


def _cross_sums(dx: np.ndarray, sx: np.ndarray, dy: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """(T1..T4) of the four score arrays, paired as in ``_PAIR_A``/``_PAIR_B``."""
    return np.array([(dx * dy).sum(), (dx * sy).sum(), (sx * dy).sum(), (sx * sy).sum()])


def t_stats(q: QuadrupleInputs) -> np.ndarray:
    """The observed four generalized correlations, in pairing order."""
    return _cross_sums(q.dx.values, q.sx.values, q.dy.values, q.sy.values)


def _cov_from_summaries(a1, a1p, a2, a3, b1, b1p, b2, b3, n: int) -> float:
    da3 = a3 - a1 * a1p / n
    db3 = b3 - b1 * b1p / n
    da2 = a2 - a1 * a1p / (n * (n - 1))
    db2 = b2 - b1 * b1p / (n * (n - 1))
    return (
        4.0 * (n + 1) * da3 * db3 / (n * (n - 1) * (n - 2) * (n - 3))
        + 2.0 * da2 * db2 / (n * (n - 3))
        - 4.0 * da2 * db3 / (n * (n - 2) * (n - 3))
        - 4.0 * da3 * db2 / (n * (n - 2) * (n - 3))
    )


def _spectral_rank(mu: np.ndarray, sigma: np.ndarray) -> NullMoments:
    """Moments with the rank, condition and kept eigenpairs of ``sigma``."""
    eigvals, eigvecs = np.linalg.eigh((sigma + sigma.T) / 2.0)
    lam_max = float(eigvals[-1])
    kept = eigvals > RANK_TOL * max(lam_max, 0.0)
    rank = int(kept.sum())
    cond = lam_max / float(eigvals[kept][0]) if rank else 0.0
    return NullMoments(mu=mu, sigma=sigma, rank=rank, condition_estimate=cond,
                       eigvals=eigvals[kept], eigvecs=eigvecs[:, kept])


def null_moments(q: QuadrupleInputs) -> NullMoments:
    """Mean vector and covariance matrix of (T1..T4) under the null.

    Summaries are computed once per unordered matrix pair, since they are
    symmetric in their arguments; the ten unique covariance entries are
    mirrored into the symmetric 4x4 matrix.
    """
    n = q.n
    if n < 4:
        raise StructuralError(f"null moments need n >= 4, got n={n}")
    A = [q.a_matrix(s) for s in (1, 2, 3, 4)]
    B = [q.b_matrix(s) for s in (1, 2, 3, 4)]
    totals_a = [float(m.values.sum()) for m in A]
    totals_b = [float(m.values.sum()) for m in B]
    mu = np.array([totals_a[s] * totals_b[s] / (n * (n - 1)) for s in range(4)])

    cross = {
        frozenset(pair): cross_summarize(getattr(q, pair[0]), getattr(q, pair[1]))
        for side in (("dx", "sx"), ("dy", "sy"))
        for pair in itertools.combinations_with_replacement(side, 2)
    }

    sigma = np.empty((4, 4))
    for s in range(4):
        for sp in range(s, 4):
            ca = cross[frozenset((_PAIR_A[s], _PAIR_A[sp]))]
            cb = cross[frozenset((_PAIR_B[s], _PAIR_B[sp]))]
            val = _cov_from_summaries(
                totals_a[s], totals_a[sp], ca.c2, ca.c3,
                totals_b[s], totals_b[sp], cb.c2, cb.c3, n,
            )
            sigma[s, sp] = sigma[sp, s] = val
    return _spectral_rank(mu, sigma)


def brute_force_moments(q: QuadrupleInputs) -> NullMoments:
    """Exact moments by enumerating all n! relabelings of the Y sample.

    Oracle for ``null_moments``; guarded to n <= 8.
    """
    n = q.n
    if n > 8:
        raise ValueError(f"enumeration over {n}! permutations refused (n <= 8)")
    dx, sx = q.dx.values, q.sx.values
    dy, sy = q.dy.values, q.sy.values
    n_perm = math.factorial(n)
    T = np.empty((n_perm, 4))
    for idx, pi in enumerate(itertools.permutations(range(n))):
        p = np.asarray(pi)
        ix = np.ix_(p, p)
        T[idx] = _cross_sums(dx, sx, dy[ix], sy[ix])
    mu = T.mean(axis=0)
    dev = T - mu
    return _spectral_rank(mu, dev.T @ dev / n_perm)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Raw finite-n quantities behind the normality and invertibility theory.

    All summaries are computed on the centered matrices.  ``gram2`` is the
    Gram matrix of the four unit-normalized flattened A-matrices tensored
    with their B counterparts; ``gram3`` the analogue built from row-sum
    vectors.  ``variance_regime_ratio`` compares the entrywise variance
    proxy 2 n^-2 A2 B2 against the row-sum proxy 4 n^-3 A3 B3 per statistic.
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


def diagnostics(q: QuadrupleInputs) -> DiagnosticsReport:
    """Summaries, Gram spectra and variance-regime ratios for the inputs."""
    A = [center(q.a_matrix(s)) for s in (1, 2, 3, 4)]
    B = [center(q.b_matrix(s)) for s in (1, 2, 3, 4)]
    sides = {"A": A, "B": B}

    c0_plus: dict = {"A": {}, "B": {}}
    c1_plus: dict = {"A": {}, "B": {}}
    for side, mats in sides.items():
        for s, m in enumerate(mats, start=1):
            absv = np.abs(m.values)
            c0_plus[side][str(s)] = float(absv.max())
            c1_plus[side][str(s)] = float(absv.sum(axis=1).max())

    c2: dict = {"A": {}, "B": {}}
    c2_plus: dict = {"A": {}, "B": {}}
    c3: dict = {"A": {}, "B": {}}
    c3_plus: dict = {"A": {}, "B": {}}
    cross = {"A": {}, "B": {}}
    for side, mats in sides.items():
        for s in range(1, 5):
            for sp in range(s, 5):
                a, b = mats[s - 1], mats[sp - 1]
                cb = cross_summarize(a, b)
                cross[side][(s, sp)] = cb
                key = f"{s}{sp}"
                c2[side][key] = cb.c2
                c2_plus[side][key] = float(np.abs(a.values * b.values).sum())
                c3[side][key] = cb.c3
                c3_plus[side][key] = float(
                    (np.abs(a.values).sum(axis=1) * np.abs(b.values).sum(axis=1)).sum())

    degenerate = []
    for side in ("A", "B"):
        for s in range(1, 5):
            if cross[side][(s, s)].c2 == 0.0:
                degenerate.append(f"{side}{s}: zero entrywise normalizer")
            if cross[side][(s, s)].c3 == 0.0:
                degenerate.append(f"{side}{s}: zero row-sum normalizer")

    def gram(which: str) -> np.ndarray:
        g = np.zeros((4, 4))
        for s in range(1, 5):
            for sp in range(s, 5):
                val = 1.0
                for side in ("A", "B"):
                    num = getattr(cross[side][(s, sp)], which)
                    d1 = getattr(cross[side][(s, s)], which)
                    d2 = getattr(cross[side][(sp, sp)], which)
                    val *= num / math.sqrt(d1 * d2) if d1 > 0 and d2 > 0 else 0.0
                g[s - 1, sp - 1] = g[sp - 1, s - 1] = val
        return g

    gram2 = gram("c2")
    gram3 = gram("c3")
    n = q.n
    ratio = {}
    for s in range(1, 5):
        num = 2.0 * cross["A"][(s, s)].c2 * cross["B"][(s, s)].c2 / n**2
        den = 4.0 * cross["A"][(s, s)].c3 * cross["B"][(s, s)].c3 / n**3
        ratio[str(s)] = num / den if den > 0 else math.inf

    moments = null_moments(q)
    return DiagnosticsReport(
        n=n,
        c0_plus=c0_plus,
        c1_plus=c1_plus,
        c2=c2,
        c2_plus=c2_plus,
        c3=c3,
        c3_plus=c3_plus,
        gram2=gram2,
        gram3=gram3,
        gram2_eigenvalues=np.linalg.eigvalsh(gram2),
        gram3_eigenvalues=np.linalg.eigvalsh(gram3),
        variance_regime_ratio=ratio,
        degenerate=tuple(degenerate),
        sigma_rank=moments.rank,
        sigma_condition=moments.condition_estimate,
    )
