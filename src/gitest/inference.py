"""The independence test: quadratic-form statistic, p-values, components.

The observed four generalized correlations are centered by their exact null
mean and whitened by the exact null covariance.  With a full-rank covariance
the statistic is referred to a chi-square law with 4 degrees of freedom;
rank-deficient covariances fall back to the Moore-Penrose pseudo-inverse with
degrees of freedom equal to the numerical rank.  Component tests standardize
each correlation separately and use two-sided normal p-values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaincc

from .errors import DegenerateDataError, StructuralError
from .moments import NullMoments, QuadrupleInputs, _cross_sums, null_moments, t_stats
from .rng import substream
from .scores import ScoreConfig, build_scores

COMPONENT_NAMES = ("RG1", "RG2", "RG3", "RG4")


@dataclass(frozen=True)
class ComponentResult:
    """One standardized correlation with its two-sided normal p-value."""

    name: str
    z: float
    p: float


@dataclass(frozen=True)
class GitResult:
    """Everything the test produced for one paired sample."""

    t_obs: np.ndarray
    moments: NullMoments
    statistic: float
    df: int
    p_analytic: float | None
    p_permutation: float | None
    components: tuple[ComponentResult, ...]
    max_stat: float
    n: int
    config: ScoreConfig | None = None

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "t_obs": self.t_obs.tolist(),
            "mu": self.moments.mu.tolist(),
            "sigma": self.moments.sigma.tolist(),
            "statistic": self.statistic,
            "df": self.df,
            "p_analytic": self.p_analytic,
            "p_permutation": self.p_permutation,
            "components": [{"name": c.name, "z": c.z, "p": c.p} for c in self.components],
            "max_stat": self.max_stat,
            "n": self.n,
            "k": cfg.resolve_k(self.n) if cfg is not None else None,
            "lambda": cfg.lam if cfg is not None else None,
            "scheme": cfg.scheme if cfg is not None else None,
        }


def _quadratic_form(t: np.ndarray, moments: NullMoments) -> float:
    proj = moments.eigvecs.T @ (t - moments.mu)
    return float((proj * proj / moments.eigvals).sum())


def _component_z(t: np.ndarray, moments: NullMoments) -> np.ndarray:
    sd = np.sqrt(np.maximum(np.diagonal(moments.sigma), 0.0))
    z = np.zeros(4)
    nonzero = sd > 0
    z[nonzero] = (t[nonzero] - moments.mu[nonzero]) / sd[nonzero]
    return z


def git_test(q: QuadrupleInputs, config: ScoreConfig | None = None) -> GitResult:
    """Run the test on prebuilt score matrices; analytic p-value only."""
    moments = null_moments(q)
    if not np.any(np.diagonal(moments.sigma) > 0):
        raise DegenerateDataError(
            "all four correlations are constant under the null; the scores are degenerate"
        )
    if moments.rank == 0:
        raise DegenerateDataError("null covariance has rank zero")
    t = t_stats(q)
    statistic = _quadratic_form(t, moments)
    df = moments.rank
    p_analytic = float(gammaincc(df / 2.0, statistic / 2.0))
    z = _component_z(t, moments)
    components = tuple(
        ComponentResult(name, float(zi), math.erfc(abs(zi) / math.sqrt(2.0)))
        for name, zi in zip(COMPONENT_NAMES, z)
    )
    return GitResult(
        t_obs=t,
        moments=moments,
        statistic=statistic,
        df=df,
        p_analytic=p_analytic,
        p_permutation=None,
        components=components,
        max_stat=float(np.abs(z).max()),
        n=q.n,
        config=config,
    )


def permutation_test(q: QuadrupleInputs, n_perm: int, seed: int, threads: int = 1) -> float:
    """Permutation p-value of the quadratic form with the add-one estimator.

    Permutation b relabels the Y sample by a uniform permutation
    (Fisher-Yates shuffle on the PCG64 substream (seed, b)); the null mean
    and covariance are held fixed because they are invariant under that
    relabeling.  Results do not depend on ``threads``.
    """
    _check_permutations(n_perm, threads)
    return _permutation_p(q, git_test(q), n_perm, seed, threads)


def _check_permutations(n_perm: int, threads: int) -> None:
    if n_perm < 1:
        raise ValueError("n_perm must be positive")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _permutation_p(q: QuadrupleInputs, observed: GitResult, n_perm: int, seed: int,
                   threads: int) -> float:
    """``permutation_test`` past its checks, with ``observed = git_test(q)``."""
    y_at = tuple(m.dense().ravel().take for m in (q.dy, q.sy))

    def exceeds(b: int) -> int:
        t = _cross_sums(q, substream(seed, b).permutation(q.n), y_at)
        return int(_quadratic_form(t, observed.moments) >= observed.statistic)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            count = sum(pool.map(exceeds, range(n_perm)))
    else:
        count = sum(exceeds(b) for b in range(n_perm))
    return (1 + count) / (n_perm + 1)


def quadruple_from_samples(x, y, cfg: ScoreConfig = ScoreConfig()) -> QuadrupleInputs:
    """Build the four score matrices for a paired sample."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise StructuralError("samples must be 2-D (observations x features)")
    if x.shape[0] != y.shape[0]:
        raise StructuralError(
            f"paired samples must align: x has {x.shape[0]} rows, y has {y.shape[0]}"
        )
    sim_x, dis_x = build_scores(x, cfg)
    sim_y, dis_y = build_scores(y, cfg)
    return QuadrupleInputs(sx=sim_x, dx=dis_x, sy=sim_y, dy=dis_y)


def run_test(x, y, cfg: ScoreConfig = ScoreConfig(), method: str = "analytic",
             n_perm: int = 500, seed: int = 0, threads: int = 1) -> GitResult:
    """End-to-end test on raw paired samples.

    ``method`` picks which p-values to report: "analytic", "permutation", or
    "both".  ``n_perm`` and ``threads`` are checked first, whatever the method.
    """
    if method not in ("analytic", "permutation", "both"):
        raise ValueError(f"unknown method {method!r}")
    _check_permutations(n_perm, threads)
    q = quadruple_from_samples(x, y, cfg)
    result = git_test(q, cfg)
    if method in ("permutation", "both"):
        p_perm = _permutation_p(q, result, n_perm, seed, threads)
        result = replace(result, p_permutation=p_perm)
    if method == "permutation":
        result = replace(result, p_analytic=None)
    return result
