"""Synthetic paired-sample generators and Monte Carlo power/size drivers.

Each setting id names one data-generating recipe; ``generate`` draws a paired
sample deterministically from ``SettingSpec.seed``.  Replication r of a Monte
Carlo run uses substreams derived from (seed, r), so estimates are
bit-reproducible regardless of execution order.

Variate recipes (fixed and documented): normals come from numpy's Ziggurat
sampler on a PCG64 stream; t with 10 degrees of freedom is drawn as
N(0,1) / sqrt(chisq_10 / 10); log-normals are exp(mu + sd * N(0,1)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .graphs import _check_count, _is_count
from .inference import (COMPONENT_NAMES, N_PERM, _check_permutations, _check_seed, _permutation_p,
                        git_test, quadruple_from_samples)
from .rng import derive_seed
from .scores import ScoreConfig


class PairedSample(NamedTuple):
    x: np.ndarray
    y: np.ndarray


def t10(rng: np.random.Generator, size) -> np.ndarray:
    """Student t with 10 degrees of freedom."""
    return rng.standard_normal(size) / np.sqrt(rng.chisquare(10.0, size) / 10.0)


def lognormal(rng: np.random.Generator, mean: float, sd: float, size) -> np.ndarray:
    return np.exp(mean + sd * rng.standard_normal(size))


def _bernoulli_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    """(-1)^B for B ~ Bernoulli(1/2), one per row."""
    return 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(np.float64)


# -- the laws a recipe draws from: law(rng, size, scale), where scale
# multiplies a normal or t10 variate and is the log-sd of a log-normal one


def _normal(rng: np.random.Generator, size, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(size)


def _t10(rng: np.random.Generator, size, scale: float = 1.0) -> np.ndarray:
    return scale * t10(rng, size)


def _lognormal(mean: float) -> Callable:
    return lambda rng, size, scale=1.0: lognormal(rng, mean, scale, size)


def _by_p(p: int, breaks: list[tuple[int, float]], top: float) -> float:
    """Noise level as a step function of the dimension."""
    for upper, value in breaks:
        if p < upper:
            return value
    return top


# -- recipes: each family maps its variant's laws and constants to a
# generator (rng, n, p) -> (x, y)


def _motivating(rng, n, p):
    x = rng.standard_normal((n, p))
    return x, np.log(np.abs(x))


_TUNE_N = (50, 100, 150)  # the n at which a tune_* noise level b is tabulated


def _tune(draw, a: float, b: tuple[float, ...]):
    """Y = 1/|X + a| + b_n eps, b_n the entry of ``b`` at n's place in _TUNE_N."""
    def gen(rng, n, p):
        b_n = b[_TUNE_N.index(n)]  # SettingSpec refuses an n the table lacks
        x = draw(rng, (n, p))
        eps = draw(rng, (n, p))
        return x, 1.0 / np.abs(x + a) + b_n * eps
    return gen


def _s1(u_law, noise_law, noise_scale: float):
    """X = B_x log|U| + e_x, Y = B_y (5 - log|U|) + e_y: rowwise signs B."""
    def gen(rng, n, p):
        core = np.log(np.abs(u_law(rng, (n, p))))
        bx = _bernoulli_signs(rng, n)[:, None]
        by = _bernoulli_signs(rng, n)[:, None]
        ex = noise_law(rng, (n, p), noise_scale)
        ey = noise_law(rng, (n, p), noise_scale)
        return bx * core + ex, by * (5.0 - core) + ey
    return gen


def _s2(draw, noise_breaks: list[tuple[int, float]], noise_top: float):
    """X = (2 - s_x) U_x + e_x, Y = s_y U_y + e_y: s_x and s_y share a scale."""
    def gen(rng, n, p):
        sigma = draw(rng, n)
        sig_x = sigma * draw(rng, n)
        sig_y = sigma * draw(rng, n)
        ux = (2.0 - sig_x)[:, None] * draw(rng, (n, p))
        uy = sig_y[:, None] * draw(rng, (n, p))
        noise = _by_p(p, noise_breaks, noise_top)
        ex = draw(rng, (n, p), noise)
        ey = draw(rng, (n, p), noise)
        return ux + ex, uy + ey
    return gen


def _s2_3(rng, n, p):
    sigma = lognormal(rng, 0.0, 1.0, n)
    sig_x = np.exp(sigma * rng.standard_normal(n))
    sig_y = np.exp(sigma * rng.standard_normal(n))
    ux = np.exp((5.0 - sig_x)[:, None] * rng.standard_normal((n, p)))
    uy = np.exp(sig_y[:, None] * rng.standard_normal((n, p)))
    scale = _by_p(p, [(1000, 0.2)], 0.1)
    ex = scale * lognormal(rng, 0.0, 1.0, (n, p))
    ey = scale * lognormal(rng, 0.0, 1.0, (n, p))
    return ux + ex, uy + ey


def _s3(draw, rate: float, noise_breaks: list[tuple[int, float]], noise_top: float):
    """Y = log|X| on the first half of the rows, exp(rate X) on the rest, plus noise."""
    def gen(rng, n, p):
        m = (n + 1) // 2  # first half (rounded up) follows the first regime
        x = draw(rng, (n, p))
        eps = draw(rng, (n, p), _by_p(p, noise_breaks, noise_top))
        y = np.concatenate([np.log(np.abs(x[:m])), np.exp(rate * x[m:])]) + eps
        return x, y
    return gen


def _s4(draw, noise_scale: float):
    """X = L sin(Theta) + e_x, Y = L cos(Theta) + e_y: a noise value per row."""
    def gen(rng, n, p):
        noise_x = draw(rng, n, noise_scale)
        noise_y = draw(rng, n, noise_scale)
        L = draw(rng, (n, p))
        x = np.empty((n, p))
        y = np.empty((n, p))
        for i in range(n):  # theta is (p, p) per row; draw rowwise to cap memory
            theta = draw(rng, (p, p))
            x[i] = L[i] @ np.sin(theta)
            y[i] = L[i] @ np.cos(theta)
        return x + noise_x[:, None], y + noise_y[:, None]
    return gen


def _s5(draw):
    return lambda rng, n, p: (draw(rng, (n, p)), draw(rng, (n, p)))


class _Setting(NamedTuple):
    recipe: Callable  # (rng, n, p) -> (x, y)
    dims: tuple[int, int] = (100, 100)  # default (n, p)
    ns: tuple[int, ...] | None = None  # the only n it runs at, where it tabulates by n


_SETTINGS = {
    "motivating": _Setting(_motivating, (150, 50)),
    "tune_i": _Setting(_tune(_normal, 1.6, (0.0, 2.2, 3.2)), (50, 100), _TUNE_N),
    "tune_ii": _Setting(_tune(_t10, 1.8, (0.0, 1.9, 2.9)), (50, 100), _TUNE_N),
    "tune_iii": _Setting(_tune(_lognormal(0.0), 0.05, (0.0, 0.45, 0.6)), (50, 100), _TUNE_N),
    "s1_1": _Setting(_s1(_normal, _normal, 1.5)),
    "s1_2": _Setting(_s1(_t10, _t10, 1.5)),
    "s1_3": _Setting(_s1(_lognormal(-2.0), _lognormal(-0.5), 1.0)),
    "s2_1": _Setting(_s2(_normal, [(100, 0.6)], 1.0)),
    "s2_2": _Setting(_s2(_t10, [(100, 0.4)], 1.0)),
    "s2_3": _Setting(_s2_3),
    "s3_1": _Setting(_s3(_normal, 0.6, [], 1.2)),
    "s3_2": _Setting(_s3(_t10, 0.5, [], 1.0)),
    "s3_3": _Setting(_s3(_lognormal(-4.0), 0.7, [(100, 2.9), (400, 2.3)], 2.0)),
    "s4_1": _Setting(_s4(_normal, 8.0)),
    "s4_2": _Setting(_s4(_t10, 10.0)),
    "s4_3": _Setting(_s4(_lognormal(0.0), 25.0)),
    "s5_1": _Setting(_s5(_normal)),
    "s5_2": _Setting(_s5(_t10)),
    "s5_3": _Setting(_s5(_lognormal(0.0))),
}

SETTING_IDS = tuple(sorted(_SETTINGS))


def default_dimensions(setting_id: str) -> tuple[int, int]:
    return _SETTINGS[setting_id].dims


@dataclass(frozen=True)
class SettingSpec:
    """One simulation scenario: recipe id, dimensions, seed.  n is at least
    4, the fewest paired observations the test takes; the seed is a
    nonnegative integer."""

    id: str
    n: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if self.id not in _SETTINGS:
            raise ValueError(f"unknown setting {self.id!r}; valid ids: {', '.join(SETTING_IDS)}")
        if not (_is_count(self.n) and _is_count(self.p)) or self.n < 4 or self.p < 1:
            raise ValueError(f"need n >= 4 and p >= 1, both integers, "
                             f"got n={self.n!r}, p={self.p!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        ns = _SETTINGS[self.id].ns
        if ns is not None and self.n not in ns:
            raise ValueError(f"{self.id} has no tabulated noise level for n={self.n}; "
                             f"known n: {list(ns)}")


@dataclass(frozen=True)
class PowerEstimate:
    """Rejection summary of one Monte Carlo run: ``power`` is the combined
    test's rejection rate, ``components`` maps RG1..RG4 to theirs."""

    setting: SettingSpec
    replications: int
    level: float
    rejections: int
    power: float
    runtime_seconds: float
    method: str = "analytic"
    components: dict[str, float] = field(default_factory=dict)


def generate(spec: SettingSpec) -> PairedSample:
    """Draw one paired sample per the setting's recipe, fixed by spec.seed."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x, y = _SETTINGS[spec.id].recipe(rng, spec.n, spec.p)
    return PairedSample(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


def _replications(spec: SettingSpec, reps: int):
    """``(rep_master, sample)`` of each replication; replication r draws its
    sample from substream 0 of rep_master = derive_seed(spec.seed, r)."""
    for r in range(reps):
        rep_master = derive_seed(spec.seed, r)
        yield rep_master, generate(replace(spec, seed=derive_seed(rep_master, 0)))


def estimate_power(spec: SettingSpec, cfg: ScoreConfig = ScoreConfig(),
                   method: str = "analytic", reps: int = 200, level: float = 0.05,
                   n_perm: int = N_PERM) -> PowerEstimate:
    """Fraction of replications rejecting at ``level`` (p < level), for the
    combined test and for each of its components RG1..RG4.

    ``method`` picks the combined test's p-value, "analytic" or
    "permutation"; a permutation test of replication r draws its
    permutations from substream 1 of its rep_master.  The components'
    p-values are always analytic.
    """
    _check_count("reps", reps)
    if reps < 1:
        raise ValueError("reps must be positive")
    if not 0 < level <= 1:
        raise ValueError("level must lie in (0, 1]")
    if method not in ("analytic", "permutation"):
        raise ValueError(f"unknown method {method!r}")
    if method == "permutation":
        _check_permutations(n_perm, threads=1)
    start = time.perf_counter()
    rejections = 0
    counts = dict.fromkeys(COMPONENT_NAMES, 0)
    for rep_master, data in _replications(spec, reps):
        q = quadruple_from_samples(data.x, data.y, cfg)
        res = git_test(q, cfg)
        if method == "analytic":
            p = res.p_analytic
        else:
            p = _permutation_p(q, res, n_perm, derive_seed(rep_master, 1), threads=1)
        rejections += p < level
        for comp in res.components:
            counts[comp.name] += comp.p < level
    runtime = time.perf_counter() - start
    return PowerEstimate(
        setting=spec, replications=int(reps), level=level, rejections=rejections,
        power=rejections / reps, runtime_seconds=runtime, method=method,
        components={name: c / reps for name, c in counts.items()},
    )


# -- result emission ---------------------------------------------------------

POWER_COLUMNS = ("setting", "n", "p", "reps", "level", "method", "power", "runtime_seconds")
TIDY_COLUMNS = ("setting", "n", "p", "reps", "level", "method", "series", "param", "power")
#: a float column's format where it is not ``.10g``
_CSV_FORMAT = {"level": "g", "runtime_seconds": ".3f"}


def to_csv(rows, columns) -> str:
    """CSV of ``columns`` of each row dict, after a header line: ``None``
    prints empty, a float with ``.10g`` (or its ``_CSV_FORMAT`` entry) and
    anything else with ``str``."""
    def cell(col, v):
        if v is None:
            return ""
        return format(v, _CSV_FORMAT.get(col, ".10g")) if isinstance(v, float) else str(v)
    lines = [",".join(columns)]
    lines += [",".join(cell(col, row[col]) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


def power_csv(estimates, timing: bool = False) -> str:
    """Fixed-schema CSV; wall-clock column left empty unless ``timing``."""
    return to_csv(power_json(estimates, timing), POWER_COLUMNS)


def power_json(estimates, timing: bool = False) -> list[dict]:
    """One row per estimate; ``runtime_seconds`` is None unless ``timing``."""
    return [{"setting": e.setting.id, "n": e.setting.n, "p": e.setting.p,
             "reps": e.replications, "level": e.level, "method": e.method,
             "rejections": e.rejections, "power": e.power,
             "runtime_seconds": e.runtime_seconds if timing else None} for e in estimates]


def tidy_row(e: PowerEstimate, series: str, power: float, param: str) -> dict:
    """One long-format row: the power of ``series`` at ``param`` in the cell
    that ``e`` estimates."""
    return {"setting": e.setting.id, "n": e.setting.n, "p": e.setting.p,
            "reps": e.replications, "level": e.level, "method": e.method,
            "series": series, "param": param, "power": power}
