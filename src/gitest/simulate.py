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

from .inference import COMPONENT_NAMES, _permutation_p, git_test, quadruple_from_samples
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


# -- per-family base draws used by several settings ------------------------

_BASE_DRAWS = {
    "normal": lambda rng, size: rng.standard_normal(size),
    "t10": t10,
    "lognormal": lambda rng, size: lognormal(rng, 0.0, 1.0, size),
}


def _by_p(p: int, breaks: list[tuple[int, float]], top: float) -> float:
    """Noise level as a step function of the dimension."""
    for upper, value in breaks:
        if p < upper:
            return value
    return top


# -- recipe implementations -------------------------------------------------


def _gen_motivating(rng, n, p):
    x = rng.standard_normal((n, p))
    return x, np.log(np.abs(x))


_TUNE_PARAMS = {
    "tune_i": ("normal", 1.6, {50: 0.0, 100: 2.2, 150: 3.2}),
    "tune_ii": ("t10", 1.8, {50: 0.0, 100: 1.9, 150: 2.9}),
    "tune_iii": ("lognormal", 0.05, {50: 0.0, 100: 0.45, 150: 0.6}),
}


def _gen_tune(setting_id):
    family, a, b_table = _TUNE_PARAMS[setting_id]
    draw = _BASE_DRAWS[family]

    def gen(rng, n, p):
        b = b_table[n]  # SettingSpec refuses an n the table lacks
        x = draw(rng, (n, p))
        eps = draw(rng, (n, p))
        return x, 1.0 / np.abs(x + a) + b * eps

    return gen


def _gen_s1(variant):
    def gen(rng, n, p):
        if variant == 1:
            u = rng.standard_normal((n, p))
        elif variant == 2:
            u = t10(rng, (n, p))
        else:
            u = lognormal(rng, -2.0, 1.0, (n, p))
        bx = _bernoulli_signs(rng, n)[:, None]
        by = _bernoulli_signs(rng, n)[:, None]
        if variant == 1:
            ex = 1.5 * rng.standard_normal((n, p))
            ey = 1.5 * rng.standard_normal((n, p))
        elif variant == 2:
            ex = 1.5 * t10(rng, (n, p))
            ey = 1.5 * t10(rng, (n, p))
        else:
            ex = lognormal(rng, -0.5, 1.0, (n, p))
            ey = lognormal(rng, -0.5, 1.0, (n, p))
        core = np.log(np.abs(u))
        return bx * core + ex, by * (5.0 - core) + ey

    return gen


def _gen_s2(variant):
    def gen(rng, n, p):
        if variant == 1:
            sigma = rng.standard_normal(n)
            sig_x = sigma * rng.standard_normal(n)
            sig_y = sigma * rng.standard_normal(n)
            ux = (2.0 - sig_x)[:, None] * rng.standard_normal((n, p))
            uy = sig_y[:, None] * rng.standard_normal((n, p))
            sd = _by_p(p, [(100, 0.6)], 1.0)
            ex = sd * rng.standard_normal((n, p))
            ey = sd * rng.standard_normal((n, p))
        elif variant == 2:
            sigma = t10(rng, n)
            sig_x = sigma * t10(rng, n)
            sig_y = sigma * t10(rng, n)
            ux = (2.0 - sig_x)[:, None] * t10(rng, (n, p))
            uy = sig_y[:, None] * t10(rng, (n, p))
            scale = _by_p(p, [(100, 0.4)], 1.0)
            ex = scale * t10(rng, (n, p))
            ey = scale * t10(rng, (n, p))
        else:
            sigma = lognormal(rng, 0.0, 1.0, n)
            sig_x = np.exp(sigma * rng.standard_normal(n))
            sig_y = np.exp(sigma * rng.standard_normal(n))
            ux = np.exp((5.0 - sig_x)[:, None] * rng.standard_normal((n, p)))
            uy = np.exp(sig_y[:, None] * rng.standard_normal((n, p)))
            scale = _by_p(p, [(1000, 0.2)], 0.1)
            ex = scale * lognormal(rng, 0.0, 1.0, (n, p))
            ey = scale * lognormal(rng, 0.0, 1.0, (n, p))
        return ux + ex, uy + ey

    return gen


def _gen_s3(variant):
    def gen(rng, n, p):
        m = (n + 1) // 2  # first half (rounded up) follows the first regime
        if variant == 1:
            x = rng.standard_normal((n, p))
            eps = 1.2 * rng.standard_normal((n, p))
            first, second = np.log(np.abs(x[:m])), np.exp(0.6 * x[m:])
        elif variant == 2:
            x = t10(rng, (n, p))
            eps = t10(rng, (n, p))
            first, second = np.log(np.abs(x[:m])), np.exp(0.5 * x[m:])
        else:
            x = lognormal(rng, -4.0, 1.0, (n, p))
            sd = _by_p(p, [(100, 2.9), (400, 2.3)], 2.0)
            eps = lognormal(rng, -4.0, sd, (n, p))
            first, second = np.log(x[:m]), np.exp(0.7 * x[m:])
        y = np.concatenate([first, second]) + eps
        return x, y

    return gen


def _gen_s4(variant):
    def gen(rng, n, p):
        if variant == 1:
            draw = _BASE_DRAWS["normal"]
            noise_x = 8.0 * rng.standard_normal(n)
            noise_y = 8.0 * rng.standard_normal(n)
        elif variant == 2:
            draw = _BASE_DRAWS["t10"]
            noise_x = 10.0 * t10(rng, n)
            noise_y = 10.0 * t10(rng, n)
        else:
            draw = _BASE_DRAWS["lognormal"]
            noise_x = lognormal(rng, 0.0, 25.0, n)
            noise_y = lognormal(rng, 0.0, 25.0, n)
        L = draw(rng, (n, p))
        x = np.empty((n, p))
        y = np.empty((n, p))
        for i in range(n):  # theta is (p, p) per row; draw rowwise to cap memory
            theta = draw(rng, (p, p))
            x[i] = L[i] @ np.sin(theta)
            y[i] = L[i] @ np.cos(theta)
        return x + noise_x[:, None], y + noise_y[:, None]

    return gen


def _gen_s5(variant):
    draw = _BASE_DRAWS[["normal", "t10", "lognormal"][variant - 1]]

    def gen(rng, n, p):
        return draw(rng, (n, p)), draw(rng, (n, p))

    return gen


_GENERATORS: dict[str, Callable] = {
    "motivating": _gen_motivating,
    "tune_i": _gen_tune("tune_i"),
    "tune_ii": _gen_tune("tune_ii"),
    "tune_iii": _gen_tune("tune_iii"),
}
for _v in (1, 2, 3):
    _GENERATORS[f"s1_{_v}"] = _gen_s1(_v)
    _GENERATORS[f"s2_{_v}"] = _gen_s2(_v)
    _GENERATORS[f"s3_{_v}"] = _gen_s3(_v)
    _GENERATORS[f"s4_{_v}"] = _gen_s4(_v)
    _GENERATORS[f"s5_{_v}"] = _gen_s5(_v)

SETTING_IDS = tuple(sorted(_GENERATORS))

_DEFAULT_DIMS = {"motivating": (150, 50), "tune_i": (50, 100),
                 "tune_ii": (50, 100), "tune_iii": (50, 100)}


def default_dimensions(setting_id: str) -> tuple[int, int]:
    return _DEFAULT_DIMS.get(setting_id, (100, 100))


@dataclass(frozen=True)
class SettingSpec:
    """One simulation scenario: recipe id, dimensions, seed.  n is at least
    4, the fewest paired observations the test takes."""

    id: str
    n: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if self.id not in _GENERATORS:
            raise ValueError(f"unknown setting {self.id!r}; valid ids: {', '.join(SETTING_IDS)}")
        if self.n < 4 or self.p < 1:
            raise ValueError(f"need n >= 4 and p >= 1, got n={self.n}, p={self.p}")
        if self.id in _TUNE_PARAMS:
            b_table = _TUNE_PARAMS[self.id][2]
            if self.n not in b_table:
                raise ValueError(f"{self.id} has no tabulated noise level for n={self.n}; "
                                 f"known n: {sorted(b_table)}")


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
    x, y = _GENERATORS[spec.id](rng, spec.n, spec.p)
    return PairedSample(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


def _replications(spec: SettingSpec, reps: int):
    """``(rep_master, sample)`` of each replication; replication r draws its
    sample from substream 0 of rep_master = derive_seed(spec.seed, r)."""
    for r in range(reps):
        rep_master = derive_seed(spec.seed, r)
        yield rep_master, generate(replace(spec, seed=derive_seed(rep_master, 0)))


def estimate_power(spec: SettingSpec, cfg: ScoreConfig = ScoreConfig(),
                   method: str = "analytic", reps: int = 200, level: float = 0.05,
                   n_perm: int = 500) -> PowerEstimate:
    """Fraction of replications rejecting at ``level`` (p < level), for the
    combined test and for each of its components RG1..RG4.

    ``method`` picks the combined test's p-value, "analytic" or
    "permutation"; a permutation test of replication r draws its
    permutations from substream 1 of its rep_master.  The components'
    p-values are always analytic.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    if not 0 < level <= 1:
        raise ValueError("level must lie in (0, 1]")
    if method not in ("analytic", "permutation"):
        raise ValueError(f"unknown method {method!r}")
    if method == "permutation" and n_perm < 1:
        raise ValueError("n_perm must be positive")
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
        setting=spec, replications=reps, level=level, rejections=rejections,
        power=rejections / reps, runtime_seconds=runtime, method=method,
        components={name: c / reps for name, c in counts.items()},
    )


# -- result emission ---------------------------------------------------------

POWER_CSV_HEADER = "setting,n,p,reps,level,method,power,runtime_seconds"
TIDY_CSV_HEADER = "setting,n,p,reps,level,method,series,param,power"


def power_csv(estimates, timing: bool = False) -> str:
    """Fixed-schema CSV; wall-clock column left empty unless ``timing``."""
    lines = [POWER_CSV_HEADER]
    for e in estimates:
        rt = f"{e.runtime_seconds:.3f}" if timing else ""
        lines.append(
            f"{e.setting.id},{e.setting.n},{e.setting.p},{e.replications},"
            f"{e.level:g},{e.method},{e.power:.10g},{rt}"
        )
    return "\n".join(lines) + "\n"


def power_json(estimates, timing: bool = False) -> list[dict]:
    out = []
    for e in estimates:
        out.append({
            "setting": e.setting.id,
            "n": e.setting.n,
            "p": e.setting.p,
            "reps": e.replications,
            "level": e.level,
            "method": e.method,
            "rejections": e.rejections,
            "power": e.power,
            "runtime_seconds": e.runtime_seconds if timing else None,
        })
    return out


def tidy_csv(rows) -> str:
    """Long-format CSV for plotting: one (series, param, power) per line."""
    lines = [TIDY_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['setting']},{r['n']},{r['p']},{r['reps']},{r['level']:g},"
            f"{r['method']},{r['series']},{r['param']},{r['power']:.10g}"
        )
    return "\n".join(lines) + "\n"


def tidy_row(e: PowerEstimate, series: str, power: float, param: str) -> dict:
    """One long-format row: the power of ``series`` at ``param`` in the cell
    that ``e`` estimates."""
    return {"setting": e.setting.id, "n": e.setting.n, "p": e.setting.p,
            "reps": e.replications, "level": e.level, "method": e.method,
            "series": series, "param": param, "power": power}
