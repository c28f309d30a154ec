"""Acceptance gate: end-to-end statistical and numerical guarantees.

Each criterion prints one PASS/FAIL line (visible with ``pytest -v -s`` or
on failure).  The Monte Carlo criteria use fixed seeds, so outcomes are
deterministic.
"""

import math
import time

import numpy as np
import pytest

from gitest.graphs import NEAREST, knn_graph, pairwise_distances, robust_graph, robust_objective
from gitest.inference import git_test, permutation_test, quadruple_from_samples, run_test
from gitest.moments import QuadrupleInputs, null_moments
from gitest.rng import derive_seed
from gitest.simulate import SettingSpec, estimate_power, generate

from conftest import (
    brute_force_moments,
    center,
    chi_square_cdf,
    exhaustive_best_objective,
    make_quadruple,
)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_moment_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for n in (4, 5, 6):
        for _ in range(200):
            q = make_quadruple(rng, n)
            analytic = null_moments(q)
            exact = brute_force_moments(q)
            err_mu = np.max(
                np.abs(analytic.mu - exact.mu)
                / np.maximum(1.0, np.maximum(np.abs(analytic.mu), np.abs(exact.mu)))
            )
            err_sig = np.max(
                np.abs(analytic.sigma - exact.sigma)
                / np.maximum(1.0, np.maximum(np.abs(analytic.sigma), np.abs(exact.sigma)))
            )
            worst = max(worst, err_mu, err_sig)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 120,
        f"600 instances, worst relative moment error {worst:.2e}, {elapsed:.1f}s",
    )


def _null_runs(n, p, reps, seed):
    """Statistics and analytic p-values over null replications."""
    spec = SettingSpec(id="s5_1", n=n, p=p, seed=seed)
    stats, pvals = [], []
    for r in range(reps):
        rep_master = derive_seed(seed, r)
        data = generate(SettingSpec(id="s5_1", n=n, p=p, seed=derive_seed(rep_master, 0)))
        res = git_test(quadruple_from_samples(data.x, data.y))
        stats.append(res.statistic)
        pvals.append(res.p_analytic)
    return np.asarray(stats), np.asarray(pvals)


@pytest.fixture(scope="module")
def null_cell_100_100():
    return _null_runs(100, 100, 500, seed=1001)


@pytest.mark.slow
def test_criterion_2_type_one_error(null_cell_100_100):
    sizes = {}
    for n, p, seed in ((50, 20, 2001), (100, 20, 2002)):
        _, pvals = _null_runs(n, p, 500, seed)
        sizes[(n, p)] = float((pvals < 0.05).mean())
    _, pvals = null_cell_100_100
    sizes[(100, 100)] = float((pvals < 0.05).mean())
    ok = all(0.026 <= s <= 0.078 for s in sizes.values())
    report(2, ok, f"empirical sizes {sizes} within [0.026, 0.078] at 500 reps")


@pytest.mark.slow
def test_criterion_3_motivating_power():
    spec = SettingSpec(id="motivating", n=150, p=50, seed=3001)
    est = estimate_power(spec, reps=100)
    report(3, est.power >= 0.90, f"motivating-example power {est.power:.3f} >= 0.90")


@pytest.mark.slow
def test_criterion_4_chi_square_calibration(null_cell_100_100):
    stats, _ = null_cell_100_100
    x = np.sort(stats)
    m = len(x)
    cdf = np.array([chi_square_cdf(v, 4) for v in x])
    grid = np.arange(1, m + 1) / m
    ks = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / m))))
    report(4, ks <= 0.08, f"KS distance {ks:.4f} <= 0.08 over {m} null statistics")


def test_criterion_5_chi_square_closed_form():
    rng = np.random.default_rng(5001)
    xs = rng.uniform(0.0, 50.0, size=1000)
    worst = max(
        abs(chi_square_cdf(x, 4) - (1.0 - math.exp(-x / 2.0) * (1.0 + x / 2.0))) for x in xs
    )
    report(5, worst <= 1e-12, f"max |cdf - closed form| = {worst:.2e} over 1000 points")


def test_criterion_6_robust_graph_quality():
    rng = np.random.default_rng(6001)
    checks = 0
    for n in (4, 5):
        for lam in (0.0, 0.3, 1.0):
            for _ in range(10):
                D = pairwise_distances(rng.standard_normal((n, 2)))
                G = robust_graph(D, 1, lam, NEAREST)
                plain = knn_graph(D, 1, NEAREST)
                obj = robust_objective(D, G, lam, NEAREST)
                obj_plain = robust_objective(D, plain, lam, NEAREST)
                best = exhaustive_best_objective(D, 1, lam, NEAREST)
                assert obj <= obj_plain + 1e-9
                assert obj <= 1.1 * best + 1e-9
                if lam == 0.0:
                    assert np.array_equal(G.out_neighbors, plain.out_neighbors)
                checks += 1
    report(6, True, f"{checks} instances: descent <= plain kNN, within 10% of global optimum")


def test_criterion_7_invariances():
    rng = np.random.default_rng(7001)
    x = rng.standard_normal((40, 8))
    y = rng.standard_normal((40, 8))
    q = quadruple_from_samples(x, y)
    base = git_test(q)

    centered = git_test(QuadrupleInputs(
        sx=center(q.sx), dx=center(q.dx), sy=center(q.sy), dy=center(q.dy)
    ))
    rel_center = abs(centered.statistic - base.statistic) / max(1e-12, base.statistic)

    perm = rng.permutation(40)
    relabeled = run_test(x[perm], y[perm])
    rel_relabel = abs(relabeled.statistic - base.statistic) / max(1e-12, base.statistic)

    p1 = permutation_test(q, n_perm=300, seed=77, threads=1)
    p2 = permutation_test(q, n_perm=300, seed=77, threads=4)
    p3 = permutation_test(q, n_perm=300, seed=77, threads=1)

    ok = rel_center <= 1e-8 and rel_relabel <= 1e-8 and p1 == p2 == p3
    report(
        7,
        ok,
        f"centering drift {rel_center:.2e}, relabeling drift {rel_relabel:.2e}, "
        f"permutation p fixed at {p1:.6f} across thread counts",
    )


@pytest.mark.slow
def test_criterion_8_component_ordering():
    table41 = estimate_power(SettingSpec(id="s4_1", n=100, p=100, seed=8001),
                             reps=200).components
    ok41 = all(table41["RG4"] >= table41[name] - 0.05 for name in ("RG1", "RG2", "RG3"))
    table11 = estimate_power(SettingSpec(id="s1_1", n=100, p=100, seed=8002),
                             reps=200).components
    ok11 = all(
        table11[strong] >= table11[weak] - 0.05
        for strong in ("RG1", "RG4")
        for weak in ("RG2", "RG3")
    )
    report(
        8,
        ok41 and ok11,
        f"Setting 4.1 components {table41}; Setting 1.1 components {table11}",
    )
