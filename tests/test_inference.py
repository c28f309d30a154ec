import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitest import inference
from gitest.errors import DegenerateDataError, StructuralError
from gitest.inference import git_test, permutation_test, quadruple_from_samples, run_test
from gitest.moments import QuadrupleInputs, null_moments
from gitest.scores import ScoreConfig
from gitest.simulate import SettingSpec, generate

from conftest import chi_square_cdf, dense_scores, make_quadruple, standard_normal_cdf


def chi4_closed_form(x):
    return 1.0 - math.exp(-x / 2.0) * (1.0 + x / 2.0)


def phi_series(x):
    """Phi via the textbook series around zero; independent of erfc."""
    a = abs(x)
    total = term = a * math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi)
    i = 1.0
    prev = 0.0
    while total != prev:
        prev = total
        i += 2.0
        term *= a * a / i
        total += term
    return 0.5 + total if x >= 0 else 0.5 - total


class TestChiSquareCdf:
    """The test-side chi-square CDF oracle against closed forms."""

    def test_zero(self):
        for df in (1, 2, 4, 7):
            assert chi_square_cdf(0.0, df) == 0.0

    def test_df4_closed_form_identity(self, rng):
        xs = rng.uniform(0.0, 50.0, size=1000)
        for x in xs:
            assert abs(chi_square_cdf(x, 4) - chi4_closed_form(x)) <= 1e-12

    def test_df4_95th_percentile(self):
        # bisect the closed form as the independent oracle
        lo, hi = 0.0, 50.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if chi4_closed_form(mid) < 0.95:
                lo = mid
            else:
                hi = mid
        x95 = (lo + hi) / 2.0
        assert x95 == pytest.approx(9.487729, abs=1e-5)
        assert chi_square_cdf(9.487729, 4) == pytest.approx(0.95, abs=1e-6)

    def test_df2_exponential(self):
        x = 2.0 * math.log(20.0)
        assert chi_square_cdf(x, 2) == pytest.approx(0.95, abs=1e-12)


class TestStandardNormalCdf:
    """The test-side normal CDF oracle against a series independent of erfc."""

    def test_center(self):
        assert standard_normal_cdf(0.0) == 0.5

    def test_975_quantile(self):
        assert standard_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert standard_normal_cdf(1.959964) == pytest.approx(phi_series(1.959964), abs=1e-14)

    def test_far_left_tail(self):
        assert standard_normal_cdf(-8.0) < 1e-14

    @given(st.floats(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x):
        assert abs(standard_normal_cdf(x) + standard_normal_cdf(-x) - 1.0) <= 1e-14


def disjoint_support_quadruple():
    """All four sums hit their null expectation exactly (both are zero)."""
    n = 5

    def sym(cells):
        M = np.zeros((n, n))
        for (i, j), v in cells:
            M[i, j] = M[j, i] = v
        return M

    dx = sym([((0, 1), 1.0), ((2, 3), -1.0)])
    sx = sym([((0, 2), 1.0), ((1, 4), -1.0)])
    dy = sym([((0, 3), 1.0), ((1, 2), -1.0)])
    sy = sym([((0, 4), 1.0), ((3, 4), -1.0)])
    return QuadrupleInputs(
        sx=dense_scores(sx), dx=dense_scores(dx),
        sy=dense_scores(sy), dy=dense_scores(dy),
    )


class TestGitTest:
    def test_zero_statistic_when_t_equals_mu(self):
        res = git_test(disjoint_support_quadruple())
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_analytic == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_dy_rescaling(self, rng):
        q = make_quadruple(rng, 16)
        res = git_test(q)
        assert res.moments.rank == 4
        q2 = QuadrupleInputs(
            sx=q.sx, dx=q.dx, sy=q.sy,
            dy=dense_scores(4.0 * q.dy.dense()),
        )
        res2 = git_test(q2)
        assert res2.statistic == pytest.approx(res.statistic, rel=1e-9)

    def test_pinv_matches_direct_inverse_at_full_rank(self, rng):
        q = make_quadruple(rng, 14)
        res = git_test(q)
        assert res.df == 4
        from gitest.moments import null_moments, t_stats

        m = null_moments(q)
        v = t_stats(q) - m.mu
        direct = float(v @ np.linalg.solve(m.sigma, v))
        assert res.statistic == pytest.approx(direct, rel=1e-8)

    def test_rank_deficient_matches_pseudo_inverse(self, rng):
        # identical similarity and dissimilarity scores make the four sums
        # equal, so the null covariance has rank one
        from gitest.moments import RANK_TOL, null_moments, t_stats

        q = quadruple_from_samples(rng.standard_normal((40, 6)), rng.standard_normal((40, 6)))
        same = QuadrupleInputs(sx=q.sx, dx=q.sx, sy=q.sy, dy=q.sy)
        res = git_test(same)
        m = null_moments(same)
        assert res.df == m.rank == 1
        v = t_stats(same) - m.mu
        pinv = float(v @ np.linalg.pinv(m.sigma, rcond=RANK_TOL, hermitian=True) @ v)
        assert res.statistic == pytest.approx(pinv, rel=1e-9)

    def test_degenerate_inputs_rejected(self):
        ones = dense_scores(1.0 - np.eye(5))
        q = QuadrupleInputs(sx=ones, dx=ones, sy=ones, dy=ones)
        with pytest.raises(DegenerateDataError):
            git_test(q)

    @pytest.mark.parametrize("setting", ["motivating", "s5_1"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_p_value_is_the_chi4_closed_form(self, setting, seed):
        # the reported p-value is the upper tail gammaincc(2, s / 2), which
        # for four degrees of freedom is exp(-s / 2) (1 + s / 2)
        d = generate(SettingSpec(id=setting, n=100, p=20, seed=seed))
        res = run_test(d.x, d.y)
        assert res.df == 4
        s = res.statistic
        assert res.p_analytic == pytest.approx(math.exp(-s / 2.0) * (1.0 + s / 2.0), rel=1e-12)

    def test_components_and_max_stat(self, rng):
        q = make_quadruple(rng, 12)
        res = git_test(q)
        assert [c.name for c in res.components] == ["RG1", "RG2", "RG3", "RG4"]
        for c in res.components:
            z_abs = abs(c.z)
            assert c.p == pytest.approx(2.0 * (1.0 - standard_normal_cdf(z_abs)), abs=1e-12)
        assert res.max_stat == max(abs(c.z) for c in res.components)

    def test_rank_deficient_uses_reduced_df(self, rng):
        # identical similarity and dissimilarity scores collapse the four
        # sums onto one line; the quadratic form must fall back gracefully
        from conftest import random_symmetric_scores

        M = random_symmetric_scores(rng, 12)
        q = QuadrupleInputs(sx=M, dx=M, sy=M, dy=M)
        res = git_test(q)
        assert res.df == res.moments.rank == 1
        assert res.statistic >= 0
        assert 0 <= res.p_analytic <= 1

    def test_json_schema(self, rng):
        x = rng.standard_normal((20, 4))
        y = rng.standard_normal((20, 4))
        res = run_test(x, y, method="both", n_perm=19, seed=3)
        d = res.to_json_dict()
        assert set(d) == {
            "t_obs", "mu", "sigma", "statistic", "df", "p_analytic",
            "p_permutation", "components", "max_stat", "n", "k", "lambda", "scheme",
        }
        assert len(d["t_obs"]) == 4 and len(d["sigma"]) == 4
        assert d["k"] == 4 and d["lambda"] == 0.3 and d["scheme"] == "robust_rank"
        assert d["components"][0]["name"] == "RG1"


class TestPermutationTest:
    def test_add_one_lower_bound(self, rng):
        q = make_quadruple(rng, 10)
        p = permutation_test(q, n_perm=37, seed=5)
        assert p >= 1.0 / 38.0
        assert p <= 1.0

    def test_single_permutation_values(self, rng):
        q = make_quadruple(rng, 10)
        for seed in range(6):
            assert permutation_test(q, n_perm=1, seed=seed) in (0.5, 1.0)

    def test_zero_permutations_rejected(self, rng):
        with pytest.raises(ValueError):
            permutation_test(make_quadruple(rng, 10), n_perm=0, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, rng, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            permutation_test(make_quadruple(rng, 10), n_perm=19, seed=1, threads=threads)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_perm": 10.5}, "n_perm must be an integer, got 10.5"),
        ({"n_perm": True}, "n_perm must be an integer, got True"),
        ({"threads": 1.5}, "threads must be an integer, got 1.5"),
        ({"threads": True}, "threads must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
    ], ids=["float-permutations", "bool-permutations", "float-threads", "bool-threads",
            "float-seed", "negative-seed"])
    def test_bad_counts_rejected(self, rng, kwargs, message):
        with pytest.raises(ValueError, match=message):
            permutation_test(make_quadruple(rng, 10), **{"n_perm": 19, "seed": 1, **kwargs})

    def test_numpy_integer_counts_accepted(self, rng):
        x = rng.standard_normal((20, 3))
        y = x + rng.standard_normal((20, 3))
        want = run_test(x, y, method="both", n_perm=19, seed=3, threads=2)
        got = run_test(x, y, method="both", n_perm=np.int64(19), seed=np.int64(3),
                       threads=np.int32(2))
        assert got.p_permutation == want.p_permutation

    def test_every_split_gives_the_same_p_value(self, rng, pools):
        # one loop for every thread count: a pool of min(threads, n_perm)
        # workers, uneven ranges and more threads than permutations included
        q = make_quadruple(rng, 12)
        grid = [(n_perm, threads) for n_perm in (1, 5, 19) for threads in (1, 2, 3, 7)]
        p = {(n_perm, threads): permutation_test(q, n_perm=n_perm, seed=4, threads=threads)
             for n_perm, threads in grid}
        assert all(p[n_perm, threads] == p[n_perm, 1] for n_perm, threads in grid)
        assert pools == [min(n_perm, threads) for n_perm, threads in grid]

    def test_no_more_workers_than_permutations(self, rng, pools):
        permutation_test(make_quadruple(rng, 10), n_perm=3, seed=0, threads=64)
        assert pools == [3]

    def test_strong_dependence_hits_floor(self, rng):
        x = rng.standard_normal((50, 20))
        q = quadruple_from_samples(x, x.copy())
        for seed in range(20):
            p = permutation_test(q, n_perm=500, seed=seed)
            assert p == pytest.approx(1.0 / 501.0)

    def test_deterministic_and_thread_count_independent(self, rng):
        q = make_quadruple(rng, 20)
        p1 = permutation_test(q, n_perm=200, seed=11, threads=1)
        p2 = permutation_test(q, n_perm=200, seed=11, threads=4)
        p3 = permutation_test(q, n_perm=200, seed=11, threads=1)
        assert p1 == p2 == p3

    def test_agrees_with_analytic_under_null(self, rng):
        for trial in range(5):
            x = rng.standard_normal((100, 10))
            y = rng.standard_normal((100, 10))
            q = quadruple_from_samples(x, y)
            res = git_test(q)
            p_perm = permutation_test(q, n_perm=1000, seed=trial)
            assert abs(res.p_analytic - p_perm) <= 3.0 / math.sqrt(1000)


class TestRelabelingInvariance:
    def test_joint_row_permutation(self, rng):
        x = rng.standard_normal((30, 6))
        y = rng.standard_normal((30, 6))
        res = run_test(x, y)
        perm = rng.permutation(30)
        res2 = run_test(x[perm], y[perm])
        assert res2.statistic == pytest.approx(res.statistic, rel=1e-10)
        assert res2.p_analytic == pytest.approx(res.p_analytic, rel=1e-10)
        for c1, c2 in zip(res.components, res2.components):
            assert c2.z == pytest.approx(c1.z, rel=1e-10, abs=1e-12)


class TestRunTest:
    def test_overflowing_covariance_is_degenerate(self):
        # distance weights of data scaled by 1e80 overflow the null
        # covariance, which eigh cannot decompose
        d = generate(SettingSpec(id="motivating", n=60, p=5, seed=1))
        cfg = ScoreConfig(scheme="distance_weight", graph_family="knn")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateDataError, match="null covariance is not finite"):
            run_test(d.x * 1e80, d.y * 1e80, cfg)

    def test_method_selects_p_values(self, rng):
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 3))
        analytic = run_test(x, y, method="analytic")
        assert analytic.p_analytic is not None and analytic.p_permutation is None
        perm = run_test(x, y, method="permutation", n_perm=19, seed=1)
        assert perm.p_analytic is None and perm.p_permutation is not None
        both = run_test(x, y, method="both", n_perm=19, seed=1)
        assert both.p_analytic == analytic.p_analytic
        assert both.p_permutation == perm.p_permutation

    def test_null_moments_computed_once(self, rng, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return null_moments(q)
        monkeypatch.setattr(inference, "null_moments", counted)
        run_test(rng.standard_normal((30, 3)), rng.standard_normal((30, 3)),
                 method="both", n_perm=5)
        assert len(calls) == 1

    @given(n=st.integers(4, 40), p=st.integers(1, 6),
           value=st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_constant_sample_rejected(self, n, p, value):
        # every neighbor graph of a constant sample is decided by index order
        # alone, so no p-value computed from it means anything
        y = np.random.default_rng(n).standard_normal((n, p))
        x = np.full((n, p), value)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DegenerateDataError, match="all pairwise distances are zero"):
                run_test(a, b)

    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "permutation", "n_perm": 0}, "n_perm must be positive"),
        ({"method": "both", "n_perm": -1}, "n_perm must be positive"),
        ({"method": "analytic", "threads": 0}, "threads must be at least 1, got 0"),
        ({"method": "permutation", "threads": 0}, "threads must be at least 1, got 0"),
        ({"method": "both", "threads": 0}, "threads must be at least 1, got 0"),
        ({"method": "bogus"}, "unknown method 'bogus'"),
        ({"method": "both", "n_perm": 10.5}, "n_perm must be an integer, got 10.5"),
        ({"method": "permutation", "n_perm": True}, "n_perm must be an integer, got True"),
        ({"method": "both", "threads": 1.5}, "threads must be an integer, got 1.5"),
        ({"method": "both", "threads": True}, "threads must be an integer, got True"),
        ({"method": "both", "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"method": "analytic", "seed": -1}, "seed must be nonnegative, got -1"),
    ], ids=["zero-permutations", "negative-permutations", "zero-threads-analytic",
            "zero-threads-permutation", "zero-threads-both", "unknown-method",
            "float-permutations", "bool-permutations", "float-threads", "bool-threads",
            "float-seed", "negative-seed"])
    def test_bad_arguments_refused_before_scoring(self, rng, monkeypatch, kwargs, message):
        calls = []
        monkeypatch.setattr(inference, "build_scores", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=message):
            run_test(rng.standard_normal((20, 3)), rng.standard_normal((20, 3)), **kwargs)
        assert calls == []

    def test_too_few_rows_refused_by_the_scores(self, rng):
        with pytest.raises(StructuralError, match="at least 4 observations"):
            run_test(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))

    def test_misaligned_samples_rejected(self, rng):
        with pytest.raises(Exception, match="paired samples must align"):
            run_test(rng.standard_normal((10, 2)), rng.standard_normal((11, 2)))

    def test_memory_peak_holds_no_dense_score_matrix(self):
        # the scores live on graph edges, so the peak is the graph phase's
        # distance matrix and row blocks (3.6 x 8n^2 bytes with numpy 2.4);
        # dense score matrices and their symmetric copies peaked at 7.1 x 8n^2
        n = 400
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, 50))
        y = np.log(np.abs(x)) + rng.standard_normal((n, 50))
        run_test(x[:40], y[:40])  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_test(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * n * n
