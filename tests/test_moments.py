import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitest.errors import StructuralError
from gitest.inference import quadruple_from_samples
from gitest.matrixcore import cross_summarize
from gitest.moments import (
    _X_SIDE,
    _Y_SIDE,
    QuadrupleInputs,
    _cov_from_summaries,
    diagnostics,
    null_moments,
    t_stats,
)
from gitest.scores import ScoreConfig

from conftest import (
    brute_force_moments,
    center,
    dense_scores,
    make_quadruple,
    random_symmetric_scores,
)


def ones_matrix(n):
    return dense_scores(1.0 - np.eye(n))


def quadruple_from(mats):
    sx, dx, sy, dy = mats
    return QuadrupleInputs(sx=sx, dx=dx, sy=sy, dy=dy)


class TestTStats:
    def test_all_ones(self):
        q = quadruple_from([ones_matrix(3) for _ in range(4)])
        assert np.array_equal(t_stats(q), [6, 6, 6, 6])

    def test_zero_matrix_zeroes_components(self):
        z = dense_scores(np.zeros((3, 3)))
        q = quadruple_from([ones_matrix(3), z, ones_matrix(3), ones_matrix(3)])
        # dx = 0 kills T1 (dx*dy) and T2 (dx*sy)
        assert np.array_equal(t_stats(q), [0, 0, 6, 6])

    def test_single_pair(self):
        dx = np.zeros((3, 3)); dx[0, 1] = dx[1, 0] = 2.0
        dy = np.zeros((3, 3)); dy[0, 1] = dy[1, 0] = 3.0
        q = quadruple_from([
            ones_matrix(3), dense_scores(dx),
            ones_matrix(3), dense_scores(dy),
        ])
        assert t_stats(q)[0] == 12.0

    def test_requires_symmetry(self):
        asym = dense_scores([[0.0, 1.0], [0.0, 0.0]])
        sym = ones_matrix(2)
        with pytest.raises(StructuralError, match="symmetr"):
            quadruple_from([asym, sym, sym, sym])


class TestExpectedT:
    """The null mean of (T1..T4), as ``null_moments`` reports it."""

    def test_all_ones(self):
        q = quadruple_from([ones_matrix(4) for _ in range(4)])
        assert np.array_equal(null_moments(q).mu, [12.0, 12.0, 12.0, 12.0])

    def test_centered_input_gives_zero(self, rng):
        A = [center(random_symmetric_scores(rng, 7)) for _ in range(2)]
        B = [random_symmetric_scores(rng, 7) for _ in range(2)]
        q = quadruple_from([A[0], A[1], B[0], B[1]])
        assert np.all(np.abs(null_moments(q).mu) < 1e-9)

    def test_matches_enumeration_mean(self, rng):
        q = make_quadruple(rng, 4)
        bf = brute_force_moments(q)
        assert np.allclose(null_moments(q).mu, bf.mu, rtol=0.0, atol=1e-10)


class TestCovT:
    """The null covariance of (T1..T4), as ``null_moments`` reports it."""

    def test_constant_matrices_have_zero_variance(self):
        q = quadruple_from([ones_matrix(4) for _ in range(4)])
        assert np.allclose(null_moments(q).sigma, 0.0, atol=1e-12)

    def test_variance_nonnegative(self, rng):
        for _ in range(20):
            q = make_quadruple(rng, 6)
            assert np.all(np.diagonal(null_moments(q).sigma) >= -1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(StructuralError):
            null_moments(quadruple_from([ones_matrix(3) for _ in range(4)]))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_oracle_agreement(self, n, rng):
        for _ in range(10):
            q = make_quadruple(rng, n)
            analytic = null_moments(q).sigma
            ref = brute_force_moments(q).sigma
            assert np.all(np.abs(analytic - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


class TestNullMoments:
    def test_identical_inputs_rank_one(self, rng):
        M = random_symmetric_scores(rng, 10)
        q = QuadrupleInputs(sx=M, dx=M, sy=M, dy=M)
        m = null_moments(q)
        assert m.rank == 1

    def test_identical_scores_rank_deficient(self, rng):
        q = quadruple_from_samples(rng.standard_normal((40, 6)), rng.standard_normal((40, 6)))
        same = QuadrupleInputs(sx=q.sx, dx=q.sx, sy=q.sy, dy=q.sy)
        assert null_moments(same).rank < 4

    def test_matrices_of_different_n_rejected(self, rng):
        small, large = random_symmetric_scores(rng, 5), random_symmetric_scores(rng, 6)
        with pytest.raises(StructuralError, match="all four score matrices must share one n"):
            QuadrupleInputs(sx=small, dx=small, sy=small, dy=large)

    def test_generic_inputs_rank_four(self, rng):
        q = make_quadruple(rng, 20)
        assert null_moments(q).rank == 4

    def test_sigma_exactly_symmetric(self, rng):
        m = null_moments(make_quadruple(rng, 8))
        assert np.array_equal(m.sigma, m.sigma.T)

    def test_relabeling_y_side_leaves_moments_unchanged(self, rng):
        q = make_quadruple(rng, 9)
        perm = rng.permutation(9)
        ix = np.ix_(perm, perm)
        q2 = QuadrupleInputs(
            sx=q.sx, dx=q.dx,
            sy=dense_scores(q.sy.dense()[ix]),
            dy=dense_scores(q.dy.dense()[ix]),
        )
        m1, m2 = null_moments(q), null_moments(q2)
        assert np.allclose(m1.mu, m2.mu, rtol=1e-12, atol=1e-12)
        assert np.allclose(m1.sigma, m2.sigma, rtol=1e-9, atol=1e-9)

    def test_scale_equivariance_in_dy(self, rng):
        q = make_quadruple(rng, 12)
        c = 3.5
        q2 = QuadrupleInputs(
            sx=q.sx, dx=q.dx, sy=q.sy,
            dy=dense_scores(c * q.dy.dense()),
        )
        m1, m2 = null_moments(q), null_moments(q2)
        scale = np.array([c, 1.0, c, 1.0])
        assert np.allclose(m2.mu, scale * m1.mu, rtol=1e-12)
        assert np.allclose(m2.sigma, np.outer(scale, scale) * m1.sigma, rtol=1e-9, atol=1e-12)


_PAIR_A = ("dx", "dx", "sx", "sx")
_PAIR_B = ("dy", "sy", "dy", "sy")


def _loop_cov_from_summaries(a1, a1p, a2, a3, b1, b1p, b2, b3, n: int) -> float:
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


def loop_null_moments(q):
    """(mu, sigma) by the scalar formula, one covariance entry at a time, with
    the pairing spelled out per statistic: the reference the vectorised
    ``null_moments`` must reproduce bit for bit."""
    n = q.n
    A = [getattr(q, _PAIR_A[s]) for s in range(4)]
    B = [getattr(q, _PAIR_B[s]) for s in range(4)]
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
            val = _loop_cov_from_summaries(
                totals_a[s], totals_a[sp], *ca,
                totals_b[s], totals_b[sp], *cb, n,
            )
            sigma[s, sp] = sigma[sp, s] = val
    return mu, sigma


def _float_scores(rng, n):
    """Symmetric zero-diagonal scores of random sign, magnitudes 1e-3..1e3."""
    M = rng.choice([-1.0, 1.0], size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
    M = np.triu(M, 1)
    return dense_scores(M + M.T)


class TestNullMomentsOracle:
    @staticmethod
    def assert_bitwise(q):
        mu, sigma = loop_null_moments(q)
        m = null_moments(q)
        assert np.array_equal(m.mu, mu)
        assert np.array_equal(m.sigma, sigma)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
    def test_float_quadruples(self, n, seed):
        rng = np.random.default_rng(seed)
        self.assert_bitwise(quadruple_from([_float_scores(rng, n) for _ in range(4)]))

    @pytest.mark.parametrize("scheme, graph", [
        ("adjacency", "knn"), ("distance_weight", "knn"), ("kernel_weight", "knn"),
        ("graph_rank", "knn"), ("graph_rank", "kmst"), ("robust_rank", "robust_knn"),
    ])
    @pytest.mark.parametrize("n", [12, 37, 79])
    def test_sample_quadruples(self, scheme, graph, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 4))
        y = x[:, :2] ** 2 + rng.standard_normal((n, 2))
        cfg = ScoreConfig(scheme=scheme, graph_family=graph, k=3)
        self.assert_bitwise(quadruple_from_samples(x, y, cfg))


class TestBruteForce:
    def test_constant_matrices(self):
        q = quadruple_from([ones_matrix(4) for _ in range(4)])
        m = brute_force_moments(q)
        assert np.allclose(m.mu, 12.0)
        assert np.allclose(m.sigma, 0.0, atol=1e-10)

    def test_includes_identity_pairing(self, rng):
        q = make_quadruple(rng, 4)
        # with a point mass at the identity the mean over permutations must
        # move toward t_stats; check the identity value appears in range
        t = t_stats(q)
        m = brute_force_moments(q)
        sd = np.sqrt(np.maximum(np.diagonal(m.sigma), 1e-30))
        # the observed statistic sits within the enumerated support
        assert np.all(np.abs(t - m.mu) <= 24 * sd + 1e-9)

    def test_cost_guard(self, rng):
        with pytest.raises(ValueError):
            brute_force_moments(make_quadruple(rng, 9))


class TestCenteringInvariance:
    def test_statistic_unchanged_by_centering(self, rng):
        from gitest.inference import git_test

        q = make_quadruple(rng, 15)
        qc = QuadrupleInputs(
            sx=center(q.sx), dx=center(q.dx), sy=center(q.sy), dy=center(q.dy)
        )
        raw, centered = git_test(q), git_test(qc)
        assert centered.statistic == pytest.approx(raw.statistic, rel=1e-8)


class TestDiagnostics:
    def test_identical_pairs_rank_one_grams(self, rng):
        M = random_symmetric_scores(rng, 10)
        q = QuadrupleInputs(sx=M, dx=M, sy=M, dy=M)
        rep = diagnostics(q)
        for g in (rep.gram2, rep.gram3):
            eigs = np.linalg.eigvalsh(g)
            assert eigs[-1] == pytest.approx(4.0, rel=1e-9)
            assert np.all(np.abs(eigs[:-1]) < 1e-9)

    def test_positive_scaling_leaves_grams_unchanged(self, rng):
        q = make_quadruple(rng, 10)
        q2 = QuadrupleInputs(
            sx=dense_scores(2.0 * q.sx.dense()),
            dx=q.dx, sy=q.sy, dy=q.dy,
        )
        r1, r2 = diagnostics(q), diagnostics(q2)
        assert np.allclose(r1.gram2, r2.gram2, rtol=1e-12)
        assert np.allclose(r1.gram3, r2.gram3, rtol=1e-12)

    def test_robust_config_inputs_have_positive_gram_eigenvalues(self, rng):
        x = rng.standard_normal((30, 5))
        y = rng.standard_normal((30, 5))
        rep = diagnostics(quadruple_from_samples(x, y))
        assert np.all(rep.gram2_eigenvalues > 0)
        assert np.all(rep.gram3_eigenvalues > 0)

    def test_degenerate_normalizers_flagged(self):
        # complete-graph adjacency centers to the zero matrix
        q = quadruple_from([ones_matrix(5) for _ in range(4)])
        rep = diagnostics(q)
        assert any("zero entrywise" in msg for msg in rep.degenerate)
        d = rep.to_json_dict()
        json.dumps(d)  # non-finite regime ratios must serialize as null
        assert all(v is None for v in d["variance_regime_ratio"].values())

    @pytest.mark.parametrize("v", [1.0, 0.1, 0.3])
    def test_constant_scores_flag_every_normalizer(self, v):
        # a constant score centers to zero up to rounding, which need not
        # be exact: at v = 0.1 a c2 diagonal is +2.8e-16, at v = 0.3 -1.8e-15
        M = dense_scores(v * (1.0 - np.eye(7)))
        rep = diagnostics(QuadrupleInputs(sx=M, dx=M, sy=M, dy=M))
        assert len(rep.degenerate) == 16  # c2 and c3, 4 statistics, 2 sides
        assert all(r is None for r in rep.to_json_dict()["variance_regime_ratio"].values())

    def test_json_fields(self, rng):
        rep = diagnostics(make_quadruple(rng, 8)).to_json_dict()
        for field in ("c0_plus", "c1_plus", "c2", "c2_plus", "c3", "c3_plus",
                      "gram2_eigenvalues", "gram3_eigenvalues", "variance_regime_ratio"):
            assert field in rep
        assert set(rep["c2"]["A"]) == {
            "11", "12", "13", "14", "22", "23", "24", "33", "34", "44"
        }
        json.dumps(rep)  # must serialize cleanly

    def test_same_matrix_c2_equals_c2_plus(self, rng):
        rep = diagnostics(make_quadruple(rng, 8))
        for side in ("A", "B"):
            for s in ("11", "22", "33", "44"):
                assert rep.c2[side][s] == pytest.approx(rep.c2_plus[side][s], rel=1e-12)

    @staticmethod
    def tables(field: dict, side: str) -> np.ndarray:
        """A report table as the symmetric 4x4 array over statistics 1..4."""
        return np.array([[field[side][f"{min(s, sp) + 1}{max(s, sp) + 1}"] for sp in range(4)]
                         for s in range(4)])

    @pytest.mark.parametrize("scheme, graph", [
        ("robust_rank", "robust_knn"), ("kernel_weight", "knn"), ("distance_weight", "kmst"),
    ])
    def test_c2_c3_are_the_tables_sigma_is_built_from(self, scheme, graph):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 5))
        y = np.log(np.abs(x)) + 0.5 * rng.standard_normal((30, 5))
        q = quadruple_from_samples(x, y, ScoreConfig(scheme=scheme, graph_family=graph, k=3))
        rep = diagnostics(q)
        # centered tables have zero grand sums, which _cov_from_summaries then subtracts exactly
        sigma = _cov_from_summaries(0.0, 0.0, self.tables(rep.c2, "A"), self.tables(rep.c3, "A"),
                                    0.0, 0.0, self.tables(rep.c2, "B"), self.tables(rep.c3, "B"),
                                    q.n)
        assert np.array_equal(sigma, null_moments(q).sigma)

    @pytest.mark.parametrize("case", ["graph_rank", "kernel_weight", "all_ones"])
    def test_matches_exact_rational_arithmetic_over_every_cell(self, case):
        if case == "all_ones":
            q = quadruple_from([ones_matrix(5) for _ in range(4)])
        else:
            rng = np.random.default_rng(11)
            x = rng.standard_normal((8, 3))
            y = x[:, :2] ** 2 + rng.standard_normal((8, 2))
            q = quadruple_from_samples(x, y, ScoreConfig(scheme=case, graph_family="knn", k=2))
        rep = diagnostics(q).to_json_dict()
        for side, pick, pair in (("A", _X_SIDE, (q.dx, q.sx)), ("B", _Y_SIDE, (q.dy, q.sy))):
            for name, exact in exact_side_summaries(pair).items():
                got = rep[name][side]
                if name in ("c0_plus", "c1_plus"):
                    pairs = [(got[str(s + 1)], exact[m]) for s, m in enumerate(pick)]
                else:
                    pairs = [(got[f"{s + 1}{sp + 1}"], exact[pick[s]][pick[sp]])
                             for s in range(4) for sp in range(s, 4)]
                scale = max(abs(w) for _, w in pairs)
                for g, w in pairs:
                    assert abs(Fraction(g) - w) <= Fraction(1e-14) * scale, (name, side, g, float(w))


def exact_side_summaries(pair) -> dict:
    """One side's centered c2 and c3 tables and c0+..c3+ of its (d, s) pair,
    summed over all n(n - 1) off-diagonal cells in exact rational arithmetic."""
    n = pair[0].n
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    centered = []
    for m in pair:
        v = {c: Fraction(x) for c, x in zip(cells, m.dense()[tuple(zip(*cells))])}
        mean = sum(v.values()) / len(cells)
        centered.append({c: x - mean for c, x in v.items()})
    absolute = [{c: abs(x) for c, x in m.items()} for m in centered]
    out = {"c0_plus": [max(m.values()) for m in absolute]}
    for suffix, mats in (("", centered), ("_plus", absolute)):
        rows = [[sum(m[i, j] for j in range(n) if j != i) for i in range(n)] for m in mats]
        out["c2" + suffix] = [[sum(mats[a][c] * mats[b][c] for c in cells) for b in (0, 1)]
                              for a in (0, 1)]
        out["c3" + suffix] = [[sum(u * w for u, w in zip(rows[a], rows[b])) for b in (0, 1)]
                              for a in (0, 1)]
        if suffix:
            out["c1_plus"] = [max(r) for r in rows]
    return out


def test_diagnostics_memory_peak_is_below_one_dense_matrix():
    # densely centered copies of the four score matrices peaked at 20 x 8n^2
    # bytes; the edge-list summaries peak at 0.38 x 8n^2 with numpy 2.4
    n = 2000
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 10))
    y = np.log(np.abs(x)) + rng.standard_normal((n, 10))
    q = quadruple_from_samples(x, y, ScoreConfig(scheme="adjacency", graph_family="knn"))
    diagnostics(q)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        diagnostics(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
