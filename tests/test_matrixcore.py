import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitest.errors import StructuralError
from gitest.matrixcore import ScoreMatrix, center, cross_summarize, symmetrize
from gitest.moments import QuadrupleInputs, diagnostics

from conftest import make_quadruple, random_symmetric_scores


def mat(entries):
    return ScoreMatrix(np.asarray(entries, dtype=float))


ALL_ONES_3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
HAND_3 = [[0, 2, 1], [2, 0, 0], [1, 0, 0]]  # row sums (3, 2, 1), total 6


class TestScoreMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(StructuralError):
            mat([[1, 0], [0, 0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(StructuralError):
            mat([[0, 1, 2], [1, 0, 3]])

    def test_values_frozen(self):
        m = mat(ALL_ONES_3)
        with pytest.raises(ValueError):
            m.values[0, 1] = 5.0


class TestCrossSummarize:
    def test_constant_pair(self):
        m = mat(ALL_ONES_3)
        c = cross_summarize(m, m)
        assert c.c2 == 6
        assert c.c3 == 12

    def test_zero_annihilates(self):
        c = cross_summarize(mat(ALL_ONES_3), mat(np.zeros((3, 3))))
        assert c.c2 == c.c3 == 0

    def test_signed_pattern(self):
        # node 3 is isolated: diagnostics reports the null covariance, which needs n >= 4
        m = mat([[0, 1, -1, 0], [1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
        c = cross_summarize(m, m)
        assert c.c2 == 4
        assert c.c3 == 2  # row sums (0, 1, -1, 0)
        # zero grand sum: centering leaves m as it is
        rep = diagnostics(QuadrupleInputs(sx=m, dx=m, sy=m, dy=m))
        assert rep.c2_plus["A"]["11"] == 4  # same-matrix product is its own absolute version
        assert rep.c3_plus["A"]["11"] == (2 * 2 + 1 + 1)  # abs row sums (2, 1, 1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            cross_summarize(mat(ALL_ONES_3), mat(np.zeros((4, 4))))

    def test_symmetric_in_arguments(self, rng):
        a = random_symmetric_scores(rng, 9)
        b = random_symmetric_scores(rng, 9)
        ab, ba = cross_summarize(a, b), cross_summarize(b, a)
        assert ab.c2 == ba.c2 and ab.c3 == ba.c3

    def test_abs_bounds(self, rng):
        rep = diagnostics(make_quadruple(rng, 11))
        for side in ("A", "B"):
            for key, c2 in rep.c2[side].items():
                assert abs(c2) <= rep.c2_plus[side][key] + 1e-12
                assert abs(rep.c3[side][key]) <= rep.c3_plus[side][key] + 1e-12

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12))
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz(self, seed, n):
        r = np.random.default_rng(seed)
        a = random_symmetric_scores(r, n)
        b = random_symmetric_scores(r, n)
        cab = cross_summarize(a, b).c2
        caa = cross_summarize(a, a).c2
        cbb = cross_summarize(b, b).c2
        assert cab**2 <= caa * cbb * (1 + 1e-9) + 1e-12


class TestCenter:
    def test_constant_centers_to_zero(self):
        c = center(mat(ALL_ONES_3))
        assert np.array_equal(c.values, np.zeros((3, 3)))

    def test_idempotent(self, rng):
        m = random_symmetric_scores(rng, 8)
        once = center(m)
        twice = center(once)
        assert np.allclose(once.values, twice.values, rtol=1e-12, atol=1e-12)

    def test_hand_example(self):
        c = center(mat(HAND_3))
        expected = np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]], dtype=float)
        assert np.array_equal(c.values, expected)

    def test_total_becomes_zero(self, rng):
        m = random_symmetric_scores(rng, 13)
        total = m.values.sum()
        assert abs(center(m).values.sum()) <= 1e-9 * max(1.0, abs(total))

    def test_diagonal_stays_zero(self, rng):
        m = random_symmetric_scores(rng, 7)
        assert np.all(np.diagonal(center(m).values) == 0)


class TestSymmetrize:
    def test_fixed_point_on_symmetric(self, rng):
        m = random_symmetric_scores(rng, 6)
        assert np.array_equal(symmetrize(m).values, m.values)

    def test_averages(self):
        s = symmetrize(mat([[0.0, 4.0], [0.0, 0.0]]))
        assert s.values[0, 1] == s.values[1, 0] == 2.0

    def test_idempotent(self):
        m = mat([[0.0, 4.0], [1.0, 0.0]])
        assert np.array_equal(symmetrize(symmetrize(m)).values, symmetrize(m).values)
