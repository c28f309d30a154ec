import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitest.errors import StructuralError
from gitest.matrixcore import ScoreMatrix, cross_summarize, symmetrize
from gitest.moments import QuadrupleInputs, diagnostics

from conftest import center, dense_scores, make_quadruple, random_symmetric_scores


mat = dense_scores


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
            m.values[0] = 5.0

    def test_keeps_sorted_cells_without_a_copy(self):
        rows, cols, values = np.array([0, 0, 2]), np.array([1, 2, 0]), np.array([1.0, 2.0, 3.0])
        m = ScoreMatrix(3, rows, cols, values)
        assert m.rows is rows and m.cols is cols and m.values is values
        assert m.keys.tolist() == [1, 2, 6]

    def test_sorts_cells_given_out_of_order(self):
        m = ScoreMatrix(3, np.array([2, 0, 1]), np.array([0, 2, 0]), np.array([3.0, 2.0, 5.0]))
        assert (m.rows.tolist(), m.cols.tolist(), m.values.tolist()) == ([0, 1, 2], [2, 0, 0],
                                                                         [2.0, 5.0, 3.0])
        assert np.array_equal(m.dense(), [[0, 0, 2], [5, 0, 0], [3, 0, 0]])

    @pytest.mark.parametrize("rows, cols, values, match", [
        ([0, 1, 0], [1, 0, 1], [1.0, 1.0, 1.0], "edge \\(0,1\\) appears in more than one layer"),
        ([0, 1], [1, 3], [1.0, 1.0], "out of range"),
        ([0, 1], [1, 0], [1.0, np.inf], "finite"),
        ([0, 1], [1, 0], [1.0], "one length"),
    ])
    def test_rejects_malformed_cells(self, rows, cols, values, match):
        with pytest.raises(StructuralError, match=match):
            ScoreMatrix(3, np.array(rows), np.array(cols), np.array(values))

    def test_at_reads_zero_off_the_stored_cells(self):
        m = mat(HAND_3)
        cells = np.arange(9)
        assert np.array_equal(m.at(cells), np.ravel(HAND_3))
        assert np.array_equal(mat(np.zeros((3, 3))).at(cells), np.zeros(9))


class TestCrossSummarize:
    def test_constant_pair(self):
        m = mat(ALL_ONES_3)
        c2, c3 = cross_summarize(m, m)
        assert c2 == 6
        assert c3 == 12

    def test_zero_annihilates(self):
        c2, c3 = cross_summarize(mat(ALL_ONES_3), mat(np.zeros((3, 3))))
        assert c2 == c3 == 0

    def test_signed_pattern(self):
        # node 3 is isolated: diagnostics reports the null covariance, which needs n >= 4
        m = mat([[0, 1, -1, 0], [1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
        c2, c3 = cross_summarize(m, m)
        assert c2 == 4
        assert c3 == 2  # row sums (0, 1, -1, 0)
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
        assert cross_summarize(a, b) == cross_summarize(b, a)

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
        cab = cross_summarize(a, b)[0]
        caa = cross_summarize(a, a)[0]
        cbb = cross_summarize(b, b)[0]
        assert cab**2 <= caa * cbb * (1 + 1e-9) + 1e-12


class TestCenter:
    def test_constant_centers_to_zero(self):
        c = center(mat(ALL_ONES_3))
        assert np.array_equal(c.dense(), np.zeros((3, 3)))

    def test_idempotent(self, rng):
        m = random_symmetric_scores(rng, 8)
        once = center(m)
        twice = center(once)
        assert np.allclose(once.dense(), twice.dense(), rtol=1e-12, atol=1e-12)

    def test_hand_example(self):
        c = center(mat(HAND_3))
        expected = np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]], dtype=float)
        assert np.array_equal(c.dense(), expected)

    def test_total_becomes_zero(self, rng):
        m = random_symmetric_scores(rng, 13)
        total = m.values.sum()
        assert abs(center(m).values.sum()) <= 1e-9 * max(1.0, abs(total))

    def test_diagonal_stays_zero(self, rng):
        m = random_symmetric_scores(rng, 7)
        assert np.all(np.diagonal(center(m).dense()) == 0)


class TestSymmetrize:
    def test_fixed_point_on_symmetric(self, rng):
        m = random_symmetric_scores(rng, 6)
        assert np.array_equal(symmetrize(m).dense(), m.dense())

    def test_averages(self):
        s = symmetrize(mat([[0.0, 4.0], [0.0, 0.0]]))
        assert s.dense()[0, 1] == s.dense()[1, 0] == 2.0

    def test_zero_matrix_stays_empty(self):
        s = symmetrize(mat(np.zeros((3, 3))))
        assert len(s.values) == 0 and s.n == 3

    def test_idempotent(self):
        m = mat([[0.0, 4.0], [1.0, 0.0]])
        assert np.array_equal(symmetrize(symmetrize(m)).dense(), symmetrize(m).dense())
