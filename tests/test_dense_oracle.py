"""The edge-list score matrices against the dense engine they replaced.

``dense_symmetrize``, ``dense_cross_summarize`` and ``dense_cross_sums`` are
verbatim copies of the n x n code that held every score matrix as a dense
array; ``Dense`` stands in for the dense ``ScoreMatrix``.  The null moments,
the statistic and the permutation engine are rebuilt on them from the
library's unchanged formulas.  Schemes whose scores are multiples of 1/2 sum
exactly in any order, so every number must agree bit for bit; the real-valued
kernel_weight and distance_weight sums may differ in their last bits only.
"""

from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from gitest import inference, moments, scores
from gitest.errors import StructuralError
from gitest.graphs import FARTHEST, NEAREST, pairwise_distances
from gitest.rng import substream

EXACT = [("robust_rank", "robust_knn"), ("adjacency", "knn"), ("adjacency", "kmst"),
         ("adjacency", "robust_knn"), ("graph_rank", "knn"), ("graph_rank", "kmst")]
REAL = [("kernel_weight", "knn"), ("kernel_weight", "kmst"), ("kernel_weight", "robust_knn"),
        ("distance_weight", "knn"), ("distance_weight", "kmst"),
        ("distance_weight", "robust_knn")]
REL = 1e-12


@dataclass(frozen=True)
class Dense:
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


CrossBundle = namedtuple("CrossBundle", "c2 c3")


def dense_symmetrize(C):
    """Replace the matrix by the average of itself and its transpose."""
    v = C.values + C.values.T
    v /= 2.0
    return Dense(v)


def dense_cross_summarize(Cs, Cs2):
    """Cross summaries of two equally sized score matrices."""
    a, b = Cs.values, Cs2.values
    row_a, row_b = a.sum(axis=1), b.sum(axis=1)
    return CrossBundle(c2=float((a * b).sum()), c3=float((row_a * row_b).sum()))


def dense_cross_sums(dx, sx, dy, sy):
    """(T1..T4) of the four score arrays, in pairing order."""
    return np.array([(a * b).sum() for a in (dx, sx) for b in (dy, sy)])


def dense_summaries(d, s):
    pair = (d, s)
    c2, c3 = np.empty((2, 2)), np.empty((2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        cb = dense_cross_summarize(pair[i], pair[j])
        c2[i, j] = c2[j, i] = cb.c2
        c3[i, j] = c3[j, i] = cb.c3
    return np.array([m.values.sum() for m in pair]), c2, c3


def dense_null_moments(dx, sx, dy, sy):
    n = dx.n
    tx, c2x, c3x = dense_summaries(dx, sx)
    ty, c2y, c3y = dense_summaries(dy, sy)
    xs, ys = moments._X_SIDE, moments._Y_SIDE
    X, Y = np.ix_(xs, xs), np.ix_(ys, ys)
    ax, ay = tx[xs], ty[ys]
    mu = ax * ay / (n * (n - 1))
    sigma = moments._cov_from_summaries(ax[:, None], ax, c2x[X], c3x[X],
                                        ay[:, None], ay, c2y[Y], c3y[Y], n)
    return moments._spectral_rank(mu, sigma)


def dense_permutation_p(dx, sx, dy, sy, m, statistic, n_perm, seed, threads):
    """The dense engine's permutation loop."""
    n = dx.shape[0]

    def exceeds(b: int) -> int:
        perm = substream(seed, b).permutation(n)
        ix = np.ix_(perm, perm)
        t = dense_cross_sums(dx, sx, dy[ix], sy[ix])
        return int(inference._quadratic_form(t, m) >= statistic)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            count = sum(pool.map(exceeds, range(n_perm)))
    else:
        count = sum(exceeds(b) for b in range(n_perm))
    return (1 + count) / (n_perm + 1)


def dense_center(C):
    """Subtract the off-diagonal mean so the grand sum becomes zero."""
    v = C.values.copy()
    n = C.n
    shift = v.sum() / (n * (n - 1))
    v -= shift
    np.fill_diagonal(v, 0.0)
    return Dense(v)


def dense_pair_tables(f):
    t2, t3 = np.empty((2, 2)), np.empty((2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        v2, v3 = f(i, j)
        t2[i, j] = t2[j, i] = v2
        t3[i, j] = t3[j, i] = v3
    return t2, t3


def dense_diagnostics(dx, sx, dy, sy) -> dict:
    """The dense ``diagnostics``, as the fields of its JSON report."""
    n = dx.n
    report = {name: {} for name in ("c0_plus", "c1_plus", "c2", "c2_plus", "c3", "c3_plus")}
    tables = {}
    for side, pick, pair in (("A", moments._X_SIDE, (dx, sx)), ("B", moments._Y_SIDE, (dy, sy))):
        pair = [dense_center(m) for m in pair]
        _, c2, c3 = dense_summaries(*pair)
        absv = [np.abs(m.values) for m in pair]
        rows = [a.sum(axis=1) for a in absv]
        c2_plus, c3_plus = dense_pair_tables(
            lambda i, j: ((absv[i] * absv[j]).sum(), (rows[i] * rows[j]).sum()))
        report["c0_plus"][side] = {str(s + 1): float(absv[m].max()) for s, m in enumerate(pick)}
        report["c1_plus"][side] = {str(s + 1): float(rows[m].max()) for s, m in enumerate(pick)}
        for name, t in (("c2", c2), ("c2_plus", c2_plus), ("c3", c3), ("c3_plus", c3_plus)):
            report[name][side] = {f"{s + 1}{sp + 1}": float(t[pick[s], pick[sp]])
                                  for s in range(4) for sp in range(s, 4)}
        grid = np.ix_(pick, pick)
        tables[side] = c2[grid], c3[grid]
    (a2, a3), (b2, b3) = tables["A"], tables["B"]
    report["gram2"] = moments._unit_diagonal(a2) * moments._unit_diagonal(b2)
    report["gram3"] = moments._unit_diagonal(a3) * moments._unit_diagonal(b3)
    report["gram2_eigenvalues"] = np.linalg.eigvalsh(report["gram2"])
    report["gram3_eigenvalues"] = np.linalg.eigvalsh(report["gram3"])
    report["variance_regime_ratio"] = {
        str(s + 1): 2.0 * a2[s, s] * b2[s, s] / n**2 / (4.0 * a3[s, s] * b3[s, s] / n**3)
        for s in range(4)}
    report["sigma_condition"] = dense_null_moments(dx, sx, dy, sy).condition_estimate
    return report


def dense_sample_scores(Z, cfg):
    """The sample's (similarity, dissimilarity) pair as dense symmetrized
    arrays, from the same graphs and unsymmetrized writer cells."""
    D = pairwise_distances(Z)
    k = cfg.resolve_k(Z.shape[0])
    sim_name, dis_name = scores._pair(cfg.graph_family)
    write = scores.WRITERS[cfg.scheme]
    out = []
    for name, direction in ((sim_name, NEAREST), (dis_name, FARTHEST)):
        raw = write(scores.GRAPHS[name](D, k, cfg.lam), D, direction)
        sym = dense_symmetrize(Dense(raw.dense()))
        assert np.array_equal(scores.symmetrize(raw).dense(), sym.values)
        out.append(sym)
    return out


def sample(seed: int, n: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    y = x[:, :2] ** 2 + rng.standard_normal((n, 2))
    return x, y


def close(a, b, exact: bool):
    """Bitwise, or to REL relative to the largest magnitude in ``b``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if exact:
        return np.array_equal(a, b)
    return bool(np.all(np.abs(a - b) <= REL * max(np.abs(b).max(), 1e-300)))


def check_against_dense(seed, n, scheme, graph, exact):
    x, y = sample(seed, n)
    cfg = scores.ScoreConfig(scheme=scheme, graph_family=graph,
                             k=2 if graph == "kmst" else "auto")
    try:
        q = inference.quadruple_from_samples(x, y, cfg)
    except StructuralError as exc:  # too few edge-disjoint maximal spanning trees
        assume("complete spanning layers" not in str(exc))
        raise
    (sx, dx), (sy, dy) = dense_sample_scores(x, cfg), dense_sample_scores(y, cfg)
    for new, old in (((q.dx, q.sx), (dx, sx)), ((q.dy, q.sy), (dy, sy))):
        for got, want in zip(moments._sample_summaries(*new), dense_summaries(*old)):
            assert close(got, want, exact), (scheme, graph)
    t_dense = dense_cross_sums(dx.values, sx.values, dy.values, sy.values)
    m_dense = dense_null_moments(dx, sx, dy, sy)
    stat_dense = inference._quadratic_form(t_dense, m_dense)
    res = inference.git_test(q)
    assert close(res.t_obs, t_dense, exact)
    assert close(res.moments.mu, m_dense.mu, exact)
    assert close(res.moments.sigma, m_dense.sigma, exact)
    assert res.df == m_dense.rank
    assert close(res.statistic, stat_dense, exact)
    assert close(res.p_analytic, gammaincc(res.df / 2.0, stat_dense / 2.0), exact)
    return q, (dx, sx, dy, sy), m_dense, stat_dense


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 40), case=st.sampled_from(EXACT))
def test_exact_schemes_match_the_dense_engine_bit_for_bit(seed, n, case):
    check_against_dense(seed, n, *case, exact=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 40), case=st.sampled_from(REAL))
def test_real_valued_schemes_match_the_dense_engine_to_1e_12(seed, n, case):
    check_against_dense(seed, n, *case, exact=False)


def field_values(x) -> list:
    return [v for y in x.values() for v in field_values(y)] if isinstance(x, dict) \
        else np.ravel(x).tolist()


@pytest.mark.parametrize("case", [EXACT[0], REAL[0], REAL[3]])
@pytest.mark.parametrize("seed", [0, 1])
def test_diagnostics_match_the_dense_engine_to_1e_12(case, seed):
    # centered scores are real-valued for every scheme, so every report
    # number agrees to REL relative to the largest number of its field
    q, dense, _, _ = check_against_dense(seed, 30, *case, exact=case in EXACT)
    got = moments.diagnostics(q).to_json_dict()
    for name, want in dense_diagnostics(*dense).items():
        assert close(field_values(got[name]), field_values(want), exact=False), name


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", [EXACT[0], EXACT[5], REAL[0], REAL[4]])
def test_permutation_p_values_match_the_dense_engine(case, threads):
    q, dense, m_dense, stat_dense = check_against_dense(5, 37, *case, exact=case in EXACT)
    arrays = [m.values for m in dense]
    for seed in (0, 1, 2):
        want = dense_permutation_p(*arrays, m_dense, stat_dense, 60, seed, threads)
        assert inference.permutation_test(q, n_perm=60, seed=seed, threads=threads) == want
