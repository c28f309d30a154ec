"""Invariances of the test statistic under transformations of the data that
carry no information about dependence.

Every valid scheme/family pair runs on one Gaussian sample x (n=60, p=6)
and y = x**2 + 0.5 * noise, with k=3 for the kmst family (its maximal layers
need not exist at the default k) and the default k elsewhere.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gitest import ScoreConfig, run_test
from gitest.errors import StructuralError
from gitest.scores import SCHEMES

REL = 1e-12


def _configs():
    for scheme in SCHEMES:
        for family in ("knn", "kmst", "robust_knn"):
            try:
                yield ScoreConfig(scheme=scheme, graph_family=family,
                                  k=3 if family == "kmst" else "auto")
            except ValueError:  # scheme and family do not combine
                pass


CONFIGS = list(_configs())


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 6))
    return x, x ** 2 + 0.5 * rng.standard_normal((60, 6))


def test_every_valid_pair_is_covered():
    assert len(CONFIGS) == 12


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.scheme}-{c.graph_family}")
def test_swapping_x_and_y(sample, cfg):
    x, y = sample
    base, swapped = run_test(x, y, cfg), run_test(y, x, cfg)
    assert swapped.df == base.df
    assert swapped.statistic == pytest.approx(base.statistic, rel=REL, abs=0)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.scheme}-{c.graph_family}")
def test_affine_map_of_x(sample, cfg):
    x, y = sample
    base, mapped = run_test(x, y, cfg), run_test(3.7 * x + 1.0, y, cfg)
    assert mapped.df == base.df
    assert mapped.statistic == pytest.approx(base.statistic, rel=REL, abs=0)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.scheme}-{c.graph_family}")
def test_relabelling_the_pairs(sample, cfg):
    # the sample is tie-free, so every graph relabels with the rows
    x, y = sample
    perm = np.random.default_rng(1).permutation(len(x))
    base, relabelled = run_test(x, y, cfg), run_test(x[perm], y[perm], cfg)
    assert relabelled.df == base.df
    assert relabelled.statistic == pytest.approx(base.statistic, rel=REL, abs=0)


#: the configurations whose scores are multiples of 1/2, so that every sum
#: the test forms is exact whatever the row order
HALF_INTEGER_CONFIGS = [
    ScoreConfig(scheme="adjacency", graph_family="knn"),
    ScoreConfig(scheme="adjacency", graph_family="kmst", k=2),
    ScoreConfig(scheme="adjacency", graph_family="robust_knn"),
    ScoreConfig(scheme="graph_rank", graph_family="knn"),
    ScoreConfig(scheme="graph_rank", graph_family="kmst", k=2),
    ScoreConfig(scheme="robust_rank", graph_family="robust_knn"),
]


@pytest.mark.parametrize("cfg", HALF_INTEGER_CONFIGS,
                         ids=lambda c: f"{c.scheme}-{c.graph_family}")
@given(n=st.integers(8, 80), p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_relabelling_tie_free_pairs_is_exact(cfg, n, p, seed):
    # on tie-free data every graph relabels with the rows, and half-integer
    # scores make every sum exact, so the result is bit-identical
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, p)), rng.standard_normal((n, p))
    perm = rng.permutation(n)
    try:
        base = run_test(x, y, cfg)
    except StructuralError:  # kmaxst may find fewer than k maximal spanning trees
        assume(False)
    relabelled = run_test(x[perm], y[perm], cfg)
    assert (relabelled.statistic, relabelled.df, relabelled.p_analytic) == \
        (base.statistic, base.df, base.p_analytic)
    assert [c.z for c in relabelled.components] == [c.z for c in base.components]
