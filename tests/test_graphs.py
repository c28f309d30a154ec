import itertools
import logging
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from gitest import graphs
from gitest.errors import StructuralError
from gitest.graphs import (
    Digraph,
    FARTHEST,
    NEAREST,
    UndirectedGraph,
    check_distance_matrix,
    dump_edges,
    kmst,
    knn_graph,
    neighbor_rank_rows,
    pairwise_distances,
    robust_graph,
    robust_objective,
)

from conftest import exhaustive_best_objective

POINTS_LINE = np.array([[0.0], [1.0], [3.0], [7.0]])


def line_distances(points):
    return pairwise_distances(np.asarray(points, dtype=float).reshape(-1, 1))


class TestPairwiseDistances:
    def test_hand_example(self):
        D = line_distances([0, 3, 4])
        assert np.array_equal(D, [[0, 3, 4], [3, 0, 1], [4, 1, 0]])

    def test_zero_diagonal(self, rng):
        D = pairwise_distances(rng.standard_normal((10, 3)))
        assert np.all(np.diagonal(D) == 0)
        assert np.array_equal(D, D.T)

    def test_duplicate_rows(self):
        Z = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        assert pairwise_distances(Z)[0, 1] == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(StructuralError):
            pairwise_distances(np.array([[0.0], [np.nan]]))

    @pytest.mark.parametrize("kind", ["gaussian", "duplicate_rows", "integer"])
    @pytest.mark.parametrize("p", [1, 7, 1000])
    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
    def test_row_blocks_match_pdist_bit_for_bit(self, n, p, kind):
        # blocks of 128 rows: one block, one full block, a full block plus
        # one row, and three blocks
        r = np.random.default_rng(n * p)
        Z = r.standard_normal((n, p))
        if kind == "duplicate_rows":  # zero distances off the diagonal
            Z[n // 2:] = Z[: n - n // 2]
        elif kind == "integer":  # tied distances
            Z = r.integers(0, 3, size=(n, p)).astype(float)
        assert np.array_equal(pairwise_distances(Z), squareform(pdist(Z)))


class TestKnnGraph:
    def test_nearest_hand_example(self):
        G = knn_graph(line_distances([0, 1, 3, 7]), 1, NEAREST)
        assert G.out_neighbors.ravel().tolist() == [1, 0, 1, 2]

    def test_farthest_hand_example(self):
        G = knn_graph(line_distances([0, 1, 3, 7]), 1, FARTHEST)
        assert G.out_neighbors.ravel().tolist() == [3, 3, 3, 0]

    def test_complete_when_k_max(self, rng):
        D = pairwise_distances(rng.standard_normal((6, 2)))
        for direction in (NEAREST, FARTHEST):
            G = knn_graph(D, 5, direction)
            for i in range(6):
                assert sorted(G.out_neighbors[i]) == sorted(set(range(6)) - {i})

    def test_k_out_of_range(self):
        D = line_distances([0, 1, 3])
        with pytest.raises(ValueError):
            knn_graph(D, 3)
        with pytest.raises(ValueError):
            knn_graph(D, 0)

    def test_tie_break_smaller_index(self):
        # points 1 and 2 are equidistant from 0
        D = line_distances([0, 1, -1, 5])
        G = knn_graph(D, 1, NEAREST)
        assert G.out_neighbors[0, 0] == 1

    def test_farthest_equals_nearest_on_reversed_order(self, rng):
        # argmax/argmin duality: sorting by -d then index reproduces farthest
        D = pairwise_distances(rng.standard_normal((12, 4)))
        k = 4
        G = knn_graph(D, k, FARTHEST)
        for i in range(12):
            key = [(-D[i, j], j) for j in range(12) if j != i]
            expected = sorted(j for _, j in sorted(key)[:k])
            assert G.out_neighbors[i].tolist() == expected

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 15))
    @settings(max_examples=30, deadline=None)
    def test_digraph_invariants(self, seed, n):
        r = np.random.default_rng(seed)
        D = pairwise_distances(r.standard_normal((n, 3)))
        k = int(r.integers(1, n))
        G = knn_graph(D, k, NEAREST if seed % 2 else FARTHEST)
        assert G.out_neighbors.shape == (n, k)
        for i in range(n):
            row = G.out_neighbors[i]
            assert i not in row
            assert len(set(row.tolist())) == k


class TestUnknownDirection:
    """A misspelled direction is an error, never the farthest direction."""

    D = pairwise_distances(np.random.default_rng(1).standard_normal((12, 3)))

    @pytest.mark.parametrize("build", [
        lambda D: knn_graph(D, 3, "Nearest"),
        lambda D: neighbor_rank_rows(D, "nearst", 5),
        lambda D: robust_objective(D, knn_graph(D, 3), 0.3, "Nearest"),
        lambda D: robust_graph(D, 3, 0.3, "far"),
        lambda D: kmst(D, 2, "min"),
    ], ids=["knn_graph", "neighbor_rank_rows-width", "robust_objective", "robust_graph", "kmst"])
    def test_rejected(self, build):
        with pytest.raises(ValueError, match="unknown direction"):
            build(self.D)


class TestKmst:
    def test_two_nodes(self):
        layers = kmst(line_distances([0, 1]), 1)
        assert layers[0].edges.tolist() == [[0, 1]]

    def test_minimal_tree_hand_example(self):
        # exhaustive check over the 3 spanning trees on 3 nodes gives {01, 12}
        layers = kmst(line_distances([0, 1, 3]), 1, NEAREST)
        assert layers[0].edges.tolist() == [[0, 1], [1, 2]]

    def test_maximal_tree(self):
        # trees on 3 nodes total 3, 4, 5; the max picks edges 02 and 12
        layers = kmst(line_distances([0, 1, 3]), 1, FARTHEST)
        assert layers[0].edges.tolist() == [[0, 2], [1, 2]]

    def test_layers_edge_disjoint(self, rng):
        D = pairwise_distances(rng.standard_normal((11, 3)))
        layers = kmst(D, 3, NEAREST)
        seen = set()
        for layer in layers:
            assert len(layer.edges) == 10
            for e in map(tuple, layer.edges.tolist()):
                assert e not in seen
                seen.add(e)

    def test_k_range(self):
        D = line_distances([0, 1, 3, 7])
        with pytest.raises(ValueError):
            kmst(D, 3)

    def test_reports_complete_layers_when_stuck(self):
        # star around node 0 is the unique MST; the leftover triangle on
        # {1,2,3} strands node 0, so the second layer cannot span
        D = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 1.9, 1.9],
            [1.0, 1.9, 0.0, 1.9],
            [1.0, 1.9, 1.9, 0.0],
        ])
        with pytest.raises(StructuralError, match="only 1 complete"):
            kmst(D, 2, NEAREST)


class TestDigraph:
    @pytest.mark.parametrize("n, k, nb, message", [
        (4, 1, [[1], [0], [1]], r"out_neighbors shape \(3, 1\) != \(4, 1\)"),
        (4, 4, [[1, 2, 3, 0]] * 4, "k=4 out of range for n=4"),
        (4, 0, np.zeros((4, 0), dtype=int), "k=0 out of range for n=4"),
        (4, 2, [[1, 2], [0, 0], [1, 3], [0, 1]], "node 1 has an invalid neighbor set"),
        (4, 1, [[1], [0], [2], [0]], "node 2 has an invalid neighbor set"),
        (4, 1, [[1], [0], [4], [0]], "neighbor index out of range"),
        (4, 1, [[1], [-1], [0], [0]], "neighbor index out of range"),
    ], ids=["shape", "k-too-large", "k-zero", "repeated", "self", "above-n", "negative"])
    def test_rejects(self, n, k, nb, message):
        with pytest.raises(StructuralError, match=message):
            Digraph(n, k, np.asarray(nb))


class TestUndirectedGraph:
    @pytest.mark.parametrize("edges", [
        ((0, 1), (2, 2)),
        ((0, 1), (1, 4)),
        ((-1, 2),),
        ((0, 1), (2, 3), (1, 0)),
        ((0, 1, 2), (1, 2, 3)),
    ], ids=["self-loop", "out-of-range", "negative", "duplicate-reversed", "not-pairs"])
    def test_rejects(self, edges):
        with pytest.raises(StructuralError):
            UndirectedGraph(4, edges)

    def test_empty_edge_set(self):
        G = UndirectedGraph(4, ())
        assert G.edges.shape == (0, 2) and G.edges.dtype == np.intp

    def test_edges_in_ascending_order_whatever_the_input_order(self):
        edges = [(0, 1), (3, 1), (2, 0), (1, 2)]
        for perm in itertools.permutations(edges):
            for given in (perm, [(j, i) for i, j in perm]):
                G = UndirectedGraph(4, given)
                assert G.edges.dtype == np.intp
                assert G.edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3]]

    def test_edges_are_read_only(self):
        given = np.array([[1, 0], [2, 3]])
        G = UndirectedGraph(4, given)
        with pytest.raises(ValueError):
            G.edges[0, 0] = 3
        given[0, 0] = 2  # the caller's array stays writable and unchanged in G
        assert G.edges.tolist() == [[0, 1], [2, 3]]


class TestRobustObjective:
    def test_hand_example(self):
        D = line_distances([0, 1, 3, 7])
        G = knn_graph(D, 1, NEAREST)
        assert robust_objective(D, G, 0.0) == 4.0  # every chosen neighbor has rank 1
        assert robust_objective(D, G, 0.3) == pytest.approx(4.0 + 0.3 * 6.0)  # in-degrees (1,2,1,0)

    def test_rank_rows_with_ties(self):
        D = pairwise_distances(np.array([[0.0], [1.0], [-1.0]]))
        order, ranks = neighbor_rank_rows(D, NEAREST, 2)
        assert order[0].tolist() == [1, 2]
        assert ranks[0].tolist() == [1.0, 1.0]  # tied distances share the low rank


class TestRobustGraph:
    def test_lambda_zero_is_plain_graph(self, rng):
        D = pairwise_distances(rng.standard_normal((9, 3)))
        for direction in (NEAREST, FARTHEST):
            G = robust_graph(D, 3, 0.0, direction)
            K = knn_graph(D, 3, direction)
            assert np.array_equal(G.out_neighbors, K.out_neighbors)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_near_global_optimum(self, n, lam, rng):
        for trial in range(3):
            D = pairwise_distances(rng.standard_normal((n, 2)))
            G = robust_graph(D, 1, lam, NEAREST)
            obj = robust_objective(D, G, lam, NEAREST)
            plain = robust_objective(D, knn_graph(D, 1, NEAREST), lam, NEAREST)
            best = exhaustive_best_objective(D, 1, lam, NEAREST)
            assert obj <= plain + 1e-9
            assert obj <= best * 1.1 + 1e-9

    def test_descent_improves_on_init(self, rng):
        D = pairwise_distances(rng.standard_normal((30, 5)))
        lam = 0.5
        G = robust_graph(D, 4, lam, NEAREST)
        plain = knn_graph(D, 4, NEAREST)
        assert robust_objective(D, G, lam) <= robust_objective(D, plain, lam) + 1e-9

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            robust_graph(line_distances([0, 1, 3]), 1, -0.1)

    def test_rejects_zero_sweeps(self):
        with pytest.raises(ValueError, match="max_sweeps must be positive"):
            robust_graph(line_distances([0, 1, 3]), 1, 0.3, max_sweeps=0)


def _broken_distances(defect):
    D = line_distances([0, 1, 3, 7])
    if defect == "non-square":
        return D[:, :3]
    if defect == "asymmetric":
        D[0, 1] += 0.5
    elif defect == "nonzero diagonal":
        D[0, 0] = 1.0
    else:
        D[0, 1] = D[1, 0] = {"negative": -1.0, "non-finite": np.inf}[defect]
    return D


@pytest.mark.parametrize("defect", ["non-square", "negative", "non-finite", "asymmetric",
                                    "nonzero diagonal"])
@pytest.mark.parametrize("build", [
    lambda D: knn_graph(D, 1),
    lambda D: robust_graph(D, 1, 0.0),
    lambda D: robust_graph(D, 1, 0.3),
    lambda D: kmst(D, 1),
    lambda D: robust_objective(D, knn_graph(line_distances([0, 1, 3, 7]), 1), 0.3),
], ids=["knn_graph", "robust_graph-lam0", "robust_graph-lam0.3", "kmst", "robust_objective"])
def test_builders_reject_a_broken_distance_matrix(build, defect):
    with pytest.raises(StructuralError):
        build(_broken_distances(defect))


def reference_check_distance_matrix(D):
    """The check as first written: whole-matrix tests, n x n temporaries."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise StructuralError("distance matrix must be square")
    if not np.all(np.isfinite(D)) or np.any(D < 0):
        raise StructuralError("distances must be finite and nonnegative")
    if np.any(np.diagonal(D) != 0) or not np.array_equal(D, D.T):
        raise StructuralError("distance matrix must be symmetric with a zero diagonal")
    return D


def _check_message(check, D):
    try:
        check(D)
    except StructuralError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("defects", [
    (), ("asym", 0, 1), ("asym", 250, 3), ("asym", 130, 129), ("asym", 290, 280),
    ("diag", 299, 299), ("neg", 260, 270), ("nan", 5, 299), ("inf", 299, 0), ("-inf", 140, 2),
    # an asymmetry or a nonzero diagonal in an early block, and an entry of
    # a later block the first test rejects: the first test's message wins
    ("asym", 0, 1, "neg", 290, 291), ("diag", 1, 1, "nan", 280, 7),
    ("asym", 3, 200, "inf", 299, 299),
])
def test_check_distance_matrix_blocks_keep_the_messages(defects):
    # 300 rows are three blocks of the check; each defect sits in one or two
    D = pairwise_distances(oracle_data(300, "rounded"))
    for kind, i, j in zip(defects[::3], defects[1::3], defects[2::3]):
        if kind == "asym":
            D[i, j] += 0.5
        elif kind == "diag":
            D[i, j] = 1.0
        else:
            D[i, j] = D[j, i] = {"neg": -1.0, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    want = _check_message(reference_check_distance_matrix, D)
    assert (want is None) == (defects == ())
    assert _check_message(check_distance_matrix, D) == want


def reference_neighbor_rank_rows(D, direction):
    """Competition ranks as first written: one row at a time."""
    n = D.shape[0]
    ranks = np.zeros((n, n))
    for i in range(n):
        vals = D[i] if direction == NEAREST else -D[i]
        others = np.delete(vals, i)
        others.sort()
        ranks[i] = 1 + np.searchsorted(others, vals, side="left")
        ranks[i, i] = 0.0
    return ranks


def reference_knn_graph(D, k, direction=NEAREST):
    """The k-NN graph as first written: a full stable sort of every row."""
    D = check_distance_matrix(D)
    n = D.shape[0]
    key = D.copy() if direction == NEAREST else -D
    np.fill_diagonal(key, np.inf)
    order = np.argsort(key, axis=1, kind="stable")  # stable: ties -> smaller index
    order = order[:, : n - 1]
    return Digraph(n, k, np.sort(order[:, :k], axis=1))


def reference_robust_graph(D, k, lam, direction=NEAREST, max_sweeps=20):
    """The descent as first written: every visit prices all n candidates and
    sorts them by (cost, rank, index) with a full lexsort."""
    D = check_distance_matrix(D)
    n = D.shape[0]
    init = reference_knn_graph(D, k, direction)
    if lam == 0.0:
        return init
    ranks = reference_neighbor_rank_rows(D, direction)
    neighbors = init.out_neighbors.copy()
    indeg = init.in_degrees().astype(np.int64)
    # label-invariant visit order: sort by the smallest distances to peers.
    # one column ties exactly for mutually-nearest pairs, so compare the
    # first three lexicographically; lexsort is stable, so index only breaks
    # measure-zero ties
    profile = np.sort(D + np.diag(np.full(n, np.inf)), axis=1)[:, : min(3, n - 1)]
    visit = np.lexsort(tuple(profile.T[::-1]))
    for _sweep in range(max_sweeps):
        changed = False
        for i in visit:
            cur = neighbors[i]
            indeg_excl = indeg.copy()
            indeg_excl[cur] -= 1
            cost = ranks[i] + lam * (2.0 * indeg_excl + 1.0)
            cost[i] = np.inf
            # equal costs do occur on the (rank, degree) lattice; prefer the
            # closer candidate, then the smaller index (lexsort is stable),
            # so tie resolution stays label-invariant
            pick = np.lexsort((ranks[i], cost))[:k]
            new_total = float(cost[pick].sum())
            old_total = float(cost[cur].sum())
            if new_total < old_total - 1e-9 * (1.0 + abs(old_total)):
                indeg[cur] -= 1
                indeg[pick] += 1
                neighbors[i] = pick
                changed = True
        if not changed:
            break
    return Digraph(n, k, neighbors)


def oracle_data(n, kind):
    z = np.random.default_rng(n).standard_normal((n, 4))
    if kind == "binary":
        return (z > 0).astype(float)
    if kind == "rounded":
        return np.round(z, 1)  # many tied distances
    return z


def assert_matches_reference(D, directions, lams, ks, sweeps):
    for direction, lam, k, max_sweeps in itertools.product(directions, lams, ks, sweeps):
        got = robust_graph(D, k, lam, direction, max_sweeps).out_neighbors
        want = reference_robust_graph(D, k, lam, direction, max_sweeps).out_neighbors
        assert np.array_equal(got, want), (direction, lam, k, max_sweeps)


def oracle_ks(n):
    return sorted({1, int(np.sqrt(n)), n - 1})


ORACLE_SIZES = [2, 3, 5, 12, 50, 300]


class TestRankAndKnnOracle:
    """The full-width rank table and the partition k-NN graph match the
    reference per-row loop and full stable sort exactly."""

    @pytest.mark.parametrize("kind", ["gaussian", "binary", "rounded", "all_ties"])
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_grid(self, n, kind):
        # every off-diagonal distance of the identity's rows is sqrt(2)
        D = pairwise_distances(np.eye(n) if kind == "all_ties" else oracle_data(n, kind))
        for direction in (NEAREST, FARTHEST):
            order, ranks = neighbor_rank_rows(D, direction, n)
            want_order, want_ranks = reference_rank_table(D, direction)
            assert ranks.dtype == np.float64
            assert np.array_equal(order, want_order), direction
            assert np.array_equal(ranks, want_ranks), direction
            for k in oracle_ks(n):
                got = knn_graph(D, k, direction).out_neighbors
                want = reference_knn_graph(D, k, direction).out_neighbors
                assert np.array_equal(got, want), (direction, k)


class TestRobustGraphOracle:
    """The prefix descent returns the reference descent's graph bit for bit."""

    @pytest.mark.parametrize("kind", ["gaussian", "binary", "rounded"])
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_grid(self, n, kind):
        D = pairwise_distances(oracle_data(n, kind))
        # 0.5 and 1/3 put costs on a tie lattice; 1e-9 past them, candidates
        # miss a tie by less than the descent's tolerance
        assert_matches_reference(D, (NEAREST, FARTHEST),
                                 (0.0, 0.3, 1.0, 1 / 3, 0.5, 0.5 + 1e-9, 1 / 3 + 1e-9),
                                 oracle_ks(n), (1, 20))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25),
           lam=st.builds(lambda p, q, e: p / (2 * q) + e, st.integers(1, 6), st.integers(1, 6),
                         st.sampled_from([0.0, 1e-9, -1e-9])))
    @settings(max_examples=60, deadline=None)
    def test_small_integer_data_on_the_tie_lattice(self, seed, n, lam):
        # rank + lam * (2d + 1) ties across candidates whose ranks differ by p
        # and degrees by q when lam = p / (2q); 1e-9 off it, a tie is missed
        # by less than the tolerance.  Three values per coordinate make the
        # ranks tie as well
        r = np.random.default_rng(seed)
        D = pairwise_distances(r.integers(0, 3, size=(n, 2)).astype(float))
        k = int(r.integers(1, n))
        direction = NEAREST if seed % 2 else FARTHEST
        assert_matches_reference(D, (direction,), (lam,), (k,), (1, 3, 20))

    def test_zero_gap_at_the_selection_edge(self):
        # five evenly spaced points, k=1, lam=1, farthest.  The midpoint,
        # node 2, has nodes 0 and 4 at rank 1 and starts on node 0.  In the
        # first sweep node 0 costs it 6 and nodes 4 and 1 cost 4 each: the
        # selection {4} differs from its set with a zero gap at its edge, and
        # the totals move it.  In the second sweep nodes 0 and 4 cost 4 each:
        # the selection {0} differs again with a zero gap, and equal totals
        # keep node 4
        D = line_distances([0, 1, 2, 3, 4])
        assert_matches_reference(D, (FARTHEST,), (1.0,), (1,), (20,))
        assert robust_graph(D, 1, 1.0, FARTHEST).out_neighbors.ravel().tolist() == [4, 3, 4, 1, 0]

    def test_huge_lambda(self):
        # every cost absorbs the rank, so no prefix bound ever holds and the
        # selection has to stop at the full candidate list
        D = pairwise_distances(oracle_data(12, "gaussian"))
        assert_matches_reference(D, (NEAREST, FARTHEST), (1e300,), (1, 3), (1, 20))

    def test_huge_lambda_widens_the_table(self):
        # the candidate table holds 8k + 1 = 17 of 300 columns; with every
        # cost absorbing the rank, the first prefix past it widens the table
        # to full rows
        D = pairwise_distances(oracle_data(300, "gaussian"))
        assert_matches_reference(D, (NEAREST, FARTHEST), (1e300,), (2,), (1, 20))

    @pytest.mark.parametrize("Z, k, lam", [
        (np.random.default_rng(24).integers(0, 3, size=(24, 2)).astype(float), 1, 1.5),
        (oracle_data(50, "gaussian"), 2, 2.0),
    ], ids=["integer-n24", "gaussian-n50"])
    def test_widens_after_prefixes_grew(self, Z, k, lam, monkeypatch):
        # other nodes already hold prefixes of 8k when a farthest prefix
        # outgrows the table, and each must keep its own length and its set
        # on the widened table: rebuilt at 2k, a node of the integer case
        # would read its current set past its prefix; left on the old table,
        # the gaussian case's sets would part from the widened table's
        widths = []
        rank_rows = graphs._rank_rows

        def recording(D, direction, width):
            widths.append(width)
            return rank_rows(D, direction, width)

        monkeypatch.setattr(graphs, "_rank_rows", recording)
        D = pairwise_distances(Z)
        assert_matches_reference(D, (FARTHEST,), (lam,), (k,), (20,))
        assert widths == [k, 8 * k + 1, len(Z)]  # k-NN start, table, one widening

    def test_non_finite_lambda(self):
        # an inf or nan penalty makes every cost inf or nan, so no move would
        # ever count as an improvement: it is refused instead
        D = pairwise_distances(oracle_data(12, "gaussian"))
        G = knn_graph(D, 3)
        for lam in (np.inf, np.nan):
            with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
                robust_graph(D, 3, lam)
            with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
                robust_objective(D, G, lam)

    def test_lambda_whose_cost_sums_overflow(self):
        # at n = 50, k = 3 the bound k * (n + lam * (2n - 1)) on a sum of k
        # costs overflows from lam = 1e306 on.  At 1e307 the penalties
        # themselves overflow, and a descent on inf costs cannot move a node
        # off a hub
        D = pairwise_distances(np.random.default_rng(1).standard_normal((50, 4)))
        for lam in (1e306, 1e307):
            with pytest.raises(ValueError, match="too large: a sum of k=3 costs could overflow"):
                robust_graph(D, 3, lam)
        assert robust_graph(D, 3, 1e305).in_degrees().max() == 3

    @pytest.mark.slow
    def test_n1000_gaussian(self):
        D = pairwise_distances(oracle_data(1000, "gaussian"))
        assert_matches_reference(D, (NEAREST, FARTHEST), (0.3,), (31,), (20,))


def reference_rank_table(D, direction):
    """Every node's candidates in (rank, index) order, the node itself last
    with rank n, and their ranks, from the reference per-row ranks."""
    n = D.shape[0]
    ranks = reference_neighbor_rank_rows(D, direction)
    np.fill_diagonal(ranks, n)
    order = np.argsort(ranks, axis=1, kind="stable")  # stable: ties -> smaller index
    return order, np.take_along_axis(ranks, order, axis=1)


def tie_run_crosses(D, direction, width):
    """Whether some row's width-th and (width + 1)-th candidates are tied."""
    ranks = reference_rank_table(D, direction)[1]
    return width < D.shape[0] and bool((ranks[:, width - 1] == ranks[:, width]).any())


class TestRankTable:
    """``neighbor_rank_rows`` at a width is the first ``width`` columns of
    the reference (rank, index) order, with the reference ranks."""

    @pytest.mark.parametrize("kind", ["gaussian", "binary", "rounded", "all_ties"])
    @pytest.mark.parametrize("n", [2, 3, 12, 50, 300])
    def test_grid(self, n, kind):
        D = pairwise_distances(np.eye(n) if kind == "all_ties" else oracle_data(n, kind))
        widths = sorted({1, 2, min(8 * int(np.sqrt(n)) + 1, n), n - 1, n})
        for direction in (NEAREST, FARTHEST):
            want_order, want_ranks = reference_rank_table(D, direction)
            for width in widths:
                order, ranks = neighbor_rank_rows(D, direction, width)
                assert ranks.dtype == np.float64
                assert np.array_equal(order, want_order[:, :width]), (direction, width)
                assert np.array_equal(ranks, want_ranks[:, :width]), (direction, width)

    def test_tie_run_across_the_cut(self):
        # from each end of the line, peers come in pairs at equal distance;
        # an odd width cuts through a pair
        D = line_distances([0, 1, -1, 2, -2, 3, -3, 4, -4, 10])
        for direction in (NEAREST, FARTHEST):
            want_order, want_ranks = reference_rank_table(D, direction)
            for width in (2, 3, 4, 5):
                order, ranks = neighbor_rank_rows(D, direction, width)
                assert np.array_equal(order, want_order[:, :width]), (direction, width)
                assert np.array_equal(ranks, want_ranks[:, :width]), (direction, width)
        assert tie_run_crosses(D, NEAREST, 3) and tie_run_crosses(D, FARTHEST, 3)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25))
    @settings(max_examples=60, deadline=None)
    def test_small_integer_data(self, seed, n):
        # three values per coordinate: ties everywhere, at every cut
        r = np.random.default_rng(seed)
        D = pairwise_distances(r.integers(0, 3, size=(n, 2)).astype(float))
        width = int(r.integers(1, n + 1))
        direction = NEAREST if seed % 2 else FARTHEST
        want_order, want_ranks = reference_rank_table(D, direction)
        order, ranks = neighbor_rank_rows(D, direction, width)
        assert np.array_equal(order, want_order[:, :width])
        assert np.array_equal(ranks, want_ranks[:, :width])


class TestDescentWarning:
    D = pairwise_distances(np.random.default_rng(50).standard_normal((50, 4)))

    def test_warns_when_cut_off(self, caplog):
        # the first sweep moves nodes, so one sweep cannot be the last
        with caplog.at_level(logging.WARNING, logger="gitest"):
            robust_graph(self.D, 7, 0.3, NEAREST, max_sweeps=1)
        assert len(caplog.records) == 1
        assert caplog.records[0].levelno == logging.WARNING
        assert "max_sweeps=1" in caplog.records[0].getMessage()

    def test_silent_when_converged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gitest"):
            G = robust_graph(self.D, 7, 0.3, NEAREST)
        assert caplog.records == []
        # converged: two sweeps already give the same graph
        assert np.array_equal(G.out_neighbors, robust_graph(self.D, 7, 0.3, NEAREST, 2).out_neighbors)

    def test_silent_when_the_cap_cuts_nothing_short(self, caplog):
        # the first visit of the second sweep moves a node and no later visit
        # does, so every other node has kept its set since that move
        D = pairwise_distances(np.random.default_rng(0).standard_normal((12, 4)))
        with caplog.at_level(logging.WARNING, logger="gitest"):
            G = robust_graph(D, 1, 0.3, FARTHEST, max_sweeps=2)
        assert caplog.records == []
        moved = robust_graph(D, 1, 0.3, FARTHEST, max_sweeps=1).out_neighbors
        assert not np.array_equal(G.out_neighbors, moved)
        assert np.array_equal(G.out_neighbors,
                              robust_graph(D, 1, 0.3, FARTHEST, max_sweeps=3).out_neighbors)

    def test_prints_nothing_unless_logging_is_configured(self):
        code = (
            "import numpy as np; from gitest import pairwise_distances, robust_graph; "
            "D = pairwise_distances(np.random.default_rng(50).standard_normal((50, 4))); "
            "robust_graph(D, 7, 0.3, max_sweeps=1)"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert (out.stdout, out.stderr) == ("", "")


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def reference_kmst(D, k, direction=NEAREST):
    """The spanning-tree layers as first written: a union-find Kruskal pass
    over all edges in (weight, i, j) order per layer, skipping used edges.
    Only the error message is the current wording."""
    D = check_distance_matrix(D)
    n = D.shape[0]
    iu, ju = np.triu_indices(n, 1)
    w = D[iu, ju]
    keys = w if direction == NEAREST else -w
    perm = np.lexsort((ju, iu, keys))
    edge_list = list(zip(iu[perm].tolist(), ju[perm].tolist()))
    used = set()
    layers = []
    for _layer in range(k):
        uf = _UnionFind(n)
        tree = []
        for e in edge_list:
            if e in used:
                continue
            if uf.union(*e):
                tree.append(e)
                if len(tree) == n - 1:
                    break
        if len(tree) < n - 1:
            m = len(layers)
            raise StructuralError(
                f"greedy layering found only {m} complete spanning layers, "
                f"{k} requested; use k <= {m}"
            )
        used.update(tree)
        layers.append(UndirectedGraph(n, tuple(tree)))
    return layers


class TestKmstOracle:
    """The spanning-tree layers match the reference Kruskal layers edge for
    edge, and fail with the same message where the greedy layering stops."""

    @pytest.mark.parametrize("kind", ["gaussian", "binary", "rounded"])
    @pytest.mark.parametrize("n", [4, 11, 30, 100])
    def test_grid(self, n, kind):
        D = pairwise_distances(oracle_data(n, kind))
        kmax = n // 2
        for direction in (NEAREST, FARTHEST):
            # a reference layer never depends on k, so layers 1..k of the
            # largest complete run answer every k up to its length
            try:
                ref, m, stuck = reference_kmst(D, kmax, direction), kmax, None
            except StructuralError as exc:
                m = int(re.search(r"only (\d+) complete", str(exc)).group(1))
                ref, stuck = reference_kmst(D, m, direction), str(exc)
            for k in range(1, kmax + 1):
                if k <= m:
                    got = [g.edges.tolist() for g in kmst(D, k, direction)]
                    assert got == [g.edges.tolist() for g in ref[:k]], (direction, k)
                    continue
                with pytest.raises(StructuralError, match=f"only {m} complete") as got:
                    kmst(D, k, direction)
                if k == kmax:
                    assert str(got.value) == stuck, direction

    @pytest.mark.parametrize("kind", ["gaussian", "rounded"])
    def test_n300(self, kind):
        # past the grid's n, on 50 features, where 17 maximal layers exist;
        # rounding leaves 17262 distinct weights among the 44850 edges
        z = np.random.default_rng(300).standard_normal((300, 50))
        D = pairwise_distances(np.round(z, 1) if kind == "rounded" else z)
        for direction in (NEAREST, FARTHEST):
            got = [g.edges.tolist() for g in kmst(D, 17, direction)]
            assert got == [g.edges.tolist() for g in reference_kmst(D, 17, direction)], direction


class TestKmstNesting:
    """The layers nest, so an edge joined by the last layer is rejected by
    every layer and any other edge goes to the first layer that does not
    join its endpoints, found by bisection."""

    def test_outlier_star(self):
        # the first maximal spanning tree of y is a star around one outlier;
        # it takes every edge of that node, so no second layer can span
        r = np.random.default_rng(5)
        x = r.standard_normal((60, 6))
        y = np.log(np.abs(x)) + 0.5 * r.standard_normal((60, 6))
        D = pairwise_distances(y)
        (star,) = kmst(D, 1, FARTHEST)
        assert (star.edges == 33).any(axis=1).all()
        with pytest.raises(StructuralError, match="only 1 complete"):
            kmst(D, 2, FARTHEST)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_tied_integer_data(self, seed, n):
        # three values per coordinate: many equal weights, and layerings
        # that stop before n // 2 layers
        r = np.random.default_rng(seed)
        D = pairwise_distances(r.integers(0, 3, size=(n, 2)).astype(float))
        for direction in (NEAREST, FARTHEST):
            for k in range(1, n // 2 + 1):
                try:
                    want = [g.edges.tolist() for g in reference_kmst(D, k, direction)]
                except StructuralError as exc:
                    with pytest.raises(StructuralError) as got:
                        kmst(D, k, direction)
                    assert str(got.value) == str(exc), (direction, k)
                    continue
                assert [g.edges.tolist() for g in kmst(D, k, direction)] == want, (direction, k)


def test_kmst_memory_peak():
    # one pass over the sorted edges: the (i, j) index arrays, the sort and
    # one chunk of edges as Python ints peak at 3.4 x 8n^2 bytes with numpy
    # 2.4 at n=600; an n x n weight matrix beside them crosses the bound
    n = 600
    D = pairwise_distances(np.random.default_rng(0).standard_normal((n, 50)))
    tracemalloc.start()
    try:
        kmst(D, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * n * n


@pytest.mark.parametrize("direction", [NEAREST, FARTHEST])
def test_robust_graph_memory_peak(direction):
    # the set-up holds no n x n array of its own: its 128-row blocks, a third
    # of n at n=400, and the (n, 8k + 1) candidate table peak at 2.0 x 8n^2
    # bytes with numpy 2.4
    n = 400
    D = pairwise_distances(oracle_data(n, "gaussian"))
    tracemalloc.start()
    try:
        robust_graph(D, 20, 0.3, direction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 8 * n * n


GUARD_N, GUARD_K = 2000, 44


@pytest.fixture(scope="module")
def guard_sample():
    Z = np.random.default_rng(0).standard_normal((GUARD_N, 20))
    return Z, pairwise_distances(Z)


@pytest.mark.parametrize("build,bound", [
    (lambda Z, D: pairwise_distances(Z), 1.25),
    (lambda Z, D: knn_graph(D, GUARD_K), 0.5),
    (lambda Z, D: neighbor_rank_rows(D, FARTHEST, 8 * GUARD_K + 1), 0.75),
    (lambda Z, D: robust_graph(D, GUARD_K, 0.3, max_sweeps=1), 1.0),
    (lambda Z, D: check_distance_matrix(D), 0.05),
    (lambda Z, D: robust_graph(D, GUARD_K, 1e300, max_sweeps=1), 4.2),
], ids=["pairwise_distances", "knn_graph", "neighbor_rank_rows", "robust_graph",
        "check_distance_matrix", "robust_graph_widened"])
def test_graph_set_up_builds_no_second_square_array(build, bound, guard_sample):
    # the set-up works in blocks of 128 rows, so D is its only n x n array.
    # tracemalloc peaks in units of 8n^2 bytes with numpy 2.4: 1.12 (D and
    # a block of distances), 0.18, 0.52 (the (n, 8k + 1) table), 0.77 and
    # 0.011; n x n neighbor keys or a condensed distance vector beside D, or
    # an n x n bool temporary (0.125) in the check, cross the bounds.  A hub
    # penalty of 1e300 widens the candidate table to full rows: D, the full
    # ranks, candidates and membership peak at 3.92; keeping the narrow table
    # until the full one is built, or copying the membership rows into it,
    # gives 4.46
    tracemalloc.start()
    try:
        build(*guard_sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * GUARD_N ** 2


class TestDumpEdges:
    def test_digraph_format(self):
        D = line_distances([0, 1, 3, 7])
        G = knn_graph(D, 1, NEAREST)
        text = dump_edges(G, D)
        lines = text.strip().split("\n")
        assert lines[0] == "0\t1\t1"
        assert [ln.split("\t")[:2] for ln in lines] == [["0", "1"], ["1", "0"], ["2", "1"], ["3", "2"]]

    def test_undirected_sorted(self):
        G = UndirectedGraph(4, ((2, 3), (0, 1)))
        lines = dump_edges(G, line_distances([0, 1, 3, 7])).strip().split("\n")
        assert lines == ["0\t1\t1", "2\t3\t4"]

    def test_rejects_a_non_graph(self):
        with pytest.raises(TypeError, match="cannot dump edges of list"):
            dump_edges([(0, 1)], line_distances([0, 1, 3, 7]))
