import itertools
import math
import warnings

import numpy as np
import pytest

from gitest.errors import DegenerateDataError, StructuralError
from gitest.graphs import (
    FARTHEST,
    NEAREST,
    UndirectedGraph,
    kmst,
    knn_graph,
    pairwise_distances,
    robust_graph,
)
from gitest.scores import (
    GRAPHS,
    ScoreConfig,
    adjacency_scores,
    build_scores,
    distance_weight_scores,
    graph_rank_scores,
    kernel_scores,
    neighbor_layers,
    robust_rank_scores,
    union_graph,
)

LINE = np.array([[0.0], [1.0], [3.0], [7.0]])


class TestScoreConfig:
    def test_defaults_describe_headline_method(self):
        cfg = ScoreConfig()
        assert cfg.scheme == "robust_rank"
        assert cfg.graph_family == "robust_knn"
        assert cfg.k == "auto"
        assert cfg.lam == 0.3

    def test_auto_k_is_sqrt_n(self):
        assert ScoreConfig().resolve_k(4) == 2
        assert ScoreConfig().resolve_k(100) == 10
        assert ScoreConfig().resolve_k(150) == 12

    def test_incompatible_scheme_family(self):
        with pytest.raises(ValueError):
            ScoreConfig(scheme="robust_rank", graph_family="knn")
        with pytest.raises(ValueError):
            ScoreConfig(scheme="graph_rank", graph_family="robust_kfp")

    @pytest.mark.parametrize("lam", [-0.1, np.inf, np.nan])
    def test_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            ScoreConfig(lam=lam)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ScoreConfig(k=0)
        with pytest.raises(ValueError):
            ScoreConfig(k="sqrt")

    def test_bool_k_is_refused(self):
        # a bool is an int to Python, but no neighbor count
        with pytest.raises(ValueError, match="positive integer, got True"):
            ScoreConfig(k=True)

    def test_numpy_integer_k_is_an_int(self):
        cfg = ScoreConfig(k=np.int64(5))
        assert cfg == ScoreConfig(k=5) and type(cfg.k) is int

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'ranks'"):
            ScoreConfig(scheme="ranks")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family 'mst'"):
            ScoreConfig(graph_family="mst")


class TestAdjacency:
    def test_complete_digraph(self):
        D = pairwise_distances(LINE)
        G = knn_graph(D, 3, NEAREST)
        M = adjacency_scores(G)
        assert np.array_equal(M.dense(), 1.0 - np.eye(4))

    def test_empty_graph(self):
        M = adjacency_scores(UndirectedGraph(4, ()))
        assert np.array_equal(M.dense(), np.zeros((4, 4)))

    def test_one_nn_hand_example(self):
        G = knn_graph(pairwise_distances(LINE), 1, NEAREST)
        M = adjacency_scores(G)
        expected = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 0), (2, 1), (3, 2)]:
            expected[i, j] = 1.0
        assert np.array_equal(M.dense(), expected)


class TestDistanceWeight:
    def test_reciprocal_and_raw(self):
        Z = np.array([[0.0], [2.0], [10.0], [20.0]])
        D = pairwise_distances(Z)
        G = knn_graph(D, 1, NEAREST)
        sim = distance_weight_scores(G, D, NEAREST)
        dis = distance_weight_scores(G, D, FARTHEST)
        assert sim.dense()[0, 1] == 0.5
        assert dis.dense()[0, 1] == 2.0

    def test_zero_distance_similarity_edge_rejected(self):
        Z = np.array([[1.0], [1.0], [5.0], [9.0]])
        D = pairwise_distances(Z)
        G = knn_graph(D, 1, NEAREST)
        with pytest.raises(DegenerateDataError, match="0 and 1"):
            distance_weight_scores(G, D, NEAREST)
        # the dissimilarity side tolerates duplicates
        distance_weight_scores(G, D, FARTHEST)

    def test_zero_distance_reports_the_first_pair(self, rng):
        Z = rng.standard_normal((8, 3))
        Z[5] = Z[2]
        D = pairwise_distances(Z)
        with pytest.raises(DegenerateDataError, match="observations 2 and 5 on a similarity"):
            distance_weight_scores(knn_graph(D, 1), D, NEAREST)
        # a spanning tree takes the zero-length edge (2, 5) first
        with pytest.raises(DegenerateDataError, match="observations 2 and 5 on a similarity"):
            distance_weight_scores(kmst(D, 1)[0], D, NEAREST)


class TestKernel:
    def test_closed_form_values(self):
        d = 1.5
        Z = np.array([[0.0], [d], [5 * d], [9 * d]])
        D = pairwise_distances(Z)
        G = knn_graph(D, 1, NEAREST)
        # edges 0->1, 1->0, 2->1, 3->2 have lengths d, d, 4d, 4d: the squared
        # bandwidth is the median of d^2, d^2, 16 d^2, 16 d^2, which is 8.5 d^2
        sim = kernel_scores(G, D, NEAREST)
        dis = kernel_scores(G, D, FARTHEST)
        assert sim.dense()[0, 1] == pytest.approx(math.exp(-1 / 17), rel=1e-12)
        assert dis.dense()[0, 1] == pytest.approx(math.exp(1 / 17), rel=1e-12)
        assert sim.dense()[3, 2] == pytest.approx(math.exp(-16 / 17), rel=1e-12)

    def test_zero_distance_gives_one(self):
        Z = np.array([[1.0], [1.0], [5.0], [9.0]])
        D = pairwise_distances(Z)
        G = knn_graph(D, 1, NEAREST)
        assert kernel_scores(G, D, NEAREST).dense()[0, 1] == 1.0

    def test_rejects_bad_bandwidth(self):
        # three of the five edges join coincident observations: the median
        # squared edge length, the squared bandwidth, is zero
        D = pairwise_distances(np.array([[1.0], [1.0], [1.0], [5.0], [9.0]]))
        G = knn_graph(D, 1, NEAREST)
        for direction in (NEAREST, FARTHEST):
            with pytest.raises(DegenerateDataError, match="bandwidth is zero"):
                kernel_scores(G, D, direction)

    def test_overflowing_weights_raise_without_warning(self):
        # the edge 4->3 is 197 median edge lengths long: its farthest-side
        # weight exp(197^2 / 2) overflows
        D = pairwise_distances(np.array([[0.0], [1.0], [2.0], [3.0], [200.0]]))
        G = knn_graph(D, 1, NEAREST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="kernel weights overflow"):
                kernel_scores(G, D, FARTHEST)
            assert kernel_scores(G, D, NEAREST).values.min() == 0.0  # underflow is exact

    def test_monotone_in_distance(self, rng):
        Z = rng.standard_normal((12, 3))
        D = pairwise_distances(Z)
        G = knn_graph(D, 11, NEAREST)
        sim = kernel_scores(G, D, NEAREST)
        dis = kernel_scores(G, D, FARTHEST)
        pairs = [(i, j) for i in range(12) for j in range(12) if i != j]
        for a in pairs:
            for b in pairs:
                if D[a] < D[b]:
                    assert sim.dense()[a] >= sim.dense()[b]
                    assert dis.dense()[a] <= dis.dense()[b]


class TestKernelBits:
    """Each kernel value is np.exp of the array of squared edge lengths over
    twice their median, bit for bit; the golden digests do not notice a
    change in the last bits."""

    @pytest.mark.parametrize("names", [("knn", "kfp"), ("kmst", "kmaxst")])
    def test_exact_values(self, names):
        D = pairwise_distances(np.random.default_rng(60).standard_normal((60, 5)))
        k = ScoreConfig().resolve_k(60)
        pair = [union_graph(GRAPHS[name](D, k, 0.0)) for name in names]
        for G, direction, sign in zip(pair, (NEAREST, FARTHEST), (-1.0, 1.0)):
            M = kernel_scores(G, D, direction)
            assert np.array_equal(M.keys, adjacency_scores(G).keys), direction
            sq = D[M.rows, M.cols] ** 2
            bw = float(np.median(sq))

            def kernel(bandwidth):
                return np.exp(sign * sq / (2.0 * bandwidth))

            assert np.array_equal(M.values, kernel(bw)), direction
            # the values pin the bandwidth bit for bit: one ulp either way moves some
            for off in (-np.inf, np.inf):
                assert not np.array_equal(M.values, kernel(np.nextafter(bw, off))), direction


class TestGraphRank:
    def test_first_layer_gets_k(self):
        D = pairwise_distances(LINE)
        layers = neighbor_layers(D, 3, NEAREST)
        R = graph_rank_scores(layers)
        nearest = knn_graph(D, 1, NEAREST)
        for i in range(4):
            assert R.dense()[i, nearest.out_neighbors[i, 0]] == 3

    def test_last_layer_gets_one_and_off_graph_zero(self):
        D = pairwise_distances(LINE)
        R = graph_rank_scores(neighbor_layers(D, 2, NEAREST))
        # k=2 on 4 points: one candidate per row stays off-graph with rank 0
        assert sorted(np.sort(R.dense(), axis=1)[:, -2:].ravel().tolist()) == [1, 1, 1, 1, 2, 2, 2, 2]
        assert (R.dense() == 0).sum() == 4 + 4  # diagonal + one unranked peer per row

    def test_no_layers_rejected(self):
        with pytest.raises(StructuralError, match="at least one layer required"):
            graph_rank_scores([])

    def test_layers_of_different_n_rejected(self):
        layers = [neighbor_layers(pairwise_distances(z), 1, NEAREST)[0]
                  for z in (LINE, np.vstack([LINE, [[15.0]]]))]
        with pytest.raises(StructuralError, match="layers disagree on node count"):
            graph_rank_scores(layers)

    def test_overlapping_layers_rejected(self):
        D = pairwise_distances(LINE)
        layer = neighbor_layers(D, 1, NEAREST)[0]
        with pytest.raises(StructuralError, match="more than one layer"):
            graph_rank_scores([layer, layer])

    def test_matches_sort_oracle_on_knn_family(self, rng):
        Z = rng.standard_normal((15, 4))
        D = pairwise_distances(Z)
        k = 5
        R = graph_rank_scores(neighbor_layers(D, k, NEAREST))
        for i in range(15):
            order = sorted((j for j in range(15) if j != i), key=lambda j: (D[i, j], j))
            for pos, j in enumerate(order, start=1):
                expected = k - pos + 1 if pos <= k else 0
                assert R.dense()[i, j] == expected

    def test_mst_layers_symmetric(self, rng):
        Z = rng.standard_normal((10, 3))
        R = graph_rank_scores(kmst(pairwise_distances(Z), 3, NEAREST))
        assert np.array_equal(R.dense(), R.dense().T)


class TestRobustRank:
    def test_extreme_ranks(self):
        D = pairwise_distances(LINE)
        G = knn_graph(D, 3, NEAREST)
        R = robust_rank_scores(G, D, NEAREST)
        # node 0's neighborhood is {1, 2, 3}: nearest (1) scores k, farthest (3) scores 1
        assert R.dense()[0, 1] == 3
        assert R.dense()[0, 3] == 1
        rev = robust_rank_scores(G, D, FARTHEST)
        assert rev.dense()[0, 1] == 1
        assert rev.dense()[0, 3] == 3

    def test_ties_share_top_rank(self):
        Z = np.array([[0.0], [1.0], [-1.0], [9.0]])
        D = pairwise_distances(Z)
        G = knn_graph(D, 2, NEAREST)
        R = robust_rank_scores(G, D, NEAREST)
        # both members of node 0's neighborhood sit at distance 1
        assert R.dense()[0, 1] == 2 and R.dense()[0, 2] == 2

    def test_no_ties_gives_permutation(self, rng):
        Z = rng.standard_normal((20, 6))
        D = pairwise_distances(Z)
        k = 4
        G = robust_graph(D, k, 0.3, NEAREST)
        R = robust_rank_scores(G, D, NEAREST)
        for i in range(20):
            nonzero = sorted(R.dense()[i][R.dense()[i] > 0].tolist())
            assert nonzero == list(range(1, k + 1))


def reference_robust_rank_scores(G, D, direction):
    """Robust ranks as first written: one row at a time."""
    sign = 1.0 if direction == NEAREST else -1.0
    M = np.zeros((G.n, G.n))
    for i in range(G.n):
        nb = G.out_neighbors[i]
        v = sign * D[i, nb]
        M[i, nb] = (v[:, None] <= v[None, :]).sum(axis=1)
    return M


class TestRobustRankOracle:
    @pytest.mark.parametrize("kind", ["gaussian", "binary", "rounded"])
    def test_matches_row_loop(self, kind):
        z = np.random.default_rng(7).standard_normal((60, 4))
        if kind == "binary":
            z = (z > 0).astype(float)  # nearly every edge ties with another
        elif kind == "rounded":
            z = np.round(z, 1)
        D = pairwise_distances(z)
        for direction, k in itertools.product((NEAREST, FARTHEST), (1, 7, 59)):
            G = robust_graph(D, k, 0.3, direction)
            R = robust_rank_scores(G, D, direction).dense()
            assert np.array_equal(R, reference_robust_rank_scores(G, D, direction)), (direction, k)


@pytest.mark.parametrize("write", [distance_weight_scores, kernel_scores, robust_rank_scores])
def test_writers_reject_an_unknown_direction(write):
    # a misspelled direction used to score the graph as its farthest side
    D = pairwise_distances(LINE)
    G = knn_graph(D, 1, NEAREST)
    with pytest.raises(ValueError, match="unknown direction 'Nearest'"):
        write(G, D, "Nearest")


class TestBuildScores:
    def test_auto_k_and_symmetry(self, rng):
        Z = rng.standard_normal((16, 3))
        sim, dis = build_scores(Z, ScoreConfig())
        assert np.array_equal(sim.dense(), sim.dense().T)
        assert np.array_equal(dis.dense(), dis.dense().T)
        assert sim.dense().max() <= 4  # k = floor(sqrt(16))

    def test_symmetrized_ranks_are_half_integers(self, rng):
        Z = rng.standard_normal((25, 4))
        sim, dis = build_scores(Z, ScoreConfig())
        for M in (sim.dense(), dis.dense()):
            assert np.all(np.abs(M * 2 - np.round(M * 2)) < 1e-12)
            assert M.max() <= 5

    def test_lambda_zero_matches_plain_graph_ranks(self, rng):
        Z = rng.standard_normal((12, 3))
        cfg = ScoreConfig(lam=0.0)
        sim, dis = build_scores(Z, cfg)
        D = pairwise_distances(Z)
        k = cfg.resolve_k(12)
        plain_sim = robust_rank_scores(knn_graph(D, k, NEAREST), D, NEAREST).dense()
        plain_dis = robust_rank_scores(knn_graph(D, k, FARTHEST), D, FARTHEST).dense()
        assert np.array_equal(sim.dense(), (plain_sim + plain_sim.T) / 2.0)
        assert np.array_equal(dis.dense(), (plain_dis + plain_dis.T) / 2.0)

    @pytest.mark.parametrize("scheme,family", [
        ("adjacency", "knn"),
        ("adjacency", "kmst"),
        ("distance_weight", "robust_knn"),
        ("kernel_weight", "knn"),
        ("graph_rank", "knn"),
        ("graph_rank", "kmst"),
    ])
    def test_all_schemes_produce_valid_pairs(self, scheme, family, rng):
        Z = rng.standard_normal((14, 3))
        sim, dis = build_scores(Z, ScoreConfig(scheme=scheme, graph_family=family))
        assert sim.n == dis.n == 14
        assert np.all(np.diagonal(sim.dense()) == 0)
        assert np.all(np.diagonal(dis.dense()) == 0)
        assert np.array_equal(sim.dense(), sim.dense().T)
        assert np.array_equal(dis.dense(), dis.dense().T)

    def test_rejects_tiny_samples(self, rng):
        with pytest.raises(StructuralError):
            build_scores(rng.standard_normal((3, 2)), ScoreConfig())

    def test_minimum_sample_size_works(self, rng):
        sim, dis = build_scores(rng.standard_normal((4, 2)), ScoreConfig())
        assert sim.n == dis.n == 4  # auto k resolves to 2
