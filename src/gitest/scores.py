"""Score-matrix constructions on neighbor graphs.

Five weighting schemes over three graph family pairs (plain neighbor graphs,
spanning-tree layers, robust neighbor graphs).  The headline configuration is
the default ScoreConfig: symmetrized within-neighborhood ranks on the robust
k-NN graph (similarity side) and robust k-farthest-point graph (dissimilarity
side), k = floor(sqrt(n)), hub penalty 0.3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, StructuralError
from .graphs import (
    Digraph,
    FARTHEST,
    NEAREST,
    UndirectedGraph,
    _check_direction,
    _check_lam,
    _competition_ranks,
    check_distance_matrix,
    kmst,
    neighbor_rank_rows,
    pairwise_distances,
    robust_graph,
)
from .matrixcore import ScoreMatrix, symmetrize

#: graph name -> builder (D, k, lam) -> edge-disjoint layers whose union is the
#: graph.  The builders look the constructors up in this module at call time,
#: so a wrapper set on ``scores.robust_graph`` or ``scores.kmst`` sees every call
GRAPHS = {
    "knn": lambda D, k, lam: neighbor_layers(D, k, NEAREST),
    "kfp": lambda D, k, lam: neighbor_layers(D, k, FARTHEST),
    "kmst": lambda D, k, lam: kmst(D, k, NEAREST),
    "kmaxst": lambda D, k, lam: kmst(D, k, FARTHEST),
    "robust_knn": lambda D, k, lam: [robust_graph(D, k, lam, NEAREST)],
    "robust_kfp": lambda D, k, lam: [robust_graph(D, k, lam, FARTHEST)],
}
FAMILIES = tuple(GRAPHS)

#: scheme name -> writer (layers, D, direction) -> the unsymmetrized scores of
#: one graph; the NEAREST graph of a pair is its similarity side.  Like
#: GRAPHS, the writers are looked up in this module at call time
WRITERS = {
    "adjacency": lambda layers, D, direction: adjacency_scores(union_graph(layers)),
    "distance_weight": lambda layers, D, direction: distance_weight_scores(
        union_graph(layers), D, direction),
    "kernel_weight": lambda layers, D, direction: kernel_scores(union_graph(layers), D, direction),
    "graph_rank": lambda layers, D, direction: graph_rank_scores(layers),
    "robust_rank": lambda layers, D, direction: robust_rank_scores(
        union_graph(layers), D, direction),
}
SCHEMES = tuple(WRITERS)

# the (similarity graph, dissimilarity graph) pairs; either name selects its pair
_PAIRS = (("knn", "kfp"), ("kmst", "kmaxst"), ("robust_knn", "robust_kfp"))


def _pair(family: str) -> tuple[str, str]:
    return next(p for p in _PAIRS if family in p)


def _is_count(v) -> bool:
    """Whether ``v`` is an integer, numpy's included; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class ScoreConfig:
    """How to turn a sample into similarity and dissimilarity scores.

    k may be an explicit neighbor count or "auto" for floor(sqrt(n)).
    ``lam`` is the hub penalty of the robust graphs.  The kernel scheme's
    squared bandwidth on each graph is the median squared length of its edges.
    """

    scheme: str = "robust_rank"
    graph_family: str = "robust_knn"
    k: int | str = "auto"
    lam: float = 0.3

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.graph_family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.graph_family!r}")
        pair = _pair(self.graph_family)
        if self.scheme == "robust_rank" and pair[0] != "robust_knn":
            raise ValueError("robust_rank scores require the robust_knn/robust_kfp family")
        if self.scheme == "graph_rank" and pair[0] not in ("knn", "kmst"):
            raise ValueError("graph_rank scores require the knn/kfp or kmst/kmaxst family")
        if self.k != "auto":
            if not _is_count(self.k) or self.k < 1:
                raise ValueError(f"k must be 'auto' or a positive integer, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        _check_lam(self.lam)

    def resolve_k(self, n: int) -> int:
        k = int(math.isqrt(n)) if self.k == "auto" else self.k
        if not 1 <= k <= n - 1:
            raise ValueError(f"k={k} out of range [1, {n - 1}]")
        return k


def _directed_cells(G) -> tuple[np.ndarray, np.ndarray]:
    """Cells a graph writes, as (rows, cols) index arrays: out-edges for
    digraphs in row order; for undirected graphs each edge (i, j) followed
    by its mirror (j, i)."""
    if isinstance(G, Digraph):
        return np.repeat(np.arange(G.n), G.k), G.out_neighbors.ravel()
    if isinstance(G, UndirectedGraph):
        return G.edges.ravel(), G.edges[:, ::-1].ravel()
    raise TypeError(f"unsupported graph type {type(G).__name__}")


def adjacency_scores(G) -> ScoreMatrix:
    """0/1 matrix marking graph edges."""
    rows, cols = _directed_cells(G)
    return ScoreMatrix(G.n, rows, cols, np.ones(len(rows)))


def distance_weight_scores(G, D, direction: str) -> ScoreMatrix:
    """Reciprocal distances on a nearest graph's edges (similarities), raw
    distances on a farthest graph's edges (dissimilarities)."""
    _check_direction(direction)
    rows, cols = _directed_cells(G)
    d = D[rows, cols]
    if direction == NEAREST:
        zero = d == 0.0
        if zero.any():
            t = int(np.argmax(zero))
            raise DegenerateDataError(
                f"zero distance between observations {rows[t]} and {cols[t]} on a similarity edge"
            )
        d = 1.0 / d
    return ScoreMatrix(G.n, rows, cols, d)


def kernel_scores(G, D, direction: str) -> ScoreMatrix:
    """Gaussian kernel weights: decaying on a nearest graph's edges, growing
    on a farthest graph's.  The squared bandwidth is the median squared edge
    length of ``G``; a zero median, or a weight too large for a float,
    raises DegenerateDataError."""
    _check_direction(direction)
    sign = -1.0 if direction == NEAREST else 1.0
    rows, cols = _directed_cells(G)
    sq = D[rows, cols] ** 2
    bandwidth = float(np.median(sq))
    if bandwidth == 0.0:
        raise DegenerateDataError(
            f"kernel bandwidth is zero: over half the {direction} graph's edges "
            "join coincident observations"
        )
    exponent = sign * sq / (2.0 * bandwidth)
    with np.errstate(over="ignore"):
        weights = np.exp(exponent)
    if not np.isfinite(weights).all():
        raise DegenerateDataError(
            f"kernel weights overflow on the {direction} graph: the largest exponent is "
            f"{exponent.max():.3g}, above the float limit {math.log(np.finfo(float).max):.6g}; "
            "the data are too heavy-tailed for kernel_weight"
        )
    return ScoreMatrix(G.n, rows, cols, weights)


def neighbor_layers(D, k: int, direction: str = NEAREST) -> list[Digraph]:
    """Layer l connects each node to its l-th nearest (or farthest) peer."""
    D = check_distance_matrix(D)
    n = D.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range [1, {n - 1}]")
    order, _ranks = neighbor_rank_rows(D, direction, k)
    return [Digraph(n, 1, order[:, l : l + 1]) for l in range(k)]


def graph_rank_scores(layers) -> ScoreMatrix:
    """Rank weights from edge-disjoint graph layers.

    With k layers, an edge first appearing in layer l is contained in the
    cumulative unions l..k and scores k - l + 1; heavier weight goes to
    earlier (more similar) layers.  Overlapping layers are rejected.
    """
    layers = list(layers)
    if not layers:
        raise StructuralError("at least one layer required")
    k = len(layers)
    n = layers[0].n
    if any(layer.n != n for layer in layers):
        raise StructuralError("layers disagree on node count")
    cells = [_directed_cells(layer) for layer in layers]
    rows, cols = (np.concatenate(side) for side in zip(*cells))
    values = np.repeat(np.arange(k, 0, -1.0), [len(r) for r, _ in cells])
    return ScoreMatrix(n, rows, cols, values)


def robust_rank_scores(G: Digraph, D, direction: str = NEAREST) -> ScoreMatrix:
    """Within-neighborhood ranks on a robust graph's edges.

    For the nearest direction the closest out-neighbor of a node scores k and
    the farthest scores 1; reversed for the farthest direction.  Ties share
    the larger rank.  Nearest ranks are similarities, farthest ranks
    dissimilarities.
    """
    _check_direction(direction)
    sign = 1.0 if direction == NEAREST else -1.0
    rows, cols = _directed_cells(G)
    # an edge scores the number of the node's edge keys at least its own,
    # which is k + 1 - its competition rank
    ranks = _competition_ranks(sign * D[rows, cols].reshape(G.n, G.k))
    return ScoreMatrix(G.n, rows, cols, G.k + 1 - ranks.ravel())


def union_graph(layers):
    """One graph holding the edges of all ``layers``, all of one type."""
    if len(layers) == 1:
        return layers[0]
    n = layers[0].n
    if isinstance(layers[0], Digraph):
        return Digraph(n, sum(g.k for g in layers), np.hstack([g.out_neighbors for g in layers]))
    return UndirectedGraph(n, np.vstack([g.edges for g in layers]))


def sample_distances(Z) -> np.ndarray:
    """Pairwise distances of a sample's rows.  Raises DegenerateDataError
    when all observations coincide, because every neighbor graph of such a
    sample is decided by index order alone."""
    D = pairwise_distances(Z)
    if not D.any():
        raise DegenerateDataError("all pairwise distances are zero: the sample is constant")
    return D


def build_scores(Z, cfg: ScoreConfig = ScoreConfig()) -> tuple[ScoreMatrix, ScoreMatrix]:
    """Full pipeline: distances, graph pair, weights, symmetrization.

    Returns the (similarity, dissimilarity) score matrices for one sample;
    a constant sample is refused as in ``sample_distances``.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 4:
        raise StructuralError("need a 2-D sample with at least 4 observations")
    D = sample_distances(Z)
    k = cfg.resolve_k(Z.shape[0])
    sim_name, dis_name = _pair(cfg.graph_family)
    sim_layers = GRAPHS[sim_name](D, k, cfg.lam)
    dis_layers = GRAPHS[dis_name](D, k, cfg.lam)
    write = WRITERS[cfg.scheme]
    sim, dis = write(sim_layers, D, NEAREST), write(dis_layers, D, FARTHEST)
    # the scores no longer need D, and symmetrize's sort buffers can reuse its memory
    del D
    return symmetrize(sim), symmetrize(dis)
