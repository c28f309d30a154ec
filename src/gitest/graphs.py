"""Distance matrices and neighbor-graph constructions.

Builds the directed k-nearest / k-farthest neighbor graphs, edge-disjoint
spanning-tree layers (minimal or maximal), and the hub-penalized robust
variants of the neighbor graphs.  Everything is deterministic: ties are
always broken toward the smaller index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy.spatial.distance import cdist

from .errors import StructuralError

NEAREST = "nearest"
FARTHEST = "farthest"

# rows per block of the row-blocked set-up: a block's temporaries are
# (128, n), so D is the only n x n array the graph phase holds
_BLOCK = 128

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Digraph:
    """Directed graph where every node has exactly ``k`` out-neighbors.

    ``out_neighbors`` is an (n, k) integer array; each row is sorted
    ascending and holds distinct indices differing from the row index.
    """

    n: int
    k: int
    out_neighbors: np.ndarray

    def __post_init__(self):
        nb = np.asarray(self.out_neighbors, dtype=np.intp)
        if nb.shape != (self.n, self.k):
            raise StructuralError(f"out_neighbors shape {nb.shape} != ({self.n}, {self.k})")
        if not 1 <= self.k <= self.n - 1:
            raise StructuralError(f"k={self.k} out of range for n={self.n}")
        nb = np.sort(nb, axis=1)
        bad = (nb[:, 1:] == nb[:, :-1]).any(axis=1) | (nb == np.arange(self.n)[:, None]).any(axis=1)
        if bad.any():
            raise StructuralError(f"node {int(np.argmax(bad))} has an invalid neighbor set")
        if nb.min() < 0 or nb.max() >= self.n:
            raise StructuralError("neighbor index out of range")
        nb.setflags(write=False)
        object.__setattr__(self, "out_neighbors", nb)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.out_neighbors.ravel(), minlength=self.n)


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph.

    ``edges`` is a read-only (m, 2) intp array of (i, j) pairs with i < j, in
    ascending order; the pairs may be given in any order and orientation.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.intp)
        if e.size and e.shape != (len(e), 2):
            raise StructuralError(f"edges shape {e.shape} is not (m, 2)")
        e = np.sort(e.reshape(-1, 2), axis=1)
        loop = e[:, 0] == e[:, 1]
        if loop.any():
            raise StructuralError(f"self-loop at node {e[np.argmax(loop), 0]}")
        if ((e < 0) | (e >= self.n)).any():
            raise StructuralError("edge index out of range")
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
        dup = (e[1:] == e[:-1]).all(axis=1)
        if dup.any():
            raise StructuralError(f"duplicate edge {tuple(e[np.argmax(dup)].tolist())}")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)


def pairwise_distances(Z) -> np.ndarray:
    """Symmetric Euclidean distance matrix of the rows of ``Z`` (n x p)."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise StructuralError(f"data must be 2-D (observations x features), got {Z.ndim}-D")
    if Z.shape[0] < 2:
        raise StructuralError("need at least 2 observations")
    if not np.all(np.isfinite(Z)):
        raise StructuralError("data contains non-finite values")
    # each block computes the distances from its rows to every later row,
    # the ~n^2/2 that pdist computes, and writes them to both triangles
    n = Z.shape[0]
    D = np.empty((n, n))
    for s in range(0, n, _BLOCK):
        block = cdist(Z[s:s + _BLOCK], Z[s:])
        D[s:s + _BLOCK, s:] = block
        D[s:, s:s + _BLOCK] = block.T
    return D


def check_distance_matrix(D) -> np.ndarray:
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise StructuralError("distance matrix must be square")
    n = D.shape[0]
    # two passes over 128-row blocks, so the check holds no n x n temporary.
    # Every block is checked for finite nonnegative entries before any for
    # symmetry, so each input meets the first test it fails on the whole
    # matrix.  A block's min is nan if the block holds a nan
    for s in range(0, n, _BLOCK):
        block = D[s:s + _BLOCK]
        if not (block.min() >= 0.0 and block.max() < np.inf):
            raise StructuralError("distances must be finite and nonnegative")
    if np.any(np.diagonal(D) != 0):
        raise StructuralError("distance matrix must be symmetric with a zero diagonal")
    # each block's rows against its columns, from its own diagonal on
    for s in range(0, n, _BLOCK):
        if not np.array_equal(D[s:s + _BLOCK, s:], D[s:, s:s + _BLOCK].T):
            raise StructuralError("distance matrix must be symmetric with a zero diagonal")
    return D


def _check_direction(direction: str) -> None:
    if direction not in (NEAREST, FARTHEST):
        raise ValueError(f"unknown direction {direction!r}")


def _neighbor_keys(rows: np.ndarray, direction: str, start: int) -> np.ndarray:
    """Sort keys of the distance rows ``start``, ``start + 1``, ...: distances,
    negated for the farthest direction; each node's own cell is inf, so it
    sorts last."""
    _check_direction(direction)
    key = rows.copy() if direction == NEAREST else -rows
    r = np.arange(len(key))
    key[r, start + r] = np.inf
    return key


def _rank_table(key: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first ``width`` columns in (key, index) order, with their
    competition ranks (1 + the number of keys in the row strictly smaller).

    Returns ``(order, ranks)``, both (rows, width): intp column indices and
    float64 ranks.  A partition picks each row's ``width`` smallest keys and
    an unstable sort orders them, which is already the (key, index) order
    wherever the row's table keys are distinct and none equals a key left
    out.  A row with ties instead takes every key below its ``width``-th
    smallest and the keys equal to it in index order, then sorts them
    stably.  Every key strictly smaller than a table entry is in the table
    too, so the rank of an entry is 1 + the position where its run of equal
    keys starts.
    """
    order = np.argpartition(key, width - 1, axis=1)[:, :width]
    run = np.take_along_axis(key, order, axis=1)
    srt = np.argsort(run, axis=1)
    order = np.take_along_axis(order, srt, axis=1)
    run = np.take_along_axis(run, srt, axis=1)
    starts = run[:, 1:] != run[:, :-1]
    cut = run[:, -1:]  # each row's width-th smallest key
    tied = ~starts.all(axis=1) | (np.count_nonzero(key <= cut, axis=1) > width)
    if tied.any():
        rows = np.flatnonzero(tied)
        sub, cut = key[rows], cut[rows]
        chosen = sub < cut
        at_cut = sub == cut
        need = width - np.count_nonzero(chosen, axis=1, keepdims=True)
        chosen |= at_cut & (np.cumsum(at_cut, axis=1, dtype=np.min_scalar_type(key.shape[1])) <= need)
        cand = np.nonzero(chosen)[1].reshape(len(rows), width)  # index order
        sub = np.take_along_axis(sub, cand, axis=1)
        srt = np.argsort(sub, axis=1, kind="stable")
        order[rows] = np.take_along_axis(cand, srt, axis=1)
        run[rows] = np.take_along_axis(sub, srt, axis=1)
        starts[rows] = run[rows, 1:] != run[rows, :-1]
    run[:, 0] = 0.0
    np.multiply(starts, np.arange(1.0, width), out=run[:, 1:])
    np.maximum.accumulate(run, axis=1, out=run)
    run += 1.0
    return order, run


def _rank_rows(D: np.ndarray, direction: str, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``_rank_table`` of every row's neighbor keys, built in blocks of 128
    rows into preallocated (n, width) arrays, so the keys and the
    partition's index array are (128, n), not n x n."""
    n = len(D)
    order = np.empty((n, width), dtype=np.intp)
    ranks = np.empty((n, width))
    for s in range(0, n, _BLOCK):
        block = slice(s, s + _BLOCK)
        order[block], ranks[block] = _rank_table(_neighbor_keys(D[block], direction, s), width)
    return order, ranks


def _competition_ranks(key: np.ndarray) -> np.ndarray:
    """Per row, 1 + the number of entries strictly smaller, as float64,
    in ``key``'s own column order."""
    order, ranks = _rank_table(key, key.shape[1])
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=1)
    return out


def knn_graph(D, k: int, direction: str = NEAREST) -> Digraph:
    """Connect each node to its k nearest (or farthest) peers.

    Ties are broken toward the smaller index: the out-neighbors are the first
    k of the row's (key, index) order, a partition of the row followed by a
    sort of its first k keys.
    """
    D = check_distance_matrix(D)
    n = D.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range [1, {n - 1}]")
    return Digraph(n, k, _rank_rows(D, direction, k)[0])


def _root(parent: list[int], a: int) -> int:
    """Root of ``a`` in a union-find forest, halving its path on the way."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def kmst(D, k: int, direction: str = NEAREST) -> list[UndirectedGraph]:
    """k edge-disjoint spanning trees, greedily minimal (``NEAREST``) or
    maximal (``FARTHEST``).

    Layer m is the Kruskal spanning tree over all edges unused by layers
    1..m-1, edges taken in (weight, i, j) order (-weight for ``FARTHEST``).
    One pass over that order builds them all: each edge goes to the first
    layer whose forest it does not close a cycle in, so layer m sees exactly
    the edges that layers 1..m-1 rejected, in order.  A layer only joins
    nodes that the layer before it had joined, so the forests nest: the
    layers that already join an edge's endpoints are a prefix of the layers
    that do not span yet.  An edge the last layer joins is therefore
    rejected by every layer, and any other edge goes to the first layer
    that does not join it, found by bisection.  The layers span in order,
    and a spanning layer, which rejects every edge, is skipped.  Raises if
    some layer cannot span, reporting how many layers are complete.
    """
    D = check_distance_matrix(D)
    n = D.shape[0]
    _check_direction(direction)
    if not 1 <= k <= n // 2:
        raise ValueError(f"k={k} out of range [1, {n // 2}] for n={n}")
    # (i, j) in lexicographic order: a stable sort by weight keeps it among ties
    iu, ju = np.triu_indices(n, 1)
    perm = np.argsort(D[iu, ju] if direction == NEAREST else -D[iu, ju], kind="stable")
    parents = [list(range(n)) for _layer in range(k)]
    last = parents[-1]
    trees = [[] for _layer in range(k)]
    done = 0  # layers 1..done span
    # chunks of 2^16 edges: only one chunk's edges are alive as Python ints
    for chunk in np.split(perm, range(1 << 16, len(perm), 1 << 16)):
        for i, j in zip(iu[chunk].tolist(), ju[chunk].tolist()):
            if _root(last, i) == _root(last, j):
                continue
            lo, hi = done, k - 1  # the first layer in lo..hi that does not join i, j
            while lo < hi:
                mid = (lo + hi) // 2
                parent = parents[mid]
                if _root(parent, i) == _root(parent, j):
                    lo = mid + 1
                else:
                    hi = mid
            parent = parents[lo]
            parent[_root(parent, i)] = _root(parent, j)
            trees[lo].append((i, j))
            if len(trees[lo]) == n - 1:
                done += 1
                if done == k:
                    return [UndirectedGraph(n, tree) for tree in trees]
    raise StructuralError(
        f"greedy layering found only {done} complete spanning layers, "
        f"{k} requested; use k <= {done}"
    )


def neighbor_rank_rows(D: np.ndarray, direction: str, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each node's first ``width`` candidate neighbors in (rank, index) order.

    The rank of peer x for node i is 1 + the number of peers strictly closer
    to i than x (strictly farther, for the farthest direction), so tied peers
    share a rank.  Returns ``(order, ranks)``, (n, width) arrays of intp peer
    indices and their float64 ranks.  The node itself sorts after every peer,
    with rank n, so it appears only in the last column of a full-width table.
    """
    return _rank_rows(D, direction, width)


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam < np.inf:  # also false for nan
        raise ValueError("lam must be finite and nonnegative")


def robust_objective(D, G: Digraph, lam: float, direction: str = NEAREST) -> float:
    """Total neighbor rank plus ``lam`` times the sum of squared in-degrees.

    Penalizing total degree instead would add a constant, because every
    out-degree is k, and would not change the minimizers.
    """
    D = check_distance_matrix(D)
    _check_lam(lam)
    rank_sum = 0.0  # the ranks are integers: the blocks sum them exactly in any order
    for s in range(0, G.n, _BLOCK):
        ranks = _competition_ranks(_neighbor_keys(D[s:s + _BLOCK], direction, s))
        rank_sum += float(np.take_along_axis(ranks, G.out_neighbors[s:s + _BLOCK], axis=1).sum())
    deg = G.in_degrees().astype(np.float64)
    return rank_sum + lam * float((deg ** 2).sum())


def robust_graph(D, k: int, lam: float, direction: str = NEAREST,
                 max_sweeps: int = 20) -> Digraph:
    """Hub-penalized neighbor graph via coordinate descent over nodes.

    Starting from the plain k-NN (or k-FP) graph, each node re-selects its
    out-neighbor set to minimize its exact marginal cost,
    rank(x) + lam * (2 * indeg_excl(x) + 1), where indeg_excl is the
    candidate's in-degree from the other nodes.  The k cheapest candidates
    win, ties going to the smaller rank, then to the smaller index, so tie
    resolution stays label-invariant.  A node changes its set only on strict
    improvement, so the objective decreases monotonically.  The descent
    stops once every node but the last to move has been visited since that
    move without moving (the mover would pick its new set again), or after
    ``max_sweeps`` sweeps; a descent that the cap cuts short logs a warning
    on the ``gitest`` logger.  With lam = 0 no node moves, so the initial
    graph comes back unchanged.  A lam for which k * (n + lam * (2n - 1)),
    the bound on a sum of k costs, overflows raises ``ValueError``.

    A node prices only a prefix of its candidates in (rank, index) order.
    Every candidate past the prefix costs at least rank + lam, the cost of an
    in-degree of zero (floating-point + and * are monotone, so the bound holds
    after rounding too), so once the first rank past the prefix plus lam
    exceeds the k-th best cost inside it, the prefix holds the whole
    selection; otherwise the prefix doubles, up to all n - 1 candidates.
    Each node keeps its prefix across sweeps: views of the first m entries
    of its table rows (candidates, ranks, membership) and the bound, rank m
    plus lam, as a Python float, rebuilt only when m doubles.

    The candidates come from a table of each node's first min(8k + 1, n) in
    (rank, index) order (``neighbor_rank_rows`` at that width); the first
    prefix that would read past it widens the table to full rows, once, and
    rebuilds every node's views at that node's own m.  A node's current set
    is held as positions in its table row, in the order it was chosen, with
    a 0/1 membership row over those positions, so a visit prices its
    candidates' in-degrees excluding itself without touching the shared
    in-degrees unless the set changes.

    A node whose selection differs from its set moves when the selection's
    total cost is below its set's by more than a relative 1e-9.  When the
    gap between the k-th and (k + 1)-th cheapest costs is wide enough that
    this test must pass whatever the rounding of the totals, the move skips
    both totals; ties and near-ties at that edge go through the tolerance
    test.  A move updates the in-degrees of its pool once, from the change
    in membership.

    Nodes are visited in ascending order of their nearest-neighbor distance
    (ties by index), a label-invariant order: relabeling the observations
    relabels the result without changing which local optimum is found.
    """
    _check_lam(lam)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be positive")
    init = knn_graph(D, k, direction)  # validates D
    D = np.asarray(D, dtype=np.float64)
    n = D.shape[0]
    # every cost is at most C = n + lam * (2n - 1), a rank below n plus the
    # largest penalty, so a total of k costs is finite while k * C is
    kC = k * (n + lam * (2.0 * n - 1.0))
    if not np.isfinite(kC):
        raise ValueError(f"lam={lam:g} is too large: a sum of k={k} costs could overflow")
    # label-invariant visit order: sort by the smallest distances to peers.
    # one column ties exactly for mutually-nearest pairs, so compare the
    # first three lexicographically; lexsort is stable, so index only breaks
    # measure-zero ties
    cols = min(3, n - 1)
    profile = np.empty((n, cols))
    for s in range(0, n, _BLOCK):
        key = _neighbor_keys(D[s:s + _BLOCK], NEAREST, s)
        key.partition(cols - 1, axis=1)
        profile[s:s + _BLOCK] = np.sort(key[:, :cols], axis=1)
    visit = np.lexsort(tuple(profile.T[::-1])).tolist()
    width = min(8 * k + 1, n)
    order, ranks = neighbor_rank_rows(D, direction, width)
    # the k-NN start is the first k table columns; held in the start graph's
    # row order (ascending index), which fixes the order its cost is summed in
    pos = list(np.argsort(order[:, :k], axis=1))
    member = np.zeros((n, width), dtype=np.intp)
    member[:, :k] = 1
    indeg = init.in_degrees().astype(np.intp)
    del init
    pen = lam * (2.0 * np.arange(n) + 1.0)  # marginal penalty, by indeg_excl

    # every cost lies in [1, C]: a rank is at least 1 and below n, and a
    # penalty at most pen[n - 1] (+ and * round monotonically).  A move is
    # certain without its two totals once the gap between the k-th and
    # (k + 1)-th cheapest costs exceeds margin.  Proof: the set and the
    # selection differ in d >= 1 candidates each, the set's costing at least
    # the (k + 1)-th cheapest and the selection's at most the k-th, so the
    # exact sums of the two totals' costs differ by at least the gap.  While
    # k * eps <= 1e-10, each computed total errs by at most
    # gamma_k * k * C <= 1e-10 * kC and the computed gap by a relative eps,
    # so the tolerance test passes: 2e-10 * kC + 1e-9 * (1 + kC + 1e-10 * kC),
    # plus a few roundings in the test itself, stays below 2e-9 * (1 + kC).
    # For larger k, margin is inf and every move takes the test
    margin = 2e-9 * (1.0 + kC) if k * np.finfo(float).eps <= 1e-10 else np.inf

    def prefix(i, m):
        """Node i's first m candidates, their ranks and membership, and the
        bound on every later candidate's cost."""
        return m, order[i, :m], ranks[i, :m], member[i, :m], float(ranks[i, m]) + lam

    # every node's first prefix, as prefix(i, m0) builds it, in one pass
    m0 = min(2 * k, n - 1)
    prefixes = list(zip(repeat(m0, n), order[:, :m0], ranks[:, :m0], member[:, :m0],
                        (ranks[:, m0] + lam).tolist()))
    # nodes in a row known to keep their set; once it reaches n, no visit
    # can move a node again
    settled = 0
    for i in chain.from_iterable(repeat(visit, max_sweeps)):
        m, pool, r, mem, bound = prefixes[i]
        while True:
            cost = r + pen[indeg[pool] - mem]
            # stable: equal costs keep the pool's (rank, index) order
            srt = cost.argsort(kind="stable")
            sel = srt[:k]
            edge = float(cost[srt[k - 1]])  # the k-th cheapest cost
            if bound > edge or m == n - 1:
                break
            m = min(2 * m, n - 1)
            if m >= width:  # the bound needs rank m: widen to full rows
                order, ranks = _rank_rows(D, direction, n)
                member = np.hstack([member, np.zeros((n, n - width), dtype=np.intp)])
                width = n
                prefixes = [prefix(j, p[0]) for j, p in enumerate(prefixes)]
            m, pool, r, mem, bound = prefixes[i] = prefix(i, m)
        # a node choosing the same set again keeps it: both totals would sum
        # the same k positive costs, in two orders, so they differ by at most
        # 2(k - 1) roundings of the total, far inside the 1e-9 tolerance
        if 0 in mem[sel].tolist():
            cur = pos[i]
            moves = m > k and float(cost[srt[k]]) - edge > margin
            if not moves:  # a tie or near-tie at the edge: the tolerance test decides
                old_total = float(np.add.reduce(cost[cur]))
                moves = float(np.add.reduce(cost[sel])) < old_total - 1e-9 * (1.0 + abs(old_total))
            if moves:
                # a pool's candidates are distinct, so one fancy update moves
                # every in-degree the membership change touches
                old = mem.copy()
                mem[cur] = 0
                mem[sel] = 1
                indeg[pool] += mem - old
                pos[i] = sel
                # a move keeps every in-degree the mover prices, so on its
                # next visit it would pick the same set again and keep it
                settled = 0
        settled += 1
        if settled == n:
            break
    else:
        _log.warning(
            "robust %s graph stopped at max_sweeps=%d before converging (n=%d, k=%d, lam=%g)",
            direction, max_sweeps, n, k, lam,
        )
    return Digraph(n, k, np.take_along_axis(order, np.array(pos), axis=1))


def dump_edges(G, D) -> str:
    """Edge list as ``i<TAB>j<TAB>weight`` lines, 0-based, sorted by (i, j),
    each weight read from ``D``.

    Directed graphs emit one line per out-edge; undirected graphs one line
    per pair with i < j.
    """
    if isinstance(G, Digraph):
        rows, cols = np.repeat(np.arange(G.n), G.k), G.out_neighbors.ravel()
    elif isinstance(G, UndirectedGraph):
        rows, cols = G.edges.T
    else:
        raise TypeError(f"cannot dump edges of {type(G).__name__}")
    weights = np.asarray(D)[rows, cols]
    return "".join(f"{i}\t{j}\t{w:.17g}\n"
                   for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist()))
