"""Per-layer spans of the real pipeline, recorded from outside the library.

The library's functions call each other through module attributes:
``run_test`` looks up ``quadruple_from_samples`` and ``git_test`` in
``gitest.inference``, ``build_scores`` looks up ``robust_graph`` in
``gitest.scores``, and so on.  ``LayerRecorder.installed()`` replaces those
attributes, for the duration of a block, with wrappers that record a span
around each call.  The workload's own call runs unchanged under them, so the
spans time the program itself.  harness.py requires the output of a recorded
call to equal the unrecorded output bit for bit.

The descent counts come from outside as well: ``descent_counts`` reruns
``robust_graph`` with other ``max_sweeps`` values and compares results.
"""

from __future__ import annotations

import inspect
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from gitest import graphs, inference, moments, scores, simulate

#: (module, attribute the caller looks up, span name) of every recorded call;
#: robust_graph spans are named by direction, e.g. graphs.robust_graph.nearest
LAYER_CALLS = (
    (inference, "run_test", "inference.run_test"),
    (simulate, "estimate_power", "simulate.estimate_power"),
    (simulate, "generate", "simulate.generate"),
    (inference, "quadruple_from_samples", "inference.quadruple_from_samples"),
    (simulate, "quadruple_from_samples", "inference.quadruple_from_samples"),
    (inference, "git_test", "inference.git_test"),
    (simulate, "git_test", "inference.git_test"),
    (inference, "permutation_test", "inference.permutation_test"),
    (inference, "build_scores", "scores.build_scores"),
    (inference, "QuadrupleInputs", "moments.QuadrupleInputs"),
    (inference, "null_moments", "moments.null_moments"),
    (inference, "t_stats", "moments.t_stats"),
    (inference, "substream", "rng.substream"),
    (scores, "pairwise_distances", "graphs.pairwise_distances"),
    (scores, "robust_graph", "graphs.robust_graph"),
    (scores, "robust_rank_scores", "scores.robust_rank_scores"),
    (scores, "kmst", "graphs.kmst"),
    (scores, "graph_rank_scores", "scores.graph_rank_scores"),
    (scores, "symmetrize", "matrixcore.symmetrize"),
    (graphs, "knn_graph", "graphs.knn_graph"),
    (graphs, "neighbor_rank_rows", "graphs.neighbor_rank_rows"),
    (moments, "cross_summarize", "matrixcore.cross_summarize"),
)

#: calls that start one workload call; the robust graphs of the first test
#: inside each are the ones the descent counts are taken on
TOP_LEVEL = ("inference.run_test", "simulate.estimate_power")


@contextmanager
def patched(module, attr: str, wrap):
    """Replace ``module.attr`` by ``wrap(original)`` while the block runs."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


@dataclass(frozen=True)
class RobustGraph:
    """One robust graph the pipeline built, with the arguments it was built from."""

    args: dict
    graph: graphs.Digraph


class LayerRecorder:
    """Records the LAYER_CALLS as spans of ``tracer``, plus what the counts need."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.robust: list[np.ndarray] = []     # out_neighbors of every robust graph, in build order
        self.examined: list[RobustGraph] = []  # the first test's robust graphs of each workload call
        self.nnz_frac: list[float] = []        # per test, over the four score matrices
        self.first_q = None
        self._tests = 0                        # tests finished in the current workload call

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for module, attr, name in LAYER_CALLS:
                stack.enter_context(patched(module, attr, lambda fn, name=name: self._wrap(name, fn)))
            yield self

    def _wrap(self, name: str, fn):
        if name == "graphs.robust_graph":
            return self._wrap_robust_graph(name, fn)
        span = self.tracer.span

        def recorded(*args, **kwargs):
            if name in TOP_LEVEL:
                self._tests = 0
            with span(name):
                out = fn(*args, **kwargs)
            if name == "moments.QuadrupleInputs":
                self._keep_quadruple(out)
            elif name == "inference.quadruple_from_samples":
                self._tests += 1
            return out
        return recorded

    def _wrap_robust_graph(self, name: str, fn):
        signature = inspect.signature(fn)
        span = self.tracer.span

        def recorded(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with span(f"{name}.{bound.arguments['direction']}"):
                G = fn(*args, **kwargs)
            self.robust.append(G.out_neighbors)
            if self._tests == 0:
                self.examined.append(RobustGraph(dict(bound.arguments), G))
            return G
        return recorded

    def _keep_quadruple(self, q):
        mats = (q.sx, q.dx, q.sy, q.dy)
        self.nnz_frac.append(
            sum(int(np.count_nonzero(m.values)) for m in mats) / (len(mats) * q.n ** 2))
        if self.first_q is None:
            self.first_q = q


def descent_counts(g: RobustGraph) -> dict:
    """Sweep count, convergence, hubness and objective of one robust graph.

    ``converged`` says whether one sweep more than the cap the graph was built
    with changes nothing.  ``sweeps`` is the smallest ``max_sweeps`` whose
    result equals the graph, found by bisection: the descent lowers its
    objective strictly on every sweep that changes the graph, so results of
    different sweep counts before convergence differ, and a descent that has
    not converged used the whole cap.
    """
    a = g.args
    cap = a["max_sweeps"]
    target = g.graph.out_neighbors

    def same_at(max_sweeps: int) -> bool:
        G = graphs.robust_graph(**dict(a, max_sweeps=max_sweeps))
        return bool(np.array_equal(G.out_neighbors, target))

    converged = same_at(cap + 1)
    lo, hi = (1, cap) if converged else (cap, cap)
    while lo < hi:
        mid = (lo + hi) // 2
        if same_at(mid):
            hi = mid
        else:
            lo = mid + 1
    D, k, lam, direction = a["D"], a["k"], a["lam"], a["direction"]
    start = graphs.knn_graph(D, k, direction)
    return {
        "sweeps": lo,
        "converged": converged,
        "max_indeg_before": int(start.in_degrees().max()),
        "max_indeg_after": int(g.graph.in_degrees().max()),
        "objective_before": graphs.robust_objective(D, start, lam, direction),
        "objective_after": graphs.robust_objective(D, g.graph, lam, direction),
    }
