"""The benchmark under perfbench/ times the library by wrapping module
attributes listed in ``perfbench/layers.py:LAYER_CALLS`` and calls some of
them by keyword.  A rename, a removal or a changed signature would only
surface when the traced benchmark runs; these tests make it fail the ordinary
suite instead."""

import importlib
import pathlib
import sys

import numpy as np
import pytest

from gitest import graphs, inference, moments, scores, simulate

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def layers():
    return _perfbench_module("layers")


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


def test_every_layer_call_resolves_to_a_callable(layers):
    assert layers.LAYER_CALLS
    for module, attr, name in layers.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def _count_calls(monkeypatch, module, attrs) -> dict:
    """Wrap ``module.<attr>`` for each attr with a call counter."""
    calls = dict.fromkeys(attrs, 0)
    for attr in calls:
        def counted(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("direction", ["nearest", "farthest"])
def test_robust_graph_calls_its_builders_through_the_module(direction, monkeypatch):
    # the traced benchmark requires the graphs.knn_graph and
    # graphs.neighbor_rank_rows spans inside every robust_graph call
    calls = _count_calls(monkeypatch, graphs, ["knn_graph", "neighbor_rank_rows"])
    D = graphs.pairwise_distances(np.random.default_rng(0).standard_normal((20, 3)))
    graphs.robust_graph(D, 4, 0.3, direction)
    assert calls == {"knn_graph": 1, "neighbor_rank_rows": 1}


def test_kmst_scores_call_their_builders_through_the_module(monkeypatch):
    # the traced monte_carlo run requires the graphs.kmst and
    # scores.graph_rank_scores spans of its kmst configuration
    calls = _count_calls(monkeypatch, scores, ["kmst", "graph_rank_scores"])
    x = np.random.default_rng(0).standard_normal((20, 3))
    scores.build_scores(x, scores.ScoreConfig(scheme="graph_rank", graph_family="kmst"))
    assert calls == {"kmst": 2, "graph_rank_scores": 2}


def test_null_moments_calls_cross_summarize_through_the_module(monkeypatch):
    # the traced benchmark requires the matrixcore.cross_summarize span inside
    # null_moments: three pairs of each sample's two matrices
    calls = _count_calls(monkeypatch, moments, ["cross_summarize"])
    q = inference.quadruple_from_samples(*np.random.default_rng(0).standard_normal((2, 20, 3)))
    moments.null_moments(q)
    assert calls == {"cross_summarize": 6}


def test_git_test_calls_its_moments_through_the_module(monkeypatch):
    # the traced benchmark requires the moments.null_moments and
    # moments.t_stats spans, which it records on the inference module
    calls = _count_calls(monkeypatch, inference, ["null_moments", "t_stats"])
    q = inference.quadruple_from_samples(*np.random.default_rng(0).standard_normal((2, 20, 3)))
    inference.git_test(q)
    assert calls == {"null_moments": 1, "t_stats": 1}


def test_calls_the_benchmark_makes_by_keyword():
    # perfbench binds robust_graph's arguments by name and replays it with
    # another max_sweeps, calls permutation_test with keywords, and reads the
    # score arrays through ScoreMatrix.values
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    G = graphs.robust_graph(D=graphs.pairwise_distances(x), k=2, lam=0.3,
                            direction="farthest", max_sweeps=3)
    assert G.out_neighbors.shape == (8, 2)
    q = inference.quadruple_from_samples(x, y)
    assert 0 < inference.permutation_test(q, n_perm=9, seed=1, threads=1) <= 1
    assert all(isinstance(m.values, np.ndarray) for m in (q.sx, q.dx, q.sy, q.dy))


def test_estimate_power_takes_the_call_the_benchmark_makes():
    # perfbench's monte_carlo workload passes the setting and the config by
    # position, reps and level by keyword
    spec = simulate.SettingSpec("s5_1", 12, 3, seed=1)
    est = simulate.estimate_power(spec, scores.ScoreConfig(), reps=2, level=0.05)
    assert (est.replications, est.level) == (2, 0.05)


@pytest.mark.parametrize("seed", range(2, 12))
def test_monte_carlo_checks_hold_at_seeds_without_references(seed, workloads):
    # the benchmark runs seeds that references.json does not cover and checks
    # only the invariants there: replication 0 of each monte_carlo run must
    # build, and its p-values and df must pass those checks
    for sid, cfg in workloads.MC_RUNS:
        spec = simulate.SettingSpec(sid, workloads.MC_N, workloads.MC_P, seed=seed)
        _, data = next(simulate._replications(spec, 1))
        res = inference.git_test(inference.quadruple_from_samples(data.x, data.y, cfg), cfg)
        assert workloads._result_invariants(res, f"{sid} seed {seed}") == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2, 5))
def test_monte_carlo_checks_hold_over_every_replication(seed, workloads):
    # the benchmark's timed run checks every replication of its first round,
    # and the probe on the first sample, at whatever seed it is given
    wl = workloads.WORKLOADS["monte_carlo"]
    inp = wl.make(seed)
    out = wl.op(inp)
    assert len(out[1]) == workloads.MC_REPS * len(workloads.MC_RUNS)  # one result per replication
    assert workloads.output_invariants(wl, out) == []
    assert workloads.probe_invariants(wl, inp, seed) == []
