"""The benchmark's workloads: inputs made from the seed, the timed call, and
the checks every output of that call must pass.

Each workload is one process and one client calling the library back to
back (a closed loop) with ``threads=1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from gitest import inference, simulate
from gitest.rng import derive_seed
from gitest.scores import ScoreConfig
from gitest.simulate import SettingSpec

import checks
from layers import patched

DEFAULT_CFG = ScoreConfig()
KMST_CFG = ScoreConfig(scheme="graph_rank", graph_family="kmst")

LARGE_SETTING, LARGE_N, LARGE_P = "motivating", 1000, 50
LARGE_INPUTS = 4
MC_N, MC_P, MC_REPS, MC_LEVEL = 100, 100, 12, 0.05
MC_RUNS = tuple(
    (sid, DEFAULT_CFG) for sid in ("motivating", "s1_1", "s2_1", "s3_1", "s4_1", "s5_1")
) + (("s5_1", KMST_CFG),)

#: rows of the first sample used by the invariant checks and the probes
PROBE_ROWS = 200
PROBE_N_PERM = 50

#: spans every traced run of the default configuration records (see layers.py)
ROBUST_RANK_LAYERS = frozenset({
    "inference.quadruple_from_samples", "scores.build_scores", "graphs.pairwise_distances",
    "graphs.robust_graph.nearest", "graphs.robust_graph.farthest", "graphs.knn_graph",
    "graphs.neighbor_rank_rows", "scores.robust_rank_scores", "matrixcore.symmetrize",
    "moments.QuadrupleInputs", "inference.git_test", "moments.null_moments",
    "matrixcore.cross_summarize", "moments.t_stats", "simulate.generate",
})


@dataclass(frozen=True)
class Workload:
    name: str
    tests_per_op: int
    inputs: int                         # distinct inputs a timed run takes in turn
    make: Callable[[int], Any]          # seed -> inputs of one op
    op: Callable[[Any], Any]            # inputs -> output; this call is timed
    fingerprint: Callable[[Any], Any]   # output -> what must repeat exactly
    first_sample: Callable[[Any], simulate.PairedSample]
    layers: frozenset[str]              # spans a traced make + op must record


def input_seed(seed: int, j: int) -> int:
    """Seed of a run's input ``j``: the run's own seed for the first input,
    the one the traced run takes."""
    return seed if j == 0 else derive_seed(seed, j)


def _large_make(seed):
    return {"sample": simulate.generate(SettingSpec(LARGE_SETTING, LARGE_N, LARGE_P, seed=seed))}


def _large_op(inp):
    s = inp["sample"]
    return inference.run_test(s.x, s.y)


def _mc_make(seed):
    return {"specs": [(SettingSpec(sid, MC_N, MC_P, seed=seed), cfg) for sid, cfg in MC_RUNS]}


def _mc_op(inp):
    """The power estimates, and the GitResult of every replication in order."""
    reps = []

    def capture(git_test):
        def captured(*args, **kwargs):
            result = git_test(*args, **kwargs)
            reps.append(result)
            return result
        return captured

    with patched(simulate, "git_test", capture):
        estimates = [simulate.estimate_power(spec, cfg, reps=MC_REPS, level=MC_LEVEL)
                     for spec, cfg in inp["specs"]]
    return estimates, reps


def _mc_fingerprint(out):
    estimates, reps = out
    return {"power_csv": simulate.power_csv(estimates),
            "reps": [checks.result_fingerprint(r) for r in reps]}


def _mc_first_sample(inp):
    """The sample ``estimate_power`` draws for replication 0 of the first setting."""
    spec = inp["specs"][0][0]
    return simulate.generate(replace(spec, seed=derive_seed(derive_seed(spec.seed, 0), 0)))


WORKLOADS = {
    w.name: w for w in (
        # one large test as a user runs it: the robust-graph descent is over
        # 90% of the time and the permutation engine does no work.  Its sweep
        # count depends on the data, so a timed run takes LARGE_INPUTS inputs
        # in turn and the seed-to-seed spread of the work averages out
        Workload(
            name="large_test", tests_per_op=1, inputs=LARGE_INPUTS, make=_large_make,
            op=_large_op,
            fingerprint=checks.result_fingerprint, first_sample=lambda inp: inp["sample"],
            layers=ROBUST_RANK_LAYERS | {"inference.run_test"},
        ),
        # the paper's simulation study: many small tests, where fixed per-call
        # costs count, many small descents, and the only use of kmst
        Workload(
            name="monte_carlo", tests_per_op=MC_REPS * len(MC_RUNS), inputs=1, make=_mc_make,
            op=_mc_op, fingerprint=_mc_fingerprint, first_sample=_mc_first_sample,
            layers=ROBUST_RANK_LAYERS | {"simulate.estimate_power", "graphs.kmst",
                                         "scores.graph_rank_scores"},
        ),
    )
}


# -- invariant checks, used at every seed ----------------------------------------


def _result_invariants(res, label: str) -> list[str]:
    problems = []
    pvals = [res.p_analytic, res.p_permutation] + [c.p for c in res.components]
    for p in pvals:
        if p is not None and not 0.0 <= p <= 1.0:
            problems.append(f"{label}: p-value {p!r} outside [0, 1]")
    rank = int(np.linalg.matrix_rank(res.moments.sigma))
    if res.df != rank:
        problems.append(f"{label}: df {res.df} != covariance rank {rank}")
    return problems


def output_invariants(workload: Workload, output) -> list[str]:
    """Checks on one output that need no stored reference."""
    if workload.name == "monte_carlo":
        estimates, reps = output
        problems = [f"power {e.power!r} of {e.setting.id} outside [0, 1]"
                    for e in estimates if not 0.0 <= e.power <= 1.0]
        for i, res in enumerate(reps):
            problems += _result_invariants(res, f"replication {i}")
        return problems
    return _result_invariants(output, workload.name)


def probe_invariants(workload: Workload, inputs, seed: int) -> list[str]:
    """Test the first PROBE_ROWS rows of the first sample: p-values, df, and a
    short permutation p-value that must not depend on the thread count."""
    sample = workload.first_sample(inputs)
    x, y = sample.x[:PROBE_ROWS], sample.y[:PROBE_ROWS]
    q = inference.quadruple_from_samples(x, y)
    problems = _result_invariants(inference.git_test(q), "probe")
    nproc = os.cpu_count() or 1
    p1 = inference.permutation_test(q, n_perm=PROBE_N_PERM, seed=seed, threads=1)
    pn = inference.permutation_test(q, n_perm=PROBE_N_PERM, seed=seed, threads=nproc)
    if p1 != pn:
        problems.append(f"probe: permutation p-value {p1!r} at threads=1 != {pn!r} "
                        f"at threads={nproc}")
    return problems

