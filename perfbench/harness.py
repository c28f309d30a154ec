"""The untraced and traced runs behind run.py."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from gitest import cli, inference, scores

import checks
import layers
import measure
import setup_probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 9
CSV_READS = 3
#: permutations of the permutation-engine probe
PROBE_PERMS = 100
#: layers the probe records: the permutation engine, which no workload's own
#: call reaches, and the kmst layer, which large_test's call does not reach
PROBE_LAYERS = ("inference.permutation_test", "rng.substream", "graphs.kmst",
                "scores.graph_rank_scores")


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import gitest and finish a small call."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT, env=os.environ.copy(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Gate:
    """Counts checked items and the ones that failed, keeping the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed_run(wl, args, ref, gate: Gate):
    """The untraced run: set-up samples, then the workload's call for --seconds,
    in whole rounds over the workload's inputs, so each input weighs the same."""
    setup = [measure_setup() for _ in range(SETUP_REPEATS)]
    inputs = [wl.make(workloads.input_seed(args.seed, j)) for j in range(wl.inputs)]
    setup_probe.warm_up()
    durations: list[float] = []
    first: list = [None] * wl.inputs
    start = time.perf_counter()
    while True:
        j = len(durations) % wl.inputs
        t0 = time.perf_counter()
        out = wl.op(inputs[j])
        durations.append(time.perf_counter() - t0)
        fp = wl.fingerprint(out)
        if first[j] is None:
            first[j] = fp
            problems = workloads.output_invariants(wl, out)
            if ref is not None:
                problems += checks.compare_outputs(fp, ref["outputs"][j])
            gate.check(problems)
        else:
            gate.check(checks.compare_outputs(fp, first[j], rel=0.0))
        if (len(durations) % wl.inputs == 0 and time.perf_counter() - start
                + wl.inputs * statistics.median(durations) > args.seconds):
            break
    gate.check(workloads.probe_invariants(wl, inputs[0], args.seed))
    per_test = [d / wl.tests_per_op for d in durations]
    metrics = {
        "test_s": (statistics.median(per_test), "s"),
        "reps_per_s": (statistics.median(wl.tests_per_op / d for d in durations), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "test_s": measure.timing_summary(per_test),
        "setup_s": measure.timing_summary(setup),
        "op_s": durations,
        "tests_per_op": wl.tests_per_op,
        "inputs": wl.inputs,
    }
    return metrics, detail


def csv_read_seconds(seed: int, gate: Gate) -> float:
    """Median time of cli.read_matrix_csv on the large_test input written as CSV."""
    x = workloads.WORKLOADS["large_test"].make(seed)["sample"].x
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = Path(tmp) / "x.csv"
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        times = []
        for _ in range(CSV_READS):
            t0 = time.perf_counter()
            back = cli.read_matrix_csv(str(path))
            times.append(time.perf_counter() - t0)
    gate.check([] if np.array_equal(back, x) else ["read_matrix_csv changed the data"])
    return statistics.median(times)


def perm_bytes(q) -> int:
    """Bytes one permutation of ``inference.permutation_test`` reads and writes,
    computed from the sizes of ``q``'s arrays: the gather reads dy and sy and
    writes their permuted copies; each of the four products reads its two
    operands and writes a temporary of the operands' size, which its sum reads."""
    dx, sx, dy, sy = (m.values.nbytes for m in (q.dx, q.sx, q.dy, q.sy))
    gather = 2 * (dy + sy)
    products = sum(a + b + 2 * a for a, b in ((dx, dy), (dx, sy), (sx, dy), (sx, sy)))
    return gather + products


def traced_run(wl, args, refs, gate: Gate):
    """The traced run: the workload's call on its first input untraced, the
    same call with every layer recorded, the probes, and the descent counts."""
    inputs = wl.make(args.seed)
    setup_probe.warm_up()
    t0 = time.perf_counter()
    out = wl.op(inputs)
    untraced_s = time.perf_counter() - t0
    fp = wl.fingerprint(out)
    gate.check(workloads.output_invariants(wl, out))

    tracer = measure.Tracer()
    rec = layers.LayerRecorder(tracer)
    with rec.installed():
        traced = wl.op(wl.make(args.seed))
    gate.check([f"traced run: {p}"
                for p in checks.compare_outputs(wl.fingerprint(traced), fp, rel=0.0)])
    main = measure.layer_totals(tracer.spans)
    gate.check([f"layer {name} was not recorded" for name in sorted(wl.layers - set(main))])

    robust = {"count": len(rec.robust), "sha256": checks.graph_digest(rec.robust)}
    if args.write_references:
        # the timed run checks the first output of every input it takes
        outputs = [fp] + [wl.fingerprint(wl.op(wl.make(workloads.input_seed(args.seed, j))))
                          for j in range(1, wl.inputs)]
        refs.setdefault(str(args.seed), {})[wl.name] = {"outputs": outputs,
                                                        "robust_graphs": robust}
        with open(checks.REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ref = checks.reference_for(refs, wl.name, args.seed)
    if ref is not None:
        problems = checks.compare_outputs(fp, ref["outputs"][0])
        if robust != ref["robust_graphs"]:
            problems.append(f"robust graph digest {robust} != reference {ref['robust_graphs']}")
        gate.check(problems)

    # probe: kmst scores of the first PROBE_ROWS rows of the first x sample
    # (Gaussian in both workloads, so its spanning layers exist), and
    # PROBE_PERMS permutations on the first test's score matrices
    q = rec.first_q
    x = wl.first_sample(inputs).x[:workloads.PROBE_ROWS]
    probe_tracer = measure.Tracer()
    with layers.LayerRecorder(probe_tracer).installed():
        scores.build_scores(x, workloads.KMST_CFG)
        p1 = inference.permutation_test(q, n_perm=PROBE_PERMS, seed=args.seed, threads=1)
    probed = measure.layer_totals(probe_tracer.spans)
    gate.check([f"probe layer {name} was not recorded"
                for name in PROBE_LAYERS if name not in probed])
    nproc = os.cpu_count() or 1
    t0 = time.perf_counter()
    pn = inference.permutation_test(q, n_perm=PROBE_PERMS, seed=args.seed, threads=nproc)
    nproc_s = time.perf_counter() - t0
    gate.check([] if p1 == pn else [f"permutation p {p1!r} at threads=1 != {pn!r} at {nproc}"])

    counts = [layers.descent_counts(g) for g in rec.examined]

    def over_graphs(key, how):
        return how(c[key] for c in counts)

    csv_s = csv_read_seconds(args.seed, gate)
    tests = wl.tests_per_op

    def layer(name, field="total_s"):
        """Per test in the workload's own call, or in the probe for the
        PROBE_LAYERS the call does not reach.  A layer missing from either has
        already failed the gate above."""
        if name in wl.layers:
            return main.get(name, {}).get(field, 0.0) / tests
        return probed.get(name, {}).get(field, 0.0)

    top_level_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    per_span_s = measure.span_cost()
    perm_call = probed.get("inference.permutation_test", {"total_s": 0.0, "self_s": 0.0})
    substream = probed.get("rng.substream", {"total_s": 0.0, "calls": 1})
    robust_names = ("graphs.robust_graph.nearest", "graphs.robust_graph.farthest")
    m = {
        "graphs.pairwise_distances.s": (layer("graphs.pairwise_distances"), "s"),
        "graphs.neighbor_rank_rows.s": (layer("graphs.neighbor_rank_rows"), "s"),
        "graphs.knn_graph.s": (layer("graphs.knn_graph"), "s"),
        "graphs.robust_graph.s": (sum(layer(n) for n in robust_names), "s"),
        "graphs.robust_graph.nearest.s": (layer(robust_names[0]), "s"),
        "graphs.robust_graph.farthest.s": (layer(robust_names[1]), "s"),
        "graphs.robust_graph.self_s": (sum(layer(n, "self_s") for n in robust_names), "s"),
        "graphs.kmst.s": (layer("graphs.kmst"), "s"),
        "graphs.robust_graph.sweeps": (over_graphs("sweeps", max), "count"),
        "graphs.robust_graph.converged": (over_graphs("converged", sum), "count"),
        "graphs.robust_graph.max_indeg_before": (over_graphs("max_indeg_before", max), "count"),
        "graphs.robust_graph.max_indeg_after": (over_graphs("max_indeg_after", max), "count"),
        "graphs.robust_graph.objective_before": (over_graphs("objective_before", sum), "1"),
        "graphs.robust_graph.objective_after": (over_graphs("objective_after", sum), "1"),
        "scores.build_scores.s": (layer("scores.build_scores"), "s"),
        "scores.build_scores.self_s": (layer("scores.build_scores", "self_s"), "s"),
        "scores.robust_rank_scores.s": (layer("scores.robust_rank_scores"), "s"),
        "scores.graph_rank_scores.s": (layer("scores.graph_rank_scores"), "s"),
        "scores.nnz_frac": (statistics.fmean(rec.nnz_frac), "ratio"),
        "matrixcore.symmetrize.s": (layer("matrixcore.symmetrize"), "s"),
        "matrixcore.cross_summarize.s": (layer("matrixcore.cross_summarize"), "s"),
        "moments.QuadrupleInputs.s": (layer("moments.QuadrupleInputs"), "s"),
        "moments.null_moments.s": (layer("moments.null_moments"), "s"),
        "moments.t_stats.s": (layer("moments.t_stats"), "s"),
        "inference.quadruple_from_samples.s": (layer("inference.quadruple_from_samples"), "s"),
        "inference.git_test.s": (layer("inference.git_test"), "s"),
        "inference.permutation_test.s": (perm_call["total_s"], "s"),
        "inference.perm_us": (1e6 * perm_call["self_s"] / PROBE_PERMS, "us"),
        "inference.perm_bytes": (perm_bytes(q), "bytes_computed"),
        "inference.permutation_test.threads_nproc.s": (nproc_s, "s"),
        "rng.substream.us": (1e6 * substream["total_s"] / substream["calls"], "us"),
        "simulate.generate.s": (layer("simulate.generate"), "s"),
        "simulate.rep_s": (top_level_s / tests, "s"),
        "cli.read_matrix_csv.s": (csv_s, "s"),
        "trace.overhead_s": (per_span_s * len(tracer.spans) / tests, "s"),
    }
    detail = {
        "untraced_s": untraced_s, "traced_s": top_level_s, "tests_per_op": tests,
        "spans": len(tracer.spans), "span_cost_s": per_span_s,
        "probe_perms": PROBE_PERMS, "robust_graphs": robust, "descent": counts,
        "layers": main, "probe_layers": probed,
    }
    return m, detail
