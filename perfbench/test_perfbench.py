"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import copy

import numpy as np
import pytest

import checks
import measure


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_timing_summary_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 101)]
    s = measure.timing_summary(values)
    assert s == {"median": 50.5, "tail_percentile": 90.0, "tail_value": 90.0, "samples": 100}
    assert measure.timing_summary([3.0, 1.0, 2.0])["tail_value"] is None


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_only_direct_children():
    # root 0..10 holds a 2..5 and b 6..7; a holds c 3..4
    tr = measure.Tracer(clock=_fake_clock([0, 2, 3, 4, 5, 6, 7, 10]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    names = [s.name for s in tr.spans]
    assert names == ["root", "a", "c", "b"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert measure.self_times(tr.spans) == [6, 2, 1, 1]


def test_self_time_counts_overlapping_children_once():
    spans = [measure.Span("p", 0.0, 10.0, None),
             measure.Span("x", 1.0, 4.0, 0),
             measure.Span("y", 3.0, 6.0, 0)]
    assert measure.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_totals_and_wrap_aggregate_by_name():
    tr = measure.Tracer(clock=_fake_clock([0, 1, 3, 4, 7, 9]))
    double = tr.wrap("leaf", lambda v: 2 * v)
    with tr.span("root"):
        assert double(2) == 4
        assert double(5) == 10
    totals = measure.layer_totals(tr.spans)
    assert totals["leaf"] == {"calls": 2, "total_s": 5, "self_s": 5}
    assert totals["root"] == {"calls": 1, "total_s": 9, "self_s": 4}


def test_span_cost_is_positive():
    assert 0 < measure.span_cost(calls=2000, repeats=3) < 1e-3


@pytest.fixture(scope="module")
def large_ref():
    return checks.reference_for(checks.load_references(), "large_test", 1)["outputs"][0]


def test_reference_accepts_itself_and_rounding_noise(large_ref):
    assert checks.compare_outputs(large_ref, large_ref, rel=0.0) == []
    noisy = copy.deepcopy(large_ref)
    noisy["statistic"] *= 1 + 1e-14
    assert checks.compare_outputs(noisy, large_ref) == []


def test_reference_rejects_perturbed_statistic(large_ref):
    bad = copy.deepcopy(large_ref)
    bad["statistic"] *= 1 + 1e-10
    assert [p.split(":")[0] for p in checks.compare_outputs(bad, large_ref)] == ["statistic"]


def test_reference_rejects_perturbed_component_and_df(large_ref):
    bad = copy.deepcopy(large_ref)
    bad["z"][2] += 1e-9 * abs(bad["z"][2])
    bad["df"] -= 1
    assert len(checks.compare_outputs(bad, large_ref)) == 2


def test_bit_identity_rejects_last_digit_change(large_ref):
    bad = copy.deepcopy(large_ref)
    bad["statistic"] = float(np.nextafter(bad["statistic"], np.inf))
    assert checks.compare_outputs(bad, large_ref, rel=0.0)
    assert checks.compare_outputs(bad, large_ref) == []


@pytest.fixture(scope="module")
def mc_ref():
    return checks.reference_for(checks.load_references(), "monte_carlo", 1)["outputs"][0]


def test_power_csv_must_match_byte_for_byte(mc_ref):
    assert mc_ref["power_csv"].startswith("setting,n,p,reps")
    assert checks.compare_outputs(mc_ref, mc_ref) == []
    bad = dict(mc_ref, power_csv=mc_ref["power_csv"].replace("\n", "\r\n"))
    assert checks.compare_outputs(bad, mc_ref) == ["power_csv: text differs"]


def test_each_replication_is_checked(mc_ref):
    assert len(mc_ref["reps"]) == 84
    bad = copy.deepcopy(mc_ref)
    bad["reps"][40]["statistic"] *= 1 + 1e-10
    assert [p.split(":")[0] for p in checks.compare_outputs(bad, mc_ref)] == ["reps[40].statistic"]
    assert checks.compare_outputs(dict(mc_ref, reps=mc_ref["reps"][:-1]), mc_ref)


def test_graph_digest_sees_one_changed_neighbor():
    a = np.array([[1, 2], [0, 2], [0, 1]])
    b = a.copy()
    b[2, 1] = 3
    assert checks.graph_digest([a]) == checks.graph_digest([a.astype(np.int32)])
    assert checks.graph_digest([a]) != checks.graph_digest([b])
    assert checks.graph_digest([a, a]) != checks.graph_digest([a])


def _small_sample():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 3))
    return x, np.abs(x) + 0.5 * rng.standard_normal((16, 3))


def test_recorder_times_the_real_calls_without_changing_them():
    from gitest import inference

    import layers

    x, y = _small_sample()
    plain = inference.run_test(x, y)
    git_test = inference.git_test
    tr = measure.Tracer()
    rec = layers.LayerRecorder(tr)
    with rec.installed():
        traced = inference.run_test(x, y)
    assert inference.git_test is git_test
    assert checks.compare_outputs(checks.result_fingerprint(traced),
                                  checks.result_fingerprint(plain), rel=0.0) == []
    totals = measure.layer_totals(tr.spans)
    assert totals["inference.run_test"]["calls"] == 1
    assert totals["graphs.robust_graph.nearest"]["calls"] == 2
    assert totals["graphs.robust_graph.farthest"]["calls"] == 2
    assert totals["moments.QuadrupleInputs"]["calls"] == 1
    assert [s.parent for s in tr.spans].count(None) == 1
    assert len(rec.robust) == len(rec.examined) == 4
    assert rec.first_q.n == 16 and len(rec.nnz_frac) == 1


def test_perm_bytes_follow_the_array_sizes():
    from gitest import inference

    import harness

    q = inference.quadruple_from_samples(*_small_sample())
    assert harness.perm_bytes(q) == 160 * 16 ** 2


def test_references_cover_every_input_of_a_timed_run():
    import workloads

    refs = checks.load_references()
    for name, wl in workloads.WORKLOADS.items():
        assert len(checks.reference_for(refs, name, 1)["outputs"]) == wl.inputs
    seeds = [workloads.input_seed(1, j) for j in range(workloads.LARGE_INPUTS)]
    assert seeds[0] == 1 and len(set(seeds)) == len(seeds)
