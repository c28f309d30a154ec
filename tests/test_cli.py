import json
import math
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gitest import cli
from gitest import simulate as sim
from gitest.inference import run_test
from gitest.scores import FAMILIES, ScoreConfig


def write_csv(path, arr, header=None, delimiter=","):
    lines = [] if header is None else [header]
    lines += [delimiter.join(f"{v:.17g}" for v in row) for row in np.atleast_2d(arr)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def gaussian_pair(tmp_path, rng):
    x = rng.standard_normal((40, 6))
    y = rng.standard_normal((40, 6))
    return write_csv(tmp_path / "x.csv", x), write_csv(tmp_path / "y.csv", y), x, y


class TestCmdTest:
    def test_identical_samples_reject_strongly(self, tmp_path, rng, capsys):
        x = rng.standard_normal((50, 20))
        px = write_csv(tmp_path / "x.csv", x)
        py = write_csv(tmp_path / "y.csv", x)
        assert cli.main(["test", "--x", px, "--y", py]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_analytic"] < 0.001

    def test_matches_library(self, gaussian_pair, capsys):
        px, py, x, y = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py, "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        res = run_test(x, y, ScoreConfig(), method="analytic")
        assert out["statistic"] == pytest.approx(res.statistic, rel=1e-12)
        assert out["p_analytic"] == pytest.approx(res.p_analytic, rel=1e-12)
        assert out["k"] == 6 and out["scheme"] == "robust_rank" and out["lambda"] == 0.3

    def test_mismatched_rows_exit_2(self, tmp_path, rng, capsys):
        px = write_csv(tmp_path / "x.csv", rng.standard_normal((10, 3)))
        py = write_csv(tmp_path / "y.csv", rng.standard_normal((12, 3)))
        for subcommand in ("test", "diagnose"):
            assert cli.main([subcommand, "--x", px, "--y", py]) == 2
            err = capsys.readouterr().err
            assert "paired samples must align" in err
            assert "10" in err and "12" in err

    def test_non_numeric_cell_reported(self, tmp_path, rng, capsys):
        px = write_csv(tmp_path / "x.csv", rng.standard_normal((6, 2)))
        bad = tmp_path / "y.csv"
        bad.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n7.0,8.0\n1.0,1.0\n2.0,2.0\n")
        assert cli.main(["test", "--x", px, "--y", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "y.csv" in err and "row 2" in err and "column 2" in err and "oops" in err

    def test_header_and_delimiter(self, tmp_path, rng, capsys):
        x = rng.standard_normal((12, 3))
        px = write_csv(tmp_path / "x.csv", x, header="a;b;c", delimiter=";")
        py = write_csv(tmp_path / "y.csv", x, header="a;b;c", delimiter=";")
        assert cli.main(["test", "--x", px, "--y", py, "--header",
                        "--delimiter", ";"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 12

    def test_n_perm_requires_permutation_method(self, gaussian_pair, capsys):
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py, "--n-perm", "99"]) == 64

    def test_n_perm_default_is_run_tests(self, gaussian_pair, capsys, monkeypatch):
        cfg, method, _, seed, threads = run_test.__defaults__
        monkeypatch.setattr(run_test, "__defaults__", (cfg, method, 9, seed, threads))
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py, "--method", "permutation"]) == 0
        p = json.loads(capsys.readouterr().out)["p_permutation"]
        assert p < 1 and abs(p * 10 - round(p * 10)) < 1e-9  # (1 + count) / (9 + 1)

    def test_threads_default_is_run_tests(self, gaussian_pair, monkeypatch, pools):
        cfg, method, n_perm, seed, _ = run_test.__defaults__
        monkeypatch.setattr(run_test, "__defaults__", (cfg, method, n_perm, seed, 5))
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py, "--method", "permutation",
                        "--n-perm", "9"]) == 0
        assert pools == [5]

    def test_seed_default_is_run_tests(self, gaussian_pair, capsys, monkeypatch):
        cfg, method, n_perm, _, threads = run_test.__defaults__
        px, py, x, y = gaussian_pair
        p = {seed: run_test(x, y, method="permutation", n_perm=99, seed=seed).p_permutation
             for seed in (0, 11)}
        assert p[0] != p[11]
        monkeypatch.setattr(run_test, "__defaults__", (cfg, method, n_perm, 11, threads))
        assert cli.main(["test", "--x", px, "--y", py, "--method", "permutation",
                        "--n-perm", "99"]) == 0
        assert json.loads(capsys.readouterr().out)["p_permutation"] == p[11]

    def test_method_default_is_run_tests(self, gaussian_pair, capsys, monkeypatch):
        cfg, _, _, seed, threads = run_test.__defaults__
        monkeypatch.setattr(run_test, "__defaults__", (cfg, "permutation", 19, seed, threads))
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_analytic"] is None and out["p_permutation"] is not None

    def test_method_both_reports_both(self, gaussian_pair, capsys):
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py, "--method", "both",
                        "--n-perm", "49", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_analytic"] is not None and out["p_permutation"] is not None

    def test_table_and_csv_formats(self, gaussian_pair, capsys):
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py, "--format", "table"]) == 0
        table = capsys.readouterr().out
        assert "statistic" in table and "RG1" in table
        assert cli.main(["test", "--x", px, "--y", py, "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        header, row = csv_out.strip().split("\n")
        assert header.startswith("statistic,df,p_analytic")
        assert len(header.split(",")) == len(row.split(","))

    def test_constant_sample_exit_2(self, tmp_path, rng, capsys):
        px = write_csv(tmp_path / "x.csv", np.zeros((30, 4)))
        py = write_csv(tmp_path / "y.csv", rng.standard_normal((30, 4)))
        assert cli.main(["test", "--x", px, "--y", py]) == 2
        assert "all pairwise distances are zero" in capsys.readouterr().err

    def test_zero_distance_similarity_edge_exit_2(self, tmp_path, rng, capsys):
        x = rng.standard_normal((12, 3))
        x[5] = x[2]
        px = write_csv(tmp_path / "x.csv", x)
        py = write_csv(tmp_path / "y.csv", rng.standard_normal((12, 3)))
        assert cli.main(["test", "--x", px, "--y", py, "--scheme", "distance_weight",
                        "--graph", "knn"]) == 2
        assert "zero distance between observations 2 and 5" in capsys.readouterr().err

    def test_zero_median_kernel_bandwidth_exit_2(self, tmp_path, rng, capsys):
        # five distinct rows, six copies each: all k = 5 nearest neighbours of
        # a row are its copies, so the median squared edge length is zero
        x = np.repeat(rng.standard_normal((5, 3)), 6, axis=0)
        px = write_csv(tmp_path / "x.csv", x)
        py = write_csv(tmp_path / "y.csv", rng.standard_normal((30, 3)))
        assert cli.main(["test", "--x", px, "--y", py, "--scheme", "kernel_weight",
                        "--graph", "knn"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gitest: error: kernel bandwidth is zero")

    def test_overflowing_kernel_weights_exit_2(self, tmp_path, capsys):
        # heavy tails: a farthest-side weight exp(d^2 / 2h) overflows
        d = sim.generate(sim.SettingSpec(id="s4_3", n=100, p=20, seed=0))
        px = write_csv(tmp_path / "x.csv", d.x)
        py = write_csv(tmp_path / "y.csv", d.y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["test", "--x", px, "--y", py, "--scheme", "kernel_weight",
                            "--graph", "knn"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gitest: error: kernel weights overflow")

    @pytest.mark.parametrize("y_tail, message", [
        ((1e-6, 5.2e-5, -1e-6, 1.382e-3, 2e-6), "null covariance is not finite"),
        ((1e-6, 3.27e-4, -2.5e-5, -1.2933e-2, -1.82e-4), "score matrix entries must be finite"),
    ], ids=["moments", "symmetrize"])
    def test_overflowing_kernel_sums_exit_2_without_a_warning(self, tmp_path, capsys, y_tail,
                                                               message):
        # five coincident rows make the median squared edge length tiny, so the
        # outliers' weights exp(d^2 / 2h) are finite but their sums overflow
        x = np.array([0, 0, 0, 0, 0, 1e-6, 3e-6, -2e-6, 2e-6, -1e-6])[:, None]
        y = np.array((0,) * 5 + y_tail)[:, None]
        px, py = write_csv(tmp_path / "x.csv", x), write_csv(tmp_path / "y.csv", y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["test", "--x", px, "--y", py, "--scheme", "kernel_weight",
                            "--graph", "knn"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and message in err

    def test_overflowing_covariance_exit_2(self, tmp_path, capsys):
        d = sim.generate(sim.SettingSpec(id="motivating", n=60, p=5, seed=1))
        px = write_csv(tmp_path / "x.csv", d.x * 1e80)
        py = write_csv(tmp_path / "y.csv", d.y * 1e80)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["test", "--x", px, "--y", py, "--scheme", "distance_weight",
                            "--graph", "knn"]) == 2
        assert "null covariance is not finite" in capsys.readouterr().err

    def test_threads_env_is_ignored(self, gaussian_pair, capsys, monkeypatch):
        # --threads is the one way to set the thread count
        px, py, _, _ = gaussian_pair
        argv = ["test", "--x", px, "--y", py, "--method", "both", "--n-perm", "29"]
        assert cli.main(argv) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("GITEST_THREADS", "abc")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("text, message", [
        ("1,2\n\n3,4,5\n", "x.csv: row 3 has 3 cells, expected 2"),
        ("", "x.csv: no data rows"),
        ("\n  \n", "x.csv: no data rows"),
        (None, "cannot read"),
    ], ids=["ragged", "empty", "blank-lines-only", "unreadable"])
    def test_unreadable_csv_exit_2(self, gaussian_pair, tmp_path, capsys, text, message):
        _, py, _, _ = gaussian_pair
        px = tmp_path / "bad" / "x.csv"
        if text is not None:
            px.parent.mkdir()
            px.write_text(text)
        assert cli.main(["test", "--x", str(px), "--y", py]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("gitest: error: ") and message in err[0]

    def test_blank_lines_are_skipped(self, gaussian_pair, tmp_path, capsys):
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py]) == 0
        plain = capsys.readouterr().out
        lines = pathlib.Path(px).read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n" + "\n".join(lines[:10] + ["", "   "] + lines[10:]) + "\n\n")
        assert cli.main(["test", "--x", str(spaced), "--y", py]) == 0
        assert capsys.readouterr().out == plain

    def test_byte_order_mark_accepted(self, gaussian_pair, tmp_path, capsys):
        # spreadsheet exports start a UTF-8 file with U+FEFF
        px, py, _, _ = gaussian_pair
        assert cli.main(["test", "--x", px, "--y", py]) == 0
        plain = capsys.readouterr().out
        marked = []
        for name, path in (("xb.csv", px), ("yb.csv", py)):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
            marked.append(str(tmp_path / name))
        assert cli.main(["test", "--x", marked[0], "--y", marked[1]]) == 0
        assert capsys.readouterr().out == plain


class TestCmdSimulate:
    def test_byte_identical_runs(self, capsys):
        args = ["simulate", "--setting", "s5_1", "--n", "16", "--p", "3",
                "--reps", "4", "--seed", "7"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("setting,n,p,reps,level,method,power,runtime_seconds\n")

    @pytest.mark.parametrize("report", [
        ["--setting", "s5_1", "--n", "10", "--p", "2", "--components"],
        ["--setting", "tune_i", "--n", "50", "--sweep-alphas", "0.5"],
        ["--setting", "s5_1", "--n", "10", "--p", "2"],
    ], ids=["components", "sweep", "power"])
    def test_threads_env_is_ignored(self, report, capsys, monkeypatch):
        # simulate runs on one thread and never reads GITEST_THREADS
        argv = ["simulate", "--reps", "1"] + report
        assert cli.main(argv) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("GITEST_THREADS", "abc")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("default, flags, column", [
        ("reps", [], 3), ("level", ["--reps", "2"], 0.5),
        ("method", ["--reps", "2"], "permutation"),
    ], ids=["reps", "level", "method"])
    def test_run_defaults_are_estimate_powers(self, default, flags, column, capsys,
                                              monkeypatch):
        names = ("cfg", "method", "reps", "level", "n_perm")
        defaults = dict(zip(names, sim.estimate_power.__defaults__), n_perm=19)
        defaults[default] = column
        monkeypatch.setattr(sim.estimate_power, "__defaults__", tuple(defaults.values()))
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "10", "--p", "2",
                        "--format", "json"] + flags) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row[default] == column

    def test_zero_reps_usage_error(self, monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(sim, "generate", lambda spec: draws.append(spec))
        assert cli.main(["simulate", "--setting", "s5_1", "--reps", "0"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and draws == []
        assert len(err.splitlines()) == 1 and "reps must be positive" in err

    def test_unknown_setting_lists_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--setting", "zzz", "--reps", "1"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert "s5_1" in err and "motivating" in err

    def test_json_format(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "14", "--p", "3",
                        "--reps", "3", "--seed", "1", "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["power"] == row["rejections"] / 3
        assert row["runtime_seconds"] is None

    def test_timing_flag_adds_runtime(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "14", "--p", "3",
                        "--reps", "2", "--seed", "1", "--format", "json", "--timing"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["runtime_seconds"] > 0

    def test_plot_data_tidy(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "14", "--p", "3",
                        "--reps", "2", "--seed", "1", "--plot-data"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("setting,n,p,reps,level,method,series,param,power\n")

    def test_sweep(self, capsys):
        assert cli.main(["simulate", "--setting", "tune_i", "--n", "50", "--p", "3",
                        "--reps", "2", "--seed", "1", "--sweep-alphas", "0.2,0.5"]) == 0
        out = capsys.readouterr().out
        assert "alpha=0.2" in out and "alpha=0.5" in out

    def test_components(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "16", "--p", "3",
                        "--reps", "2", "--seed", "1", "--components"]) == 0
        out = capsys.readouterr().out
        for name in ("RG1", "RG2", "RG3", "RG4", "GIT"):
            assert name in out

    SWEEP = ["simulate", "--setting", "tune_i", "--n", "50", "--p", "3", "--seed", "1",
             "--sweep-alphas", "0.3,0.6"]

    def test_sweep_with_components_keeps_the_sweep_rows(self, capsys):
        assert cli.main(self.SWEEP + ["--reps", "2"]) == 0
        sweep = capsys.readouterr().out.splitlines()
        assert cli.main(self.SWEEP + ["--reps", "2", "--components"]) == 0
        combined = capsys.readouterr().out.splitlines()
        assert combined[0] == sweep[0]
        assert [line for line in combined[1:] if line.split(",")[6] == "GIT"] == sweep[1:]
        assert [line.split(",")[6:8] for line in combined[1:]] == [
            [name, f"alpha={a}"] for a in ("0.3", "0.6")
            for name in ("RG1", "RG2", "RG3", "RG4", "GIT")]

    def test_sweep_with_components_reports_each_cell_components(self, capsys):
        # at this level the ten rates are not all equal, so a row that names
        # the wrong series or cell shows
        assert cli.main(self.SWEEP + ["--reps", "4", "--level", "1e-12", "--components",
                                      "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len({r["power"] for r in rows}) > 2
        spec = sim.SettingSpec("tune_i", 50, 3, seed=1)
        for a in (0.3, 0.6):
            est = sim.estimate_power(spec, ScoreConfig(k=int(50 ** a)), reps=4, level=1e-12)
            got = {r["series"]: r["power"] for r in rows if r["param"] == f"alpha={a}"}
            assert got == {**est.components, "GIT": est.power}

    def test_plot_data_json_is_the_csv_parsed(self, capsys):
        argv = ["simulate", "--setting", "s5_1", "--n", "12", "--p", "2", "--reps", "2",
                "--plot-data"]
        assert cli.main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert cli.main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        types = {"n": int, "p": int, "reps": int, "level": float, "power": float}
        parsed = [{col: types.get(col, str)(v) for col, v in zip(header.split(","),
                                                                 line.split(","))}
                  for line in lines]
        assert rows == parsed

    def test_grid_runs_setting_then_n_then_p(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_2", "s5_1", "--n", "14", "12",
                        "--p", "3", "2", "--reps", "1", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "setting,n,p,reps,level,method,power,runtime_seconds"
        cells = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert cells == [(s, n, p) for s in ("s5_2", "s5_1") for n in ("14", "12")
                         for p in ("3", "2")]

    def test_grid_dimensions_default_per_setting(self, monkeypatch, capsys):
        def cell(spec, **kw):  # gitest passes level only when --level is given
            return sim.PowerEstimate(spec, kw["reps"], kw.get("level"), 0, 0.0, 0.0)

        monkeypatch.setattr(sim, "estimate_power", cell)
        assert cli.main(["simulate", "--setting", "s5_1", "motivating", "tune_i",
                        "--p", "4", "--reps", "1"]) == 0
        cells = [line.split(",")[:3] for line in capsys.readouterr().out.splitlines()[1:]]
        assert cells == [["s5_1", "100", "4"], ["motivating", "150", "4"], ["tune_i", "50", "4"]]
        assert cli.main(["simulate", "--setting", "s5_1", "motivating", "--n", "20",
                        "--reps", "1"]) == 0
        cells = [line.split(",")[:3] for line in capsys.readouterr().out.splitlines()[1:]]
        assert cells == [["s5_1", "20", "100"], ["motivating", "20", "50"]]

    def test_grid_json_is_one_document(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_1", "s1_1", "--n", "12", "--p", "2",
                        "--reps", "1", "--components", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["setting"], r["series"]) for r in rows] == [
            (s, name) for s in ("s5_1", "s1_1") for name in ("RG1", "RG2", "RG3", "RG4", "GIT")]

    def test_bad_cell_fails_before_the_first_replication(self, monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(sim, "generate", lambda spec: draws.append(spec))
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "12", "1", "--p", "2",
                        "--reps", "1"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and draws == []
        assert err.startswith("gitest: error: need n >= 4")

    def test_cell_below_four_rows_fails_before_the_first_replication(self, monkeypatch,
                                                                        capsys):
        # the test needs 4 paired observations; the n=100 cell must not run first
        draws = []
        monkeypatch.setattr(sim, "generate", lambda spec: draws.append(spec))
        assert cli.main(["simulate", "--setting", "s5_1", "--n", "100", "3", "--p", "5",
                        "--reps", "20"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and draws == []
        assert err.startswith("gitest: error: need n >= 4")

    @pytest.mark.parametrize("grid", [
        ["--setting", "tune_i", "s5_1", "--n", "50", "--p", "3", "--sweep-alphas", "0.5"],
        ["--setting", "tune_i", "--n", "50", "73", "--p", "3"],
    ], ids=["sweep-on-s5_1", "tune-at-untabulated-n"])
    def test_setting_rules_fail_before_the_first_replication(self, grid, monkeypatch,
                                                             capsys):
        calls = []
        for name in ("generate", "estimate_power"):
            def counted(*args, _fn=getattr(sim, name), **kwargs):
                calls.append(_fn.__name__)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(sim, name, counted)
        assert cli.main(["simulate", "--reps", "1"] + grid) == 64
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert len(err.splitlines()) == 1 and err.startswith("gitest: error: ")


class TestCmdDiagnose:
    def test_normal_data_positive_gram_spectra(self, gaussian_pair, capsys):
        px, py, _, _ = gaussian_pair
        assert cli.main(["diagnose", "--x", px, "--y", py]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(v > 0 for v in out["gram3_eigenvalues"])
        assert out["sigma_rank"] == 4

    def test_schema_fields(self, gaussian_pair, capsys):
        px, py, _, _ = gaussian_pair
        assert cli.main(["diagnose", "--x", px, "--y", py]) == 0
        out = json.loads(capsys.readouterr().out)
        for field in ("c0_plus", "c1_plus", "c2", "c2_plus", "c3", "c3_plus",
                      "gram2_eigenvalues", "gram3_eigenvalues",
                      "variance_regime_ratio"):
            assert field in out


class TestCmdGraph:
    def test_edge_list_sorted(self, tmp_path, rng, capsys):
        px = write_csv(tmp_path / "x.csv", rng.standard_normal((9, 3)))
        assert cli.main(["graph", "--x", px, "--graph", "knn", "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 18
        pairs = [tuple(int(c) for c in ln.split("\t")[:2]) for ln in lines]
        assert pairs == sorted(pairs)
        weights = [float(ln.split("\t")[2]) for ln in lines]
        assert all(w > 0 for w in weights)

    def test_kmst_graph(self, tmp_path, rng, capsys):
        px = write_csv(tmp_path / "x.csv", rng.standard_normal((8, 2)))
        assert cli.main(["graph", "--x", px, "--graph", "kmst", "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 * 7  # two spanning layers

    def test_kmaxst_default_k_names_the_feasible_k(self, tmp_path, capsys):
        # the golden input: the greedy layering finds 3 maximal spanning
        # trees, and the default k is floor(sqrt(30)) = 5
        x = np.random.default_rng(20241).standard_normal((30, 5))
        px = write_csv(tmp_path / "x.csv", x)
        assert cli.main(["graph", "--x", px, "--graph", "kmaxst"]) == 2
        assert "k <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["test", "--k", "0"],
    ["test", "--k", "40"],
    ["test", "--lambda", "-1"],
    ["test", "--scheme", "robust_rank", "--graph", "knn"],
    ["graph", "--k", "abc"],
    ["graph", "--k", "0"],
    ["graph", "--graph", "kmst", "--k", "20"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--level", "2"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--sweep-alphas", "0.5"],
    ["test", "--level", "0.1"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--format", "table"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--components", "--method", "permutation"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "0"],
    ["test", "--lambda", "nan"],
    ["test", "--lambda", "inf"],
    ["graph", "--lambda", "nan"],
    ["graph", "--lambda", "inf"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--components", "--level", "0"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--components", "--level", "1.5"],
    ["simulate", "--setting", "s5_1", "--n", "12", "--p", "2", "--reps", "2",
     "--plot-data", "--format", "json", "--timing"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--components", "--timing"],
    ["simulate", "--setting", "tune_i", "--n", "50", "--p", "5", "--reps", "1",
     "--sweep-alphas", "0.5", "--timing"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--plot-data", "--timing"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--threads", "2"],
    ["test", "--method", "both", "--threads", "0"],
    ["test", "--method", "both", "--threads", "-3"],
    ["test", "--method", "both", "--n-perm", "0"],
    ["test", "--threads", "0"],
    ["test", "--method", "permutation", "--threads", "0"],
    ["test", "--k", "abc"],
    ["test", "--seed", "-1"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1", "--seed", "-1"],
])
def test_invalid_flag_value_is_usage_error(argv, tmp_path, rng, capsys, monkeypatch):
    # samples of n=30 rows: --k 40 exceeds n - 1, and --k 20 exceeds the 15
    # edge-disjoint spanning trees a complete graph on 30 nodes can hold
    px = write_csv(tmp_path / "x.csv", rng.standard_normal((30, 3)))
    py = write_csv(tmp_path / "y.csv", rng.standard_normal((30, 3)))
    draws = []
    monkeypatch.setattr(sim, "generate", lambda spec: draws.append(spec))
    files = {"test": ["--x", px, "--y", py], "graph": ["--x", px], "simulate": []}
    try:
        code = cli.main(argv[:1] + files[argv[0]] + argv[1:])
    except SystemExit as exc:  # argparse itself rejects unknown flags and choices
        code = exc.code
    assert code == 64
    out, err = capsys.readouterr()
    assert out == "" and draws == []
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("gitest: error: ")


#: one family of each (similarity, dissimilarity) pair, with every scheme it takes
SCHEME_GRAPHS = [(scheme, graph) for scheme in ("adjacency", "distance_weight", "kernel_weight")
                 for graph in ("knn", "kmst", "robust_knn")]
SCHEME_GRAPHS += [("graph_rank", "knn"), ("graph_rank", "kmst"), ("robust_rank", "robust_knn")]


@st.composite
def awkward_sample(draw, n):
    """n rows of 1-3 unit-scale columns with ties: a constant column, two
    equal rows, binary values, or values rounded to 0.1."""
    p = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["constant_column", "duplicate_rows", "binary", "rounded"]))
    low, top, denom = {"binary": (0, 1, 1), "rounded": (-10, 10, 10)}.get(
        kind, (-(10**6), 10**6, 10**6))
    x = np.array(draw(st.lists(st.integers(low, top), min_size=n * p, max_size=n * p)),
                 dtype=float).reshape(n, p) / denom
    if kind == "constant_column":
        x[:, draw(st.integers(0, p - 1))] = draw(st.integers(low, top)) / denom
    elif kind == "duplicate_rows":
        x[draw(st.integers(0, n - 1))] = x[draw(st.integers(0, n - 1))]
    return x


@given(data=st.data(), n=st.integers(4, 12), pair=st.sampled_from(SCHEME_GRAPHS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_awkward_input_is_tested_or_refused(data, n, pair, tmp_path, capsys):
    # a finite p-value, or a data error (exit 2) on one line; never a usage
    # error, and no numpy warning on the way
    scheme, graph = pair
    argv = ["test", "--x", write_csv(tmp_path / "x.csv", data.draw(awkward_sample(n))),
            "--y", write_csv(tmp_path / "y.csv", data.draw(awkward_sample(n))),
            "--scheme", scheme, "--graph", graph] + (["--k", "1"] if graph == "kmst" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        p = json.loads(out)["p_analytic"]
        assert math.isfinite(p) and 0 <= p <= 1
    else:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("gitest: error: ")


@given(n=st.integers(4, 12), p=st.integers(1, 3), pair=st.sampled_from(SCHEME_GRAPHS),
       constant_x=st.booleans(), command=st.sampled_from(["test", "diagnose"]),
       value=st.floats(-1e6, 1e6, allow_nan=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_coincident_rows_exit_2(n, p, pair, constant_x, command, value, seed, tmp_path,
                                capsys):
    # every neighbor graph of a sample whose rows all coincide is decided by
    # index order alone: a data error on one line, whichever side it is on
    scheme, graph = pair
    samples = [np.full((n, p), value), np.random.default_rng(seed).standard_normal((n, p))]
    x, y = samples if constant_x else samples[::-1]
    argv = [command, "--x", write_csv(tmp_path / "x.csv", x),
            "--y", write_csv(tmp_path / "y.csv", y),
            "--scheme", scheme, "--graph", graph, "--k", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("gitest: error: ")


@pytest.mark.parametrize("graph", FAMILIES)
@given(n=st.integers(4, 12), p=st.integers(1, 3), value=st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_coincident_rows_exit_2_under_graph(graph, n, p, value, tmp_path, capsys):
    # `graph` refuses a constant sample as `test` and `diagnose` do, rather
    # than print an edge list that row order alone decides
    px = write_csv(tmp_path / "x.csv", np.full((n, p), value))
    assert cli.main(["graph", "--x", px, "--graph", graph, "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["gitest: error: all pairwise distances are zero: "
                                "the sample is constant"]


class TestCliSizeSmoke:
    def test_rejection_rate_near_level(self, tmp_path, capsys):
        # 40 independent-null CLI runs; binomial(40, 0.05) stays below 8
        # with probability > 0.9999
        rejections = 0
        gen = np.random.default_rng(2024)
        for r in range(40):
            x = gen.standard_normal((30, 5))
            y = gen.standard_normal((30, 5))
            px = write_csv(tmp_path / f"x{r}.csv", x)
            py = write_csv(tmp_path / f"y{r}.csv", y)
            assert cli.main(["test", "--x", px, "--y", py]) == 0
            out = json.loads(capsys.readouterr().out)
            rejections += out["p_analytic"] < 0.05
        assert rejections <= 8


def readme_commands() -> list[list[str]]:
    """The argv of every ``gitest ...`` line in README's code blocks, with
    ``\\`` continuations joined and ``#`` comments dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.lstrip().startswith("gitest ")]


README_COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[1] for argv in README_COMMANDS} == {"test", "simulate", "diagnose", "graph"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    # parsed, not run: a flag the parser does not take, or a value it refuses
    # (a --sweep-alphas exponent outside (0, 1) included), exits 64
    assert cli.build_parser().parse_args(argv[1:]).subcommand == argv[1]
