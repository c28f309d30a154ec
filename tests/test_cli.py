import json
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

from gitest import cli
from gitest import simulate as sim
from gitest.inference import run_test
from gitest.scores import ScoreConfig


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
        assert cli.main(["test", "--x", px, "--y", py]) == 2
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

    def test_overflowing_covariance_exit_2(self, tmp_path, capsys):
        d = sim.generate(sim.SettingSpec(id="motivating", n=60, p=5, seed=1))
        px = write_csv(tmp_path / "x.csv", d.x * 1e80)
        py = write_csv(tmp_path / "y.csv", d.y * 1e80)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["test", "--x", px, "--y", py, "--scheme", "distance_weight",
                            "--graph", "knn"]) == 2
        assert "null covariance is not finite" in capsys.readouterr().err

    def test_threads_env_fallback(self, gaussian_pair, capsys, monkeypatch):
        px, py, _, _ = gaussian_pair
        monkeypatch.setenv("GITEST_THREADS", "2")
        assert cli.main(["test", "--x", px, "--y", py, "--method", "permutation",
                        "--n-perm", "29", "--seed", "1"]) == 0
        with_env = json.loads(capsys.readouterr().out)["p_permutation"]
        monkeypatch.delenv("GITEST_THREADS")
        assert cli.main(["test", "--x", px, "--y", py, "--method", "permutation",
                        "--n-perm", "29", "--seed", "1", "--threads", "3"]) == 0
        with_flag = json.loads(capsys.readouterr().out)["p_permutation"]
        assert with_env == with_flag

    @pytest.mark.parametrize("env", ["abc", "0", "-3"])
    def test_bad_threads_env_exit_2(self, gaussian_pair, capsys, monkeypatch, env):
        px, py, _, _ = gaussian_pair
        monkeypatch.setenv("GITEST_THREADS", env)
        assert cli.main(["test", "--x", px, "--y", py, "--method", "both"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("gitest: error: GITEST_THREADS")

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

    def test_zero_reps_usage_error(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_1", "--reps", "0"]) == 64

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

    def test_grid_runs_setting_then_n_then_p(self, capsys):
        assert cli.main(["simulate", "--setting", "s5_2", "s5_1", "--n", "14", "12",
                        "--p", "3", "2", "--reps", "1", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "setting,n,p,reps,level,method,power,runtime_seconds"
        cells = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert cells == [(s, n, p) for s in ("s5_2", "s5_1") for n in ("14", "12")
                         for p in ("3", "2")]

    def test_grid_dimensions_default_per_setting(self, monkeypatch, capsys):
        def cell(spec, **kw):
            return sim.PowerEstimate(spec, kw["reps"], kw["level"], 0, 0.0, 0.0)

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
    ["simulate", "--setting", "tune_i", "--n", "50", "--p", "5", "--reps", "1",
     "--sweep-alphas", "0.5", "--components"],
    ["test", "--lambda", "nan"],
    ["test", "--lambda", "inf"],
    ["graph", "--lambda", "nan"],
    ["graph", "--lambda", "inf"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--components", "--level", "0"],
    ["simulate", "--setting", "s5_1", "--n", "10", "--p", "2", "--reps", "1",
     "--components", "--level", "1.5"],
    ["simulate", "--setting", "s5_1", "--n", "12", "--p", "2", "--reps", "2",
     "--plot-data", "--format", "json"],
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
])
def test_invalid_flag_value_is_usage_error(argv, tmp_path, rng, capsys):
    # samples of n=30 rows: --k 40 exceeds n - 1, and --k 20 exceeds the 15
    # edge-disjoint spanning trees a complete graph on 30 nodes can hold
    px = write_csv(tmp_path / "x.csv", rng.standard_normal((30, 3)))
    py = write_csv(tmp_path / "y.csv", rng.standard_normal((30, 3)))
    files = {"test": ["--x", px, "--y", py], "graph": ["--x", px], "simulate": []}
    try:
        code = cli.main(argv[:1] + files[argv[0]] + argv[1:])
    except SystemExit as exc:  # argparse itself rejects unknown flags and choices
        code = exc.code
    assert code == 64
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("gitest: error: ")


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
