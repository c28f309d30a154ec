"""Byte-identity gates on the command line's seeded outputs.

Each case runs one ``gitest`` command on fixed seeded inputs and compares the
sha256 of its stdout with a recorded digest.  Refactors must keep every
printed digit; a change that means to alter an output updates the digest
deliberately.  The digests hold for the numpy/scipy builds the suite runs on
(numpy 2.4, scipy 1.17): a different LAPACK can move the last digits of the
eigenvalue-based fields.
"""

import hashlib

import numpy as np
import pytest

from gitest import cli


def _write(path, arr):
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in arr) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    gen = np.random.default_rng(20241)
    x = gen.standard_normal((30, 5))
    y = np.log(np.abs(x)) + 0.5 * gen.standard_normal((30, 5))
    return _write(d / "x.csv", x), _write(d / "y.csv", y)


GOLDEN = {
    "simulate": "b5b691c36d70de4b74a0ee16645eb5a70ef5058bb25ac53336a7d02f50a301ed",
    "simulate-components": "3f6c2649c8dd05b9db33707571bad65b8fe38c6c41b8bd756bd4074e93ec6d95",
    "simulate-sweep": "63225e2406229a975b99ffa339a9ad2bebd521e390ea6ea5321c45296d34af55",
    "simulate-size-grid": "37edd6ce2fb9ef89a8895a385f6657b19be13238e3ab22089710bc51ff515f9f",
    "simulate-power-grid": "98691e8108d7369d62ac76c7a71b1113eefd5bb4c3deeab27f7bc264c704aa86",
    "simulate-sweep-p3": "630a37f6bfcf97782312c6ca9b75eed2a90eeb86f0350196d60d5b91dd65c55e",
    "simulate-components-grid": "0ee1f09d9c871bb50964ed072f56ebf82caa4aeb4250cbe64177eab008371250",
    "simulate-plot-data": "1a32c0ab11fada5bb4153930ab67702673cdc19565ead6168adcd2726a64b75b",
    "simulate-json": "8e4528399395fa1b1081c9fb59cbf85fd922fd4fe2b8972eb2cafbb702487c47",
    "simulate-components-json": "5160dfbf2b3170c2e2fd3fb8c784bb3b11bee5d82b256c6632ce8372876dfb46",
    "simulate-sweep-json": "7a7f5c8ec092c4aa2d13a91328e9cd7b61316dbbf059b21ddb18ec39e9f81abf",
    "simulate-permutation": "eff7f277bc6a284b9c4114920828097aa3d1d3d1c10c454520aa3b3c483053c6",
    "test-json": "c515eb887a6f67d68faa7184129a74f788449051837b6d3f9fa7a8966e085af5",
    "test-table": "0f17ff51b80dff812816290f7956d545532b7727d15e05670837dc0a2af7fbc3",
    "test-csv": "c54affe983ec4bf25663f2a0439a3d36e241b33c70982e0726294d8fbda39438",
    "test-kernel_weight-knn": "1d74a8c62db242164a7a37bd5576440baa03ebd22d2f3e2ed2fa1165a83bd065",
    "test-graph_rank-kmst": "1cbdf8b0b50bf589355f8fcae9c0b5d80ecb95fe33e7cd0acf062cef5e1c5d46",
    "test-adjacency-robust_knn": "a15d7069f62242d7a596b7a165ece05fcc1efbe38fd3c399c9d34a10c95b54b2",
    "test-distance_weight-kmst": "ae57fb3013adc785d77edf42c95994fe913548f3e56c1b098afc8c96317f6cf4",
    "test-graph_rank-knn": "65ad94477f234db8db7a3f633618163e07660059686bd2b96edc8c5f427d82af",
    "diagnose": "d02e234daa1d997f26d60c68ec93403c83938e1940714de8094060f9cb5e1411",
    "diagnose-kernel_weight-knn": "acf167e916338790adff3806ad5b3750f999d272f6e2d684cc9f0de58c19cdd2",
    "graph-knn": "c459ddef31febc4f41e6f8fbb169777f7524f95c847f5f78f6dedb94a7e54e2c",
    "graph-kfp": "ecfab0d5febab026ab3b9fb09412d4e5c1781030cc3ca03e1fe76adde268fc1c",
    "graph-kmst": "9c8c9c96d054ce3194349d68b215b876bfc394bf0196b367a79a7e7e3224b6a0",
    "graph-kmaxst": "0ab6dcd1ea85d4d6e92ff1a8cd7a5ba87191bd4874aa06759504d85d4f752903",
    "graph-robust_knn": "cf1b20679a626f52ea23a6766b1337783964c7a0487b5ca3de8b8b2005c89a9b",
    "graph-robust_kfp": "0af541c03fec9232ff15fbce3cb49e1d601a5be67c12db1d47279cfe89b00785",
}


#: the grids the experiment scripts ran before ``gitest simulate`` took their
#: place; each digest is the stdout of the script run on the same grid
GRIDS = {
    "simulate-size-grid": ["--setting", "s5_1", "s5_2", "--n", "16", "20", "--p", "3"],
    "simulate-power-grid": ["--setting", "motivating", "s1_1", "--n", "20", "--p", "3", "5"],
    "simulate-sweep-p3": ["--setting", "tune_i", "--n", "50", "--p", "3",
                          "--sweep-alphas", "0.3,0.6"],
    "simulate-components-grid": ["--setting", "s1_1", "s5_1", "--n", "16", "--p", "3",
                                 "--components"],
}


#: the other reports of the base simulate cell, one flag set each
SIMULATE_FLAGS = {
    "simulate-components": ["--components"],
    "simulate-plot-data": ["--plot-data"],
    "simulate-json": ["--format", "json"],
    "simulate-components-json": ["--components", "--format", "json"],
}


def _argv(case, px, py):
    simulate = ["simulate", "--setting", "s5_1", "--n", "30", "--p", "5", "--reps", "5",
                "--seed", "7"]
    test = ["test", "--x", px, "--y", py, "--method", "both", "--n-perm", "99", "--seed", "3"]
    if case == "simulate":
        return simulate
    if case in GRIDS:
        return ["simulate", *GRIDS[case], "--reps", "3", "--seed", "7"]
    if case in SIMULATE_FLAGS:
        return simulate + SIMULATE_FLAGS[case]
    if case.startswith("simulate-sweep"):
        sweep = ["simulate", "--setting", "tune_i", "--n", "50", "--reps", "5", "--seed", "7",
                 "--sweep-alphas", "0.3,0.6"]
        return sweep + (["--format", "json"] if case.endswith("-json") else [])
    if case == "simulate-permutation":
        return ["simulate", "--setting", "s5_1", "--n", "16", "--p", "3", "--reps", "3",
                "--seed", "7", "--method", "permutation"]
    if case.startswith("test-") and case.count("-") == 2:
        _, scheme, graph = case.split("-")
        # at n=30 the kmst pair holds only three edge-disjoint maximal trees
        k = ["--k", "3"] if graph == "kmst" else []
        return test + ["--scheme", scheme, "--graph", graph] + k
    if case.startswith("test-"):
        return test + ["--format", case[len("test-"):]]
    if case == "diagnose":
        return ["diagnose", "--x", px, "--y", py]
    if case == "diagnose-kernel_weight-knn":
        # real-valued scores, where the summation order shows in the last digits
        return ["diagnose", "--x", px, "--y", py, "--scheme", "kernel_weight", "--graph", "knn"]
    name = case[len("graph-"):]
    # at n=30 only three maximal spanning trees are edge-disjoint
    k = ["--k", "3"] if name in ("kmst", "kmaxst") else []
    return ["graph", "--x", px, "--graph", name] + k


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_digest(case, pair, capsys):
    assert cli.main(_argv(case, *pair)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]
