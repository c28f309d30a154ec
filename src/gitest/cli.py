"""Command-line front end.

Subcommands:
    test      run the independence test on two CSV samples
    simulate  Monte Carlo power / size over a grid of settings, n and p
    diagnose  dump moment diagnostics and Gram spectra for two CSV samples
    graph     dump a neighbor graph as a tab-separated edge list

Exit codes: 0 success, 2 data error, 64 usage error (a bad flag value included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import simulate as sim
from .errors import GitestError
from .graphs import dump_edges
from .inference import quadruple_from_samples, run_test
from .moments import diagnostics
from .scores import FAMILIES, GRAPHS, SCHEMES, ScoreConfig, sample_distances, union_graph

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"gitest: error: {message} (see '{self.prog} --help')\n")


def read_matrix_csv(path: str, header: bool = False, delimiter: str = ",") -> np.ndarray:
    """Parse a numeric CSV: rows are observations, columns features."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise GitestError(f"cannot read {path}: {exc}") from exc
    if header:
        lines = lines[1:]
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=2 if header else 1):
        if not line.strip():
            continue
        cells = line.split(delimiter)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise GitestError(f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
        row = []
        for col, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise GitestError(
                    f"{path}: row {lineno}, column {col}: not numeric: {cell.strip()!r}"
                ) from None
        rows.append(row)
    if not rows:
        raise GitestError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _add_score_flags(p: argparse.ArgumentParser, scheme: bool = True):
    cfg = ScoreConfig()
    if scheme:
        p.add_argument("--scheme", choices=SCHEMES, default=cfg.scheme)
    p.add_argument("--graph", choices=FAMILIES, default=cfg.graph_family,
                   help="graph family (either member of a similarity/dissimilarity pair)")
    p.add_argument("--k", type=neighbors, default=cfg.k,
                   help="neighbor count, or 'auto' for floor(sqrt(n))")
    p.add_argument("--lambda", dest="lam", type=float, default=cfg.lam,
                   help="hub penalty of the robust graphs")


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--delimiter", default=",")


def neighbors(text: str) -> int | str:
    """``--k``: an integer, or 'auto'."""
    return text if text == "auto" else int(text)  # a ValueError: "invalid neighbors value"


def alphas(text: str) -> list[float]:
    """``--sweep-alphas``: comma-separated exponents, each in (0, 1)."""
    values = [float(a) for a in text.split(",")]  # a ValueError: "invalid alphas value"
    for a in values:
        if not 0 < a < 1:  # also false for nan
            raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {a:g}")
    return values


def _score_config(args) -> ScoreConfig:
    return ScoreConfig(scheme=args.scheme, graph_family=args.graph, k=args.k, lam=args.lam)


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("GITEST_THREADS", "")
    if env.strip():
        try:
            threads = int(env)
        except ValueError:
            raise GitestError(f"GITEST_THREADS is not an integer: {env!r}") from None
        if threads < 1:
            raise GitestError(f"GITEST_THREADS must be at least 1, got {env!r}")
        return threads
    return os.cpu_count() or 1


def _result_table(d: dict) -> str:
    rows = [
        ("statistic", f"{d['statistic']:.6g}"),
        ("df", str(d["df"])),
        ("p_analytic", "-" if d["p_analytic"] is None else f"{d['p_analytic']:.6g}"),
        ("p_permutation", "-" if d["p_permutation"] is None else f"{d['p_permutation']:.6g}"),
        ("max_stat", f"{d['max_stat']:.6g}"),
        ("n", str(d["n"])),
        ("k", str(d["k"])),
        ("lambda", str(d["lambda"])),
        ("scheme", str(d["scheme"])),
    ]
    for comp, t in zip(d["components"], d["t_obs"]):
        rows.append((comp["name"], f"T={t:.6g} z={comp['z']:.4g} p={comp['p']:.6g}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows) + "\n"


def _result_csv(d: dict) -> str:
    row = {h: d[h] for h in ("statistic", "df", "p_analytic", "p_permutation", "max_stat",
                             "n", "k", "lambda", "scheme")}
    for comp in d["components"]:
        row[f"{comp['name']}_z"], row[f"{comp['name']}_p"] = comp["z"], comp["p"]
    return sim.to_csv([row], list(row))


def _load_pair(args) -> tuple[np.ndarray, np.ndarray]:
    x = read_matrix_csv(args.x, header=args.header, delimiter=args.delimiter)
    y = read_matrix_csv(args.y, header=args.header, delimiter=args.delimiter)
    if x.shape[0] != y.shape[0]:
        raise GitestError(
            f"paired samples must align: {args.x} has {x.shape[0]} rows, "
            f"{args.y} has {y.shape[0]} rows"
        )
    return x, y


def cmd_test(args) -> int:
    x, y = _load_pair(args)
    if args.n_perm is not None and args.method == "analytic":
        raise ValueError("--n-perm requires --method permutation or both")
    n_perm = {} if args.n_perm is None else {"n_perm": args.n_perm}  # else run_test's default
    result = run_test(x, y, _score_config(args), method=args.method, seed=args.seed,
                      threads=_threads(args), **n_perm)
    d = result.to_json_dict()
    if args.format == "json":
        print(json.dumps(d, indent=2))
    elif args.format == "table":
        sys.stdout.write(_result_table(d))
    else:
        sys.stdout.write(_result_csv(d))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.components and args.method == "permutation":
        raise ValueError("--components reports analytic p-values only; "
                         "drop --method permutation")
    long_format = args.sweep_alphas or args.components or args.plot_data
    if args.timing and long_format:
        raise ValueError("--timing applies to the power report only; the long format "
                         "has no runtime column")
    untuned = [s for s in args.setting if not s.startswith("tune_")]
    if args.sweep_alphas and untuned:
        raise ValueError(f"--sweep-alphas needs tune_* settings, got {', '.join(untuned)}")
    # every cell is built before the first replication, so a bad one fails first
    specs = [sim.SettingSpec(setting, n, p, seed=args.seed)
             for setting in args.setting
             for n in args.n or [sim.default_dimensions(setting)[0]]
             for p in args.p or [sim.default_dimensions(setting)[1]]]
    cells = [(spec, ScoreConfig(), "") for spec in specs]
    # one cell per alpha, at k = floor(n^alpha), in [1, n - 1] as n >= 4 and 0 < alpha < 1
    if args.sweep_alphas:
        cells = [(spec, ScoreConfig(k=int(spec.n ** a)), f"alpha={a:g}")
                 for spec in specs for a in args.sweep_alphas]
    estimates = [sim.estimate_power(spec, cfg=cfg, method=args.method, reps=args.reps,
                                    level=args.level) for spec, cfg, _ in cells]
    if long_format:
        columns = sim.TIDY_COLUMNS
        rows = [sim.tidy_row(e, name, power, param)
                for e, (_, _, param) in zip(estimates, cells)
                for name, power in ({**e.components, "GIT": e.power} if args.components
                                    else {"GIT": e.power}).items()]
    else:
        columns = sim.POWER_COLUMNS
        rows = sim.power_json(estimates, timing=args.timing)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        sys.stdout.write(sim.to_csv(rows, columns))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    x, y = _load_pair(args)
    cfg = _score_config(args)
    q = quadruple_from_samples(x, y, cfg)
    print(json.dumps(diagnostics(q).to_json_dict(), indent=2))
    return EXIT_OK


def cmd_graph(args) -> int:
    z = read_matrix_csv(args.x, header=args.header, delimiter=args.delimiter)
    D = sample_distances(z)
    k = ScoreConfig(k=args.k, lam=args.lam).resolve_k(z.shape[0])
    sys.stdout.write(dump_edges(union_graph(GRAPHS[args.graph](D, k, args.lam)), D))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gitest", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", help="test independence of two CSV samples")
    p_test.add_argument("--x", required=True, help="CSV of X observations (rows)")
    p_test.add_argument("--y", required=True, help="CSV of Y observations (rows)")
    _add_score_flags(p_test)
    _add_io_flags(p_test)
    p_test.add_argument("--method", choices=("analytic", "permutation", "both"),
                        default="analytic")
    p_test.add_argument("--n-perm", type=int, default=None)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--format", choices=("json", "table", "csv"), default="json")
    p_test.add_argument("--threads", type=int, default=None)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="Monte Carlo power / size over a grid",
                           description="Monte Carlo power / size over every setting x n x "
                           "p cell: setting outermost, then n, then p.")
    p_sim.add_argument("--setting", required=True, nargs="+", choices=sim.SETTING_IDS,
                       metavar="SETTING", help=f"one or more of: {', '.join(sim.SETTING_IDS)}")
    p_sim.add_argument("--n", type=int, nargs="+", help="sample sizes (default: per setting)")
    p_sim.add_argument("--p", type=int, nargs="+", help="dimensions (default: per setting)")
    p_sim.add_argument("--reps", type=int, default=200)
    p_sim.add_argument("--level", type=float, default=0.05)
    p_sim.add_argument("--method", choices=("analytic", "permutation"), default="analytic")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sim.add_argument("--sweep-alphas", type=alphas, default=[],
                       help="comma-separated exponents in (0, 1); one cell per exponent, "
                       "at k=floor(n^alpha)")
    p_sim.add_argument("--components", action="store_true",
                       help="power of RG1-RG4 and the combined test")
    p_sim.add_argument("--plot-data", action="store_true",
                       help="long format: one (series, param, power) row per cell")
    p_sim.add_argument("--timing", action="store_true",
                       help="include wall-clock runtime (breaks byte determinism)")
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="moment diagnostics for two CSV samples")
    p_diag.add_argument("--x", required=True)
    p_diag.add_argument("--y", required=True)
    _add_score_flags(p_diag)
    _add_io_flags(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_graph = sub.add_parser("graph", help="dump a neighbor graph as an edge list")
    p_graph.add_argument("--x", required=True, help="CSV of observations")
    _add_score_flags(p_graph, scheme=False)
    _add_io_flags(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GitestError as exc:
        print(f"gitest: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"gitest: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
