"""gitest benchmark: end-to-end and per-layer timings at a fixed seed.

    python3 perfbench/run.py --workload large_test --seed 1 --seconds 56 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Workloads (see workloads.py) are closed loops: one process, one
client, library calls back to back with ``threads=1`` and BLAS pinned to one
thread.

``--trace 0`` times the workload's call for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the workload's call once more with a
span around every call between the library's layers (see layers.py) and
reports the per-layer metrics.  Every output is checked: against the
stored references when the seed has them, by invariants otherwise.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is first imported
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true",
                    help="store this seed's outputs as the references (needs --trace 1)")
    return ap.parse_args(argv)


def metadata(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gitest" / "__init__.py").is_file():
        print(f"perfbench: no gitest sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: these modules import gitest from SRC
    import checks
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_references and not args.trace:
        print("perfbench: --write-references needs --trace 1", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    refs = checks.load_references()
    ref = checks.reference_for(refs, wl.name, args.seed)
    gate = harness.Gate()
    if args.trace:
        metrics, detail = harness.traced_run(wl, args, refs, gate)
    else:
        metrics, detail = harness.timed_run(wl, args, ref, gate)
    detail["meta"] = metadata(args)
    detail["meta"]["references"] = ref is not None or args.write_references
    detail["problems"] = gate.problems
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
