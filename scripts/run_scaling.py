#!/usr/bin/env python3
"""Time and peak memory of one analytic test as the sample size grows.

Runs ``run_test`` in the default configuration on the motivating setting at
each ``--n``.  Each n runs in a fresh process, so its peak resident set size
(``ru_maxrss``) belongs to that n alone; it includes the interpreter and the
imported libraries.

    python scripts/run_scaling.py --n 1000 3000 5000
"""

import argparse
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from gitest.inference import run_test
from gitest.simulate import SettingSpec, generate


def measure(n: int, p: int, seed: int) -> tuple[float, float]:
    """Seconds of one ``run_test`` and the process's peak RSS in MiB."""
    sample = generate(SettingSpec("motivating", n, p, seed))
    start = time.perf_counter()
    run_test(sample.x, sample.y)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", nargs="+", type=int, default=[1000, 3000])
    ap.add_argument("--p", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("n,p,seconds,peak_rss_mib", flush=True)
    for n in args.n:
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            seconds, peak = pool.submit(measure, n, args.p, args.seed).result()
        print(f"{n},{args.p},{seconds:.3f},{peak:.1f}", flush=True)


if __name__ == "__main__":
    main()
