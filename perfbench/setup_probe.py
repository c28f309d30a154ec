"""Set-up cost: import the package and finish one small warm-up call.

Run as a script, it prints the seconds this took in a fresh interpreter,
counted from before the first import.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def warm_up():
    import numpy as np

    from gitest import run_test

    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 5))
    run_test(x, np.abs(x) + rng.standard_normal((20, 5)))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    warm_up()
    print(repr(time.perf_counter() - T0))
