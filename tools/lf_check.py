"""Check log2 k! = lgamma(k + 1) / ln 2 against the exact factorials.

Usage (from the repository root, under any installed Python 3.10 or later):

    python3 tools/lf_check.py [LIMIT]

For every k from 0 to LIMIT (default ``_LF_CHECKED`` = 2**17) it builds k!
exactly, one product at a time, and compares ``log2_factorial(k)`` with
``log2_int(k!)``. The sweep's pricing and ``finite_set_h0`` rest on every
such k lying within ``_LF_ERROR`` relative: the first one further off exits
non-zero with k named. Otherwise one line reports the worst relative error,
the k where it lies and that error in units in the last place of log2 k!,
then the interpreter and the time taken. It needs no pytest, so it runs
under interpreters that have none.
"""

from __future__ import annotations

import math
import platform
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from enumcode.analysis import _LF_CHECKED, _LF_ERROR, log2_factorial, log2_int  # noqa: E402


def check(limit: int) -> tuple[float, int]:
    """(worst relative error, its k) of log2_factorial over 0 <= k <= limit."""
    worst, worst_k = 0.0, 0
    factorial = 1
    for k in range(2, limit + 1):
        factorial *= k
        exact = log2_int(factorial)
        error = abs(log2_factorial(k) - exact) / exact
        if error > _LF_ERROR:
            raise SystemExit(f"log2_factorial({k}) lies {error:.3e} from log2 k!, past {_LF_ERROR:.3e}")
        if error > worst:
            worst, worst_k = error, k
    # 0! = 1! = 1, whose log2 lgamma gives as exactly 0
    for k in (0, 1):
        if log2_factorial(k) != 0.0:
            raise SystemExit(f"log2_factorial({k}) is {log2_factorial(k)}, not 0")
    return worst, worst_k


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else _LF_CHECKED
    start = perf_counter()
    worst, k = check(limit)
    ulps = worst * log2_factorial(k) / math.ulp(log2_factorial(k)) if k else 0.0
    print(
        f"lf_check: every k <= {limit} within {_LF_ERROR:.3e}; worst {worst:.3e} relative"
        f" ({ulps:.1f} ulp) at k={k}"
        f" on Python {platform.python_version()} in {perf_counter() - start:.1f} s"
    )


if __name__ == "__main__":
    main()
