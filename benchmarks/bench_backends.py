#!/usr/bin/env python3
"""Compare the compiled kernels against the pure-Python fallback.

Two views:

* kernel microbenchmarks -- both backends imported side by side and fed
  identical inputs shaped like real recurrence workloads (long integer
  coefficient lists with a few hundred to a few thousand bits per entry);
* an end-to-end sequence build, run in a subprocess per backend since the
  backend is fixed at import time (THETARES_BACKEND=py|cy).

Usage: python3 benchmarks/bench_backends.py [--repeat N] [--m-max M]
"""

import argparse
import os
import random
import subprocess
import sys
import time

from thetares import _kernels_py

try:
    from thetares import _kernels_cy
except ImportError:
    _kernels_cy = None


def rand_ints(rng, n, bits):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]


def time_call(fn, args, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_cases():
    rng = random.Random(20260810)
    long_a = rand_ints(rng, 600, 1500)
    short_b = rand_ints(rng, 60, 200)
    divided = _kernels_py.conv(long_a, [1, -7])
    inv_input = [1] + rand_ints(rng, 127, 64)
    return [
        ("conv 600x60 (recurrence add)", "conv", (long_a, short_b)),
        ("divexact_linear deg 600", "divexact_linear", (divided, 7)),
        ("eval_at_inv deg 600", "eval_at_inv", (long_a, 29)),
        ("geom_coeffs e=21 n=600", "geom_coeffs", (4, 21, 600)),
        ("series_inv trunc 128", "series_inv_cleared", (inv_input, 128)),
        ("content_gcd deg 600", "content_gcd", (long_a, 1 << 200)),
    ]


def run_micro(repeat):
    print(f"{'kernel':<34} {'pure py':>10} {'compiled':>10} {'speedup':>8}")
    for label, name, args in kernel_cases():
        t_py = time_call(getattr(_kernels_py, name), args, repeat)
        if _kernels_cy is None:
            print(f"{label:<34} {t_py * 1e3:>8.2f}ms {'n/a':>10} {'n/a':>8}")
            continue
        t_cy = time_call(getattr(_kernels_cy, name), args, repeat)
        print(
            f"{label:<34} {t_py * 1e3:>8.2f}ms {t_cy * 1e3:>8.2f}ms "
            f"{t_py / t_cy:>7.2f}x"
        )


SEQ_SNIPPET = """
import time
from thetares import THETA2, rec_sequence, backend
t0 = time.perf_counter()
rec_sequence(THETA2, {m_max})
print(f"{{backend.BACKEND}} {{time.perf_counter() - t0:.3f}}")
"""


def run_sequence(m_max):
    print(f"\ntheta^2 sequence to m = {m_max} (one subprocess per backend):")
    backends = ["py"] + (["cy"] if _kernels_cy is not None else [])
    times = {}
    for name in backends:
        env = dict(os.environ, THETARES_BACKEND=name)
        out = subprocess.run(
            [sys.executable, "-c", SEQ_SNIPPET.format(m_max=m_max)],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()
        times[out[0]] = float(out[1])
        print(f"  {out[0]}: {out[1]}s")
    if len(times) == 2:
        print(f"  speedup: {times['py'] / times['cy']:.2f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--m-max", type=int, default=25)
    parser.add_argument("--skip-sequence", action="store_true")
    args = parser.parse_args()
    if _kernels_cy is None:
        print("note: compiled kernels unavailable; showing pure-Python only\n")
    run_micro(args.repeat)
    if not args.skip_sequence:
        run_sequence(args.m_max)


if __name__ == "__main__":
    main()
