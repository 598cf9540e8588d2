"""Parity between the pure-Python kernels and the compiled extension, and
the Kronecker ``conv_trunc`` (shared by both backends) against a
schoolbook reference."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetares import _kernels_py as kpy

try:
    from thetares import _kernels_cy as kcy
except ImportError:
    kcy = None

needs_ext = pytest.mark.skipif(kcy is None, reason="compiled kernels not built")


def rand_ints(rng, n, bits=64):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]


@needs_ext
def test_conv_parity():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_ints(rng, rng.randint(0, 30))
        b = rand_ints(rng, rng.randint(0, 30))
        assert kpy.conv(a, b) == kcy.conv(a, b)


def schoolbook_trunc(a, b, n):
    """Reference for conv_trunc: the first n coefficients of a*b, at most
    len(a) + len(b) - 1 of them, by the quadratic loop."""
    if not a or not b or n <= 0:
        return []
    out = [0] * min(n, len(a) + len(b) - 1)
    for i, ai in enumerate(a[: len(out)]):
        for j, bj in enumerate(b[: len(out) - i]):
            out[i + j] += ai * bj
    return out


def test_conv_trunc_matches_schoolbook():
    rng = random.Random(2)
    cases = [
        ([], [], 3), ([], [1, 2], 3), ([1, 2], [], 3),
        ([1, 2], [3], 0), ([1, 2], [3], -4),
        ([0, 0, 0], [5, -7], 4), ([0], [0], 1), ([-1], [-1], 1),
        ([0, 0, 3, -1, 0, 0], [0, -2, 9, 0], 20),
        ([1] * 5, [-1] * 7, 100),
    ]
    for length in (1, 2, 3, 4, 7, 8, 15, 16, 17, 255, 256):
        # products at their largest for the entries' bit lengths
        for bits in (1, 7, 8, 63, 64):
            top = (1 << bits) - 1
            cases.append(([top] * length, [top] * length, length))
            cases.append(([top] * length, [-top] * length, length))
            cases.append(([-(1 << bits)] * length, [-(1 << bits)] * length, length))
    for _ in range(300):
        la, lb = rng.randint(0, 40), rng.randint(0, 40)
        a = rand_ints(rng, la, rng.choice((1, 2, 8, 31, 64, 65, 500, 4000)))
        b = rand_ints(rng, lb, rng.choice((1, 3, 16, 64, 200)))
        if a and rng.random() < 0.3:
            a[0] = a[-1] = 0
        cases.append((a, b, rng.randint(-2, la + lb + 3)))
    for _ in range(4):
        cases.append((rand_ints(rng, 800, 5), rand_ints(rng, 800, 5), rng.randint(700, 1700)))
    for a, b, n in cases:
        assert kpy.conv_trunc(a, b, n) == schoolbook_trunc(a, b, n), (a, b, n)


@st.composite
def operands(draw):
    """A signed coefficient list: 0-800 entries, entries of 1-4000 bits
    (the longer the list, the shorter its entries), with optional runs of
    zeros at either end."""
    length = draw(st.integers(0, 800))
    bits = draw(st.integers(1, min(4000, 200_000 // max(length, 1))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nums = rand_ints(rng, length, bits)
    lead = draw(st.integers(0, length))
    trail = draw(st.integers(0, length - lead))
    nums[:lead] = [0] * lead
    nums[length - trail:] = [0] * trail
    return nums


@settings(deadline=None, derandomize=True, max_examples=60)
@given(operands(), operands(), st.integers(-3, 1700))
def test_conv_trunc_property(a, b, n):
    assert kpy.conv_trunc(a, b, n) == schoolbook_trunc(a, b, n)


@needs_ext
def test_divexact_parity():
    rng = random.Random(3)
    for _ in range(50):
        q = rand_ints(rng, rng.randint(1, 20))
        j = rng.randint(1, 12)
        p = kpy.conv(q, [1, -j])
        assert kpy.divexact_linear(p, j) == kcy.divexact_linear(p, j) == q
        broken = list(p)
        broken[-1] += 1
        assert kpy.divexact_linear(broken, j) is None
        assert kcy.divexact_linear(broken, j) is None


@needs_ext
def test_eval_geom_inv_parity():
    rng = random.Random(4)
    for _ in range(50):
        nums = rand_ints(rng, rng.randint(1, 20))
        j = rng.randint(1, 12)
        assert kpy.eval_at_inv(nums, j) == kcy.eval_at_inv(nums, j)
        e = rng.randint(1, 6)
        n = rng.randint(0, 25)
        assert kpy.geom_coeffs(j, e, n) == kcy.geom_coeffs(j, e, n)
        f = rand_ints(rng, rng.randint(1, 15), bits=8)
        if f[0]:
            assert kpy.series_inv_cleared(f, n) == kcy.series_inv_cleared(f, n)
        den = rng.randint(1, 1 << 30)
        assert kpy.content_gcd(nums, den) == kcy.content_gcd(nums, den)


def _backend_of(env_value):
    import os

    code = "import thetares.backend as b; print(b.BACKEND)"
    env = dict(os.environ, THETARES_BACKEND=env_value)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    return out.stdout.strip()


def test_env_var_forces_pure_python():
    assert _backend_of("py") == "py"


@needs_ext
def test_env_var_forces_compiled():
    assert _backend_of("cy") == "cy"


def test_geom_coeffs_are_binomials():
    from math import comb

    for j in (1, 2, 5):
        for e in (1, 2, 4):
            got = kpy.geom_coeffs(j, e, 12)
            assert got == [comb(i + e - 1, e - 1) * j**i for i in range(12)]
