"""The integer kernels in ``thetares.backend``: the Kronecker
``conv_trunc`` against a schoolbook reference, and the evaluation and
division at v = 1/j behind every root test and residue."""

import inspect
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import thetares
from thetares import backend


def rand_ints(rng, n, bits=64):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]


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
        assert backend.conv_trunc(a, b, n) == schoolbook_trunc(a, b, n), (a, b, n)


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
    assert backend.conv_trunc(a, b, n) == schoolbook_trunc(a, b, n)


def test_benchmark_contract():
    # perfbench records thetares.BACKEND and wraps these kernels by name
    assert thetares.BACKEND == "py"
    for name in ("conv", "conv_trunc", "series_inv_cleared", "eval_at_inv",
                 "divexact_linear", "content_gcd"):
        fn = getattr(backend, name)
        assert inspect.isfunction(fn) and fn.__module__ == "thetares.backend", name


class TestEvalAtInv:
    """eval_at_inv(nums, j) = j**(n-1) * p(1/j), n = len(nums)."""

    def test_root(self):
        assert backend.eval_at_inv([1, -2], 2) == 0
        assert backend.eval_at_inv([1, 0, -1], 1) == 0
        assert backend.eval_at_inv([1, 0, 1], 1) != 0

    def test_value(self):
        # 3**2 * (1 + (1/3)**2) = 10
        assert backend.eval_at_inv([1, 0, 1], 3) == 10

    def test_matches_fraction_and_vanishes_exactly_at_roots(self):
        rng = random.Random(1234)
        for _ in range(200):
            nums = rand_ints(rng, rng.randint(1, 9), 8)
            j = rng.randint(1, 12)
            value = sum(Fraction(c, j**i) for i, c in enumerate(nums))
            got = backend.eval_at_inv(nums, j)
            assert got == value * j ** (len(nums) - 1)
            assert (got == 0) == (value == 0)
            root = backend.conv(nums, [1, -j])  # (1 - j v) p has a root at 1/j
            assert backend.eval_at_inv(root, j) == 0
            assert backend.eval_at_inv(root + [0, 0], j) == 0


class TestDivexactLinear:
    """divexact_linear(nums, j): q with (1 - j v) q = nums, else None."""

    def test_one_minus_v(self):
        assert backend.divexact_linear([1, 0, -1], 1) == [1, 1]

    def test_one_minus_2v(self):
        assert backend.divexact_linear([1, -4, 4], 2) == [1, -2]

    def test_not_divisible(self):
        assert backend.divexact_linear([1, 0, 1], 1) is None
        assert backend.divexact_linear([1, 0, -1], 2) is None

    def test_round_trip(self):
        rng = random.Random(1729)
        for _ in range(200):
            q = rand_ints(rng, rng.randint(1, 9), 40)
            j = rng.randint(1, 20)
            p = backend.conv(q, [1, -j])
            assert backend.divexact_linear(p, j) == q
            # trailing zeros come back as trailing zeros of the quotient
            assert backend.divexact_linear(p + [0, 0], j) == q + [0, 0]
            p[0] += 1
            assert backend.divexact_linear(p, j) is None
