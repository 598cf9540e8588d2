"""Truncated q-expansions (q = e^(pi*i*tau)) and elementary oracles.

This is the independent verification side of the package: theta
constants, the weight-2 generators x and y, the logarithmic
half-derivative t, the weight-raising operator D*, the discriminant from
its product expansion, and the arithmetic functions r2, sigma, tau.  The
discriminant is built from the pentagonal-number series, not from x and
y, so the identity Delta = x^2 y^2 (y-x)^2 / 256 is a genuine
cross-check between unrelated constructions.

Convention: the coefficient index is the exponent of q = e^(pi*i*tau),
so the discriminant occupies even indices only and tau(n) sits at 2n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from . import backend
from .families import Family
from .rational import (
    Poly,
    Rat,
    _as_rat,
    canonical,
    clear,
    format_rationals,
    power,
)

DEFAULT_TRUNC = 128


class TruncationError(ValueError):
    """A coefficient beyond the known truncation was requested."""


class OracleConsistencyError(RuntimeError):
    """Two independent computations of the same oracle disagreed."""


class QSeries:
    """Power series in q known exactly up to and including q**trunc.

    Stored like Poly as integer numerators over one shared denominator,
    but at fixed length trunc + 1: coefficients beyond the truncation are
    unknown, not zero.  Products truncate to the shorter operand.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs, trunc: int | None = None):
        nums, den = clear([_as_rat(c).as_integer_ratio() for c in coeffs])
        # cut or zero-pad to trunc + 1 terms (default: as many as given)
        if trunc is None:
            if not nums:
                raise ValueError("a q-series needs at least the constant term")
            trunc = len(nums) - 1
        if trunc < 0:
            raise ValueError("truncation must be nonnegative")
        nums = nums[: trunc + 1]
        nums.extend([0] * (trunc + 1 - len(nums)))
        self._nums, self._den = canonical(nums, den)

    @classmethod
    def _make(cls, nums, den: int) -> "QSeries":
        # the length of nums is part of the value: no zeros are stripped
        s = object.__new__(cls)
        s._nums, s._den = canonical(nums, den)
        return s

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls._make((0,) * (trunc + 1), 1)

    @classmethod
    def const(cls, value, trunc: int) -> "QSeries":
        return cls([value], trunc=trunc)

    # -- inspection --------------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def coeff(self, n: int) -> Rat:
        if not 0 <= n <= self.trunc:
            raise TruncationError(f"coefficient {n} beyond truncation {self.trunc}")
        return Fraction(self._nums[n], self._den)

    def __bool__(self) -> bool:
        return any(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            return self._nums == other._nums and self._den == other._den
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other: "QSeries"):
        m = min(len(self._nums), len(other._nums))
        den = lcm(self._den, other._den)
        fa = den // self._den
        fb = den // other._den
        return m, den, fa, fb

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        m, den, fa, fb = self._common(other)
        nums = [self._nums[i] * fa + other._nums[i] * fb for i in range(m)]
        return QSeries._make(nums, den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        m, den, fa, fb = self._common(other)
        nums = [self._nums[i] * fa - other._nums[i] * fb for i in range(m)]
        return QSeries._make(nums, den)

    def __neg__(self):
        return QSeries._make([-c for c in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            m = min(len(self._nums), len(other._nums))
            nums = backend.conv_trunc(self._nums, other._nums, m)
            nums.extend([0] * (m - len(nums)))
            return QSeries._make(nums, self._den * other._den)
        c = _as_rat(other)
        return QSeries._make(
            [n * c.numerator for n in self._nums], self._den * c.denominator
        )

    def __pow__(self, e: int) -> "QSeries":
        return power(self, e, QSeries.const(1, self.trunc))

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        if not self._nums[0]:
            raise ZeroDivisionError("cannot invert a q-series with zero constant term")
        # 1/(N/d) = d/N, with 1/N cleared over f0^n by the kernel
        nums, den = backend.series_inv_cleared(list(self._nums), len(self._nums))
        return QSeries._make([self._den * c for c in nums], den)

    def halfdeg(self) -> "QSeries":
        """Coefficient n multiplied by n/2: the operator (1/2 pi i) d/d tau."""
        return QSeries._make(
            [i * c for i, c in enumerate(self._nums)], 2 * self._den
        )

    def shift(self, s: int) -> "QSeries":
        """Multiply by q**s; the known window grows to trunc + s."""
        if s < 0:
            raise ValueError("shift must be nonnegative")
        return QSeries._make((0,) * s + self._nums, self._den)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"trunc": self.trunc, "coeffs": format_rationals(self._nums, self._den)}

    def __str__(self) -> str:
        shown = ", ".join(format_rationals(self._nums[:9], self._den))
        tail = ", ..." if self.trunc >= 9 else ""
        return f"q-series[{shown}{tail}] (trunc {self.trunc})"

    __repr__ = __str__


# -- base series ---------------------------------------------------------------


@lru_cache(maxsize=None)
def theta_series(kind: int, trunc: int) -> QSeries:
    """Theta constant: 1 + 2 sum q^(n^2) (kind 3) or its alternating
    version with sign (-1)^n (kind 4)."""
    if kind not in (3, 4):
        raise ValueError("theta kind must be 3 or 4")
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    nums = [0] * (trunc + 1)
    nums[0] = 1
    n = 1
    while n * n <= trunc:
        nums[n * n] = 2 if (kind == 3 or n % 2 == 0) else -2
        n += 1
    return QSeries._make(nums, 1)


@lru_cache(maxsize=None)
def xy_series(trunc: int):
    """The weight-2 generators: x = -theta4^4 and
    y = 16 q (sum_{n>=0} q^(n^2+n))^4."""
    x = -(theta_series(4, trunc) ** 4)
    if trunc == 0:
        return x, QSeries.zero(0)
    nums = [0] * trunc
    n = 0
    while n * n + n <= trunc - 1:
        nums[n * n + n] = 1
        n += 1
    inner = QSeries._make(nums, 1)
    y = (inner**4 * 16).shift(1)
    return x, y


@lru_cache(maxsize=None)
def u_series(trunc: int) -> QSeries:
    """The Hauptmodul u = y/x, through inversion of x."""
    x, y = xy_series(trunc)
    return y * x.inverse()


@lru_cache(maxsize=None)
def t_series(trunc: int) -> QSeries:
    """t = (1/2 pi i) d(log theta)/d tau as a q-series."""
    th = theta_series(3, trunc)
    return th.halfdeg() * th.inverse()


def dstar(f: QSeries, weight) -> QSeries:
    """Weight-raising derivative D*f = (1/2 pi i) f' - 2*weight*t*f."""
    t = t_series(f.trunc)
    return f.halfdeg() - f * t * (2 * Fraction(weight))


@lru_cache(maxsize=None)
def delta_series(trunc: int) -> QSeries:
    """The discriminant q^2 prod (1 - q^(2n))^24, from the
    pentagonal-number expansion of the product (independent of x, y)."""
    if trunc < 2:
        raise ValueError("the discriminant starts at q^2; need trunc >= 2")
    n = trunc - 2
    nums = [0] * (n + 1)
    j = 0
    while True:
        hit = False
        for jj in (j, -j) if j else (0,):
            g = jj * (3 * jj - 1)  # 2 * pentagonal number
            if g <= n:
                nums[g] += -1 if j % 2 else 1
                hit = True
        if not hit:
            break
        j += 1
    euler = QSeries._make(nums, 1)
    return (euler**24).shift(2)


def eval_homogeneous(p: Poly, xpow, y: QSeries) -> QSeries:
    """x^d p(y/x) = sum_i c_i x^(d-i) y^i, d = deg p, by one Horner pass in y
    on cleared numerators: h = c_d, then h <- h y + c_i x^(d-i) down to
    i = 0, with x^j = ``xpow[j]`` (integer coefficients) and a denominator e
    of y carried as e^(d-i).  x is never inverted and the result is put in
    canonical form once; it truncates to the shortest series used."""
    cs = p.int_coeffs
    d = len(cs) - 1
    if any(xpow[j]._den != 1 for j in range(1, d + 1)):
        raise ValueError("the powers of x must have integer coefficients")
    m = min([len(y._nums)] + [len(xpow[j]._nums) for j in range(1, d + 1)])
    h = [cs[d] if cs else 0] + [0] * (m - 1)
    ep = 1  # y._den ** (d - i)
    for i in range(d - 1, -1, -1):
        h = backend.conv_trunc(h, y._nums, m)  # m terms: len(h) = m <= len(y)
        ep *= y._den
        c = cs[i] * ep
        if c:
            h = [a + c * b for a, b in zip(h, xpow[d - i]._nums)]
    return QSeries._make(h, p.int_den * ep)


@lru_cache(maxsize=None)
def cf_series(family: Family, trunc: int) -> QSeries:
    """q-expansion of the family's form.

    Multiplicative families are products of integer powers of the three
    theta fourth-powers (y = theta2^4, -x = theta4^4, y - x = theta3^4),
    so fractional b and c still give integral exponents 4b and 4c.
    """
    if family.kind == "mult":
        out = QSeries.const(1, trunc)
        if family.a:
            out = out * (xy_series(trunc)[1] ** family.a)
        if family.b4:
            out = out * (theta_series(4, trunc) ** family.b4)
        if family.c4:
            out = out * (theta_series(3, trunc) ** family.c4)
        return out
    x, y = xy_series(trunc)
    out = QSeries.zero(trunc)
    for i, j, c in family.monomials:
        out = out + (x**i) * (y**j) * c
    return out


def cf_coeff(family: Family, n: int, trunc: int = DEFAULT_TRUNC) -> Rat:
    """Coefficient of q^n in the family's form."""
    if n > trunc:
        raise TruncationError(f"coefficient {n} beyond truncation {trunc}")
    return cf_series(family, trunc).coeff(n)


# -- elementary oracles -----------------------------------------------------


def r2_count(n: int) -> int:
    """Number of (a, b) in Z^2 with a^2 + b^2 = n, computed two ways
    (lattice enumeration and 4(d_1(n) - d_3(n))) which must agree."""
    if n < 1:
        raise ValueError("n must be positive")
    lattice = 0
    r = isqrt(n)
    for a in range(-r, r + 1):
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            lattice += 1 if b == 0 else 2
    divisor = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            for e in {d, n // d}:
                rem = e % 4
                if rem == 1:
                    divisor += 1
                elif rem == 3:
                    divisor -= 1
    divisor *= 4
    if lattice != divisor:
        raise OracleConsistencyError(
            f"r2({n}): lattice count {lattice} != divisor formula {divisor}"
        )
    return lattice


def sigma1(n: int) -> int:
    """Sum of the positive divisors."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def ramanujan_tau(n: int) -> int:
    """tau(n), read off the pentagonal-product discriminant at q^(2n)."""
    if n < 1:
        raise ValueError("n must be positive")
    value = delta_series(2 * n).coeff(2 * n)
    assert value.denominator == 1
    return int(value)
