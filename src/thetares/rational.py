"""Exact rationals and dense univariate polynomials over them.

``Rat`` is the stdlib :class:`fractions.Fraction`, which already
guarantees the canonical form everything here relies on: fully reduced,
positive denominator, zero stored as 0/1.

The wire format of a coefficient (cache files, JSON output) is the
string ``str(Fraction)`` gives: "p/q" fully reduced with q > 1, or "p".
:func:`parse_rationals` and :func:`format_rationals` are its only codec;
they work on integer numerators over one shared denominator and never
build a ``Fraction``.

A :class:`Poly` keeps its coefficients as integer numerators over one
shared positive denominator with gcd(content, denominator) = 1, so the
hot operations (convolution, synthetic division, root tests) run on
plain ints through :mod:`thetares.backend`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from . import backend

Rat = Fraction


class NonDivisibleError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


def _as_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# int <-> decimal str conversions longer than this many digits raise
# ValueError (0 = no limit; Python before 3.10.7 has no limit)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _parse_int(text: str, limit: int) -> int:
    if not limit or len(text) <= limit:
        return int(text)
    # too long for one int(): split the digits in halves, recursively
    negative = text[0] == "-"
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:32]}...")
    k = len(digits) // 2
    n = _parse_int(digits[:-k], limit) * 10**k + _parse_int(digits[-k:], limit)
    return -n if negative else n


def _format_int(n: int, limit: int) -> str:
    # fewer than 3*limit bits means at most limit digits
    if not limit or n.bit_length() < 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _format_int(-n, limit)
    k = int(n.bit_length() * 0.30103) // 2  # half the digits (log10(2) = 0.30103)
    hi, lo = divmod(n, 10**k)
    return _format_int(hi, limit) + _format_int(lo, limit).zfill(k)


def parse_rationals(strings) -> tuple:
    """Wire strings "p" or "p/q" -> (numerators, den).

    den is the lcm of the q's and the i-th value is numerators[i] / den;
    the input need not be reduced.  Raises ValueError for a malformed
    string or q <= 0 and TypeError for a value that is not a string.
    """
    limit = _max_str_digits()
    pairs = []
    for s in strings:
        if not isinstance(s, str):
            raise TypeError(f"expected a rational string, got {type(s).__name__}")
        p, slash, q = s.partition("/")
        q = _parse_int(q, limit) if slash else 1
        if q <= 0:
            raise ValueError(f"denominator must be positive in {s[:32]!r}")
        pairs.append((_parse_int(p, limit), q))
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def format_rationals(nums, den: int) -> list:
    """Inverse of :func:`parse_rationals`: ``str(Fraction(c, den))`` for
    each c, for any den > 0, with no limit on the number of digits."""
    limit = _max_str_digits()
    if den == 1:
        return [_format_int(c, limit) for c in nums]
    out = []
    for c in nums:
        g = gcd(c, den)
        p = _format_int(c // g, limit)
        out.append(p if g == den else f"{p}/{_format_int(den // g, limit)}")
    return out


def _normalize(nums: list, den: int):
    """Canonical cleared form: trailing zeros stripped, den > 0,
    gcd(content, den) = 1; the zero polynomial is ((), 1)."""
    if den == 0:
        raise ZeroDivisionError("polynomial denominator is zero")
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return (), 1
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    g = backend.content_gcd(nums, den)
    if g > 1:
        den //= g
        nums = [c // g for c in nums]
    return tuple(nums), den


class Poly:
    """Dense univariate polynomial over Rat; index = exponent.

    Immutable.  The stored coefficient list never has a trailing zero;
    the zero polynomial stores an empty list and reports degree -inf.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable = ()):
        fracs = [_as_rat(c) for c in coeffs]
        if fracs:
            den = lcm(*(c.denominator for c in fracs))
            nums = [c.numerator * (den // c.denominator) for c in fracs]
        else:
            den, nums = 1, []
        self._nums, self._den = _normalize(nums, den)

    @classmethod
    def _make(cls, nums: tuple, den: int) -> "Poly":
        # caller promises canonical form
        p = object.__new__(cls)
        p._nums = nums
        p._den = den
        return p

    @classmethod
    def from_cleared(cls, nums, den: int) -> "Poly":
        """Build from integer numerators over a shared denominator."""
        p = object.__new__(cls)
        p._nums, p._den = _normalize(list(nums), den)
        return p

    @classmethod
    def from_strings(cls, strings) -> "Poly":
        """Parse the wire format (see :func:`parse_rationals`)."""
        return cls.from_cleared(*parse_rationals(strings))

    # -- inspection ------------------------------------------------------

    @property
    def int_coeffs(self) -> tuple:
        """Integer numerators over :attr:`int_den`."""
        return self._nums

    @property
    def int_den(self) -> int:
        return self._den

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._nums)

    @property
    def degree(self):
        """Degree; -inf for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else float("-inf")

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def to_strings(self) -> list:
        """Coefficients in the wire format, constant term first."""
        return format_rationals(self._nums, self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        return NotImplemented

    def __hash__(self):
        return hash((self._nums, self._den))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        den = lcm(self._den, other._den)
        fa = den // self._den
        fb = den // other._den
        out = [c * fa for c in self._nums]
        bn = other._nums
        if len(bn) > len(out):
            out.extend([0] * (len(bn) - len(out)))
        for i in range(len(bn)):
            out[i] += bn[i] * fb
        return Poly.from_cleared(out, den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._make(tuple(-c for c in self._nums), self._den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly.from_cleared(
                backend.conv(list(self._nums), list(other._nums)),
                self._den * other._den,
            )
        c = _as_rat(other)
        if not c or not self._nums:
            return Poly()
        return Poly.from_cleared(
            [n * c.numerator for n in self._nums], self._den * c.denominator
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        c = _as_rat(other)
        return self.__mul__(Fraction(c.denominator, c.numerator))

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- calculus and evaluation ------------------------------------------

    def diff(self) -> "Poly":
        """Formal derivative."""
        return Poly.from_cleared(
            [i * c for i, c in enumerate(self._nums)][1:], self._den
        )

    def __call__(self, point) -> Fraction:
        """Exact evaluation (Horner on the cleared form)."""
        if not self._nums:
            return Fraction(0)
        r = _as_rat(point)
        rn, rd = r.numerator, r.denominator
        acc = 0
        rp = 1
        for c in reversed(self._nums):
            acc = acc * rn + c * rp
            rp *= rd
        return Fraction(acc, self._den * (rp // rd))

    def divexact_linear(self, j: int) -> "Poly":
        """Exact quotient by (1 - j*v); requires p(1/j) = 0."""
        if not isinstance(j, int) or j < 1:
            raise ValueError("factor index must be a positive integer")
        if not self._nums:
            return self
        q = backend.divexact_linear(list(self._nums), j)
        if q is None:
            raise NonDivisibleError(f"(1 - {j}v) does not divide the polynomial")
        return Poly.from_cleared(q, self._den)

    def shift(self, k: int) -> "Poly":
        """Multiply by v**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0 or not self._nums:
            return self
        return Poly._make((0,) * k + self._nums, self._den)

    # -- printing ----------------------------------------------------------

    def to_str(self, var: str = "v") -> str:
        if not self._nums:
            return "0"
        parts = []
        strings = format_rationals(self._nums, self._den)
        for i in range(len(strings) - 1, -1, -1):
            c = strings[i]
            if c == "0":
                continue
            sign, mag = ("-", c[1:]) if c[0] == "-" else ("+" if parts else "", c)
            if i == 0:
                body = mag
            else:
                head = "" if mag == "1" else mag
                body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly('{self.to_str()}')"
