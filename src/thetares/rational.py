"""Exact rationals and dense univariate polynomials over them.

``Rat`` is the stdlib :class:`fractions.Fraction`, which already
guarantees the canonical form everything here relies on: fully reduced,
positive denominator, zero stored as 0/1.

The output format of a coefficient (JSON and pretty output) is the
string ``str(Fraction)`` gives: "p/q" fully reduced with q > 1, or "p".
:func:`format_rationals` writes it from integer numerators over one
shared denominator, builds no ``Fraction`` and has no digit limit.
Nothing in the package parses it back: the cache stores the cleared
integers themselves.

Every exact value in the package (a :class:`Poly`, a q-series, a cache
entry) is kept in one cleared form: integer numerators over one
shared positive denominator with gcd(content, denominator) = 1, so the
hot operations (convolution, synthetic division, root tests) run on
plain ints through :mod:`thetares.backend`.  This module owns that form:
:func:`clear` puts values over one denominator, :func:`canonical` reduces
it, and :func:`power` raises any such value by repeated squaring.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from . import backend

Rat = Fraction


def _as_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# int <-> decimal str conversions longer than this many digits raise
# ValueError (0 = no limit; Python before 3.10.7 has no limit)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _format_int(n: int, limit: int) -> str:
    # fewer than 3*limit bits means at most limit digits
    if not limit or n.bit_length() < 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _format_int(-n, limit)
    k = int(n.bit_length() * 0.30103) // 2  # half the digits (log10(2) = 0.30103)
    hi, lo = divmod(n, 10**k)
    return _format_int(hi, limit) + _format_int(lo, limit).zfill(k)


def format_rationals(nums, den: int) -> list:
    """``str(Fraction(c, den))`` for each c, for any den > 0, with no
    limit on the number of digits."""
    limit = _max_str_digits()
    if den == 1:
        return [_format_int(c, limit) for c in nums]
    out = []
    for c in nums:
        g = gcd(c, den)
        p = _format_int(c // g, limit)
        out.append(p if g == den else f"{p}/{_format_int(den // g, limit)}")
    return out


def clear(pairs: list) -> tuple:
    """(numerator, denominator) pairs -> (numerators over their lcm, the lcm)."""
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def canonical(nums, den: int) -> tuple:
    """The cleared form of nums / den: den > 0, gcd(content, den) = 1, and
    den = 1 when every numerator is 0.  Returns (tuple of numerators, den)."""
    if den == 0:
        raise ZeroDivisionError("denominator is zero")
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    g = backend.content_gcd(nums, den)
    if g > 1:
        den //= g
        nums = [c // g for c in nums]
    return tuple(nums), den


def power(base, e: int, one):
    """base**e by repeated squaring; ``one``, the unit, is returned for e = 0
    and never multiplied."""
    if not isinstance(e, int) or e < 0:
        raise ValueError("powers must be nonnegative integers")
    out = None
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return one if out is None else out


def _normalize(nums: list, den: int):
    """Trailing zeros stripped, then :func:`canonical`; the zero polynomial
    is ((), 1)."""
    while nums and nums[-1] == 0:
        nums.pop()
    return canonical(nums, den)


class Poly:
    """Dense univariate polynomial over Rat; index = exponent.

    Immutable.  The stored coefficient list never has a trailing zero;
    the zero polynomial stores an empty list and reports degree -inf.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable = ()):
        self._nums, self._den = _normalize(
            *clear([_as_rat(c).as_integer_ratio() for c in coeffs]))

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
        """Coefficients in the output format, constant term first."""
        return format_rationals(self._nums, self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        return NotImplemented

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

    def __truediv__(self, other):
        c = _as_rat(other)
        return self.__mul__(Fraction(c.denominator, c.numerator))

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly._make((1,), 1))

    # -- calculus ----------------------------------------------------------

    def diff(self) -> "Poly":
        """Formal derivative."""
        return Poly.from_cleared(
            [i * c for i, c in enumerate(self._nums)][1:], self._den
        )

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
