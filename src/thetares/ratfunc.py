"""Rational functions N(v) / prod_j (1 - j*v)**e_j.

Every sequence this package computes lives in this shape, so the
denominator is kept factored and never expanded: pole orders are read
off the factor list and residues reduce to two exact evaluations.
Values are immutable and fully reduced (no factor of the denominator
divides the numerator): the public constructor reduces by root tests at
each v = 1/j, `RatFunc._make` trusts its caller (the recurrence).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import backend
from .rational import Poly, Rat


class HigherOrderPoleError(ArithmeticError):
    """A residue was requested at a pole of order two or more."""


@lru_cache(maxsize=None)
def edge_factor(j: int, e: int = 1) -> Poly:
    """(1 - j*v)**e."""
    return Poly([1, -j]) ** e


def _reduce(num: Poly, den: dict):
    if not num:
        return num, ()
    out = []
    for j in sorted(den):
        e = den[j]
        while e and backend.eval_at_inv(list(num.int_coeffs), j) == 0:
            num = num.divexact_linear(j)
            e -= 1
        if e:
            out.append((j, e))
    return num, tuple(out)


class RatFunc:
    """num / prod (1 - j*v)**e_j in reduced factored form."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly, factors=()):
        den = {}
        for j, e in factors:
            if not isinstance(j, int) or j < 1:
                raise ValueError(f"factor index must be a positive integer, got {j!r}")
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"factor exponent must be a positive integer, got {e!r}")
            if j in den:
                raise ValueError(f"duplicate factor index {j}")
            den[j] = e
        self._num, self._den = _reduce(num, den)

    @classmethod
    def _make(cls, num: Poly, factors: tuple) -> "RatFunc":
        # caller promises reduced form: factors sorted by j, none dividing num
        f = object.__new__(cls)
        f._num, f._den = num, factors
        return f

    # -- inspection --------------------------------------------------------

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def factors(self) -> tuple:
        """Denominator as ((j, e), ...) sorted by j."""
        return self._den

    def pole_order(self, j: int) -> int:
        for jj, e in self._den:
            if jj == j:
                return e
        return 0

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    # -- poles, residues, expansion -----------------------------------------

    def residue(self, j: int) -> Rat:
        """Residue at v = 1/j; requires the pole there to be at most simple."""
        e = self.pole_order(j)
        if e == 0:
            return Fraction(0)
        if e > 1:
            raise HigherOrderPoleError(f"pole of order {e} at v = 1/{j}")
        point = Fraction(1, j)
        dtilde = Fraction(1)
        for jj, ee in self._den:
            if jj != j:
                dtilde *= (1 - jj * point) ** ee
        return self._num(point) / (-j * dtilde)

    def taylor(self, n: int) -> tuple:
        """Taylor coefficients at v = 0 up to and including v**n."""
        if n < 0:
            raise ValueError("truncation order must be nonnegative")
        m = n + 1
        cur = list(self._num.int_coeffs[:m])
        cur.extend([0] * (m - len(cur)))
        for j, e in self._den:
            for _ in range(e):  # divide by (1 - j v) in place
                for i in range(1, m):
                    cur[i] += j * cur[i - 1]
        den = self._num.int_den
        return tuple(Fraction(c, den) for c in cur)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "num": self._num.to_strings(),
            "den": [[j, e] for j, e in self._den],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatFunc":
        # as stored, not reduced: rec_sequence checks a cached entry's shape
        return cls._make(
            Poly.from_strings(data["num"]),
            tuple((int(j), int(e)) for j, e in data["den"]),
        )

    def __str__(self) -> str:
        num = self._num.to_str()
        if not self._den:
            return num
        den = "".join(
            f"(1 - {j if j > 1 else ''}v)" + (f"^{e}" if e > 1 else "")
            for j, e in self._den
        )
        return f"({num}) / {den}"

    def __repr__(self) -> str:
        return f"RatFunc('{self}')"

