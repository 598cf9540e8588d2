"""Rational functions N(v) / prod_j (1 - j*v)**e_j.

Every sequence this package computes lives in this shape, so the
denominator is kept factored and never expanded: pole orders are read
off the factor list, and a residue at v = 1/j is one
``backend.eval_at_inv`` pass over the numerator's cleared integers,
divided by a product of integers (j - k)^e over the other factors.
Values are immutable and fully reduced (no factor of the denominator
divides the numerator).  The constructor does not reduce: its callers
already hold reduced data, `recurrence.rec_step` by theorem and the cache
read through the shape and relation check `recurrence._fits`.
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


class RatFunc:
    """num / prod (1 - j*v)**e_j in reduced factored form."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly, factors=()):
        """Store ``num`` over ``factors`` ((j, e), ...) as given: the caller
        promises reduced form, with the j distinct and increasing, every
        e >= 1, no (1 - j v) dividing ``num``, and no factor on a zero ``num``."""
        self._num, self._den = num, tuple(factors)

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

    # -- poles, residues, expansion -----------------------------------------

    def residue(self, j: int) -> Rat:
        """Residue at v = 1/j; requires the pole there to be at most simple."""
        e = self.pole_order(j)
        if e == 0:
            return Fraction(0)
        if e > 1:
            raise HigherOrderPoleError(f"pole of order {e} at v = 1/{j}")
        # N(1/j) = E / (den j^(n-1)) with E = eval_at_inv(N), n = len(N),
        # and each other factor is (1 - k/j)^e = (j - k)^e / j^e
        nums = self._num.int_coeffs
        top = backend.eval_at_inv(nums, j)
        bottom = -self._num.int_den * j ** len(nums)
        for k, e in self._den:
            if k != j:
                top *= j**e
                bottom *= (j - k) ** e
        return Fraction(top, bottom)

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

