"""Rational functions N(v) / prod_j (1 - j*v)**e_j.

Every sequence this package computes lives in this shape, so the
denominator is kept factored and never expanded: pole orders are read
off the factor list, residues reduce to two exact evaluations, and
reduction is nothing but root tests at v = 1/j.  Values are immutable
and fully reduced (no factor of the denominator divides the numerator).
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

    def __init__(self, num, factors=()):
        if not isinstance(num, Poly):
            num = Poly(num)
        pairs = factors.items() if isinstance(factors, dict) else factors
        den = {}
        for j, e in pairs:
            if not isinstance(j, int) or j < 1:
                raise ValueError(f"factor index must be a positive integer, got {j!r}")
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"factor exponent must be a positive integer, got {e!r}")
            if j in den:
                raise ValueError(f"duplicate factor index {j}")
            den[j] = e
        self._num, self._den = _reduce(num, den)

    @classmethod
    def _raw(cls, num: Poly, den: tuple) -> "RatFunc":
        # caller promises num is reduced against den and den is sorted
        f = object.__new__(cls)
        f._num = num
        f._den = den
        return f

    @classmethod
    def const(cls, value) -> "RatFunc":
        return cls(Poly([value]))

    # -- inspection --------------------------------------------------------

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def factors(self) -> tuple:
        """Denominator as ((j, e), ...) sorted by j."""
        return self._den

    @property
    def den(self) -> dict:
        return dict(self._den)

    def pole_order(self, j: int) -> int:
        for jj, e in self._den:
            if jj == j:
                return e
        return 0

    def is_poly(self) -> bool:
        return not self._den

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        da = dict(self._den)
        db = dict(other._den)
        merged = {j: max(da.get(j, 0), db.get(j, 0)) for j in set(da) | set(db)}
        na = self._num * _complement(merged, da)
        nb = other._num * _complement(merged, db)
        return RatFunc(na + nb, merged)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self._num, self._den)

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, Poly):
            return RatFunc(self._num * other, dict(self._den))
        c = Fraction(other)
        if not c:
            return RatFunc._raw(Poly(), ())
        return RatFunc._raw(self._num * c, self._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def diff(self) -> "RatFunc":
        """Exact derivative; each denominator exponent rises by at most one."""
        num, den = self._num, self._den
        if not den:
            return RatFunc._raw(num.diff(), ())
        facs = [edge_factor(j) for j, _ in den]
        n = len(facs)
        # prefix/suffix products give every "all factors but one" in O(n) mults
        pre = [None] * (n + 1)
        suf = [None] * (n + 1)
        pre[0] = Poly([1])
        suf[n] = Poly([1])
        for i in range(n):
            pre[i + 1] = pre[i] * facs[i]
        for i in range(n - 1, -1, -1):
            suf[i] = suf[i + 1] * facs[i]
        acc = num.diff() * pre[n]
        for i, (j, e) in enumerate(den):
            acc = acc + num * (pre[i] * suf[i + 1]) * (e * j)
        # the sum cannot vanish at any 1/j, so the result is already reduced
        return RatFunc._raw(acc, tuple((j, e + 1) for j, e in den))

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
            cur = backend.conv_trunc(cur, backend.geom_coeffs(j, e, m), m)
            cur.extend([0] * (m - len(cur)))
        den = self._num.int_den
        return tuple(Fraction(c, den) for c in cur)

    def __call__(self, point) -> Rat:
        """Exact evaluation away from the poles."""
        r = Fraction(point)
        val = Fraction(1)
        for j, e in self._den:
            fac = 1 - j * r
            if not fac:
                raise ZeroDivisionError(f"evaluation at the pole v = 1/{j}")
            val *= fac**e
        return self._num(r) / val

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "num": self._num.to_strings(),
            "den": [[j, e] for j, e in self._den],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatFunc":
        return cls(
            Poly.from_strings(data["num"]),
            [(int(j), int(e)) for j, e in data["den"]],
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


def _complement(target: dict, have: dict) -> Poly:
    out = Poly([1])
    for j, e in target.items():
        d = e - have.get(j, 0)
        if d:
            out = out * edge_factor(j, d)
    return out
