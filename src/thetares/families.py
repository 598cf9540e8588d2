"""Recurrence families.

A family fixes one modular form for Gamma(2) and with it every constant
appearing in the recurrences: F = y^a (-x)^b (y-x)^c P(x, y), a monomial
in the three theta fourth-powers (y = theta2^4, -x = theta4^4,
y - x = theta3^4, with a, 4b, 4c nonnegative integers) times a
homogeneous polynomial P(x, y) of degree k.  Either part may be 1: the
theta part when a = b = c = 0, P when it is the one monomial (0, 0, 1)
(k = 0, the default).  Each constant is one formula for every family:
weight w = 2(a + b + c + k), beta = b + k, edge(m) = m + a,
phi_0 = P(1, u), rhs_m = [u^m] P(1, u) and the residue sign
(-1)^(m+k+1).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import Poly, _as_rat

# no dense list (phi_0 here, the CLI's jets and q-series) reaches this many
# entries: an input that would build one is refused; 2^24 pointers take 128 MiB
MAX_TERMS = 2**24


class UsageError(ValueError):
    """A parameter the caller gave that the program refuses: exit 2 in the CLI."""


class FamilyError(UsageError):
    """Family parameters outside the admissible shape."""


class Family:
    """Immutable; equal families (and their hashes) ignore the label, so a
    parsed "mult:0,0,2" is THETA2 and shares its cached series.  The one
    constructor checks that a, 4b and 4c are nonnegative integers, that P is
    homogeneous with exact coefficients, that the weight is not zero, that
    phi_0's k + 1 coefficients stay below MAX_TERMS and that a is below 2^60."""

    __slots__ = (
        "a",
        "b4",  # 4*b
        "c4",  # 4*c
        "monomials",  # P as sorted ((i, j, coeff), ...) with i + j = k
        "k",
        "label",
    )

    def __init__(self, a: int = 0, b=0, c=0, monomials=((0, 0, 1),), label: str = ""):
        if not isinstance(a, int) or a < 0:
            raise FamilyError("exponent a must be a nonnegative integer")
        quarters = [4 * _as_rat(b), 4 * _as_rat(c)]
        for name, q in zip("bc", quarters):
            if q < 0 or q.denominator != 1:
                raise FamilyError(f"4*{name} must be a nonnegative integer")
        combined: dict = {}
        for i, j, coeff in monomials:
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise FamilyError("monomial exponents must be nonnegative integers")
            combined[(i, j)] = combined.get((i, j), Fraction(0)) + _as_rat(coeff)
        combined = {ij: c for ij, c in combined.items() if c}
        if not combined:
            raise FamilyError("polynomial has no nonzero monomial")
        degrees = {i + j for i, j in combined}
        if len(degrees) != 1:
            raise FamilyError(f"polynomial is not homogeneous (degrees {sorted(degrees)})")
        k = degrees.pop()
        if k + 1 >= MAX_TERMS:  # phi0 is a dense list of k + 1 coefficients
            raise FamilyError(f"family degree k = {k}: phi_0's k + 1 terms, not below 2^24")
        if a >= 2**60:  # a builds no list: it enters pole parameters and x^a's recursion per bit
            raise FamilyError(f"exponent a = {a}, not below 2^60")
        if not (a or any(quarters) or k):
            raise FamilyError("a = b = c = 0 with a constant P gives weight zero")
        mons = tuple(sorted((i, j, c) for (i, j), c in combined.items()))
        for name, value in zip(self.__slots__, (a, *map(int, quarters), mons, k, label)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Family is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Family is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.a, self.b4, self.c4, self.monomials, self.k)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Family({fields})"

    # -- derived data ----------------------------------------------------------

    @property
    def w(self) -> Fraction:
        """Weight: 2(a + b + c + k)."""
        return Fraction(4 * (self.a + self.k) + self.b4 + self.c4, 2)

    @property
    def beta(self) -> Fraction:
        """b + k, the constant in the (m - 1 - beta) term of the relation."""
        return Fraction(self.b4 + 4 * self.k, 4)

    def edge(self, m: int) -> int:
        """Pole parameter of the m-th entry: the factor divided out at step m
        is (1 - edge(m)*v)."""
        return m + self.a

    def phi0(self) -> Poly:
        """P(1, u), the initial u-side polynomial."""
        coeffs = [0] * (self.k + 1)
        for _i, j, c in self.monomials:  # homogeneous: one monomial per j
            coeffs[j] = c
        return Poly(coeffs)

    def rhs_table(self) -> dict:
        """{m: rhs_m} over the m with rhs_m != 0: P's coefficients keyed by
        their power of y, one monomial per power as P is homogeneous."""
        return {j: c for _i, j, c in self.monomials}

    def rhs(self, m: int) -> Fraction:
        """Right-hand side of the m-th relation (after clearing the 1/v):
        [u^m] P(1, u), the m-th coefficient of `phi0`."""
        return self.rhs_table().get(m, Fraction(0))

    def recovered_from_residue(self, m: int, residue: Fraction) -> Fraction:
        """Invert the residue identity: the q-expansion coefficient of the
        family's form at the pole parameter, from the residue of entry m.

        The sign is (-1)^(m+k+1), whatever a is: the paper's (-1)^(m+a+1)
        for P = 1 gives the wrong sign for odd a.
        """
        p = self.edge(m)
        sign = -1 if (m + self.k + 1) % 2 else 1
        return sign * p * Fraction(16) ** p * residue

    # -- canonical string --------------------------------------------------------

    def canonical(self) -> str:
        """"mult:a,4b,4c", "poly:k:[(i,j,coeff),...]", or both joined by "*"
        when neither part is 1."""
        parts = []
        if self.a or self.b4 or self.c4:
            parts.append(f"mult:{self.a},{self.b4},{self.c4}")
        if self.monomials != ((0, 0, 1),):
            inner = ",".join(f"({i},{j},{c})" for i, j, c in self.monomials)
            parts.append(f"poly:{self.k}:[{inner}]")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.label or self.canonical()


# patterns stay strings (the re module caches what it compiles); every
# fullmatch passes re.ASCII, so \d is 0-9 only and findall reads checked text
_MULT = r"mult:(\d+),(\d+),(\d+)"
_POLY = r"poly:(\d+):\[(.*)\]"
_MONO = r"\((\d+),(\d+),(-?\d+(?:/\d+)?)\)"
# the whole list: monomials separated by commas, whitespace around each
_MONO_LIST = rf"\s*{_MONO}\s*(?:,\s*{_MONO}\s*)*"


def parse_family(text: str) -> Family:
    """Parse the canonical family string: "mult:a,4b,4c",
    "poly:k:[(i,j,coeff),...]" (monomials separated by commas, with
    optional whitespace around each), or "mult:a,4b,4c*poly:k:[...]" for
    both parts; every number is ASCII digits.  Anything else raises
    FamilyError."""
    parts = text.strip().split("*")
    mult = re.fullmatch(_MULT, parts[0], re.ASCII)
    poly = re.fullmatch(_POLY, parts[-1], re.ASCII)
    # one part matches one of the two, two parts must match both
    if bool(mult) + bool(poly) != len(parts):
        raise FamilyError(f"malformed family string {text!r}")
    if poly and not re.fullmatch(_MONO_LIST, poly[2], re.ASCII):
        raise FamilyError(f"malformed polynomial in family {text!r}")
    try:
        a, b4, c4 = (int(g) for g in mult.groups()) if mult else (0, 0, 0)
        k, found = (int(poly[1]), re.findall(_MONO, poly[2])) if poly else (0, [(0, 0, 1)])
        mons = [(int(i), int(j), Fraction(c)) for i, j, c in found]
    except ZeroDivisionError:
        raise FamilyError(f"zero denominator in family {text!r}") from None
    except ValueError:  # the only one int() raises on ASCII digits
        raise FamilyError(f"a number past int()'s digit limit in family {text!r}") from None
    family = Family(a, Fraction(b4, 4), Fraction(c4, 4), mons)
    if family.k != k:
        raise FamilyError(f"declared degree {k} but monomials have degree {family.k}")
    return family


# The four families behind the number-theoretic scans.
THETA2 = Family(c=Fraction(1, 2), label="theta^2")
THETA = Family(c=Fraction(1, 4), label="theta")
THETA4 = Family(c=1, label="theta^4")
DELTA256 = Family(2, 2, 2, label="256*Delta")
