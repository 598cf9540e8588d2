"""Recurrence families.

A family fixes one modular form and with it every constant appearing in
the recurrences: either a monomial in the three theta fourth-powers,
F = y^a * (-x)^b * (y-x)^c with a, 4b, 4c nonnegative integers (the
"multiplicative" kind, weight w = 2(a+b+c)), or a homogeneous
polynomial P(x, y) of degree k (the "polynomial" kind, weight 2k).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import Poly, Rat


class FamilyError(ValueError):
    """Family parameters outside the admissible shape."""


class Family:
    """Immutable; equal families (and their hashes) ignore the label, so a
    parsed "mult:0,0,2" is THETA2 and shares its cached series."""

    __slots__ = (
        "kind",  # "mult" or "poly"
        "a",
        "b4",  # 4*b
        "c4",  # 4*c
        "monomials",  # ((i, j, coeff), ...) with i + j = k
        "k",
        "label",
    )

    def __init__(self, kind: str, a: int = 0, b4: int = 0, c4: int = 0,
                 monomials: tuple = (), k: int = 0, label: str = ""):
        for name, value in zip(self.__slots__, (kind, a, b4, c4, monomials, k, label)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Family is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Family is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.kind, self.a, self.b4, self.c4, self.monomials, self.k)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Family({fields})"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def multiplicative(a, b, c, label: str = "") -> "Family":
        if not isinstance(a, int) or a < 0:
            raise FamilyError("exponent a must be a nonnegative integer")
        b = Fraction(b)
        c = Fraction(c)
        if b < 0 or (4 * b).denominator != 1:
            raise FamilyError("4*b must be a nonnegative integer")
        if c < 0 or (4 * c).denominator != 1:
            raise FamilyError("4*c must be a nonnegative integer")
        if a == 0 and b == 0 and c == 0:
            raise FamilyError("a = b = c = 0 gives weight zero")
        return Family("mult", a=a, b4=int(4 * b), c4=int(4 * c), label=label)

    @staticmethod
    def polynomial(monomials, label: str = "") -> "Family":
        combined: dict = {}
        for i, j, coeff in monomials:
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise FamilyError("monomial exponents must be nonnegative integers")
            combined[(i, j)] = combined.get((i, j), Fraction(0)) + Fraction(coeff)
        combined = {ij: c for ij, c in combined.items() if c}
        if not combined:
            raise FamilyError("polynomial has no nonzero monomial")
        degrees = {i + j for i, j in combined}
        if len(degrees) != 1:
            raise FamilyError(f"polynomial is not homogeneous (degrees {sorted(degrees)})")
        k = degrees.pop()
        if k < 1:
            raise FamilyError("polynomial degree must be at least 1")
        mons = tuple(sorted((i, j, c) for (i, j), c in combined.items()))
        return Family("poly", monomials=mons, k=k, label=label)

    # -- derived data ----------------------------------------------------------

    @property
    def b(self) -> Rat:
        return Fraction(self.b4, 4)

    @property
    def w(self) -> Rat:
        """Weight: 2(a + b + c) for the multiplicative kind, 2k otherwise."""
        if self.kind == "mult":
            return Fraction(4 * self.a + self.b4 + self.c4, 2)
        return Fraction(2 * self.k)

    @property
    def beta(self) -> Rat:
        """The constant appearing in the (m - 1 - beta) term of the relation."""
        return self.b if self.kind == "mult" else Fraction(self.k)

    @property
    def alpha(self) -> int:
        """Constant term of the u-side multiplier (a for multiplicative)."""
        return self.a if self.kind == "mult" else 0

    def edge(self, m: int) -> int:
        """Pole parameter of the m-th entry: the factor divided out at step m
        is (1 - edge(m)*v)."""
        return m + self.alpha

    def p1u(self) -> Poly:
        """P(1, u) for the polynomial kind."""
        if self.kind != "poly":
            raise FamilyError("P(1, u) only exists for polynomial families")
        coeffs = [Fraction(0)] * (self.k + 1)
        for _i, j, c in self.monomials:
            coeffs[j] += c
        return Poly(coeffs)

    def phi0(self) -> Poly:
        """Initial u-side polynomial."""
        return Poly([1]) if self.kind == "mult" else self.p1u()

    def rhs(self, m: int) -> Rat:
        """Right-hand side of the m-th relation (after clearing the 1/v)."""
        if self.kind == "mult":
            return Fraction(1 if m == 0 else 0)
        return self.p1u().coeff(m)

    def recovered_from_residue(self, m: int, residue: Rat) -> Rat:
        """Invert the residue identity: the q-expansion coefficient of the
        family's form at the pole parameter, from the residue of entry m.

        The sign is (-1)^(m+1) for the multiplicative kind, whatever a is:
        the paper's (-1)^(m+a+1) gives the wrong sign for odd a.
        """
        p = self.edge(m)
        exp = (m + 1) if self.kind == "mult" else (m + self.k + 1)
        sign = -1 if exp % 2 else 1
        return sign * p * Fraction(16) ** p * residue

    # -- canonical string --------------------------------------------------------

    def canonical(self) -> str:
        if self.kind == "mult":
            return f"mult:{self.a},{self.b4},{self.c4}"
        inner = ",".join(f"({i},{j},{c})" for i, j, c in self.monomials)
        return f"poly:{self.k}:[{inner}]"

    def __str__(self) -> str:
        return self.label or self.canonical()


# patterns stay strings: only a poly: family string compiles them, and
# the re module caches what it compiles
_POLY = r"poly:(\d+):\[(.*)\]"
_MONO = r"\((\d+),(\d+),(-?\d+(?:/\d+)?)\)"
# the whole list: monomials separated by commas, whitespace around each
_MONO_LIST = rf"\s*{_MONO}\s*(?:,\s*{_MONO}\s*)*"


def parse_family(text: str) -> Family:
    """Parse the canonical family string ("mult:a,4b,4c" or
    "poly:k:[(i,j,coeff),...]": monomials separated by commas, with
    optional whitespace around each; anything else raises FamilyError)."""
    text = text.strip()
    if text.startswith("mult:"):
        parts = text[5:].split(",")
        if len(parts) != 3:
            raise FamilyError(f"malformed multiplicative family {text!r}")
        try:
            a, b4, c4 = (int(p) for p in parts)
        except ValueError:
            raise FamilyError(f"malformed multiplicative family {text!r}") from None
        if b4 < 0 or c4 < 0:
            raise FamilyError("4*b and 4*c must be nonnegative integers")
        return Family.multiplicative(a, Fraction(b4, 4), Fraction(c4, 4))
    match = re.fullmatch(_POLY, text)
    if match:
        k, body = int(match.group(1)), match.group(2)
        if not re.fullmatch(_MONO_LIST, body):
            raise FamilyError(f"malformed polynomial family {text!r}")
        try:
            mons = [(int(i), int(j), Fraction(c)) for i, j, c in re.findall(_MONO, body)]
        except ZeroDivisionError:
            raise FamilyError(f"zero denominator in polynomial family {text!r}") from None
        family = Family.polynomial(mons)
        if family.k != k:
            raise FamilyError(f"declared degree {k} but monomials have degree {family.k}")
        return family
    raise FamilyError(f"unrecognized family string {text!r}")


# The four families behind the number-theoretic scans.
THETA2 = Family.multiplicative(0, 0, Fraction(1, 2), label="theta^2")
THETA = Family.multiplicative(0, 0, Fraction(1, 4), label="theta")
THETA4 = Family.multiplicative(0, 0, 1, label="theta^4")
DELTA256 = Family.multiplicative(2, 2, 2, label="256*Delta")
