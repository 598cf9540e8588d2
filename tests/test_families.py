"""Family construction, validation and canonical strings."""

import sys
from fractions import Fraction

import pytest

from thetares import (DELTA256, THETA, THETA2, THETA4, Family, FamilyError, Poly, UsageError,
                      parse_family)
from thetares.recurrence import upoly_sequence


class TestMultiplicative:
    def test_theta_squared(self):
        fam = Family(c=Fraction(1, 2))
        assert fam.w == 1 and fam.a == 0 and fam.b4 == 0 and fam.c4 == 2
        # the single theta family has the fractional weight w = 1/2
        assert THETA.w == Fraction(1, 2)

    def test_delta(self):
        fam = Family(2, 2, 2)
        assert fam.w == 12
        assert fam == DELTA256  # label is not part of identity

    def test_zero_weight_rejected(self):
        with pytest.raises(FamilyError):
            Family()

    def test_quarter_integrality_enforced(self):
        with pytest.raises(FamilyError):
            Family(b=Fraction(1, 3), c=1)
        with pytest.raises(FamilyError):
            Family(c=Fraction(-1, 4))
        with pytest.raises(FamilyError):
            Family(-1, c=1)

    def test_float_exponents_rejected(self):
        # like Poly([0.1]): a float is no exact rational, even when 4b is integral
        with pytest.raises(TypeError):
            Family(b=0.5, c=1)
        with pytest.raises(TypeError):
            Family(c=0.25)

    def test_edge_and_rhs(self):
        assert DELTA256.edge(0) == 2 and DELTA256.edge(4) == 6
        assert THETA2.rhs(0) == 1 and THETA2.rhs(3) == 0
        assert THETA2.phi0() == Poly([1])


class TestPolynomial:
    def test_p_equals_y(self):
        fam = Family(monomials=[(0, 1, 1)])
        assert fam.k == 1
        assert fam.phi0() == Poly([0, 1])
        assert fam.rhs(0) == 0 and fam.rhs(1) == 1

    def test_x_minus_y(self):
        fam = Family(monomials=[(1, 0, 1), (0, 1, -1)])
        assert fam.phi0() == Poly([1, -1])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(FamilyError):
            Family(monomials=[(1, 0, 1), (0, 2, 1)])

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Family(monomials=[(0, 1, 0.1)])
        with pytest.raises(TypeError):
            Family(monomials=[(1, 0, 1), (0, 1, 2.0)])

    @pytest.mark.parametrize("monomials", [[(-1, 2, 1)], [(1, -1, 1)], [(0, 1.0, 1)]])
    def test_exponents_must_be_nonnegative_integers(self, monomials):
        with pytest.raises(FamilyError, match="monomial exponents"):
            Family(monomials=monomials)

    def test_degree_zero_rejected(self):
        with pytest.raises(FamilyError):
            Family(monomials=[(0, 0, 1)])

    def test_cancellation_rejected(self):
        with pytest.raises(FamilyError):
            Family(monomials=[(0, 1, 1), (0, 1, -1)])

    @pytest.mark.parametrize("a, monomials", [
        (2**60, ((0, 0, 1),)), (0, ((2**60, 0, 1),)), (0, ((0, 2**61, 1),)),
        (10**400, ((1, 0, 1),)),
    ], ids=["a", "k in x", "k in y", "a of 401 digits"])
    def test_size_bound_is_2_to_the_60(self, a, monomials):
        # a builds no list and keeps its bound of 2^60 (x^a's recursion overflows
        # at 10^400); phi0 would hold k + 1 coefficients, refused from 2^24 on
        bound = "2\\^60" if a else "2\\^24"
        with pytest.raises(FamilyError, match=f"not below {bound}$"):
            Family(a, monomials=monomials)
        assert Family(2**60 - 1, monomials=((2**24 - 2, 0, 1),)).k == 2**24 - 2
        with pytest.raises(FamilyError, match="not below 2\\^24$"):
            Family(monomials=((2**24 - 1, 0, 1),))

    def test_duplicate_monomials_combine(self):
        fam = Family(monomials=[(0, 1, 1), (0, 1, 2)])
        assert fam.phi0() == Poly([0, 3])


class TestCanonicalStrings:
    def test_mult_round_trip(self):
        assert THETA2.canonical() == "mult:0,0,2"
        assert DELTA256.canonical() == "mult:2,8,8"
        for fam in (THETA2, THETA, THETA4, DELTA256):
            assert parse_family(fam.canonical()) == fam

    def test_poly_whitespace_around_monomials(self):
        assert parse_family(" poly:1:[ (0,1,1) ,\t(1,0,-2/3) ] ") == Family(
            monomials=[(0, 1, 1), (1, 0, Fraction(-2, 3))])

    def test_poly_round_trip(self):
        fam = Family(monomials=[(0, 2, Fraction(1, 2)), (1, 1, -3)])
        assert fam.canonical() == "poly:2:[(0,2,1/2),(1,1,-3)]"
        assert parse_family(fam.canonical()) == fam

    def test_mixed_round_trip(self):
        fam = Family(1, 0, 1, [(0, 1, 1), (1, 0, 1)])
        assert fam.canonical() == "mult:1,0,4*poly:1:[(0,1,1),(1,0,1)]"
        assert parse_family(fam.canonical()) == fam
        assert fam.w == 6 and fam.beta == 1 and fam.edge(0) == 1
        # a constant P other than 1 keeps its poly: part; P = 1 spelled out is
        # the mult: family itself, so both spellings share one cache name
        scaled = Family(c=Fraction(1, 2), monomials=[(0, 0, 3)])
        assert scaled.canonical() == "mult:0,0,2*poly:0:[(0,0,3)]" and scaled.k == 0
        assert parse_family(scaled.canonical()) == scaled != THETA2
        assert parse_family("mult:0,0,2*poly:0:[(0,0,1)]").canonical() == "mult:0,0,2"

    def test_malformed_rejected(self):
        bad_strings = (
            "mult:1,2", "mult:a,b,c", "poly:1:[]", "nope", "poly:2:[(0,1,1)]",
            # every character of the list must belong to a monomial or a separator
            "poly:1:[(0,1,1),(-1,2,1)]", "poly:1:[(0,1,1),garbage]",
            "poly:1:[(0,1,1);(1,0,2)]", "poly:1:[(0,1,1),]", "poly:1:[(1,0,1/0)]",
            # numbers are ASCII digits only: no Python literals, signs, spaces
            # or other scripts' digits
            "mult:0,0,2_0", "mult:0,0,+2", "mult: 0,0,2", "mult:0,0,\u0662",
            "poly:1:[(\u0660,1,1)]", "poly:\u0661:[(0,1,1)]",
            # a mixed family is one mult: part, one "*" and one poly: part
            "mult:0,0,2*", "*poly:1:[(0,1,1)]", "poly:1:[(0,1,1)]*mult:0,0,2",
            "mult:0,0,2**poly:1:[(0,1,1)]", "mult:0,0,2*poly:1:[(0,1,1)]*poly:1:[(1,0,1)]",
            "mult:0,0,2*mult:0,0,2", "mult:0,0,2 * poly:1:[(0,1,1)]",
            "mult:0,0,0*poly:0:[(0,0,1)]", "mult:0,0,2*poly:2:[(0,1,1)]",
        )
        for bad in bad_strings:
            with pytest.raises(FamilyError):
                parse_family(bad)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python's int() has no digit limit")
    @pytest.mark.parametrize("spelling", ["mult:{},0,0", "poly:{}:[(0,1,1)]",
                                          "poly:1:[(0,{},1)]", "poly:1:[(0,1,-1/{})]"])
    def test_number_past_the_digit_limit_is_a_family_error(self, spelling):
        # int() raises a plain ValueError there, which is not a usage error
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(FamilyError, match="digit limit"):
            parse_family(spelling.format(digits))
        assert issubclass(FamilyError, UsageError)


class TestWeights:
    def test_recovered_coefficient_sign(self):
        # (-1)^(m+1) * (m+a) * 16^(m+a) * residue
        assert THETA2.recovered_from_residue(1, Fraction(1, 4)) == 4
        assert THETA2.recovered_from_residue(2, Fraction(-1, 128)) == 4
        assert DELTA256.recovered_from_residue(4, Fraction(-21, 32768)) == 256 * 252
        # odd a: y = theta_2^4 has q^3 coefficient 64
        assert parse_family("mult:1,0,0").recovered_from_residue(2, Fraction(-1, 192)) == 64


# every mult: family with a <= 5 (odd a included) and 4b, 4c in a spread of
# 0..8, poly: families of degree k <= 4 with rational coefficients, four
# of them with P(1, 0) = 0 (no x^k term), and mixed families with both
# parts non-trivial, one of them a constant P other than 1
GRID = [f"mult:{a},{b4},{c4}" for a in range(6) for b4 in (0, 1, 2, 3, 8)
        for c4 in (0, 1, 2, 5, 8) if a or b4 or c4] + [
    "poly:1:[(0,1,1)]", "poly:1:[(1,0,1/3),(0,1,-2/7)]",
    "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]", "poly:2:[(1,1,3/4)]",
    "poly:3:[(3,0,-1/5),(1,2,2)]", "poly:3:[(2,1,1/6),(0,3,-4)]",
    "poly:4:[(0,4,1),(2,2,-7/3),(4,0,5)]", "poly:4:[(3,1,5/9),(1,3,-1/2)]",
] + [
    "mult:1,0,4*poly:1:[(0,1,1),(1,0,1)]", "mult:0,3,0*poly:1:[(1,0,1)]",
    "mult:2,6,8*poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]", "mult:0,0,2*poly:0:[(0,0,3)]",
    "mult:3,1,5*poly:4:[(3,1,5/9),(1,3,-1/2)]",
]


def _per_kind(fam):
    """The constants written out from F = y^a (-x)^b (y-x)^c P(x, y), where
    each kind once had its own definitions: w, beta, the edge offset, rhs(m)
    for m <= k + 2, phi0 and the sign's offset."""
    b, c = Fraction(fam.b4, 4), Fraction(fam.c4, 4)
    coeffs = {j: coeff for _i, j, coeff in fam.monomials}
    rhs = [coeffs.get(m, 0) for m in range(fam.k + 3)]
    return (2 * (fam.a + b + c + fam.k), b + fam.k, fam.a, rhs, Poly(rhs[:fam.k + 1]),
            fam.k + 1)


class TestOneFormula:
    @pytest.mark.parametrize("text", GRID)
    def test_matches_the_per_kind_definitions(self, text):
        fam = parse_family(text)
        w, beta, offset, rhs, phi0, sign_offset = _per_kind(fam)
        assert fam.w == w and fam.beta == beta and fam.phi0() == phi0
        residue = Fraction(-3, 7)
        for m in range(fam.k + 3):
            assert fam.edge(m) == m + offset
            assert fam.rhs(m) == rhs[m]
            p = m + offset
            sign = -1 if (m + sign_offset) % 2 else 1
            assert fam.recovered_from_residue(m, residue) == sign * p * 16**p * residue

    @pytest.mark.parametrize("text", GRID)
    def test_rhs_are_the_initial_u_side_coefficients(self, text):
        fam = parse_family(text)
        for m in range(fam.k + 3):
            assert fam.rhs(m) == fam.phi0().coeff(m)
        assert upoly_sequence(fam, 0)[0] == fam.phi0()
