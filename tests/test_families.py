"""Family construction, validation and canonical strings."""

from fractions import Fraction

import pytest

from thetares import DELTA256, THETA, THETA2, THETA4, Family, FamilyError, Poly, parse_family


class TestMultiplicative:
    def test_theta_squared(self):
        fam = Family.multiplicative(0, 0, Fraction(1, 2))
        assert fam.w == 1 and fam.a == 0 and fam.b4 == 0 and fam.c4 == 2
        # the single theta family has the fractional weight w = 1/2
        assert THETA.w == Fraction(1, 2)

    def test_delta(self):
        fam = Family.multiplicative(2, 2, 2)
        assert fam.w == 12
        assert fam == DELTA256  # label is not part of identity

    def test_zero_weight_rejected(self):
        with pytest.raises(FamilyError):
            Family.multiplicative(0, 0, 0)

    def test_quarter_integrality_enforced(self):
        with pytest.raises(FamilyError):
            Family.multiplicative(0, Fraction(1, 3), 0)
        with pytest.raises(FamilyError):
            Family.multiplicative(0, 0, Fraction(-1, 4))
        with pytest.raises(FamilyError):
            Family.multiplicative(-1, 0, 1)

    def test_edge_and_rhs(self):
        assert DELTA256.edge(0) == 2 and DELTA256.edge(4) == 6
        assert THETA2.rhs(0) == 1 and THETA2.rhs(3) == 0


class TestPolynomial:
    def test_p_equals_y(self):
        fam = Family.polynomial([(0, 1, 1)])
        assert fam.k == 1
        assert fam.p1u() == Poly([0, 1])
        assert fam.rhs(0) == 0 and fam.rhs(1) == 1

    def test_x_minus_y(self):
        fam = Family.polynomial([(1, 0, 1), (0, 1, -1)])
        assert fam.p1u() == Poly([1, -1])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(FamilyError):
            Family.polynomial([(1, 0, 1), (0, 2, 1)])

    def test_degree_zero_rejected(self):
        with pytest.raises(FamilyError):
            Family.polynomial([(0, 0, 1)])

    def test_cancellation_rejected(self):
        with pytest.raises(FamilyError):
            Family.polynomial([(0, 1, 1), (0, 1, -1)])

    def test_duplicate_monomials_combine(self):
        fam = Family.polynomial([(0, 1, 1), (0, 1, 2)])
        assert fam.p1u() == Poly([0, 3])


class TestCanonicalStrings:
    def test_mult_round_trip(self):
        assert THETA2.canonical() == "mult:0,0,2"
        assert DELTA256.canonical() == "mult:2,8,8"
        for fam in (THETA2, THETA, THETA4, DELTA256):
            assert parse_family(fam.canonical()) == fam

    def test_poly_whitespace_around_monomials(self):
        assert parse_family(" poly:1:[ (0,1,1) ,\t(1,0,-2/3) ] ") == Family.polynomial(
            [(0, 1, 1), (1, 0, Fraction(-2, 3))])

    def test_poly_round_trip(self):
        fam = Family.polynomial([(0, 2, Fraction(1, 2)), (1, 1, -3)])
        assert fam.canonical() == "poly:2:[(0,2,1/2),(1,1,-3)]"
        assert parse_family(fam.canonical()) == fam

    def test_malformed_rejected(self):
        bad_strings = (
            "mult:1,2", "mult:a,b,c", "poly:1:[]", "nope", "poly:2:[(0,1,1)]",
            # every character of the list must belong to a monomial or a separator
            "poly:1:[(0,1,1),(-1,2,1)]", "poly:1:[(0,1,1),garbage]",
            "poly:1:[(0,1,1);(1,0,2)]", "poly:1:[(0,1,1),]", "poly:1:[(1,0,1/0)]",
        )
        for bad in bad_strings:
            with pytest.raises(FamilyError):
                parse_family(bad)


class TestWeights:
    def test_recovered_coefficient_sign(self):
        # (-1)^(m+1) * (m+a) * 16^(m+a) * residue
        assert THETA2.recovered_from_residue(1, Fraction(1, 4)) == 4
        assert THETA2.recovered_from_residue(2, Fraction(-1, 128)) == 4
        assert DELTA256.recovered_from_residue(4, Fraction(-21, 32768)) == 256 * 252
        # odd a: y = theta_2^4 has q^3 coefficient 64
        assert parse_family("mult:1,0,0").recovered_from_residue(2, Fraction(-1, 192)) == 64
