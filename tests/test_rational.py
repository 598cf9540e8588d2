"""Exact rationals, the cleared form, and Poly as a value."""

import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from thetares import Poly, QSeries, backend
from thetares.rational import canonical, clear


class TestRat:
    """Exact rationals: the stdlib Fraction, which the package computes with."""

    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_mul(self):
        assert Fraction(-3, 4) * Fraction(4, 3) == -1

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    def test_always_reduced(self):
        r = Fraction(6, -4)
        assert r.numerator == -3 and r.denominator == 2

    def test_string_round_trip(self):
        for text in ("-21/32768", "4", "0", "1/2"):
            assert str(Fraction(text)) == text


class TestClearedForm:
    """The one clearing and canonical-form code behind Poly, QSeries and
    the wire codec, and the powering of QSeries."""

    def test_clear(self):
        assert clear([]) == ([], 1)
        assert clear([(1, 2), (-1, 3), (5, 1)]) == ([3, -2, 30], 6)

    def test_canonical(self):
        assert canonical([4, -6, 0], -8) == ((-2, 3, 0), 4)
        assert canonical([0, 0], -7) == ((0, 0), 1)
        assert canonical([], 5) == ((), 1)
        with pytest.raises(ZeroDivisionError):
            canonical([1], 0)

    @pytest.mark.parametrize("e", [-1, 1.0])
    def test_power_needs_a_nonnegative_int(self, e):
        with pytest.raises(ValueError):
            QSeries([1, 1])**e


class TestPolyBasics:
    def test_degree(self):
        assert Poly([1, 2, 3]).degree == 2
        assert Poly().degree == float("-inf")
        assert not Poly([0, 0])
        assert str(Poly()) == "0"

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 0, 0]) == Poly([1])
        assert Poly([1, 0, 0]).degree == 0

    def test_cleared_form_is_canonical(self):
        p = Poly([Fraction(1, 2), Fraction(1, 3)])
        assert p.int_coeffs == (3, 2) and p.int_den == 6
        # content is only reduced against the denominator
        q = Poly([2, 4])
        assert q.int_coeffs == (2, 4) and q.int_den == 1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Poly([0.5])


class TestPolyProperties:
    def test_eval_matches_coeff_sum(self):
        # p(1/j) from the kernel on the cleared integers: j**(n-1) p(1/j) * den
        rng = random.Random(99)
        for _ in range(40):
            p = rand_poly(rng)
            j = rng.randint(1, 20)
            expected = sum((c * Fraction(1, j) ** i for i, c in enumerate(p.coeffs)), Fraction(0))
            n = len(p.int_coeffs)
            assert backend.eval_at_inv(p.int_coeffs, j) * j == expected * p.int_den * j**n


class TestPolySerialization:
    def test_string_round_trip(self):
        p = Poly([Fraction(-21, 32768), 4, 0, Fraction(1, 2)])
        assert p.to_strings() == [str(c) for c in p.coeffs] == ["-21/32768", "4", "0", "1/2"]

    def test_coeff_strings(self):
        assert Poly([Fraction(-1, 4), 2]).to_strings() == ["-1/4", "2"]
