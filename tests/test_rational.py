"""Exact rational and polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from conftest import rand_poly, rand_rat
from thetares import Poly, QSeries, Rat, backend
from thetares.rational import canonical, clear


class TestRat:
    def test_add(self):
        assert Rat(1, 2) + Rat(1, 3) == Rat(5, 6)

    def test_mul(self):
        assert Rat(-3, 4) * Rat(4, 3) == -1

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Rat(1) / Rat(0)
        with pytest.raises(ZeroDivisionError):
            Rat(1, 0)

    def test_always_reduced(self):
        r = Rat(6, -4)
        assert r.numerator == -3 and r.denominator == 2

    def test_string_round_trip(self):
        for text in ("-21/32768", "4", "0", "1/2"):
            assert str(Rat(text)) == text


class TestClearedForm:
    """The one clearing, canonical-form and powering code behind Poly,
    QSeries and the wire codec."""

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
        for base in (Poly([1, 1]), QSeries([1, 1])):
            with pytest.raises(ValueError):
                base**e


class TestPolyBasics:
    def test_mul(self):
        assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])

    def test_add_cancels(self):
        assert Poly([0, 0, 1]) + Poly([0, 0, -1]) == Poly()

    def test_mul_zero(self):
        assert Poly() * Poly([1, 1]) == Poly()

    def test_degree(self):
        assert Poly([1, 2, 3]).degree == 2
        assert Poly().degree == float("-inf")
        assert not Poly([0, 0])

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


class TestPolyCalculus:
    def test_diff_cube(self):
        assert Poly([0, 0, 0, 1]).diff() == Poly([0, 0, 3])

    def test_diff_constant(self):
        assert Poly([7]).diff() == Poly()

    def test_diff_quadratic(self):
        assert Poly([1, -2, 1]).diff() == Poly([-2, 2])


class TestPolyProperties:
    def test_ring_axioms(self):
        rng = random.Random(20260810)
        for _ in range(60):
            p, q, r = (rand_poly(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)

    def test_diff_is_linear_and_leibniz(self):
        rng = random.Random(4096)
        for _ in range(60):
            p, q = rand_poly(rng), rand_poly(rng)
            c = rand_rat(rng)
            assert (p + q).diff() == p.diff() + q.diff()
            assert (p * c).diff() == p.diff() * c
            assert (p * q).diff() == p.diff() * q + p * q.diff()

    def test_divexact_round_trip(self):
        # the kernel's quotient of the cleared integers, over the same
        # denominator, is q again once put in canonical form
        rng = random.Random(1729)
        for _ in range(80):
            q = rand_poly(rng)
            j = rng.randint(1, 20)
            p = q * Poly([1, -j])
            quot = backend.divexact_linear(list(p.int_coeffs), j)
            assert Poly.from_cleared(quot, p.int_den) == q

    def test_pow_matches_iterated_mul(self):
        rng = random.Random(7)
        p = rand_poly(rng, max_deg=3)
        acc = Poly([1])
        for e in range(6):
            assert p**e == acc
            acc = acc * p

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
        assert Poly([Rat(-1, 4), 2]).to_strings() == ["-1/4", "2"]
