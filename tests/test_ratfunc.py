"""Factored rational functions: reduction, calculus, poles, residues."""

import random
from fractions import Fraction

import pytest

from conftest import rand_ratfunc
from thetares import HigherOrderPoleError, Poly, RatFunc


ONE = RatFunc(Poly([1]))


class TestConstruction:
    def test_cancels_shared_factor(self):
        f = RatFunc(Poly([1, -1]), [(1, 2)])
        assert f.num == Poly([1]) and f.factors == ((1, 1),)

    def test_constant(self):
        f = RatFunc(Poly([1]))
        assert f.num == Poly([1]) and f.factors == ()

    def test_cancels_to_constant(self):
        f = RatFunc(Poly([1, -2]), [(2, 1)])
        assert f == ONE

    def test_zero_numerator_clears_denominator(self):
        assert RatFunc(Poly(), [(3, 2)]) == RatFunc(Poly())

    def test_validation(self):
        with pytest.raises(ValueError):
            RatFunc(Poly([1]), [(1, 1), (1, 2)])  # duplicate j
        with pytest.raises(ValueError):
            RatFunc(Poly([1]), [(2, 0)])  # e < 1
        with pytest.raises(ValueError):
            RatFunc(Poly([1]), [(0, 1)])  # j < 1

    def test_reduction_idempotent(self):
        rng = random.Random(31337)
        for _ in range(40):
            f = rand_ratfunc(rng)
            again = RatFunc(f.num, f.factors)
            assert again == f


class TestArithmetic:
    def test_add_cancels(self):
        f = RatFunc(Poly([1]), [(1, 1)])
        assert f + (-f) == RatFunc(Poly())

    def test_add_common_denominator(self):
        f = RatFunc(Poly([1]), [(1, 1)])
        g = RatFunc(Poly([1]), [(2, 1)])
        total = f + g
        assert total.num == Poly([2, -3])
        assert total.factors == ((1, 1), (2, 1))

    def test_add_zero(self):
        rng = random.Random(5)
        h = rand_ratfunc(rng)
        assert h + RatFunc(Poly()) == h

    def test_mul_poly_cancels(self):
        f = RatFunc(Poly([1]), [(1, 1)])
        assert f * Poly([1, -1]) == ONE

    def test_mul_poly_trivial(self):
        assert ONE * Poly([0, 1]) == RatFunc(Poly([0, 1]))

    def test_mul_poly_keeps_factor(self):
        f = RatFunc(Poly([1]), [(2, 1)])
        prod = f * Poly([0, 0, 1])
        assert prod.num == Poly([0, 0, 1]) and prod.factors == ((2, 1),)


class TestDiff:
    def test_simple_pole(self):
        f = RatFunc(Poly([1]), [(2, 1)])
        assert f.diff() == RatFunc(Poly([2]), [(2, 2)])

    def test_polynomial(self):
        assert RatFunc(Poly([0, 0, 1])).diff() == RatFunc(Poly([0, 2]))

    def test_quotient_rule(self):
        # d/dv [-v^2 / (4(1-v))] = (v^2 - 2v)/4 / (1-v)^2
        f = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        d = f.diff()
        assert d.num == Poly([0, Fraction(-1, 2), Fraction(1, 4)])
        assert d.factors == ((1, 2),)

    def test_matches_taylor_derivative(self):
        rng = random.Random(2718)
        for _ in range(25):
            f = rand_ratfunc(rng)
            n = 8
            tay = f.taylor(n)
            dtay = f.diff().taylor(n - 1)
            assert dtay == tuple((i + 1) * tay[i + 1] for i in range(n))


class TestPolesAndResidues:
    def test_pole_order_of_constant(self):
        for j in (1, 2, 17):
            assert ONE.pole_order(j) == 0

    def test_residue_simple(self):
        f = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        assert f.residue(1) == Fraction(1, 4)

    def test_residue_no_pole(self):
        assert ONE.residue(5) == 0

    def test_residue_higher_order_rejected(self):
        f = RatFunc(Poly([1]), [(1, 2)])
        with pytest.raises(HigherOrderPoleError):
            f.residue(1)

    def test_principal_part_subtraction_clears_pole(self):
        # simple pole at 1/j: removing c/(1-jv) with c = -j*residue leaves
        # something regular at v = 1/j
        rng = random.Random(808)
        for _ in range(30):
            f = rand_ratfunc(rng)
            simple = [j for j, e in f.factors if e == 1]
            for j in simple:
                c = -j * f.residue(j)
                g = f - RatFunc(Poly([c]), [(j, 1)])
                assert g.pole_order(j) == 0


class TestTaylor:
    def test_geometric(self):
        f = RatFunc(Poly([1]), [(2, 1)])
        assert f.taylor(3) == (1, 2, 4, 8)

    def test_hand_expansion(self):
        f = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        q = Fraction(-1, 4)
        assert f.taylor(4) == (0, 0, q, q, q)

    def test_polynomial(self):
        assert RatFunc(Poly([0, 0, 1])).taylor(5) == (0, 0, 1, 0, 0, 0)

    def test_matches_evaluation_free_coefficient(self):
        rng = random.Random(11)
        for _ in range(20):
            f = rand_ratfunc(rng)
            assert f.taylor(0)[0] == f(0)


class TestEvaluationAndSerialization:
    def test_call(self):
        f = RatFunc(Poly([1]), [(2, 1)])
        assert f(Fraction(1, 4)) == 2
        with pytest.raises(ZeroDivisionError):
            f(Fraction(1, 2))

    def test_json_round_trip(self):
        rng = random.Random(404)
        for _ in range(25):
            f = rand_ratfunc(rng)
            assert RatFunc.from_json_dict(f.to_json_dict()) == f

    def test_json_shape(self):
        f = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        assert f.to_json_dict() == {"num": ["0", "0", "-1/4"], "den": [[1, 1]]}
