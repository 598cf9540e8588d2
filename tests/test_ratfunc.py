"""Factored rational functions: reduction, poles, residues, Taylor expansion."""

import random
from fractions import Fraction
from math import prod

import pytest

from conftest import rand_ratfunc
from relation import taylor
from thetares import DELTA256, THETA2, HigherOrderPoleError, Poly, RatFunc, backend, rec_sequence
from thetares.checks import _laurent_constant


ONE = RatFunc(Poly([1]))


class TestConstruction:
    def test_constant(self):
        f = RatFunc(Poly([1]))
        assert f.num == Poly([1]) and f.factors == ()

    def test_stores_reduced_form_as_given(self):
        f = RatFunc(Poly([1, -1]), [(2, 1), (3, 2)])
        assert f.num == Poly([1, -1]) and f.factors == ((2, 1), (3, 2))

    def test_reduction_idempotent(self):
        # the generator's values are reduced: no factor divides the numerator
        rng = random.Random(31337)
        for _ in range(40):
            f = rand_ratfunc(rng)
            assert all(backend.eval_at_inv(f.num.int_coeffs, j) for j, _e in f.factors)
            assert f.num or not f.factors
            assert [j for j, _e in f.factors] == sorted({j for j, _e in f.factors})


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

    def test_residue_matches_the_fraction_formula(self):
        # reference: N(1/j) / (-j prod_{k != j} (1 - k/j)^e_k), all in Fraction
        rng = random.Random(2718)
        checked = 0
        for _ in range(200):
            g = rand_ratfunc(rng)
            free = [j for j in range(1, 13) if g.pole_order(j) == 0
                    and backend.eval_at_inv(g.num.int_coeffs, j)]
            if not free:
                continue
            j = rng.choice(free)
            f = RatFunc(g.num, sorted(g.factors + ((j, 1),)))
            point = Fraction(1, j)
            num = sum(c * point**i for i, c in enumerate(g.num.coeffs))
            rest = Fraction(1)
            for k, e in g.factors:
                rest *= (1 - k * point) ** e
            assert f.residue(j) == num / (-j * rest)
            assert f.residue(j) != 0
            checked += 1
        assert checked > 100


def _laurent_by_derivative(f: RatFunc, j: int) -> Fraction:
    """The golden suite's former route to the Laurent constant at a simple
    pole 1/j: -g'(1/j) / j for g = N / D~, D~ = prod_{k != j} (1 - k v)^e_k,
    with g' = (N' + N sum_{k != j} e_k k / (1 - k v)) / D~ and every value at
    1/j summed in Fraction."""
    point = Fraction(1, j)
    others = [(k, e) for k, e in f.factors if k != j]
    dtilde = prod((1 - k * point) ** e for k, e in others)
    log_deriv = sum(e * k / (1 - k * point) for k, e in others)
    coeffs = f.num.coeffs
    n_at = sum(c * point**i for i, c in enumerate(coeffs))
    n_prime_at = sum(i * c * point ** (i - 1) for i, c in enumerate(coeffs) if i)
    return -(n_prime_at + n_at * log_deriv) / dtilde / j


class TestLaurentConstant:
    """The constant term at a simple pole, as two residues over f's factors."""

    def test_matches_the_derivative_route_at_every_simple_edge_pole(self):
        checked = 0
        for family, m_max in ((THETA2, 20), (DELTA256, 16)):
            seq = rec_sequence(family, m_max)
            for m in range(1, m_max + 1):
                entry, s = seq.entries[m], family.edge(m)
                if entry.pole_order(s) == 1:
                    assert _laurent_constant(entry, s) == _laurent_by_derivative(entry, s)
                    checked += 1
        # r2(n) > 0 at 12 of n = 1..20; 256 Delta has poles at the even edges 4..18
        assert checked == 12 + 8
        assert _laurent_constant(seq.entries[4], 6) == Fraction(-2241, 16384)  # R4

    def test_matches_the_derivative_route_on_random_values(self):
        rng = random.Random(1618)
        checked = 0
        for _ in range(200):
            f = rand_ratfunc(rng)
            for j, e in f.factors:
                if e == 1:
                    assert _laurent_constant(f, j) == _laurent_by_derivative(f, j)
                    checked += 1
        assert checked > 50


class TestTaylor:
    def test_geometric(self):
        f = RatFunc(Poly([1]), [(2, 1)])
        assert taylor(f, 3) == (1, 2, 4, 8)

    def test_pole_powers_are_binomials(self):
        from math import comb

        for j in (1, 2, 5):
            for e in (1, 2, 4):
                got = taylor(RatFunc(Poly([1]), [(j, e)]), 11)
                assert got == tuple(comb(i + e - 1, e - 1) * j**i for i in range(12))

    def test_hand_expansion(self):
        f = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        q = Fraction(-1, 4)
        assert taylor(f, 4) == (0, 0, q, q, q)

    def test_polynomial(self):
        assert taylor(RatFunc(Poly([0, 0, 1])), 5) == (0, 0, 1, 0, 0, 0)

    def test_matches_evaluation_free_coefficient(self):
        rng = random.Random(11)
        for _ in range(20):
            f = rand_ratfunc(rng)
            assert taylor(f, 0)[0] == f.num.coeff(0)


class TestEvaluationAndSerialization:
    def test_json_round_trip(self):
        rng = random.Random(404)
        for _ in range(25):
            f = rand_ratfunc(rng)
            data = f.to_json_dict()
            assert data["num"] == [str(c) for c in f.num.coeffs]
            assert data["den"] == [[j, e] for j, e in f.factors]

    def test_json_shape(self):
        f = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        assert f.to_json_dict() == {"num": ["0", "0", "-1/4"], "den": [[1, 1]]}
