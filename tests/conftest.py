"""Shared helpers for the test suite: deterministic random generators
for exact rationals, polynomials and factored rational functions."""

import random
from fractions import Fraction

from thetares import Poly, RatFunc, backend


def rand_rat(rng: random.Random, bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_poly(rng: random.Random, max_deg: int = 6, bound: int = 20) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly([rand_rat(rng, bound) for _ in range(deg + 1)])


def rand_ratfunc(rng: random.Random, max_deg: int = 5, max_factors: int = 3) -> RatFunc:
    """A reduced value: factors sorted by j, and none at a root 1/j of the
    numerator (so a zero numerator has none)."""
    num = rand_poly(rng, max_deg)
    indices = rng.sample(range(1, 11), rng.randint(0, max_factors))
    return RatFunc(num, [(j, rng.randint(1, 3)) for j in sorted(indices)
                         if backend.eval_at_inv(num.int_coeffs, j)])
