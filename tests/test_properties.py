"""Property tests over random admissible families.

Every step of the fused recurrence is checked by `relation_defect`,
which substitutes Taylor coefficients at v = 0 into the literal form of
the relation and shares no arithmetic with the step; an entry must be
reduced (no factor (1 - j v) divides its numerator, and a zero entry has
no factors), its factors must be the previous entry's raised by 2 plus
at most a simple pole at the edge, the residue there must recover the
family's q-expansion coefficient from the independent q-series oracle
and equal the residue of the local jet at the edge (exactly, and mod its
prime), and the entries' Taylor coefficients must match the u-side
columns.  The cache's check (`_fits`, each entry against its value
at one point mod a drawn prime, read off the jet expanded there) accepts
every entry and rejects the entry with one numerator coefficient moved
by 1/den or by (2^61 - 1)/den, as `relation_defect` does; a moved
previous entry is rejected one step earlier, at its own index.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from relation import relation_defect, taylor
from thetares import (
    Family,
    Poly,
    RatFunc,
    backend,
    cf_coeff,
    local_residue,
    local_residue_mod,
    rec_sequence,
    residue_report,
)
from thetares.checks import u_columns
from thetares.recurrence import PRIME, _draw_prime, _fits, _jet_values, _Tables

M_MAX = 8
RNG = random.Random(0)
P = _draw_prime(RNG, 1)  # a prime and a point as `rec_sequence` draws them
V0 = pow(RNG.randrange(6 + M_MAX, P), -1, P)  # 1/V0 past every edge m + a, a <= 5

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def families(draw):
    """a, 4b, 4c and an optional P of degree 1..3, each drawn on its own,
    so both parts are often non-trivial; P is drawn whenever a = 4b = 4c = 0."""
    a, b4, c4 = draw(st.integers(0, 5)), draw(st.integers(0, 8)), draw(st.integers(0, 8))
    monomials = ((0, 0, 1),)
    if draw(st.booleans()) or not (a or b4 or c4):
        k = draw(st.integers(1, 3))
        coeffs = draw(st.lists(coefficients, min_size=k + 1, max_size=k + 1))
        if not any(coeffs):
            coeffs[draw(st.integers(0, k))] = Fraction(1)
        monomials = [(k - j, j, c) for j, c in enumerate(coeffs)]
    return Family(a, Fraction(b4, 4), Fraction(c4, 4), monomials)


def moved(entry, i, k):
    """``entry`` with numerator coefficient i (mod its length) moved by k/den."""
    nums = list(entry.num.int_coeffs) or [0]
    nums[i % len(nums)] += k * entry.num.int_den
    return RatFunc(Poly.from_cleared(nums, entry.num.int_den), entry.factors)


@settings(deadline=None, derandomize=True)
@given(families(), st.integers(0, 63),
       st.sampled_from([1, 2**61 - 1]))
def test_every_step_satisfies_the_relation_and_the_residue_identity(family, i, k):
    seq = rec_sequence(family, M_MAX)
    tables, values = _Tables(P, V0), _jet_values(family, M_MAX, P, V0)
    for m, entry in enumerate(seq.entries):
        prev = seq.entries[m - 1] if m else RatFunc(Poly())
        assert not relation_defect(family, m, entry, prev)
        assert _fits(family, m, entry, prev, tables, values[m])
        bad = moved(entry, i, k)
        assert relation_defect(family, m, bad, prev)
        assert not _fits(family, m, bad, prev, tables, values[m])
        if m:
            # moved(prev, i, k) was refused at m - 1 as that step's `bad`;
            # at m, `_fits` reads only prev's factors, which it keeps
            bad = moved(prev, i, k)
            assert relation_defect(family, m, entry, bad)
            assert _fits(family, m, entry, bad, tables, values[m])
        assert all(backend.eval_at_inv(entry.num.int_coeffs, j) for j, _e in entry.factors)
        assert entry.num or not entry.factors
        if m:
            raised = tuple((j, e + 2) for j, e in prev.factors)
            assert entry.factors in (raised, raised + ((family.edge(m), 1),))
            report = residue_report(seq, m)
            assert report.recovered == cf_coeff(family, report.pole, trunc=16)
            res = report.residue
            assert local_residue(family, m) == res
            res_mod = res.numerator * pow(res.denominator, -1, PRIME) % PRIME
            assert local_residue_mod(family, m) == res_mod
    columns = u_columns(family, [M_MAX + 1] * (M_MAX + 1))
    for entry, column in zip(seq.entries, columns):
        assert [column.coeff(i) for i in range(M_MAX + 1)] == list(taylor(entry, M_MAX))
