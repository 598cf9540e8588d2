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
resummation.  The cache's relation check (`_fits`, the relation at one
point mod PRIME) accepts every entry and rejects the entry, or the
previous entry, with one numerator coefficient moved by 1/den, as
`relation_defect` does.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thetares import (
    Family,
    Poly,
    RatFunc,
    backend,
    cf_coeff,
    local_residue,
    local_residue_mod,
    rec_sequence,
    relation_defect,
    residue_report,
    resum_matrix,
)
from thetares.recurrence import PRIME, _fits, _point

M_MAX = 8
V0 = random.Random(0).randrange(2, PRIME)  # a point as `rec_sequence` draws one


@st.composite
def mult_families(draw):
    a = draw(st.integers(0, 5))
    b4 = draw(st.integers(0, 8))
    c4 = draw(st.integers(1 if a == b4 == 0 else 0, 8))
    return Family.multiplicative(a, Fraction(b4, 4), Fraction(c4, 4))


coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def poly_families(draw):
    k = draw(st.integers(1, 3))
    coeffs = draw(st.lists(coefficients, min_size=k + 1, max_size=k + 1))
    if not any(coeffs):
        coeffs[draw(st.integers(0, k))] = Fraction(1)
    return Family.polynomial([(k - j, j, c) for j, c in enumerate(coeffs)])


def moved(entry, i):
    """``entry`` with numerator coefficient i (mod its length) moved by 1/den."""
    nums = list(entry.num.int_coeffs) or [0]
    nums[i % len(nums)] += entry.num.int_den
    return RatFunc(Poly.from_cleared(nums, entry.num.int_den), entry.factors)


@settings(deadline=None, derandomize=True)
@given(st.one_of(mult_families(), poly_families()), st.integers(0, 63))
def test_every_step_satisfies_the_relation_and_the_residue_identity(family, i):
    seq = rec_sequence(family, M_MAX)
    at = None
    for m, entry in enumerate(seq.entries):
        prev = seq.entries[m - 1] if m else None
        assert not relation_defect(family, m, entry, prev)
        at_prev, at = at, _fits(family, m, entry, prev, V0, at)
        assert at == _point(entry, V0) is not None
        bad = moved(entry, i)
        assert relation_defect(family, m, bad, prev)
        assert _fits(family, m, bad, prev, V0, at_prev) is None
        if m:
            bad = moved(prev, i)
            assert relation_defect(family, m, entry, bad)
            assert _fits(family, m, entry, prev, V0, _point(bad, V0)) is None
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
    matrix = resum_matrix(family, M_MAX, M_MAX)
    for m, entry in enumerate(seq.entries):
        assert tuple(matrix[m]) == entry.taylor(M_MAX)
