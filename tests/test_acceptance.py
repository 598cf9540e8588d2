"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is an exact (rational-arithmetic) assertion; there
are no tolerances.
"""

from fractions import Fraction

import pytest

from thetares import (
    DELTA256,
    THETA,
    THETA2,
    THETA4,
    Family,

    check_perfect_odd,
    local_residue,
    local_residue_mod,
    r2_count,
    ramanujan_tau,
    rec_sequence,
    residue_report,
    resum_matrix,
    scan_lehmer,
    scan_squares,
    scan_two_squares,
    sigma1,
)
from thetares.checks import (
    R4_DEN_EXPANDED,
    R4_FACTORS,
    R4_NUM,
    identities_suite,
    max_three_term_defect,
)
from thetares.ratfunc import edge_factor
from thetares.recurrence import PRIME

@pytest.fixture(scope="module")
def theta2_seq():
    return rec_sequence(THETA2, 40)

@pytest.fixture(scope="module")
def theta_seq():
    return rec_sequence(THETA, 16)

@pytest.fixture(scope="module")
def theta4_seq():
    return rec_sequence(THETA4, 31)

@pytest.fixture(scope="module")
def delta_seq():
    return rec_sequence(DELTA256, 16)

def report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")

def test_criterion_1_golden_r4(delta_seq):
    """Entry 4 of family (2,2,2) equals the published numerator/denominator
    pair exactly.  The published expanded denominator equals minus the
    factored product (its constant term is -1 while the product's is +1),
    so in canonical factored form the numerator carries the opposite sign;
    the published N/D pair itself, the factored exponents, and the residue
    data of criterion 2 are all consistent and all asserted here."""
    entry = delta_seq.entries[4]
    product = edge_factor(2, 9) * edge_factor(4, 5) * edge_factor(6, 1)
    assert R4_DEN_EXPANDED == -product
    # function equality with the published pair, cross-multiplied
    assert entry.num * R4_DEN_EXPANDED == R4_NUM * product
    assert entry.factors == R4_FACTORS
    assert entry.num == -R4_NUM
    report(1, "golden R4 entry")

def test_criterion_2_golden_r4_residue(delta_seq):
    entry = delta_seq.entries[4]
    res = entry.residue(6)
    assert res == Fraction(-21, 32768)
    sign = (-1) ** (4 + 2 + 1)
    assert sign * 6 * 16**6 * res / 256 == 252 == ramanujan_tau(3)
    rep = residue_report(delta_seq, 4)
    assert rep.recovered == 256 * 252
    report(2, "golden R4 residue = -21/32768, tau(3) = 252")

def test_criterion_3_golden_q11(theta_seq):
    assert theta_seq.entries[11].factors == ((1, 21), (4, 15), (9, 5))
    report(3, "golden Q11 denominator (1-v)^21 (1-4v)^15 (1-9v)^5")

def test_criterion_4_theta2_residues_to_30(theta2_seq):
    for m in range(1, 41):
        rep = residue_report(theta2_seq, m)
        assert rep.pole_order <= 1
        sign = (-1) ** (m - 1)
        assert sign * m * 16**m * rep.residue == rep.recovered
        assert rep.recovered == r2_count(m)  # dual oracle self-checks
        # the paper's formula read off the exact local jet; the zeros (m not
        # a sum of two squares) are the two-squares scan's exact fallbacks
        res = local_residue(THETA2, m)
        assert res == rep.residue == Fraction(sign * r2_count(m), m * 16**m)
        assert local_residue_mod(THETA2, m) == res.numerator * pow(res.denominator, -1, PRIME) % PRIME
    report(4, "theta^2 residues recover r2(m), global and local jets, m <= 40")

def test_criterion_5_multiplicative_residues_to_15(theta4_seq, theta_seq, delta_seq):
    from thetares import cf_coeff

    for seq in (theta4_seq, theta_seq, delta_seq):
        for m in range(1, 16):
            rep = residue_report(seq, m)
            assert rep.recovered == cf_coeff(seq.family, rep.pole)
    report(5, "residues recover q-coefficients for (0,0,1), (0,0,1/4), (2,2,2)")

def test_criterion_6_resummation_equivalence(theta2_seq, delta_seq):
    for seq in (theta2_seq, delta_seq):
        matrix = resum_matrix(seq.family, 6, 12)
        for m in range(7):
            taylor = seq.entries[m].taylor(12)
            assert tuple(matrix[m]) == taylor
    report(6, "resummation equivalence (m <= 6, i <= 12)")

def test_criterion_7_qseries_identities():
    results = identities_suite(jacobi_trunc=128, identity_trunc=64)
    core = [r for r in results if "three-term" not in r.name]
    assert all(r.passed for r in core), [r for r in core if not r.passed]
    report(7, "Jacobi (trunc 128), derivative identities and discriminant (trunc 64)")

def test_criterion_8_three_term_relation():
    for family in (Family.polynomial([(0, 1, 1)]), THETA2):
        assert max_three_term_defect(family, 6, 40) is None
    report(8, "three-term relation for P=y and theta^2, n <= 6 (trunc 40)")

def test_criterion_9_number_theoretic_scans(theta2_seq, delta_seq, theta4_seq):
    # two-squares scan against brute-force enumeration
    found = scan_two_squares(40)
    brute = {
        n for n in range(1, 41)
        if any(a * a <= n and _is_square(n - a * a) for a in range(7))
    }
    assert found == brute
    # the local jets agree with the global entries' pole orders
    assert found == {n for n in range(1, 41) if theta2_seq.entries[n].pole_order(n) == 1}

    assert scan_squares(16) == {1, 4, 9, 16}

    violations = scan_lehmer(8)
    assert violations == []
    # the local jets agree with the global entries' pole orders
    assert violations == [
        m for m in range(9) if delta_seq.entries[2 * m].pole_order(2 * m + 2) == 0
    ]
    assert all(ramanujan_tau(m + 1) != 0 for m in range(9))

    rows = check_perfect_odd(31)
    assert [m for m, _res, flag in rows if flag] == []
    # the local jets agree with the global entries' residues
    assert [res for _m, res, _flag in rows] == [
        residue_report(theta4_seq, m).residue for m in range(1, 32, 2)
    ]
    assert all(flag == (sigma1(m) == 2 * m) for m, _res, flag in rows)
    report(9, "number-theoretic scans (two-squares 40, squares 16, lehmer 8, perfect-odd 31)")

def _is_square(n):
    from math import isqrt

    return isqrt(n) ** 2 == n
