"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is an exact (rational-arithmetic) assertion; there
are no tolerances.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from thetares import (
    DELTA256,
    THETA,
    THETA2,
    THETA4,
    Family,
    Poly,
    backend,
    has_pole,
    local_residue,
    local_residue_mod,
    r2_count,
    ramanujan_tau,
    rec_sequence,
    residue_report,
    sigma1,
)
from thetares.checks import (
    R4_DEN_EXPANDED,
    R4_FACTORS,
    R4_NUM,
    identities_suite,
    max_three_term_defect,
    resum_suite,
)
from thetares.cli import main
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
    product = [1]  # (1-2v)^9 (1-4v)^5 (1-6v), one linear factor at a time
    for j, e in ((2, 9), (4, 5), (6, 1)):
        for _ in range(e):
            product = backend.conv(product, [1, -j])
    assert R4_DEN_EXPANDED == [-c for c in product]
    # function equality with the published pair, cross-multiplied
    nums, den = list(entry.num.int_coeffs), entry.num.int_den
    assert backend.conv(nums, R4_DEN_EXPANDED) == [den * c for c in backend.conv(R4_NUM, product)]
    assert entry.factors == R4_FACTORS
    assert entry.num == Poly.from_cleared([-c for c in R4_NUM], 1)
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

def test_criterion_6_resummation_equivalence():
    results = resum_suite()
    mixed = "mult:1,3,5*poly:2:[(0,2,1),(1,1,-3/2),(2,0,2)]"
    assert [r.name for r in results] == [
        f"resummation equivalence for {family}, every entry m <= {m_max} "
        "(8 coefficients past deg N vanish)"
        for family, m_max in (("theta^2", 20), ("256*Delta", 20), (mixed, 12))]
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    report(6, "resummation equivalence, whole entries (theta^2 and 256*Delta to m = 20, "
              "a mixed family to m = 12)")

def test_criterion_7_qseries_identities():
    results = identities_suite(jacobi_trunc=128, identity_trunc=64)
    core = [r for r in results if "three-term" not in r.name]
    assert all(r.passed for r in core), [r for r in core if not r.passed]
    report(7, "Jacobi (trunc 128), derivative identities and discriminant (trunc 64)")

def test_criterion_8_three_term_relation():
    for family in (Family(monomials=((0, 1, 1),)), THETA2):
        assert max_three_term_defect(family, 6, 40) is None
    report(8, "three-term relation for P=y and theta^2, n <= 6 (trunc 40)")

def test_criterion_9_number_theoretic_scans(theta2_seq, delta_seq, theta4_seq):
    # two-squares scan against brute-force enumeration
    found = {n for n in range(1, 41) if has_pole(THETA2, n)}
    brute = {
        n for n in range(1, 41)
        if any(a * a <= n and _is_square(n - a * a) for a in range(7))
    }
    assert found == brute
    # the local jets agree with the global entries' pole orders
    assert found == {n for n in range(1, 41) if theta2_seq.entries[n].pole_order(n) == 1}

    assert {n for n in range(1, 17) if has_pole(THETA, n)} == {1, 4, 9, 16}

    violations = [m for m in range(9) if not has_pole(DELTA256, 2 * m)]
    assert violations == []
    # the local jets agree with the global entries' pole orders
    assert violations == [
        m for m in range(9) if delta_seq.entries[2 * m].pole_order(2 * m + 2) == 0
    ]
    assert all(ramanujan_tau(m + 1) != 0 for m in range(9))

    # the perfect-odd scan, through the command that runs it (capsys would
    # also swallow this test's PASS line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["scan", "--kind", "perfect-odd", "--m-max", "31", "--format", "json"])
    payload = json.loads(out.getvalue())
    assert code == 0 and payload["perfect"] == [] and payload["mismatches"] == []
    rows = payload["rows"]
    # the local jets agree with the global entries' residues
    assert [row["residue"] for row in rows] == [
        str(residue_report(theta4_seq, m).residue) for m in range(1, 32, 2)
    ]
    assert all(row["is_perfect"] == (sigma1(row["m"]) == 2 * row["m"]) for row in rows)
    report(9, "number-theoretic scans (two-squares 40, squares 16, lehmer 8, perfect-odd 31)")

def _is_square(n):
    from math import isqrt

    return isqrt(n) ** 2 == n
