"""The v-side and u-side recurrences and everything built on them."""

from fractions import Fraction
from math import lcm

import pytest

from thetares import recurrence
from thetares import (
    DELTA256,
    THETA,
    THETA2,
    THETA4,
    Family,
    HigherOrderPoleError,
    Poly,
    RatFunc,
    SeqState,
    check_perfect_odd,
    local_residue,
    local_residue_mod,
    parse_family,
    r2_count,
    rec_sequence,
    rec_step,
    relation_defect,
    residue_report,
    resum_matrix,
    scan_lehmer,
    scan_squares,
    scan_two_squares,
    upoly_sequence,
    upoly_step,
)

P_EQ_Y = Family.polynomial([(0, 1, 1)], label="P=y")


@pytest.fixture(scope="module")
def theta2_seq():
    return rec_sequence(THETA2, 12)


@pytest.fixture(scope="module")
def delta_seq():
    return rec_sequence(DELTA256, 8)


class TestRecStep:
    def test_theta2_initial(self):
        assert rec_step(THETA2, 0) == RatFunc(Poly([1]))

    def test_theta2_first(self):
        prev = rec_step(THETA2, 0)
        expect = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        assert rec_step(THETA2, 1, prev) == expect

    def test_delta_initial(self):
        assert rec_step(DELTA256, 0) == RatFunc(Poly([1]), [(2, 1)])

    def test_poly_family_initial_is_constant(self):
        # for P = y the zeroth coefficient of P(1, u) vanishes
        assert rec_step(P_EQ_Y, 0) == RatFunc(Poly())

    def test_poly_family_first(self):
        h1 = rec_step(P_EQ_Y, 1, rec_step(P_EQ_Y, 0))
        assert h1 == RatFunc(Poly([1]), [(1, 1)])

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            rec_step(THETA2, 1)  # missing previous entry
        with pytest.raises(ValueError):
            rec_step(THETA2, 0, RatFunc(Poly([1])))  # spurious previous entry
        with pytest.raises(ValueError):
            rec_step(THETA2, -1)

    def test_previous_entry_with_a_pole_at_or_past_the_edge_is_refused(self):
        # entry 2 has poles only at v = 1/1 and 1/2; one at 1/3 would
        # come back in entry 3 as a duplicate factor
        for j in (3, 4):
            with pytest.raises(ValueError, match="no pole at"):
                rec_step(THETA2, 3, RatFunc(Poly([1]), [(1, 2), (j, 1)]))

    def test_sequence_m0(self):
        seq = rec_sequence(THETA4, 0)
        assert len(seq.entries) == 1 and seq.entries[0] == RatFunc(Poly([1]))


def _bump(entry, i):
    """entry with 1 added to the coefficient of v^i of its numerator."""
    coeffs = list(entry.num.coeffs)
    coeffs.extend([0] * (i + 1 - len(coeffs)))
    coeffs[i] += 1
    return RatFunc(Poly(coeffs), entry.factors)


def _raise_exponent(entry, j):
    """entry with the exponent of its denominator factor (1 - j v) raised by one."""
    return RatFunc(entry.num, [(jj, e + (jj == j)) for jj, e in entry.factors])


@pytest.fixture(scope="module")
def pairs_to_8():
    """(family, m, e_m, e_{m-1}) for m <= 8 of theta^2, 256*Delta and P=y."""
    out = []
    for family in (THETA2, DELTA256, P_EQ_Y):
        entries = rec_sequence(family, 8).entries
        out.extend((family, m, e, entries[m - 1] if m else None) for m, e in enumerate(entries))
    return out


class TestRelationSubstitution:
    """Re-check computed entries by plugging them back into the relation,
    and check that any candidate differing from the computed entry is
    rejected, including changes beyond the degrees the check reads off."""

    def test_theta2(self, theta2_seq):
        entries = theta2_seq.entries
        assert not relation_defect(THETA2, 0, entries[0], None)
        for m in range(1, 9):
            assert not relation_defect(THETA2, m, entries[m], entries[m - 1])

    def test_delta(self, delta_seq):
        entries = delta_seq.entries
        assert not relation_defect(DELTA256, 0, entries[0], None)
        for m in range(1, 9):
            assert not relation_defect(DELTA256, m, entries[m], entries[m - 1])

    def test_poly_family(self):
        seq = rec_sequence(P_EQ_Y, 8)
        assert not relation_defect(P_EQ_Y, 0, seq.entries[0], None)
        for m in range(1, 9):
            assert not relation_defect(P_EQ_Y, m, seq.entries[m], seq.entries[m - 1])

    def test_defect_detects_wrong_entry(self, theta2_seq):
        # e_1 = -v^2 / (4 (1 - v)); doubling it leaves R = -v^2/4
        e1 = theta2_seq.entries[1]
        wrong = RatFunc(e1.num * 2, e1.factors)
        assert relation_defect(THETA2, 1, wrong, theta2_seq.entries[0]) == (2, Fraction(-1, 4))

    def test_rejects_every_coefficient_perturbation(self, pairs_to_8):
        for family, m, entry, prev in pairs_to_8:
            for i in range(len(entry.num.coeffs)):
                assert relation_defect(family, m, _bump(entry, i), prev), (family, m, i)

    def test_rejects_term_above_degree(self, pairs_to_8):
        for family, m, entry, prev in pairs_to_8:
            assert relation_defect(family, m, _bump(entry, len(entry.num.coeffs)), prev)

    def test_rejects_raised_denominator_exponent(self, pairs_to_8):
        for family, m, entry, prev in pairs_to_8:
            for j, _e in entry.factors:
                assert relation_defect(family, m, _raise_exponent(entry, j), prev), (family, m, j)

    def test_rejects_perturbed_previous_entry(self, pairs_to_8):
        for family, m, entry, prev in pairs_to_8:
            if m:
                # the last index lies past the degree bound e_m alone implies,
                # so only the bound's e_{m-1} term covers it
                high = (len(entry.num.coeffs) + sum(e for _j, e in entry.factors)
                        + sum(e + 2 for _j, e in prev.factors))
                for i in [*range(len(prev.num.coeffs) + 1), high]:
                    assert relation_defect(family, m, entry, _bump(prev, i)), (family, m, i)


class TestStructuralInvariants:
    def test_edge_pole_at_most_simple(self, theta2_seq, delta_seq):
        for seq in (theta2_seq, delta_seq):
            for m in range(1, len(seq.entries)):
                assert seq.entries[m].pole_order(seq.family.edge(m)) <= 1

    def test_denominator_support(self, theta2_seq, delta_seq):
        for seq in (theta2_seq, delta_seq):
            a = seq.family.alpha
            for m, entry in enumerate(seq.entries):
                for j, _e in entry.factors:
                    assert a <= j <= m + a

    def test_constant_term_law(self, theta2_seq, delta_seq):
        for seq in (theta2_seq, delta_seq):
            for m, entry in enumerate(seq.entries):
                assert entry.taylor(0)[0] == seq.family.rhs(m)

    def test_constant_term_law_poly(self):
        seq = rec_sequence(P_EQ_Y, 5)
        for m, entry in enumerate(seq.entries):
            assert entry.taylor(0)[0] == P_EQ_Y.rhs(m)


class TestUPoly:
    def test_theta2_phi1_vanishes(self):
        assert upoly_step(THETA2, 0, Poly([1]), Poly()) == Poly()

    def test_theta2_phi2(self):
        phi2 = upoly_step(THETA2, 1, Poly(), Poly([1]))
        assert phi2 == Poly([0, Fraction(-1, 16)])

    def test_poly_family_step(self):
        p1 = upoly_step(P_EQ_Y, 0, Poly([0, 1]), Poly())
        assert p1 == Poly([0, Fraction(1, 2)])

    def test_degree_growth(self):
        for family in (THETA2, DELTA256, P_EQ_Y):
            phis = upoly_sequence(family, 10)
            base = phis[0].degree
            for n, phi in enumerate(phis):
                assert (not phi) or phi.degree <= n + base

    def test_matches_unit_weight_recurrence(self):
        """For the theta^2 family the u-side polynomials coincide with the
        sequence defined by (n+1)^2 p_{n+1} + (u^2-u) p_n' - n u p_n
        + u p_{n-1}/4 = 0, p_0 = 1 (independent re-implementation)."""
        u2u = Poly([0, -1, 1])
        p_prev, p = Poly(), Poly([1])
        expect = [p]
        for n in range(10):
            p_next = (p * Poly([0, n]) - p.diff() * u2u - p_prev.shift(1) * Fraction(1, 4)) / (
                (n + 1) ** 2
            )
            expect.append(p_next)
            p_prev, p = p, p_next
        assert upoly_sequence(THETA2, 10) == expect


class TestResummation:
    def test_theta2_entry_1_2(self):
        assert resum_matrix(THETA2, 2, 3)[1][2] == Fraction(-1, 4)

    def test_multiplicative_row_zero(self, delta_seq):
        matrix = resum_matrix(DELTA256, 4, 6)
        for m in range(5):
            assert matrix[m][0] == (1 if m == 0 else 0)

    def test_poly_column_zero(self):
        matrix = resum_matrix(P_EQ_Y, 3, 4)
        for m in range(4):
            assert matrix[m][0] == P_EQ_Y.rhs(m)

    def test_matches_taylor_theta2(self, theta2_seq):
        matrix = resum_matrix(THETA2, 5, 9)
        for m in range(6):
            taylor = theta2_seq.entries[m].taylor(9)
            assert tuple(matrix[m]) == taylor

    def test_matches_taylor_delta(self, delta_seq):
        matrix = resum_matrix(DELTA256, 4, 8)
        for m in range(5):
            taylor = delta_seq.entries[m].taylor(8)
            assert tuple(matrix[m]) == taylor

    def test_matches_taylor_poly_family(self):
        seq = rec_sequence(P_EQ_Y, 4)
        matrix = resum_matrix(P_EQ_Y, 4, 8)
        for m in range(5):
            assert tuple(matrix[m]) == seq.entries[m].taylor(8)


class TestResidueReport:
    def test_theta2_m1(self, theta2_seq):
        report = residue_report(theta2_seq, 1)
        assert report.pole == 1 and report.pole_order == 1
        assert report.residue == Fraction(1, 4)
        assert report.recovered == 4

    def test_theta2_m2(self, theta2_seq):
        report = residue_report(theta2_seq, 2)
        assert report.residue == Fraction(-1, 128) and report.recovered == 4

    def test_theta2_m3_no_pole(self, theta2_seq):
        report = residue_report(theta2_seq, 3)
        assert report.pole_order == 0 and report.residue == 0 and report.recovered == 0

    def test_m0_rejected(self, theta2_seq):
        with pytest.raises(ValueError):
            residue_report(theta2_seq, 0)

    def test_reads_only_the_given_prefix(self):
        seq = rec_sequence(THETA2, 2)
        with pytest.raises(ValueError):
            residue_report(seq, 3)
        assert len(seq.entries) == 3

    def test_double_edge_pole_has_no_residue(self):
        seq = SeqState(THETA2, [rec_step(THETA2, 0), RatFunc(Poly([1]), [(1, 2)])])
        with pytest.raises(HigherOrderPoleError, match="order 2 at v = 1/1"):
            residue_report(seq, 1)


class TestScans:
    def test_two_squares_small(self):
        assert scan_two_squares(5) == {1, 2, 4, 5}
        assert scan_two_squares(1) == {1}
        assert 3 not in scan_two_squares(3)

    def test_squares_small(self):
        # the global entries are the reference: scan_squares reads only jets
        entries = rec_sequence(THETA, 30).entries
        found = scan_squares(30)
        assert found == {k * k for k in range(1, 6)}
        assert found == {m for m in range(1, 31) if entries[m].pole_order(m) == 1}
        assert scan_squares(10) == {1, 4, 9}
        assert scan_squares(3) == {1}

    def test_lehmer_small(self):
        assert scan_lehmer(2) == []

    def test_perfect_odd_small(self):
        rows = check_perfect_odd(9)
        assert rows[0] == (1, Fraction(1, 2), False)
        m9 = rows[-1]
        assert m9[0] == 9
        assert m9[1] == Fraction(8 * 13, 9 * 16**9)
        assert m9[2] is False


class TestLocalJets:
    def test_matches_the_global_residue(self, theta2_seq, delta_seq):
        # an odd edge offset, a nonzero 4c with 4b = 1, and a rational poly family
        others = [rec_sequence(parse_family(spec), 10) for spec in
                  ("mult:1,0,0", "mult:0,1,3", "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]")]
        p = recurrence.PRIME
        for seq in (theta2_seq, delta_seq, *others):
            for m in range(1, len(seq.entries)):
                res = residue_report(seq, m).residue
                assert local_residue(seq.family, m) == res
                assert local_residue_mod(seq.family, m) == (
                    res.numerator * pow(res.denominator, -1, p) % p)

    def test_mod_p_matches_exact_at_depth(self):
        # no global 256*Delta entry reaches this depth: mod p against exact
        p = recurrence.PRIME
        for m in range(0, 41, 2):
            res = local_residue(DELTA256, m)
            assert local_residue_mod(DELTA256, m) == res.numerator * pow(res.denominator, -1, p) % p

    def test_paper_formula_deep(self):
        # zeros (63) and nonzeros, with steps that divide by the unit directly
        # and steps that fall back to its powers
        p = recurrence.PRIME
        for m in (63, 64, 65, 97, 100):
            res = local_residue(THETA2, m)
            assert res == Fraction((-1) ** (m - 1) * r2_count(m), m * 16**m)
            assert local_residue_mod(THETA2, m) == res.numerator * pow(res.denominator, -1, p) % p

    def test_exact_jet_matches_the_jet_mod_p(self):
        # the mod-p jet multiplies by the inverse of each unit, the exact jet
        # divides by the unit itself where it can: both must give the same
        # residue, and den = 0 mod p exactly when p divides one of the jet's
        # divisors, which is when `local_residue_mod` returns None
        families = [THETA2, THETA4, THETA, DELTA256] + [
            parse_family(spec)
            for spec in ("mult:1,0,0", "mult:2,8,8", "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]")
        ]
        checked = dict.fromkeys((7, 10007, recurrence.PRIME), 0)
        for family in families:
            q = lcm(family.beta.denominator, (family.w / 4).denominator,
                    ((family.w + 1) / 4).denominator, 4)
            for m in range(21):
                s = family.edge(m)
                if s < 1:
                    continue
                divisors = [s, q, *(s - family.edge(k) for k in range(m)),
                            *(Fraction(family.rhs(k)).denominator for k in range(m + 1))]
                res = local_residue(family, m)
                for p in checked:
                    num, den = recurrence._residue_jet(family, m, p)
                    assert (den == 0) == any(d % p == 0 for d in divisors)
                    if den:
                        assert num * pow(den, -1, p) % p == (
                            res.numerator * pow(res.denominator, -1, p) % p)
                        checked[p] += 1
        assert all(checked.values())

    def test_initial_entry(self):
        assert local_residue(DELTA256, 0) == rec_step(DELTA256, 0).residue(2) == Fraction(-1, 2)
        with pytest.raises(ValueError):
            local_residue(THETA2, 0)  # a = 0: entry 0 has no pole

    @pytest.fixture
    def prime_7(self, monkeypatch):
        """Reduce the scan's jets mod 7 and record every exact fallback."""
        monkeypatch.setattr(recurrence, "PRIME", 7)
        calls = []

        def exact(family, m):
            calls.append(m)
            return local_residue(family, m)

        monkeypatch.setattr(recurrence, "local_residue", exact)
        return calls

    def test_false_zero_mod_p_falls_back_to_the_exact_jet(self, prime_7):
        # tau(3) = 252 = 2^2 3^2 7: the residue -21/32768 of entry 4 is 0 mod 7
        assert local_residue(DELTA256, 4) == Fraction(-21, 32768)
        assert local_residue_mod(DELTA256, 4) == 0
        assert scan_lehmer(2) == []
        assert prime_7 == [4]

    def test_divisor_divisible_by_p_falls_back_to_the_exact_jet(self, prime_7):
        # entry 8 sits at v = 1/10, and s - s_1 = 10 - 3 = 7 is no unit mod 7
        assert local_residue_mod(DELTA256, 8) is None
        assert scan_lehmer(4) == []
        assert prime_7 == [4, 8]

    def test_residues_suite_catches_a_wrong_global_residue(self, monkeypatch):
        from thetares import checks

        seq = rec_sequence(THETA2, 6)
        seq.entries[5] = RatFunc(seq.entries[5].num * 3, seq.entries[5].factors)
        monkeypatch.setattr(checks, "rec_sequence", lambda family, m_max: (
            seq if family == THETA2 else rec_sequence(family, m_max)))
        results = checks.residues_suite(theta2_max=6)
        failed = [r.name for r in results if not r.passed]
        assert failed == [
            "theta^2 residues recover r2(m) for m <= 6",
            "theta^2 local jets agree exactly and mod 2^61-1 with the residues for m <= 6",
        ]

    def test_residues_suite_catches_a_wrong_exact_jet(self, monkeypatch):
        # the residue `thetares residues` prints, off by a factor of 2: the
        # mod-p comparison alone would not see it
        from thetares import checks

        monkeypatch.setattr(checks, "local_residue", lambda family, m: 2 * local_residue(family, m))
        results = checks.residues_suite(theta2_max=4)
        failed = [r.name for r in results if not r.passed]
        assert failed == [
            f"{family} local jets agree exactly and mod 2^61-1 with the residues for m <= 4"
            for family in ("theta^2", "theta^4", "theta", "256*Delta")
        ]
