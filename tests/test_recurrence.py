"""The v-side and u-side recurrences and everything built on them."""

import random
from fractions import Fraction
from functools import partial
from math import comb, isqrt, lcm

import pytest

from conftest import rand_ratfunc
from relation import relation_defect, taylor
from thetares import backend, checks, recurrence
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
    cf_coeff,
    has_pole,
    local_residue,
    local_residue_mod,
    parse_family,
    r2_count,
    rec_sequence,
    rec_step,
    residue_report,
    upoly_sequence,
    upoly_step,
)

ZERO = RatFunc(Poly())  # e_{-1} = 0, the entry rec_step takes before e_0
P_EQ_Y = Family(monomials=((0, 1, 1),), label="P=y")
RATIONAL_DEG2 = "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]"
# both parts non-trivial: every theta part with a <= 2, 4b in {0, 3, 6} and
# 4c in {0, 4, 8} but 1, times P = x + y, y, x and a rational degree-2 P
MIXED = [f"mult:{a},{b4},{c4}*{poly}" for a in range(3) for b4 in (0, 3, 6)
         for c4 in (0, 4, 8) if a or b4 or c4
         for poly in ("poly:1:[(0,1,1),(1,0,1)]", "poly:1:[(0,1,1)]", "poly:1:[(1,0,1)]",
                      RATIONAL_DEG2)]
# the mixed families whose u-side columns are checked here and whose
# three-term relation test_qseries.py checks
MIXED_DEEP = [f"mult:{theta}*{RATIONAL_DEG2}" for theta in ("1,0,4", "0,4,4", "2,8,8", "1,3,5")]
# theta^2, theta, theta^4, 256*Delta, three more monomials and three P(x, y)
U_SIDE_FAMILIES = [
    "mult:0,0,2", "mult:0,0,1", "mult:0,0,4", "mult:2,8,8",
    "mult:1,0,0", "mult:3,2,6", "mult:1,1,1",
    "poly:1:[(0,1,1)]", "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]",
    "poly:4:[(0,4,1),(2,2,-7/3),(4,0,5)]",
]


@pytest.fixture(scope="module")
def theta2_seq():
    return rec_sequence(THETA2, 12)


@pytest.fixture(scope="module")
def delta_seq():
    return rec_sequence(DELTA256, 8)


class TestRecStep:
    def test_theta2_initial(self):
        assert rec_step(THETA2, 0, ZERO) == RatFunc(Poly([1]))

    def test_theta2_first(self):
        prev = rec_step(THETA2, 0, ZERO)
        expect = RatFunc(Poly([0, 0, Fraction(-1, 4)]), [(1, 1)])
        assert rec_step(THETA2, 1, prev) == expect

    def test_delta_initial(self):
        assert rec_step(DELTA256, 0, ZERO) == RatFunc(Poly([1]), [(2, 1)])

    def test_poly_family_initial_is_constant(self):
        # for P = y the zeroth coefficient of P(1, u) vanishes
        assert rec_step(P_EQ_Y, 0, ZERO) == RatFunc(Poly())

    def test_poly_family_first(self):
        h1 = rec_step(P_EQ_Y, 1, rec_step(P_EQ_Y, 0, ZERO))
        assert h1 == RatFunc(Poly([1]), [(1, 1)])

    def test_usage_errors(self):
        with pytest.raises(TypeError):
            rec_step(THETA2, 1)  # missing previous entry
        with pytest.raises(TypeError):
            rec_step(THETA2, 0)  # e_-1 = 0 is passed like any other entry
        with pytest.raises(ValueError, match="entry 0 needs e_-1 = 0"):
            rec_step(THETA2, 0, RatFunc(Poly([1])))  # spurious previous entry
        with pytest.raises(ValueError):
            rec_step(THETA2, -1, ZERO)

    def test_previous_entry_with_a_pole_at_or_past_the_edge_is_refused(self):
        # entry 2 has poles only at v = 1/1 and 1/2; one at 1/3 would
        # come back in entry 3 as a duplicate factor
        for j in (3, 4):
            with pytest.raises(ValueError, match="no pole at"):
                rec_step(THETA2, 3, RatFunc(Poly([1]), [(1, 2), (j, 1)]))

    def test_sequence_m0(self):
        seq = rec_sequence(THETA4, 0)
        assert len(seq.entries) == 1 and seq.entries[0] == RatFunc(Poly([1]))


# the 10 families on which the step is checked against the retired one
STEP_FAMILIES = [
    "mult:0,0,2", "mult:2,8,8", "mult:0,0,1", "mult:1,0,0", "mult:0,1,3",
    "mult:3,2,6", "mult:1,1,1", "poly:1:[(0,1,1)]",
    "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]", "poly:4:[(0,4,1),(2,2,-7/3),(4,0,5)]",
]


def _theta(nums):
    """theta = v d/dv on an integer coefficient list."""
    return [i * c for i, c in enumerate(nums)]


def _combo(coeffs, lists):
    """sum_k coeffs[k] * lists[k] for integer lists of any lengths."""
    out = [0] * max(map(len, lists))
    for c, xs in zip(coeffs, lists):
        for i, x in enumerate(xs):
            out[i] += c * x
    return out


def _five_product_step(family, m, prev):
    """The reference for `rec_step`, prev = e_{-1} = 0 at m = 0: the step
    before P = L theta M - A_1 M, with P = theta(M L) - A_2 M,
    A_2 = A_1 + theta L, and the numerator formed from N L^2, M L and P."""
    ell = [1]
    for j, _e in prev.factors:
        ell = backend.conv(ell, [1, -j])
    a1, a2 = [0] * len(ell), [0] * len(ell)
    for j, e in prev.factors:
        for i, c in enumerate(backend.divexact_linear(ell, j)):
            a1[i + 1] -= (e + 1) * j * c
            a2[i + 1] -= (e + 2) * j * c
    n = list(prev.num.int_coeffs)
    nl = backend.conv(n, ell)
    mm = _combo((1, -1), (_theta(nl), backend.conv(n, a1)))
    nl2 = backend.conv(nl, ell)
    ml = backend.conv(mm, ell)
    p = _combo((1, -1), (_theta(ml), backend.conv(mm, a2)))
    c0, cw, cw1 = m - 1 - family.beta, family.w / 4, (family.w + 1) / 4
    rhs = Fraction(family.rhs(m))
    q = lcm(c0.denominator, cw.denominator, cw1.denominator, 4, rhs.denominator)
    t = _combo(
        (-int(c0 * q), q, -int(cw * q), -int(cw1 * q), -(q // 4)),
        ([0] + nl2, [0] + ml, [0, 0] + nl2, [0, 0] + ml, [0, 0] + p),
    )
    factors = tuple((j, e + 2) for j, e in prev.factors)
    if rhs:
        dl2 = [1]
        for j, e in factors:
            dl2 = backend.conv(dl2, [comb(e, i) * (-j) ** i for i in range(e + 1)])
        t = _combo((1, int(rhs * q) * prev.num.int_den), (t, dl2))
    s = family.edge(m)
    if s and backend.eval_at_inv(t, s):
        factors += ((s, 1),)
    elif s:
        t = backend.divexact_linear(t, s)
    return RatFunc(Poly.from_cleared(t, q * prev.num.int_den), factors)


class TestFourProductStep:
    def test_matches_the_five_product_step(self):
        rhs_over_factors = set()
        for text in STEP_FAMILIES:
            family = parse_family(text)
            prev = ZERO
            for m in range(17):
                expect = _five_product_step(family, m, prev)
                assert rec_step(family, m, prev) == expect, (text, m)
                if family.rhs(m) and prev.factors:
                    rhs_over_factors.add(text)
                prev = expect
        # the two rational poly families also cover the step's rhs term
        # over an entry with factors
        assert set(STEP_FAMILIES[-2:]) <= rhs_over_factors

    def test_four_products_per_step(self, monkeypatch):
        calls = []
        conv = backend.conv

        def counted(a, b):
            calls.append(1)
            return conv(a, b)

        monkeypatch.setattr(backend, "conv", counted)
        for family in (THETA2, DELTA256):
            prev = rec_step(family, 0, ZERO)
            for m in range(1, 13):
                assert family.rhs(m) == 0
                calls.clear()
                prev = rec_step(family, m, prev)
                assert len(calls) == 4, (family, m)


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
        wrong = RatFunc(Poly.from_cleared([2 * c for c in e1.num.int_coeffs], e1.num.int_den),
                        e1.factors)
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


def _horner_value(entry, p, v0):
    """The reference for `recurrence._value`: N(v0) / (den D(v0)) mod p, N by
    Horner, reduced mod p at every coefficient, and each factor's unit formed
    afresh."""
    n0 = 0
    for c in reversed(entry.num.int_coeffs):
        n0 = (n0 * v0 + c) % p
    den = entry.num.int_den
    for j, e in entry.factors:
        den = den * pow(1 - j * v0, e, p) % p
    return n0 * pow(den, -1, p) % p if den % p else None


class _Draws:
    """Stands in for random.SystemRandom: hands out the given draws in order."""

    def __init__(self, draws):
        self.draws, self.ranges = draws, []

    def __call__(self):
        return self

    def randrange(self, *range_):
        self.ranges.append(range_)
        return self.draws.pop(0)


# primes in [2^61, 2^62), the range `rec_sequence` draws its modulus from
P1, P2, P3 = 2**61 + 15, 2**61 + 21, 2**62 - 57
# a strong pseudoprime to every base 2 .. 23, in the same range
PSEUDOPRIME = 3825123056546413051


class TestIsPrime:
    @pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, P1, P2, P3])
    def test_primes(self, n):
        assert recurrence._is_prime(n)

    @pytest.mark.parametrize("n", [561, 3215031751, PSEUDOPRIME])
    def test_strong_pseudoprimes_to_small_bases(self, n):
        assert not recurrence._is_prime(n)

    def test_matches_trial_division(self):
        primes = [n for n in range(2, 10**4) if all(n % d for d in range(2, isqrt(n) + 1))]
        assert [n for n in range(-2, 10**4) if recurrence._is_prime(n)] == primes


class TestPointCheck:
    """`_value` and `_fits`: each entry against its value at one point v0 mod a
    drawn prime, read off the jet expanded at v0."""

    V0 = 0x1D2C3B4A59687706

    def test_matches_the_horner_pass(self):
        rng = random.Random(5)
        tables = recurrence._Tables(P1, self.V0)
        cases = [RatFunc(Poly()),  # a zero numerator
                 RatFunc(Poly([Fraction(3, 7)]), [(1, 2), (3, 1)]),  # degree 0
                 *(rand_ratfunc(rng) for _ in range(40))]
        for entry in cases:
            assert recurrence._value(entry, tables) == _horner_value(entry, P1, self.V0)

    def test_tables_grow_with_the_degree(self):
        # one set of tables for a whole sequence, degrees rising from 0, and
        # again from the top, where the tables outrun every numerator
        tables = recurrence._Tables(P1, self.V0)
        entries = rec_sequence(DELTA256, 16).entries
        for entry in entries + entries[::-1]:
            assert recurrence._value(entry, tables) == _horner_value(entry, P1, self.V0)
        assert len(tables.p0) == len(entries[-1].num.int_coeffs)

    def test_den_divisible_by_prime_has_no_point(self):
        entry = RatFunc(Poly([Fraction(1, P1), 1]), [(1, 1)])
        assert recurrence._value(entry, recurrence._Tables(P1, self.V0)) is None

    @pytest.mark.parametrize("spec", [
        "mult:0,0,2", "mult:2,8,8", "mult:1,0,0", "mult:3,2,6",
        "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]",
        "poly:1:[(0,1,1/2305843009213693951),(1,0,1)]",
    ])
    def test_jet_values_match_the_exact_entries(self, spec):
        # the jet expanded at v0 gives e_0(v0) .. e_12(v0) in one pass, and
        # shares no arithmetic with the theta-form step or with Horner
        family = parse_family(spec)
        entries = rec_sequence(family, 12).entries
        values = recurrence._jet_values(family, 12, P1, self.V0)
        assert values == [_horner_value(entry, P1, self.V0) for entry in entries]

    def test_two_calls_with_their_own_points(self, tmp_path, monkeypatch):
        from thetares.cache import SeqCache

        # the cold run checks each entry it computes at one prime and point,
        # the warm run each entry it reads at others, in the same process
        draws = [P1, self.V0, P2, 0x0F1E2D3C4B5A6978]
        monkeypatch.setattr(recurrence.random, "SystemRandom", _Draws(draws))
        cache = SeqCache(tmp_path)
        cold = rec_sequence(DELTA256, 12, cache)

        def step(family, m, prev):
            raise AssertionError(f"entry {m} was recomputed")

        monkeypatch.setattr(recurrence, "rec_step", step)
        assert rec_sequence(DELTA256, 12, cache).entries == cold.entries
        assert draws == []

    def test_point_is_drawn_away_from_every_pole(self, monkeypatch):
        # 1/v0 is drawn past edge(m_max), so no factor (1 - edge(k) v) of an
        # entry vanishes at v0; 256*Delta's edges run 2..6 to m = 4
        expected = rec_sequence(DELTA256, 4).entries
        draws = _Draws([P1, self.V0])
        monkeypatch.setattr(recurrence.random, "SystemRandom", draws)
        assert rec_sequence(DELTA256, 4).entries == expected
        assert draws.ranges[1] == (DELTA256.edge(4) + 1, P1)

    def test_prime_is_drawn_away_from_every_denominator(self, monkeypatch):
        # a composite draw and then P1, the denominator of rhs_1, are passed
        # over: mod P1, entries 1.. would have no point, and none would fit
        family = parse_family(f"poly:1:[(0,1,1/{P1}),(1,0,1)]")
        expected = rec_sequence(family, 4).entries
        draws = [PSEUDOPRIME, P1, P2, self.V0]
        monkeypatch.setattr(recurrence.random, "SystemRandom", _Draws(draws))
        assert rec_sequence(family, 4).entries == expected
        assert draws == []

    def test_prime_is_drawn_apart_from_the_scans_prime(self, monkeypatch):
        # `rec_sequence`'s modulus keeps its own range, whatever PRIME is
        monkeypatch.setattr(recurrence, "PRIME", 7)
        rng = random.Random(61)
        for _ in range(20):
            p = recurrence._draw_prime(rng, 1)
            assert 2**61 < p < 2**62 and recurrence._is_prime(p)

    def test_read_den_divisible_by_the_drawn_prime_is_a_miss(self, tmp_path, monkeypatch):
        from thetares.cache import SeqCache

        # entry 3 plus 1 / (P1 den): no genuine entry has P1 in its den, so
        # a read with the prime P1 recomputes it and rewrites its file
        cache = SeqCache(tmp_path)
        cold = rec_sequence(THETA2, 4, cache)
        path = cache.entry_path(THETA2, 3)
        good, entry = path.read_bytes(), cache.read(THETA2, 3)
        nums = [P1 * c for c in entry.num.int_coeffs]
        nums[0] += 1
        cache.write(THETA2, 3, RatFunc(Poly.from_cleared(nums, P1 * entry.num.int_den),
                                       entry.factors))
        draws = [P1, self.V0]
        monkeypatch.setattr(recurrence.random, "SystemRandom", _Draws(draws))
        assert rec_sequence(THETA2, 4, cache).entries == cold.entries
        assert path.read_bytes() == good
        assert draws == []


class TestStructuralInvariants:
    def test_edge_pole_at_most_simple(self, theta2_seq, delta_seq):
        for seq in (theta2_seq, delta_seq):
            for m in range(1, len(seq.entries)):
                assert seq.entries[m].pole_order(seq.family.edge(m)) <= 1

    def test_denominator_support(self, theta2_seq, delta_seq):
        for seq in (theta2_seq, delta_seq):
            a = seq.family.a
            for m, entry in enumerate(seq.entries):
                for j, _e in entry.factors:
                    assert a <= j <= m + a

    def test_constant_term_law(self, theta2_seq, delta_seq):
        for seq in (theta2_seq, delta_seq):
            for m, entry in enumerate(seq.entries):
                assert entry.num.coeff(0) == seq.family.rhs(m)  # D(0) = 1

    def test_constant_term_law_poly(self):
        seq = rec_sequence(P_EQ_Y, 5)
        for m, entry in enumerate(seq.entries):
            assert entry.num.coeff(0) == P_EQ_Y.rhs(m)


class TestUPoly:
    def test_theta2_phi1_vanishes(self):
        assert upoly_step(THETA2, 0, Poly([1]), Poly()) == Poly()

    def test_theta2_phi2(self):
        phi2 = upoly_step(THETA2, 1, Poly(), Poly([1]))
        assert phi2 == Poly([0, Fraction(-1, 16)])

    def test_poly_family_step(self):
        p1 = upoly_step(P_EQ_Y, 0, Poly([0, 1]), Poly())
        assert p1 == Poly([0, Fraction(1, 2)])

    def test_negative_index_is_refused(self):
        with pytest.raises(ValueError, match="sequence index must be nonnegative"):
            upoly_step(THETA2, -1, Poly([1]), Poly())
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            upoly_sequence(THETA2, -1)

    def test_degree_growth(self):
        for family in (THETA2, DELTA256, P_EQ_Y):
            phis = upoly_sequence(family, 10)
            base = phis[0].degree
            for n, phi in enumerate(phis):
                assert (not phi) or phi.degree <= n + base

    @pytest.mark.parametrize("text", U_SIDE_FAMILIES)
    def test_satisfies_the_three_term_relation(self, text):
        """(n+1)(n+w) phi_{n+1} + (u^2-u) phi_n' - (a + (n+beta) u) phi_n
        + u phi_{n-1}/4 = 0 coefficient by coefficient for n <= 20, each
        term transcribed on Fraction coefficients."""
        family = parse_family(text)
        w, a, beta = family.w, family.a, family.beta
        phis = upoly_sequence(family, 21)
        assert phis[0] == family.phi0()
        for n in range(21):
            nxt, p, prev = phis[n + 1], phis[n], phis[n - 1] if n else Poly()
            top = max(len(nxt.coeffs), len(p.coeffs), len(prev.coeffs)) + 2
            dp = Poly([k * p.coeff(k) for k in range(1, top)])  # p'
            for i in range(top):
                rel = ((n + 1) * (n + w) * nxt.coeff(i)
                       + dp.coeff(i - 2) - dp.coeff(i - 1)  # (u^2 - u) p'
                       - a * p.coeff(i) - (n + beta) * p.coeff(i - 1)
                       + prev.coeff(i - 1) / 4)
                assert rel == 0, (text, n, i)


def assert_columns_are_taylor(family, entries, n):
    """u-side column m equals e_m's Taylor coefficients at v^0 .. v^(n-1)."""
    columns = checks.u_columns(family, [n] * len(entries))
    for m, (entry, column) in enumerate(zip(entries, columns)):
        assert [column.coeff(i) for i in range(n)] == list(taylor(entry, n - 1)), m


class TestResummation:
    """The weighted u-side columns of `checks.u_columns` against the v-side
    entries' Taylor coefficients, and the suite's whole-entry check."""

    def test_theta2_entry_1_2(self):
        assert checks.u_columns(THETA2, [4, 4, 4])[1].coeff(2) == Fraction(-1, 4)

    def test_multiplicative_row_zero(self):
        columns = checks.u_columns(DELTA256, [7] * 5)
        for m in range(5):
            assert columns[m].coeff(0) == (1 if m == 0 else 0)

    def test_poly_column_zero(self):
        columns = checks.u_columns(P_EQ_Y, [5] * 4)
        for m in range(4):
            assert columns[m].coeff(0) == P_EQ_Y.rhs(m)

    def test_matches_taylor_theta2(self, theta2_seq):
        assert_columns_are_taylor(THETA2, theta2_seq.entries[:6], 10)

    def test_matches_taylor_delta(self, delta_seq):
        assert_columns_are_taylor(DELTA256, delta_seq.entries[:5], 9)

    def test_matches_taylor_poly_family(self):
        assert_columns_are_taylor(P_EQ_Y, rec_sequence(P_EQ_Y, 4).entries, 9)

    def test_uneven_lengths_cut_the_even_columns(self):
        lengths = [12, 3, 7]
        even = checks.u_columns(THETA2, [12] * 3)
        for column, whole, n in zip(checks.u_columns(THETA2, lengths), even, lengths):
            assert column == Poly(whole.coeffs[:n])

    def test_suite_checks_every_coefficient_past_deg_n(self, monkeypatch):
        # the last of the 8 coefficients past deg N of theta^2's entry 20 moves
        columns = checks.u_columns

        def bumped(family, lengths):
            out = columns(family, lengths)
            if family == THETA2:
                coeffs = [out[20].coeff(i) for i in range(lengths[20])]
                coeffs[-1] += 1
                out[20] = Poly(coeffs)
            return out

        monkeypatch.setattr(checks, "u_columns", bumped)
        theta2, delta, mixed = checks.resum_suite()
        assert delta.passed and mixed.passed and not theta2.passed
        n = len(rec_sequence(THETA2, 20).entries[20].num.int_coeffs)
        assert theta2.detail.startswith(f"first mismatch at m = 20, coefficient {n + 7}: ")


class TestMixedFamilies:
    """F = y^a (-x)^b (y-x)^c P(x, y) with both parts non-trivial."""

    def test_jet_residues_recover_the_oracle(self):
        assert len(MIXED) == 104
        for text in MIXED:
            family = parse_family(text)
            for m in range(1, 11):
                recovered = family.recovered_from_residue(m, local_residue(family, m))
                assert recovered == cf_coeff(family, family.edge(m)), (text, m)

    def test_global_residues_equal_the_jet(self):
        family = parse_family(f"mult:1,4,4*{RATIONAL_DEG2}")
        seq = rec_sequence(family, 8)
        for m in range(1, 9):
            assert residue_report(seq, m).residue == local_residue(family, m)

    @pytest.mark.parametrize("text", MIXED_DEEP)
    def test_resummation_matches_taylor(self, text):
        family = parse_family(text)
        assert_columns_are_taylor(family, rec_sequence(family, 5).entries, 11)


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

    def test_rec_sequence_refuses_a_range_it_cannot_check(self):
        with pytest.raises(ValueError, match="m_max must be nonnegative"):
            rec_sequence(THETA2, -1)
        # every edge up to 2^62 + 1: no point below the prime drawn in
        # [2^61, 2^62) is off every pole
        with pytest.raises(ValueError, match="reaches the drawn prime"):
            rec_sequence(DELTA256, 2**62 - 1)

    def test_double_edge_pole_has_no_residue(self):
        seq = SeqState(THETA2, [rec_step(THETA2, 0, ZERO), RatFunc(Poly([1]), [(1, 2)])])
        with pytest.raises(HigherOrderPoleError, match="order 2 at v = 1/1"):
            residue_report(seq, 1)


def pole_set(family, m_max):
    """m <= m_max whose entry has its edge pole, as the set scans read it."""
    return {m for m in range(1, m_max + 1) if has_pole(family, m)}


def lehmer_violations(m_max):
    """m <= m_max whose 256*Delta entry 2m has no pole: tau(m + 1) = 0."""
    return [m for m in range(m_max + 1) if not has_pole(DELTA256, 2 * m)]


def coefficient_set(family, m_max):
    """m <= m_max with c(edge(m)) != 0: the poles the residue identity predicts."""
    return {m for m in range(1, m_max + 1) if cf_coeff(family, family.edge(m))}


class TestScans:
    def test_two_squares_small(self):
        assert pole_set(THETA2, 5) == {1, 2, 4, 5}
        assert pole_set(THETA2, 1) == {1}
        assert 3 not in pole_set(THETA2, 3)

    def test_squares_small(self):
        # the global entries are the reference: has_pole reads only jets
        entries = rec_sequence(THETA, 30).entries
        found = pole_set(THETA, 30)
        assert found == {k * k for k in range(1, 6)}
        assert found == {m for m in range(1, 31) if entries[m].pole_order(m) == 1}
        assert pole_set(THETA, 10) == {1, 4, 9}
        assert pole_set(THETA, 3) == {1}

    def test_lehmer_small(self):
        assert lehmer_violations(2) == []

    def test_three_squares_to_100(self):
        # Legendre: n is a sum of three squares iff n is not 4^a (8b + 7)
        def three_squares(n):
            while n % 4 == 0:
                n //= 4
            return n % 8 != 7

        found = pole_set(parse_family("mult:0,0,3"), 100)
        assert found == {n for n in range(1, 101) if three_squares(n)}

    def test_mixed_grid_poles_are_the_nonzero_coefficients(self):
        for text in MIXED:
            family = parse_family(text)
            assert pole_set(family, 10) == coefficient_set(family, 10), text

    @pytest.mark.parametrize("text", ["poly:1:[(0,1,1)]", "mult:1,0,0*poly:1:[(0,1,1)]"])
    def test_poles_where_rhs_0_is_0(self, text):
        # P(1, 0) = 0, so rhs_0 = 0; the second has edge(m) = m + 1
        family = parse_family(text)
        assert family.rhs(0) == 0
        found = pole_set(family, 40)
        assert found == coefficient_set(family, 40) and len(found) == 20


class TestLocalJets:
    def test_matches_the_global_residue(self, theta2_seq, delta_seq):
        # an odd edge offset, a nonzero 4c with 4b = 1, a rational poly family,
        # and a rational P beside an odd a, so rhs_k's denominator rd is not 1
        others = [rec_sequence(parse_family(spec), 10) for spec in
                  ("mult:1,0,0", "mult:0,1,3", "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]")]
        others.append(rec_sequence(checks.MIXED, 10))
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

    def test_exact_jet_matches_the_jet_mod_p(self, monkeypatch):
        # the mod-p jet multiplies by the inverse of each unit, the exact jet
        # divides by the unit itself where it can: both must give the same
        # residue, and `local_residue_mod` returns None exactly when p
        # divides one of the jet's divisors
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
                    monkeypatch.setattr(recurrence, "PRIME", p)
                    jet = local_residue_mod(family, m)
                    assert (jet is None) == any(d % p == 0 for d in divisors)
                    if jet is not None:
                        assert jet == res.numerator * pow(res.denominator, -1, p) % p
                        checked[p] += 1
        assert all(checked.values())

    def test_prime_is_one_digit(self):
        # the largest prime below 2^15, so that every stencil sum f_i of the
        # jets `scan --kind lehmer --m-max 15` runs stays in one 30-bit digit
        p = recurrence.PRIME
        assert p < 2**15 and recurrence._is_prime(p)
        assert not any(recurrence._is_prime(n) for n in range(p + 1, 2**15))
        largest = 0
        for k in range(16):
            m = 2 * k
            for f, _den in recurrence._stencil(DELTA256, m, DELTA256.edge(m),
                                               partial(recurrence._divide_mod, p)):
                largest = max(largest, *map(abs, f))
        assert 0 < largest < 2**30

    def test_divisor_divisible_by_the_real_prime_falls_back_to_the_exact_jet(self):
        # rhs_1 has PRIME as its denominator, so every jet from m = 1 on has
        # a divisor PRIME divides; the exact jet decides each pole instead
        family = parse_family(f"poly:1:[(0,1,1/{recurrence.PRIME}),(1,0,1)]")
        seq = rec_sequence(family, 8)
        for m in range(1, 9):
            assert local_residue_mod(family, m) is None
            assert local_residue(family, m) == residue_report(seq, m).residue
            assert has_pole(family, m)

    def test_initial_entry(self):
        e0 = rec_step(DELTA256, 0, ZERO)
        assert local_residue(DELTA256, 0) == e0.residue(2) == Fraction(-1, 2)
        with pytest.raises(ValueError):
            local_residue(THETA2, 0)  # a = 0: entry 0 has no pole
        with pytest.raises(ValueError):
            local_residue_mod(THETA2, 0)

    @pytest.fixture
    def prime_7(self, monkeypatch):
        """Reduce has_pole's jets mod 7 and record every exact fallback."""
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
        assert lehmer_violations(2) == []
        assert prime_7 == [4]

    def test_divisor_divisible_by_p_falls_back_to_the_exact_jet(self, prime_7):
        # entry 8 sits at v = 1/10, and s - s_1 = 10 - 3 = 7 is no unit mod 7
        assert local_residue_mod(DELTA256, 8) is None
        assert lehmer_violations(4) == []
        assert prime_7 == [4, 8]

    def test_residues_suite_catches_a_wrong_global_residue(self, monkeypatch):
        from thetares import checks

        seq = rec_sequence(THETA2, 6)
        num = seq.entries[5].num
        seq.entries[5] = RatFunc(Poly.from_cleared([3 * c for c in num.int_coeffs], num.int_den),
                                 seq.entries[5].factors)
        monkeypatch.setattr(checks, "rec_sequence", lambda family, m_max: (
            seq if family == THETA2 else rec_sequence(family, m_max)))
        results = checks.residues_suite(theta2_max=6)
        failed = [r.name for r in results if not r.passed]
        assert failed == [
            "theta^2 residues recover r2(m) for m <= 6",
            f"theta^2 local jets agree exactly and mod {recurrence.PRIME} with the residues "
            "for m <= 6",
        ]

    def test_residues_suite_catches_a_wrong_exact_jet(self, monkeypatch):
        # the residue `thetares residues` prints, off by a factor of 2: the
        # mod-p comparison alone would not see it
        from thetares import checks

        monkeypatch.setattr(checks, "local_residue", lambda family, m: 2 * local_residue(family, m))
        results = checks.residues_suite(theta2_max=4)
        failed = [r.name for r in results if not r.passed]
        assert failed == [
            f"{family} local jets agree exactly and mod {recurrence.PRIME} with the residues "
            "for m <= 4"
            for family in ("theta^2", "theta^4", "theta", "256*Delta")
        ]
