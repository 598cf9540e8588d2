"""Truncated q-expansions and the elementary oracles."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from thetares import backend, checks, qseries
from thetares import (
    DELTA256,
    THETA2,
    THETA4,
    Family,
    OracleConsistencyError,
    QSeries,
    TruncationError,
    cf_coeff,
    cf_series,
    delta_series,
    dstar,
    Poly,
    parse_family,
    r2_count,
    ramanujan_tau,
    sigma1,
    t_series,
    theta_series,
    u_series,
    upoly_sequence,
    xy_series,
)


class TestTheta:
    def test_kind3(self):
        assert theta_series(3, 5).coeffs == (1, 2, 0, 0, 2, 0)

    def test_kind4(self):
        assert theta_series(4, 5).coeffs == (1, -2, 0, 0, 2, 0)

    def test_constant_window(self):
        assert theta_series(3, 0).coeffs == (1,)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            theta_series(2, 4)

    @pytest.mark.parametrize("kind", [3, 4])
    def test_negative_trunc(self, kind):
        with pytest.raises(ValueError, match="nonnegative"):
            theta_series(kind, -1)


class TestXY:
    def test_x_expansion(self):
        x, _ = xy_series(4)
        assert x.coeffs == (-1, 8, -24, 32, -24)

    def test_y_expansion(self):
        _, y = xy_series(3)
        assert y.coeffs == (0, 16, 0, 64)

    def test_jacobi_identity_small(self):
        x, y = xy_series(8)
        assert theta_series(3, 8) ** 4 == y - x

    def test_constant_window(self):
        # y = 16 q (...)^4 has no constant term: the general path gives 0
        x, y = xy_series(0)
        assert x.coeffs == (-1,) and y.coeffs == (0,)


class TestArithmetic:
    def test_mul_truncates_to_min(self):
        f = QSeries([1, 1])
        g = QSeries([1, -1, 5, 7])
        assert (f * g).coeffs == (1, 0)

    def test_inverse_of_x(self):
        x, _ = xy_series(12)
        assert x * x.inverse() == QSeries.const(1, 12)

    def test_inverse_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            QSeries([0, 1, 2]).inverse()

    def test_pow_matches_iterated_mul(self):
        th = theta_series(3, 10)
        acc = QSeries.const(1, 10)
        for e in range(5):
            assert th**e == acc
            acc = acc * th

    def test_pow_never_multiplies_by_the_unit(self, monkeypatch):
        th = theta_series(3, 40)
        calls = []
        conv_trunc = backend.conv_trunc
        monkeypatch.setattr(backend, "conv_trunc",
                            lambda a, b, n: calls.append(n) or conv_trunc(a, b, n))
        fourth = th**4  # two squarings, and the square of the square taken as is
        assert len(calls) == 2
        assert th**0 == QSeries.const(1, 40) and len(calls) == 2
        monkeypatch.undo()
        assert fourth == th * th * th * th

    def test_constructor_needs_a_window(self):
        with pytest.raises(ValueError, match="at least the constant term"):
            QSeries([])
        with pytest.raises(ValueError, match="truncation must be nonnegative"):
            QSeries([1, 2], trunc=-1)
        assert QSeries([], trunc=2) == QSeries.zero(2)

    def test_shift(self):
        assert QSeries([1, 2]).shift(2).coeffs == (0, 0, 1, 2)
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            QSeries([1, 2]).shift(-1)

    def test_json_round_trip(self):
        f = QSeries([1, Fraction(-1, 2), 0, 4])
        assert f.to_json_dict() == {"trunc": 3, "coeffs": ["1", "-1/2", "0", "4"]}
        assert f.to_json_dict()["coeffs"] == [str(c) for c in f.coeffs]

    def test_str_past_the_int_digit_limit(self):
        big = "1" + "0" * 15000
        f = QSeries([10**15000, Fraction(1, 3), 0])
        assert str(f) == f"q-series[{big}, 1/3, 0] (trunc 2)"


class TestHalfDegree:
    def test_theta(self):
        assert theta_series(3, 4).halfdeg().coeffs == (0, 1, 0, 0, 4)

    def test_constant(self):
        assert not QSeries.const(7, 6).halfdeg()

    def test_linear(self):
        rng = random.Random(12)
        for _ in range(20):
            f = QSeries([rng.randint(-9, 9) for _ in range(8)])
            g = QSeries([rng.randint(-9, 9) for _ in range(8)])
            assert (f + g).halfdeg() == f.halfdeg() + g.halfdeg()


class TestTSeries:
    def test_leading_term(self):
        t = t_series(6)
        assert t.coeff(0) == 0 and t.coeff(1) == 1

    def test_derivative_identity(self):
        t = t_series(64)
        x, y = xy_series(64)
        assert t.halfdeg() == t * t * 2 - x * y * Fraction(1, 32)


class TestDStar:
    def test_on_x(self):
        x, y = xy_series(32)
        assert dstar(x, 2) == x * y * Fraction(-1, 2)

    def test_on_y(self):
        x, y = xy_series(32)
        assert dstar(y, 2) == x * y * Fraction(-1, 2)

    def test_kills_theta_squared(self):
        th2 = theta_series(3, 32) ** 2
        assert not dstar(th2, 1)


class TestDelta:
    def test_first_coefficients(self):
        d = delta_series(8)
        assert d.coeff(2) == 1  # tau(1)
        assert d.coeff(4) == -24  # tau(2)
        assert d.coeff(6) == 252  # tau(3)
        assert d.coeff(3) == 0 and d.coeff(5) == 0

    def test_identity_with_generators(self):
        x, y = xy_series(64)
        assert delta_series(64) == (x * y * (y - x)) ** 2 * Fraction(1, 256)

    def test_needs_room(self):
        with pytest.raises(ValueError):
            delta_series(1)


class TestCfCoeff:
    def test_theta2_counts_two_squares(self):
        assert cf_coeff(THETA2, 1) == 4

    def test_delta_family(self):
        assert cf_coeff(DELTA256, 6) == 256 * 252

    def test_theta4_sigma(self):
        assert cf_coeff(THETA4, 3) == 32  # 8*sigma(3)

    def test_poly_family(self):
        fam = Family(monomials=((0, 1, 1),))
        _, y = xy_series(16)
        assert cf_series(fam, 16) == y
        assert cf_coeff(fam, 1) == 16

    def test_mixed_family(self):
        # theta3^4 y = (y - x) y by Jacobi, and theta^2 (x + y) / 2
        x, y = xy_series(16)
        assert cf_series(parse_family("mult:0,0,4*poly:1:[(0,1,1)]"), 16) == (y - x) * y
        half = parse_family("mult:0,0,2*poly:1:[(0,1,1/2),(1,0,1/2)]")
        assert cf_series(half, 16) == theta_series(3, 16) ** 2 * (x + y) * Fraction(1, 2)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            cf_coeff(THETA2, 10, trunc=5)

    @pytest.mark.parametrize("n", [6, -1])
    def test_truncation_message(self, n):
        # QSeries.coeff is the one check, past trunc and below 0 alike
        with pytest.raises(TruncationError, match=rf"^coefficient {n} beyond truncation 5$"):
            cf_coeff(THETA2, n, trunc=5)

    def test_matches_r2_oracle(self):
        series = cf_series(THETA2, 40)
        for n in range(1, 41):
            assert series.coeff(n) == r2_count(n)

    def test_theta4_odd_is_8_sigma(self):
        series = cf_series(THETA4, 31)
        for n in range(1, 32, 2):
            assert series.coeff(n) == 8 * sigma1(n)

    @pytest.mark.parametrize("family,trunc,products", [(THETA2, 192, 1), (DELTA256, 60, 9)],
                             ids=["theta^2", "256*Delta"])
    def test_products(self, monkeypatch, family, trunc, products):
        # theta3^2 is one squaring; y^2 theta4^8 theta3^8 is 1 + 3 + 3
        # squarings and 2 products joining them, none by the constant 1
        xy_series(trunc)
        calls = []
        conv_trunc = backend.conv_trunc
        monkeypatch.setattr(backend, "conv_trunc",
                            lambda a, b, n: calls.append(n) or conv_trunc(a, b, n))
        cf_series(family, trunc)
        assert len(calls) == products

    def test_equals_the_old_route(self):
        assert len(OLD_ROUTE_FAMILIES) == 168
        for text in OLD_ROUTE_FAMILIES:  # equal (nums, den), as QSeries compares
            family = parse_family(text)
            assert cf_series(family, 40) == old_route(family, 40), text


def old_route(family, trunc):
    """The family's form as cf_series built it before theta_form: the theta
    part, as plain powers, times one combination of P's monomials off the
    x^a y^b table, with no product when either part is 1."""
    _, y = xy_series(trunc)
    powers = [s**e for s, e in ((y, family.a), (theta_series(4, trunc), family.b4),
                                (theta_series(3, trunc), family.c4)) if e]
    theta = reduce(mul, powers) if powers else None
    if family.monomials == ((0, 0, 1),):
        return theta
    p = qseries.lincomb([(c, qseries.xy_monomial(i, j, trunc)) for i, j, c in family.monomials])
    return p if theta is None else theta * p


# the 104 mixed families of test_recurrence.py, their four P alone, the 59
# theta parts with a <= 2, 4b <= 3 and 4c <= 4, and 2 theta^2 (a constant P
# other than 1)
_OLD_ROUTE_P = ("poly:1:[(0,1,1),(1,0,1)]", "poly:1:[(0,1,1)]", "poly:1:[(1,0,1)]",
                "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]")
OLD_ROUTE_FAMILIES = [
    f"mult:{a},{b4},{c4}*{poly}" for a in range(3) for b4 in (0, 3, 6) for c4 in (0, 4, 8)
    if a or b4 or c4 for poly in _OLD_ROUTE_P
] + list(_OLD_ROUTE_P) + [
    f"mult:{a},{b4},{c4}" for a in range(3) for b4 in range(4) for c4 in range(5)
    if a or b4 or c4
] + ["mult:0,0,2*poly:0:[(0,0,2)]"]


def direct_forms(family, phis, trunc):
    """g_k = base * x^(k+head) * sum_i c_i u^i, with base = y^a theta4^(4b)
    theta3^(4c) and head = k, each built from scratch through u = y/x and
    its powers, not read off the x^a y^b table; g_{-1} = 0 is the last
    entry, so index -1 reads it."""
    x, y = xy_series(trunc)
    u = u_series(trunc)
    base = y**family.a * theta_series(4, trunc) ** family.b4 * theta_series(3, trunc) ** family.c4
    head = family.k
    forms = []
    for k, phi in enumerate(phis):
        phi_u = QSeries.zero(trunc)
        for i, c in enumerate(phi.coeffs):
            phi_u = phi_u + u**i * c
        forms.append(base * x ** (k + head) * phi_u)
    return forms + [QSeries.zero(trunc)]


def direct_three_term_defect(family, phis, n, trunc):
    """Defect of the three-term relation at n, from :func:`direct_forms`."""
    x, y = xy_series(trunc)
    g = direct_forms(family, phis[:n + 2], trunc)
    w = family.w
    return (g[n + 1] * ((n + 1) * (n + w)) + dstar(g[n], w + 2 * n) * 2
            + x * y * Fraction(1, 4) * g[n - 1])


RATIONAL_DEG2 = "poly:2:[(2,0,1),(1,1,-3/5),(0,2,7)]"
# one of each admissible shape: weight 1/2, odd a, every b4/c4 parity,
# rational and integral P of degree 1 and 2, P = x, whose phi_0 is 1, and
# theta parts times another rational degree-2 P
ADMISSIBLE = [
    "mult:0,0,1", "mult:0,0,4", "mult:2,8,8", "mult:1,0,0", "mult:0,1,3",
    "mult:1,4,4", "poly:1:[(1,0,1/3),(0,1,-2/7)]", RATIONAL_DEG2, "poly:1:[(1,0,1)]",
] + [f"mult:{theta}*poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]"
     for theta in ("1,0,4", "0,4,4", "2,8,8", "1,3,5")]


class TestThreeTermDefect:
    @pytest.mark.parametrize("text", ADMISSIBLE)
    def test_relation_holds(self, text):
        assert checks.max_three_term_defect(parse_family(text), 6, 40) is None

    @pytest.mark.parametrize("family", [Family(monomials=((0, 1, 1),)), THETA2,
                                        parse_family(RATIONAL_DEG2),
                                        parse_family(f"mult:1,3,5*{RATIONAL_DEG2}")],
                             ids=["P=y", "theta^2", "rational-deg2", "mixed"])
    def test_forms_equal_the_u_route(self, family):
        phis = upoly_sequence(family, 7)
        forms = [qseries.theta_form(family, phi, n + family.k, 30) for n, phi in enumerate(phis)]
        assert forms == direct_forms(family, phis, 30)[:-1]
        if family == THETA2:
            assert not phis[1] and not forms[1]

    @pytest.mark.parametrize("family", [Family(monomials=((0, 1, 1),)), THETA2],
                             ids=["P=y", "theta^2"])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_scaled_phi_is_caught(self, monkeypatch, family, k):
        def scaled(fam, n_max):
            phis = upoly_sequence(fam, n_max)
            phis[k] = Poly.from_cleared([2 * c for c in phis[k].int_coeffs], phis[k].int_den)
            return phis

        monkeypatch.setattr(checks, "upoly_sequence", scaled)
        defect = checks.max_three_term_defect(family, 5, 30)
        assert defect
        phis = scaled(family, 6)
        direct = (direct_three_term_defect(family, phis, n, 30) for n in range(6))
        assert defect == next(d for d in direct if d)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_one_interior_coefficient_is_caught(self, monkeypatch, k):
        # c_1 of phi_k moves by 1/3 and nothing else does, so a table read
        # that paired c_i with the wrong monomial would give another defect
        family = parse_family(RATIONAL_DEG2)

        def bumped(fam, n_max):
            phis = upoly_sequence(fam, n_max)
            assert phis[k].degree >= 2
            nums, den = [3 * c for c in phis[k].int_coeffs], phis[k].int_den
            nums[1] += den  # plus 1/3 over 3 den
            phis[k] = Poly.from_cleared(nums, 3 * den)
            return phis

        monkeypatch.setattr(checks, "upoly_sequence", bumped)
        defect = checks.max_three_term_defect(family, 5, 30)
        assert defect
        phis = bumped(family, 6)
        direct = (direct_three_term_defect(family, phis, n, 30) for n in range(6))
        assert defect == next(d for d in direct if d)


class TestXYTable:
    def test_entries_are_the_monomials(self):
        x, y = xy_series(12)
        for a in range(6):
            for b in range(6 - a):
                assert qseries.xy_monomial(a, b, 12) == x**a * y**b

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError):
            qseries.xy_monomial(2, -1, 8)
        with pytest.raises(ValueError):  # d below deg p
            qseries.xy_form(Poly([1, 0, 1]), 1, 8)

    def test_form_is_x_power_times_poly_of_u(self):
        # rational coefficients, a zero interior one, and d at and above deg p
        x, _ = xy_series(24)
        u = u_series(24)
        p = Poly([Fraction(-2, 7), 0, 3, Fraction(1, 2)])
        p_u = QSeries.const(Fraction(-2, 7), 24) + u * u * 3 + u * u * u * Fraction(1, 2)
        for d in (3, 5):
            assert qseries.xy_form(p, d, 24) == x**d * p_u
        assert qseries.xy_form(Poly(), 2, 24) == QSeries.zero(24)

    @pytest.mark.parametrize("family", [Family(monomials=((0, 1, 1),)), THETA2,
                                        parse_family(RATIONAL_DEG2)],
                             ids=["P=y", "theta^2", "rational-deg2"])
    def test_xy_times_form_is_read_off_the_table(self, family):
        # xy g_n = base x^(n+head+2) (u phi_n)(y/x), as the defect reads xy g_{n-1}
        x, y = xy_series(30)
        for n, phi in enumerate(upoly_sequence(family, 6)):
            d = n + family.k
            u_phi = Poly.from_cleared((0,) + phi.int_coeffs, phi.int_den)
            xy_g = x * y * qseries.theta_form(family, phi, d, 30)
            assert qseries.theta_form(family, u_phi, d + 2, 30) == xy_g

    def test_identities_suite_work(self, monkeypatch):
        # the benchmark's sizes from cold caches: one x^a y^b table for both
        # families of the three-term check, where per-family Horner passes
        # and their cofactors took 197 products
        for cached in vars(qseries).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        calls = []
        conv_trunc = backend.conv_trunc
        monkeypatch.setattr(backend, "conv_trunc",
                            lambda a, b, n: calls.append(n) or conv_trunc(a, b, n))
        assert all(r.passed for r in checks.identities_suite(768, 384, 192, 8))
        assert len(calls) <= 114

    def test_theta_form_takes_no_product_when_a_part_is_1(self, monkeypatch):
        # no theta part, phi = 0, or phi = 1 at d = 0; a constant phi = 2
        # at d = 0 is a product, not the theta part itself
        p_eq_y, trunc = Family(monomials=((0, 1, 1),)), 24
        theta = qseries.theta_part(0, 0, 2, trunc)
        _, y = xy_series(trunc)
        calls = []
        conv_trunc = backend.conv_trunc
        monkeypatch.setattr(backend, "conv_trunc",
                            lambda a, b, n: calls.append(n) or conv_trunc(a, b, n))
        assert qseries.theta_form(THETA2, Poly([1]), 0, trunc) is theta
        assert qseries.theta_form(THETA2, Poly(), 3, trunc) == QSeries.zero(trunc)
        assert qseries.theta_form(p_eq_y, Poly([0, 1]), 1, trunc) == y
        assert not calls
        assert qseries.theta_form(THETA2, Poly([2]), 0, trunc) == theta * 2
        assert len(calls) == 1


class TestOracles:
    def test_r2_values(self):
        assert r2_count(25) == 12
        assert r2_count(1) == 4
        assert r2_count(3) == 0

    def test_r2_methods_agree_up_to_300(self):
        for n in range(1, 301):
            r2_count(n)  # raises OracleConsistencyError on any disagreement

    @pytest.mark.parametrize("count", ["_r2_lattice", "_r2_divisor"])
    def test_r2_counts_that_disagree_raise(self, monkeypatch, count):
        real = getattr(qseries, count)
        monkeypatch.setattr(qseries, count, lambda n: real(n) + 4 * (n == 5))
        assert r2_count(4) == 4
        with pytest.raises(OracleConsistencyError, match=r"r2\(5\)"):
            r2_count(5)

    def test_sigma(self):
        assert sigma1(9) == 13
        assert sigma1(1) == 1
        assert sigma1(28) == 56  # perfect

    def test_divisor_sums_match_trial_division(self):
        # sigma1 and r2's divisor count read one divisor list; here each
        # divisor is found by trying every d <= n
        assert qseries._divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        for n in range(1, 301):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert sigma1(n) == sum(divisors)
            assert qseries._r2_divisor(n) == 4 * sum((d % 4 == 1) - (d % 4 == 3)
                                                     for d in divisors)

    def test_tau(self):
        assert ramanujan_tau(1) == 1
        assert ramanujan_tau(2) == -24
        assert ramanujan_tau(3) == 252

    def test_domain_errors(self):
        for oracle in (r2_count, sigma1, ramanujan_tau):
            with pytest.raises(ValueError):
                oracle(0)
