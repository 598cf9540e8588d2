"""Truncated q-expansions and the elementary oracles."""

import random
from fractions import Fraction

import pytest

from thetares import backend, checks
from thetares.qseries import eval_homogeneous
from thetares import (
    DELTA256,
    THETA2,
    THETA4,
    Family,
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
        fam = Family.polynomial([(0, 1, 1)])
        _, y = xy_series(16)
        assert cf_series(fam, 16) == y
        assert cf_coeff(fam, 1) == 16

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            cf_coeff(THETA2, 10, trunc=5)

    def test_matches_r2_oracle(self):
        series = cf_series(THETA2, 40)
        for n in range(1, 41):
            assert series.coeff(n) == r2_count(n)

    def test_theta4_odd_is_8_sigma(self):
        series = cf_series(THETA4, 31)
        for n in range(1, 32, 2):
            assert series.coeff(n) == 8 * sigma1(n)


def at_unit_x(p, s):
    """p(s): eval_homogeneous with every power of x equal to 1."""
    return eval_homogeneous(p, [QSeries.const(1, s.trunc)] * len(p.int_coeffs), s)


class TestEvalPoly:
    def test_horner(self):
        u = u_series(10)
        p = Poly([1, -2, Fraction(1, 3)])
        direct = QSeries.const(1, 10) - u * 2 + u * u * Fraction(1, 3)
        assert at_unit_x(p, u) == direct

    def test_horner_at_a_rational_series(self):
        s = u_series(10) * Fraction(2, 3)
        p = Poly([Fraction(1, 5), -2, 0, 7])
        direct = QSeries.const(Fraction(1, 5), 10) - s * 2 + s * s * s * 7
        assert at_unit_x(p, s) == direct
        assert at_unit_x(Poly(), s) == QSeries.zero(10)

    def test_homogeneous_is_x_power_times_poly_of_u(self):
        x, y = xy_series(24)
        xpow = [x**j for j in range(4)]
        p = Poly([Fraction(-2, 7), 0, 3, Fraction(1, 2)])
        assert eval_homogeneous(p, xpow, y) == x**3 * at_unit_x(p, u_series(24))

    def test_homogeneous_needs_integral_x_powers(self):
        x, y = xy_series(8)
        with pytest.raises(ValueError):
            eval_homogeneous(Poly([1, 1]), [x, x * Fraction(1, 2)], y)


def direct_forms(family, phis, trunc):
    """g_k = base * x^(k+head) * sum_i c_i u^i, each built from scratch
    through u = y/x and its powers, without Horner's rule; g_{-1} = 0 is
    the last entry, so index -1 reads it."""
    x, _ = xy_series(trunc)
    u = u_series(trunc)
    if family.kind == "mult":
        base, head = cf_series(family, trunc), 0
    else:
        base, head = QSeries.const(1, trunc), family.k
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


# one of each admissible kind: weight 1/2, odd a, every b4/c4 parity,
# rational and integral P of degree 1 and 2, and P = x, whose phi_0 is 1
ADMISSIBLE = [
    "mult:0,0,1", "mult:0,0,4", "mult:2,8,8", "mult:1,0,0", "mult:0,1,3",
    "mult:1,4,4", "poly:1:[(1,0,1/3),(0,1,-2/7)]",
    "poly:2:[(2,0,1),(1,1,-3/5),(0,2,7)]", "poly:1:[(1,0,1)]",
]
RATIONAL_DEG2 = "poly:2:[(2,0,1),(1,1,-3/5),(0,2,7)]"


class TestThreeTermDefect:
    @pytest.mark.parametrize("text", ADMISSIBLE)
    def test_relation_holds(self, text):
        assert checks.max_three_term_defect(parse_family(text), 6, 40) is None

    @pytest.mark.parametrize("family", [Family.polynomial([(0, 1, 1)]), THETA2,
                                        parse_family(RATIONAL_DEG2)],
                             ids=["P=y", "theta^2", "rational-deg2"])
    def test_forms_equal_the_u_route(self, family):
        phis = upoly_sequence(family, 7)
        forms = checks.three_term_forms(family, 7, 30)
        assert forms == direct_forms(family, phis, 30)[:-1]
        if family == THETA2:
            assert not phis[1] and not forms[1]

    @pytest.mark.parametrize("family", [Family.polynomial([(0, 1, 1)]), THETA2],
                             ids=["P=y", "theta^2"])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_scaled_phi_is_caught(self, monkeypatch, family, k):
        def scaled(fam, n_max):
            phis = upoly_sequence(fam, n_max)
            phis[k] = phis[k] * 2
            return phis

        monkeypatch.setattr(checks, "upoly_sequence", scaled)
        defect = checks.max_three_term_defect(family, 5, 30)
        assert defect
        phis = scaled(family, 6)
        direct = (direct_three_term_defect(family, phis, n, 30) for n in range(6))
        assert defect == next(d for d in direct if d)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_one_interior_coefficient_is_caught(self, monkeypatch, k):
        # c_1 of phi_k moves by 1/3 and nothing else does, so a Horner
        # that paired c_i with the wrong power of x would give another defect
        family = parse_family(RATIONAL_DEG2)

        def bumped(fam, n_max):
            phis = upoly_sequence(fam, n_max)
            assert phis[k].degree >= 2
            phis[k] = phis[k] + Poly([0, Fraction(1, 3)])
            return phis

        monkeypatch.setattr(checks, "upoly_sequence", bumped)
        defect = checks.max_three_term_defect(family, 5, 30)
        assert defect
        phis = bumped(family, 6)
        direct = (direct_three_term_defect(family, phis, n, 30) for n in range(6))
        assert defect == next(d for d in direct if d)


class TestOracles:
    def test_r2_values(self):
        assert r2_count(25) == 12
        assert r2_count(1) == 4
        assert r2_count(3) == 0

    def test_r2_methods_agree_up_to_300(self):
        for n in range(1, 301):
            r2_count(n)  # raises OracleConsistencyError on any disagreement

    def test_sigma(self):
        assert sigma1(9) == 13
        assert sigma1(1) == 1
        assert sigma1(28) == 56  # perfect

    def test_tau(self):
        assert ramanujan_tau(1) == 1
        assert ramanujan_tau(2) == -24
        assert ramanujan_tau(3) == 252

    def test_domain_errors(self):
        for oracle in (r2_count, sigma1, ramanujan_tau):
            with pytest.raises(ValueError):
                oracle(0)
