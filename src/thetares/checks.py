"""Verification suites behind ``thetares verify``.

Four suites: golden values (the two worked sequence entries with their
published numerator/denominator and residues), q-series identities,
resummation equivalence between the u-side and v-side computations, and
residue-vs-coefficient tables.  Each check is exact; a suite passes only
if every check does.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import prod

from . import backend
from .families import DELTA256, THETA, THETA2, THETA4, Family
from .qseries import (
    QSeries,
    cf_coeff,
    cf_series,
    delta_series,
    dstar,
    eval_homogeneous,
    r2_count,
    ramanujan_tau,
    t_series,
    theta_series,
    xy_series,
)
from .rational import Poly
from .ratfunc import RatFunc, edge_factor
from .recurrence import (
    PRIME,
    local_residue,
    local_residue_mod,
    rec_sequence,
    residue_report,
    resum_matrix,
    upoly_sequence,
)


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


# Entry 4 of the 256*Delta family, as published: numerator
# 27072v^14 - 61968v^13 - 58736v^12 + 354148v^11 - 509744v^10 + 367158v^9
# - 152445v^8 + 38136v^7 - 5680v^6 + 464v^5 - 16v^4 over the expanded
# denominator below.  The printed pair is consistent with the residue
# data; note the expanded denominator equals MINUS the factored product
# (1-2v)^9 (1-4v)^5 (1-6v), whose constant term is +1, so in canonical
# factored form the numerator flips sign.
R4_NUM = Poly(
    [0, 0, 0, 0, -16, 464, -5680, 38136, -152445, 367158, -509744, 354148,
     -58736, -61968, 27072]
)
R4_DEN_EXPANDED = Poly(
    [-1, 44, -892, 11056, -93728, 575872, -2649984, 9303552, -25134336,
     52272128, -83037184, 98988032, -85753856, 50987008, -18612224, 3145728]
)
R4_FACTORS = ((2, 9), (4, 5), (6, 1))
Q11_FACTORS = ((1, 21), (4, 15), (9, 5))


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail if not passed else "")


def _laurent_constant(f: RatFunc, j: int) -> Fraction:
    """Constant term of the Laurent expansion of f at its simple pole 1/j.

    Write f = g / (1 - j v) with g = N / D~, D~ = prod_{k != j} (1 - k v)^e_k.
    Then f = -g(1/j) / (j (v - 1/j)) - g'(1/j) / j + O(v - 1/j), and
    g' = (N' + N sum_{k != j} e_k k / (1 - k v)) / D~.
    """
    others = [(k, e) for k, e in f.factors if k != j]
    dtilde = prod(Fraction(j - k, j) ** e for k, e in others)  # 1 - k/j = (j - k)/j
    log_deriv = sum(Fraction(e * k * j, j - k) for k, e in others)
    g_prime = (_at_inv(f.num.diff(), j) + _at_inv(f.num, j) * log_deriv) / dtilde
    return -g_prime / j


def _at_inv(p: Poly, j: int) -> Fraction:
    """p(1/j), from the kernel's j**(n-1) p(1/j) with n = len(p.int_coeffs)."""
    nums = p.int_coeffs
    return Fraction(backend.eval_at_inv(nums, j) * j, p.int_den * j ** len(nums))


def golden_suite() -> list:
    delta_seq = rec_sequence(DELTA256, 4)
    entry = delta_seq.entries[4]
    out = []

    product = edge_factor(2, 9) * edge_factor(4, 5) * edge_factor(6, 1)
    out.append(_result(
        "R4 published denominator equals -(1-2v)^9(1-4v)^5(1-6v)",
        R4_DEN_EXPANDED == -product,
    ))
    out.append(_result(
        "R4 equals its published numerator/denominator pair",
        entry.num * R4_DEN_EXPANDED == R4_NUM * product,
        f"entry 4 is {entry}",
    ))
    out.append(_result(
        "R4 factored denominator",
        entry.factors == R4_FACTORS,
        f"got {entry.factors}",
    ))
    out.append(_result(
        "R4 canonical numerator is the sign-flipped published one",
        entry.num == -R4_NUM,
    ))

    res = entry.residue(6)
    out.append(_result(
        "R4 residue at v=1/6 is -21/32768",
        res == Fraction(-21, 32768),
        f"got {res}",
    ))
    report = residue_report(delta_seq, 4)
    out.append(_result(
        "R4 recovered coefficient / 256 = 252 = tau(3)",
        report.recovered / 256 == 252 == ramanujan_tau(3),
        f"got {report.recovered / 256}",
    ))
    laurent = _laurent_constant(entry, 6)
    out.append(_result(
        "R4 Laurent constant at v=1/6 is -2241/16384",
        laurent == Fraction(-2241, 16384),
        f"got {laurent}",
    ))

    theta_seq = rec_sequence(THETA, 11)
    out.append(_result(
        "Q11 denominator is (1-v)^21 (1-4v)^15 (1-9v)^5",
        theta_seq.entries[11].factors == Q11_FACTORS,
        f"got {theta_seq.entries[11].factors}",
    ))
    return out


def identities_suite(jacobi_trunc: int = 128, identity_trunc: int = 64,
                     three_term_trunc: int = 40, three_term_max: int = 6) -> list:
    out = []
    x, y = xy_series(jacobi_trunc)
    out.append(_result(
        f"Jacobi identity theta^4 = y - x (trunc {jacobi_trunc})",
        theta_series(3, jacobi_trunc) ** 4 == y - x,
    ))

    x, y = xy_series(identity_trunc)
    minus_half_xy = x * y * Fraction(-1, 2)
    out.append(_result(
        f"D*x = -xy/2 (trunc {identity_trunc})", dstar(x, 2) == minus_half_xy
    ))
    out.append(_result(
        f"D*y = -xy/2 (trunc {identity_trunc})", dstar(y, 2) == minus_half_xy
    ))
    t = t_series(identity_trunc)
    out.append(_result(
        f"t' identity: (1/2 pi i) t' = 2t^2 - xy/32 (trunc {identity_trunc})",
        t.halfdeg() == t * t * 2 - x * y * Fraction(1, 32),
    ))
    out.append(_result(
        f"discriminant = x^2 y^2 (y-x)^2 / 256 (trunc {identity_trunc})",
        delta_series(identity_trunc) == (x * y * (y - x)) ** 2 * Fraction(1, 256),
    ))

    for family, tag in ((Family.polynomial([(0, 1, 1)], label="P=y"), "P=y"),
                        (THETA2, "theta^2")):
        defect = max_three_term_defect(family, three_term_max, three_term_trunc)
        out.append(_result(
            f"three-term relation for {tag}, n <= {three_term_max} "
            f"(trunc {three_term_trunc})",
            not defect,
            f"nonzero defect {defect}",
        ))
    return out


def max_three_term_defect(family: Family, n_max: int, trunc: int) -> QSeries | None:
    """First nonzero defect of (n+1)(n+w) g_{n+1} + 2 D* g_n + xy g_{n-1}/4
    (g_n from :func:`three_term_forms`); None when it holds for all n <= n_max."""
    # gs[n + 1] = g_n, with gs[0] = g_{-1} = 0
    gs = [QSeries.zero(trunc)] + three_term_forms(family, n_max + 1, trunc)
    x, y = xy_series(trunc)
    w = family.w
    xy4 = x * y * Fraction(1, 4)
    for n in range(n_max + 1):
        defect = (
            gs[n + 2] * ((n + 1) * (n + w))
            + dstar(gs[n + 1], w + 2 * n) * 2
            + xy4 * gs[n]
        )
        if defect:
            return defect
    return None


def three_term_forms(family: Family, n_max: int, trunc: int) -> list:
    """g_0 .. g_{n_max}, the weight-(w+2n) forms g_n = base x^(n+head) phi_n(y/x):
    base = F, head = 0 for a multiplicative family F; base = 1, head = k for
    P of degree k.  Each is base x^(n+head-d) times :func:`eval_homogeneous`
    of phi_n, d = deg phi_n <= n + head (phi_0 has degree 0 or k, each step
    adds at most one), so u = y/x is never formed; theta^2's phi_1 is zero."""
    phis = upoly_sequence(family, n_max)
    x, y = xy_series(trunc)
    base, head = (cf_series(family, trunc), 0) if family.kind == "mult" else (1, family.k)
    # x^0 .. x^(n_max+head), shared by every Horner pass and cofactor
    xpow = [QSeries.const(1, trunc)]
    for _ in range(n_max + head):
        xpow.append(xpow[-1] * x)
    gs = []
    for n, phi in enumerate(phis):
        g = eval_homogeneous(phi, xpow, y) * base
        if phi and n + head > phi.degree:
            g = g * xpow[n + head - phi.degree]
        gs.append(g)
    return gs


RESUM_FAMILIES = (THETA2, DELTA256)
RESUM_M, RESUM_N = 6, 12  # entries m <= RESUM_M, Taylor columns i <= RESUM_N


def resum_suite() -> list:
    out = []
    for family in RESUM_FAMILIES:
        seq = rec_sequence(family, RESUM_M)
        matrix = resum_matrix(family, RESUM_M, RESUM_N)
        bad = []
        for m in range(RESUM_M + 1):
            taylor = seq.entries[m].taylor(RESUM_N)
            for i in range(RESUM_N + 1):
                if matrix[m][i] != taylor[i]:
                    bad.append((m, i, matrix[m][i], taylor[i]))
        out.append(_result(
            f"resummation equivalence for {family} (m <= {RESUM_M}, i <= {RESUM_N})",
            not bad,
            f"first mismatch {bad[0]}" if bad else "",
        ))
    return out


def _jet_check(family: Family, residues: dict) -> CheckResult:
    """The local jet, exactly (the route ``thetares residues`` prints) and
    mod PRIME (the route the scans decide by), against each global residue
    {m: residue}."""
    bad = []
    for m, res in residues.items():
        exact = local_residue(family, m)
        jet = local_residue_mod(family, m)
        if exact != res or jet != res.numerator * pow(res.denominator, -1, PRIME) % PRIME:
            bad.append((m, res, exact, jet))
    return _result(
        f"{family} local jets agree exactly and mod 2^61-1 with the residues "
        f"for m <= {max(residues)}",
        not bad,
        f"first mismatch {bad[0]}" if bad else "",
    )


def residues_suite(theta2_max: int = 30) -> list:
    """Global residues against the q-series oracle, and the local jets
    against the global residues: theta^2 to ``theta2_max``, the other
    three families to min(theta2_max, 15)."""
    out = []
    other_max = min(theta2_max, 15)
    runs = [(THETA2, theta2_max, r2_count, "residues recover r2(m)")]
    runs += [(family, other_max, partial(cf_coeff, family), "residues recover q-coefficients")
             for family in (THETA4, THETA, DELTA256)]
    for family, m_max, oracle, name in runs:
        seq = rec_sequence(family, m_max)
        bad = []
        residues = {}
        for m in range(1, m_max + 1):
            report = residue_report(seq, m)
            residues[m] = report.residue
            expected = oracle(report.pole)
            if report.recovered != expected:
                bad.append((m, report.recovered, expected))
        out.append(_result(
            f"{family} {name} for m <= {m_max}",
            not bad,
            f"first mismatch {bad[0]}" if bad else "",
        ))
        out.append(_jet_check(family, residues))
    return out


SUITES = {
    "golden": golden_suite,
    "identities": identities_suite,
    "resum": resum_suite,
    "residues": residues_suite,
}
