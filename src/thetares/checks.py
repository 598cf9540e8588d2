"""Verification suites behind ``thetares verify``.

Four suites: golden values (the two worked sequence entries with their
published numerator/denominator and residues), q-series identities,
resummation equivalence between the u-side and v-side computations, and
residue-vs-coefficient tables.  Each check is exact; a suite passes only
if every check does.  The identities suite's three-term check builds every
form of both its families with qseries.theta_form, off one shared table of
x^a y^b.  The resum suite checks whole entries: each u-side column times
the entry's denominator, expanded by ratfunc.expanded_den, must give its
numerator.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import zip_longest

from . import backend
from .families import DELTA256, THETA, THETA2, THETA4, Family
from .qseries import (
    QSeries,
    cf_coeff,
    delta_series,
    dstar,
    dstar_terms,
    lincomb,
    r2_count,
    ramanujan_tau,
    t_series,
    theta_form,
    theta_series,
    xy_series,
)
from .ratfunc import RatFunc, expanded_den
from .rational import Poly
from .recurrence import (
    PRIME,
    local_residue,
    local_residue_mod,
    rec_sequence,
    residue_report,
    upoly_sequence,
    upoly_step,
)


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


# Entry 4 of the 256*Delta family, as published: numerator
# 27072v^14 - 61968v^13 - 58736v^12 + 354148v^11 - 509744v^10 + 367158v^9
# - 152445v^8 + 38136v^7 - 5680v^6 + 464v^5 - 16v^4 over the expanded
# denominator below.  The printed pair is consistent with the residue
# data; note the expanded denominator equals MINUS the factored product
# (1-2v)^9 (1-4v)^5 (1-6v), whose constant term is +1, so in canonical
# factored form the numerator flips sign.
R4_NUM = [0, 0, 0, 0, -16, 464, -5680, 38136, -152445, 367158, -509744, 354148,
          -58736, -61968, 27072]
R4_DEN_EXPANDED = [-1, 44, -892, 11056, -93728, 575872, -2649984, 9303552, -25134336,
                   52272128, -83037184, 98988032, -85753856, 50987008, -18612224, 3145728]
R4_FACTORS = ((2, 9), (4, 5), (6, 1))
Q11_FACTORS = ((1, 21), (4, 15), (9, 5))


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail if not passed else "")


def _laurent_constant(f: RatFunc, j: int) -> Fraction:
    """Constant term of the Laurent expansion of f = N / D at its simple pole 1/j.

    Write f = g / (1 - j v) with g = N / D~, D~ = prod_{k != j} (1 - k v)^e_k.
    Then f = -g(1/j) / (j (v - 1/j)) - g'(1/j) / j + O(v - 1/j), and
    g' = (N' + N sum_{k != j} e_k k / (1 - k v)) / D~.  As Res_{1/j} N/D =
    -N(1/j) / (j D~(1/j)), the constant is two residues over f's factors:
    Res N'/D + Res N/D * sum_{k != j} e_k k j / (j - k).
    """
    nums, den = f.num.int_coeffs, f.num.int_den
    # N' over D: `residue` only evaluates, so it needs no reduced form
    n_prime = RatFunc(Poly.from_cleared([i * c for i, c in enumerate(nums)][1:], den), f.factors)
    log_deriv = sum(Fraction(e * k * j, j - k) for k, e in f.factors if k != j)
    return n_prime.residue(j) + f.residue(j) * log_deriv


def golden_suite() -> list:
    delta_seq = rec_sequence(DELTA256, 4)
    entry = delta_seq.entries[4]
    out = []

    product = expanded_den(R4_FACTORS)  # (1-2v)^9 (1-4v)^5 (1-6v)
    out.append(_result(
        "R4 published denominator equals -(1-2v)^9(1-4v)^5(1-6v)",
        R4_DEN_EXPANDED == [-c for c in product],
    ))
    nums, den = list(entry.num.int_coeffs), entry.num.int_den
    out.append(_result(
        "R4 equals its published numerator/denominator pair",
        backend.conv(nums, R4_DEN_EXPANDED)
        == [den * c for c in backend.conv(R4_NUM, product)],
        f"entry 4 is {entry}",
    ))
    out.append(_result(
        "R4 factored denominator",
        entry.factors == R4_FACTORS,
        f"got {entry.factors}",
    ))
    out.append(_result(
        "R4 canonical numerator is the sign-flipped published one",
        den == 1 and nums == [-c for c in R4_NUM],
    ))

    report = residue_report(delta_seq, 4)
    out.append(_result(
        "R4 residue at v=1/6 is -21/32768",
        report.residue == Fraction(-21, 32768),
        f"got {report.residue}",
    ))
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
    xy = x * y
    minus_half_xy = xy * Fraction(-1, 2)
    out.append(_result(
        f"D*x = -xy/2 (trunc {identity_trunc})", dstar(x, 2) == minus_half_xy
    ))
    out.append(_result(
        f"D*y = -xy/2 (trunc {identity_trunc})", dstar(y, 2) == minus_half_xy
    ))
    t = t_series(identity_trunc)
    out.append(_result(
        f"t' identity: (1/2 pi i) t' = 2t^2 - xy/32 (trunc {identity_trunc})",
        t.halfdeg() == t * t * 2 - xy * Fraction(1, 32),
    ))
    out.append(_result(
        f"discriminant = x^2 y^2 (y-x)^2 / 256 (trunc {identity_trunc})",
        delta_series(identity_trunc) == (xy * (y - x)) ** 2 * Fraction(1, 256),
    ))

    for family, tag in ((Family(monomials=((0, 1, 1),), label="P=y"), "P=y"),
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
    """First nonzero defect of (n+1)(n+w) g_{n+1} + 2 D* g_n + xy g_{n-1}/4, one
    sum each; None when it holds for all n <= n_max.  g_n, of weight w + 2n, is
    :func:`theta_form` at phi_n and d = n + head (head = k, so g_0 = F; deg phi_n
    <= n + head, as each step adds at most one).  theta^2's phi_1 is zero."""
    phis = upoly_sequence(family, n_max + 1)
    w, head = family.w, family.k
    g_next = theta_form(family, phis[0], head, trunc)
    for n in range(n_max + 1):
        g, g_next = g_next, theta_form(family, phis[n + 1], n + 1 + head, trunc)
        terms = [((n + 1) * (n + w), g_next)] + [(2 * c, s) for c, s in dstar_terms(g, w + 2 * n)]
        if n and phis[n - 1]:  # xy g_{n-1} = theta x^(n+head+1) (u phi_{n-1})(y/x); g_{-1} = 0
            u_phi = Poly.from_cleared((0,) + phis[n - 1].int_coeffs, phis[n - 1].int_den)
            terms.append((Fraction(1, 4), theta_form(family, u_phi, n + head + 1, trunc)))
        defect = lincomb(terms)
        if defect:
            return defect
    return None


# each family with the last entry m whose whole numerator the u-side fixes;
# the third is mult:1,3,5*poly:2:[(0,2,1),(1,1,-3/2),(2,0,2)], built unparsed
MIXED = Family(1, Fraction(3, 4), Fraction(5, 4), ((0, 2, 1), (1, 1, Fraction(-3, 2)), (2, 0, 2)))
RESUM_RUNS = ((THETA2, 20), (DELTA256, 20), (MIXED, 12))
RESUM_EXTRA = 8  # coefficients past deg N that den D T must leave zero


def u_columns(family: Family, lengths) -> list:
    """Column m of the weighted u-side for m < len(lengths), as a Poly in v:
    coefficient i < lengths[m] is weight(i) [u^m] phi_i, weight(i) =
    prod_{t <= i} t (t - 1 + w), which resums to e_m's Taylor coefficient at
    v^i.  The stencil is lower triangular in the u-index, so each phi is cut
    to u^0 .. u^M, M = len(lengths) - 1, before `upoly_step` runs on it."""
    columns = [[] for _ in lengths]
    weight, phi, prev = Fraction(1), family.phi0(), Poly()
    for i in range(max(lengths)):
        if i:
            weight *= i * (i - 1 + family.w)
            cut = Poly.from_cleared(phi.int_coeffs[:len(lengths)], phi.int_den)
            phi, prev = upoly_step(family, i - 1, cut, prev), cut
        for m, column in enumerate(columns):
            if i < lengths[m]:
                column.append(weight * phi.coeff(m))
    return [Poly(column) for column in columns]


def resum_suite() -> list:
    """Every entry e_m = N / (den D) against its u-side column T, of length
    L = deg N + 1 + RESUM_EXTRA: den D T = N mod v^L, one `conv_trunc` by the
    expanded D.  That fixes every coefficient of N, and the RESUM_EXTRA past
    it must vanish, which tests the factor list too."""
    out = []
    for family, m_max in RESUM_RUNS:
        entries = rec_sequence(family, m_max).entries
        lengths = [len(entry.num.int_coeffs) + RESUM_EXTRA for entry in entries]
        bad = []
        for m, (entry, t) in enumerate(zip(entries, u_columns(family, lengths))):
            nums, den = entry.num.int_coeffs, entry.num.int_den
            dt = backend.conv_trunc(expanded_den(entry.factors), t.int_coeffs, lengths[m])
            bad += [f"at m = {m}, coefficient {i}: u-side D T {Fraction(x, t.int_den)}, "
                    f"v-side N / den {Fraction(y, den)}"
                    for i, (x, y) in enumerate(zip_longest(dt, nums, fillvalue=0))
                    if den * x != t.int_den * y][:1]
        out.append(_result(
            f"resummation equivalence for {family}, every entry m <= {m_max} "
            f"({RESUM_EXTRA} coefficients past deg N vanish)",
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
            bad.append(f"at m = {m}: residue {res}, exact jet {exact}, jet mod p {jet}")
    return _result(
        f"{family} local jets agree exactly and mod {PRIME} with the residues "
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
                bad.append(f"at m = {m}: recovered {report.recovered}, oracle {expected}")
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
