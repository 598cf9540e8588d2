"""The recurrences.

Two coupled computations per family:

* the v-side: rational functions e_0, e_1, ... where each step solves

      e_m (1 - s v) = rhs_m - v * G_m(e_{m-1}),    s = m + a,
      G_m(e) = (m-1-beta) e - v e' + (w-1)/4 v (v e)' + 1/4 v (v (v e)')'.

  With the Euler operator theta = v d/dv, v (v e)' = v (1+theta) e and
  v (v (v e)')' = v (1+theta)^2 e, so

      G_m = (m-1-beta) - theta + v [w/4 + (w+1)/4 theta + 1/4 theta^2].

  Write e = N / D with D = prod (1 - j v)^e_j, L = prod (1 - j v) over the
  distinct j, and A = sum_j e_j (-j v) L / (1 - j v), so theta D / D = A / L.
  Then theta e = M / (D L) with M = L theta N - A N, and
  theta^2 e = P / (D L^2) with P = L theta M - (A + theta L) M.  Each step
  (`rec_step`) writes the new numerator over D L^2 (1 - s v) directly: five
  products of the large numerator by the small L and A, and one root test.
  Every old pole 1/j gains exactly 2 in order (v/4 (1+theta)^2 adds
  e_j (e_j + 1) (j v)^2 / 4 times its top term, the rest at most order
  e_j + 1), so only (1 - s v) can cancel, once at most (see below).
  `relation_defect` checks a step independently: it substitutes Taylor
  coefficients at v = 0 into the literal form of G, up to a degree bound
  past which a nonzero relation cannot vanish;

* the u-side: polynomials phi_0, phi_1, ... from a three-term relation,
  whose factorially weighted coefficients resum to the same numbers.

The pole of e_m at v = 1/s is at most simple, and its residue recovers the
q-expansion coefficient c(s) of the family's form up to a sign (see
`Family.recovered_from_residue`) and the factor s 16^s.  The scans at the
bottom turn that into membership tests (sums of two squares, perfect
numbers, squares, vanishing of Ramanujan's tau).

The residue also has a local route that never builds e_m
(`local_residue`).  Fix m and s = s_m, and write s_k = k + a for the
earlier pole parameters.  Every pole of e_k sits at some 1/s_j with j <= k,
so e_0 .. e_{m-1} are regular at v0 = 1/s.  Put v = (1 + t) / s; then
theta = (1 + t) d/dt has integer coefficients, and
1 - s_k v = ((s - s_k) - s_k t) / s is a unit in the Taylor jets at
t = 0 for k < m.  So the relations run on jets: start from e_{-1} = 0
with 2m + 3 terms; step k forms f_k = rhs_k - v G_k(e_{k-1}) and divides
it by the unit 1 - s_k v.  At k = m, 1 - s v = -t, so e_m = -f_m / t with
f_m regular at t = 0: the pole at v = 1/s is at most simple, whatever the
family, and Res_{v=1/s} e_m = -f_m(v0) / s needs only the constant term
of f_m.  The jet costs O(m^2) arithmetic operations, against a global
prefix whose cost grows like m^5 - m^6.

With e_{k-1} = c / den, q = lcm(4, the denominators of beta, w/4 and
(w+1)/4), cwq = q w/4, cw1q = q (w+1)/4, q4 = q/4, B = s q and rd the
denominator of rhs_k, f_k over den q s^2 rd has the integer coefficients

    f_i = rd (sum_{j=-2..2} P_j(i) c_{i+j} - A (c_{i-1} + c_i)),
    c_{-1} = c_{-2} = 0,  A = s q (k - 1 - beta),

plus the rhs term at t^0: a five-point stencil, two terms shorter than c
since G applies theta twice.  Its rows are

    P_-2(i) = (2 cw1q - cwq - 4 q4) + (4 q4 - cw1q) i - q4 i^2
    P_-1(i) = (-B + 3 cw1q - 2 cwq - 5 q4) + (B - 3 cw1q + 9 q4) i - 4 q4 i^2
    P_0(i)  = -cwq + (2 B - 3 cw1q + 3 q4) i - 6 q4 i^2
    P_+1(i) = (B - cw1q - q4) + (B - cw1q - 5 q4) i - 4 q4 i^2
    P_+2(i) = -q4 (i + 1) (i + 2).

They come from theta, v = (1 + t) / s and the terms of G that do not
involve m, so one set serves every step of the jet; only the relation's
m - 1 - beta (in A) and its rhs (in rd) change with k.

Every division is by a fixed integer (s, s - s_k, 4, the denominators of
beta, w and rhs).  Dividing f by the unit u - s_k t, u = s - s_k, gives
y_i = (f_i + s_k y_{i-1}) / u.  The exact jet first divides by u
directly; when every y_i is an integer it keeps y over the same den.
Otherwise the step takes the power route: it forms the integers
z_i = u^n y_i = u^(n-1) f_i + s_k z_{i-1} / u in one pass (z_{i-1} is a
multiple of u^(n-i), so the division is exact), moves u^n into den, and
takes the content of (c, den) against that new u^n (any common
divisor keeps num / den exact, since `local_residue` returns
Fraction(num, den)).  The two routes give the same (num, den): when y is
integral, every u^n y_i is a multiple of u^n, so the content is u^n
itself and the power route also leaves y over den.  The power route is
taken only by steps where some y_i is not an integer, mostly at i = 0,
where f_0 is no multiple of u.  The mod-p jet (`local_residue_mod`, p a
large prime) multiplies by u^-1 mod p instead and keeps y over den, so
it builds no powers of u; when p divides u it stops with den = 0, and
a divisor s, 4 or a denominator that p divides shows as den = 0 mod p
too.  A nonzero residue mod p proves the pole, and the Lehmer and
two-squares scans fall back to the exact jet only on a zero mod p or on
den = 0 mod p.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import backend
from .families import DELTA256, THETA, THETA2, THETA4, Family
from .rational import Poly, Rat
from .ratfunc import RatFunc, edge_factor

_U2U = Poly([0, -1, 1])  # u^2 - u
PRIME = 2**61 - 1  # the modulus of `local_residue_mod` and of the cache's relation check
_QUARTER = Fraction(1, 4)


def _edge_terms(factors: tuple):
    """Integer lists L = prod (1 - j v) over the factor indices j, and
    A_t = sum_j (e_j + t) (-j v) L / (1 - j v) for t = 1, 2."""
    ell = [1]
    for j, _e in factors:
        ell.append(0)
        for i in range(len(ell) - 1, 0, -1):
            ell[i] -= j * ell[i - 1]
    a1 = [0] * len(ell)
    a2 = [0] * len(ell)
    for j, e in factors:
        for i, c in enumerate(backend.divexact_linear(ell, j)):
            a1[i + 1] -= (e + 1) * j * c
            a2[i + 1] -= (e + 2) * j * c
    return ell, a1, a2


def _theta(nums: list) -> list:
    """theta = v d/dv on an integer coefficient list."""
    return [i * c for i, c in enumerate(nums)]


def _combo(coeffs, lists) -> list:
    """sum_k coeffs[k] * lists[k] for integer lists of any lengths."""
    out = [0] * max(map(len, lists))
    for c, xs in zip(coeffs, lists):
        if c:
            for i, x in enumerate(xs):
                out[i] += c * x
    return out


def _initial(family: Family) -> RatFunc:
    """e_0 = rhs_0 / (1 - s v), s = edge(0), with no factor when s = 0."""
    s, num = family.edge(0), Poly([family.rhs(0)])
    return RatFunc(num, ((s, 1),) if s and num else ())


def rec_step(family: Family, m: int, prev: RatFunc | None = None) -> RatFunc:
    """The m-th entry of the family's v-side sequence.

    ``prev`` must be the (m-1)-th entry for m > 0 and absent for m = 0.
    """
    if m < 0:
        raise ValueError("sequence index must be nonnegative")
    if m == 0:
        if prev is not None:
            raise ValueError("the initial entry takes no previous entry")
        return _initial(family)
    if prev is None:
        raise ValueError(f"entry {m} needs entry {m - 1}")
    s = family.edge(m)
    if prev.factors and prev.factors[-1][0] >= s:
        raise ValueError(f"entry {m - 1} has no pole at v = 1/j, j >= {s}: {prev.factors}")
    ell, a1, a2 = _edge_terms(prev.factors)
    n = list(prev.num.int_coeffs)
    # theta(N L) = L theta N + N theta L, and A_1 = A + theta L, hence
    # M = theta(N L) - A_1 N and likewise P = theta(M L) - A_2 M
    nl = backend.conv(n, ell)
    mm = _combo((1, -1), (_theta(nl), backend.conv(n, a1)))
    nl2 = backend.conv(nl, ell)
    ml = backend.conv(mm, ell)
    p = _combo((1, -1), (_theta(ml), backend.conv(mm, a2)))
    # G D L^2 = (c0 + v w/4) N L^2 + (-1 + v (w+1)/4) M L + v P/4, and the
    # entry's numerator over D L^2 (1 - s v) is rhs D L^2 - v G D L^2, times q
    c0 = m - 1 - family.beta
    cw = family.w / 4
    cw1 = (family.w + 1) / 4
    rhs = Fraction(family.rhs(m))
    q = lcm(c0.denominator, cw.denominator, cw1.denominator, 4, rhs.denominator)
    t = _combo(
        (-int(c0 * q), q, -int(cw * q), -int(cw1 * q), -(q // 4)),
        ([0] + nl2, [0] + ml, [0, 0] + nl2, [0, 0] + ml, [0, 0] + p),
    )
    factors = tuple((j, e + 2) for j, e in prev.factors)  # reduced by theorem
    if rhs:
        dl2 = [1]
        for j, e in factors:
            dl2 = backend.conv(dl2, list(edge_factor(j, e).int_coeffs))
        t = _combo((1, int(rhs * q) * prev.num.int_den), (t, dl2))
    # one root test and at most one division on the raw integers: trailing
    # zeros of t only scale the test by a power of s, and the one canonical
    # form below reduces the quotient as it would have reduced t
    if backend.eval_at_inv(t, s):
        factors += ((s, 1),)
    else:
        t = backend.divexact_linear(t, s)
    return RatFunc(Poly.from_cleared(t, q * prev.num.int_den), factors)


def relation_defect(family: Family, m: int, entry: RatFunc,
                    prev: RatFunc | None) -> tuple | None:
    """Check a candidate pair against the m-th relation
    R = e_m (1 - s v) + v G_m(e_{m-1}) - rhs_m through its Taylor
    coefficients at v = 0: None when R vanishes identically, else the
    first nonzero coefficient as (index, value).

    G is transcribed from the paper's literal form, not the theta-form of
    `rec_step`, and the two share no arithmetic: the coefficient of v^n in
    G_m(e) is (m-1-beta-n) e_n + ((w-1) n + n^2)/4 e_{n-1}.

    Finitely many coefficients decide it.  Let D'_m be e_m's denominator
    with one factor (1 - s v) removed if it has one, L = prod (1 - j v)
    over the f distinct factors of e_{m-1}, and Y = lcm(D'_m, D_{m-1} L^2)
    (Y = D'_0 for m = 0).  Each theta = v d/dv takes a numerator over D L^k
    to one over D L^(k+1) and raises its degree by at most f, so
    v G D_{m-1} L^2 is a polynomial of degree <= deg N_{m-1} + 2f + 2.
    Hence R Y is a polynomial of degree at most

        K = max(deg N_m + 1 + deg Y - deg D'_m,
                deg N_{m-1} + 2 + deg Y - deg D_{m-1},  (m > 0 only)
                deg Y),

    counting deg 0 = -1.  Every factor (1 - j v) is a unit at v = 0, so
    R = 0 iff R Y = 0 iff the coefficients of R up to v^K vanish.
    """
    s = family.edge(m)
    den = dict(entry.factors)  # D'_m
    if den.get(s):
        den[s] -= 1
    dl2 = {j: e + 2 for j, e in prev.factors} if m else {}  # D_{m-1} L^2
    deg_y = sum(max(den.get(j, 0), dl2.get(j, 0)) for j in den.keys() | dl2.keys())
    k = max(len(entry.num.int_coeffs) + deg_y - sum(den.values()), deg_y)
    if m:
        deg_d = sum(e for _j, e in prev.factors)
        k = max(k, len(prev.num.int_coeffs) + 1 + deg_y - deg_d)
    rel = list(entry.taylor(k))
    for n in range(k, 0, -1):
        rel[n] -= s * rel[n - 1]
    rel[0] -= family.rhs(m)
    if m:
        e = prev.taylor(k)
        c0, w1 = m - 1 - family.beta, family.w - 1
        for n in range(k):
            rel[n + 1] += (c0 - n) * e[n] + ((w1 * n + n * n) / 4 * e[n - 1] if n else 0)
    return next(((n, c) for n, c in enumerate(rel) if c), None)


SeqState = namedtuple("SeqState", "family entries")
SeqState.__doc__ = "A computed prefix e_0..e_M of one family's v-side sequence."


def _point(entry: RatFunc, v0: int) -> tuple | None:
    """(e, e', e'') at v0 mod PRIME, or None when den or some 1 - j v0 is
    0 mod PRIME.  With e = N / (den D), lam = D'/D = -sum j e_j / (1 - j v)
    and lam' = -sum j^2 e_j / (1 - j v)^2: e' = (N' - N lam) / (den D) and
    e'' = (N'' - 2 N' lam - N lam' + N lam^2) / (den D)."""
    n0 = n1 = n2 = lam = lam1 = 0
    for c in reversed(entry.num.int_coeffs):  # one Horner pass for N, N' and N''/2
        n2, n1, n0 = (n2 * v0 + n1) % PRIME, (n1 * v0 + n0) % PRIME, (n0 * v0 + c) % PRIME
    den = entry.num.int_den
    for j, e in entry.factors:
        u = (1 - j * v0) % PRIME
        den, t = den * pow(u, e, PRIME) % PRIME, j * pow(u, -1, PRIME) if u else 0
        lam, lam1 = lam - e * t, lam1 - e * t * t
    if not den % PRIME:
        return None
    inv = pow(den, -1, PRIME)
    return (n0 * inv % PRIME, (n1 - n0 * lam) * inv % PRIME,
            (2 * n2 - 2 * n1 * lam - n0 * lam1 + n0 * lam * lam) * inv % PRIME)


def _fits(family: Family, m: int, entry: RatFunc, prev: RatFunc | None,
          v0: int, at_prev: tuple | None) -> tuple | None:
    """`_point(entry, v0)` if a cached entry is e_0 (m = 0), or else has
    prev's factors raised by 2, plus (1 - s v) only where the numerator is
    nonzero at v = 1/s, and satisfies the m-th relation
    R = e_m (1 - s v) + v G_m(e_{m-1}) - rhs_m at v0 mod PRIME, given
    ``at_prev`` = `_point(prev, v0)`; None otherwise.  A wrong entry with the
    right shape passes only if v0 is one of the at most deg R roots of R's
    numerator: probability at most deg R / PRIME (Schwartz-Zippel)."""
    if not m:
        return _point(entry, v0) if entry == _initial(family) else None
    raised = tuple((j, e + 2) for j, e in prev.factors)
    s = family.edge(m)
    if entry.factors == raised:
        shaped = bool(entry.num) or not raised  # a zero entry has no factors
    else:
        shaped = (entry.factors == raised + ((s, 1),)
                  and backend.eval_at_inv(entry.num.int_coeffs, s) != 0)
    at = _point(entry, v0) if shaped else None
    if at is None:
        return None
    e, d1, d2 = at_prev
    th, w4 = v0 * d1, family.w / 4  # theta e = v e', and theta^2 e = th + v^2 e''
    g = (m - 1 - family.beta) * e - th + v0 * (
        w4 * e + (w4 + _QUARTER) * th + _QUARTER * (th + v0 * v0 * d2))
    # R is a Fraction whose denominator PRIME does not divide
    return None if (at[0] * (1 - s * v0) + v0 * g - family.rhs(m)).numerator % PRIME else at


def rec_sequence(family: Family, m_max: int, cache=None) -> SeqState:
    """Entries 0..m_max, computed in order.

    With a ``cache`` (a `thetares.cache.SeqCache`), the longest run of
    cached entries 0, 1, ... that pass `_fits` is read first, and each
    entry after it is computed and (re)written as soon as it exists, so an
    interrupted run keeps its progress.  `_fits` checks each relation at
    one point v0 mod PRIME, drawn once per call, and carries the value
    and derivatives of the last accepted entry there, so each numerator
    is evaluated once.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    entries, at = [], None
    v0 = random.SystemRandom().randrange(2, PRIME)  # the point of every relation check
    while cache is not None and len(entries) <= m_max:
        m = len(entries)
        entry = cache.read(family, m)
        at = None if entry is None else _fits(family, m, entry, entries[-1] if m else None, v0, at)
        if at is None:
            break
        entries.append(entry)
    while len(entries) <= m_max:
        m = len(entries)
        entry = rec_step(family, m, entries[-1] if m else None)
        if cache is not None:
            cache.write(family, m, entry)
        entries.append(entry)
    return SeqState(family, entries)


# -- the u-side -----------------------------------------------------------


def upoly_step(family: Family, n: int, phi_n: Poly, phi_prev: Poly) -> Poly:
    """phi_{n+1} from (n+1)(n+w) phi_{n+1} + (u^2-u) phi_n'
    - (alpha + (n+beta) u) phi_n + u phi_{n-1} / 4 = 0."""
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    num = phi_n * Poly([family.alpha, n + family.beta])
    num = num - phi_n.diff() * _U2U
    num = num - phi_prev.shift(1) * _QUARTER
    return num / ((n + 1) * (n + family.w))


def upoly_sequence(family: Family, n_max: int) -> list:
    """phi_0 .. phi_{n_max}."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    phis = [family.phi0()]
    prev = Poly()
    for n in range(n_max):
        phis.append(upoly_step(family, n, phis[-1], prev))
        prev = phis[-2]
    return phis


def resum_matrix(family: Family, m_max: int, n_max: int) -> list:
    """Coefficient of u^m v^i of the weighted double series
    sum_n weight(n) phi_n(u) v^n, as rows m <= m_max, columns i <= n_max.

    Column i only sees phi_i, since the v-power is attached to the
    weight; row m of the matrix must match the Taylor expansion of the
    m-th v-side entry.
    """
    phis = upoly_sequence(family, n_max)
    rows = [[Fraction(0)] * (n_max + 1) for _ in range(m_max + 1)]
    weight = Fraction(1)
    for i, phi in enumerate(phis):
        if i:
            weight *= i * (i - 1 + family.w)
        for m in range(m_max + 1):
            c = phi.coeff(m)
            if c:
                rows[m][i] = weight * c
    return rows


# -- residues and scans -------------------------------------------------------


# pole: the pole parameter m + a; recovered: the q-expansion coefficient
# at the pole parameter that the residue predicts
ResidueReport = namedtuple("ResidueReport", "m pole pole_order residue recovered")


def residue_report(seq: SeqState, m: int) -> ResidueReport:
    """Pole data of entry m of the prefix ``seq`` and the q-expansion
    coefficient it encodes; the prefix is read, never extended."""
    if not 1 <= m < len(seq.entries):
        raise ValueError(f"the residue identity needs 1 <= m <= {len(seq.entries) - 1} "
                         f"(the given prefix), got m = {m}")
    family = seq.family
    entry = seq.entries[m]
    pole = family.edge(m)
    order = entry.pole_order(pole)
    res = entry.residue(pole)  # HigherOrderPoleError when order > 1
    return ResidueReport(m, pole, order, res, family.recovered_from_residue(m, res))


# -- local jets at the edge ----------------------------------------------------

def _residue_jet(family: Family, m: int, modulus: int = 0) -> tuple:
    """Integers (num, den) with Res_{v=1/s} e_m = num / den, both reduced
    mod ``modulus`` when it is nonzero (derivation in the module docstring).

    Mod p every step is a ring operation or a product with u^-1, so
    num / den mod p is the residue mod p whenever p does not divide den,
    and den = 0 mod p says that some divisor (s, s - s_k, 4, or a
    denominator of beta, w or rhs) is a multiple of p.
    """
    s = family.edge(m)
    if s < 1:
        raise ValueError(f"entry {m} of family {family} has no edge pole (s = {s})")
    beta, cw, cw1 = family.beta, family.w / 4, (family.w + 1) / 4
    q = lcm(beta.denominator, cw.denominator, cw1.denominator, 4)
    cwq, cw1q, q4, bq, b = int(cw * q), int(cw1 * q), q // 4, int(beta * q), s * q
    # the stencil rows P_-2 .. P_2, one entry per coefficient of f_0
    idx = range(2 * m + 1)
    rows = (
        [2 * cw1q - cwq - 4 * q4 + (4 * q4 - cw1q - q4 * i) * i for i in idx],
        [-b + 3 * cw1q - 2 * cwq - 5 * q4 + (b - 3 * cw1q + 9 * q4 - 4 * q4 * i) * i
         for i in idx],
        [-cwq + (2 * b - 3 * cw1q + 3 * q4 - 6 * q4 * i) * i for i in idx],
        [b - cw1q - q4 + (b - cw1q - 5 * q4 - 4 * q4 * i) * i for i in idx],
        [-q4 * (i + 1) * (i + 2) for i in idx],
    )
    rhs = [Fraction(family.rhs(k)) for k in range(m + 1)]
    jet, den = [0] * (2 * m + 3), 1  # e_{-1} = 0, as a jet over den
    for k, r in enumerate(rhs):
        rn, rd, a = r.numerator, r.denominator, s * ((k - 1) * q - bq)
        # f = rhs_k - v G_k(e) over den q s^2 rd: the stencil on the jet c
        c = [0, 0, *jet]
        f = [rd * (pm2 * cm2 + (pm1 - a) * cm1 + (p0 - a) * c0 + pp1 * cp1 + pp2 * cp2)
             for pm2, pm1, p0, pp1, pp2, cm2, cm1, c0, cp1, cp2
             in zip(*rows, c, c[1:], c[2:], c[3:], c[4:])]
        f[0] += rn * den * q * s * s
        den *= b * rd
        if k == m:  # e_m = f / (1 - s v) = -f / t and dv = dt / s
            num, den = -f[0], den * s * s
            break
        # e_k = s f / (u - s_k t), u = s - s_k: coefficient i of y = f / (u - s_k t)
        # is y_i = (f_i + s_k y_{i-1}) / u
        u, sk, n = s - family.edge(k), family.edge(k), len(f)
        if modulus:  # times the inverse of u; p | u leaves no inverse: den = 0
            if not u % modulus:
                return 0, 0
            inv, yi, jet = pow(u, -1, modulus), 0, []
            for fi in f:
                yi = (fi + sk * yi) * inv % modulus
                jet.append(yi)
            den %= modulus
            continue
        # the exact jet divides by u directly and keeps y over den when no
        # remainder appears: the power route below gives the same (num, den) then
        y, yi = [], 0
        for fi in f:
            yi, rem = divmod(fi + sk * yi, u)
            if rem:
                break
            y.append(yi)
        else:
            jet = y
            continue
        # the power route (exact steps with a remainder): coefficient i over
        # u^n is z_i = u^n y_i = u^(n-1) f_i + s_k z_{i-1} / u, an exact division
        un1, zi, jet = u ** (n - 1), 0, []
        for fi in f:
            zi = un1 * fi + sk * (zi // u)
            jet.append(zi)
        unit = un1 * u
        # any divisor of the new unit power keeps num / den exact; the tail,
        # with the fewest forced factors u, cuts the gcd down soonest
        gcd = backend.content_gcd(reversed(jet), unit)
        jet, den = [y // gcd for y in jet], den * unit // gcd
    if modulus:
        return num % modulus, den % modulus
    return num, den


def local_residue(family: Family, m: int) -> Rat:
    """Res_{v=1/s} e_m, s = edge(m), from the local jet at v = 1/s: exact,
    and without the entry e_m itself (see the module docstring)."""
    num, den = _residue_jet(family, m)
    return Fraction(num, den)


def local_residue_mod(family: Family, m: int) -> int | None:
    """Res_{v=1/s} e_m mod PRIME, from the same jet reduced mod PRIME; None
    when PRIME divides one of the jet's divisors."""
    num, den = _residue_jet(family, m, PRIME)
    return num * pow(den, -1, PRIME) % PRIME if den else None


def _has_pole(family: Family, m: int) -> bool:
    """Whether entry m has its (at most simple) pole at v = 1/edge(m),
    decided by the jet mod PRIME; only a zero there, or a divisor PRIME
    divides, goes to the exact jet."""
    return bool(local_residue_mod(family, m) or local_residue(family, m))


def scan_two_squares(m_max: int) -> set:
    """n <= m_max whose theta^2 entry has a (simple) pole at v = 1/n;
    these are exactly the sums of two squares."""
    return {n for n in range(1, m_max + 1) if _has_pole(THETA2, n)}


def scan_squares(m_max: int) -> set:
    """m <= m_max whose theta entry has a pole at v = 1/m: the squares.

    Poles of this weight-1/2 family sit only at squares, so nearly every
    residue mod PRIME would be zero and go to the exact jet anyway: the
    scan reads the exact jet alone.
    """
    return {m for m in range(1, m_max + 1) if local_residue(THETA, m)}


def scan_lehmer(m_max: int) -> list:
    """m <= m_max where the 256*Delta entry 2m has NO pole at v = 1/(2m+2).

    Each such m would be a counterexample witness tau(m+1) = 0; the list
    is expected to be empty.
    """
    return [m for m in range(m_max + 1) if not _has_pole(DELTA256, 2 * m)]


def check_perfect_odd(m_max: int) -> list:
    """(m, residue, is_perfect) for odd m <= m_max: the theta^4 entry's
    residue at v = 1/m, read off the local jet, equals 16^(1-m) exactly
    when m is a perfect number."""
    out = []
    for m in range(1, m_max + 1, 2):
        res = local_residue(THETA4, m)
        out.append((m, res, res == Fraction(1, 16 ** (m - 1))))
    return out
