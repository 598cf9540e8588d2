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
  theta^2 e = P / (D L^2) with P = L theta M - A_1 M, A_1 = A + theta L.
  Each step (`rec_step`), from e_{-1} = 0 on, writes the new numerator
  over D L^2 (1 - s v) directly from four products of the large numerator
  by the small L and A_1: N L and N A_1, which one pass turns into M; M A_1;
  and L times the bracket of v N L, v M, v^2 N L, v^2 M and v^2 theta M,
  formed in one more pass; then one root test at v = 1/s (none at s = 0).
  Every old pole 1/j gains exactly 2 in order (v/4 (1+theta)^2 adds
  e_j (e_j + 1) (j v)^2 / 4 times its top term, the rest at most order
  e_j + 1), so only (1 - s v) can cancel, once at most (see below);

* the u-side: polynomials phi_0, phi_1, ... from a three-term relation,
  whose factorially weighted coefficients resum to the same numbers.
  As (u^2 - u) p' has coefficient (i-1) p_{i-1} - i p_i, coefficient i of
  (n+1)(n+w) phi_{n+1} is the two-term stencil (`upoly_step`)
  (a + i) p_i + (n + beta + 1 - i) p_{i-1} - r_{i-1} / 4, p = phi_n,
  r = phi_{n-1}.

The pole of e_m at v = 1/s is at most simple, and its residue recovers the
q-expansion coefficient c(s) of the family's form up to a sign (see
`Family.recovered_from_residue`) and the factor s 16^s.  So e_m has its
pole iff c(s) != 0: `has_pole` at the bottom is that test, and the scans
read membership off it (sums of two squares, squares, vanishing of
Ramanujan's tau).

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
y_i = (f_i + s_k y_{i-1}) / u.  The exact division first divides by u
directly and keeps y over the same den when every y_i is an integer.
Otherwise it takes the power route: it forms the integers
z_i = u^n y_i = u^(n-1) f_i + s_k z_{i-1} / u in one pass (z_{i-1} is a
multiple of u^(n-i), so the division is exact), moves u^n into den, and
takes the content of (c, den) against that new u^n (any common divisor
keeps num / den exact).  When y is integral every u^n y_i is a multiple
of u^n, so the content is u^n and both routes give the same (num, den);
the power route runs mostly at i = 0, where f_0 is no multiple of u.
The division mod a prime p multiplies by u^-1 mod p instead, so it
builds no powers of u, and gives den = 0 when p divides u; a divisor
s, 4 or a denominator that p divides shows as den = 0 mod p too.  A
nonzero residue mod any prime p proves the pole, so p's size costs no
exactness: `has_pole` takes p = PRIME = 32749, the largest prime below
2^15, and falls back to the exact jet only on a zero mod p or on den = 0.
A jet value is then 15 bits, and a stencil sum f_i (jet values times row
entries that grow like s i) stays below 2^30, one CPython digit, in
every jet of `scan --kind lehmer --m-max 15` (32 bits by --m-max 30), so
its product with u^-1 mod p takes at most two digits.  What p's size
does cost is fallbacks: a nonzero residue reads 0 mod p with chance
about 1/p = 3 * 10^-5, and p divides a divisor only when s >= p or a
denominator of P holds p.

Nothing above needs v0 = 1/s to be a pole: expanded at any point v0 mod p
where every 1 - s_k v0 is a unit, e_k(v0) = f_k(v0) / (1 - s_k v0) for
every k <= m, the last one included.  So one mod-p pass of O(m^2)
operations gives e_0(v0) .. e_m(v0), and `rec_sequence` accepts an entry,
read or computed, only when its value at v0 (one dot product) equals the
jet's; the theta-form step and the stencil share no arithmetic.

So one generator, `_stencil`, builds the rows once for jets at v = 1/s and
yields f_k over den s for k = 0 .. m, taking e_k's jet between two steps
from a division rule, `_divide_exact` or `_divide_mod`.  Its three
consumers: `local_residue` (exact) and `local_residue_mod` (mod PRIME) read
Res = -f_m[0] / (den s^2) (`_pole`), and `_jet_values` (mod p, s = 1/v0)
reads e_k(v0) = f_k[0] / (den (1/v0 - s_k)) at every k.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from math import gcd, lcm, prod
from operator import mul

from . import backend
from .families import Family
from .rational import Poly
from .ratfunc import RatFunc, expanded_den

# the modulus of the scans' jets (`local_residue_mod`): the largest prime
# below 2^15, so every jet value is 15 bits and, in the scans' jets, every
# stencil sum stays within one 30-bit CPython digit; `rec_sequence` draws
# its own prime in [2^61, 2^62) instead (`_draw_prime`)
PRIME = 32749
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the first twelve primes
_BASES_PRODUCT = prod(_BASES)


def _edge_terms(factors: tuple):
    """Integer lists L = prod (1 - j v) over the factor indices j, and
    A_1 = sum_j (e_j + 1) (-j v) L / (1 - j v) = A + theta L."""
    ell = expanded_den((j, 1) for j, _e in factors)
    a1 = [0] * len(ell)
    for j, e in factors:
        for i, c in enumerate(backend.divexact_linear(ell, j)):
            a1[i + 1] -= (e + 1) * j * c
    return ell, a1


_ZERO = RatFunc(Poly())  # e_{-1} = 0, the entry before e_0


def rec_step(family: Family, m: int, prev: RatFunc) -> RatFunc:
    """The m-th entry of the family's v-side sequence.

    ``prev`` must be the (m-1)-th entry; for m = 0 it is e_{-1} = 0.
    """
    if m < 0:
        raise ValueError("sequence index must be nonnegative")
    if prev and not m:
        raise ValueError(f"entry 0 needs e_-1 = 0, got {prev}")
    s = family.edge(m)
    if prev.factors and prev.factors[-1][0] >= s:
        raise ValueError(f"entry {m - 1} has no pole at v = 1/j, j >= {s}: {prev.factors}")
    ell, a1 = _edge_terms(prev.factors)
    n = list(prev.num.int_coeffs)
    # theta(N L) = L theta N + N theta L and A_1 = A + theta L, hence
    # M = theta(N L) - A_1 N and P = L theta M - A_1 M; N L and N A_1 have
    # the same length
    nl = backend.conv(n, ell)
    mm = [i * x - y for i, (x, y) in enumerate(zip(nl, backend.conv(n, a1)))]
    # G D L^2 = (c0 + v w/4) N L^2 + (-1 + v (w+1)/4) M L + v P/4, and the
    # entry's numerator over D L^2 (1 - s v) is rhs D L^2 - v G D L^2, times
    # q: L times the bracket v (q M - c0q NL) + v^2 (-cwq NL - (cw1q + q4 i) M),
    # i the index in M (theta M), plus q4 v^2 A_1 M
    c0 = m - 1 - family.beta
    cw = family.w / 4
    cw1 = (family.w + 1) / 4
    rhs = family.rhs(m)
    q = lcm(c0.denominator, cw.denominator, cw1.denominator, 4, rhs.denominator)
    c0q, cwq, cw1q, q4 = int(c0 * q), int(cw * q), int(cw1 * q), q // 4
    bracket = [0, 0]
    for i, (x, y) in enumerate(zip(nl, mm)):
        bracket[-1] += q * y - c0q * x
        bracket.append(-cwq * x - (cw1q + q4 * i) * y)
    t = backend.conv(bracket, ell)
    for i, y in enumerate(backend.conv(mm, a1), 2):
        t[i] += q4 * y
    factors = tuple((j, e + 2) for j, e in prev.factors)  # reduced by theorem
    if rhs:
        r = int(rhs * q) * prev.num.int_den
        t = [x + r * c for x, c in zip_longest(t, expanded_den(factors), fillvalue=0)]
    # one root test and at most one division on the raw integers: trailing
    # zeros of t only scale the test by a power of s, and the one canonical
    # form below reduces the quotient as it would have reduced t; at s = 0,
    # (1 - s v) = 1 is never a factor
    if s and backend.eval_at_inv(t, s):
        factors += ((s, 1),)
    elif s:
        t = backend.divexact_linear(t, s)
    return RatFunc(Poly.from_cleared(t, q * prev.num.int_den), factors)


SeqState = namedtuple("SeqState", "family entries")
SeqState.__doc__ = "A computed prefix e_0..e_M of one family's v-side sequence."


class RelationError(RuntimeError):
    """A computed entry fails the relation it was computed from."""


def _is_prime(n: int) -> bool:
    """Trial division by `_BASES` in one gcd, which turns most candidates
    away cheaply, then Miller-Rabin to the same bases: exact for
    n < 3.18 * 10^23."""
    if gcd(n, _BASES_PRODUCT) != 1 or n < 2:
        return n in _BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r  # n - 1 = d 2^r, d odd
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(r):  # a strong probable prime to b: b^(d 2^k) = -1 for some k < r
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _draw_prime(rng, dens: int) -> int:
    """A random prime p in [2^61, 2^62) that does not divide ``dens``."""
    while True:
        p = rng.randrange(2**61 + 1, 2**62, 2)
        if _is_prime(p) and dens % p:
            return p


class _Tables:
    """v0's powers mod a prime p, grown on demand and never shared between
    points, so that N(v0) is one dot product with N's coefficients."""

    __slots__ = ("p", "v0", "p0")

    def __init__(self, p: int, v0: int):
        self.p, self.v0, self.p0 = p, v0, [1]

    def powers(self, n: int) -> list:
        """v0^0, v0^1, ... mod p, at least n of them."""
        p0 = self.p0
        while len(p0) < n:
            p0.append(p0[-1] * self.v0 % self.p)
        return p0


def _value(entry: RatFunc, tables: _Tables) -> int | None:
    """e(v0) = N(v0) / (den D(v0)) mod p for v0 = tables.v0 and p = tables.p,
    or None when p divides den D(v0).  N(v0) is one dot product with the
    tables, reduced once: a product of a coefficient and a table entry costs
    less than reducing the coefficient."""
    nums, p, den = entry.num.int_coeffs, tables.p, entry.num.int_den
    for j, e in entry.factors:
        den = den * pow(1 - j * tables.v0, e, p) % p
    if not den % p:
        return None
    return sum(map(mul, nums, tables.powers(len(nums)))) * pow(den, -1, p) % p


def _fits(family: Family, m: int, entry: RatFunc, prev: RatFunc,
          tables: _Tables, value: int) -> bool:
    """Whether a read ``entry`` has prev's factors raised by 2, plus (1 - s v)
    only where s > 0 and the numerator is nonzero at v = 1/s, and takes the
    ``value`` the jet gives e_m at v0 (`rec_sequence`).  ``prev`` is e_{m-1},
    e_{-1} = 0 for m = 0, and only its factors are read.

    With the factors right, the entry and the true e_m = N_true / (den_true D)
    share D up to (1 - s v), so they differ iff Z = den_true N - den N_true
    (each numerator times (1 - s v) where only the other denominator has it)
    is nonzero; Z has degree at most max(deg N, deg N_true) + 1.  A wrong
    entry of the right shape passes only if p divides Z or v0 is one of its
    roots mod p (Schwartz-Zippel): for a random p and v0, with probability
    at most deg Z / 2^61 plus the share of the 5 * 10^16 primes in
    [2^61, 2^62) that divide Z.  No genuine entry has p in its den, so one
    with p there has no value and fails."""
    raised = tuple((j, e + 2) for j, e in prev.factors)
    s = family.edge(m)
    if entry.factors == raised:
        shaped = bool(entry.num) or not raised  # a zero entry has no factors
    else:
        shaped = (s > 0 and entry.factors == raised + ((s, 1),)
                  and backend.eval_at_inv(entry.num.int_coeffs, s) != 0)
    return shaped and _value(entry, tables) == value


def rec_sequence(family: Family, m_max: int, cache=None) -> SeqState:
    """Entries 0..m_max, computed in order from e_{-1} = 0.

    With a ``cache`` (a `thetares.cache.SeqCache`), the longest run of
    cached entries 0, 1, ... that pass `_fits` is read first, and each
    entry after it is computed and (re)written as soon as it exists, so an
    interrupted run keeps its progress.  A computed entry, whose shape
    `rec_step` built, must take the jet's value at v0 before it is written
    or returned, or `RelationError` is raised.  Both checks compare an entry's
    value at one point v0 mod a prime p with e_m(v0) from one mod-p jet
    expanded at v0 (`_jet_values`), which shares no arithmetic with
    `rec_step`.  p and v0 are drawn per call: p in [2^61, 2^62) and prime
    to phi0's den, the lcm of every rhs_k's denominator, so to every
    genuine den (den_m divides q den_{m-1}, and q's other factors are 2s),
    and 1/v0 in (edge(m_max), p), away from every edge.  That makes every
    divisor of the jet a unit mod p too: 1/v0, q, rd and 1/v0 - edge(k).
    Each numerator is evaluated once, against tables of v0's powers built
    for this call alone.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    rng = random.SystemRandom()
    p = _draw_prime(rng, family.phi0().int_den)
    low = family.edge(m_max) + 1
    if low >= p:
        raise ValueError(f"m_max {m_max} reaches the drawn prime: no point is off every pole")
    v0 = pow(rng.randrange(low, p), -1, p)
    values, tables = _jet_values(family, m_max, p, v0), _Tables(p, v0)
    entries, reading, prev = [], cache is not None, _ZERO
    for m in range(m_max + 1):
        entry = cache.read(family, m) if reading else None
        if entry is None or not _fits(family, m, entry, prev, tables, values[m]):
            reading = False  # no cache, or a miss: compute, and read no further
            entry = rec_step(family, m, prev)
            if _value(entry, tables) != values[m]:
                raise RelationError(f"computed entry {m} of {family} fails its relation")
            if cache is not None:
                cache.write(family, m, entry)
        entries.append(entry)
        prev = entry
    return SeqState(family, entries)


# -- the u-side -----------------------------------------------------------


def upoly_step(family: Family, n: int, phi_n: Poly, phi_prev: Poly) -> Poly:
    """phi_{n+1} from (n+1)(n+w) phi_{n+1} + (u^2-u) phi_n'
    - (a + (n+beta) u) phi_n + u phi_{n-1} / 4 = 0: the module
    docstring's stencil, in one pass on the cleared integers."""
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    # p = P / dp, r = R / dr, and 4 beta and 2 w are integers: 4 dp dr times
    # the stencil is integral, over 2 dp dr (n+1)(2n + 2w).  Both pad to one
    # slot past the longer list: theta^2 has phi_1 = 0 but phi_0 = 1
    pn, rn, dp, dr = phi_n.int_coeffs, phi_prev.int_coeffs, phi_n.int_den, phi_prev.int_den
    size = max(len(pn), len(rn)) + 1
    p = [*pn, *[0] * (size - len(pn))]
    r = [0, *rn, *[0] * (size - len(rn))]  # r_{i-1} at index i
    a4, c = 4 * family.a, int(4 * (n + 1 + family.beta))
    nums = [dr * ((a4 + 4 * i) * pi + (c - 4 * i) * pm) - dp * rm
            for i, (pi, pm, rm) in enumerate(zip(p, [0, *p], r))]
    return Poly.from_cleared(nums, 2 * dp * dr * (n + 1) * int(2 * (n + family.w)))


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


# -- residues -----------------------------------------------------------------


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

def _stencil(family: Family, m: int, s: int, divide):
    """(f_k, den) for k = 0 .. m, f_k = rhs_k - v G_k(e_{k-1}) over den s on jets at
    v = 1/s; between two steps ``divide(f, den, s - s_k, s_k)`` gives e_k's (jet, den)."""
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
    rhs = family.rhs_table()  # read once: a lookup per step, no Fraction built
    jet, den = [0] * (2 * m + 3), 1  # e_{-1} = 0, as a jet over den
    for k in range(m + 1):
        r = rhs.get(k, 0)
        rn, rd, a = r.numerator, r.denominator, s * ((k - 1) * q - bq)
        # f = rhs_k - v G_k(e) over den q s^2 rd: the stencil on the jet c
        c = [0, 0, *jet]
        f = [rd * (pm2 * cm2 + (pm1 - a) * cm1 + (p0 - a) * c0 + pp1 * cp1 + pp2 * cp2)
             for pm2, pm1, p0, pp1, pp2, cm2, cm1, c0, cp1, cp2
             in zip(*rows, c, c[1:], c[2:], c[3:], c[4:])]
        f[0] += rn * den * q * s * s
        den *= b * rd
        yield f, den
        if k < m:
            sk = family.edge(k)
            jet, den = divide(f, den, s - sk, sk)


def _divide_exact(f: list, den: int, u: int, sk: int) -> tuple:
    """y = f / (u - s_k t) over den, exactly: y_i = (f_i + s_k y_{i-1}) / u by u
    directly when no remainder appears, else over a power of u."""
    y, yi = [], 0
    for fi in f:
        yi, rem = divmod(fi + sk * yi, u)
        if rem:
            break
        y.append(yi)
    else:
        return y, den
    # the power route: coefficient i over u^n is z_i = u^n y_i
    # = u^(n-1) f_i + s_k z_{i-1} / u, an exact division
    un1, zi, jet = u ** (len(f) - 1), 0, []
    for fi in f:
        zi = un1 * fi + sk * (zi // u)
        jet.append(zi)
    unit = un1 * u
    # the tail, with the fewest forced factors u, cuts the gcd down soonest
    g = backend.content_gcd(reversed(jet), unit)
    return [z // g for z in jet], den * unit // g


def _divide_mod(p: int, f: list, den: int, u: int, sk: int) -> tuple:
    """The same y mod a prime p, times u^-1 mod p; den = 0 when p divides u."""
    if not u % p:
        return f, 0
    inv, yi, jet = pow(u, -1, p), 0, []
    for fi in f:
        yi = (fi + sk * yi) * inv % p
        jet.append(yi)
    return jet, den % p


def _pole(family: Family, m: int, divide) -> tuple:
    """(num, den) with Res_{v=1/s} e_m = num / den, s = edge(m): e_m = -f_m / t."""
    s = family.edge(m)
    if s < 1:
        raise ValueError(f"entry {m} of family {family} has no edge pole (s = {s})")
    for f, den in _stencil(family, m, s, divide):
        pass
    return -f[0], den * s * s


def _jet_values(family: Family, m: int, p: int, v0: int) -> list:
    """e_0(v0) .. e_m(v0) mod a prime p, from the jet at v = v0; every divisor
    must be a unit mod p, as `rec_sequence` draws p and v0."""
    s = pow(v0, -1, p)
    return [f[0] * pow(den * (s - family.edge(k)), -1, p) % p
            for k, (f, den) in enumerate(_stencil(family, m, s, partial(_divide_mod, p)))]


def local_residue(family: Family, m: int) -> Fraction:
    """Res_{v=1/s} e_m, s = edge(m), from the local jet at v = 1/s: exact,
    and without the entry e_m itself (see the module docstring)."""
    num, den = _pole(family, m, _divide_exact)
    return Fraction(num, den)


def local_residue_mod(family: Family, m: int) -> int | None:
    """Res_{v=1/s} e_m mod PRIME, from the same jet reduced mod PRIME; None
    when PRIME divides one of the jet's divisors."""
    num, den = _pole(family, m, partial(_divide_mod, PRIME))
    return num * pow(den, -1, PRIME) % PRIME if den % PRIME else None


def has_pole(family: Family, m: int) -> bool:
    """Whether entry m has its (at most simple) pole at v = 1/edge(m), that
    is whether the form's coefficient c(edge(m)) is nonzero: the one pole
    test behind every scan.  The jet mod PRIME decides it; only a zero
    there, or a divisor PRIME divides, goes to the exact jet."""
    return bool(local_residue_mod(family, m) or local_residue(family, m))
