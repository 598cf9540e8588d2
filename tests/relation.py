"""`relation_defect`: an independent check of one step of the v-side
recurrence, through Taylor coefficients at v = 0 and the literal form of
G_m, which shares no arithmetic with `thetares.recurrence.rec_step` or
with the jets; and `taylor`, those coefficients, the reference the
u-side columns are compared with.  The tests import both from here."""

from fractions import Fraction

from thetares import Family, RatFunc


def taylor(f: RatFunc, n: int) -> tuple:
    """Taylor coefficients of f at v = 0 up to and including v**n: the
    numerator divided by each factor (1 - j v) in place, once per power."""
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    cur = list(f.num.int_coeffs[:n + 1])
    cur.extend([0] * (n + 1 - len(cur)))
    for j, e in f.factors:
        for _ in range(e):
            for i in range(1, n + 1):
                cur[i] += j * cur[i - 1]
    return tuple(Fraction(c, f.num.int_den) for c in cur)


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
    rel = list(taylor(entry, k))
    for n in range(k, 0, -1):
        rel[n] -= s * rel[n - 1]
    rel[0] -= family.rhs(m)
    if m:
        e = taylor(prev, k)
        c0, w1 = m - 1 - family.beta, family.w - 1
        for n in range(k):
            rel[n + 1] += (c0 - n) * e[n] + ((w1 * n + n * n) / 4 * e[n - 1] if n else 0)
    return next(((n, c) for n, c in enumerate(rel) if c), None)
