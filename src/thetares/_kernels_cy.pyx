# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled integer kernels; behavioural twin of _kernels_py.

The coefficient arithmetic itself is arbitrary-precision (Python ints),
so the win here is stripping interpreter dispatch from the inner loops,
not native arithmetic.  Keep the algorithms in lockstep with the pure
module: tests/test_backends.py compares the two on random inputs.
``conv_trunc`` is not here: the pure-Python Kronecker kernel serves both
backends.
"""

from math import gcd


def conv(list a, list b):
    """Full product of two coefficient lists; [] is the zero polynomial."""
    cdef Py_ssize_t la = len(a), lb = len(b), i, j
    if la == 0 or lb == 0:
        return []
    cdef list out = [0] * (la + lb - 1)
    cdef object ai
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                out[i + j] = out[i + j] + ai * b[j]
    return out


def divexact_linear(list nums, j):
    """Quotient q with (1 - j*v)*q = nums, or None when not divisible."""
    cdef Py_ssize_t n = len(nums), i
    if n == 0:
        return []
    cdef list q = [0] * (n - 1)
    cdef object carry = 0
    for i in range(n - 1):
        carry = nums[i] + j * carry
        q[i] = carry
    if nums[n - 1] + j * carry != 0:
        return None
    return q


def eval_at_inv(list nums, j):
    """j**deg * p(1/j) for the integer polynomial with coefficients ``nums``."""
    cdef Py_ssize_t i, n = len(nums)
    cdef object acc = 0
    for i in range(n):
        acc = acc * j + nums[i]
    return acc


def geom_coeffs(j, e, Py_ssize_t n):
    """First ``n`` coefficients of (1 - j*v)**(-e): binomial(i+e-1, e-1)*j**i."""
    cdef Py_ssize_t i
    if n <= 0:
        return []
    cdef list out = [0] * n
    out[0] = 1
    cdef object c = 1
    for i in range(1, n):
        c = c * j * (e + i - 1) // i
        out[i] = c
    return out


def series_inv_cleared(list f, Py_ssize_t n):
    """Integers G with 1/(sum f_i v^i) = sum G_i / f[0]**(i+1) * v^i."""
    cdef Py_ssize_t lf = len(f), i, t, tmax
    cdef object f0 = f[0]
    if n <= 0:
        return []
    cdef list g = [0] * n
    g[0] = 1
    cdef list pw = [1] * n
    for t in range(1, n):
        pw[t] = pw[t - 1] * f0
    cdef object acc, ft
    for i in range(1, n):
        acc = 0
        tmax = i if i < lf - 1 else lf - 1
        for t in range(1, tmax + 1):
            ft = f[t]
            if ft:
                acc = acc + ft * g[i - t] * pw[t - 1]
        g[i] = -acc
    return g


def content_gcd(list nums, den):
    """gcd of ``den`` and every entry of ``nums`` (with early exit at 1)."""
    cdef object g = den
    cdef object c
    cdef Py_ssize_t i, n = len(nums)
    for i in range(n):
        c = nums[i]
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g
