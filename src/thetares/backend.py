"""Integer kernels.

Everything exact in this package (polynomials, factored rational
functions, truncated q-series) is stored as a list of integer numerators
over one shared denominator, so these inner loops only ever touch plain
Python ints.  Callers reach every kernel as ``backend.<name>`` at call
time, which lets a profiler wrap them in place.
"""

from math import gcd

# one implementation; kept because the benchmark records thetares.BACKEND per run
BACKEND = "py"


def conv(a, b):
    """Full product of two coefficient lists; [] is the zero polynomial."""
    la = len(a)
    lb = len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                out[i + j] += ai * b[j]
    return out


def conv_trunc(a, b, n):
    """First ``n`` coefficients of a*b (may return fewer when the exact
    product is shorter).

    Kronecker substitution: each operand is packed into one integer with
    a slot of ``width`` bytes per coefficient, the two are multiplied
    once, and the coefficients are read back slot by slot.  A slot has
    room for min(la, lb) * max|a| * max|b|, the largest any output
    coefficient can be, plus a sign bit and one bit of slack, so every
    output coefficient is exact.
    """
    if n <= 0 or not a or not b:
        return []
    a = a[:n]
    b = b[:n]
    la = len(a)
    lb = len(b)
    m = min(n, la + lb - 1)
    bits = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
            + min(la, lb).bit_length() + 2)
    width = (bits + 7) // 8
    prod = _pack(a, width) * _pack(b, width)
    # adding half a slot to each of the first m slots turns every signed
    # coefficient into an unsigned digit, whatever the sign of prod
    half = 1 << (8 * width - 1)
    size = width * m
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * m, "little")
    low = ((prod + bias) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(low[k:k + width], "little") - half
            for k in range(0, size, width)]


def _pack(a, width):
    """sum a[i] * 256**(width*i), from one join of two's-complement slots."""
    packed = int.from_bytes(
        b"".join([c.to_bytes(width, "little", signed=True) for c in a]), "little")
    # a negative slot reads as c + 256**width: take back the borrowed 1
    zero = bytes(width)
    one = b"\x01" + bytes(width - 1)
    borrow = int.from_bytes(zero + b"".join([one if c < 0 else zero for c in a]), "little")
    return packed - borrow


def divexact_linear(nums, j):
    """Quotient q with (1 - j*v)*q = nums, or None when not divisible."""
    n = len(nums)
    if n == 0:
        return []
    q = [0] * (n - 1)
    carry = 0
    for i in range(n - 1):
        carry = nums[i] + j * carry
        q[i] = carry
    if nums[n - 1] + j * carry != 0:
        return None
    return q


def eval_at_inv(nums, j):
    """j**deg * p(1/j) for the integer polynomial with coefficients ``nums``.

    Zero iff (1 - j*v) divides the polynomial, which is the only question
    the callers ask.
    """
    acc = 0
    for i in range(len(nums)):
        acc = acc * j + nums[i]
    return acc


def geom_coeffs(j, e, n):
    """First ``n`` coefficients of (1 - j*v)**(-e): binomial(i+e-1, e-1)*j**i."""
    if n <= 0:
        return []
    out = [0] * n
    out[0] = 1
    c = 1
    for i in range(1, n):
        # exact: c picks up the next binomial ratio times j
        c = c * j * (e + i - 1) // i
        out[i] = c
    return out


def series_inv_cleared(f, n):
    """Integers G with 1/(sum f_i v^i) = sum G_i / f[0]**(i+1) * v^i.

    Requires f[0] != 0; the caller handles its own outer denominator and
    normalisation.
    """
    f0 = f[0]
    lf = len(f)
    if n <= 0:
        return []
    g = [0] * n
    g[0] = 1
    pw = [1] * n  # pw[t] = f0**t
    for t in range(1, n):
        pw[t] = pw[t - 1] * f0
    for i in range(1, n):
        acc = 0
        tmax = min(i, lf - 1)
        for t in range(1, tmax + 1):
            ft = f[t]
            if ft:
                acc += ft * g[i - t] * pw[t - 1]
        g[i] = -acc
    return g


def content_gcd(nums, den):
    """gcd of ``den`` and every entry of ``nums`` (with early exit at 1)."""
    g = den
    for c in nums:
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g
