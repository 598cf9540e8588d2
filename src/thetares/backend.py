"""Kernel backend selection.

Imports the compiled kernels when the extension built, the pure-Python
module otherwise.  THETARES_BACKEND=py or =cy forces the choice (``cy``
raises if the extension is missing, so benchmarks cannot silently
compare a backend against itself).

``conv_trunc`` is the pure-Python Kronecker kernel under either backend:
its cost is one big-integer multiply, which a compiled twin would not
speed up.
"""

import os

from . import _kernels_py

_forced = os.environ.get("THETARES_BACKEND")

if _forced not in (None, "", "py", "cy"):
    raise RuntimeError(f"THETARES_BACKEND must be 'py' or 'cy', got {_forced!r}")

if _forced == "py":
    _impl = _kernels_py
    BACKEND = "py"
elif _forced == "cy":
    from . import _kernels_cy as _impl  # type: ignore[attr-defined]

    BACKEND = "cy"
else:
    try:
        from . import _kernels_cy as _impl  # type: ignore[attr-defined]

        BACKEND = "cy"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "py"

conv = _impl.conv
conv_trunc = _kernels_py.conv_trunc
divexact_linear = _impl.divexact_linear
eval_at_inv = _impl.eval_at_inv
geom_coeffs = _impl.geom_coeffs
series_inv_cleared = _impl.series_inv_cleared
content_gcd = _impl.content_gcd
