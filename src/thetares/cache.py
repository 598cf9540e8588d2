"""On-disk cache for computed sequence entries.

Entries for large m are expensive (degrees grow quadratically with big
coefficients), so the CLI persists them one file per (family, m) under a
versioned header, each as the engine holds it: the numerator's integer
coefficients over one shared denominator, and the denominator's factors
[[j, e], ...].  A file (format 3) is the protocol-5 pickle of one dict of
plain ints, strings and lists: the header (engine, family, format, m),
then "nums", "den" and "factors".  Pickle writes an int as its
two's-complement bytes, so a write or a read is a linear copy per
coefficient, with no text conversion and no digit limit.

Unpickling can run code, so a read refuses every global: the file can
only build built-in containers and scalars (``marshal``, the other
binary codec of plain data, has no such hook).  A file that fails to
load, has bytes after the pickle's end, holds no dict, has another
header, or a numerator coefficient, den or factor entry that is not
exactly an int is a miss, and `rec_sequence` also checks each entry's
denominator and its relation to the previous entry; it recomputes and
rewrites what fails.  Files of formats 1 and 2 (JSON, ``.json``) are
never read and can be deleted.  Writes go through a temporary file and
an atomic rename.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path

from . import __version__
from .families import Family
from .ratfunc import RatFunc
from .rational import Poly
from .recurrence import rec_sequence

CACHE_FORMAT = 3


def family_digest(family: Family) -> str:
    import hashlib  # only the cache needs it: a CLI run without one skips its load

    return hashlib.sha256(family.canonical().encode()).hexdigest()[:16]


def _ints(values) -> bool:
    """Whether every value is exactly an int: no bool, float or str."""
    return all(type(c) is int for c in values)


class SeqCache:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_path(self, family: Family, m: int) -> Path:
        return self.root / f"{family_digest(family)}-m{m}.pkl"

    def read(self, family: Family, m: int) -> RatFunc | None:
        import pickle  # only the cache needs it: a CLI run without one skips its load

        class PlainData(pickle.Unpickler):
            def find_class(self, module, name):
                raise pickle.UnpicklingError(f"global {module}.{name} refused")

        try:
            raw = self.entry_path(family, m).read_bytes()
        except OSError:
            return None
        stream = io.BytesIO(raw)
        try:
            data = PlainData(stream).load()
        except Exception:  # garbage raises UnpicklingError, EOFError, KeyError, ...
            return None
        if stream.tell() != len(raw) or type(data) is not dict:
            return None
        if data.get("format") != CACHE_FORMAT or data.get("engine") != __version__:
            return None
        if data.get("family") != family.canonical() or data.get("m") != m:
            return None
        nums, den, factors = data.get("nums"), data.get("den"), data.get("factors")
        if (type(nums) is not list or not _ints(nums) or type(den) is not int or not den
                or type(factors) is not list
                or not all(type(f) is list and len(f) == 2 and _ints(f) for f in factors)):
            return None
        return RatFunc(Poly.from_cleared(nums, den), map(tuple, factors))

    def write(self, family: Family, m: int, entry: RatFunc) -> None:
        import pickle  # only the cache needs it: a CLI run without one skips its load

        raw = pickle.dumps({
            "engine": __version__, "family": family.canonical(), "format": CACHE_FORMAT, "m": m,
            "nums": list(entry.num.int_coeffs), "den": entry.num.int_den,
            "factors": [list(f) for f in entry.factors],
        }, protocol=5)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, self.entry_path(family, m))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# the builder reads and writes through a SeqCache; the name stays for callers
cached_sequence = rec_sequence
