"""On-disk cache for computed sequence entries.

Entries for large m are expensive (degrees grow quadratically with big
coefficients), so the CLI persists them one file per (family, m) under a
versioned header, each as the engine holds it: the numerator's integer
coefficients over one shared denominator, as hex strings, and the
denominator's factors [[j, e], ...].  A file that fails to decode, holds
no JSON object, or whose header (format, engine, family, m) differs is a
miss, and `rec_sequence` also checks each entry's denominator and its
relation to the previous entry; it recomputes and rewrites what fails.
A file's text is what ``json.dumps(data, sort_keys=True)`` gives for the
header and the entry, written from a template: the small fields still go
through the encoder, and the hex numerators are joined in one pass, the
bulk of the file, which the encoder would escape-check one by one.
Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import repeat
from pathlib import Path

from . import __version__
from .families import Family
from .ratfunc import RatFunc
from .rational import Poly
from .recurrence import rec_sequence

CACHE_FORMAT = 2


def family_digest(family: Family) -> str:
    import hashlib  # only the cache needs it: a CLI run without one skips its load

    return hashlib.sha256(family.canonical().encode()).hexdigest()[:16]


class SeqCache:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_path(self, family: Family, m: int) -> Path:
        return self.root / f"{family_digest(family)}-m{m}.json"

    def read(self, family: Family, m: int) -> RatFunc | None:
        path = self.entry_path(family, m)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                return None
            if data.get("format") != CACHE_FORMAT or data.get("engine") != __version__:
                return None
            if data.get("family") != family.canonical() or data.get("m") != m:
                return None
            entry = data["entry"]
            nums, factors = entry["nums"], tuple((j, e) for j, e in entry["factors"])
            if not isinstance(nums, list) or any(type(x) is not int for f in factors for x in f):
                return None
            return RatFunc(Poly.from_cleared([int(c, 16) for c in nums], int(entry["den"], 16)),
                           factors)
        except (OSError, ValueError, KeyError, TypeError, ArithmeticError):
            return None

    def write(self, family: Family, m: int, entry: RatFunc) -> None:
        # the bytes json.dumps(..., sort_keys=True) gives for the header and the
        # entry, with the hex strings joined in one pass and not encoded one by one
        hexes = '", "'.join(map(format, entry.num.int_coeffs, repeat("x")))
        text = ('{"engine": %s, "entry": {"den": "%x", "factors": %s, "nums": [%s]}, '
                '"family": %s, "format": %d, "m": %d}') % (
            json.dumps(__version__), entry.num.int_den, json.dumps(entry.factors),
            f'"{hexes}"' if hexes else "", json.dumps(family.canonical()), CACHE_FORMAT, m)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, self.entry_path(family, m))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# the builder reads and writes through a SeqCache; the name stays for callers
cached_sequence = rec_sequence
