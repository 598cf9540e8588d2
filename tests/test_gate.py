"""The command line at depth, run as a user runs it.

Each test starts ``python -m thetares`` in a subprocess on this tree's own
``src``, so exit codes, stdout bytes and start-up are the program's own.
The sizes reach past the in-process tests of ``test_cli.py``: the scans
and residue tables to entry 60 or 100 by exact local jets, the global
step's ``compute`` bytes at the north-star sizes, and the whole cache
path, cold then warm, with a forged entry in between.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
RATIONAL_DEG2 = "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]"


def thetares(*argv):
    """Exit code and stdout bytes of ``python -m thetares argv``, with no
    cache directory but the one ``argv`` names."""
    env = {k: v for k, v in os.environ.items() if k != "THETARES_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-m", "thetares", *argv],
                          env=env, capture_output=True, check=False)
    assert b"Traceback" not in done.stderr, done.stderr.decode()
    return done.returncode, done.stdout


@pytest.mark.parametrize("suite", ["golden", "identities", "resum", "residues"])
def test_verify_suite(suite):
    """Every suite at its defaults, including the residues suite's
    theta^2 m <= 30 global-vs-jet cross-check."""
    assert thetares("verify", "--suite", suite)[0] == 0


@pytest.mark.parametrize("kind,m_max", [
    ("lehmer", 60), ("two-squares", 100), ("perfect-odd", 31), ("squares", 100),
])
def test_scan(kind, m_max):
    """Each scan by exact local jets, exit 1 on any mismatch with its oracle.

    - lehmer to 256*Delta entry 120 (about 0.5 s), deeper than the global
      prefix of entries can reach in the same time;
    - two-squares to 100: every n that is not a sum of two squares has
      residue 0 mod p, so the exact jet decides it (about 2 s), checked
      against r2;
    - perfect-odd, the odd-perfect residue test, to theta^4 entry 31;
    - squares to 100 through has_pole on theta: nearly every residue is 0
      mod p, so the exact jet runs after the jet mod p (1.4-1.8 s),
      checked against the squares.
    """
    assert thetares("scan", "--kind", kind, "--m-max", str(m_max), "--format", "json")[0] == 0


@pytest.mark.parametrize("family", ["mult:0,0,2", "mult:1,0,0", "mult:3,2,6", RATIONAL_DEG2,
                                    f"mult:1,3,5*{RATIONAL_DEG2}"])
def test_residues_to_60(family):
    """The residue table by exact local jets to entry 60, exit 1 on any
    mismatch with the q-series oracle.  theta^2 takes about 0.3 s, against
    about 2.4 s for the global prefix of entries.  Three more are the
    families where the weight, beta, edge, rhs and sign formulas once
    differed by kind: odd a (mult:1,0,0 and mult:3,2,6) and a degree-2 P
    with rational coefficients (about 0.6 s each).  The last has both
    parts: a theta part with odd a, 4b and 4c times that P."""
    code, _ = thetares("residues", "--family", family, "--m-max", "60", "--format", "json")
    assert code == 0


@pytest.mark.parametrize("family,m_max,digest", [
    ("mult:0,0,2", 40, "8d409a4675e8f55ea001eb3df21b6781c9aa667c3b8dd39b4c8b76bbf55e42e5"),
    ("mult:2,8,8", 48, "6a6eae556a8ebf2ac126b69234d44b88431ce6e0b819768679276f0967af31f6"),
    (RATIONAL_DEG2, 30, "e0d50a5e2296e2ec51eb829b7c524f12bc506ee29b0773b20507c6c4e704ee4f"),
], ids=["theta^2-40", "256*Delta-48", "rational-deg2-30"])
def test_compute_digest(family, m_max, digest):
    """The global step's bytes at the north-star sizes: ``compute`` stdout
    for theta^2 to m = 40 and 256*Delta to m = 48 (about 3 s together), and
    for the degree-2 poly family to m = 30, whose steps 1 and 2 add the rhs
    term over rational monomial coefficients (about 0.7 s)."""
    code, out = thetares("compute", "--family", family, "--m-max", str(m_max),
                         "--format", "json")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("family,m_max", [
    ("mult:2,8,8", 20), ("mult:0,0,2", 34), ("poly:1:[(0,1,1)]", 12), ("mult:1,0,0", 12),
    (RATIONAL_DEG2, 12), ("poly:1:[(0,1,1/2305843009213693951),(1,0,1)]", 4),
])
def test_cache_cold_then_warm(tmp_path, family, m_max):
    """The whole cache path: the warm run reads back every entry the cold
    run wrote and must print the same bytes.

    - mult:2,8,8 has coefficients of about 700 bits;
    - poly:1:[(0,1,1)] starts from e_0 = 0 and mult:1,0,0 from
      e_0 = 1/(1-v), the two edge cases of the denominator check;
    - the degree-2 poly family has a nonzero rhs after m = 0 over an entry
      with factors (the step's rhs term) and rational monomial coefficients;
    - theta^2 to m = 34 is the benchmark's size, so the read check's tables
      of powers of v0 grow to degree 670;
    - the last poly:1 family has 2^61 - 1 in the den of every entry past
      e_0, which the drawn prime never divides, so its entries are checked
      like any other.

    The warm run must also rewrite no file: a read check that refused
    genuine entries would recompute them and still print the same.  For
    theta^2, 2^61 - 1 is added to the constant numerator of the m = 3 file
    between the runs: the relation moves by a multiple of 2^61 - 1, which
    only a prime drawn per run sees, so the warm run must rewrite that file
    and every later one as the cold run wrote it.
    """
    cache = tmp_path / "cache"
    argv = ("compute", "--family", family, "--m-max", str(m_max), "--format", "json",
            "--cache-dir", str(cache))
    code, cold = thetares(*argv)
    assert code == 0
    written = {path: path.read_bytes() for path in cache.glob("*.pkl")}
    assert len(written) == m_max + 1
    prefix = hashlib.sha256(family.encode()).hexdigest()[:16]
    refused = set()
    if family == "mult:0,0,2":
        forged = cache / f"{prefix}-m3.pkl"
        data = pickle.loads(written[forged])
        data["nums"][0] += 2**61 - 1
        forged.write_bytes(pickle.dumps(data, protocol=5))
        refused = {cache / f"{prefix}-m{m}.pkl" for m in range(3, m_max + 1)}
    stamps = {path: (path.stat().st_ino, path.stat().st_mtime_ns) for path in written}

    code, warm = thetares(*argv)
    assert (code, warm) == (0, cold)
    assert {path: path.read_bytes() for path in cache.glob("*.pkl")} == written
    rewritten = {path for path in written
                 if (path.stat().st_ino, path.stat().st_mtime_ns) != stamps[path]}
    assert rewritten == refused
