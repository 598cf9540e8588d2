"""One-line mutants of thetares, and the tests that must kill each.

Every mutant replaces one exact piece of source text (``old``, found
exactly once in its file) by ``new``.  The script copies the tree to a
temporary directory, applies one mutant there, and runs ``pytest -x -q``
on the mutant's test files with that copy's ``src`` first on the path.
The mutant is killed when a test fails and survives when they all pass.
An equivalent mutant, which no test can tell from the original, names
the reason instead of test files; it is only checked to still apply.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

It exits 1 when a mutant survives, no longer applies, or its test files
fail on the unmutated tree (a failing file would kill every mutant).
A change that fixes a bug adds the mutant that brings the bug back.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tests: the test files that must kill the mutant; equivalent: why none can
Mutant = namedtuple("Mutant", "name file old new tests equivalent", defaults=((), ""))

MUTANTS = [
    Mutant("three-term defect without its xy/4 term", "src/thetares/checks.py",
           "terms.append((Fraction(1, 4), _form(",
           "terms.append((0, _form(",
           ("tests/test_qseries.py",)),
    Mutant("D* in the three-term defect at weight w, not w + 2n", "src/thetares/checks.py",
           "dstar_terms(g, w + 2 * n)",
           "dstar_terms(g, w)",
           ("tests/test_qseries.py",)),
    Mutant("x^a y^b table read with a and b swapped", "src/thetares/qseries.py",
           "xy_monomial(d - i, i, trunc)",
           "xy_monomial(i, d - i, trunc)",
           ("tests/test_qseries.py",)),
    Mutant("residues exits 0 on a mismatch", "src/thetares/cli.py",
           "    return EXIT_OK if all_match else EXIT_MISMATCH",
           "    return EXIT_OK",
           ("tests/test_cli.py",)),
    Mutant("scan exits 0 on a mismatch", "src/thetares/cli.py",
           '            print(f"{key}: {value}")\n    return EXIT_OK if passed else EXIT_MISMATCH',
           '            print(f"{key}: {value}")\n    return EXIT_OK',
           ("tests/test_cli.py",)),
    Mutant("verify exits 0 on a mismatch", "src/thetares/cli.py",
           "    print(f\"suite {args.suite}: {'PASS' if passed else 'FAIL'}\")\n"
           "    return EXIT_OK if passed else EXIT_MISMATCH",
           "    print(f\"suite {args.suite}: {'PASS' if passed else 'FAIL'}\")\n"
           "    return EXIT_OK",
           ("tests/test_cli.py",)),
    Mutant("r2_count's lattice-versus-divisor self-check switched off",
           "src/thetares/qseries.py",
           "    if lattice != divisor:",
           "    if False:",
           ("tests/test_qseries.py",)),
    Mutant("check_perfect_odd's flag forced to False", "src/thetares/recurrence.py",
           "out.append((m, res, res == Fraction(1, 16 ** (m - 1))))",
           "out.append((m, res, False))",
           ("tests/test_recurrence.py",)),
    Mutant("check_perfect_odd compares with 16^(-m)", "src/thetares/recurrence.py",
           "res == Fraction(1, 16 ** (m - 1))",
           "res == Fraction(1, 16 ** m)",
           ("tests/test_recurrence.py",)),
    Mutant("conv_trunc squares a whatever b is", "src/thetares/backend.py",
           "    square = a is b",
           "    square = True",
           ("tests/test_kernels.py",)),
    Mutant("the read check takes a factor (1 - 0 v) at s = 0", "src/thetares/recurrence.py",
           "shaped = (s > 0 and entry.factors == raised + ((s, 1),)",
           "shaped = (entry.factors == raised + ((s, 1),)",
           ("tests/test_cache.py",)),
    Mutant("rec_step keeps a factor (1 - 0 v) at s = 0", "src/thetares/recurrence.py",
           "    if s and backend.eval_at_inv(t, s):",
           "    if not s or backend.eval_at_inv(t, s):",
           ("tests/test_recurrence.py",)),
    Mutant("the bracket pass adds c0 N L instead of subtracting it",
           "src/thetares/recurrence.py",
           "bracket[-1] += q * y - c0q * x",
           "bracket[-1] += q * y + c0q * x",
           ("tests/test_recurrence.py",)),
    Mutant("the bracket pass drops theta M's q4 i", "src/thetares/recurrence.py",
           "(cw1q + q4 * i) * y",
           "cw1q * y",
           ("tests/test_recurrence.py",)),
    Mutant("rec_step drops the rhs term", "src/thetares/recurrence.py",
           "    if rhs:\n        r = int(rhs * q)",
           "    if False:\n        r = int(rhs * q)",
           ("tests/test_recurrence.py",)),
    Mutant("the read check skips its root test", "src/thetares/recurrence.py",
           "\n                  and backend.eval_at_inv(entry.num.int_coeffs, s) != 0)",
           ")",
           ("tests/test_cache.py",)),
    Mutant("a computed entry is returned without its relation check",
           "src/thetares/recurrence.py",
           "fit = _holds(family, m, entry, tables, at)",
           "fit = _point(entry, tables)",
           ("tests/test_cli.py",)),
    Mutant("the residue sign follows the paper's (-1)^(m+a+1) for odd a",
           "src/thetares/families.py",
           "sign = -1 if (m + self.k + 1) % 2 else 1",
           "sign = -1 if (m + self.a + self.k + 1) % 2 else 1",
           ("tests/test_families.py",)),
    Mutant("beta = b, without the polynomial degree k", "src/thetares/families.py",
           "return Fraction(self.b4 + 4 * self.k, 4)",
           "return Fraction(self.b4, 4)",
           ("tests/test_families.py",)),
    Mutant("expanded_den multiplies by (1 + j v)", "src/thetares/ratfunc.py",
           "out[i] -= j * out[i - 1]",
           "out[i] += j * out[i - 1]",
           ("tests/test_kernels.py",)),
    Mutant("a cache read ignores the family field", "src/thetares/cache.py",
           'if data.get("family") != family.canonical() or data.get("m") != m:',
           'if data.get("m") != m:',
           ("tests/test_cache.py",)),
    Mutant("a cache read ignores the engine field", "src/thetares/cache.py",
           'data.get("format") != CACHE_FORMAT or data.get("engine") != __version__',
           'data.get("format") != CACHE_FORMAT',
           ("tests/test_cache.py",)),
    Mutant("the drawn prime may divide a denominator", "src/thetares/recurrence.py",
           "if _is_prime(p) and dens % p:",
           "if _is_prime(p):",
           ("tests/test_recurrence.py",)),
    Mutant("the drawn point may sit at a pole 1/j", "src/thetares/recurrence.py",
           "while (pow(v0, -1, p) - family.edge(0)) % p <= m_max:",
           "while False:",
           ("tests/test_recurrence.py",)),
    Mutant("the jet stencil adds A at c_{i-1}", "src/thetares/recurrence.py",
           "(pm1 - a) * cm1",
           "(pm1 + a) * cm1",
           ("tests/test_recurrence.py",)),
    Mutant("the u-side adds r_{i-1} / 4", "src/thetares/recurrence.py",
           "- dp * rm",
           "+ dp * rm",
           ("tests/test_recurrence.py",)),
    Mutant("the Lehmer scan reports nothing", "src/thetares/recurrence.py",
           "return [m for m in range(m_max + 1) if not _has_pole(DELTA256, 2 * m)]",
           "return []",
           ("tests/test_recurrence.py",)),
    Mutant("an oracle failing its self-check ends in a traceback", "src/thetares/cli.py",
           "except (RelationError, OracleConsistencyError) as exc:",
           "except RelationError as exc:",
           ("tests/test_cli.py",)),
    Mutant("the plain parser takes a repeated flag", "src/thetares/cli.py",
           "if kwargs is None or flag in given:",
           "if kwargs is None:",
           ("tests/test_cli.py",)),
    Mutant("the plain parser takes a value starting with -", "src/thetares/cli.py",
           'if value.startswith("-"):',
           'if value == "-":',
           ("tests/test_cli.py",)),
    Mutant("the plain parser leaves a default out", "src/thetares/cli.py",
           'given.get(flag, kwargs.get("default"))',
           "given.get(flag)",
           ("tests/test_cli.py",)),
    Mutant("the plain parser does not check choices", "src/thetares/cli.py",
           'if "choices" in kwargs and value not in kwargs["choices"]:',
           "if False:",
           ("tests/test_cli.py",)),
    Mutant("the plain parser does not check required flags", "src/thetares/cli.py",
           'any(kwargs.get("required") and flag not in given for flag, kwargs in flags.items())',
           "False",
           ("tests/test_cli.py",)),
    Mutant("the plain parser does not check the qseries-dump group", "src/thetares/cli.py",
           "or one_of and sum(flag in given for flag in one_of) != 1):",
           "or False):",
           ("tests/test_cli.py",)),
    Mutant("the plain parser raises on a bad int instead of leaving it to argparse",
           "src/thetares/cli.py",
           "        except ValueError:\n            return None",
           "        except TypeError:\n            return None",
           ("tests/test_cli.py",)),
    Mutant("the exact jet's power route scaled by one more u", "src/thetares/recurrence.py",
           "un1, zi, jet = u ** (n - 1), 0, []",
           "un1, zi, jet = u ** n, 0, []",
           equivalent="every z_i and the unit power gain the same factor u, so the "
                      "jet's num / den, and each residue read off it, is unchanged"),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work"))


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _apply(tree: Path, mutant: Mutant) -> bool:
    """Apply the mutant in tree; False when its old text is not there exactly once."""
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main() -> int:
    start = time.monotonic()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        files = sorted({f for m in MUTANTS for f in m.tests})
        if _pytest(tree, files):
            print(f"the unmutated tree fails {' '.join(files)}: no mutant can be judged")
            return 1
        for mutant in MUTANTS:
            shutil.rmtree(tree)
            _copy_tree(tree)
            if not _apply(tree, mutant):
                verdict = "STALE (old text not found exactly once)"
            elif mutant.equivalent:
                verdict = f"equivalent: {mutant.equivalent}"
            else:
                code = _pytest(tree, mutant.tests)
                # 1: a test failed; 2: collection failed (the mutant breaks an import)
                verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(
                    code, f"ERROR (pytest exit {code})")
            bad += not (verdict == "killed" or verdict.startswith("equivalent"))
            print(f"{mutant.file}: {mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed or stale, "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
