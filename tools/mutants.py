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
