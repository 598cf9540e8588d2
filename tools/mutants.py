"""One-line mutants of thetares, and the tests that must kill each.

Every mutant replaces one exact piece of source text (``old``, found
exactly once in its file) by ``new``.  The script copies the tree to a
temporary directory, applies one mutant there, and runs ``pytest -x -q``
on the mutant's tests (whole files, or node ids where a file is more than
it needs) with that copy's ``src`` first on the path.  The mutant is
killed when a test fails and survives when they all pass; each verdict
line ends with the seconds its mutant took.  An equivalent mutant, which
no test can tell from the original, names the reason instead of tests;
it is only checked to still apply.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

It exits 1 when a mutant survives, no longer applies, or the files of
its tests fail on the unmutated tree (a failing file would kill every
mutant).
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

# tests: the test files or node ids that must kill the mutant; equivalent: why none can
Mutant = namedtuple("Mutant", "name file old new tests equivalent", defaults=((), ""))

MUTANTS = [
    Mutant("three-term defect without its xy/4 term", "src/thetares/checks.py",
           "terms.append((Fraction(1, 4), theta_form(",
           "terms.append((0, theta_form(",
           ("tests/test_qseries.py",)),
    Mutant("the Laurent constant without its log-derivative term", "src/thetares/checks.py",
           "return n_prime.residue(j) + f.residue(j) * log_deriv",
           "return n_prime.residue(j)",
           ("tests/test_cli.py",)),
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
    Mutant("the divisor list leaves out n // d", "src/thetares/qseries.py",
           "return small + [n // d for d in reversed(small) if d * d != n]",
           "return small",
           ("tests/test_qseries.py",)),
    Mutant("r2_count's lattice-versus-divisor self-check switched off",
           "src/thetares/qseries.py",
           "    if lattice != divisor:",
           "    if False:",
           ("tests/test_qseries.py",)),
    Mutant("the perfect-odd scan's flag forced to False", "src/thetares/cli.py",
           "rows.append((n, res, res == Fraction(1, 16 ** (n - 1))))",
           "rows.append((n, res, False))",
           ("tests/test_cli.py::TestScan::test_perfect_odd_flags_a_perfect_residue",)),
    Mutant("the perfect-odd scan compares with 16^(-n)", "src/thetares/cli.py",
           "res == Fraction(1, 16 ** (n - 1))",
           "res == Fraction(1, 16 ** n)",
           ("tests/test_cli.py::TestScan::test_perfect_odd_flags_a_perfect_residue",)),
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
    Mutant("rec_step runs its root test at s = 0 too", "src/thetares/recurrence.py",
           "    if s and backend.eval_at_inv(t, s):",
           "    if backend.eval_at_inv(t, s) and s:",
           ("tests/test_cache.py",)),
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
    Mutant("a computed entry is returned without its value check",
           "src/thetares/recurrence.py",
           "if _value(entry, tables) != values[m]:",
           "if False:",
           ("tests/test_cli.py",)),
    Mutant("a read entry's value is ignored", "src/thetares/recurrence.py",
           "return shaped and _value(entry, tables) == value",
           "return shaped",
           ("tests/test_cache.py",)),
    Mutant("a read entry is compared with the jet's value one index back",
           "src/thetares/recurrence.py",
           "_fits(family, m, entry, prev, tables, values[m])",
           "_fits(family, m, entry, prev, tables, values[m - 1])",
           ("tests/test_cache.py",)),
    Mutant("_value drops the factor units", "src/thetares/recurrence.py",
           "den = den * pow(1 - j * tables.v0, e, p) % p",
           "den = den % p",
           ("tests/test_recurrence.py",)),
    Mutant("the value read records f_k(v0), before the unit division",
           "src/thetares/recurrence.py",
           "pow(den * (s - family.edge(k)), -1, p)",
           "pow(den * s, -1, p)",
           ("tests/test_recurrence.py",)),
    Mutant("the value read leaves out the unit (1/v0 - s_k)", "src/thetares/recurrence.py",
           "pow(den * (s - family.edge(k)), -1, p)",
           "pow(den, -1, p)",
           ("tests/test_recurrence.py",)),
    Mutant("the jet's values start at e_{-1}(v0) = 0, one index off",
           "src/thetares/recurrence.py",
           "    return [f[0] * pow(den * (s - family.edge(k)), -1, p) % p",
           "    return [0] + [f[0] * pow(den * (s - family.edge(k)), -1, p) % p",
           ("tests/test_recurrence.py",)),
    Mutant("the jet at a point leaves k = m to the pole read: no e_m(v0)",
           "src/thetares/recurrence.py",
           "enumerate(_stencil(family, m, s, partial(_divide_mod, p)))]",
           "enumerate(_stencil(family, m, s, partial(_divide_mod, p))) if k < m]",
           ("tests/test_recurrence.py",)),
    Mutant("the mod-p division ignores p | u", "src/thetares/recurrence.py",
           "    if not u % p:\n        return f, 0",
           "    if False:\n        return f, 0",
           ("tests/test_recurrence.py",)),
    Mutant("the residue sign follows the paper's (-1)^(m+a+1) for odd a",
           "src/thetares/families.py",
           "sign = -1 if (m + self.k + 1) % 2 else 1",
           "sign = -1 if (m + self.a + self.k + 1) % 2 else 1",
           ("tests/test_families.py",)),
    Mutant("beta = b, without the polynomial degree k", "src/thetares/families.py",
           "return Fraction(self.b4 + 4 * self.k, 4)",
           "return Fraction(self.b4, 4)",
           ("tests/test_families.py",)),
    Mutant("a mixed family's cache name drops its mult: part", "src/thetares/families.py",
           'return "*".join(parts)',
           "return parts[-1]",
           ("tests/test_families.py",)),
    Mutant("parse_family reads any script's digits in a mult: part",
           "src/thetares/families.py",
           "re.fullmatch(_MULT, parts[0], re.ASCII)",
           "re.fullmatch(_MULT, parts[0])",
           ("tests/test_families.py",)),
    Mutant("parse_family reads any script's digits in a monomial",
           "src/thetares/families.py",
           "re.fullmatch(_MONO_LIST, poly[2], re.ASCII)",
           "re.fullmatch(_MONO_LIST, poly[2])",
           ("tests/test_families.py",)),
    Mutant("the theta part dropped from theta_form", "src/thetares/qseries.py",
           "else theta * xy_form(phi, d, trunc)",
           "else xy_form(phi, d, trunc)",
           ("tests/test_qseries.py",)),
    Mutant("theta_form's P = 1 shortcut taken for every constant phi",
           "src/thetares/qseries.py",
           "return theta if not d and phi.coeffs == (1,) else",
           "return theta if not d else",
           ("tests/test_qseries.py",)),
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
    Mutant("the cache reader resolves globals", "src/thetares/cache.py",
           '                raise pickle.UnpicklingError(f"global {module}.{name} refused")',
           "                return super().find_class(module, name)",
           ("tests/test_cache.py",)),
    Mutant("the cache reader accepts trailing bytes", "src/thetares/cache.py",
           "if stream.tell() != len(raw) or type(data) is not dict:",
           "if type(data) is not dict:",
           ("tests/test_cache.py",)),
    Mutant("the cache reader's type(c) is int loosened to isinstance", "src/thetares/cache.py",
           "return all(type(c) is int for c in values)",
           "return all(isinstance(c, int) for c in values)",
           ("tests/test_cache.py",)),
    Mutant("the drawn prime may divide a denominator", "src/thetares/recurrence.py",
           "if _is_prime(p) and dens % p:",
           "if _is_prime(p):",
           ("tests/test_recurrence.py",)),
    Mutant("rec_sequence draws its prime from PRIME's range", "src/thetares/recurrence.py",
           "rng.randrange(2**61 + 1, 2**62, 2)",
           "rng.randrange(2**14 + 1, 2**15, 2)",
           ("tests/test_recurrence.py",)),
    Mutant("the drawn point may sit at a pole 1/j", "src/thetares/recurrence.py",
           "v0 = pow(rng.randrange(low, p), -1, p)",
           "v0 = pow(rng.randrange(2, p), -1, p)",
           ("tests/test_recurrence.py",)),
    Mutant("the jet stencil adds A at c_{i-1}", "src/thetares/recurrence.py",
           "(pm1 - a) * cm1",
           "(pm1 + a) * cm1",
           ("tests/test_recurrence.py",)),
    Mutant("the jet's rhs lookup reads rhs_{k+1}", "src/thetares/recurrence.py",
           "        r = rhs.get(k, 0)",
           "        r = rhs.get(k + 1, 0)",
           ("tests/test_recurrence.py::TestLocalJets",)),
    Mutant("the jet's rhs lookup drops rhs_k's denominator rd", "src/thetares/recurrence.py",
           "rn, rd, a = r.numerator, r.denominator,",
           "rn, rd, a = r.numerator, 1,",
           ("tests/test_recurrence.py::TestLocalJets",)),
    Mutant("the u-side adds r_{i-1} / 4", "src/thetares/recurrence.py",
           "- dp * rm",
           "+ dp * rm",
           ("tests/test_recurrence.py",)),
    Mutant("the Lehmer scan reports nothing", "src/thetares/cli.py",
           "violations = [k for k in range(m + 1) if not has_pole(DELTA256, 2 * k)]",
           "violations = []",
           ("tests/test_cli.py",)),
    Mutant("the squares kind scans theta^2 instead of theta", "src/thetares/cli.py",
           '"squares": (THETA,',
           '"squares": (THETA2,',
           ("tests/test_cli.py",)),
    Mutant("has_pole trusts a zero mod p", "src/thetares/recurrence.py",
           "return bool(local_residue_mod(family, m) or local_residue(family, m))",
           "return bool(local_residue_mod(family, m))",
           ("tests/test_recurrence.py",)),
    Mutant("main maps ValueError to 2", "src/thetares/cli.py",
           "    except UsageError as exc:",
           "    except ValueError as exc:",
           ("tests/test_cli.py",)),
    Mutant("residues' oracle truncation one short", "src/thetares/cli.py",
           "    trunc = family.edge(args.m_max)\n",
           "    trunc = family.edge(args.m_max) - 1\n",
           ("tests/test_cli.py",)),
    Mutant("the family's exponent bound switched off", "src/thetares/families.py",
           "        if a >= 2**60:",
           "        if False:",
           ("tests/test_families.py::TestPolynomial::test_size_bound_is_2_to_the_60",)),
    Mutant("the family's degree bound lets k + 1 = 2^24 coefficients through",
           "src/thetares/families.py",
           "        if k + 1 >= MAX_TERMS:",
           "        if k >= MAX_TERMS:",
           ("tests/test_families.py::TestPolynomial::test_size_bound_is_2_to_the_60",)),
    Mutant("the weight product one index off", "src/thetares/checks.py",
           "weight *= i * (i - 1 + family.w)",
           "weight *= i * (i + family.w)",
           ("tests/test_recurrence.py::TestResummation",)),
    Mutant("phi cut at u^(M-1)", "src/thetares/checks.py",
           "phi.int_coeffs[:len(lengths)]",
           "phi.int_coeffs[:len(lengths) - 1]",
           ("tests/test_recurrence.py::TestResummation",)),
    Mutant("the CLI's size rule switched off", "src/thetares/cli.py",
           "    if terms >= MAX_TERMS:",
           "    if False:",
           ("tests/test_cli.py::test_size_bound_is_a_usage_error",)),
    Mutant("the CLI's size rule lets a list of 2^24 entries through", "src/thetares/cli.py",
           "    if terms >= MAX_TERMS:",
           "    if terms > MAX_TERMS:",
           ("tests/test_cli.py::test_size_rule_is_2_to_the_24",)),
    Mutant("the family commands' degree bound switched off", "src/thetares/families.py",
           "        if k + 1 >= MAX_TERMS:",
           "        if False:",
           ("tests/test_cli.py::test_size_bound_is_a_usage_error",)),
    Mutant("residues sizes its jets only, not its oracle's q-series", "src/thetares/cli.py",
           "max(2 * args.m_max + 3, family.edge(args.m_max) + 1)",
           "2 * args.m_max + 3",
           ("tests/test_cli.py::test_size_rule_boundary_per_command",)),
    Mutant("the lehmer scan sizes the jets of entry m, not 2m", "src/thetares/cli.py",
           '4 * m + 3 if kind == "lehmer" else 2 * m + 3',
           "2 * m + 3",
           ("tests/test_cli.py::test_size_rule_boundary_per_command",)),
    Mutant("qseries-dump sizes trunc, not its trunc + 1 coefficients", "src/thetares/cli.py",
           'args.trunc, 2 if args.series == "delta" else 0, args.trunc + 1)',
           'args.trunc, 2 if args.series == "delta" else 0, args.trunc)',
           ("tests/test_cli.py::test_size_rule_boundary_per_command",)),
    Mutant("parse_family lets int()'s digit-limit ValueError escape",
           "src/thetares/families.py",
           "    except ValueError:  # the only one int() raises on ASCII digits",
           "    except TypeError:",
           ("tests/test_families.py",)),
    Mutant("an oracle failing its self-check is an internal error", "src/thetares/cli.py",
           "except (RelationError, OracleConsistencyError) as exc:",
           "except RelationError as exc:",
           ("tests/test_cli.py",)),
    Mutant("a crash escapes main and exits 1, the code for a mismatch", "src/thetares/cli.py",
           "    except Exception as exc:  # a bug: neither a mismatch nor a usage error\n"
           "        import traceback  # only a crash needs it: a plain run skips its load\n"
           "\n"
           "        traceback.print_exc()\n"
           '        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)\n'
           "        return EXIT_INTERNAL\n",
           "",
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
           "un1, zi, jet = u ** (len(f) - 1), 0, []",
           "un1, zi, jet = u ** len(f), 0, []",
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
        files = sorted({t.split("::")[0] for m in MUTANTS for t in m.tests})
        if _pytest(tree, files):
            print(f"the unmutated tree fails {' '.join(files)}: no mutant can be judged")
            return 1
        for mutant in MUTANTS:
            began = time.monotonic()
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
            print(f"{mutant.file}: {mutant.name}: {verdict} "
                  f"({time.monotonic() - began:.1f} s)", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed or stale, "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
