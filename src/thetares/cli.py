"""Command-line surface.

Subcommands: compute (sequence entries as JSON), residues (pole/residue
table against the q-series oracle), scan (two-squares / squares / lehmer
/ perfect-odd), verify (the named check suite), qseries-dump.

Exit codes: 0 all checks pass, 1 theory/oracle mismatch, 2 usage error (a
UsageError, any input that would build a list of 2^24 entries or more
among them, or argparse's), 3 internal error (any other exception, a
bug: traceback to stderr, nothing to stdout).  Output is deterministic:
JSON is emitted with sorted keys and exact rational strings, never floats.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

from .cache import SeqCache
from .checks import SUITES
from .families import DELTA256, MAX_TERMS, THETA, THETA2, THETA4, UsageError, parse_family
from .qseries import (
    DEFAULT_TRUNC,
    OracleConsistencyError,
    cf_coeff,
    cf_series,
    delta_series,
    r2_count,
    sigma1,
    t_series,
    theta_series,
    u_series,
    xy_series,
)
from .recurrence import (
    RelationError,
    has_pole,
    local_residue,
    rec_sequence,
)

CACHE_ENV = "THETARES_CACHE_DIR"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_csv(header, rows) -> None:
    """The header, then the rows; booleans print as true/false."""
    import csv  # only --format csv needs it: the other formats skip its load

    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row]
                     for row in rows)


def _check_size(flag: str, value: int, low: int, terms: int) -> None:
    """Refuse a flag's value below low, or one whose command would build a
    list of ``terms`` >= MAX_TERMS entries, ``terms`` being the longest list
    the command builds; checked before anything runs."""
    if value < low:
        raise UsageError(f"{flag} must be at least {low}")
    if terms >= MAX_TERMS:
        raise UsageError(f"{flag} {value} needs a list of {terms} entries, not below 2^24")


# -- compute ---------------------------------------------------------------


def cmd_compute(args) -> int:
    family = parse_family(args.family)
    _check_size("--m-max", args.m_max, 0, 2 * args.m_max + 3)  # the jets of rec_sequence
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    try:
        cache = SeqCache(Path(cache_dir)) if cache_dir else None
        seq = rec_sequence(family, args.m_max, cache)
    except OSError as exc:  # a regular file in the way, no permission, a full disk, ...
        raise UsageError(f"unusable cache directory {cache_dir!r}: {exc.strerror}") from None
    if args.format == "json":
        rows = [{"m": m, **entry.to_json_dict()} for m, entry in enumerate(seq.entries)]
        _emit_json({"family": family.canonical(), "entries": rows})
    elif args.format == "csv":
        rows = (entry.to_json_dict() for entry in seq.entries)
        _emit_csv(["m", "num", "den"],
                  ([m, json.dumps(r["num"]), json.dumps(r["den"])] for m, r in enumerate(rows)))
    else:
        for m, entry in enumerate(seq.entries):
            print(f"e_{m}(v) = {entry}")
    return EXIT_OK


# -- residues ----------------------------------------------------------------


def cmd_residues(args) -> int:
    family = parse_family(args.family)
    # the jets, and the oracle's q-series up to the last pole parameter
    _check_size("--m-max", args.m_max, 1, max(2 * args.m_max + 3, family.edge(args.m_max) + 1))
    if args.normalize_delta and family != DELTA256:
        raise UsageError("--normalize-delta only applies to the 256*Delta family mult:2,8,8")
    norm = 256 if args.normalize_delta else 1
    # coefficient n of a q-series is exact at any truncation >= n, so the
    # oracle only has to reach the last pole parameter read
    trunc = family.edge(args.m_max)
    rows = []
    all_match = True
    for m in range(1, args.m_max + 1):
        # the local jet builds no entry and proves the pole at most simple,
        # so the pole exists exactly when its residue is nonzero
        res = local_residue(family, m)
        pole = family.edge(m)
        oracle = cf_coeff(family, pole, trunc) / norm
        recovered = family.recovered_from_residue(m, res) / norm
        match = recovered == oracle
        all_match = all_match and match
        rows.append({
            "m": m,
            "pole": pole,
            "order": 1 if res else 0,
            "residue": str(res),
            "recovered": str(recovered),
            "oracle": str(oracle),
            "match": match,
        })
    if args.format == "json":
        _emit_json({"family": family.canonical(), "rows": rows, "all_match": all_match})
    elif args.format == "csv":
        keys = ["m", "pole", "order", "residue", "recovered", "oracle", "match"]
        _emit_csv(keys, ([row[k] for k in keys] for row in rows))
    else:
        print(f"{'m':>4} {'pole':>5} {'order':>5} {'residue':>24} "
              f"{'recovered':>16} {'oracle':>16} match")
        for row in rows:
            print(f"{row['m']:>4} {row['pole']:>5} {row['order']:>5} "
                  f"{row['residue']:>24} {row['recovered']:>16} "
                  f"{row['oracle']:>16} {'yes' if row['match'] else 'NO'}")
    return EXIT_OK if all_match else EXIT_MISMATCH


# -- scans ------------------------------------------------------------------


# kind -> (family, the n <= m whose entry n has its edge pole); every scan
# kind reads local jets, builds no entry and leaves the cache alone
_SET_SCANS = {
    "two-squares": (THETA2, lambda m: {n for n in range(1, m + 1) if r2_count(n) > 0}),
    "squares": (THETA, lambda m: {k * k for k in range(1, isqrt(m) + 1)}),
}


def cmd_scan(args) -> int:
    kind, m = args.kind, args.m_max
    # the jets at entry m, at entry 2m for lehmer
    _check_size("--m-max", m, 1, 4 * m + 3 if kind == "lehmer" else 2 * m + 3)
    payload = {"kind": kind, "m_max": m}

    if kind in _SET_SCANS:
        family, oracle_set = _SET_SCANS[kind]
        found = {n for n in range(1, m + 1) if has_pole(family, n)}
        oracle = oracle_set(m)
        payload.update(found=sorted(found), oracle=sorted(oracle),
                       mismatches=sorted(found ^ oracle))
    elif kind == "lehmer":
        # k with no pole at v = 1/(2k + 2) on entry 2k: tau(k + 1) = 0
        violations = [k for k in range(m + 1) if not has_pole(DELTA256, 2 * k)]
        delta = delta_series(2 * m + 2)  # tau(n) is the coefficient of q^(2n)
        oracle = [k for k in range(m + 1) if delta.coeff(2 * k + 2) == 0]
        payload.update(violations=violations, oracle_tau_zeros=oracle,
                       mismatches=sorted(set(violations) ^ set(oracle)))
    else:  # perfect-odd: theta^4's residue at v = 1/n is 16^(1-n) iff n is perfect
        rows = []
        for n in range(1, m + 1, 2):
            res = local_residue(THETA4, n)
            rows.append((n, res, res == Fraction(1, 16 ** (n - 1))))
        payload.update(
            rows=[{"m": mm, "residue": str(res), "is_perfect": flag} for mm, res, flag in rows],
            perfect=[mm for mm, _res, flag in rows if flag],
            mismatches=[mm for mm, _res, flag in rows if flag != (sigma1(mm) == 2 * mm)],
        )

    passed = payload["passed"] = not payload["mismatches"]
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        if kind == "perfect-odd":
            keys = ["m", "residue", "is_perfect"]
            _emit_csv(keys, ([row[k] for k in keys] for row in payload["rows"]))
        else:
            key = "violations" if kind == "lehmer" else "found"
            _emit_csv([key], ([value] for value in payload[key]))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")
    return EXIT_OK if passed else EXIT_MISMATCH


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    kwargs = {}
    if args.m_max is not None:
        if args.suite != "residues":
            raise UsageError("--m-max only applies to --suite residues")
        _check_size("--m-max", args.m_max, 1, 2 * args.m_max + 3)  # theta^2's jets
        kwargs = {"theta2_max": args.m_max}
    results = SUITES[args.suite](**kwargs)
    passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json({
            "suite": args.suite,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
        })
    else:
        for r in results:
            marker = "PASS" if r.passed else "FAIL"
            tail = f" ({r.detail})" if r.detail else ""
            print(f"{marker}  {r.name}{tail}")
        print(f"suite {args.suite}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_MISMATCH


# -- qseries-dump -----------------------------------------------------------------


_SERIES = {
    "theta3": lambda trunc: theta_series(3, trunc),
    "theta4": lambda trunc: theta_series(4, trunc),
    "x": lambda trunc: xy_series(trunc)[0],
    "y": lambda trunc: xy_series(trunc)[1],
    "u": u_series,
    "t": t_series,
    "delta": delta_series,
}


def cmd_qseries_dump(args) -> int:
    _check_size("--trunc", args.trunc, 2 if args.series == "delta" else 0, args.trunc + 1)
    if args.series:
        qs = _SERIES[args.series](args.trunc)
    else:
        qs = cf_series(parse_family(args.family), args.trunc)
    _emit_json(qs.to_json_dict())
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


_FAMILY_HELP = "canonical family string, e.g. mult:0,0,2, poly:1:[(0,1,1)] or both joined by *"
_FAMILY = {"--family": dict(required=True, help=_FAMILY_HELP)}
_M_MAX_FORMAT = {
    "--m-max": dict(type=int, default=0, help="last sequence index to compute"),
    "--format": dict(choices=("json", "csv", "pretty"), default="pretty"),
}

# subcommand -> (runner, help, {flag: argparse keywords}, the flags of which
# exactly one must be given).  Each subcommand has only the flags it reads,
# so passing another is a usage error
_COMMANDS = {
    "compute": (cmd_compute, "compute and print sequence entries", {
        **_FAMILY, **_M_MAX_FORMAT,
        "--cache-dir": dict(help=f"entry cache directory (or ${CACHE_ENV})"),
    }, ()),
    "residues": (cmd_residues, "residue table against the oracle", {
        **_FAMILY, **_M_MAX_FORMAT,
        "--normalize-delta": dict(action="store_true", default=False,
                                  help="divide 256*Delta coefficients by 256 "
                                       "(prints Ramanujan tau directly)"),
    }, ()),
    "scan": (cmd_scan, "number-theoretic scans", {
        **_M_MAX_FORMAT,
        "--kind": dict(required=True, choices=("two-squares", "squares", "lehmer", "perfect-odd")),
    }, ()),
    "verify": (cmd_verify, "run a verification suite", {
        "--suite": dict(required=True, choices=sorted(SUITES)),
        "--m-max": dict(type=int, help="last index of the residues suite "
                                       "(theta^2; the others stop at 15)"),
        "--format": dict(choices=("json", "pretty"), default="pretty"),
    }, ()),
    "qseries-dump": (cmd_qseries_dump, "dump a base q-series as JSON", {
        "--series": dict(choices=sorted(_SERIES)),
        "--family": dict(help=_FAMILY_HELP),
        "--trunc": dict(type=int, default=DEFAULT_TRUNC,
                        help="q-series truncation (default %(default)s)"),
    }, ("--series", "--family")),
}


def build_parser():
    """The argparse parser of the table above, for what ``_plain`` declines."""
    import argparse  # with gettext and locale: help and usage errors only

    parser = argparse.ArgumentParser(
        prog="thetares",
        description="Exact engine for pole/residue identities of "
                    "theta-series recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, flags, one_of) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for flag, kwargs in flags.items():
            (group if flag in one_of else p).add_argument(flag, **kwargs)
    return parser


def _plain(argv):
    """The namespace argparse returns for a plain command line: a subcommand,
    then each of its flags at most once, spelled out, each followed by a
    value that does not start with "-".  None for anything else, which
    argparse parses: help, abbreviations, --flag=value, repeats, negative
    values and every usage error."""
    if not argv or not all(isinstance(a, str) for a in argv) or argv[0] not in _COMMANDS:
        return None
    run, _help, flags, one_of = _COMMANDS[argv[0]]
    given, rest = {}, iter(argv[1:])
    for flag in rest:
        kwargs = flags.get(flag)
        if kwargs is None or flag in given:
            return None
        if "action" in kwargs:  # store_true: no value
            given[flag] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        try:
            given[flag] = value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
    if (any(kwargs.get("required") and flag not in given for flag, kwargs in flags.items())
            or one_of and sum(flag in given for flag in one_of) != 1):
        return None
    return SimpleNamespace(command=argv[0], run=run, **{
        flag[2:].replace("-", "_"): given.get(flag, kwargs.get("default"))
        for flag, kwargs in flags.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except UsageError as exc:  # FamilyError and the commands' own checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RelationError, OracleConsistencyError) as exc:  # a failed self-check: no result
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:  # a bug: neither a mismatch nor a usage error
        import traceback  # only a crash needs it: a plain run skips its load

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
