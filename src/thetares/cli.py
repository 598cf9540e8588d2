"""Command-line surface.

Subcommands: compute (sequence entries as JSON), residues (pole/residue
table against the q-series oracle), scan (two-squares / squares / lehmer
/ perfect-odd), verify (the named check suite), qseries-dump.

Exit codes: 0 all checks pass, 1 theory/oracle mismatch, 2 usage or
configuration error.  Output is deterministic: JSON is emitted with
sorted keys and exact rational strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt
from pathlib import Path

from .cache import SeqCache
from .checks import SUITES
from .families import DELTA256, parse_family
from .qseries import (
    DEFAULT_TRUNC,
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
    check_perfect_odd,
    local_residue,
    rec_sequence,
    scan_lehmer,
    scan_squares,
    scan_two_squares,
)

CACHE_ENV = "THETARES_CACHE_DIR"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_csv(header, rows) -> None:
    """The header, then the rows; booleans print as true/false."""
    import csv  # only --format csv needs it: the other formats skip its load

    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row]
                     for row in rows)


# -- compute ---------------------------------------------------------------


def cmd_compute(args) -> int:
    family = parse_family(args.family)
    if args.m_max < 0:
        raise ValueError("--m-max must be nonnegative")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    try:
        cache = SeqCache(Path(cache_dir)) if cache_dir else None
    except OSError as exc:  # a regular file in the way, no permission, ...
        raise ValueError(f"unusable cache directory {cache_dir!r}: {exc.strerror}") from None
    seq = rec_sequence(family, args.m_max, cache)
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
    if args.m_max < 1:
        raise ValueError("--m-max must be at least 1")
    if args.normalize_delta and family != DELTA256:
        raise ValueError("--normalize-delta only applies to the 256*Delta family mult:2,8,8")
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


# kind -> (scan to m, the set it must find up to m); every scan kind is
# decided by local jets, builds no entry and leaves the cache alone
_SET_SCANS = {
    "two-squares": (scan_two_squares,
                    lambda m: {n for n in range(1, m + 1) if r2_count(n) > 0}),
    "squares": (scan_squares, lambda m: {k * k for k in range(1, isqrt(m) + 1)}),
}


def cmd_scan(args) -> int:
    if args.m_max < 1:
        raise ValueError("--m-max must be at least 1")
    kind, m = args.kind, args.m_max
    payload = {"kind": kind, "m_max": m}

    if kind in _SET_SCANS:
        scan, oracle_set = _SET_SCANS[kind]
        found = scan(m)
        oracle = oracle_set(m)
        payload.update(found=sorted(found), oracle=sorted(oracle),
                       mismatches=sorted(found ^ oracle))
    elif kind == "lehmer":  # decided by local jets, like two-squares
        violations = scan_lehmer(m)
        delta = delta_series(2 * m + 2)  # tau(n) is the coefficient of q^(2n)
        oracle = [k for k in range(m + 1) if delta.coeff(2 * k + 2) == 0]
        payload.update(violations=violations, oracle_tau_zeros=oracle,
                       mismatches=sorted(set(violations) ^ set(oracle)))
    else:  # perfect-odd
        rows = check_perfect_odd(m)  # residues off local jets, like two-squares
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
            raise ValueError("--m-max only applies to --suite residues")
        if args.m_max < 1:
            raise ValueError("--m-max must be at least 1")
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
    if args.series:
        qs = _SERIES[args.series](args.trunc)
    else:
        qs = cf_series(parse_family(args.family), args.trunc)
    _emit_json(qs.to_json_dict())
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


_FAMILY_HELP = "canonical family string, e.g. mult:0,0,2 or poly:1:[(0,1,1)]"

# flags several subcommands share; each subcommand registers only those it reads
_FLAGS = {
    "--family": dict(required=True, help=_FAMILY_HELP),
    "--m-max": dict(dest="m_max", type=int, default=0, help="last sequence index to compute"),
    "--format": dict(choices=("json", "csv", "pretty"), default="pretty"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetares",
        description="Exact engine for pole/residue identities of "
                    "theta-series recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, *flags, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    compute = add("compute", cmd_compute, "--family", "--m-max", "--format",
                  help="compute and print sequence entries")
    compute.add_argument("--cache-dir", help=f"entry cache directory (or ${CACHE_ENV})")
    residues = add("residues", cmd_residues, "--family", "--m-max", "--format",
                   help="residue table against the oracle")
    residues.add_argument("--normalize-delta", action="store_true",
                          help="divide 256*Delta coefficients by 256 "
                               "(prints Ramanujan tau directly)")

    scan = add("scan", cmd_scan, "--m-max", "--format",
               help="number-theoretic scans")
    scan.add_argument("--kind", required=True,
                      choices=("two-squares", "squares", "lehmer", "perfect-odd"))

    verify = add("verify", cmd_verify, help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify.add_argument("--m-max", dest="m_max", type=int,
                        help="last index of the residues suite (theta^2; the others stop at 15)")
    verify.add_argument("--format", choices=("json", "pretty"), default="pretty")

    dump = add("qseries-dump", cmd_qseries_dump, help="dump a base q-series as JSON")
    source = dump.add_mutually_exclusive_group(required=True)
    source.add_argument("--series", choices=sorted(_SERIES))
    source.add_argument("--family", help=_FAMILY_HELP)
    dump.add_argument("--trunc", type=int, default=DEFAULT_TRUNC,
                      help="q-series truncation (default %(default)s)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except (ValueError, OverflowError) as exc:  # FamilyError, bad parameters, sizes past an index
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
