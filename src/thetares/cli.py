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
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .cache import SeqCache, cached_sequence
from .checks import SUITES, run_suite
from .families import DELTA256, Family, parse_family
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
    TheoryViolationError,
    check_perfect_odd,
    residue_report,
    scan_lehmer,
    scan_squares,
    scan_two_squares,
)

CACHE_ENV = "THETARES_CACHE_DIR"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    family: str = ""
    m_max: int = 0
    trunc: int = DEFAULT_TRUNC
    fmt: str = "pretty"
    cache_dir: Path | None = None
    normalize_delta: bool = False

    @staticmethod
    def from_args(args) -> "RunConfig":
        cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV)
        return RunConfig(
            family=getattr(args, "family", "") or "",
            m_max=getattr(args, "m_max", 0),
            trunc=getattr(args, "trunc", DEFAULT_TRUNC),
            fmt=getattr(args, "format", "pretty"),
            cache_dir=Path(cache_dir) if cache_dir else None,
            normalize_delta=getattr(args, "normalize_delta", False),
        )

    def cache(self) -> SeqCache | None:
        return SeqCache(self.cache_dir) if self.cache_dir else None


class ConfigError(ValueError):
    pass


def _parse_family(config: RunConfig) -> Family:
    if not config.family:
        raise ConfigError("--family is required for this command")
    return parse_family(config.family)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _norm_factor(config: RunConfig, family: Family) -> int:
    if not config.normalize_delta:
        return 1
    if family != DELTA256:
        raise ConfigError(
            "--normalize-delta only applies to the 256*Delta family mult:2,8,8"
        )
    return 256


# -- compute ---------------------------------------------------------------


def cmd_compute(config: RunConfig) -> int:
    family = _parse_family(config)
    if config.m_max < 0:
        raise ConfigError("--m-max must be nonnegative")
    seq = cached_sequence(family, config.m_max, config.cache())
    if config.fmt == "json":
        rows = [{"m": m, **entry.to_json_dict()} for m, entry in enumerate(seq.entries)]
        _emit_json({"family": family.canonical(), "entries": rows})
    elif config.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["m", "num", "den"])
        for m, entry in enumerate(seq.entries):
            row = entry.to_json_dict()
            writer.writerow([m, json.dumps(row["num"]), json.dumps(row["den"])])
    else:
        for m, entry in enumerate(seq.entries):
            print(f"e_{m}(v) = {entry}")
    return EXIT_OK


# -- residues ----------------------------------------------------------------


def cmd_residues(config: RunConfig) -> int:
    family = _parse_family(config)
    if config.m_max < 1:
        raise ConfigError("--m-max must be at least 1")
    if config.trunc < config.m_max + family.alpha:
        raise ConfigError(
            f"truncation {config.trunc} does not cover pole parameter "
            f"{config.m_max + family.alpha}; raise --trunc"
        )
    norm = _norm_factor(config, family)
    seq = cached_sequence(family, config.m_max, config.cache())
    rows = []
    all_match = True
    for m in range(1, config.m_max + 1):
        report = residue_report(seq, m)
        oracle = cf_coeff(family, report.pole, config.trunc) / norm
        recovered = report.recovered / norm
        match = recovered == oracle
        all_match = all_match and match
        rows.append({
            "m": m,
            "pole": report.pole,
            "order": report.pole_order,
            "residue": str(report.residue),
            "recovered": str(recovered),
            "oracle": str(oracle),
            "match": match,
        })
    if config.fmt == "json":
        _emit_json({"family": family.canonical(), "rows": rows, "all_match": all_match})
    elif config.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["m", "pole", "order", "residue", "recovered", "oracle", "match"])
        for row in rows:
            writer.writerow([
                row["m"], row["pole"], row["order"], row["residue"],
                row["recovered"], row["oracle"], str(row["match"]).lower(),
            ])
    else:
        print(f"{'m':>4} {'pole':>5} {'order':>5} {'residue':>24} "
              f"{'recovered':>16} {'oracle':>16} match")
        for row in rows:
            print(f"{row['m']:>4} {row['pole']:>5} {row['order']:>5} "
                  f"{row['residue']:>24} {row['recovered']:>16} "
                  f"{row['oracle']:>16} {'yes' if row['match'] else 'NO'}")
    return EXIT_OK if all_match else EXIT_MISMATCH


# -- scans ------------------------------------------------------------------


def cmd_scan(config: RunConfig, kind: str) -> int:
    if config.m_max < 1:
        raise ConfigError("--m-max must be at least 1")
    m = config.m_max

    if kind == "two-squares":
        from .families import THETA2

        found = scan_two_squares(m, cached_sequence(THETA2, m, config.cache()))
        oracle = {n for n in range(1, m + 1) if r2_count(n) > 0}
        payload = {
            "kind": kind, "m_max": m,
            "found": sorted(found),
            "oracle": sorted(oracle),
            "mismatches": sorted(found ^ oracle),
        }
        passed = not payload["mismatches"]
    elif kind == "squares":
        from .families import THETA

        found = scan_squares(m, cached_sequence(THETA, m, config.cache()))
        oracle = {k * k for k in range(1, m + 1) if k * k <= m}
        payload = {
            "kind": kind, "m_max": m,
            "found": sorted(found),
            "oracle": sorted(oracle),
            "mismatches": sorted(found ^ oracle),
        }
        passed = not payload["mismatches"]
    elif kind == "lehmer":
        # decided by local jets: no entry is built, so the cache is not used
        violations = scan_lehmer(m)
        delta = delta_series(2 * m + 2)  # tau(n) is the coefficient of q^(2n)
        oracle = [k for k in range(m + 1) if delta.coeff(2 * k + 2) == 0]
        payload = {
            "kind": kind, "m_max": m,
            "violations": violations,
            "oracle_tau_zeros": oracle,
            "mismatches": sorted(set(violations) ^ set(oracle)),
        }
        passed = not payload["mismatches"]
    elif kind == "perfect-odd":
        from .families import THETA4

        rows = check_perfect_odd(m, cached_sequence(THETA4, m, config.cache()))
        mismatches = [
            mm for mm, _res, flag in rows if flag != (sigma1(mm) == 2 * mm)
        ]
        payload = {
            "kind": kind, "m_max": m,
            "rows": [
                {"m": mm, "residue": str(res), "is_perfect": flag}
                for mm, res, flag in rows
            ],
            "perfect": [mm for mm, _res, flag in rows if flag],
            "mismatches": mismatches,
        }
        passed = not mismatches
    else:
        raise ConfigError(f"unknown scan kind {kind!r}")

    payload["passed"] = passed
    if config.fmt == "json":
        _emit_json(payload)
    elif config.fmt == "csv":
        writer = csv.writer(sys.stdout)
        if kind == "perfect-odd":
            writer.writerow(["m", "residue", "is_perfect"])
            for row in payload["rows"]:
                writer.writerow([row["m"], row["residue"],
                                 str(row["is_perfect"]).lower()])
        else:
            key = "violations" if kind == "lehmer" else "found"
            writer.writerow([key])
            for value in payload[key]:
                writer.writerow([value])
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")
    return EXIT_OK if passed else EXIT_MISMATCH


# -- verify -------------------------------------------------------------------


def cmd_verify(config: RunConfig, suite: str) -> int:
    kwargs = {}
    if suite == "residues" and config.m_max:
        kwargs = {"theta2_max": config.m_max, "other_max": min(config.m_max, 15)}
    results = run_suite(suite, **kwargs)
    passed = all(r.passed for r in results)
    if config.fmt == "json":
        _emit_json({
            "suite": suite,
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
        print(f"suite {suite}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_MISMATCH


# -- qseries-dump -----------------------------------------------------------------


def cmd_qseries_dump(config: RunConfig, series: str | None) -> int:
    trunc = config.trunc
    if config.family:
        qs = cf_series(parse_family(config.family), trunc)
    elif series:
        makers = {
            "theta3": lambda: theta_series(3, trunc),
            "theta4": lambda: theta_series(4, trunc),
            "x": lambda: xy_series(trunc)[0],
            "y": lambda: xy_series(trunc)[1],
            "u": lambda: u_series(trunc),
            "t": lambda: t_series(trunc),
            "delta": lambda: delta_series(trunc),
        }
        if series not in makers:
            raise ConfigError(
                f"unknown series {series!r}; choose from {sorted(makers)}"
            )
        qs = makers[series]()
    else:
        raise ConfigError("qseries-dump needs --series or --family")
    _emit_json(qs.to_json_dict())
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


# every flag a subcommand may take; each subcommand registers only those it reads
_FLAGS = {
    "--family": dict(help="canonical family string, e.g. mult:0,0,2 or poly:1:[(0,1,1)]"),
    "--m-max": dict(dest="m_max", type=int, default=0, help="last sequence index to compute"),
    "--trunc": dict(type=int, default=DEFAULT_TRUNC, help="q-series truncation for oracles"),
    "--format": dict(choices=("json", "csv", "pretty"), default="pretty"),
    "--cache-dir": dict(help=f"entry cache directory (or ${CACHE_ENV})"),
    "--normalize-delta": dict(action="store_true", help="divide 256*Delta coefficients "
                                                        "by 256 (prints Ramanujan tau directly)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetares",
        description="Exact engine for pole/residue identities of "
                    "theta-series recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    add(sub.add_parser("compute", help="compute and print sequence entries"),
        "--family", "--m-max", "--format", "--cache-dir")
    add(sub.add_parser("residues", help="residue table against the oracle"),
        "--family", "--m-max", "--trunc", "--format", "--cache-dir", "--normalize-delta")

    scan = sub.add_parser("scan", help="number-theoretic scans")
    scan.add_argument("--kind", required=True,
                      choices=("two-squares", "squares", "lehmer", "perfect-odd"))
    add(scan, "--m-max", "--format", "--cache-dir")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    add(verify, "--m-max", "--format")

    dump = sub.add_parser("qseries-dump", help="dump a base q-series as JSON")
    dump.add_argument("--series", help="theta3, theta4, x, y, u, t or delta")
    add(dump, "--family", "--trunc")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    config = RunConfig.from_args(args)
    try:
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "residues":
            return cmd_residues(config)
        if args.command == "scan":
            return cmd_scan(config, args.kind)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        if args.command == "qseries-dump":
            return cmd_qseries_dump(config, args.series)
        raise ConfigError(f"unknown command {args.command!r}")
    except TheoryViolationError as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:  # ConfigError, FamilyError, bad parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
