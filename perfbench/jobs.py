"""The benchmark's workloads: the job one repetition runs, and its checks.

A job calls the entry point a user calls: ``thetares.cli.main(argv)``
with stdout captured where the CLI exposes the job, the library function
otherwise.  Checks run after the timed job and are of three kinds:

* the program's own oracle verdicts and exit code;
* an elementary cross-check computed here, independent of ``thetares``
  (r2 by lattice enumeration, tau from the product q prod (1 - q^n)^24);
* the sha256 of the canonical output, against ``expected.json``.

``thetares`` is imported only inside functions: this module is also
imported by ``run.py``, which never loads the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

THETA2_M = 30
LEHMER_M = 15
IDENTITIES = {"jacobi_trunc": 768, "identity_trunc": 384, "three_term_trunc": 192,
              "three_term_max": 8}
REPLAY_M = 34
REPLAY_FAMILIES = ("mult:0,0,2", "mult:2,8,8")


# -- independent oracles -------------------------------------------------------


def r2(n: int) -> int:
    """Representations of n as a sum of two squares, by enumeration."""
    r = isqrt(n)
    return sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1) if a * a + b * b == n)


def tau_table(n_max: int) -> dict:
    """tau(1..n_max) from Delta = Q prod_{k>=1} (1 - Q^k)^24."""
    c = [1] + [0] * (n_max - 1)  # the product, up to Q^(n_max - 1)
    for k in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, k - 1, -1):
                c[i] -= c[i - k]
    return {n: c[n - 1] for n in range(1, n_max + 1)}


def family_coefficient(family: str, n: int) -> int:
    """q^n coefficient of theta^2 (r2) or 256*Delta (256 tau(n/2), q = e^(pi i tau))."""
    if family == "mult:0,0,2":
        return r2(n)
    return 256 * tau_table(n // 2)[n // 2] if n % 2 == 0 else 0


# -- helpers -------------------------------------------------------------------


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list) -> dict:
    import thetares.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = thetares.cli.main(argv)
    return {"code": code, "stdout": buf.getvalue()}


def _check(name: str, ok: bool, detail: str = "") -> tuple:
    return (name, bool(ok), "" if ok else detail)


def snapshot(directory: str) -> dict:
    """File name -> modification time, to see whether a job rewrote a directory."""
    return {e.name: e.stat().st_mtime_ns for e in os.scandir(directory)} if directory else {}


@dataclass(frozen=True)
class Context:
    fixture_dir: str = ""  # filled cache (cache-replay only)
    out_dir: str = ""  # empty directory for this repetition's writes
    fixture_state: dict = None  # snapshot of fixture_dir taken before the job


@dataclass(frozen=True)
class Job:
    name: str
    call: str
    run: Callable  # Context -> output
    check: Callable  # (output, Context, expected digest) -> [(name, ok, detail)]
    check_names: tuple
    trace_check: Callable = lambda metrics: []


# -- theta2-residues ----------------------------------------------------------------

THETA2_ARGV = ["residues", "--family", "mult:0,0,2", "--m-max", str(THETA2_M), "--format", "json"]


def _check_theta2(out, ctx, digest):
    payload = json.loads(out["stdout"])
    rows = payload["rows"]
    return [
        _check("exit code 0", out["code"] == 0, f"exit code {out['code']}"),
        _check("oracle match", payload["all_match"] and len(rows) == THETA2_M
               and all(row["match"] for row in rows), "a residue missed the q-series oracle"),
        _check("r2 cross-check", all(row["pole"] == row["m"]
                                     and Fraction(row["recovered"]) == r2(row["m"]) for row in rows),
               "a recovered coefficient differs from r2(m)"),
        _check("output digest", sha256_json(payload) == digest, sha256_json(payload)),
    ]


# -- delta-lehmer ---------------------------------------------------------------------

LEHMER_ARGV = ["scan", "--kind", "lehmer", "--m-max", str(LEHMER_M), "--format", "json"]


def _check_lehmer(out, ctx, digest):
    payload = json.loads(out["stdout"])
    tau = tau_table(LEHMER_M + 1)
    zeros = [k for k in range(LEHMER_M + 1) if tau[k + 1] == 0]
    return [
        _check("exit code 0", out["code"] == 0, f"exit code {out['code']}"),
        _check("oracle match", payload["passed"] and not payload["mismatches"],
               f"mismatches {payload['mismatches']}"),
        _check("tau cross-check", payload["violations"] == zeros == payload["oracle_tau_zeros"],
               f"violations {payload['violations']}, tau zeros {zeros}"),
        _check("output digest", sha256_json(payload) == digest, sha256_json(payload)),
    ]


# -- oracle-identities --------------------------------------------------------------------


def _run_identities(ctx):
    import thetares.checks

    results = thetares.checks.identities_suite(**IDENTITIES)
    return [[r.name, r.passed, r.detail] for r in results]


def _check_identities(out, ctx, digest):
    return [
        _check("all identities hold", all(passed for _, passed, _ in out),
               "; ".join(name for name, passed, _ in out if not passed)),
        _check("output digest", sha256_json(out) == digest, sha256_json(out)),
    ]


def _trace_check_identities(metrics):
    conv, trunc = metrics["kernels.conv.work"], metrics["kernels.conv_trunc.work"]
    return [_check("conv work negligible", conv * 1000 < trunc,
                   f"conv work {conv} against conv_trunc work {trunc}")]


# -- cache-replay ----------------------------------------------------------------------------


def fixture_argv(family: str, fixture_dir: str) -> list:
    return ["compute", "--family", family, "--m-max", str(REPLAY_M), "--format", "json",
            "--cache-dir", fixture_dir]


def _run_replay(ctx):
    from thetares import cache, families, qseries, recurrence

    fixture = cache.SeqCache(ctx.fixture_dir)
    target = cache.SeqCache(ctx.out_dir)
    entries, rows = {}, []
    for text in REPLAY_FAMILIES:
        family = families.parse_family(text)
        seq = cache.cached_sequence(family, REPLAY_M, fixture)
        for m, entry in enumerate(seq.entries):
            target.write(family, m, entry)
        entries[text] = seq.entries
        for m in range(1, REPLAY_M + 1):
            report = recurrence.residue_report(seq, m)
            oracle = qseries.cf_coeff(family, report.pole)
            rows.append((text, report.pole, report.recovered, oracle))
    return {"entries": entries, "rows": rows}


def _check_replay(out, ctx, digest):
    rows = out["rows"]
    entries = {text: [e.to_json_dict() for e in seq] for text, seq in out["entries"].items()}
    expected_rows = len(REPLAY_FAMILIES) * REPLAY_M
    written = len(os.listdir(ctx.out_dir))
    return [
        _check("fixture served every entry", ctx.fixture_state == snapshot(ctx.fixture_dir)
               and all(len(seq) == REPLAY_M + 1 for seq in entries.values()),
               "the cache was bypassed or rewritten"),
        _check("every entry written", written == len(REPLAY_FAMILIES) * (REPLAY_M + 1),
               f"{written} files written"),
        _check("oracle match", len(rows) == expected_rows
               and all(rec == oracle for _, _, rec, oracle in rows),
               "a residue missed the q-series oracle"),
        _check("r2/tau cross-check", all(rec == family_coefficient(fam, pole)
                                         for fam, pole, rec, _ in rows),
               "a recovered coefficient differs from r2 or 256 tau"),
        _check("entry digest", sha256_json(entries) == digest, sha256_json(entries)),
    ]


def _trace_check_replay(metrics):
    return [_check("recurrence never runs", metrics["recurrence.rec_step.calls"] == 0,
                   f"rec_step ran {metrics['recurrence.rec_step.calls']} times")]


JOBS = {
    job.name: job
    for job in (
        Job("theta2-residues",
            "thetares " + " ".join(THETA2_ARGV),
            lambda ctx: run_cli(THETA2_ARGV), _check_theta2,
            ("exit code 0", "oracle match", "r2 cross-check", "output digest")),
        Job("delta-lehmer",
            "thetares " + " ".join(LEHMER_ARGV),
            lambda ctx: run_cli(LEHMER_ARGV), _check_lehmer,
            ("exit code 0", "oracle match", "tau cross-check", "output digest")),
        Job("oracle-identities",
            "thetares.checks.identities_suite("
            + ", ".join(f"{k}={v}" for k, v in IDENTITIES.items()) + ")",
            _run_identities, _check_identities,
            ("all identities hold", "output digest"), _trace_check_identities),
        Job("cache-replay",
            "SeqCache read/write + residue_report of mult:0,0,2 and mult:2,8,8 to m=34",
            _run_replay, _check_replay,
            ("fixture served every entry", "every entry written", "oracle match",
             "r2/tau cross-check", "entry digest"), _trace_check_replay),
    )
}
