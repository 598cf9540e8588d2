"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* Work counters repeat: every workload's traced job runs twice, each in
  a fresh interpreter, and every work counter (calls, work, bytes, entry
  shape, poles cancelled, ...) must come out identical.
* The gate bites: a run against a digest file with one wrong digest must
  report failed checks and exit non-zero, and a perturbed elementary
  oracle must fail the theta2-residues cross-check.

Exits 0 when every self-test passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

jobs = run.jobs


def counters_repeat(workdir: Path) -> list:
    failures = []
    digests = json.loads(run.EXPECTED.read_text())
    for name, job in jobs.JOBS.items():
        bench = run.Run(job, workdir, digests[name])
        if name == "cache-replay":
            bench.build_fixture()
        first, second = (bench.rep("trace") for _ in range(2))
        if first is None or second is None or bench.failed:
            failures.append(f"{name}: traced job failed: {bench.problems}")
            continue
        moved = sorted(k for k, v in first["layers"].items()
                       if run.is_counter(k) and second["layers"][k] != v)
        print(f"{name}: {sum(map(run.is_counter, first['layers']))} counters, "
              f"changed between two runs: {moved or 'none'}")
        if moved:
            failures.append(f"{name}: counters changed: {moved}")
        if bench.fixture:
            shutil.rmtree(bench.fixture)
    return failures


def wrong_digest_fails(workdir: Path) -> list:
    digests = json.loads(run.EXPECTED.read_text())
    digests["delta-lehmer"] = "0" * 64
    tampered = workdir / "tampered.json"
    tampered.write_text(json.dumps(digests))
    expected, run.EXPECTED = run.EXPECTED, tampered
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "delta-lehmer", "--seed", "0", "--seconds", "1"])
    finally:
        run.EXPECTED = expected
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    fail_frac = result["failed"] / result["attempted"]
    print(f"wrong digest: exit {code}, fail_frac {fail_frac:.3f}, correct {result['correct']}")
    if code == 0 or fail_frac <= 0 or result["correct"]:
        return ["a wrong expected digest went unnoticed"]
    return []


def perturbed_oracle_fails() -> list:
    sys.path.insert(0, str(run.ROOT / "src"))
    output = jobs.run_cli(jobs.THETA2_ARGV)
    digest = json.loads(run.EXPECTED.read_text())["theta2-residues"]
    honest = dict((n, ok) for n, ok, _ in jobs._check_theta2(output, None, digest))
    true_r2 = jobs.r2
    jobs.r2 = lambda n: true_r2(n) + (n == 5)
    try:
        perturbed = dict((n, ok) for n, ok, _ in jobs._check_theta2(output, None, digest))
    finally:
        jobs.r2 = true_r2
    print(f"perturbed oracle: honest checks {honest}, perturbed checks {perturbed}")
    if not all(honest.values()) or perturbed["r2 cross-check"]:
        return ["a perturbed r2 oracle went unnoticed"]
    return []


def main() -> int:
    (run.BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.BENCH / "_work"))
    try:
        failures = counters_repeat(workdir) + wrong_digest_fails(workdir) + perturbed_oracle_fails()
    finally:
        shutil.rmtree(workdir)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
