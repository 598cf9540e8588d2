"""The thetares benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: repetitions of one workload run one after the
other, each in a fresh interpreter (``worker.py``), so every repetition
pays what a CLI user pays: interpreter start, the import of ``thetares``
and empty ``lru_cache``s.  Repetitions start until ``--seconds`` have
passed.  Every output is checked (see ``jobs.py``).

Times are reported in reference seconds: each repetition's measured
seconds times CALIBRATION_REF_S over the time a fixed calibration loop
took in the same process next to the job (``worker.calibrate``).  Shared
hosts change speed by tens of percent over minutes; the scaling cancels
that drift and nothing the program does can change it.  The unscaled
seconds and the scale factor are printed beside the metrics.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run, in which traced and untraced
repetitions alternate in an order drawn from ``--seed``; the inputs
themselves are exact and fixed.  The spans of the last traced
repetition are left in ``_work/WORKLOAD.spans.jsonl``.  The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` checks, and ``metrics``
(medians).  Lines before it give run metadata and, per metric, median,
quartiles and sample count.  The exit code is 0 when every check passed,
1 when one failed and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402

WORKER = BENCH / "worker.py"
EXPECTED = BENCH / "expected.json"
REP_LIMIT_S = 60  # a repetition still running after this many seconds is killed
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed beside the metrics: unscaled seconds and the calibration's scale factor.
DIAGNOSTICS = {"wall_s": "s", "setup_wall_s": "s", "scale": "x"}
UNITS = (("_frac", "frac"), ("hit_ratio", "frac"), ("_s", "s"), (".s", "s"),
         ("bytes", "B"), ("bits", "bits"))


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def is_counter(name: str) -> bool:
    """Per-layer metrics that are not times are work counters: they depend
    only on the inputs and must repeat exactly."""
    return layer_unit(name) not in ("s", "frac") or name.endswith("hit_ratio")


# -- metadata ---------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when ``root`` is a plain checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- repetitions ------------------------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """Repetitions of one workload and the tally of their checks."""

    def __init__(self, job, workdir: Path, digest: str):
        self.job = job
        self.workdir = workdir
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.backends = set()
        self.problems = []
        self.fixture = ""

    def tally(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}"[:500])

    def spawn(self, args: list) -> tuple:
        """Run the worker once; (result or None, set-up seconds, error text)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-I", str(WORKER), *args], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=REP_LIMIT_S)
        except subprocess.TimeoutExpired:
            return None, 0.0, f"repetition still running after {REP_LIMIT_S} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, 0.0, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return None, 0.0, f"unreadable worker output: {lines[-1][:200]}"
        return result, result["ready"] - t0, ""

    def build_fixture(self):
        self.fixture = str(self.workdir / "fixture")
        os.mkdir(self.fixture)
        result, _, err = self.spawn([self.job.name, "fixture", self.fixture, "", "", ""])
        codes = result["codes"] if result else []
        self.tally("fixture built", result is not None and not any(codes), err or f"exit codes {codes}")

    def rep(self, mode: str) -> dict | None:
        out_dir = self.workdir / "out"
        out_dir.mkdir()
        try:
            spans = str(BENCH / "_work" / f"{self.job.name}.spans.jsonl") if mode == "trace" else ""
            result, setup_s, err = self.spawn(
                [self.job.name, mode, self.fixture, str(out_dir), self.digest, spans])
        finally:
            shutil.rmtree(out_dir)
        if result is None:
            for check in self.job.check_names:
                self.tally(check, False, err)
            return None
        for name, ok, detail in result["checks"]:
            self.tally(name, ok, detail)
        self.backends.add(result["backend"])
        if "scale" not in result:  # the job raised; its checks failed above
            return None
        scale = result["scale"]
        result["setup_wall_s"] = setup_s
        result["solve_s"] = result["wall_s"] * scale
        for name, value in result.get("layers", {}).items():
            if layer_unit(name) == "s":
                result["layers"][name] = value * scale
        return result


def measure(run: Run, seconds: float, trace: bool, rng: random.Random) -> dict:
    """Repetitions until ``seconds`` have passed; per-metric samples."""
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    traced = []
    deadline = time.perf_counter() + seconds
    while True:
        modes = ["trace", "plain"] if trace else ["plain"]
        rng.shuffle(modes)
        for mode in modes:
            result = run.rep(mode)
            if result is None:
                break
            if mode == "trace":
                traced.append(result)
                continue
            for name in ("solve_s", "wall_s", "scale"):
                add(name, result[name])
            add("peak_rss_mb", result["rss_mb"])
            add("setup_wall_s", result["setup_wall_s"])
            add("setup_s", result["setup_wall_s"] * result["scale"])
        if time.perf_counter() >= deadline or run.failed:
            break
    if not trace:
        return samples

    for result in traced:
        layers = result["layers"]
        first = traced[0]["layers"]
        moved = sorted(k for k in layers if is_counter(k) and layers[k] != first[k])
        if result is not first:
            run.tally("work counters repeat", not moved, f"changed: {moved}")
        for name, value in layers.items():
            add(name, value)
    plain = samples.get("solve_s", [])
    if traced and plain:
        add("trace.overhead_frac", statistics.median(r["solve_s"] for r in traced)
            / statistics.median(plain) - 1)
    return samples


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "thetares"
    if not (src / "__init__.py").is_file():
        print(f"error: no program to measure: {src} is missing", file=sys.stderr)
        return 2
    job = jobs.JOBS[args.workload]
    digest = json.loads(EXPECTED.read_text())[job.name]
    rng = random.Random(args.seed)

    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{job.name}-", dir=BENCH / "_work"))
    run = Run(job, workdir, digest)
    try:
        if job.name == "cache-replay":
            run.build_fixture()
        samples = measure(run, args.seconds, bool(args.trace), rng) if not run.failed else {}
    finally:
        shutil.rmtree(workdir)

    meta = {
        "workload": job.name, "call": job.call, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": sorted(run.backends), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT), "source_sha256": source_digest(src),
    }
    if len(run.backends) > 1:
        run.tally("one kernel backend", False, f"backends {sorted(run.backends)}")
    print(json.dumps({"meta": meta}))

    plain = {**END_TO_END, **DIAGNOSTICS}
    if args.trace:
        units = {name: layer_unit(name) for name in sorted(samples) if name not in plain}
        shown = {**units, "solve_s": "s", "wall_s": "s"}
    else:
        units, shown = END_TO_END, plain
    metrics = {}
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, unit in shown.items():
        values = samples.get(name)
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>4}  {unit}")
        if name in units:
            # a work counter is reported exactly (its repeats were checked above)
            exact = args.trace and is_counter(name)
            metrics[name] = {"value": values[0] if exact else med, "unit": unit}
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'fail_frac':<32} {fail_frac:>14.6g} {'':>14} {'':>14} {run.attempted:>4}  frac")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    correct = run.failed == 0 and run.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if run.attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
