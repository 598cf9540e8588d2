"""One repetition of a workload, in a fresh interpreter.

    python -I perfbench/worker.py WORKLOAD MODE FIXTURE_DIR OUT_DIR DIGEST SPANS

MODE is ``plain`` (timed, untraced), ``trace`` (every layer wrapped by
``tracer.Tracer``) or ``fixture`` (fill FIXTURE_DIR for cache-replay).
The program is imported first, so the time from spawning this process
to ``ready`` is the set-up a CLI user pays on every run.  The last line
of stdout is one JSON object; the job's own stdout is captured.  A traced
repetition writes its spans to SPANS, one JSON list (name, start, end,
parent index) per line.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import thetares.cli  # noqa: E402

READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
from tracer import Tracer  # noqa: E402


# The calibration's duration at reference speed.  Times are reported in
# reference seconds: measured seconds * CALIBRATION_REF_S / calibration.
CALIBRATION_REF_S = 0.09
_BIG = [(i * 0x9E3779B97F4A7C15 + 1) ** 25 * (-1) ** i for i in range(200)]  # ~1600 bits
_SMALL = [(i * 0x2545F491) % (1 << 40) + 1 for i in range(12)]
_DOC = json.dumps({"num": [f"{b}/{i + 1}" for i, b in enumerate(_BIG)]})  # ~100 kB


def calibrate() -> float:
    """Seconds for a fixed mix of the work the program does: interpreted
    arithmetic, big-integer convolution, and parsing a large JSON document
    of big rationals.

    Shared hosts change speed by tens of percent over minutes; the
    calibration, run in the same process next to the job, measures that
    speed with code the program cannot change.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(12):
        out = [0] * (len(_BIG) + len(_SMALL) - 1)
        for i, a in enumerate(_BIG):
            for j, b in enumerate(_SMALL):
                out[i + j] += a * b
    for _ in range(10):
        for text in json.loads(_DOC)["num"]:
            Fraction(text)
    return time.perf_counter() - t0


def main(argv):
    name, mode, fixture_dir, out_dir, digest, spans_path = argv
    if not os.path.abspath(thetares.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"thetares was imported from {thetares.__file__}, not from {ROOT}/src")
    result = {"ready": READY, "backend": thetares.BACKEND}
    if mode == "fixture":
        result["codes"] = [jobs.run_cli(jobs.fixture_argv(family, fixture_dir))["code"]
                           for family in jobs.REPLAY_FAMILIES]
        return result

    job = jobs.JOBS[name]
    ctx = jobs.Context(fixture_dir, out_dir, jobs.snapshot(fixture_dir))
    tracer = Tracer() if mode == "trace" else None
    calibration = calibrate()
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            output = tracer.run(lambda: job.run(ctx)) if tracer else job.run(ctx)
            result["wall_s"] = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration += calibrate()
        result["scale"] = 2 * CALIBRATION_REF_S / calibration
        if tracer is not None:
            result["layers"] = tracer.metrics()
        checks = job.check(output, ctx, digest)
    except Exception:  # any failure of the job is a failed repetition, not a crash
        detail = traceback.format_exc(limit=4)
        checks = [(check, False, detail) for check in job.check_names]
    else:
        if tracer is not None:
            checks += job.trace_check(result["layers"])
            with open(spans_path, "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    result["checks"] = checks
    return result


if __name__ == "__main__":
    out = main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(out))
