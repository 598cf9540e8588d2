"""Runtime spans and work counters around the public functions of each layer.

The program has no tracing of its own, so the benchmark wraps functions
and methods of ``thetares`` at runtime.  A wrapped call records a span
(name, start, end, parent) in memory; the spans are reduced to per-layer
metrics when the job ends.  Some wrappers also add work counters
(coefficient pairs multiplied, bytes read, roots found, ...) that depend
only on the inputs and so repeat exactly from run to run.

A function imported by name into another module (``cache.rec_step``,
``cli.residue_report``, the package's own re-exports) is a second
reference to the same object, so every ``thetares`` module attribute that
is the original object is replaced, not only the defining one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layers in reporting order; a span belongs to the layer before its first dot.
LAYERS = ("kernels", "rational", "ratfunc", "recurrence", "qseries", "checks", "cache", "cli")

ROOT = "job"


def _bits(nums) -> int:
    return max(map(int.bit_length, nums), default=0)


def _pairs_in_window(la: int, lb: int, n: int) -> int:
    """Coefficient pairs (i, j) with i < la, j < lb and i + j < n."""
    if la == 0 or lb == 0 or n <= 0:
        return 0
    m = min(n, la + lb - 1)
    k = min(la, m)
    full = max(0, min(k, m - lb + 1))  # rows i whose whole b fits below m
    return full * lb + (k - full) * m - (full + k - 1) * (k - full) // 2


def entry_stats(entry) -> dict:
    num = entry.num
    return {
        "num_degree": len(num.int_coeffs) - 1,
        "factor_count": len(entry.factors),
        "pole_order_sum": sum(e for _, e in entry.factors),
        "max_coeff_bits": _bits(num.int_coeffs),
        "den_bits": num.int_den.bit_length(),
    }


class Tracer:
    """Span recorder; ``install`` patches the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counters = defaultdict(int)
        self.conv_max_bits = 0
        self.last_entry = None
        self.missing = []  # patch targets the program does not have
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run(self, fn):
        """Call ``fn()`` inside the root span."""
        return self._wrap(ROOT, fn)()

    # -- patching ------------------------------------------------------------

    def _patch(self, module, qualname, name, before=None, after=None):
        owner = sys.modules.get(module)
        attr = qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(owner, cls_name, None)
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:  # renamed or removed by the program: that span reads zero
            self.missing.append(f"{module}.{qualname}")
            return
        wrapped = self._wrap(name, orig, before, after)
        if owner is not sys.modules[module]:  # a method
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            return
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "thetares" or mod_name.startswith("thetares.")):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    self._patches.append((other, key, orig))
                    setattr(other, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def install(self):
        c = self.counters

        def conv_before(args):
            a, b = args
            c["kernels.conv.work"] += len(a) * len(b)
            self.conv_max_bits = max(self.conv_max_bits, _bits(a), _bits(b))

        def conv_trunc_before(args):
            a, b, n = args
            c["kernels.conv_trunc.work"] += _pairs_in_window(len(a), len(b), n)

        def eval_before(args):
            c["kernels.eval_at_inv.work"] += len(args[0])

        def eval_after(args, result):
            if result == 0:
                c["kernels.eval_at_inv.roots"] += 1

        def step_after(args, entry):
            family, m = args[0], args[1]
            if m >= 1 and entry.pole_order(family.edge(m)) == 0:
                c["recurrence.poles_cancelled"] += 1
            self.last_entry = entry

        def read_after(args, entry):
            cache, family, m = args
            if entry is None:
                c["cache.miss"] += 1
                return
            c["cache.read.bytes"] += cache.entry_path(family, m).stat().st_size
            self.last_entry = entry

        def write_after(args, _result):
            cache, family, m = args[0], args[1], args[2]
            c["cache.write.bytes"] += cache.entry_path(family, m).stat().st_size

        def suite_after(args, results):
            c["checks.failed"] += sum(1 for r in results if not r.passed)

        kernels = "thetares.backend"
        self._patch(kernels, "conv", "kernels.conv", before=conv_before)
        self._patch(kernels, "conv_trunc", "kernels.conv_trunc", before=conv_trunc_before)
        self._patch(kernels, "series_inv_cleared", "kernels.series_inv")
        self._patch(kernels, "eval_at_inv", "kernels.eval_at_inv", eval_before, eval_after)
        self._patch(kernels, "divexact_linear", "kernels.divexact_linear")
        self._patch(kernels, "content_gcd", "kernels.content_gcd")

        self._patch("thetares.rational", "Poly.__mul__", "rational.mul")
        self._patch("thetares.rational", "Poly.__add__", "rational.add")

        self._patch("thetares.ratfunc", "RatFunc.__add__", "ratfunc.add")
        self._patch("thetares.ratfunc", "RatFunc.diff", "ratfunc.diff")
        self._patch("thetares.ratfunc", "RatFunc.__init__", "ratfunc.new")
        self._patch("thetares.ratfunc", "RatFunc.divide_edge", "ratfunc.divide_edge")
        self._patch("thetares.ratfunc", "RatFunc.residue", "ratfunc.residue")

        self._patch("thetares.recurrence", "rec_step", "recurrence.rec_step", after=step_after)
        self._patch("thetares.recurrence", "residue_report", "recurrence.residue_report")
        self._patch("thetares.recurrence", "upoly_sequence", "recurrence.upoly")

        self._patch("thetares.qseries", "QSeries.__mul__", "qseries.mul")
        self._patch("thetares.qseries", "QSeries.inverse", "qseries.inverse")
        self._patch("thetares.qseries", "cf_series", "qseries.cf_series")
        self._patch("thetares.qseries", "delta_series", "qseries.delta_series")
        for oracle in ("cf_coeff", "r2_count", "sigma1", "ramanujan_tau"):
            self._patch("thetares.qseries", oracle, "qseries.oracle")

        for suite in ("golden_suite", "identities_suite", "resum_suite", "residues_suite"):
            self._patch("thetares.checks", suite, "checks.suite", after=suite_after)

        self._patch("thetares.cache", "SeqCache.read", "cache.read", after=read_after)
        self._patch("thetares.cache", "SeqCache.write", "cache.write", after=write_after)

        self._patch("thetares.cli", "main", "cli.main")

    # -- reduction -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far.

        ``<name>.s`` sums the spans with no enclosing span of the same
        name (so recursion is not counted twice); ``<name>.self_s`` sums
        each span minus its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        last = {}
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            last[name] = dur
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += dur
        root_s = total[ROOT]
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value

        c = self.counters
        out = {}
        for k in ("conv", "conv_trunc", "eval_at_inv", "divexact_linear", "content_gcd"):
            out[f"kernels.{k}.calls"] = calls[f"kernels.{k}"]
        out["kernels.conv.work"] = c["kernels.conv.work"]
        out["kernels.conv.max_bits"] = self.conv_max_bits
        out["kernels.conv_trunc.work"] = c["kernels.conv_trunc.work"]
        out["kernels.eval_at_inv.work"] = c["kernels.eval_at_inv.work"]
        evals = calls["kernels.eval_at_inv"]
        out["kernels.eval_at_inv.hit_ratio"] = c["kernels.eval_at_inv.roots"] / evals if evals else 0.0
        for k in ("conv", "conv_trunc", "series_inv", "eval_at_inv", "divexact_linear", "content_gcd"):
            out[f"kernels.{k}.s"] = total[f"kernels.{k}"]

        for name in ("rational.mul", "rational.add", "ratfunc.add", "ratfunc.diff",
                     "ratfunc.new", "qseries.mul"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("ratfunc.divide_edge", "ratfunc.residue", "recurrence.rec_step",
                     "recurrence.residue_report", "recurrence.upoly", "qseries.inverse",
                     "qseries.cf_series", "qseries.delta_series", "qseries.oracle",
                     "checks.suite", "cache.read", "cache.write"):
            out[f"{name}.s"] = total[name]

        out["recurrence.rec_step.calls"] = calls["recurrence.rec_step"]
        out["recurrence.step_last_s"] = last.get("recurrence.rec_step", 0.0)
        stats = entry_stats(self.last_entry) if self.last_entry is not None else {}
        for key in ("num_degree", "factor_count", "pole_order_sum", "max_coeff_bits", "den_bits"):
            out[f"recurrence.entry.{key}"] = stats.get(key, 0)
        out["recurrence.poles_cancelled"] = c["recurrence.poles_cancelled"]

        out["checks.failed"] = c["checks.failed"]
        out["cache.read.calls"] = calls["cache.read"]
        out["cache.read.bytes"] = c["cache.read.bytes"]
        out["cache.miss"] = c["cache.miss"]
        out["cache.write.calls"] = calls["cache.write"]
        out["cache.write.bytes"] = c["cache.write.bytes"]
        out["cli.main.self_s"] = self_s["cli.main"]

        for layer in LAYERS:
            out[f"{layer}.self_frac"] = layer_self[layer] / root_s if root_s else 0.0
        out["trace.unattributed_frac"] = self_s[ROOT] / root_s if root_s else 0.0
        out["trace.spans"] = len(spans)
        out["trace.missing_hooks"] = len(self.missing)
        return out
