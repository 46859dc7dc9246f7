"""One workload process: set up, run timed passes, verify, write a result file.

Started by run.py with the package on PYTHONPATH and BLAS/OpenMP thread
variables set to 1.  ``--spawned`` is the wall-clock time at which the parent
started this process, so the reported set-up time includes interpreter
start-up and imports.  With ``--setup-only`` the process exits after set-up.
Set-up and pass times are also given in reference seconds (see calibrate).

With ``--trace 1`` the first half of the time runs untraced passes, the
second half traced passes (see tracer.py), and one more traced pass with
tracemalloc gives the peak memory per call.  The traced passes must
reproduce the untraced outputs exactly.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np


# Host speed drifts by tens of percent within seconds to minutes on shared
# machines.  A pass is therefore timed in segments of at least CAL_EVERY_S,
# each between two runs of a fixed calibration kernel, and also reported in
# reference seconds: segment wall * CAL_REF_S / (mean of its two calibrations).
CAL_REF_S = 0.13
CAL_EVERY_S = 1.0
_CAL_SMALL = np.random.default_rng(0).normal(size=128) + 0j
_CAL_LARGE = np.random.default_rng(1).normal(size=1 << 16) + 0j


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and streaming
    array work (about CAL_REF_S on the reference host)."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(50):
        d = {}
        for k in range(1000):
            d[k] = k * 2.5
        acc += sum(d.values())
        for _ in range(20):
            acc += float(np.abs(np.fft.ifft(np.fft.fft(_CAL_SMALL))).sum())
        for _ in range(8):
            acc += float(np.abs(_CAL_LARGE * _CAL_LARGE[::-1]).sum())
    return perf_counter() - t0


class PassClock:
    """Sums a pass's operation time, raw and in reference seconds; ``tick``
    runs between operations and closes a segment once it is long enough."""

    def __init__(self):
        self.cal = calibrate()
        self.start()

    def start(self):
        self.raw = self.ref = 0.0
        self.t0 = perf_counter()

    def tick(self, close=False):
        seg = perf_counter() - self.t0
        if seg < CAL_EVERY_S and not close:
            return
        cal = calibrate()
        self.raw += seg
        self.ref += seg * CAL_REF_S / (0.5 * (self.cal + cal))
        self.cal = cal
        self.t0 = perf_counter()


def run_passes(wl, budget_s, before=None, after=None):
    """Run passes until the next one would overrun ``budget_s`` (at least one).

    Returns the raw pass walls, the walls in reference seconds, and the results.
    """
    walls, ref_walls, results = [], [], []
    t_start = perf_counter()
    clock = PassClock()
    while True:
        if before:
            before()
        clock.start()
        res = wl.run_pass(clock.tick)
        clock.tick(close=True)
        walls.append(clock.raw)
        ref_walls.append(clock.ref)
        if after:
            res.spans = after()
        res.checks = wl.verify_pass(res)
        results.append(res)
        if perf_counter() - t_start + statistics.median(walls) > budget_s:
            return walls, ref_walls, results


def traced_passes(wl, tracer, budget_s):
    tracer.install()
    try:
        return run_passes(wl, budget_s, before=tracer.take, after=tracer.take)
    finally:
        tracer.uninstall()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS, spot_check

    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_s = time.time() - args.spawned
    out = {"setup_s": setup_s, "setup_ref_s": setup_s * CAL_REF_S / calibrate()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(out))
        return

    if args.trace:
        from tracer import Tracer, check_spans, layer_metrics

        walls, ref_walls, results = run_passes(wl, args.seconds / 2)
        twalls, tref_walls, tresults = traced_passes(wl, Tracer(), args.seconds / 2)
        mwalls, _, mresults = traced_passes(wl, Tracer(memory=True), 0.0)
        per_pass = [layer_metrics(r.spans, w) for r, w in zip(tresults, twalls)]
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        memory = layer_metrics(mresults[0].spans, mwalls[0])
        layer.update({k: v for k, v in memory.items() if k.endswith(".peak_mb")})
        # overhead compares reference seconds, which cancel the host's drift between the halves
        ref, tref = statistics.median(ref_walls), statistics.median(tref_walls)
        layer.update({
            "trace.wall_s": statistics.median(twalls), "trace.untraced_wall_s": statistics.median(walls),
            "trace.overhead_s": tref - ref, "trace.overhead_frac": (tref - ref) / ref,
            "trace.spans": float(len(tresults[0].spans)),
        })
        out["per_layer"] = layer
        out["tracer_check"] = [check_spans(r.spans, w) for r, w in zip(tresults, twalls)]
        out["traced_outputs_equal"] = all(r.outputs == results[0].outputs for r in tresults + mresults)
        if args.spans:
            write_spans(args.spans, tresults)
        checked = results + tresults + mresults
    else:
        walls, ref_walls, results = run_passes(wl, args.seconds)
        checked = results

    import scipy

    out.update({
        "pass_walls": walls,
        "pass_ref_walls": ref_walls,
        "op_ms": [ms for r in results for ms in r.op_ms],
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(len(r.failures) for r in checked),
        "failures": [msg for r in checked for msg in r.failures][:20],
        "checks": results[-1].checks,
        "outputs_equal": all(r.outputs == results[0].outputs for r in results),
        "spot_check": spot_check(wl),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "params": wl.params(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    Path(args.result).write_text(json.dumps(out))


def write_spans(path, results):
    with open(path, "w") as fh:
        fh.write("pass,id,parent,name,start,end,peak_bytes\n")
        for p, res in enumerate(results):
            for s in res.spans:
                fh.write(f"{p},{s.id},{s.parent},{s.name},{s.start!r},{s.end!r},{s.peak_bytes - s.base_bytes}\n")


if __name__ == "__main__":
    sys.exit(main())
