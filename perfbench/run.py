#!/usr/bin/env python3
"""bmlab benchmark: run one workload (or all three) and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload proof_chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed

Workloads (see workloads.py): ``proof_chain``, ``probe_scaling``,
``cli_pipeline``.  Each runs in a fresh single-threaded worker process
(BLAS/OpenMP thread variables set to 1) that sets up, runs identical passes
for ``--seconds`` and verifies every output it times.  The set-up is also
repeated in separate processes, and ``setup_s`` is the median.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json: ``wall_s``, the median pass time, and ``setup_s``, the
median set-up time, both in reference seconds (raw wall time scaled by the
host's speed, which a fixed calibration kernel measures between operations
at least once a second; see worker.py), and ``peak_rss_mb`` of the measured
process.  The raw
times are in the full record as ``wall_raw_s`` and ``setup_raw_s``.  With ``--trace 1`` the per-layer metrics of a traced run
(tracer.py).  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (every metric with its unit, ``fail_frac``, per-operation
latencies, checks and the environment fingerprint), which compare.py reads.

Exits 2 without a result when the package sources are missing, and 1 when
the worker process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("proof_chain", "probe_scaling", "cli_pipeline")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # run with the same checks; reference values are pinned for both seeds
OPS = {"proof_chain": "holder_chain_check call", "probe_scaling": "norm_probe call",
       "cli_pipeline": "subcommand"}
SETUP_REPEATS = 6  # set-up-only processes, on top of the measured run's own set-up
RUN_BUDGET_S = 170  # per workload, so a run ends within the 180 s it is allowed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_LADDER = (90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workdir: Path, args: list[str], deadline: float) -> dict:
    """Start one worker, wait for it until ``deadline`` (time.monotonic), and
    return its result file."""
    result = workdir / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir), "--result", str(result),
           "--spawned", repr(time.time())] + args
    proc = subprocess.Popen(cmd, cwd=workdir, env=worker_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.exists():
        raise BenchError(f"worker exited with code {code}: {' '.join(args)}")
    return json.loads(result.read_text())


def tail(values: list[float]) -> dict:
    """Median and the highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"count": n, "p50_ms": statistics.median(ordered), "tail_pct": None, "tail_ms": None}
    for pct in reversed(TAIL_LADDER):
        if n * (1.0 - pct / 100.0) >= 10:
            out["tail_pct"] = pct
            out["tail_ms"] = ordered[min(n - 1, int(pct / 100.0 * n))]
            break
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(worker: dict, seed: int) -> dict:
    sources = sorted((ROOT / "src" / "bmlab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    params = json.dumps(worker["params"], sort_keys=True).encode()
    return {
        "git_sha": git_sha(),
        **worker["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "src_bmlab_lines": lines,
        "src_bmlab_sha256": digest.hexdigest(),
        "seed": seed,
        "config_sha256": worker["params"].get("config_sha256", hashlib.sha256(params).hexdigest()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
        setups = []
        if not trace:
            for _ in range(SETUP_REPEATS):
                setups.append(run_worker(workdir, common + ["--setup-only"], deadline))
        traced = ["--trace", "1", "--spans", str(WORK / f"spans-{name}.csv")] if trace else []
        w = run_worker(workdir, common + traced, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(w)

    checks = {
        "operations": w["failed"] == 0,
        "outputs_equal_across_passes": w["outputs_equal"],
        "spot_check_vs_oracle": w["spot_check"]["ok"],
    }
    if trace:
        checks["tracer_self_check"] = all(c["ok"] for c in w["tracer_check"])
        checks["traced_outputs_equal"] = w["traced_outputs_equal"]
        metrics = {k: {"value": w["per_layer"][k], "unit": u} for k, u in _units(bench, "per_layer")}
    else:
        values = {"setup_s": statistics.median(s["setup_ref_s"] for s in setups),
                  "wall_s": statistics.median(w["pass_ref_walls"]), "peak_rss_mb": w["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in _units(bench, "end_to_end")}
    ops = {"op": OPS[name], **tail(w["op_ms"])}
    extra = {
        "fail_frac": {"value": w["failed"] / w["attempted"], "unit": "ratio"},
        "wall_raw_s": {"value": statistics.median(w["pass_walls"]), "unit": "s"},
        "setup_raw_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
    }
    if ops["tail_pct"] is not None and not trace:
        extra["trial_p50_ms"] = {"value": ops["p50_ms"], "unit": "ms"}
        extra["trial_tail_ms"] = {"value": ops["tail_ms"], "unit": "ms"}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": all(checks.values()),
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
        "extra_metrics": extra,  # not in BENCHMARK.json: fail_frac is 0 when correct, trials exist on proof_chain only
        "operations": ops,
        "passes": len(w["pass_walls"]),
        "pass_walls_s": w["pass_walls"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "checks": checks,
        "check_details": {"verify": w["checks"], "spot_check": w["spot_check"],
                          "tracer": w.get("tracer_check"), "failures": w["failures"]},
        "fingerprint": fingerprint(w, seed),
    }


def _units(bench: dict, key: str):
    return [(m["name"], m["unit"]) for m in bench[key]]


def print_record(rec: dict):
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} passes={rec['passes']} "
          f"correct={rec['correct']} failed {rec['failed']} of {rec['attempted']} operations")
    for name, m in {**rec["metrics"], **rec["extra_metrics"]}.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    ops = rec["operations"]
    if "trial_tail_ms" in rec["extra_metrics"]:
        print(f"#   (trial_tail_ms is p{ops['tail_pct']:g} of {ops['count']} {ops['op']}s)")
    for msg in rec["check_details"]["failures"]:
        print(f"#   FAILED {msg}")
    print(json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measured time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/bmlab/__init__.py", "tests/oracles.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a bmlab source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, seconds, bool(args.trace), bench) for n in names]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    keyed = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if keyed else k): v for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
