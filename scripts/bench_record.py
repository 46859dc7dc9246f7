#!/usr/bin/env python3
"""Record a base-against-change benchmark comparison as a JSON file.

Reads two files of ``perfbench/run.py`` output, base then change, each with
any number of runs, the way ``perfbench/compare.py`` reads them.  For every
workload and metric found in both files it writes each side's median,
quartiles and spread and the number of runs; for the end-to-end metrics of
BENCHMARK.json it adds the bound and compare.py's verdict.  The host (cores,
Python, numpy, scipy), the seed and run length, and each side's git sha,
``src/bmlab`` sha256 and line count come from the runs' records.  Given
each side's pytest log run with ``--durations``, it adds the Tier-1 wall
time and the slowest tests.  ``--attach NAME FILE`` embeds a JSON file, such
as the ``chain.json`` of ``bmlab chain``, under ``attached.NAME``.

    python3 scripts/bench_record.py base.log change.log --out BENCH_<n>.json \
        --pytest base_tests.log change_tests.log --attach chain out/chain.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import load, summary, verdict  # noqa: E402

HOST_KEYS = ("nproc", "python", "numpy", "scipy")
SOURCE_KEYS = ("git_sha", "src_bmlab_sha256", "src_bmlab_lines")
RUN_KEYS = ("seed", "seconds")
DURATION = re.compile(r"^([0-9.]+)s call\s+(\S+)")
TOTAL = re.compile(r"^=*\s*(\d+ passed.*) in ([0-9.]+)s")


def fingerprint(path: str) -> dict:
    """The fingerprint and run settings shared by every run in a file; runs of
    different trees, hosts, seeds or lengths in one file are an error."""
    prints = set()
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line) if line.startswith("{") else {}
        if "workload" in rec:
            fp = {**rec["fingerprint"], "seconds": rec["seconds"]}
            prints.add(json.dumps({k: fp[k] for k in HOST_KEYS + SOURCE_KEYS + RUN_KEYS}, sort_keys=True))
    if len(prints) != 1:
        raise SystemExit(f"{path}: expected runs of one tree on one host, found {len(prints)} fingerprints")
    return json.loads(prints.pop())


def side(values: list[float]) -> dict:
    med, q1, q3, spread = summary(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def tier1(path: str, slowest: int = 10) -> dict:
    """Wall time, outcome and slowest test calls of a pytest ``--durations`` log."""
    lines = Path(path).read_text().splitlines()
    calls = [(float(m[1]), m[2]) for m in map(DURATION.match, lines) if m]
    totals = [m for m in map(TOTAL.match, lines) if m]
    return {
        "outcome": totals[-1][1] if totals else None,
        "wall_s": float(totals[-1][2]) if totals else None,
        "slowest": [{"test": name, "s": s} for s, name in sorted(calls, reverse=True)[:slowest]],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", help="perfbench/run.py output of the base tree")
    ap.add_argument("change", help="perfbench/run.py output of the changed tree")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pytest", nargs=2, metavar=("BASE_LOG", "CHANGE_LOG"),
                    help="pytest --durations logs of the two trees")
    ap.add_argument("--attach", nargs=2, action="append", default=[], metavar=("NAME", "FILE"),
                    help="embed the JSON file FILE under attached.NAME (repeatable)")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base, change = load(args.base), load(args.change)
    prints = {"base": fingerprint(args.base), "change": fingerprint(args.change)}
    if any(prints["base"][k] != prints["change"][k] for k in HOST_KEYS + RUN_KEYS):
        raise SystemExit("the two sides ran on different hosts, library versions, seeds or lengths")
    metrics: dict = {}
    for workload, metric in sorted(set(base) & set(change)):
        (unit, b), (_, c) = base[workload, metric], change[workload, metric]
        row = {"unit": unit, "pairs": min(len(b), len(c)), "base": side(b), "change": side(c)}
        if metric in bounds:
            spec = bounds[metric]
            row.update(bound=spec["bound"], better=spec["better"],
                       verdict=verdict(b, c, spec["bound"], spec["better"]))
        metrics.setdefault(workload, {})[metric] = row
    record = {
        "host": {k: prints["change"][k] for k in HOST_KEYS},
        "run": {k: prints["change"][k] for k in RUN_KEYS},
        "base": {k: prints["base"][k] for k in SOURCE_KEYS},
        "change": {k: prints["change"][k] for k in SOURCE_KEYS},
        "metrics": metrics,
    }
    if args.pytest:
        record["tier1"] = {"base": tier1(args.pytest[0]), "change": tier1(args.pytest[1])}
    if args.attach:
        record["attached"] = {name: json.loads(Path(path).read_text()) for name, path in args.attach}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
