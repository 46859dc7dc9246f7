#!/usr/bin/env python3
"""Regenerate reference.json from the current program.

It pins the cli_pipeline symbol PGM and 0/1 bitmap (the config is pinned, so
they hold for every seed) and the probe_scaling max_ratio rows for the
default and the held-out seed.  Run from the repository root:

    PYTHONPATH=src:tests python3 perfbench/make_reference.py
"""

import json
import shutil
from pathlib import Path

import numpy as np

from run import DEFAULT_SEED, HELD_OUT_SEED
from workloads import REFERENCE_PATH, CliPipeline, ProbeScaling, sha256_bytes


def main():
    work = Path(__file__).resolve().parents[1] / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli = CliPipeline(DEFAULT_SEED, work)
        res = cli.run_pass()
        if res.failures:
            raise SystemExit(f"cli_pipeline failed: {res.failures}")
        out = Path(res.out_dir)
        lines = (out / "symbol_staircase.csv").read_text().splitlines()[1:]
        bitmap = np.array([float(line.rsplit(",", 1)[1]) for line in lines]) == 1.0
        ref = {
            "cli_pipeline": {
                "symbol_pgm_sha256": sha256_bytes((out / "symbol_staircase.pgm").read_bytes()),
                "symbol_bitmap_sha256": sha256_bytes(np.packbits(bitmap).tobytes()),
            },
            "probe_scaling": {},
        }
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            res = ProbeScaling(seed, work).run_pass()
            if res.failures:
                raise SystemExit(f"probe_scaling seed {seed} failed: {res.failures}")
            ref["probe_scaling"][str(seed)] = res.outputs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = ["{", f' "cli_pipeline": {json.dumps(ref["cli_pipeline"])},', ' "probe_scaling": {']
    for i, (seed, rows) in enumerate(ref["probe_scaling"].items()):
        lines.append(f'  "{seed}": [')
        lines += [f"   {json.dumps(row)}," for row in rows]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]," if i + 1 < len(ref["probe_scaling"]) else "  ]")
    lines += [" }", "}"]
    REFERENCE_PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
