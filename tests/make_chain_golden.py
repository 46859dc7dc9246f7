"""Golden reports for the Hölder chain: the sha256 of the ``repr`` of every
``holder_chain_check`` report on a staircase (J = 8), for four exponent
triples times ``TRIALS`` random triples (f, g, h) in each case of ``CASES``.
The cases give the chain plans different row patterns: one block or
several, steps off the grid, rows that repeat a row of the same input, and
at (N, L) = (1024, 256) every step live with no repeated row.

``tests/test_engine.py::test_chain_reports_match_golden`` recomputes them
and compares against ``tests/data/chain_golden.json``.  A report's repr
spells every float in full, so equal hashes mean bitwise-equal reports.
Regenerate only when a report is meant to change:

    PYTHONPATH=src python tests/make_chain_golden.py > tests/data/chain_golden.json

The hashes pin the bits for one numpy version (the one pinned in
``.github/workflows/tests.yml``); others may round differently.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from bmlab import curves, engine
from make_cli_golden import source_commit

GOLDEN_PATH = Path(__file__).parent / "data" / "chain_golden.json"
TRIPLES = ((3, 3, 3), (2, 4, 4), (4, 4, 2), (2, 3, 6))
# (curve family, N, L)
CASES = (
    ("hyperboloid", 64, 32.0),
    ("hyperboloid", 128, 32.0),
    ("hyperboloid", 256, 32.0),
    ("hyperboloid", 1024, 32.0),
    ("hyperboloid", 1024, 256.0),
    ("power_law(1)", 128, 32.0),
    ("power_law(1)", 256, 32.0),
)
CURVES = {"hyperboloid": curves.hyperboloid, "power_law(1)": lambda: curves.power_law(1.0)}
TRIALS = 100
J, SEED = 8, 20240


def chain_hashes() -> dict[str, str]:
    """{"<family> N=<N> L=<L>": sha256 of the newline-joined report reprs of that case}."""
    out = {}
    for family, N, L in CASES:
        seq = curves.build_dyadic_slope_sequence(CURVES[family](), J)
        digest = hashlib.sha256()
        for ti, triple in enumerate(TRIPLES):
            e = engine.ExponentTriple(*triple)
            rng = np.random.default_rng(np.random.SeedSequence((SEED, N, ti)))
            for _ in range(TRIALS):
                f, g, h = (engine.SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
                           for _ in range(3))
                digest.update(repr(engine.holder_chain_check(seq, f, g, h, e)).encode() + b"\n")
        out[f"{family} N={N} L={L:g}"] = digest.hexdigest()
    return out


if __name__ == "__main__":
    record = {
        "sha256": chain_hashes(),
        "note": (
            f"sha256 of the holder_chain_check report reprs, {len(TRIPLES)} triples x {TRIALS} "
            f"trials per case; made by tests/make_chain_golden.py at commit {source_commit()} "
            f"with numpy {np.__version__}"
        ),
    }
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
