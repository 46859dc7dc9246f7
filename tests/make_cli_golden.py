"""Golden bytes for the CLI: run the six subcommands on the staircase config
of ``tests/test_cli.py`` and record the sha256 of every file they write, with
each subcommand's exit code, stdout and stderr.

``tests/test_cli.py::test_cli_outputs_match_golden`` reruns the same
commands and compares against ``tests/data/cli_golden.json``.  The hashes
are regenerated only when an output is meant to change:

    PYTHONPATH=src python tests/make_cli_golden.py > tests/data/cli_golden.json

The hashes pin the bytes for one numpy/scipy pair (the versions pinned in
``.github/workflows/tests.yml``); other versions may round differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from bmlab.cli import main
from test_cli import BASE_CONFIG

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("analyze", "check-hyp", "symbol", "apply", "probe", "whitney")
APPLY_N = 128  # the config's grid: N = 128, L = 16


def golden_config() -> str:
    return BASE_CONFIG.format(
        family="hyperboloid", c_line="", J=6, hypothesis="hyp2", symbol="staircase", out="out"
    )


def run_subcommands(workdir: Path) -> dict:
    """Run every subcommand into ``workdir/out``; return what the golden file records."""
    config = workdir / "run.ini"
    config.write_text(golden_config())
    rng = np.random.default_rng(20240)
    inputs = []
    for name in ("f", "g"):
        vals = rng.normal(size=APPLY_N) + 1j * rng.normal(size=APPLY_N)
        path = workdir / f"{name}.csv"
        path.write_text("re,im\n" + "".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in vals))
        inputs.append(str(path))
    out = workdir / "out"
    runs = {}
    for cmd in COMMANDS:
        argv = [cmd, "--config", str(config), "--out", str(out)] + (inputs if cmd == "apply" else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        runs[cmd] = {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return {"runs": runs, "files_sha256": files}


def source_commit() -> str:
    """The checkout's commit, ``-dirty`` when tracked files differ from it."""
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=Path(__file__).parent,
                         capture_output=True, text=True)
    return git.stdout.strip() if git.returncode == 0 else "unknown"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = run_subcommands(Path(tmp))
    record["note"] = (
        "sha256 of every file the six subcommands write on the tests/test_cli.py staircase "
        "config, with exit codes, stdout and stderr; made by tests/make_cli_golden.py at "
        f"commit {source_commit()} with numpy {np.__version__} and scipy {scipy.__version__}"
    )
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
