"""Golden bytes for the CLI: run the seven subcommands on a config and record
the sha256 of every file they write, with each subcommand's exit code,
stdout and stderr.

Two configs are pinned.  ``small`` is the staircase config of
``tests/test_cli.py`` (one triple, a 32x32 bitmap, 2 segments), recorded in
``tests/data/cli_golden.json``.  ``pipeline`` has the values of the
benchmark's ``cli_pipeline`` config (two triples, a 512x512 bitmap,
4 segments, 1024 apply samples), recorded in
``tests/data/cli_golden_pipeline.json``.  ``tests/test_cli.py`` reruns the
same commands and compares.  The hashes are regenerated only when an output
is meant to change:

    PYTHONPATH=src python tests/make_cli_golden.py small > tests/data/cli_golden.json
    PYTHONPATH=src python tests/make_cli_golden.py pipeline > tests/data/cli_golden_pipeline.json

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

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "cli_golden.json"
COMMANDS = ("analyze", "check-hyp", "symbol", "apply", "probe", "chain", "whitney")

PIPELINE_CONFIG = """\
[curve]
family = hyperboloid

[sequence]
J = 8
hypothesis = hyp2

[grid]
N = 256
L = 32.0

[probe]
trials = 50
seed = 7
resolutions = 128 256
triples = 3,3,3 ; 2,4,4

[symbol]
kind = staircase
nx = 512
ny = 512

[whitney]
C0 = 16
alpha = 0.9
B = 2
segments = 4
samples = 10000

[output]
dir = out
"""

# name -> (golden file, config text, samples per apply input)
GOLDENS = {
    "small": (GOLDEN_PATH, BASE_CONFIG.format(family="hyperboloid", c_line="", J=6, hypothesis="hyp2",
                                              symbol="staircase", out="out"), 128),
    "pipeline": (DATA / "cli_golden_pipeline.json", PIPELINE_CONFIG, 1024),
}


def run_subcommands(workdir: Path, which: str = "small") -> dict:
    """Run every subcommand on the ``which`` config into ``workdir/out``;
    return what the golden file records."""
    _, text, apply_n = GOLDENS[which]
    config = workdir / "run.ini"
    config.write_text(text)
    rng = np.random.default_rng(20240)
    inputs = []
    for name in ("f", "g"):
        vals = rng.normal(size=apply_n) + 1j * rng.normal(size=apply_n)
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
    """The checkout's commit, ``-dirty`` when tracked files outside ``tests/data/``
    differ from it.  The goldens there are left out: the shell truncates the
    one being regenerated before this runs."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=Path(__file__).parent, capture_output=True, text=True)

    sha = git("describe", "--always")
    if sha.returncode != 0:
        return "unknown"
    clean = git("diff", "--quiet", "HEAD", "--", ":(top,exclude)tests/data/").returncode == 0
    return sha.stdout.strip() + ("" if clean else "-dirty")


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "small"
    with tempfile.TemporaryDirectory() as tmp:
        record = run_subcommands(Path(tmp), which)
    record["note"] = (
        f"sha256 of every file the seven subcommands write on the {which!r} config of "
        "tests/make_cli_golden.py, with exit codes, stdout and stderr; made by it at "
        f"commit {source_commit()} with numpy {np.__version__} and scipy {scipy.__version__}"
    )
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
