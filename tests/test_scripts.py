"""Subprocess tests: the scripts under scripts/ run end to end on small
inputs, and a bare ``import bmlab`` stays light."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# sha256 of each file of ``symbol_gallery.py --n 16``
GALLERY_SHA256 = {
    "exponential_paraproduct.pgm": "683883a85031b85410d149444d69bf31952cf6110b28669a0f655fbfe8eba3a3",
    "hyperboloid_epigraph.pgm": "4c2a6e628f02e2507c1aa1d8474dfb9528739718a73a637dac0063a6d0860059",
    "hyperboloid_polygon.pgm": "556747f79b0563346b1ade037986f06e70a5f939733affaabbae6d4f3713349d",
    "hyperboloid_staircase.pgm": "d90246fd31961d07930be007eca342afde6eefd1147428b1aba5b8d49db06ee0",
    "power_law_staircase.pgm": "0874433234afeabec42bfee9a5515a8940c2b4bd360444ac12d1bac4239d4b33",
    "whitney_cover.svg": "2edf183e46ba26e5436a70462c409333c918995130b30ddca24a928d176eb154",
}


def test_symbol_gallery_renders(tmp_path):
    out = tmp_path / "gallery"
    res = run_script("symbol_gallery.py", "--n", "16", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GALLERY_SHA256


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy loads only with the Whitney layer's sine integral; numpy.ma (which
    # np.unique imports) stays out of the Hölder chain, whose benchmark counts RSS
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import bmlab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "import numpy as np; from bmlab import curves, engine\n"
        "seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)\n"
        "f, g, h = (engine.SampledFunction(np.arange(128) % k + 1j, 32.0) for k in (3, 5, 7))\n"
        "engine.holder_chain_check(seq, f, g, h, engine.ExponentTriple(3, 3, 3))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]"]


def _bench_log(path, walls, sha):
    fingerprint = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "seed": 1,
                   "git_sha": sha, "src_bmlab_sha256": sha * 8, "src_bmlab_lines": 3000}
    lines = ["# proof_chain seed=1 ..."]
    for wall in walls:
        lines.append(json.dumps({
            "workload": "proof_chain", "fingerprint": fingerprint, "seconds": 8.0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            "extra_metrics": {"fail_frac": {"value": 0.0, "unit": "ratio"}},
        }))
        lines.append(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
    path.write_text("\n".join(lines) + "\n")


def test_bench_record_writes_medians_verdicts_and_tier1(tmp_path):
    _bench_log(tmp_path / "base.log", [0.60, 0.62, 0.58, 0.61], "a")
    _bench_log(tmp_path / "change.log", [0.44, 0.45, 0.43, 0.46], "b")
    durations = "2.00s call     tests/t.py::slow\n0.50s setup    tests/t.py::slow\n1.00s call     tests/t.py::quick\n"
    (tmp_path / "base_tests.log").write_text(durations + "==== 12 passed in 9.50s ====\n")
    (tmp_path / "change_tests.log").write_text(durations + "12 passed in 8.25s (0:00:08)\n")
    (tmp_path / "chain.json").write_text('{"rows": [{"N": 128, "violations": 0}]}\n')
    out = tmp_path / "BENCH.json"
    res = run_script("bench_record.py", "base.log", "change.log", "--out", str(out),
                     "--pytest", "base_tests.log", "change_tests.log",
                     "--attach", "chain", "chain.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rec = json.loads(out.read_text())
    assert rec["host"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    assert rec["run"] == {"seed": 1, "seconds": 8.0}
    assert rec["base"]["git_sha"] == "a" and rec["change"]["src_bmlab_lines"] == 3000
    wall = rec["metrics"]["proof_chain"]["wall_s"]
    assert wall["pairs"] == 4 and wall["verdict"] == "better" and wall["bound"] == 0.2
    assert wall["base"]["median"] == 0.605 and wall["change"]["median"] == 0.445
    assert wall["base"]["q1"] <= wall["base"]["median"] <= wall["base"]["q3"]
    assert "verdict" not in rec["metrics"]["proof_chain"]["fail_frac"]
    assert rec["tier1"]["change"]["wall_s"] == 8.25 and rec["tier1"]["base"]["outcome"] == "12 passed"
    assert [t["test"] for t in rec["tier1"]["base"]["slowest"]] == ["tests/t.py::slow", "tests/t.py::quick"]
    assert rec["attached"] == {"chain": {"rows": [{"N": 128, "violations": 0}]}}


def test_bench_record_rejects_mixed_trees(tmp_path):
    _bench_log(tmp_path / "base.log", [0.60], "a")
    _bench_log(tmp_path / "other.log", [0.61], "c")
    (tmp_path / "mixed.log").write_text((tmp_path / "base.log").read_text() + (tmp_path / "other.log").read_text())
    res = run_script("bench_record.py", "mixed.log", "base.log", "--out", "x.json", cwd=tmp_path)
    assert res.returncode == 1 and "2 fingerprints" in res.stderr
    assert not (tmp_path / "x.json").exists()
