"""Subprocess tests: the scripts under scripts/ run end to end on small
inputs, and a bare ``import bmlab`` stays light."""

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


def test_probe_sweep_writes_csv(tmp_path):
    # at the default L = 48 no grid frequency of N = 32 or 64 meets the
    # staircase, so every ratio is 0 and the growth factor is NaN: the sweep
    # fails the probe check, and still writes what it measured
    out = tmp_path / "sweep.csv"
    res = run_script(
        "probe_sweep.py", "--resolutions", "32", "64", "--trials", "2", "--seed", "1",
        "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 4, res.stderr
    err = res.stderr.strip().splitlines()
    assert err == ["check failed: probe growth_factor (3.0, 3.0, 3.0) = nan, bound < 1.5"]
    lines = out.read_text().splitlines()
    assert lines[0] == "p1,p2,p3,N,trial_family,max_ratio"
    assert {line.split(",")[3] for line in lines[1:]} == {"32", "64"}


def test_probe_sweep_passes_on_bounded_growth(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_script(
        "probe_sweep.py", "--L", "16", "--resolutions", "64", "128", "--trials", "2",
        "--seed", "1", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert "growth 0.470" in res.stdout and res.stderr == ""
    lines = out.read_text().splitlines()
    assert {line.split(",")[3] for line in lines[1:]} == {"64", "128"}


def test_probe_sweep_rejects_bad_triple(tmp_path):
    res = run_script(
        "probe_sweep.py", "--triples", "2,2,2", "--seed", "1",
        "--out", str(tmp_path / "sweep.csv"), cwd=tmp_path,
    )
    assert res.returncode == 1
    assert "config error" in res.stderr and "Traceback" not in res.stderr


def test_symbol_gallery_renders(tmp_path):
    out = tmp_path / "gallery"
    res = run_script("symbol_gallery.py", "--n", "16", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    names = {
        "hyperboloid_staircase.pgm", "hyperboloid_epigraph.pgm", "hyperboloid_polygon.pgm",
        "power_law_staircase.pgm", "exponential_paraproduct.pgm", "whitney_cover.svg",
    }
    assert {p.name for p in out.iterdir()} == names
    for name in names:
        assert (out / name).stat().st_size > 0


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy loads only with the Whitney layer's sine integral
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import bmlab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
