import configparser
import dataclasses
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from bmlab import cli, engine, intervals, symbols, whitney
from bmlab.cli import main
from bmlab.config import MAX_RESOLUTION, SYMBOL_KINDS, ConfigError, RunConfig
from oracles import csv_text_by_rows


BASE_CONFIG = """
[curve]
family = {family}
{c_line}

[sequence]
J = {J}
hypothesis = {hypothesis}

[grid]
N = 128
L = 16.0

[probe]
trials = 3
seed = 7
resolutions = 64 128
triples = 3,3,3

[symbol]
kind = {symbol}
nx = 32
ny = 32

[whitney]
C0 = 16
alpha = 0.9
B = 2
segments = 2
samples = 1500

[output]
dir = {out}
"""


def write_config(tmp_path, **kw):
    args = {
        "family": "hyperboloid",
        "c_line": "",
        "J": 6,
        "hypothesis": "hyp2",
        "symbol": "staircase",
        "out": str(tmp_path / "out"),
    }
    args.update(kw)
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.format(**args))
    return str(path)


def test_analyze_power_law(tmp_path):
    cfg = write_config(tmp_path, family="power_law", c_line="c = 1.0")
    assert main(["analyze", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "analyze.json").read_text())
    assert "lacunary" in rep["classification"]["labels"]
    assert abs(rep["classification"]["lacunary_q"] - math.sqrt(2.0)) < 1e-12
    assert rep["config_sha256"]
    assert all(b["band_ok"] for b in rep["slope_bands"])


def test_analyze_hyperboloid_ratio(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["analyze", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "analyze.json").read_text())
    first = rep["first_index"]
    for k, ratio in enumerate(rep["b_over_a"]):
        assert abs(ratio - 2.0 ** (first + k)) < 1e-9 * 2.0 ** (first + k)


def test_small_j_rejected(tmp_path):
    cfg = write_config(tmp_path, J=2)
    assert main(["analyze", "--config", cfg]) == 2


def test_missing_config_is_io_error(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.ini")]) == 3


def test_bad_symbol_kind_rejected(tmp_path):
    cfg = write_config(tmp_path, symbol="pyramid")
    assert main(["symbol", "--config", cfg]) == 2
    with pytest.raises(ConfigError, match=r"^\[symbol\] kind"):
        RunConfig(symbol_kind="pyramid").symbol()


def test_check_hyp_hyperboloid(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["check-hyp", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "hypothesis.json").read_text())
    assert rep["hypothesis"] == "hyp2"
    assert rep["n"] == 2 and rep["stable"]
    assert len(rep["intervals"]) == 6
    colors = {row["color"] for row in rep["intervals"]}
    assert colors == {0, 1}


def test_symbol_outputs(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["symbol", "--config", cfg]) == 0
    pgm = (tmp_path / "out" / "symbol_staircase.pgm").read_text()
    assert pgm.startswith("P2\n32 32\n255")
    meta = json.loads((tmp_path / "out" / "symbol_staircase.json").read_text())
    assert 0.0 < meta["ones_fraction"] < 1.0


def test_apply_identity_symbol(tmp_path, rng):
    cfg = write_config(tmp_path, symbol="constant")
    fvals = rng.normal(size=128) + 1j * rng.normal(size=128)
    gvals = rng.normal(size=128) + 1j * rng.normal(size=128)
    for name, vals in (("f.csv", fvals), ("g.csv", gvals)):
        lines = ["re,im"] + [f"{float(v.real)!r},{float(v.imag)!r}" for v in vals]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert main(["apply", "--config", cfg, str(tmp_path / "f.csv"), str(tmp_path / "g.csv")]) == 0
    rows = (tmp_path / "out" / "applied.csv").read_text().strip().split("\n")[1:]
    out = np.array([complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows])
    assert len(out) == 256
    assert np.max(np.abs(out[::2] - fvals * gvals)) < 1e-10


def test_apply_missing_input_is_io_error(tmp_path):
    cfg = write_config(tmp_path, symbol="constant")
    assert main(["apply", "--config", cfg, str(tmp_path / "f.csv"), str(tmp_path / "g.csv")]) == 3


def test_probe_determinism(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
    b1 = (tmp_path / "o1" / "probe.csv").read_bytes()
    b2 = (tmp_path / "o2" / "probe.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "p1,p2,p3,N,trial_family,max_ratio"
    assert {line.split(",")[3] for line in lines[1:]} == {"64", "128"}
    rep = json.loads((tmp_path / "o1" / "probe.json").read_text())
    assert rep["worst_growth"] < 1.5


def test_two_calls_build_one_parser(tmp_path):
    # the argparse tree is built once per process, then reused by every call
    cli._parser.cache_clear()
    cfg = write_config(tmp_path)
    assert main(["analyze", "--config", cfg]) == 0
    assert main(["check-hyp", "--config", cfg]) == 0
    assert cli._parser.cache_info().misses == 1 and cli._parser.cache_info().hits == 1


def test_seed_is_read_only_from_the_config(tmp_path):
    # no flag overrides the seed, so a run's config_sha256 names its seed
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--config", cfg, "--seed", "8"])
    assert exc.value.code == 2
    other = tmp_path / "seed8.ini"
    other.write_text(Path(cfg).read_text().replace("seed = 7", "seed = 8"))
    runs = []
    for path, out in ((cfg, "o1"), (str(other), "o3")):
        assert main(["probe", "--config", path, "--out", str(tmp_path / out)]) == 0
        runs.append(((tmp_path / out / "probe.csv").read_bytes(),
                     json.loads((tmp_path / out / "probe.json").read_text())["config_sha256"]))
    assert runs[0][0] != runs[1][0] and runs[0][1] != runs[1][1]


def test_whitney_report(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["whitney", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "whitney.json").read_text())
    assert all(c["cover_ok"] and c["containment_ok"] for c in rep["covers"])
    assert all(p["deviation"] <= 1e-6 for p in rep["partition"])
    assert rep["model_sum"]["deviation"] <= 1e-6
    svg = (tmp_path / "out" / "whitney_cover.svg").read_text()
    assert svg.startswith("<svg")
    rows = (tmp_path / "out" / "whitney_rects.csv").read_text().strip().split("\n")
    assert rows[0] == "j,scale_k,mx,my"
    assert len(rows) > 2
    assert all(len(c["anchor"]) == 2 and 0.0 < c["s_j"] < 1.0 for c in rep["covers"])


@pytest.mark.parametrize("which", ["small", "pipeline"])
def test_whitney_rects_rebuild_the_covers_bit_for_bit(tmp_path, which):
    # the integer squares of whitney_rects.csv, with each cover's anchor and
    # s_j from whitney.json, give build_cover's rectangles: every edge, k and
    # center to the bit
    from make_cli_golden import GOLDENS

    config = tmp_path / "run.ini"
    config.write_text(GOLDENS[which][1])
    assert main(["whitney", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    covers = json.loads((tmp_path / "out" / "whitney.json").read_text())["covers"]
    lines = (tmp_path / "out" / "whitney_rects.csv").read_text().splitlines()
    assert lines[0] == "j,scale_k,mx,my"
    rows = np.array([[int(v) for v in line.split(",")] for line in lines[1:]], dtype=np.int64)
    cfg = RunConfig.from_file(str(config))
    seq = cfg.sequence(J=cfg.J + 4)
    assert [c["j"] for c in covers] == list(seq.segments()[: cfg.whitney_segments])
    for cover in covers:
        want = whitney.build_cover(seq, cover["j"], alpha=cfg.alpha, C0=cfg.C0, samples=cfg.whitney_samples).rects
        _, k, mx, my = rows[rows[:, 0] == cover["j"]].T
        unit = 2.0 ** (k - whitney.LATTICE_EXP)
        got = whitney.RectCover(cover["j"], tuple(cover["anchor"]), cover["s_j"], k, mx * unit, my * unit)
        assert len(got) == cover["num_rects"] == len(want) > 0
        assert got.anchor == want.anchor and got.s_j == want.s_j
        assert k.tobytes() == want.k.astype(np.int64).tobytes()
        assert got.cx.tobytes() == want.cx.tobytes() and got.cy.tobytes() == want.cy.tobytes()
        for got_edge, want_edge in zip(got.edges(), want.edges()):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got_edge, want_edge))
    assert len(rows) == sum(c["num_rects"] for c in covers)


def test_whitney_default_base(tmp_path):
    # without [whitney] B the base is 8, whose kernel is too wide for the
    # tiles at j0 = -1; the partition check moves to the next three scales
    cfg = write_config(tmp_path)
    _edit_config(cfg, "B = 2\n", "")
    assert RunConfig.from_file(cfg).exponent_base == 8
    assert main(["whitney", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "whitney.json").read_text())
    assert [(p["j0"], p["B"]) for p in rep["partition"]] == [(-4, 8), (-3, 8), (-2, 8)]
    assert all(p["deviation"] <= 1e-6 for p in rep["partition"])


def test_whitney_rejects_base_below_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _edit_config(cfg, "B = 2\n", "B = 0\n")
    assert main(["whitney", "--config", cfg]) == 2
    assert "B must be at least 2" in capsys.readouterr().err


def _check_failed_values(err: str) -> list[float]:
    """The measured value of every ``check failed:`` stderr line."""
    return [float(line.split(" = ", 1)[1].rsplit(", bound ", 1)[0])
            for line in err.splitlines() if line.startswith("check failed:")]


@pytest.mark.parametrize("B", [257, 1000000, 10**200], ids=["257", "1e6", "1e200"])
def test_whitney_rejects_base_beyond_float_range(tmp_path, capsys, B):
    # B = 1000000 used to exit 4 with three "deviation = nan" lines: the
    # kernel radius 4^(-B) underflows to 0; B = 10**200 overflows the tile length
    cfg = write_config(tmp_path)
    _edit_config(cfg, "B = 2\n", f"B = {B}\n")
    assert main(["whitney", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [whitney] B must be at most 256")
    assert all(math.isfinite(v) for v in _check_failed_values(err))
    assert not (tmp_path / "out").exists()


def test_whitney_largest_base_measures_finite_deviations(tmp_path, capsys, monkeypatch):
    # at the largest accepted B every partition scale is measured; with a zero
    # bound each scale fails and its check line must carry a finite value
    cfg = write_config(tmp_path)
    _edit_config(cfg, "B = 2\n", "B = 256\n")
    monkeypatch.setattr(cli, "WHITNEY_TOL", 0.0)
    assert main(["whitney", "--config", cfg]) == 4
    values = _check_failed_values(capsys.readouterr().err)
    assert len(values) == 4 and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("L", ["1e300", "1e155", "1e101", "1e-101", "1e-300"])
@pytest.mark.parametrize("command", ["analyze", "probe", "whitney"])
def test_rejects_period_beyond_float_range(tmp_path, capsys, L, command):
    # L = 1e300 used to end probe in an OverflowError traceback (the trial wave
    # packets square their widths) and let analyze and whitney pass
    cfg = write_config(tmp_path)
    _edit_config(cfg, "L = 16.0\n", f"L = {L}\n")
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [grid] L") and "1e100" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("L", [1e-100, 1e100])
def test_period_range_is_inclusive(tmp_path, L):
    cfg = RunConfig.from_file(write_config(tmp_path))
    cfg.L = L
    cfg.validate()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("seed = 7", "seed = -1", "[probe] seed must be at least 0"),
        ("J = 6", "J = -1", "[sequence] J must be at least 3"),
        ("trials = 3", "trials = -1", "[probe] trials must be at least 1"),
        ("resolutions = 64 128", "resolutions = -64 128",
         "[probe] resolutions entry -64 is not a power of two >= 2"),
        ("nx = 32", "nx = -1", "[symbol] nx must be at least 1"),
        ("ny = 32", "ny = -1", "[symbol] ny must be at least 1"),
        ("B = 2", "B = -1", "[whitney] B must be at least 2"),
        ("segments = 2", "segments = -1", "[whitney] segments must be at least 1"),
        ("samples = 1500", "samples = -1", "[whitney] samples must be at least 1"),
    ],
    ids=["seed", "J", "trials", "resolutions", "nx", "ny", "B", "segments", "samples"],
)
def test_negative_integer_keys_are_named(tmp_path, capsys, old, new, message):
    # seed = -1 used to say only "expected non-negative integer" (numpy's
    # SeedSequence); J, trials and resolutions named no key
    cfg = write_config(tmp_path)
    _edit_config(cfg, old + "\n", new + "\n")
    assert main(["probe", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("resolutions = 64 128", "resolutions = 128 9223372036854775808",
         "[probe] resolutions entry 9223372036854775808 is above the ceiling 1048576"),
        ("resolutions = 64 128", "resolutions = 64 1073741824",
         "[probe] resolutions entry 1073741824 is above the ceiling 1048576"),
        ("trials = 3", "trials = 9223372036854775808", "[probe] trials must be at most 10000"),
        ("nx = 32", "nx = 100000000", "[symbol] nx must be at most 4096"),
        ("ny = 32", "ny = 9223372036854775808", "[symbol] ny must be at most 4096"),
        ("samples = 1500", "samples = 100000000", "[whitney] samples must be at most 1000000"),
        ("samples = 1500", "samples = 9223372036854775808", "[whitney] samples must be at most 1000000"),
    ],
    ids=["resolutions=2^63", "resolutions=2^30", "trials=2^63", "nx=1e8", "ny=2^63", "samples=1e8",
         "samples=2^63"],
)
@pytest.mark.parametrize("command", ["probe", "symbol", "whitney"])
def test_size_keys_above_their_ceiling_are_named(tmp_path, capsys, command, old, new, message):
    # these ended in an IndexError, a MemoryError, an empty bitmap or a run
    # without end, depending on the key and the subcommand
    cfg = write_config(tmp_path)
    _edit_config(cfg, old + "\n", new + "\n")
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_size_keys_at_their_ceiling_are_accepted(tmp_path):
    cfg = RunConfig.from_file(write_config(tmp_path))
    cfg.resolutions, cfg.trials, cfg.bitmap_nx, cfg.bitmap_ny, cfg.whitney_samples = (
        [2, 1 << 20], 10_000, 4096, 4096, 1_000_000)
    cfg.validate()


@pytest.mark.parametrize("command,J,depth", [("analyze", 60, 60), ("check-hyp", 20, 40), ("whitney", 24, 28)])
def test_float64_depth_limit_names_sequence_J(tmp_path, capsys, command, J, depth):
    # J = 60 used to exit 2 with "sequences are not strictly decreasing", a
    # shape error for what is a float64 resolution limit; check-hyp builds
    # the sequence to 2J and whitney to J + 4
    cfg = write_config(tmp_path, J=J)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [sequence] J = {J} asks for a truncation at {depth}: float64 ")
    assert "largest feasible J is 25" in err and err.count("\n") == 1


@pytest.mark.parametrize("J", [2000, 100_000])
def test_deep_J_stops_at_the_first_unseparated_point(tmp_path, capsys, J):
    # the sequence used to bisect all J points before the float64 check:
    # J = 2000 took seconds to exit 2 and J = 100000 did not finish
    cfg = write_config(tmp_path, J=J)
    t0 = time.perf_counter()
    assert main(["analyze", "--config", cfg]) == 2
    assert time.perf_counter() - t0 < 3.0
    assert capsys.readouterr().err == (
        f"config error: [sequence] J = {J} asks for a truncation at {J}: float64 cannot separate "
        "the points of slopes 2^-26 and 2^-27; largest feasible J is 25\n")


def test_negative_seed_is_named(tmp_path, capsys):
    cfg = tmp_path / "negative_seed.ini"
    cfg.write_text(Path(write_config(tmp_path)).read_text().replace("seed = 7", "seed = -1"))
    assert main(["probe", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: [probe] seed must be at least 0\n"


def test_config_triples_parse(tmp_path):
    path = tmp_path / "t.ini"
    path.write_text(
        "[probe]\nseed = 1\ntriples = 3,3,3 ; 2 4 4\n[sequence]\nJ = 6\n"
    )
    cfg = RunConfig.from_file(str(path))
    assert cfg.triples == [(3.0, 3.0, 3.0), (2.0, 4.0, 4.0)]
    cfg.validate()


def test_config_rejects_bad_triple(tmp_path):
    path = tmp_path / "t.ini"
    path.write_text("[probe]\nseed = 1\ntriples = 2,2,2\n")
    with pytest.raises(ConfigError, match="scaling"):
        RunConfig.from_file(str(path)).validate()


def test_zero_triple_is_config_error(tmp_path, capsys):
    # a zero exponent used to end in a ZeroDivisionError traceback
    cfg = write_config(tmp_path)
    _edit_config(cfg, "triples = 3,3,3", "triples = 0,0,0")
    assert main(["probe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [probe] triples") and "(0.0, 0.0, 0.0)" in err
    assert not (tmp_path / "out").exists()


def test_config_requires_seed(tmp_path):
    path = tmp_path / "t.ini"
    path.write_text("[sequence]\nJ = 6\n")
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_file(str(path)).validate()


def _edit_config(path, old, new):
    text = open(path).read()
    assert old in text
    open(path, "w").write(text.replace(old, new))


@pytest.mark.parametrize("line", ["resolutions = 64 128", "triples = 3,3,3"],
                         ids=["resolutions", "triples"])
def test_probe_empty_list_rejected(tmp_path, capsys, line):
    cfg = write_config(tmp_path)
    _edit_config(cfg, line, line.split("=")[0] + "=")
    assert main(["probe", "--config", cfg]) == 2
    assert "at least one" in capsys.readouterr().err


def test_probe_repeated_resolution_is_named(tmp_path, capsys):
    # a repeated entry used to exit 0 with two rows per (triple, N, family),
    # the witness taken from the first draw at that N
    cfg = write_config(tmp_path)
    _edit_config(cfg, "resolutions = 64 128", "resolutions = 32 64 64")
    assert main(["probe", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: [probe] resolutions entry 64 is repeated\n"
    assert not (tmp_path / "out").exists()


def test_analyze_names_the_curve_keys_of_an_unclassifiable_sequence(tmp_path, capsys):
    # a_j of the exponential curve changes sign, so |a_j| is not monotone; this
    # used to exit 2 with the classifier's message alone, naming no key
    cfg = write_config(tmp_path, family="exponential")
    assert main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [curve] family = exponential: ") and err.count("\n") == 1
    assert "not strictly monotone" in err and "[curve] renormalize" in err
    assert not (tmp_path / "out").exists()
    _edit_config(cfg, "family = exponential", "family = exponential\nrenormalize = unit_slope_origin")
    assert main(["analyze", "--config", cfg]) == 0


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_probe_degenerate_symbol_fails(tmp_path, capsys):
    # with L = 0.5 the grid frequencies are even integers: none falls in the
    # staircase's xi-range, so every ratio is 0 and the growth factor is NaN
    cfg = write_config(tmp_path)
    _edit_config(cfg, "L = 16.0", "L = 0.5")
    assert main(["probe", "--config", cfg]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["check failed: probe growth_factor (3.0, 3.0, 3.0) = nan, bound < 1.5"]
    lines = (tmp_path / "out" / "probe.csv").read_text().splitlines()
    assert {line.split(",")[3] for line in lines[1:]} == {"64", "128"}
    rep = _strict_json(tmp_path / "out" / "probe.json")
    assert rep["worst_growth"] is None and rep["reports"][0]["growth_factor"] is None


def test_probe_json_strict_on_infinite_growth(tmp_path):
    # with L = 40 the band at N = 64 stays below the staircase (eta >= 1) and
    # the band at N = 128 reaches it: the growth factor is infinite
    cfg = write_config(tmp_path)
    _edit_config(cfg, "L = 16.0", "L = 40.0")
    assert main(["probe", "--config", cfg]) == 4
    rep = _strict_json(tmp_path / "out" / "probe.json")
    assert rep["worst_growth"] == "inf" and rep["reports"][0]["growth_factor"] == "inf"
    assert list((tmp_path / "out").glob("witness_*_128_f.csv"))


@pytest.mark.parametrize("kind", ["staircase", "polygonal"])
def test_witness_pair_has_the_reported_max_ratio(tmp_path, kind):
    # the pair emit_witness writes, read back and applied on its own, measures
    # the report's largest ratio at the last resolution
    cfg = RunConfig(J=6, L=16.0, seed=7, symbol_kind=kind, out_dir=str(tmp_path)).validate()
    sym = cfg.symbol()
    triples = [engine.ExponentTriple(3, 3, 3), engine.ExponentTriple(4, 2, 4)]
    for rep in engine.probe_reports(sym, triples, 5, [64, 128], cfg.seed, cfg.L):
        cli.emit_witness(cfg, rep)
        family, N, _, _ = rep.witness()
        f, g = (cli._read_function_csv(str(tmp_path / f"witness_{family}_{N}_{x}.csv"), cfg.L) for x in "fg")
        e = rep.triple
        ratio = (engine.lp_norm(engine.apply_bilinear(sym, f, g), e.p3_dual)
                 / (engine.lp_norm(f, e.p1) * engine.lp_norm(g, e.p2)))
        assert ratio > 0 and abs(ratio - rep.max_ratio_at(N)) <= 1e-12 * ratio


def test_chain_writes_one_row_per_triple_and_resolution(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _edit_config(cfg, "triples = 3,3,3", "triples = 3,3,3;2,4,4")
    assert main(["chain", "--config", cfg]) == 0
    assert capsys.readouterr() == ("", "")
    rep = _strict_json(tmp_path / "out" / "chain.json")
    assert [(r["p1"], r["p2"], r["p3"], r["N"], r["calls"], r["violations"]) for r in rep["rows"]] == [
        (3.0, 3.0, 3.0, 64, 3, 0), (3.0, 3.0, 3.0, 128, 3, 0), (2.0, 4.0, 4.0, 64, 3, 0), (2.0, 4.0, 4.0, 128, 3, 0)]
    assert all(0.0 < r["worst_lhs_over_rhs"] < 1.0 and r["max_identity_gap"] <= 1e-8
               and r["max_carleson_margin"] == 0.0 for r in rep["rows"])
    assert rep["seed"] == 7 and rep["config_sha256"]


def test_chain_names_each_failing_triple_and_resolution(tmp_path, capsys, monkeypatch):
    real = engine.holder_chain_check

    def failing_at_128(seq, f, g, h, e):
        rep = real(seq, f, g, h, e)
        rep.satisfied = rep.satisfied and f.N != 128
        return rep

    monkeypatch.setattr(engine, "holder_chain_check", failing_at_128)
    cfg = write_config(tmp_path)
    _edit_config(cfg, "triples = 3,3,3", "triples = 3,3,3;2,4,4")
    assert main(["chain", "--config", cfg]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "check failed: chain (3.0, 3.0, 3.0) N=128 violations = 3, bound == 0",
        "check failed: chain (2.0, 4.0, 4.0) N=128 violations = 3, bound == 0",
    ]
    rep = json.loads((tmp_path / "out" / "chain.json").read_text())
    assert [r["violations"] for r in rep["rows"]] == [0, 3, 0, 3]


def test_chain_rejects_bad_triple(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _edit_config(cfg, "triples = 3,3,3", "triples = 2,2,2")
    assert main(["chain", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [probe] triples entry (2.0, 2.0, 2.0)") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _out_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_whitney_names_failed_partition_and_model(tmp_path, capsys, monkeypatch):
    # a zero bound fails every partition scale and the model form without
    # changing what is measured: the files and stdout stay as they were
    cfg = write_config(tmp_path)
    assert main(["whitney", "--config", cfg]) == 0
    passed_out = capsys.readouterr().out
    passed = _out_files(tmp_path / "out")
    monkeypatch.setattr(cli, "WHITNEY_TOL", 0.0)
    assert main(["whitney", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == passed_out
    assert _out_files(tmp_path / "out") == passed
    rep = json.loads(passed["whitney.json"])
    expected = [
        f"check failed: whitney partition j0={p['j0']} deviation = {p['deviation']!r}, bound <= 0.0"
        for p in rep["partition"]
    ] + [f"check failed: whitney model_sum deviation = {rep['model_sum']['deviation']!r}, bound <= 0.0"]
    assert captured.err.splitlines() == expected


def test_whitney_names_failed_cover_and_containment(tmp_path, capsys, monkeypatch):
    real = whitney.build_cover

    def failing_cover(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.cover_ok, rep.witnesses = False, [(0.5, 0.5)] * 3
        rep.containment_ok, rep.containment_failures = False, [0, 1]
        return rep

    monkeypatch.setattr(whitney, "build_cover", failing_cover)
    cfg = write_config(tmp_path)
    assert main(["whitney", "--config", cfg]) == 4
    rep = json.loads((tmp_path / "out" / "whitney.json").read_text())
    expected = []
    for cover in rep["covers"]:
        expected += [
            f"check failed: whitney cover j={cover['j']} uncovered samples = 3, bound == 0",
            f"check failed: whitney containment j={cover['j']} rectangles outside = 2, bound == 0",
        ]
    assert len(expected) == 4
    assert capsys.readouterr().err.splitlines() == expected


def test_whitney_reports_an_empty_cover(tmp_path, capsys):
    # at C0 = 1e-3 no sample is covered; the run must end in check failures,
    # not a traceback or a config error
    cfg = write_config(tmp_path)
    _edit_config(cfg, "C0 = 16\n", "C0 = 1e-3\n")
    assert main(["whitney", "--config", cfg]) == 4
    rep = json.loads((tmp_path / "out" / "whitney.json").read_text())
    assert rep["covers"] and all(cover["cover_ok"] is False for cover in rep["covers"])
    assert all(row["overlap"] == {"1": 0, "2": 0, "3": 0} for row in rep["edge_overlaps"])
    err = capsys.readouterr().err.splitlines()
    assert err == [f"check failed: whitney cover j={cover['j']} uncovered samples = "
                   f"{cover['samples']}, bound == 0" for cover in rep["covers"]]
    assert "<polyline" in (tmp_path / "out" / "whitney_cover.svg").read_text()
    assert (tmp_path / "out" / "whitney_rects.csv").read_text().count("\n") == 1


def test_check_hyp_names_unstable_coloring(tmp_path, capsys, monkeypatch):
    real = intervals.check_hypothesis

    def unstable(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.n_doubled = rep.n + 1
        return rep

    monkeypatch.setattr(intervals, "check_hypothesis", unstable)
    cfg = write_config(tmp_path)
    assert main(["check-hyp", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "check failed: check-hyp hyp2 colors at J=6 = 2, bound == 3 (colors at 2J=12)"
    ]
    rep = json.loads((tmp_path / "out" / "hypothesis.json").read_text())
    assert rep["n"] == 2 and rep["stable"] is False


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("segments = 2\n", "segments = 0\n", "[whitney] segments"),
        ("samples = 1500\n", "samples = 0\n", "[whitney] samples"),
        ("C0 = 16\n", "C0 = 0\n", "[whitney] C0"),
        ("C0 = 16\n", "C0 = -4\n", "[whitney] C0"),
        ("C0 = 16\n", "C0 = nan\n", "[whitney] C0"),
        ("alpha = 0.9\n", "alpha = 0.5\n", "[whitney] alpha"),
        ("hypothesis = hyp2\n", "hypothesis = hyp3\n", "[sequence] hypothesis"),
        ("family = hyperboloid\n", "family = spiral\n", "[curve] family"),
        ("family = hyperboloid\n", "family = hyperboloid\nrenormalize = sideways\n", "[curve] renormalize"),
        ("kind = staircase\n", "kind = pyramid\n", "[symbol] kind"),
        ("ny = 32\n", "ny = 32\nwindow = 0 1 2\n", "[symbol] window"),
    ],
    ids=["segments=0", "samples=0", "C0=0", "C0=-4", "C0=nan", "alpha=0.5", "hypothesis=hyp3", "family=spiral",
         "renormalize=sideways", "kind=pyramid", "window-three-numbers"],
)
def test_whitney_rejects_degenerate_keys(tmp_path, capsys, old, new, key):
    # segments = 0 used to exit 0 with a report that checked no cover
    cfg = write_config(tmp_path)
    _edit_config(cfg, old, new)
    assert main(["whitney", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("segments", [11, 1000000])
def test_whitney_rejects_more_segments_than_the_sequence_has(tmp_path, capsys, segments):
    # J = 6 draws covers on the 10 segments of the J + 4 sequence; more were
    # cut to 10 without a word (segments = 1000000 at J = 8 exited 0 with 12 covers)
    cfg = write_config(tmp_path)
    _edit_config(cfg, "segments = 2\n", f"segments = {segments}\n")
    assert main(["whitney", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"config error: [whitney] segments = {segments} is more than the 10 "
                                       "segments of the J + 4 = 10 sequence\n")
    assert not (tmp_path / "out").exists()


def test_whitney_accepts_every_segment_of_the_sequence(tmp_path):
    cfg = write_config(tmp_path)
    _edit_config(cfg, "segments = 2\n", "segments = 10\n")
    _edit_config(cfg, "samples = 1500\n", "samples = 1\n")
    assert main(["whitney", "--config", cfg]) == 0
    covers = json.loads((tmp_path / "out" / "whitney.json").read_text())["covers"]
    assert [c["j"] for c in covers] == list(RunConfig.from_file(cfg).sequence(J=10).segments())


def test_symbol_of_unbounded_support_needs_a_window(tmp_path, capsys):
    # an epigraph has no bounding box, so only [symbol] window can bound the bitmap
    cfg = write_config(tmp_path, symbol="epigraph")
    assert main(["symbol", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "[symbol] window" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["nx = 32", "ny = 32"])
def test_symbol_rejects_empty_grid(tmp_path, capsys, line):
    # nx = 0 used to exit 0 with a null ones_fraction
    cfg = write_config(tmp_path)
    _edit_config(cfg, line, line.replace("32", "0"))
    assert main(["symbol", "--config", cfg]) == 2
    assert f"[symbol] {line[:2]} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# [symbol] window per kind over the J = 6 hyperboloid (a in (0, 0.58], b in
# [1, 1.16)); None keeps the staircase's bounding box
SYMBOL_WINDOWS = {
    "staircase": None,
    "epigraph": "0 0.6 0.95 1.2",
    "polygonal": "-0.05 0.65 0.98 1.18",
    "exponential_paraproduct": "-7.5 6.5 -4 132",
    "constant": "-1 1 -1 1",
}


@pytest.mark.parametrize("kind", sorted(SYMBOL_KINDS))
def test_symbol_files_are_the_pointwise_bitmap(tmp_path, kind):
    # only the staircase is in the CLI goldens: every kind's PGM and CSV are
    # the bytes of its pointwise bitmap sym(xi, eta) at the cell centres
    cfg = write_config(tmp_path, symbol=kind)
    if SYMBOL_WINDOWS[kind] is not None:
        _edit_config(cfg, "ny = 32\n", f"ny = 32\nwindow = {SYMBOL_WINDOWS[kind]}\n")
    assert main(["symbol", "--config", cfg]) == 0
    run = RunConfig.from_file(cfg)
    sym = run.symbol()
    grid = symbols.FrequencyGrid(window=run.window or sym.bbox, nx=32, ny=32)
    xi, eta = grid.xi_values(), grid.eta_values()
    bitmap = sym(xi[:, None], eta[None, :])
    assert bitmap.any() and (kind == "constant" or not bitmap.all())
    base = tmp_path / "out" / f"symbol_{kind}"
    assert (base.with_suffix(".pgm")).read_text() == symbols.bitmap_to_pgm(bitmap)
    cells = zip(np.repeat(xi, 32), np.tile(eta, 32), bitmap.ravel())
    assert (base.with_suffix(".csv")).read_text() == csv_text_by_rows(["xi", "eta", "amplitude"], cells)


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("L = 16.0\n", "L = nan\n", "[grid] L"),
        ("L = 16.0\n", "L = inf\n", "[grid] L"),
        ("family = hyperboloid\n", "family = hyperboloid\nc = nan\n", "[curve] c"),
        ("ny = 32\n", "ny = 32\nwindow = 0 nan 0 1\n", "[symbol] window"),
        ("ny = 32\n", "ny = 32\nwindow = 0.5 0.1 1.0 1.0\n", "[symbol] window"),
    ],
    ids=["L=nan", "L=inf", "c=nan", "window-nan", "window-reversed"],
)
@pytest.mark.parametrize("command", ["analyze", "symbol", "probe"])
def test_rejects_non_finite_config_floats(tmp_path, capsys, old, new, key, command):
    # L = nan/inf used to end in an OverflowError traceback, a nan window
    # entry in a meaningless bitmap, a reversed or zero-width window in an
    # empty one, c = nan in an unrelated sequence error
    cfg = write_config(tmp_path)
    _edit_config(cfg, old, new)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "family,lines,keys",
    [
        ("power_law", "c = 1.0\nrenormalize = vanishing_limits", ("c = 1.0", "renormalize")),
        ("exponential", "renormalize = vanishing_limits", ("renormalize",)),
        ("hyperboloid", "renormalize = unit_slope_origin", ("renormalize",)),
        ("monomial", "c = 1.0", ("c = 1.0",)),
        ("power_law", "c = -1", ("c = -1.0",)),
    ],
    ids=["power_law-vanishing", "exponential-vanishing", "hyperboloid-unit-slope", "monomial-c=1",
         "power_law-c=-1"],
)
@pytest.mark.parametrize("command", ["analyze", "probe"])
def test_curve_keys_are_named_at_load_time(tmp_path, capsys, family, lines, keys, command):
    # these passed validate() and then failed inside every subcommand with
    # the curve library's message, naming no key
    cfg = write_config(tmp_path, family=family, c_line=lines)
    with pytest.raises(ConfigError, match=r"^\[curve\] family = " + family):
        RunConfig.from_file(cfg).validate()
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [curve] family = {family}") and err.count("\n") == 1
    assert all(key in err for key in keys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "family,c_line,need",
    [(family, "c = -1", "takes no parameter, so c = -1.0 is not used")
     for family in ("hyperboloid", "exponential", "circle_arc", "arctan")]
    + [("power_law", "", "needs the parameter c")],
    ids=["hyperboloid", "exponential", "circle_arc", "arctan", "power_law"],
)
@pytest.mark.parametrize("command", ["analyze", "chain"])
def test_c_must_match_the_curve_family(tmp_path, capsys, family, c_line, need, command):
    # a c on a family without a parameter used to be ignored while
    # analyze.json recorded it as the run's c
    cfg = write_config(tmp_path, family=family, c_line=c_line)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: [curve] c: curve family {family} {need}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "chain", "whitney"])
def test_empty_output_dir_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # an empty [output] dir with no --out used to exit 0 and write into the
    # current directory; an empty --out, to exit 0 and write into [output] dir
    (tmp_path / "cfg").mkdir()
    empty = write_config(tmp_path / "cfg", out="")
    named = write_config(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in ([command, "--config", empty], [command, "--config", named, "--out", ""]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: [output] dir is empty: name the output directory\n"
        assert list(work.iterdir()) == [] and not (tmp_path / "out").exists()
    assert sorted(p.name for p in (tmp_path / "cfg").iterdir()) == ["run.ini"]
    assert main([command, "--config", empty, "--out", str(tmp_path / "out")]) in (0, 4)


def test_other_value_errors_are_not_called_config_errors(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("no grid frequency left")

    monkeypatch.setattr(cli, "cmd_analyze", failing)
    assert main(["analyze", "--config", write_config(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: no grid frequency left\n"


@pytest.mark.parametrize(
    "row", ["nan,0.5", "0.5,1e400", "1,2,3", "0.5", "x,1"],
    ids=["nan", "overflow", "three-fields", "one-field", "not-a-number"],
)
def test_apply_rejects_bad_sample_rows(tmp_path, capsys, row):
    # a non-finite row used to exit 0 with NaN/inf in applied.csv, a
    # three-field row to name neither the file nor the line
    cfg = write_config(tmp_path, symbol="constant")
    good = tmp_path / "g.csv"
    good.write_text("re,im\n" + "0.5,0.25\n" * 128)
    bad = tmp_path / "f.csv"
    bad.write_text("re,im\n" + "0.5,0.25\n" * 3 + row + "\n" + "0.5,0.25\n" * 124)
    assert main(["apply", "--config", cfg, str(bad), str(good)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{bad} line 5" in err and repr(row) in err
    assert not (tmp_path / "out" / "applied.csv").exists()


@pytest.mark.parametrize(
    "f_rows,g_rows,message",
    [(3, 4, "{f}: 3 sample rows"), (4, 2, "{f} has 4 sample rows and {g} has 2")],
    ids=["non-power-of-two", "unequal-lengths"],
)
def test_apply_names_files_and_row_counts(tmp_path, capsys, f_rows, g_rows, message):
    # both used to exit 2 naming neither the file nor the counts
    cfg = write_config(tmp_path, symbol="constant")
    f, g = tmp_path / "f.csv", tmp_path / "g.csv"
    f.write_text("re,im\n" + "0.5,0.25\n" * f_rows)
    g.write_text("re,im\n" + "0.5,0.25\n" * g_rows)
    assert main(["apply", "--config", cfg, str(f), str(g)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message.format(f=f, g=g) in err
    assert not (tmp_path / "out" / "applied.csv").exists()


SHARED_OPTIONS_HELP = """\
options:
  -h, --help       show this help message and exit
  --config CONFIG  path to the run config file
  --out OUT        output directory override
"""


@pytest.mark.parametrize("command", ["analyze", "check-hyp", "symbol", "apply", "probe", "chain", "whitney"])
def test_every_subcommand_help_lists_the_shared_options(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    files = " f_file g_file" if command == "apply" else ""
    usage = f"usage: bmlab {command} [-h] --config CONFIG [--out OUT]{files}\n"
    if command == "apply":
        usage += """
positional arguments:
  f_file           CSV of (re,im) samples for the first input
  g_file           CSV of (re,im) samples for the second input
"""
    assert capsys.readouterr().out == usage + "\n" + SHARED_OPTIONS_HELP


def test_main_calls_each_subcommand_through_its_module_attribute(tmp_path, monkeypatch):
    # main names cli.cmd_* at call time, so a rebound attribute (as the span
    # tracer installs) is the function that runs, with the parsed files
    cfg = write_config(tmp_path)
    calls = []
    commands = {"analyze": [], "check_hyp": [], "symbol": [], "apply": ["f.csv", "g.csv"], "probe": [],
                "chain": [], "whitney": []}
    for name in commands:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda run, *files, name=name: calls.append((name, run, files)) or 5)
    for name, files in commands.items():
        assert main([name.replace("_", "-"), *files, "--config", cfg]) == 5
    assert [(name, files) for name, _, files in calls] == [(name, tuple(files)) for name, files in commands.items()]
    assert all(isinstance(run, RunConfig) for _, run, _ in calls)


def test_cli_outputs_match_golden(tmp_path):
    # every output file of the six subcommands, with exit codes, stdout and
    # stderr, as recorded by tests/make_cli_golden.py
    from make_cli_golden import GOLDEN_PATH, run_subcommands

    golden = json.loads(GOLDEN_PATH.read_text())
    got = run_subcommands(tmp_path)
    assert got["runs"] == golden["runs"]
    assert got["files_sha256"] == golden["files_sha256"]


def test_cli_pipeline_outputs_match_golden(tmp_path):
    # the same on the benchmark's cli_pipeline values: two triples, a 512x512
    # bitmap, 4 Whitney segments
    from make_cli_golden import GOLDENS, run_subcommands

    golden = json.loads(GOLDENS["pipeline"][0].read_text())
    got = run_subcommands(tmp_path, "pipeline")
    assert got["runs"] == golden["runs"]
    assert got["files_sha256"] == golden["files_sha256"]


def bad_values(f: dataclasses.Field) -> list[str]:
    """The fuzz's bad values for the key of field ``f``: degenerate numbers,
    a non-number, and a value just above the key's ceiling."""
    values = ["", "-1", "0", "nan", "inf", "1e400", "spiral"]
    if f.metadata["most"] is not None:
        values.append(str(f.metadata["most"] + 1))
    if f.name == "resolutions":
        values.append(str(2 * MAX_RESOLUTION))
    return values


FUZZ_CASES = [(f.metadata["section"], f.metadata["key"], value)
              for f in dataclasses.fields(RunConfig) if f.metadata for value in bad_values(f)]


@seed(32)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(FUZZ_CASES))
def test_one_bad_key_ends_in_a_named_exit(tmp_path, capsys, monkeypatch, case):
    # every subcommand on a config with one bad value ends in exit 0, a
    # config error naming a key (a value can make another key required, as
    # kind = epigraph does [symbol] window), or failed checks alone
    section, key, value = case
    monkeypatch.chdir(tmp_path)
    parser = configparser.ConfigParser()
    parser.read_string(BASE_CONFIG.format(family="hyperboloid", c_line="", J=6, hypothesis="hyp2",
                                          symbol="staircase", out="out"))
    parser.set(section, key, value)
    with open(tmp_path / "run.ini", "w") as fh:
        parser.write(fh)
    for name in ("f.csv", "g.csv"):
        (tmp_path / name).write_text("re,im\n" + "".join(f"{math.cos(n)!r},{math.sin(n)!r}\n" for n in range(64)))
    for command in (["analyze"], ["check-hyp"], ["symbol"], ["apply", "f.csv", "g.csv"], ["probe"], ["chain"],
                    ["whitney"]):
        code = main([*command, "--config", "run.ini", "--out", "out"])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 4), (command, err)
        if code == 0:
            assert err == []
        elif code == 2:
            assert len(err) == 1 and err[0].startswith("config error: ") and re.search(r"\[\w+\] \w+", err[0])
        else:
            assert err and all(line.startswith("check failed: ") for line in err)
