"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances and runtime budgets are pinned here; randomized parts are fully
seeded, so the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from bmlab import curves
from bmlab.cli import GROWTH_THRESHOLD, main
from bmlab.engine import (
    ExponentTriple,
    SampledFunction,
    apply_bilinear,
    holder_chain_check,
    lp_norm,
    norm_probe,
)
from bmlab.intervals import check_hypothesis, neg_minkowski_sum, staircase_steps
from bmlab.symbols import (
    FrequencyGrid,
    SymbolSpec,
    boundary_piece_symbol,
    constant_symbol,
    epigraph_symbol,
    exponential_paraproduct_sum,
    hyp2_rewrite_pair,
    polygonal_epigraph_symbol,
    sample_symbol,
    staircase_symbol,
)
from bmlab import whitney

from oracles import bilinear_double_sum, half_plane_evaluator


def verdict(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1 & 2: closed-form sequences and lacunarity ---------------------------------


def test_criterion_1_sequence_formulas():
    t0 = time.time()
    ok = True
    for c in (0.5, 1.0, 2.0):
        seq = curves.build_dyadic_slope_sequence(curves.power_law(c), 12)
        j = np.arange(13)
        exact = -((c * 2.0**j) ** (1.0 / (c + 1.0)))
        ok = ok and np.max(np.abs(seq.a - exact)) <= 1e-10
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 12)
    j = np.arange(1, 14)
    exact = 1.0 / np.sqrt(2.0 ** (2 * j) - 1.0)
    ok = ok and np.max(np.abs(seq.a - exact)) <= 1e-12
    ok = ok and abs(seq.a_at(1) - 1.0 / math.sqrt(3.0)) <= 1e-12
    ok = ok and (time.time() - t0) < 1.0
    verdict(1, "sequence formulas", ok)


def test_criterion_2_lacunarity_ratio():
    t0 = time.time()
    ok = True
    for c in (0.5, 1.0, 2.0):
        seq = curves.build_dyadic_slope_sequence(curves.power_law(c), 12)
        ratios = np.abs(seq.a[1:]) / np.abs(seq.a[:-1])
        ok = ok and np.max(np.abs(ratios - 2.0 ** (1.0 / (c + 1.0)))) <= 1e-12
    ok = ok and (time.time() - t0) < 1.0
    verdict(2, "lacunarity ratio", ok)


# -- 3 & 4: splitting hypotheses and chained estimates ----------------------------


def test_criterion_3_hypothesis_checkers():
    t0 = time.time()
    hyper = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 24)
    rep = check_hypothesis(hyper, "hyp2", 12)
    ok = rep.n == 2 and rep.stable
    exp_seq = curves.build_dyadic_slope_sequence(
        curves.renormalize(curves.exponential(), "unit_slope_origin"), 24
    )
    rep = check_hypothesis(exp_seq, "hyp1", 12)
    ok = ok and rep.n <= 3 and rep.stable
    for concave in (
        curves.build_dyadic_slope_sequence(curves.monomial(2.0), 24),
        hyper,
    ):
        rep = check_hypothesis(concave, "hyp2", 12)
        ok = ok and rep.n <= 3 and rep.stable
    ok = ok and (time.time() - t0) < 1.0
    verdict(3, "hypothesis splittings", ok)


def test_criterion_4_chained_estimates():
    ok = True
    exp_seq = curves.build_dyadic_slope_sequence(
        curves.renormalize(curves.exponential(), "unit_slope_origin"), 13
    )
    for j in range(1, 13):
        ok = ok and abs(exp_seq.b_at(j)) <= 2.0 * abs(exp_seq.a_at(j) - exp_seq.a_at(j - 1))
    concave_cases = [
        (curves.build_dyadic_slope_sequence(curves.monomial(2.0), 13), 1.0),
        (
            curves.build_dyadic_slope_sequence(
                curves.renormalize(curves.hyperboloid(), "vanishing_limits"), 13
            ),
            1.0 / math.sqrt(3.0),
        ),
    ]
    for seq, dom_len in concave_cases:
        tail = 2.0**-seq.J * dom_len
        for j in seq.segments()[:12]:
            ok = ok and abs(seq.b_at(j)) <= 2.0 * abs(seq.a_at(j) - seq.a_at(j + 1)) + tail
    verdict(4, "chained estimates", ok)


# -- 5 & 6: exact grid identities ---------------------------------------------------


def _decomposition_mismatches(curve, seq, n=1024):
    grid = FrequencyGrid(
        window=(float(seq.a[-1]), float(seq.a[0]), float(seq.b[-1]), float(seq.b[0])),
        nx=n,
        ny=n,
    )
    epi = sample_symbol(epigraph_symbol(curve, (float(seq.a[-1]), float(seq.a[0]))), grid)
    epi = epi * (grid.eta_values()[None, :] < seq.b_at(seq.j0))
    total = sample_symbol(staircase_symbol(seq), grid)
    for j in seq.segments():
        total = total + sample_symbol(boundary_piece_symbol(curve, seq, j), grid)
    bad = np.argwhere(epi != total)
    return bad, grid


def test_criterion_5_decomposition_identity():
    t0 = time.time()
    ok = True
    for curve in (curves.power_law(1.0), curves.hyperboloid()):
        seq = curves.build_dyadic_slope_sequence(curve, 8)
        bad, grid = _decomposition_mismatches(curve, seq)
        if len(bad):
            # any mismatch must sit on a step line eta = b_j or xi = a_j
            xi = grid.xi_values()[bad[:, 0]]
            eta = grid.eta_values()[bad[:, 1]]
            on_line = np.zeros(len(bad), dtype=bool)
            for v in seq.a:
                on_line |= np.abs(xi - v) < 1e-12
            for v in seq.b:
                on_line |= np.abs(eta - v) < 1e-12
            ok = ok and bool(np.all(on_line))
        ok = ok and len(bad) == 0  # identities hold exactly with shared closures
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    verdict(5, f"decomposition identity ({elapsed:.1f}s)", ok)


def test_criterion_6_rewrite_identity():
    ok = True
    for curve in (curves.power_law(1.0), curves.hyperboloid()):
        seq = curves.build_dyadic_slope_sequence(curve, 8)
        rect, comp = hyp2_rewrite_pair(seq)
        st = staircase_symbol(seq)
        pad = 0.1 * (seq.b_at(seq.j0) - float(seq.b_inf))
        grid = FrequencyGrid(
            window=(
                float(seq.a[-1]),
                float(seq.a[0]),
                float(seq.b_inf) - pad,
                seq.b_at(seq.j0) + pad,
            ),
            nx=1024,
            ny=1024,
        )
        diff = sample_symbol(rect, grid) - sample_symbol(comp, grid) - sample_symbol(st, grid)
        ok = ok and not np.any(diff)
    verdict(6, "rewrite identity", ok)


# -- 7 & 8: engine oracle and proof chain -------------------------------------------


def test_criterion_7_engine_oracle():
    rng = np.random.default_rng(901)
    L = 16.0
    # the half-plane of half_plane_evaluator as a column profile, open at
    # its lower bound: the next float above the line
    sym = SymbolSpec(
        eta_bounds=lambda xi: (np.where(xi < 0.8, np.nextafter(xi * 0.4 - 0.3, np.inf), np.inf),
                               np.full_like(xi, np.inf)),
    )
    ok = True
    for case in range(100):
        N = 64
        if case % 2:
            c = np.zeros(N, dtype=complex)
            slots = rng.choice(N, size=6, replace=False)
            c[slots] = rng.normal(size=6) + 1j * rng.normal(size=6)
            f = SampledFunction.from_coeffs(c, L)
            d = np.zeros(N, dtype=complex)
            slots = rng.choice(N, size=6, replace=False)
            d[slots] = rng.normal(size=6) + 1j * rng.normal(size=6)
            g = SampledFunction.from_coeffs(d, L)
        else:
            f = SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
            g = SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
        xi, eta = f.freqs()[:, None], f.freqs()[None, :]
        ok = ok and np.array_equal(sym(xi, eta), half_plane_evaluator(xi, eta))
        fast = apply_bilinear(sym, f, g).samples
        slow = bilinear_double_sum(half_plane_evaluator, f, g)
        scale = max(1.0, float(np.max(np.abs(slow))))
        ok = ok and np.max(np.abs(fast - slow)) <= 1e-10 * scale
    f = SampledFunction(rng.normal(size=256) + 1j * rng.normal(size=256), L)
    g = SampledFunction(rng.normal(size=256) + 1j * rng.normal(size=256), L)
    prod = apply_bilinear(constant_symbol(), f, g).samples[::2]
    scale = max(1.0, float(np.max(np.abs(f.samples * g.samples))))
    ok = ok and np.max(np.abs(prod - f.samples * g.samples)) <= 1e-10 * scale
    verdict(7, "bilinear engine oracle", ok)


def _chain_ok(rep) -> bool:
    """Criterion 8's verdict on one Hölder chain report."""
    return rep.satisfied and rep.carleson_ok and rep.identity_gap <= 1e-8 * max(1.0, rep.lhs)


@pytest.mark.parametrize("triple", [(3, 3, 3), (2, 4, 4), (4, 4, 2), (2, 3, 6)])
def test_criterion_8_proof_chain(triple):
    t0 = time.time()
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)
    e = ExponentTriple(*triple)
    N, L = 128, 32.0
    rng = np.random.default_rng(4000 + int(10 * sum(triple)))
    violations = 0
    trials = 10_000
    for _ in range(trials):
        f = SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
        g = SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
        h = SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
        if not _chain_ok(holder_chain_check(seq, f, g, h, e)):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300.0
    verdict(8, f"proof chain {triple} ({trials} trials, {elapsed:.0f}s)", ok)


# -- 9: boundedness probes -----------------------------------------------------------


def _probe_growth(sym, triple, seed, L):
    rep = norm_probe(
        sym,
        ExponentTriple(*triple),
        trials=200,
        resolutions=[128, 256, 512],
        seed=seed,
        L=L,
    )
    return rep


def test_criterion_9_boundedness_probes(tmp_path):
    checks = []
    hyper = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)
    checks.append(("hyperboloid staircase", staircase_symbol(hyper), (3, 3, 3), 48.0))

    checks.append(("exponential paraproduct", exponential_paraproduct_sum(3), (3, 3, 3), 4.0))

    poly = polygonal_epigraph_symbol(np.column_stack([hyper.a, hyper.b]))
    for triple in ((3, 3, 3), (4, 2, 4), (6, 1.5, 6)):
        checks.append((f"polygonal {triple}", poly, triple, 48.0))

    ok = True
    for name, sym, triple, L in checks:
        rep = _probe_growth(sym, triple, seed=17, L=L)
        good = rep.growth_factor < 1.5
        if not good:
            # persist the worst input pair for offline inspection
            from bmlab.cli import emit_witness
            from bmlab.config import RunConfig

            cfg = RunConfig()
            cfg.out_dir = str(tmp_path)
            emit_witness(cfg, rep)
        print(f"  probe {name}: growth {rep.growth_factor:.3f}")
        ok = ok and good
    verdict(9, "boundedness probes", ok)


def test_chain_and_probe_ratio_are_uniform_in_the_number_of_steps():
    # On (N, L) = (4 2^J, 2^J) every step of the J-step hyperboloid staircase
    # meets the grid.  With coherent inputs (f^ = 1 on the A_j, g^ = 1 on the
    # B_j, h^ = 1 on the -A_j - B_j) the chain's lhs/rhs stays near 0.6-0.4
    # from J = 6 to 12, where random draws fall to about 0.01; and the
    # operator ratio |B(f, g)|_p3' / (|f|_p1 |g|_p2) of the staircase and the
    # polygon through its vertices holds steady in J.
    ratios = {}
    for J in (6, 8, 10, 12):
        seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), J)
        N, L = 4 * 2**J, float(2**J)
        freqs = SampledFunction(np.zeros(N), L).freqs()
        steps = staircase_steps(seq)
        assert all(A.contains(freqs).any() and B.contains(freqs).any() for A, B in steps), J
        f, g, h = (SampledFunction.from_coeffs(np.any([iv.contains(freqs) for iv in ivs], axis=0), L)
                   for ivs in zip(*((A, B, neg_minkowski_sum(A, B)) for A, B in steps)))
        for triple in ((3, 3, 3), (2, 4, 4), (4, 4, 2), (2, 3, 6)):
            rep = holder_chain_check(seq, f, g, h, ExponentTriple(*triple))
            assert rep.lhs > 0.0 and _chain_ok(rep), (J, triple, rep)
        symbols = {"staircase": staircase_symbol(seq),
                   "polygonal": polygonal_epigraph_symbol(np.column_stack([seq.a, seq.b]))}
        for name, sym in symbols.items():
            out = apply_bilinear(sym, f, g)
            for triple in ((3, 3, 3), (6, 1.5, 6)):
                e = ExponentTriple(*triple)
                ratio = lp_norm(out, e.p3_dual) / (lp_norm(f, e.p1) * lp_norm(g, e.p2))
                ratios.setdefault((name, triple), []).append(ratio)
    for key, values in ratios.items():
        assert max(values) / min(values) < GROWTH_THRESHOLD, (key, values)


# -- 10: tile geometry ----------------------------------------------------------------


def test_criterion_10_whitney_geometry():
    t0 = time.time()
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 14)
    ok = True
    overlaps = {1: [], 2: [], 3: []}
    for j in seq.segments()[:7]:
        rep = whitney.build_cover(seq, j, alpha=0.9, C0=16.0, samples=10_000)
        ok = ok and rep.cover_ok and rep.containment_ok
        ov = whitney.edge_interval_collections(rep.rects, 0.9)["max_overlap"]
        for i in (1, 2, 3):
            overlaps[i].append(ov[i])
    # stability surrogate: bounded fluctuation across segments
    for i in (1, 2, 3):
        ok = ok and max(overlaps[i]) <= 1.10 * min(overlaps[i]) + 2

    for j0 in (-3, -2, -1):
        dev = whitney.partition_check(j0, 2, (0.0, 8.0 * 2.0 ** (-j0 * 1.0)))
        ok = ok and dev <= 1e-6

    js = np.arange(1, 8)
    dyadic = curves.SequencePair(
        a=-js.astype(float), b=2.0 ** (1 - js), direction="decreasing",
        j0=1, a_inf=-math.inf, b_inf=0.0,
    )
    anchor, _, s_j = whitney.segment(dyadic, 1)
    rect = whitney.RectCover(j=1, anchor=anchor, s_j=s_j,
                             k=np.array([-3]), cx=np.array([0.75]), cy=np.array([0.25]))
    tiles = whitney.enumerate_multitiles(rect, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)
    rng = np.random.default_rng(31)
    N, L = 512, 64.0
    mk = lambda: SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
    res = whitney.model_sum_eval(mk(), mk(), mk(), tiles)
    ok = ok and res["deviation"] <= 1e-6
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    verdict(10, f"whitney geometry ({elapsed:.0f}s)", ok)


# -- 11: CLI determinism ---------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path, rng):
    cfg_text = """
[curve]
family = hyperboloid
[sequence]
J = 6
hypothesis = hyp2
[grid]
N = 128
L = 16.0
[probe]
trials = 3
seed = 7
resolutions = 64 128
triples = 3,3,3
[symbol]
kind = staircase
nx = 32
ny = 32
[whitney]
C0 = 16
alpha = 0.9
B = 2
segments = 2
samples = 1500
[output]
dir = UNSET
"""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    for name in ("f.csv", "g.csv"):
        vals = rng.normal(size=128) + 1j * rng.normal(size=128)
        lines = ["re,im"] + [f"{float(v.real)!r},{float(v.imag)!r}" for v in vals]
        (tmp_path / name).write_text("\n".join(lines) + "\n")

    commands = [
        ["analyze"],
        ["check-hyp"],
        ["symbol"],
        ["apply", str(tmp_path / "f.csv"), str(tmp_path / "g.csv")],
        ["probe"],
        ["whitney"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        for run in (1, 2):
            out_dir = tmp_path / f"{cmd[0]}_{run}"
            code = main(
                [cmd[0], "--config", str(cfg_path), "--out", str(out_dir)] + cmd[1:]
            )
            ok = ok and code == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        ok = ok and outs[0] == outs[1]
    verdict(11, "CLI determinism", ok)
