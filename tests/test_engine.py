import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmlab import curves, engine
from bmlab.config import SYMBOL_KINDS, RunConfig
from bmlab.engine import (
    ExponentTriple,
    SampledFunction,
    _analyze,
    _outer_lp,
    _pad,
    _period_pairing,
    _synthesize,
    apply_bilinear,
    holder_chain_check,
    lp_norm,
    norm_probe,
)
from bmlab.intervals import HalfOpenInterval, build_hyp_collection, staircase_steps
from bmlab.symbols import (SymbolSpec, constant_symbol, exponential_paraproduct_sum, hyp2_rewrite_pair,
                           rectangle_symbol, staircase_symbol)

from oracles import (
    SCALAR_TRIAL_FAMILIES,
    analyze_shifted,
    bilinear_dense_table,
    bilinear_double_sum,
    bilinear_integer_sum,
    carleson_maximal_dense,
    holder_chain_by_families,
    half_plane_evaluator,
    masked_synthesis_padded,
    mixed_norm,
    period_pairing_rolled,
    probe_reports_by_trial,
    sharp_projections,
    square_function_ratio,
    synthesize_shifted,
    trial_pair_by_scalar_draws,
    wave_packets_float_carrier,
)


def random_function(rng, N=64, L=16.0):
    return SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)


def sparse_function(rng, N=64, L=16.0, m=6):
    c = np.zeros(N, dtype=complex)
    slots = rng.choice(N, size=m, replace=False)
    c[slots] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return SampledFunction.from_coeffs(c, L)


def project(f, iv):
    """The sharp cutoff of f to the interval iv, by the oracle projection."""
    return SampledFunction(sharp_projections(f, [iv], f.N)[0], f.L)


def test_roundtrip_precision(rng):
    f = random_function(rng, 256)
    back = SampledFunction.from_coeffs(f.coeffs(), f.L)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12 * np.max(np.abs(f.samples))


# --- the centered layout ----------------------------------------------------------


@pytest.mark.parametrize("N", [64, 256, 1024])
def test_analyze_inverts_synthesize(rng, N):
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    assert np.max(np.abs(_analyze(_synthesize(c)) - c)) <= 1e-15 * np.max(np.abs(c))


@pytest.mark.parametrize("N", [64, 128, 256])
def test_period_pairing_is_the_riemann_sum(rng, N):
    L = 32.0
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    d = rng.normal(size=N) + 1j * rng.normal(size=N)
    u, v = _synthesize(_pad(c, 2 * N)), _synthesize(_pad(d, 2 * N))
    riemann = np.sum(u * v) * L / (2 * N)
    got = _period_pairing(_pad(c, 2 * N), _pad(d, 2 * N), L)
    assert abs(got - riemann) <= 1e-13 * abs(riemann)


# powers of two as the engine uses, and other even lengths the half swap also covers
LAYOUT_LENGTHS = [2**k for k in range(1, 13)] + [6, 10, 96, 1000]


@pytest.mark.parametrize("N", LAYOUT_LENGTHS)
def test_half_swap_layout_equals_numpy_shifts_bitwise(rng, N):
    for shape in [(N,), (7, N)]:
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _synthesize(c).tobytes() == synthesize_shifted(c).tobytes()
        assert _analyze(c).tobytes() == analyze_shifted(c).tobytes()
    u, v = (rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(2))
    pairings = (_period_pairing(u, v, 24.0), period_pairing_rolled(u, v, 24.0))
    assert np.asarray(pairings[0]).tobytes() == np.asarray(pairings[1]).tobytes()


def test_chain_reports_match_golden():
    # repr-equal holder_chain_check reports, as recorded by tests/make_chain_golden.py;
    # at N = 64 no B_j meets the L = 32 grid, so there M_B and every P_{B_j} g are 0
    from make_chain_golden import GOLDEN_PATH, chain_hashes

    assert chain_hashes() == json.loads(GOLDEN_PATH.read_text())["sha256"]


def test_carleson_verdict_fails_when_the_cutoffs_miss_the_steps(rng, hyperboloid_seq, monkeypatch):
    # a plan whose prefix rows hold only the empty prefix gives M_B = 0 while
    # the B_j meet the grid: the check must fail, by the largest |P_{B_j} g|
    seq = hyperboloid_seq.truncate(8)
    real = engine._chain_plan

    def empty_prefix(*key):
        plan = real(*key)
        steps = 3 * plan.steps
        masks = np.vstack([plan.masks[:steps], np.zeros((1, plan.masks.shape[1]), dtype=bool)])
        return engine._ChainPlan.build(masks, plan.owners[: steps + 1], plan.steps, plan.act)

    monkeypatch.setattr(engine, "_chain_plan", empty_prefix)
    f, g, h = (random_function(rng, 128, 32.0) for _ in range(3))
    rep = holder_chain_check(seq, f, g, h, ExponentTriple(3, 3, 3))
    largest = np.max(np.abs(sharp_projections(g, [B for _, B in staircase_steps(seq)], 128)))
    assert largest > 0.0
    assert rep.carleson_ok is False
    assert rep.carleson_margin == pytest.approx(largest, rel=1e-12)


@pytest.mark.parametrize("N", [64, 128, 256])
def test_step_cutoff_maximal_is_below_the_full_maximal(rng, hyperboloid_seq, N):
    # M_B, the max of the partial sums at the cutoffs bounding the B_j, is
    # what the chain checks the middle family against
    seq = hyperboloid_seq.truncate(8)
    plan = engine._chain_plan(seq.a.tobytes(), seq.b.tobytes(), seq.direction, N, 16.0)
    bm, prefix = plan.masks[1 : 3 * plan.steps : 3], plan.masks[3 * plan.steps :]
    assert plan.owners.tolist() == [0, 1, 2] * plan.steps + [1] * len(prefix)  # f, g, h per step; g
    assert not prefix[0].any() and len(prefix) > 2  # the empty prefix, and steps on the grid
    for row in bm:  # every B_j is the difference of two prefixes
        assert any(np.array_equal(row, hi & ~lo) for lo in prefix for hi in prefix)
    for _ in range(20):
        g = random_function(rng, N, 16.0)
        m_b = np.max(np.abs(masked_synthesis_padded(g.coeffs(), prefix, N)), axis=0)
        full = carleson_maximal_dense(g)
        assert np.all(m_b - full <= 1e-12 * np.max(full))
        assert np.all(np.abs(sharp_projections(g, [B for _, B in staircase_steps(seq)], N)) <= 2.0 * m_b + 1e-12)


@pytest.mark.parametrize("N", [64, 128, 256])
def test_projection_at_2n_subsamples_to_n(rng, hyperboloid_seq, N):
    # the Carleson check of holder_chain_check reads the slot-2 projections
    # at every other sample of the 2N grid
    g = random_function(rng, N, 32.0)
    ivs = [B for _, B in staircase_steps(hyperboloid_seq.truncate(8))]
    at_n = sharp_projections(g, ivs, N)
    assert at_n.shape == (len(ivs), N)
    assert np.max(np.abs(sharp_projections(g, ivs, 2 * N)[:, ::2] - at_n)) <= 1e-14 * np.max(np.abs(at_n))


def test_sample_count_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.zeros(48, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        SampledFunction(np.zeros(64, dtype=complex), -1.0)


def test_identity_symbol_gives_product(rng):
    f = random_function(rng, 256)
    g = random_function(rng, 256)
    h = apply_bilinear(constant_symbol(), f, g)
    assert h.N == 512
    err = np.max(np.abs(h.samples[::2] - f.samples * g.samples))
    assert err < 1e-10 * max(1.0, np.max(np.abs(f.samples * g.samples)))


def test_eta_independent_symbol_is_projection_times_g(rng):
    f = random_function(rng)
    g = random_function(rng)
    I = HalfOpenInterval(-0.7, 0.9)

    # every column in I is the whole eta-line, every other column is empty
    sym = SymbolSpec(
        eta_bounds=lambda xi: (np.where(I.contains(xi), -np.inf, np.inf), np.full_like(xi, np.inf))
    )
    out = apply_bilinear(sym, f, g)
    expect = project(f, I).samples * g.samples
    assert np.max(np.abs(out.samples[::2] - expect)) < 1e-10


def test_apply_bilinear_matches_double_sum(rng, hyperboloid_seq):
    sym = staircase_symbol(hyperboloid_seq.truncate(5))
    # exercise both a structured and a generic symbol
    rect = rectangle_symbol((-1.1, 0.3), (-0.2, 1.2))
    for symbol in (sym, rect):
        for _ in range(10):
            f = sparse_function(rng)
            g = sparse_function(rng)
            fast = apply_bilinear(symbol, f, g)
            slow = bilinear_double_sum(symbol, f, g)
            assert np.max(np.abs(fast.samples - slow)) < 1e-10


def test_dense_table_matches_double_sum(rng):
    f, g = random_function(rng, 32), random_function(rng, 32)
    dense = bilinear_dense_table(half_plane_evaluator, f, g)
    slow = bilinear_double_sum(half_plane_evaluator, f, g)
    assert np.max(np.abs(dense - slow)) <= 1e-12 * np.max(np.abs(slow))


def gaussian_integers(rng, N):
    """N coefficients with integer parts, |Re|, |Im| < 1000: every product
    and partial sum of the block action is an integer below 2^53, so exact."""
    return rng.integers(-999, 1000, N) + 1j * rng.integers(-999, 1000, N)


def _integer_cases():
    for family, c in (("hyperboloid", None), ("power_law", 1.0)):
        cfg = RunConfig(family=family, c=c)
        for kind, build in SYMBOL_KINDS.items():
            yield f"{kind}-{family}", build(cfg), cfg.L
        for sym in hyp2_rewrite_pair(cfg.sequence()):
            yield f"{sym.label}-{family}", sym, cfg.L
    yield "exponential_paraproduct_sum(8)", exponential_paraproduct_sum(8), 32.0


INTEGER_CASES = list(_integer_cases())


@pytest.mark.parametrize("name,sym,L", INTEGER_CASES, ids=[case[0] for case in INTEGER_CASES])
def test_block_action_is_the_integer_sum_exactly(rng, name, sym, L):
    # on Gaussian-integer inputs the block action has no rounding, so it must
    # equal the int64 anti-diagonal sums of the dense indicator in every slot
    live = False
    for N in (32, 64, 128, 256):
        c, d = gaussian_integers(rng, N), gaussian_integers(rng, N)
        want = bilinear_integer_sum(sym, c, d, N, L)
        assert np.array_equal(engine._bilinear_action(sym, engine._freq_grid(N, L))(c, d), want)
        live = live or want.any()
    assert live


@pytest.mark.parametrize("N", [512, 1024, 2048])
def test_rewrite_action_is_the_staircase_action_exactly(rng, power1_seq, N):
    # at L = 32 from N = 1024 on, a_last = -16 of power_law(1) at J = 8 is a
    # grid slot, where the rectangle must be closed as the staircase is
    seq = power1_seq.truncate(8)
    freqs = engine._freq_grid(N, 32.0)
    c, d = gaussian_integers(rng, N), gaussian_integers(rng, N)
    rect, comp = (engine._bilinear_action(sym, freqs)(c, d) for sym in hyp2_rewrite_pair(seq))
    assert np.array_equal(rect - comp, engine._bilinear_action(staircase_symbol(seq), freqs)(c, d))


def test_mismatched_grids_rejected(rng):
    f = random_function(rng, 64)
    g = random_function(rng, 128)
    with pytest.raises(ValueError, match="mismatched"):
        apply_bilinear(constant_symbol(), f, g)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_bilinearity(alpha_re, alpha_im):
    rng = np.random.default_rng(7)
    f1, f2, g = (random_function(rng) for _ in range(3))
    alpha = complex(alpha_re, alpha_im)
    sym = rectangle_symbol((-1.0, 1.0), (-1.0, 1.0))
    combo = SampledFunction(alpha * f1.samples + f2.samples, f1.L)
    lhs = apply_bilinear(sym, combo, g).samples
    rhs = alpha * apply_bilinear(sym, f1, g).samples + apply_bilinear(sym, f2, g).samples
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_frequency_support_law(rng):
    A = (-0.9, -0.1)
    B = (0.3, 1.1)
    sym = rectangle_symbol(A, B)
    f = random_function(rng)
    g = random_function(rng)
    out = apply_bilinear(sym, f, g)
    freqs = out.freqs()
    outside = (freqs < A[0] + B[0]) | (freqs >= A[1] + B[1])
    assert np.max(np.abs(out.coeffs()[outside])) < 1e-12


def test_projection_idempotent_and_additive(rng):
    f = random_function(rng)
    I1 = HalfOpenInterval(-1.0, 0.0)
    I2 = HalfOpenInterval(0.0, 1.0)
    u = HalfOpenInterval(-1.0, 1.0)
    p1 = project(f, I1)
    assert np.max(np.abs(project(p1, I1).samples - p1.samples)) < 1e-14
    both = p1.samples + project(f, I2).samples
    assert np.max(np.abs(both - project(f, u).samples)) < 1e-12


def test_projection_single_exponential():
    N, L = 64, 16.0
    x = L * np.arange(N) / N
    xi0 = 5.0 / L
    f = SampledFunction(np.exp(2j * np.pi * xi0 * x), L)
    inside = project(f, HalfOpenInterval(xi0, xi0 + 0.01))
    outside = project(f, HalfOpenInterval(xi0 + 0.01, xi0 + 0.5))
    assert np.max(np.abs(inside.samples - f.samples)) < 1e-12
    assert np.max(np.abs(outside.samples)) < 1e-12
    full = project(f, HalfOpenInterval(-N / (2 * L), N / (2 * L)))
    assert np.max(np.abs(full.samples - f.samples)) < 1e-12


def test_carleson_single_exponential():
    N, L = 64, 8.0
    x = L * np.arange(N) / N
    c = 2.5 - 1.0j
    f = SampledFunction(c * np.exp(2j * np.pi * 3.0 / L * x), L)
    C = carleson_maximal_dense(f)
    assert np.max(np.abs(C - abs(c))) < 1e-12


def test_carleson_dominates_projections(rng, hyperboloid_seq):
    coll = build_hyp_collection(hyperboloid_seq.truncate(8), "hyp2")
    for _ in range(100):
        g = random_function(rng, 128, 32.0)
        C = carleson_maximal_dense(g)
        assert np.all(C >= np.abs(g.samples) - 1e-12)
        for iv in coll:
            proj = project(g, iv)
            assert np.all(np.abs(proj.samples) <= 2.0 * C + 1e-12)


def test_chain_plan_cache_is_never_stale(rng, hyperboloid_seq, power1_seq):
    # equal-valued but distinct sequence objects, different truncations, an
    # equal-length pair with other values and two grids, interleaved; every
    # report must equal the one computed from an empty cache, bitwise
    e = ExponentTriple(3, 3, 3)
    inputs = [tuple(random_function(rng, N, 16.0) for _ in range(3)) for N in (64, 128)]
    seqs = [
        lambda: hyperboloid_seq.truncate(6),
        lambda: hyperboloid_seq.truncate(8),
        lambda: power1_seq.truncate(8),
    ]
    cases = [(make, fgh) for _ in range(2) for fgh in inputs for make in seqs]
    engine._chain_plan.cache_clear()
    cached = [repr(holder_chain_check(make(), *fgh, e)) for make, fgh in cases]
    assert engine._chain_plan.cache_info().hits == len(cases) - len(seqs) * len(inputs)
    fresh = []
    for make, fgh in cases:
        engine._chain_plan.cache_clear()
        fresh.append(repr(holder_chain_check(make(), *fgh, e)))
    assert cached == fresh
    assert all("lhs=0.0," not in r for r in cached)  # every case meets the staircase


def test_cached_masks_and_phases_are_read_only(hyperboloid_seq, power1_seq):
    for seq, N in [(hyperboloid_seq, 128), (hyperboloid_seq, 1024), (power1_seq, 1024)]:
        seq = seq.truncate(8)
        plan = engine._chain_plan(seq.a.tobytes(), seq.b.tobytes(), seq.direction, N, 32.0)
        with pytest.raises(ValueError, match="read-only"):
            plan.masks[0, 0] = not plan.masks[0, 0]
        with pytest.raises(ValueError, match="read-only"):
            plan.owners[0] = 2
        for blk in plan.blocks:
            for a in (*blk.fill, blk.steps, blk.prefix, blk.live, blk.fgh):
                if a.size:
                    with pytest.raises(ValueError, match="read-only"):
                        a.flat[0] = 0


def test_grid_action_is_built_once_per_symbol_and_grid(monkeypatch, hyperboloid_seq):
    sym = staircase_symbol(hyperboloid_seq.truncate(8))
    assert engine._grid_action(sym, 128, 32.0) is engine._grid_action(sym, 128, 32.0)
    assert engine._grid_action.cache_info().maxsize == engine._chain_plan.cache_info().maxsize == 8
    args = dict(e=ExponentTriple(3, 3, 3), trials=3, resolutions=[64, 256], seed=4, L=16.0)
    first = norm_probe(sym, **args)
    real, calls = engine._bilinear_action, []
    monkeypatch.setattr(engine, "_bilinear_action", lambda *a: calls.append(a) or real(*a))
    assert repr(norm_probe(sym, **args)) == repr(first)
    assert calls == []


def test_a_fresh_symbol_never_gets_another_symbols_action(rng, hyperboloid_seq, power1_seq):
    # fresh symbols of two staircases, built and dropped in turn until the
    # cache has evicted and the ids of dropped symbols may be reused: each
    # applies as its own action built from scratch does, to the bit
    N, L = 64, 16.0
    c, d = (rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(2))
    seqs = [hyperboloid_seq.truncate(8), power1_seq.truncate(8)]
    want = [engine._bilinear_action(staircase_symbol(seq), engine._freq_grid(N, L))(c, d) for seq in seqs]
    assert want[0].tobytes() != want[1].tobytes()
    for i in range(40):
        sym = staircase_symbol(seqs[i % 2])
        assert engine._grid_action(sym, N, L)(c, d).tobytes() == want[i % 2].tobytes()
        assert sym != staircase_symbol(seqs[i % 2])  # equal values, yet another symbol


def test_cached_packet_grids_are_read_only():
    for N, L in [(2, 48.0), (256, 48.0), (2048, 32.0)]:
        for a in engine._packet_grid(N, L):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]


def test_mixed_norm_constants():
    N, L = 64, 8.0
    c = 3.0 - 4.0j
    f = SampledFunction(np.full(N, c), L)
    for p in (1.5, 2.0, 4.0):
        assert abs(lp_norm(f, p) - abs(c) * L ** (1.0 / p)) < 1e-12
    two = mixed_norm([f, f], 2.0, inner="l2")
    assert abs(two - np.sqrt(2.0) * lp_norm(f, 2.0)) < 1e-12
    assert abs(mixed_norm([f, f], 2.0, inner="linf") - lp_norm(f, 2.0)) < 1e-12


def test_parseval(rng):
    f = random_function(rng, 128)
    assert abs(lp_norm(f, 2.0) - np.linalg.norm(f.coeffs()) * np.sqrt(f.L)) < 1e-10


def test_mixed_norm_validation(rng):
    rows = np.stack([random_function(rng).samples for _ in range(2)])
    with pytest.raises(ValueError, match="outer exponent"):
        _outer_lp(np.abs(rows), 0.5, 8.0)  # a (trials, N) probe batch
    with pytest.raises(ValueError, match="outer exponent"):
        lp_norm(SampledFunction(rows[0], 8.0), 0.5)


def test_exponent_triple():
    e = ExponentTriple(3.0, 3.0, 3.0)
    assert abs(e.p3_dual - 1.5) < 1e-15
    with pytest.raises(ValueError):
        ExponentTriple(2.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        ExponentTriple(1.0, 4.0, 4.0)


def test_holder_chain_zero_input(hyperboloid_seq, rng):
    N, L = 128, 32.0
    z = SampledFunction(np.zeros(N, dtype=complex), L)
    g = random_function(rng, N, L)
    h = random_function(rng, N, L)
    rep = holder_chain_check(hyperboloid_seq.truncate(8), z, g, h, ExponentTriple(3, 3, 3))
    assert rep.lhs == 0.0 and rep.satisfied
    with pytest.raises(ValueError, match="nonzero"):
        holder_chain_check(hyperboloid_seq.truncate(8), z, g, z, ExponentTriple(3, 3, 3))


@pytest.mark.parametrize("triple", [(3, 3, 3), (2, 4, 4), (4, 2, 4), (2, 3, 6)])
def test_holder_chain_randomized(rng, hyperboloid_seq, triple):
    seq = hyperboloid_seq.truncate(8)
    e = ExponentTriple(*triple)
    for _ in range(200):
        f = random_function(rng, 128, 32.0)
        g = random_function(rng, 128, 32.0)
        h = random_function(rng, 128, 32.0)
        rep = holder_chain_check(seq, f, g, h, e)
        assert rep.satisfied
        assert rep.identity_gap <= 1e-8 * max(1.0, rep.lhs)
        assert rep.carleson_ok


def test_square_function_parseval(rng):
    f = random_function(rng, 128, 32.0)
    band = f.N / (2 * f.L)
    cover = [HalfOpenInterval(-band, 0.0), HalfOpenInterval(0.0, band + 1e-9)]
    rep = square_function_ratio(f, cover, 2.0)
    assert abs(rep["upper_ratio"] - 1.0) < 1e-10
    assert abs(rep["lower_ratio"] - 1.0) < 1e-10


def test_square_function_single_interval_support(rng):
    N, L = 128, 32.0
    c = np.zeros(N, dtype=complex)
    c[N // 2 + 3 : N // 2 + 7] = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = SampledFunction.from_coeffs(c, L)
    coll = [HalfOpenInterval(2.5 / L, 7.5 / L), HalfOpenInterval(20.0 / L, 30.0 / L)]
    rep = square_function_ratio(f, coll, 4.0)
    assert abs(rep["upper_ratio"] - 1.0) < 1e-10
    assert rep["lower_ratio"] is None  # the family does not cover the band


def test_square_function_lacunary_stable_across_resolutions():
    coll = [HalfOpenInterval(2.0**k, 2.0**(k + 1)) for k in range(-3, 4)]
    coll += [HalfOpenInterval(-(2.0 ** (k + 1)), -(2.0**k)) for k in range(-3, 4)]
    ratios = []
    for N in (128, 256):
        rng = np.random.default_rng(99)
        vals = [
            square_function_ratio(random_function(rng, N, 32.0), coll, 4.0)["upper_ratio"]
            for _ in range(40)
        ]
        ratios.append(max(vals))
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) <= 1.6 * min(ratios)  # recorded constant is resolution-stable


def test_square_function_zero_rejected():
    with pytest.raises(ValueError):
        square_function_ratio(SampledFunction(np.zeros(64, dtype=complex), 8.0), [], 2.0)


def test_norm_probe_reproducible_and_bounded():
    e = ExponentTriple(3.0, 3.0, 3.0)
    r1 = norm_probe(constant_symbol(), e, trials=6, resolutions=[64, 128], seed=11, L=8.0)
    r2 = norm_probe(constant_symbol(), e, trials=6, resolutions=[64, 128], seed=11, L=8.0)
    assert r1.as_dict() == r2.as_dict()
    assert max(row["max_ratio"] for row in r1.rows) <= 1.0 + 1e-6
    assert list(r1.csv_rows())[0][:3] == (3.0, 3.0, 3.0)


def trial_pair(family, key, N, L):
    """The probe's (f, g) for one seed key: a batch of one."""
    (fs, _), (gs, _) = engine._trial_batch(family, [key], N, L)
    return SampledFunction(fs[0], L), SampledFunction(gs[0], L)


def test_norm_probe_rank_one_cross_check():
    e = ExponentTriple(4.0, 4.0, 2.0)
    A = (-0.8, -0.1)
    B = (0.2, 0.9)
    sym = rectangle_symbol(A, B)
    N, L = 64, 8.0
    for t in range(20):
        f, g = trial_pair("sparse_spectrum", (3, 0, 0, t), N, L)
        out = apply_bilinear(sym, f, g)
        pf = project(f, HalfOpenInterval(*A))
        pg = project(g, HalfOpenInterval(*B))
        ratio = lp_norm(out, e.p3_dual) / (lp_norm(f, e.p1) * lp_norm(g, e.p2))
        bound = (lp_norm(pf, e.p1) / lp_norm(f, e.p1)) * (lp_norm(pg, e.p2) / lp_norm(g, e.p2))
        assert ratio <= bound + 1e-9


def test_probe_reports_share_trials_across_triples():
    # one pass over the trials for two triples reports what two separate probes report
    sym = staircase_symbol(curves.build_dyadic_slope_sequence(curves.hyperboloid(), 6))
    triples = [ExponentTriple(3, 3, 3), ExponentTriple(2, 4, 4)]
    args = dict(trials=4, resolutions=[128, 64], seed=5, L=16.0)
    shared = engine.probe_reports(sym, triples, args["trials"], args["resolutions"], args["seed"], args["L"])
    assert repr(shared) == repr([norm_probe(sym, e, **args) for e in triples])
    assert len({repr(r.rows) for r in shared}) == 2


def test_norm_probe_trial_validation():
    with pytest.raises(ValueError):
        norm_probe(constant_symbol(), ExponentTriple(3, 3, 3), trials=0,
                   resolutions=[64], seed=1)


@pytest.mark.parametrize("resolutions, bad", [([], "at least one"), ([0], "resolution 0 "),
                                              ([3], "resolution 3 "), ([64, 6], "resolution 6 "),
                                              ([64.5], "resolution 64.5 ")],
                         ids=["empty", "zero", "three", "six", "fraction"])
def test_norm_probe_resolution_validation(resolutions, bad):
    # the grid layout and the exact carriers need a power of two; an empty or
    # zero list once ended in IndexError, [3] returned wrong rows and 64.5
    # ran as 64
    with pytest.raises(ValueError, match=bad):
        norm_probe(constant_symbol(), ExponentTriple(3, 3, 3), trials=2, resolutions=resolutions, seed=1)


@pytest.mark.parametrize("N", [2, 4, 64, 4096])
@pytest.mark.parametrize("family", list(engine.PROBE_FAMILIES))
def test_trial_batch_rows_are_the_single_trials(family, N):
    # row t of a batch is bitwise the pair drawn alone, and the pair the
    # scalar generators draw
    L = 48.0
    keys = [(5, 1, 2, t) for t in range(6)]
    (fs, cf), (gs, cg) = engine._trial_batch(family, keys, N, L)
    assert fs.shape == gs.shape == cf.shape == cg.shape == (len(keys), N)
    for row, key in enumerate(keys):
        f, g = trial_pair(family, key, N, L)
        (f0, cf0), (g0, cg0) = trial_pair_by_scalar_draws(family, key, N, L)
        assert fs[row].tobytes() == f.samples.tobytes() == f0.samples.tobytes()
        assert gs[row].tobytes() == g.samples.tobytes() == g0.samples.tobytes()
        assert cf[row].tobytes() == cf0.tobytes() and cg[row].tobytes() == cg0.tobytes()


@pytest.mark.parametrize("N", [2**k for k in range(1, 13)])
@pytest.mark.parametrize("family", list(engine.PROBE_FAMILIES))
def test_probe_families_draw_as_the_scalar_families(family, N):
    # row by row, the batched family draws the samples, the coefficients and
    # the generator state after f and after g of its scalar oracle, in bytes
    L = 48.0
    for trials in (1, 3, 64):
        keys = [(8, 3, 1, t) for t in range(trials)]
        rngs = [np.random.default_rng(np.random.SeedSequence(key)) for key in keys]
        scalar = [np.random.default_rng(np.random.SeedSequence(key)) for key in keys]
        for _ in ("f", "g"):
            samples, coeffs = engine.PROBE_FAMILIES[family](rngs, N, L)
            assert samples.shape == coeffs.shape == (trials, N)
            for row, rng in enumerate(scalar):
                want_samples, want_coeffs = SCALAR_TRIAL_FAMILIES[family](rng, N, L)
                assert samples[row].tobytes() == want_samples.tobytes()
                assert coeffs[row].tobytes() == want_coeffs.tobytes()
                assert rngs[row].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("N", [2, 4, 64, 1024, 4096])
@pytest.mark.parametrize("family", list(engine.PROBE_FAMILIES))
def test_trial_coefficients_are_the_analysed_samples(family, N):
    # a family's coefficients, drawn or analysed, are its samples' spectrum
    keys = [(2, 0, 1, t) for t in range(4)]
    for samples, coeffs in engine._trial_batch(family, keys, N, 48.0):
        want = engine._analyze(samples)
        assert np.max(np.abs(coeffs - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [2, 4, 64, 512, 2048, 4096])
def test_wave_packet_carriers_match_the_float_carrier(N):
    # the exact root-of-unity carriers move the samples by rounding alone
    # against the carrier evaluated at the rounded phase 2 pi k0 x / L
    L = 48.0
    for t in range(20):
        f, g = trial_pair("wave_packets", (9, 0, 0, t), N, L)
        rng = np.random.default_rng(np.random.SeedSequence((9, 0, 0, t)))
        for got in (f.samples, g.samples):
            want = wave_packets_float_carrier(rng, N, L)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_probe_reports_match_the_per_trial_loop_across_batches():
    # 40 trials at N = 512 run as batches of 16, 16 and 8
    assert engine.BATCH_SAMPLES // 512 == 16
    sym = staircase_symbol(curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8))
    triples = [ExponentTriple(3, 3, 3), ExponentTriple(4, 2, 4)]
    args = (sym, triples, 40, [512, 64], 3, 48.0)
    assert repr(engine.probe_reports(*args)) == repr(probe_reports_by_trial(*args))


def _constant_rows(keep):
    """A probe family of constant rows, each kept (else zero) by ``keep(rng)``,
    with their coefficients."""
    def family(rngs, N, L):
        rows = np.array([np.full(N, 1.0 + 0j) * keep(rng) for rng in rngs])
        return rows, engine._analyze(rows)
    return family


def test_probe_argmax_is_the_first_maximal_trial(monkeypatch):
    # equal ratios on every trial whose f and g are both nonzero, batches of
    # two: the first such trial wins; with every denominator 0 none does
    N, seed, trials = 64, 3, 9
    monkeypatch.setattr(engine, "BATCH_SAMPLES", 2 * N)
    monkeypatch.setattr(engine, "PROBE_FAMILIES", {"ties": _constant_rows(lambda rng: rng.integers(2))})

    def kept(t):  # f's draw, then g's, from trial t's generator
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0, t)))
        return [rng.integers(2), rng.integers(2)] == [1, 1]

    ties = [t for t in range(trials) if kept(t)]
    first = ties[0]
    assert first > 0 and len(ties) > 1
    row = norm_probe(constant_symbol(), ExponentTriple(3, 3, 3), trials, [N], seed, 8.0).rows[0]
    assert row["argmax_trial"] == first and row["max_ratio"] > 0
    monkeypatch.setattr(engine, "PROBE_FAMILIES", {"zero": _constant_rows(lambda rng: 0.0)})
    row = norm_probe(constant_symbol(), ExponentTriple(3, 3, 3), trials, [N], seed, 8.0).rows[0]
    assert (row["argmax_trial"], row["max_ratio"]) == (-1, 0.0)


@pytest.mark.parametrize("N", [64, 128, 1024, 4096])
@pytest.mark.parametrize("which", ["hyperboloid", "power1"])
def test_holder_chain_matches_the_family_oracle(rng, hyperboloid_seq, power1_seq, which, N):
    # at N = 64 no hyperboloid B_j meets the L = 32 grid; from N = 1024 on the
    # rows no longer fit one stacked synthesis of BATCH_SAMPLES samples
    seq = {"hyperboloid": hyperboloid_seq, "power1": power1_seq}[which].truncate(8)
    plan = engine._chain_plan(seq.a.tobytes(), seq.b.tobytes(), seq.direction, N, 32.0)
    assert (len(plan.blocks) > 1) == (N >= 1024)
    e = ExponentTriple(2, 3, 6)
    for _ in range(2):
        f, g, h = (random_function(rng, N, 32.0) for _ in range(3))
        got, want = holder_chain_check(seq, f, g, h, e), holder_chain_by_families(seq, f, g, h, e)
        for name in ("lhs", "rhs_product"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
        assert got.factors == pytest.approx(want.factors, rel=1e-12, abs=0.0)
        # a gap and a margin are differences at the rounding level of their scale
        assert abs(got.identity_gap - want.identity_gap) <= 1e-12 * max(1.0, want.lhs)
        assert abs(got.carleson_margin - want.carleson_margin) <= 1e-12 * max(1.0, np.max(np.abs(g.samples)))
        assert (got.satisfied, got.carleson_ok) == (want.satisfied, want.carleson_ok)


@pytest.mark.parametrize(
    "curve, N, sizes, synthesized",
    [
        pytest.param("hyperboloid", 128, [25], [13], id="128-sizes0"),
        pytest.param("hyperboloid", 256, [15, 10], [10, 5], id="256-sizes1"),
        pytest.param("hyperboloid", 512, [6, 6, 6, 7], [6, 5, 2, 5], id="512-sizes2"),
        pytest.param("hyperboloid", 1024, [3] * 6 + [4, 3], [3, 3, 3, 3, 2, 2, 2, 3], id="1024-sizes3"),
        pytest.param("hyperboloid", 4096, [3] * 8 + [1], [3, 3, 3, 3, 2, 2, 2, 2, 1], id="4096-sizes4"),
        pytest.param("hyperboloid", 64, [22], [4], id="64-sizes5"),
        pytest.param("power1", 1024, [3] * 6 + [4] * 3, [3] * 7 + [4, 4], id="power1-1024"),
    ],
)
def test_chain_blocks_are_whole_steps_then_the_prefix_rows(hyperboloid_seq, power1_seq, curve, N, sizes,
                                                           synthesized):
    # 7 steps (21 rows) and the prefix rows (on the hyperboloid 4, or at
    # N = 64 only the empty prefix; on power_law(1) 9): the prefix rows fill
    # the last block of steps up to BATCH_SAMPLES before they take blocks of
    # their own.  A block synthesizes each distinct non-empty (owner, mask)
    # once: on the hyperboloid 22 rows -> 4 at N = 64, 25 -> 13 at N = 128,
    # 15 at 256, 21 at 1024 and 4096
    seq = {"hyperboloid": hyperboloid_seq, "power1": power1_seq}[curve].truncate(8)
    plan = engine._chain_plan(seq.a.tobytes(), seq.b.tobytes(), seq.direction, N, 32.0)
    steps = 3 * plan.steps
    assert (plan.steps, len(plan.masks)) == (7, sum(sizes))
    assert [3 * len(blk.steps) + len(blk.prefix) for blk in plan.blocks] == sizes
    assert [blk.rows for blk in plan.blocks] == synthesized
    for r0, blk in zip(np.cumsum([0] + sizes[:-1]), plan.blocks):
        pick = np.concatenate([blk.steps.reshape(-1), blk.prefix])  # the row each plan row reads
        rows = len(pick)
        assert r0 >= steps or r0 % 3 == 0 and (r0 + rows >= steps or rows % 3 == 0)
        assert blk.steps.shape == (max(0, min(rows, steps - r0)) // 3, 3)  # the rows of whole steps lead
        # the arrays a call allocates per block stay within BATCH_SAMPLES (or one step)
        assert (blk.rows + blk.empty) * 2 * N <= max(3 * 2 * N, engine.BATCH_SAMPLES)
        # a plan row reads the row of its (owner, mask), synthesized from its
        # input's coefficients on its slots, or the zero row -1 when empty
        masks, owners = plan.masks[r0 : r0 + rows], plan.owners[r0 : r0 + rows]
        z = np.zeros((blk.rows, 2 * N))
        z.reshape(-1)[blk.fill[0]] = 1.0 + blk.fill[1]  # tags each kept slot by its input and slot
        first = {}
        for i, (row, owner) in enumerate(zip(masks, owners)):
            slots = np.flatnonzero(row)
            if not len(slots):
                assert pick[i] == -1
                continue
            assert pick[i] == pick[first.setdefault((owner, row.tobytes()), i)]
            assert np.array_equal(np.flatnonzero(z[pick[i]]), np.sort((slots - N // 2) % (2 * N)))
            assert np.array_equal(z[pick[i], (slots - N // 2) % (2 * N)], 1.0 + owner * N + slots)
        assert set(pick.tolist()) - {-1} == set(range(blk.rows)) and blk.rows == len(first)
        assert blk.empty == (-1 in pick)
        # the products are those of the steps with no empty row
        live = [j for j, fgh in enumerate(blk.steps) if min(fgh) >= 0]
        assert blk.live.tolist() == [r0 // 3 + j for j in live]
        assert blk.fgh.T.tolist() == blk.steps[live].tolist()


def test_holder_chain_memory_at_large_n(hyperboloid_seq):
    # one call at N = 4096 (M = 8192): each (7, M) complex family alone takes
    # 0.875 MiB; the stacked synthesis runs in blocks, each reduced before the next
    seq = hyperboloid_seq.truncate(8)
    rng = np.random.default_rng(11)
    f, g, h = (random_function(rng, 4096, 32.0) for _ in range(3))
    e = ExponentTriple(3, 3, 3)
    holder_chain_check(seq, f, g, h, e)  # the plan is cached; its build is not measured
    tracemalloc.start()
    try:
        rep = holder_chain_check(seq, f, g, h, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.satisfied and rep.carleson_ok
    assert peak <= 3.9 * 2**20
