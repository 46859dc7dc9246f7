"""Command-line front end: config-driven, deterministic, atomic outputs.

Subcommands: analyze, check-hyp, symbol, apply, probe, chain, whitney.  Exit codes:
0 success, 2 invalid configuration, input file or value, 3 I/O failure, 4 a
verification check failed (the report is still written).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import __version__, curves, engine, intervals, reporting, symbols, whitney
from .config import ConfigError, RunConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4

GROWTH_THRESHOLD = 1.5  # artifact default for probe growth alarms
WHITNEY_TOL = 1e-6  # partition and model-form deviation bound


def verdict(name: str, value, ok: bool, bound: str) -> bool:
    """One verification verdict: a failure prints one stderr line naming the
    check, the measured value and the bound it missed."""
    if not ok:
        print(f"check failed: {name} = {value!r}, bound {bound}", file=sys.stderr)
    return ok


def _envelope(cfg: RunConfig, payload: dict) -> dict:
    return {"artifact_version": __version__, "config_sha256": cfg.config_sha256, **payload}


def cmd_analyze(cfg: RunConfig) -> int:
    seq = cfg.sequence()
    try:
        cls = curves.classify_sequence(seq)
    except ValueError as exc:  # a sign change of a_j, as on the exponential curve
        raise ConfigError(f"{cfg.curve_keys()}: {exc}; set [curve] renormalize "
                          "(unit_slope_origin) to shift the curve") from None
    curve = cfg.curve()
    bands = []
    for j in seq.segments():
        inf_s, sup_s, ok = curves.slope_band_check(curve, seq.a_at(j + 1), seq.a_at(j))
        bands.append({"j": j, "inf_slope": inf_s, "sup_slope": sup_s, "band_ok": ok})
    with np.errstate(divide="ignore", invalid="ignore"):
        b_over_a = [float(v) for v in seq.b / seq.a]
    report = _envelope(
        cfg,
        {
            "family": cfg.family,
            "c": cfg.c,
            "J": cfg.J,
            "first_index": seq.j0,
            "a": [float(v) for v in seq.a],
            "b": [float(v) for v in seq.b],
            "b_over_a": b_over_a,
            "direction": seq.direction,
            "a_inf": seq.a_inf,
            "b_inf": seq.b_inf,
            "classification": dataclasses.asdict(cls),
            "slope_bands": bands,
        },
    )
    reporting.write_json(os.path.join(cfg.out_dir, "analyze.json"), report)
    return EXIT_OK


def cmd_check_hyp(cfg: RunConfig) -> int:
    seq = cfg.sequence(J=2 * cfg.J)
    rep = intervals.check_hypothesis(seq, cfg.hypothesis, cfg.J)
    payload = _envelope(cfg, rep.as_dict())
    reporting.write_json(os.path.join(cfg.out_dir, "hypothesis.json"), payload)
    ok = verdict(f"check-hyp {rep.hypothesis} colors at J={rep.J}", rep.n, rep.stable,
                 f"== {rep.n_doubled} (colors at 2J={2 * rep.J})")
    return EXIT_OK if ok else EXIT_CHECK


def _symbol_window(cfg: RunConfig, sym) -> tuple[float, float, float, float]:
    if cfg.window is not None:
        return cfg.window
    if sym.bbox is not None:
        return sym.bbox
    raise ConfigError("symbol has unbounded support; set [symbol] window")


def cmd_symbol(cfg: RunConfig) -> int:
    sym = cfg.symbol()
    window = _symbol_window(cfg, sym)
    grid = symbols.FrequencyGrid(window=window, nx=cfg.bitmap_nx, ny=cfg.bitmap_ny)
    xi, eta = grid.xi_values(), grid.eta_values()
    bitmap = symbols.sample_symbol(sym, grid)
    base = os.path.join(cfg.out_dir, f"symbol_{cfg.symbol_kind}")
    reporting.atomic_write_text(base + ".pgm", symbols.bitmap_to_pgm(bitmap))
    reporting.write_grid_csv(base + ".csv", ["xi", "eta", "amplitude"], xi, eta, *sym.columns(xi, eta))
    reporting.write_json(
        base + ".json",
        _envelope(
            cfg,
            {
                "kind": "sharp_indicator",
                "label": sym.label,
                "window": list(window),
                "nx": cfg.bitmap_nx,
                "ny": cfg.bitmap_ny,
                "ones_fraction": float(np.mean(bitmap)),
            },
        ),
    )
    return EXIT_OK


def _read_function_csv(path: str, L: float) -> engine.SampledFunction:
    """Samples from ``re,im`` rows; a malformed or non-finite row is a
    ConfigError naming the file and its 1-based line, a row count that is not
    a power of two one naming the file and the count."""
    rows = []
    with open(path, "r") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("re"):
                continue
            try:
                re_s, im_s = line.split(",")
                z = complex(float(re_s), float(im_s))
                if not cmath.isfinite(z):
                    raise ValueError
            except ValueError:
                raise ConfigError(f"{path} line {n}: need two finite numbers re,im, got {line!r}") from None
            rows.append(z)
    if len(rows) < 2 or len(rows) & (len(rows) - 1):
        raise ConfigError(f"{path}: {len(rows)} sample rows, need a power of two (at least 2)")
    return engine.SampledFunction(np.array(rows, dtype=complex), L)


def _write_function_csv(path: str, f: engine.SampledFunction):
    reporting.write_csv(path, ["re", "im"], [f.samples.real, f.samples.imag])


def cmd_apply(cfg: RunConfig, f_file: str, g_file: str) -> int:
    f = _read_function_csv(f_file, cfg.L)
    g = _read_function_csv(g_file, cfg.L)
    if f.N != g.N:
        raise ConfigError(f"{f_file} has {f.N} sample rows and {g_file} has {g.N}; they must match")
    sym = cfg.symbol()
    out = engine.apply_bilinear(sym, f, g)
    _write_function_csv(os.path.join(cfg.out_dir, "applied.csv"), out)
    return EXIT_OK


def cmd_probe(cfg: RunConfig) -> int:
    sym = cfg.symbol()
    triples = [engine.ExponentTriple(*t) for t in cfg.triples]
    reports = engine.probe_reports(sym, triples, cfg.trials, cfg.resolutions, cfg.seed, cfg.L)
    ok = True
    for rep in reports:
        # NaN (nothing measured at any resolution) fails too
        if not verdict(f"probe growth_factor {rep.triple.as_tuple()}", rep.growth_factor,
                       rep.growth_factor < GROWTH_THRESHOLD, f"< {GROWTH_THRESHOLD}"):
            ok = False
            if not math.isnan(rep.growth_factor):
                emit_witness(cfg, rep)
    growths = [rep.growth_factor for rep in reports]
    worst = math.nan if any(math.isnan(v) for v in growths) else max(growths)
    reporting.write_csv(
        os.path.join(cfg.out_dir, "probe.csv"),
        ["p1", "p2", "p3", "N", "trial_family", "max_ratio"],
        list(zip(*(row for rep in reports for row in rep.csv_rows()))),
    )
    payload = {"symbol": sym.label, "reports": [rep.as_dict() for rep in reports], "worst_growth": worst}
    reporting.write_json(os.path.join(cfg.out_dir, "probe.json"), _envelope(cfg, payload))
    return EXIT_OK if ok else EXIT_CHECK


def cmd_chain(cfg: RunConfig) -> int:
    """``holder_chain_check`` on the curve's staircase, ``[probe] trials``
    random (f, g, h) per triple and resolution as in acceptance criterion 8;
    one row per (triple, N), and one failed check per (triple, N) with a call
    that fails criterion 8's verdict."""
    seq = cfg.sequence()
    rows, ok = [], True
    for ti, t in enumerate(cfg.triples):
        e = engine.ExponentTriple(*t)
        for N in cfg.resolutions:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, N, ti)))
            ratio = gap = margin = 0.0
            failed = 0
            for _ in range(cfg.trials):
                f, g, h = (engine.SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), cfg.L)
                           for _ in range(3))
                rep = engine.holder_chain_check(seq, f, g, h, e)
                ratio = max(ratio, rep.lhs / rep.rhs_product if rep.rhs_product > 0 else 0.0)
                gap = max(gap, rep.identity_gap)
                margin = max(margin, rep.carleson_margin)
                failed += not (rep.satisfied and rep.carleson_ok
                               and rep.identity_gap <= 1e-8 * max(1.0, rep.lhs))
            rows.append({"p1": e.p1, "p2": e.p2, "p3": e.p3, "N": N, "calls": cfg.trials,
                         "worst_lhs_over_rhs": ratio, "max_identity_gap": gap,
                         "max_carleson_margin": margin, "violations": failed})
            ok = verdict(f"chain {e.as_tuple()} N={N} violations", failed, failed == 0, "== 0") and ok
    payload = {"family": cfg.family, "J": cfg.J, "L": cfg.L, "trials": cfg.trials, "seed": cfg.seed, "rows": rows}
    reporting.write_json(os.path.join(cfg.out_dir, "chain.json"), _envelope(cfg, payload))
    return EXIT_OK if ok else EXIT_CHECK


def emit_witness(cfg: RunConfig, rep: engine.ProbeReport):
    """Write ``rep.witness()`` as ``witness_<family>_<N>_{f,g}.csv`` under ``cfg.out_dir``."""
    family, N, f, g = rep.witness()
    tag = f"witness_{family}_{N}"
    _write_function_csv(os.path.join(cfg.out_dir, tag + "_f.csv"), f)
    _write_function_csv(os.path.join(cfg.out_dir, tag + "_g.csv"), g)


def cmd_whitney(cfg: RunConfig) -> int:
    seq = cfg.sequence(J=cfg.J + 4)  # vertex margin beyond tested triangles
    segs = seq.segments()[: cfg.whitney_segments]
    if len(segs) < cfg.whitney_segments:
        raise ConfigError(f"[whitney] segments = {cfg.whitney_segments} is more than the {len(segs)} "
                          f"segments of the J + 4 = {cfg.J + 4} sequence")
    covers = []
    all_ok = True
    rect_columns = []
    overlap_rows = []
    for j in segs:
        rep = whitney.build_cover(seq, j, alpha=cfg.alpha, C0=cfg.C0, samples=cfg.whitney_samples)
        covers.append(rep.as_dict())
        cover_ok = verdict(f"whitney cover j={j} uncovered samples", len(rep.witnesses),
                           rep.cover_ok, "== 0")
        inside_ok = verdict(f"whitney containment j={j} rectangles outside",
                            len(rep.containment_failures), rep.containment_ok, "== 0")
        all_ok = all_ok and cover_ok and inside_ok
        ov = whitney.edge_interval_collections(rep.rects, cfg.alpha)["max_overlap"]
        overlap_rows.append({"j": j, "overlap": {str(k): v for k, v in ov.items()}})
        rect_columns.append((np.full(len(rep.rects), j), rep.rects.k, *rep.rects.lattice()))
        if j == segs[0]:
            svg = reporting.rects_to_svg(rep.rects, curve_points=np.column_stack([seq.a, seq.b]))
            reporting.atomic_write_text(os.path.join(cfg.out_dir, "whitney_cover.svg"), svg)
    reporting.write_csv(
        os.path.join(cfg.out_dir, "whitney_rects.csv"),
        ["j", "scale_k", "mx", "my"],
        [np.concatenate(column) for column in zip(*rect_columns)],
    )

    # the three largest scales j0 <= -1 whose kernel partition_check admits
    B = cfg.exponent_base
    partition = []
    j0 = 0
    while len(partition) < 3:
        j0 -= 1
        try:
            dev = whitney.partition_check(j0, B, (0.0, 8.0 * float(B) ** (-j0)))
        except ValueError:  # kernel much wider than the tiles at this scale
            continue
        partition.insert(0, {"j0": j0, "B": B, "deviation": dev})
    part_ok = all([
        verdict(f"whitney partition j0={p['j0']} deviation", p["deviation"],
                p["deviation"] <= WHITNEY_TOL, f"<= {WHITNEY_TOL}")
        for p in partition
    ])

    model = _demo_model_sum(cfg)
    model_ok = verdict("whitney model_sum deviation", model["deviation"],
                       model["deviation"] <= WHITNEY_TOL, f"<= {WHITNEY_TOL}")

    payload = {"covers": covers, "edge_overlaps": overlap_rows, "partition": partition, "model_sum": model}
    reporting.write_json(os.path.join(cfg.out_dir, "whitney.json"), _envelope(cfg, payload))
    ok = all_ok and part_ok and model_ok
    return EXIT_OK if ok else EXIT_CHECK


def _demo_model_sum(cfg: RunConfig) -> dict:
    """Model-form identity on the built-in dyadic polygon (lattice-aligned
    anchors are required for exact modulation, so the config curve's
    irrational vertices cannot be used here)."""
    js = np.arange(1, 8)
    seq = curves.SequencePair(
        a=-js.astype(float), b=2.0 ** (1 - js), direction="decreasing",
        j0=1, a_inf=-math.inf, b_inf=0.0,
    )
    anchor, _, s_j = whitney.segment(seq, 1)
    rect = whitney.RectCover(j=1, anchor=anchor, s_j=s_j,
                             k=np.array([-3]), cx=np.array([0.75]), cy=np.array([0.25]))
    tiles = whitney.enumerate_multitiles(rect, C0=2.0, exponent_base=2, space_len=64.0, alpha=cfg.alpha)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 97)))
    N, L = 512, 64.0
    mk = lambda: engine.SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L)
    # the writer serializes the complex values as {"re": ..., "im": ...}
    return whitney.model_sum_eval(mk(), mk(), mk(), tiles)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bmlab", description="bilinear multiplier laboratory"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand shares
    common.add_argument("--config", required=True, help="path to the run config file")
    common.add_argument("--out", help="output directory override")

    def add(name, help_text, run, extra=()):
        # ``run`` names its cmd_* function at call time, so a rebound module attribute is the one called
        p = sub.add_parser(name, help=help_text, parents=[common])
        for arg, kw in extra:
            p.add_argument(arg, **kw)
        p.set_defaults(run=run)

    add("analyze", "curve report: sequences, classification, slope bands", lambda cfg, args: cmd_analyze(cfg))
    add("check-hyp", "interval-splitting report for the configured hypothesis",
        lambda cfg, args: cmd_check_hyp(cfg))
    add("symbol", "render the configured symbol as PGM/CSV/JSON", lambda cfg, args: cmd_symbol(cfg))
    add(
        "apply",
        "apply the configured symbol to two function files",
        lambda cfg, args: cmd_apply(cfg, args.f_file, args.g_file),
        extra=(
            ("f_file", {"help": "CSV of (re,im) samples for the first input"}),
            ("g_file", {"help": "CSV of (re,im) samples for the second input"}),
        ),
    )
    add("probe", "randomized operator-ratio probe across resolutions", lambda cfg, args: cmd_probe(cfg))
    add("chain", "Hölder/Carleson chain on the staircase across resolutions", lambda cfg, args: cmd_chain(cfg))
    add("whitney", "tile geometry, covers, partition and model-form reports", lambda cfg, args: cmd_whitney(cfg))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        cfg.validate()
        return args.run(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
