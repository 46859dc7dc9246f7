"""Run configuration: flat key = value sections, one file per run.

The format is INI as read by :mod:`configparser`.  Everything that affects a
run lives in the file (the seed included; there are no wall-clock defaults),
so identical config bytes reproduce identical outputs.  The only override
hooks are the output directory and the seed, both exposed as CLI flags.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import curves, engine, symbols

__all__ = ["RunConfig", "ConfigError", "CURVE_FAMILIES", "SYMBOL_KINDS", "parse_triples"]


class ConfigError(ValueError):
    pass


CURVE_FAMILIES = {
    "power_law": lambda c: curves.power_law(_require_c(c, "power_law")),
    "hyperboloid": lambda c: curves.hyperboloid(),
    "exponential": lambda c: curves.exponential(),
    "monomial": lambda c: curves.monomial(_require_c(c, "monomial")),
    "circle_arc": lambda c: curves.circle_arc(),
    "rational": lambda c: curves.rational(_require_c(c, "rational")),
    "arctan": lambda c: curves.arctan_curve(),
}


def _require_c(c, family):
    if c is None:
        raise ConfigError(f"curve family {family} needs the parameter c")
    return c


# desk-scale ceilings of the size keys: a larger value asks for more memory
# or time than a desk run has, and values past int64 broke numpy outright
CEILINGS = {"[probe] resolutions": 1 << 20, "[probe] trials": 10_000, "[symbol] nx": 4096,
            "[symbol] ny": 4096, "[whitney] samples": 1_000_000}


@dataclass
class RunConfig:
    family: str = "hyperboloid"
    c: Optional[float] = None
    renormalize: Optional[str] = None
    J: int = 8
    L: float = 32.0
    triples: list[tuple[float, float, float]] = field(default_factory=lambda: [(3.0, 3.0, 3.0)])
    trials: int = 50
    seed: Optional[int] = None
    resolutions: list[int] = field(default_factory=lambda: [128, 256])
    hypothesis: str = "hyp2"
    symbol_kind: str = "staircase"
    bitmap_nx: int = 256
    bitmap_ny: int = 256
    window: Optional[tuple[float, float, float, float]] = None
    C0: float = 16.0
    alpha: float = 0.9
    exponent_base: int = 8
    whitney_segments: int = 4
    whitney_samples: int = 10_000
    out_dir: str = "out"
    config_sha256: str = ""

    def validate(self):
        if self.family not in CURVE_FAMILIES:
            raise ConfigError(f"[curve] family: unknown curve family {self.family}")
        if not (math.isfinite(self.L) and 1e-100 <= self.L <= 1e100):
            raise ConfigError("[grid] L must be finite and in [1e-100, 1e100] (the probe squares lengths)")
        if self.c is not None and not math.isfinite(self.c):
            raise ConfigError("[curve] c must be finite")
        if self.window is not None:
            xlo, xhi, elo, ehi = self.window
            if not (all(math.isfinite(v) for v in self.window) and xlo < xhi and elo < ehi):
                raise ConfigError("[symbol] window entries must be finite, "
                                  "with xi_lo < xi_hi and eta_lo < eta_hi")
        if self.seed is None:
            raise ConfigError("[probe] seed is required (no wall-clock defaults)")
        if not self.resolutions:
            raise ConfigError("[probe] resolutions must list at least one resolution")
        if not self.triples:
            raise ConfigError("[probe] triples must list at least one exponent triple")
        for i, N in enumerate(self.resolutions):
            if N < 2 or N & (N - 1):
                raise ConfigError(f"[probe] resolutions entry {N} is not a power of two >= 2")
            if N in self.resolutions[:i]:
                raise ConfigError(f"[probe] resolutions entry {N} is repeated")
            if N > CEILINGS["[probe] resolutions"]:
                raise ConfigError(f"[probe] resolutions entry {N} is above the ceiling "
                                  f"{CEILINGS['[probe] resolutions']}")
        for t in self.triples:
            try:
                engine.ExponentTriple(*t)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"[probe] triples entry {t}: {exc}") from None
        if self.hypothesis not in ("hyp1", "hyp2"):
            raise ConfigError("[sequence] hypothesis must be hyp1 or hyp2")
        if self.symbol_kind not in SYMBOL_KINDS:
            raise ConfigError(f"[symbol] kind: unknown symbol kind {self.symbol_kind}")
        for key, value, least in (("[sequence] J", self.J, 3), ("[probe] seed", self.seed, 0),
                                  ("[probe] trials", self.trials, 1), ("[symbol] nx", self.bitmap_nx, 1),
                                  ("[symbol] ny", self.bitmap_ny, 1), ("[whitney] B", self.exponent_base, 2),
                                  ("[whitney] segments", self.whitney_segments, 1),
                                  ("[whitney] samples", self.whitney_samples, 1)):
            if value < least:
                raise ConfigError(f"{key} must be at least {least}")
            if value > CEILINGS.get(key, value):
                raise ConfigError(f"{key} must be at most {CEILINGS[key]}")
        if not (math.isfinite(self.C0) and self.C0 > 0):
            raise ConfigError("[whitney] C0 must be finite and positive")
        if self.exponent_base > 256:
            raise ConfigError("[whitney] B must be at most 256, so the tile lengths B^(-j0) and "
                              "the kernel radius 4^(-B) of the partition check stay in floating-point range")
        if not 0.8 <= self.alpha < 0.999:
            raise ConfigError("[whitney] alpha must lie in [0.8, 0.999)")
        if self.renormalize not in (None, "unit_slope_origin", "vanishing_limits"):
            raise ConfigError("[curve] renormalize must be unit_slope_origin or vanishing_limits")
        try:
            self.curve()
        except ValueError as exc:
            raise ConfigError(f"{self.curve_keys()}: {exc}") from None
        return self

    def curve_keys(self) -> str:
        """The set ``[curve]`` keys as ``[curve] family = ..., c = ...``, for messages."""
        keys = {"family": self.family, "c": self.c, "renormalize": self.renormalize}
        return "[curve] " + ", ".join(f"{k} = {v}" for k, v in keys.items() if v is not None)

    def curve(self) -> curves.CurveSpec:
        cur = CURVE_FAMILIES[self.family](self.c)
        if self.renormalize:
            cur = curves.renormalize(cur, self.renormalize)
        return cur

    def sequence(self, J: Optional[int] = None) -> curves.SequencePair:
        """The dyadic-slope sequence of the curve, truncated at ``J`` (default: the config's)."""
        J = J if J is not None else self.J
        try:
            return curves.build_dyadic_slope_sequence(self.curve(), J)
        except curves.TruncationError as exc:
            raise ConfigError(f"[sequence] J = {self.J} asks for a truncation at {J}: {exc}") from None

    def symbol(self) -> symbols.SymbolSpec:
        """The ``[symbol] kind`` symbol built on the configured curve and truncation."""
        build = SYMBOL_KINDS.get(self.symbol_kind)
        if build is None:
            raise ConfigError(f"[symbol] kind: unknown symbol kind {self.symbol_kind}")
        return build(self)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "rb") as fh:
            raw = fh.read()
        parser = configparser.ConfigParser()
        try:
            parser.read_string(raw.decode("utf-8"))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        cfg = cls()
        cfg.config_sha256 = hashlib.sha256(raw).hexdigest()

        def get(section, key, cast, default):
            if parser.has_option(section, key):
                try:
                    return cast(parser.get(section, key))
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
            return default

        cfg.family = get("curve", "family", str, cfg.family)
        cfg.c = get("curve", "c", float, cfg.c)
        cfg.renormalize = get("curve", "renormalize", str, cfg.renormalize)
        cfg.J = get("sequence", "J", int, cfg.J)
        cfg.hypothesis = get("sequence", "hypothesis", str, cfg.hypothesis)
        cfg.L = get("grid", "L", float, cfg.L)
        cfg.trials = get("probe", "trials", int, cfg.trials)
        cfg.seed = get("probe", "seed", int, cfg.seed)
        cfg.resolutions = get(
            "probe", "resolutions", lambda s: [int(v) for v in s.split()], cfg.resolutions
        )
        cfg.triples = get("probe", "triples", parse_triples, cfg.triples)
        cfg.symbol_kind = get("symbol", "kind", str, cfg.symbol_kind)
        cfg.bitmap_nx = get("symbol", "nx", int, cfg.bitmap_nx)
        cfg.bitmap_ny = get("symbol", "ny", int, cfg.bitmap_ny)
        cfg.window = get(
            "symbol", "window", lambda s: tuple(float(v) for v in s.split()), cfg.window
        )
        if cfg.window is not None and len(cfg.window) != 4:
            raise ConfigError("[symbol] window needs four numbers: xi_lo xi_hi eta_lo eta_hi")
        cfg.C0 = get("whitney", "C0", float, cfg.C0)
        cfg.alpha = get("whitney", "alpha", float, cfg.alpha)
        cfg.exponent_base = get("whitney", "B", int, cfg.exponent_base)
        cfg.whitney_segments = get("whitney", "segments", int, cfg.whitney_segments)
        cfg.whitney_samples = get("whitney", "samples", int, cfg.whitney_samples)
        cfg.out_dir = get("output", "dir", str, cfg.out_dir)
        return cfg


def _epigraph(cfg: RunConfig) -> symbols.SymbolSpec:
    seq = cfg.sequence()
    return symbols.epigraph_symbol(cfg.curve(), (float(seq.a[-1]), float(seq.a[0])))


def _polygonal(cfg: RunConfig) -> symbols.SymbolSpec:
    seq = cfg.sequence()
    return symbols.polygonal_epigraph_symbol(np.column_stack([seq.a, seq.b]))


# [symbol] kind -> the symbol built on a config's curve and truncation
SYMBOL_KINDS = {
    "staircase": lambda cfg: symbols.staircase_symbol(cfg.sequence()),
    "epigraph": _epigraph,
    "polygonal": _polygonal,
    "exponential_paraproduct": lambda cfg: symbols.exponential_paraproduct_sum(cfg.J),
    "constant": lambda cfg: symbols.constant_symbol(),
}


def parse_triples(text: str) -> list[tuple[float, float, float]]:
    """Exponent triples "p1,p2,p3; ..." (commas or blanks inside a triple)."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [float(v) for v in chunk.replace(",", " ").split()]
        if len(parts) != 3:
            raise ValueError(f"triple needs three exponents: {chunk!r}")
        out.append(tuple(parts))
    return out
