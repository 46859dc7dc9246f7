"""Run configuration: flat key = value sections, one file per run.

The format is INI as read by :mod:`configparser`.  Everything that affects a
run lives in the file (the seed included; there are no wall-clock defaults),
so identical config bytes reproduce identical outputs.  The only override
hook is the output directory, exposed as the CLI flag ``--out``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import curves, engine, symbols

__all__ = ["RunConfig", "ConfigError", "CURVE_FAMILIES", "SYMBOL_KINDS", "parse_triples"]


class ConfigError(ValueError):
    pass


# [curve] family -> its curve
CURVE_FAMILIES = {
    "power_law": curves.power_law,
    "hyperboloid": curves.hyperboloid,
    "exponential": curves.exponential,
    "monomial": curves.monomial,
    "circle_arc": curves.circle_arc,
    "rational": curves.rational,
    "arctan": curves.arctan_curve,
}
# the families whose curve takes the parameter [curve] c; the others reject one
C_FAMILIES = ("power_law", "monomial", "rational")


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


def _key(section: str, key: str, parse, default, least=None, most=None):
    """A ``RunConfig`` field read from ``[section] key`` by ``parse`` (a
    callable ``default`` is a factory).  An integer key also declares its
    least value and, for a size key, its desk-scale ceiling: a larger value
    asks for more memory or time than a desk run has, and values past int64
    broke numpy outright."""
    meta = {"section": section, "key": key, "name": f"[{section}] {key}", "parse": parse,
            "least": least, "most": most}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


# the ceiling of each [probe] resolutions entry
MAX_RESOLUTION = 1 << 20


@dataclass
class RunConfig:
    # in the order the keys are read and checked
    family: str = _key("curve", "family", str, "hyperboloid")
    c: Optional[float] = _key("curve", "c", float, None)
    renormalize: Optional[str] = _key("curve", "renormalize", str, None)
    J: int = _key("sequence", "J", int, 8, least=3)
    hypothesis: str = _key("sequence", "hypothesis", str, "hyp2")
    L: float = _key("grid", "L", float, 32.0)
    trials: int = _key("probe", "trials", int, 50, least=1, most=10_000)
    seed: Optional[int] = _key("probe", "seed", int, None, least=0)
    resolutions: list[int] = _key("probe", "resolutions", lambda s: [int(v) for v in s.split()],
                                  lambda: [128, 256])
    triples: list[tuple[float, float, float]] = _key("probe", "triples", parse_triples,
                                                     lambda: [(3.0, 3.0, 3.0)])
    symbol_kind: str = _key("symbol", "kind", str, "staircase")
    bitmap_nx: int = _key("symbol", "nx", int, 256, least=1, most=4096)
    bitmap_ny: int = _key("symbol", "ny", int, 256, least=1, most=4096)
    window: Optional[tuple[float, float, float, float]] = _key(
        "symbol", "window", lambda s: tuple(float(v) for v in s.split()), None)
    C0: float = _key("whitney", "C0", float, 16.0)
    alpha: float = _key("whitney", "alpha", float, 0.9)
    # at most 256, so the tile lengths B^(-j0) and the kernel radius 4^(-B)
    # of the partition check stay in floating-point range
    exponent_base: int = _key("whitney", "B", int, 8, least=2, most=256)
    whitney_segments: int = _key("whitney", "segments", int, 4, least=1)
    whitney_samples: int = _key("whitney", "samples", int, 10_000, least=1, most=1_000_000)
    out_dir: str = _key("output", "dir", str, "out")
    config_sha256: str = ""

    def validate(self):
        if self.family not in CURVE_FAMILIES:
            raise ConfigError(f"[curve] family: unknown curve family {self.family}")
        if not (math.isfinite(self.L) and 1e-100 <= self.L <= 1e100):
            raise ConfigError("[grid] L must be finite and in [1e-100, 1e100] (the probe squares lengths)")
        if self.c is not None and not math.isfinite(self.c):
            raise ConfigError("[curve] c must be finite")
        if (self.c is None) == (self.family in C_FAMILIES):
            need = "needs the parameter c" if self.c is None else f"takes no parameter, so c = {self.c} is not used"
            raise ConfigError(f"[curve] c: curve family {self.family} {need}")
        if self.window is not None:
            if len(self.window) != 4:
                raise ConfigError("[symbol] window needs four numbers: xi_lo xi_hi eta_lo eta_hi")
            xlo, xhi, elo, ehi = self.window
            if not (all(math.isfinite(v) for v in self.window) and xlo < xhi and elo < ehi):
                raise ConfigError("[symbol] window entries must be finite, "
                                  "with xi_lo < xi_hi and eta_lo < eta_hi")
        if self.seed is None:
            raise ConfigError("[probe] seed is required (no wall-clock defaults)")
        if not self.out_dir:
            raise ConfigError("[output] dir is empty: name the output directory")
        if not self.resolutions:
            raise ConfigError("[probe] resolutions must list at least one resolution")
        if not self.triples:
            raise ConfigError("[probe] triples must list at least one exponent triple")
        for i, N in enumerate(self.resolutions):
            if N < 2 or N & (N - 1):
                raise ConfigError(f"[probe] resolutions entry {N} is not a power of two >= 2")
            if N in self.resolutions[:i]:
                raise ConfigError(f"[probe] resolutions entry {N} is repeated")
            if N > MAX_RESOLUTION:
                raise ConfigError(f"[probe] resolutions entry {N} is above the ceiling {MAX_RESOLUTION}")
        for t in self.triples:
            try:
                engine.ExponentTriple(*t)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"[probe] triples entry {t}: {exc}") from None
        if self.hypothesis not in ("hyp1", "hyp2"):
            raise ConfigError("[sequence] hypothesis must be hyp1 or hyp2")
        if self.symbol_kind not in SYMBOL_KINDS:
            raise ConfigError(f"[symbol] kind: unknown symbol kind {self.symbol_kind}")
        for f in fields(self):
            least, most = f.metadata.get("least"), f.metadata.get("most")
            if least is not None and getattr(self, f.name) < least:
                raise ConfigError(f"{f.metadata['name']} must be at least {least}")
            if most is not None and getattr(self, f.name) > most:
                raise ConfigError(f"{f.metadata['name']} must be at most {most}")
        if not (math.isfinite(self.C0) and self.C0 > 0):
            raise ConfigError("[whitney] C0 must be finite and positive")
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
        make = CURVE_FAMILIES[self.family]
        cur = make(self.c) if self.family in C_FAMILIES else make()
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
        for f in fields(cls):
            meta = f.metadata
            if meta and parser.has_option(meta["section"], meta["key"]):
                try:
                    setattr(cfg, f.name, meta["parse"](parser.get(meta["section"], meta["key"])))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {meta['name']}: {exc}") from exc
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
