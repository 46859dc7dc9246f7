"""Span tracer installed from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every public function of the bmlab layer modules
(and ``SymbolSpec.__call__``, ``RunConfig.from_file``/``validate``) with a
wrapper that records a span: name, start, end, parent span, the tracemalloc
peak inside the call and a few counts read from the call's arguments or
result.  Names other modules imported directly (``whitney.apply_bilinear``,
``engine.staircase_symbol``, ...) are replaced too, so calls made inside the
package are caught.  Spans stay in memory; ``layer_metrics`` turns the spans
of one traced pass into the per-layer metrics listed in ``PER_LAYER``.

A span's self time is its duration minus the durations of its child spans
and of the tracer's own count hooks run inside it.  Peak memory comes from
a separate pass with tracemalloc on (``Tracer(memory=True)``).
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
import types
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("curves", "intervals", "symbols", "engine", "whitney", "bumps", "reporting", "config", "cli")
METHODS = (("symbols", "SymbolSpec", "__call__"), ("config", "RunConfig", "from_file"),
           ("config", "RunConfig", "validate"))

# span name -> metric group; a span whose name is not listed is its own group
GROUPS = {
    "symbols.SymbolSpec.__call__": "symbols.eval",
    "symbols.sample_symbol": "symbols.sample",
    "symbols.bitmap_to_pgm": "symbols.pgm",
    "engine.carleson_hunt_maximal": "engine.carleson",
    "engine.mixed_norm": "engine.lp_norm",
    "whitney.edge_interval_collections": "whitney.edge_overlap",
    "bumps.smooth_step": "bumps.adapted_bump",
    "curves.build_dyadic_slope_sequence": "curves.sequence",
    "curves.slope_band_check": "curves.slope_band",
    "config.RunConfig.from_file": "config.load",
    "config.RunConfig.validate": "config.load",
    "cli.cmd_analyze": "cli.analyze",
    "cli.cmd_check_hyp": "cli.check-hyp",
    "cli.cmd_symbol": "cli.symbol",
    "cli.cmd_apply": "cli.apply",
    "cli.cmd_probe": "cli.probe",
    "cli.cmd_whitney": "cli.whitney",
}
PROBE_RESOLUTIONS = (256, 512, 1024, 2048)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _covered(rep):
    return {"rects": len(rep.rects), "samples": rep.samples_used,
            "covered": rep.samples_used - len(rep.witnesses)}


# count hooks: span name -> (result, args, kwargs) -> {count: value}
OBSERVE = {
    "symbols.SymbolSpec.__call__": lambda r, a, k: {"points": r.size, "nonzero": int(np.count_nonzero(r))},
    "engine.norm_probe": lambda r, a, k: {"top_N": r.resolutions[-1]},
    "whitney.build_cover": lambda r, a, k: _covered(r),
    "whitney.enumerate_multitiles": lambda r, a, k: {"tiles": len(r)},
    "bumps.fejer_sq_cdf": lambda r, a, k: {"points": int(np.size(_arg(a, k, 0, "x")))},
    "reporting.atomic_write_text": lambda r, a, k: {"bytes": len(_arg(a, k, 1, "text").encode())},
    "intervals.check_hypothesis": lambda r, a, k: {"colors": r.n},
}


def group_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    if layer == "reporting":
        return "reporting.write"  # every reporting function is a writer
    if layer == "symbols" and name not in GROUPS:
        return "symbols.build"  # every other public symbols function constructs a symbol
    return GROUPS.get(name, name)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float = 0.0
    end: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0
    hook_s: float = 0.0  # time of this span's count hook, spent inside the parent
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the package's public functions while installed.

    With ``memory`` set, tracemalloc runs too and each span records the peak
    traced memory inside its call.  tracemalloc slows every allocation, so
    times come from a tracer without it.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"bmlab.{name}") for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # rebind the module attribute and every direct import of it
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, replaced[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, raw))
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, observe, args, kwargs)

        return traced

    # -- recording --------------------------------------------------------------

    def _call(self, name, fn, observe, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(len(self.spans), parent.id if parent else -1, name)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_bytes = max(parent.peak_bytes, peak)
            tracemalloc.reset_peak()
            span.base_bytes = span.peak_bytes = cur
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if self.memory:
                _, peak = tracemalloc.get_traced_memory()
                span.peak_bytes = max(span.peak_bytes, peak)
                if parent is not None:
                    parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)
                tracemalloc.reset_peak()
        if observe is not None:
            t0 = perf_counter()
            span.counts = observe(result, args, kwargs)
            span.hook_s = perf_counter() - t0
        return result

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list; span
        ids index the list they are handed over in."""
        spans, self.spans = self.spans, []
        return spans


# -- per-layer metrics ------------------------------------------------------------

# (metric, unit); every traced run reports all of them, 0 where a layer is idle
PER_LAYER = [
    ("symbols.eval.calls", "count"), ("symbols.eval.points", "count"),
    ("symbols.eval.self_s", "s"), ("symbols.eval.nonzero_frac", "ratio"),
    ("symbols.build.self_s", "s"), ("symbols.sample.self_s", "s"), ("symbols.pgm.self_s", "s"),
    ("engine.apply_bilinear.calls", "count"), ("engine.apply_bilinear.self_s", "s"),
    ("engine.apply_bilinear.peak_mb", "MiB"),
    ("engine.holder_chain_check.calls", "count"), ("engine.holder_chain_check.self_s", "s"),
    ("engine.carleson.calls", "count"), ("engine.carleson.self_s", "s"), ("engine.carleson.peak_mb", "MiB"),
    ("engine.lp_norm.calls", "count"), ("engine.lp_norm.self_s", "s"),
    ("engine.make_trial_pair.self_s", "s"),
    ("engine.norm_probe.calls", "count"), ("engine.norm_probe.self_s", "s"),
    ("engine.norm_probe.peak_mb", "MiB"),
] + [(f"engine.norm_probe.N{n}_s", "s") for n in PROBE_RESOLUTIONS] + [
    ("whitney.build_cover.calls", "count"), ("whitney.build_cover.self_s", "s"),
    ("whitney.rects", "count"), ("whitney.cover_hit_frac", "ratio"), ("whitney.rect_dedup_ratio", "ratio"),
    ("whitney.edge_overlap.self_s", "s"),
    ("whitney.partition_check.calls", "count"), ("whitney.partition_check.self_s", "s"),
    ("whitney.enumerate_multitiles.self_s", "s"), ("whitney.tiles", "count"),
    ("whitney.model_sum_eval.self_s", "s"), ("whitney.model_sum_eval.peak_mb", "MiB"),
    ("bumps.fejer_sq_cdf.calls", "count"), ("bumps.fejer_sq_cdf.points", "count"),
    ("bumps.fejer_sq_cdf.self_s", "s"),
    ("bumps.adapted_bump.calls", "count"), ("bumps.adapted_bump.self_s", "s"),
    ("reporting.write.calls", "count"), ("reporting.write.self_s", "s"), ("reporting.bytes", "B"),
    ("curves.sequence.calls", "count"), ("curves.sequence.self_s", "s"), ("curves.slope_band.self_s", "s"),
    ("intervals.check_hypothesis.self_s", "s"), ("intervals.colors", "count"),
    ("config.load_s", "s"),
    ("cli.analyze_s", "s"), ("cli.check-hyp_s", "s"), ("cli.symbol_s", "s"),
    ("cli.apply_s", "s"), ("cli.probe_s", "s"), ("cli.whitney_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("bench.own_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
]


@dataclass
class GroupStats:
    calls: int = 0  # entries from outside the group
    self_s: float = 0.0
    incl_s: float = 0.0  # summed duration of those entries
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= (s.end - s.start) + s.hook_s
    return out


def check_spans(spans: list[Span], wall_s: float) -> dict:
    """Tracer self-check: spans nest, self times are non-negative, and self
    times plus hook time plus the benchmark's own time add up to ``wall_s``."""
    selfs = self_times(spans)
    nested = all(
        s.parent < 0 or (spans[s.parent].start <= s.start and s.end <= spans[s.parent].end)
        for s in spans
    )
    roots = [s for s in spans if s.parent < 0]
    own_s = wall_s - sum(s.end - s.start + s.hook_s for s in roots)
    hook_s = sum(s.hook_s for s in spans)
    total = sum(selfs) + hook_s + own_s
    ok = (nested and min(selfs, default=0.0) >= -1e-9 and own_s >= -1e-6
          and abs(total - wall_s) <= 1e-9 * max(1, len(spans)) + 1e-6 * wall_s)
    return {"ok": bool(ok), "nested": nested, "min_self_s": min(selfs, default=0.0),
            "own_s": own_s, "hook_s": hook_s, "self_sum_s": sum(selfs)}


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; the caller adds ``trace.*``."""
    selfs = self_times(spans)
    groups: dict[str, GroupStats] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    top_n: dict[int, float] = {}
    for s, self_s in zip(spans, selfs):
        g = group_of(s.name)
        st = groups.setdefault(g, GroupStats())
        st.self_s += self_s
        layer_self[s.name.split(".", 1)[0]] += self_s
        if s.parent < 0 or group_of(spans[s.parent].name) != g:
            st.calls += 1
            st.incl_s += s.end - s.start
        st.peak_bytes = max(st.peak_bytes, s.peak_bytes - s.base_bytes)
        for key, value in s.counts.items():
            if key == "top_N":
                top_n[value] = top_n.get(value, 0.0) + (s.end - s.start)
            else:
                st.counts[key] = st.counts.get(key, 0) + value

    def g(name):
        return groups.get(name, GroupStats())

    m: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        head, _, leaf = name.rpartition(".")
        if leaf in ("calls", "self_s") and head in groups:
            m[name] = float(getattr(groups[head], leaf))
        elif leaf == "peak_mb":
            m[name] = g(head).peak_bytes / 2**20
    for n in PROBE_RESOLUTIONS:
        m[f"engine.norm_probe.N{n}_s"] = top_n.get(n, 0.0)
    ev = g("symbols.eval").counts
    m["symbols.eval.points"] = float(ev.get("points", 0))
    m["symbols.eval.nonzero_frac"] = ev.get("nonzero", 0) / ev["points"] if ev.get("points") else 0.0
    cover = g("whitney.build_cover").counts
    samples = cover.get("samples", 0)
    m["whitney.rects"] = float(cover.get("rects", 0))
    m["whitney.cover_hit_frac"] = cover.get("covered", 0) / samples if samples else 0.0
    m["whitney.rect_dedup_ratio"] = cover.get("rects", 0) / samples if samples else 0.0
    m["whitney.tiles"] = float(g("whitney.enumerate_multitiles").counts.get("tiles", 0))
    m["bumps.fejer_sq_cdf.points"] = float(g("bumps.fejer_sq_cdf").counts.get("points", 0))
    m["reporting.bytes"] = float(g("reporting.write").counts.get("bytes", 0))
    m["intervals.colors"] = float(g("intervals.check_hypothesis").counts.get("colors", 0))
    m["config.load_s"] = g("config.load").incl_s
    for cmd in ("analyze", "check-hyp", "symbol", "apply", "probe", "whitney"):
        m[f"cli.{cmd}_s"] = g(f"cli.{cmd}").incl_s
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["bench.own_s"] = check_spans(spans, wall_s)["own_s"]
    for name, _unit in PER_LAYER:
        if not name.startswith("trace."):
            m.setdefault(name, 0.0)
    return m
