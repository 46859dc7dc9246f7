"""The benchmark's three workloads.

Each workload is a closed loop with one caller: an operation starts when the
previous one returns.  Constructing a workload is its set-up: it imports the
package, builds the inputs from the seed (the program only ever sees the
generated arrays, config file and CSVs) and warms the code paths.
``run_pass`` runs one pass of identical work and gives one verdict per
operation, calling ``tick`` after each; ``verify_pass`` adds the checks too slow to run inside the timed
pass.  Every pass of a run does the same work on the same inputs, so all
passes must produce identical outputs.

All bmlab functions are called through their module (``engine.norm_probe``),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassResult:
    outputs: list = field(default_factory=list)  # exact outputs, compared across passes
    op_ms: list = field(default_factory=list)  # latency of each operation
    failures: list = field(default_factory=list)  # one message per failed operation
    out_dir: str = ""
    checks: dict = field(default_factory=dict)  # verify_pass verdicts
    spans: list = field(default_factory=list)  # traced passes only

    @property
    def attempted(self) -> int:
        return len(self.op_ms)


def _no_tick():
    pass


def _timed(result: PassResult, label: str, call, tick):
    """Run one operation, then ``tick`` (the caller's hook between operations);
    an exception counts the operation as failed and returns None."""
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # the loop must survive a failing operation
        out = None
        result.failures.append(f"{label}: raised {exc!r}")
    result.op_ms.append((perf_counter() - t0) * 1e3)
    tick()
    return out


def _hyperboloid_sequence(J: int):
    from bmlab import curves

    return curves.build_dyadic_slope_sequence(curves.hyperboloid(), J)


# -- proof_chain ------------------------------------------------------------------


class ProofChain:
    """Criterion 8's shape: holder_chain_check on the hyperboloid staircase."""

    name = "proof_chain"
    TRIPLES = ((3, 3, 3), (2, 4, 4), (4, 4, 2), (2, 3, 6))
    J, N, L = 8, 128, 32.0
    TRIALS = 200  # per triple and pass

    def __init__(self, seed: int, workdir: Path):
        from bmlab import engine, symbols

        self.engine, self.symbols = engine, symbols
        self.seed = seed
        self.seq = _hyperboloid_sequence(self.J)
        self.cases = []
        for ti, triple in enumerate(self.TRIPLES):
            e = engine.ExponentTriple(*triple)
            rng = np.random.default_rng(np.random.SeedSequence((seed, ti)))
            for _ in range(self.TRIALS):
                f, g, h = (
                    engine.SampledFunction(rng.normal(size=self.N) + 1j * rng.normal(size=self.N), self.L)
                    for _ in range(3)
                )
                self.cases.append((e, f, g, h))
        for e, f, g, h in self.cases[:: self.TRIALS]:
            engine.holder_chain_check(self.seq, f, g, h, e)

    def params(self) -> dict:
        return {"triples": self.TRIPLES, "J": self.J, "N": self.N, "L": self.L, "trials": self.TRIALS}

    def spot_symbols(self):
        return [("staircase", self.symbols.staircase_symbol(self.seq))]

    def run_pass(self, tick=_no_tick) -> PassResult:
        res = PassResult()
        for e, f, g, h in self.cases:
            label = f"triple {e.as_tuple()}"
            rep = _timed(res, label, lambda: self.engine.holder_chain_check(self.seq, f, g, h, e), tick)
            if rep is None:
                res.outputs.append(None)
                continue
            res.outputs.append((rep.lhs, rep.rhs_product, rep.identity_gap, rep.carleson_margin,
                                rep.satisfied, rep.carleson_ok))
            if not (rep.satisfied and rep.carleson_ok
                    and rep.identity_gap <= 1e-8 * max(1.0, rep.lhs)):
                res.failures.append(f"{label}: verdict failed (lhs {rep.lhs!r}, rhs {rep.rhs_product!r}, "
                                    f"gap {rep.identity_gap!r}, carleson_ok {rep.carleson_ok})")
        return res

    def verify_pass(self, res: PassResult) -> dict:
        return {}


# -- probe_scaling ------------------------------------------------------------------


class ProbeScaling:
    """Criterion 9's symbols probed one resolution per call, 256 -> 2048."""

    name = "probe_scaling"
    TRIPLES = ((3, 3, 3), (4, 2, 4))
    RESOLUTIONS = (256, 512, 1024, 2048)
    J, L, TRIALS = 8, 48.0, 3
    GROWTH_BOUND = 1.5
    REF_RTOL = 1e-9

    def __init__(self, seed: int, workdir: Path):
        from bmlab import engine, symbols

        self.engine = engine
        self.seed = seed
        seq = _hyperboloid_sequence(self.J)
        self.symbols = {
            "staircase": symbols.staircase_symbol(seq),
            "polygonal": symbols.polygonal_epigraph_symbol(np.column_stack([seq.a, seq.b])),
        }
        for sym in self.symbols.values():
            engine.norm_probe(sym, engine.ExponentTriple(3, 3, 3), trials=1, resolutions=[128],
                              seed=seed, L=self.L)

    def params(self) -> dict:
        return {"symbols": sorted(self.symbols), "triples": self.TRIPLES, "resolutions": self.RESOLUTIONS,
                "J": self.J, "L": self.L, "trials": self.TRIALS}

    def spot_symbols(self):
        return list(self.symbols.items())

    def run_pass(self, tick=_no_tick) -> PassResult:
        res = PassResult()
        for name, sym in self.symbols.items():
            for triple in self.TRIPLES:
                e = self.engine.ExponentTriple(*triple)
                top = {}
                for N in self.RESOLUTIONS:
                    rep = _timed(res, f"{name} {triple} N={N}", lambda: self.engine.norm_probe(
                        sym, e, trials=self.TRIALS, resolutions=[N], seed=self.seed, L=self.L), tick)
                    if rep is None:
                        continue
                    for row in rep.rows:
                        res.outputs.append([name, list(triple), N, row["family"], row["max_ratio"]])
                    top[N] = max(row["max_ratio"] for row in rep.rows)
                lo, hi = self.RESOLUTIONS[0], self.RESOLUTIONS[-1]
                if lo in top and hi in top:
                    growth = top[hi] / top[lo] if top[lo] > 0 else math.inf
                    if not growth < self.GROWTH_BOUND:
                        res.failures.append(f"{name} {triple}: growth_factor {growth!r} >= {self.GROWTH_BOUND}")
        return res

    def verify_pass(self, res: PassResult) -> dict:
        """Rows must match the pinned max_ratio values where the seed has them,
        within REF_RTOL relative to the largest ratio of the same symbol and
        triple (some rows are rounding-level, ~1e-18, and carry no digits)."""
        ref = load_reference()["probe_scaling"].get(str(self.seed))
        if ref is None:
            return {"reference": "not pinned for this seed"}
        if len(ref) != len(res.outputs):
            res.failures.append(f"reference: {len(res.outputs)} rows, expected {len(ref)}")
            return {"reference": "row count mismatch"}
        scale = {}
        for name, triple, _n, _fam, ratio in ref:
            key = (name, tuple(triple))
            scale[key] = max(scale.get(key, 0.0), abs(ratio))
        bad = [(got, want) for got, want in zip(res.outputs, ref)
               if got[:4] != want[:4]
               or abs(got[4] - want[4]) > self.REF_RTOL * scale[(want[0], tuple(want[1]))]]
        for got, want in bad:
            res.failures.append(f"reference: row {got} differs from pinned {want}")
        return {"reference": "matched" if not bad else f"{len(bad)} rows differ"}


# -- cli_pipeline ---------------------------------------------------------------------

CLI_CONFIG = """\
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


class CliPipeline:
    """All six subcommands in-process through bmlab.cli.main on a pinned config."""

    name = "cli_pipeline"
    J, L = 8, 32.0  # as in CLI_CONFIG
    APPLY_N = 1024
    COMMANDS = ("analyze", "check-hyp", "symbol", "apply", "probe", "whitney")
    APPLY_RTOL = 1e-9
    MODEL_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        from bmlab import cli

        self.cli = cli
        self.workdir = workdir
        self.config = workdir / "run.ini"
        self.config.write_text(CLI_CONFIG)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self.inputs = {}
        for name in ("f", "g"):
            vals = rng.normal(size=self.APPLY_N) + 1j * rng.normal(size=self.APPLY_N)
            path = workdir / f"{name}.csv"
            path.write_text("re,im\n" + "".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in vals))
            self.inputs[name] = (path, vals)
        self._expected_apply = None
        warm = workdir / "warm"
        for cmd in ("analyze", "check-hyp"):
            cli.main([cmd, "--config", str(self.config), "--out", str(warm)])

    def params(self) -> dict:
        return {"config_sha256": sha256_bytes(CLI_CONFIG.encode()), "apply_N": self.APPLY_N}

    def spot_symbols(self):
        from bmlab import symbols

        return [("staircase", symbols.staircase_symbol(_hyperboloid_sequence(self.J)))]

    def run_pass(self, tick=_no_tick) -> PassResult:
        res = PassResult(out_dir=tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        extra = {"apply": [str(self.inputs["f"][0]), str(self.inputs["g"][0])]}
        for cmd in self.COMMANDS:
            argv = [cmd, "--config", str(self.config), "--out", res.out_dir] + extra.get(cmd, [])
            code = _timed(res, cmd, lambda: self.cli.main(argv), tick)
            if code is not None and code != 0:
                res.failures.append(f"{cmd}: exit code {code}")
        return res

    def verify_pass(self, res: PassResult) -> dict:
        out = Path(res.out_dir)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        res.outputs = [(name, sha256_bytes(data)) for name, data in files.items()]
        checks = {}
        try:
            checks["symbol"] = self._check_symbol(files)
            checks["apply"] = self._check_apply(files["applied.csv"])
            checks["whitney"] = self._check_whitney(json.loads(files["whitney.json"]))
        except (KeyError, ValueError) as exc:
            checks["error"] = repr(exc)
        for name, verdict in checks.items():
            if verdict is not True:
                res.failures.append(f"{name}: {verdict}")
        shutil.rmtree(out)
        return {k: v is True for k, v in checks.items()}

    def _check_symbol(self, files):
        ref = load_reference()["cli_pipeline"]
        pgm = files["symbol_staircase.pgm"]
        if sha256_bytes(pgm) != ref["symbol_pgm_sha256"]:
            return "PGM differs from the reference"
        lines = files["symbol_staircase.csv"].decode().splitlines()[1:]
        amp = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
        if not np.all((amp == 0.0) | (amp == 1.0)):
            return "bitmap is not 0/1"
        if sha256_bytes(np.packbits(amp == 1.0).tobytes()) != ref["symbol_bitmap_sha256"]:
            return "0/1 bitmap differs from the reference"
        return True

    def _check_apply(self, data: bytes):
        rows = [line.split(",") for line in data.decode().splitlines()[1:]]
        got = np.array([complex(float(re), float(im)) for re, im in rows])
        want = self.expected_apply()
        scale = max(1.0, float(np.max(np.abs(want))))
        err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
        return True if err <= self.APPLY_RTOL * scale else f"applied.csv off by {err!r} (scale {scale!r})"

    def expected_apply(self) -> np.ndarray:
        """The staircase applied as a sum over steps of products of sharp
        projections, sum_k (P_{A_k} f)(P_{B_k} g) on the doubled grid."""
        if self._expected_apply is None:
            seq = _hyperboloid_sequence(self.J)
            a, b = seq.a, seq.b
            N = self.APPLY_N
            freqs = np.arange(-N // 2, N // 2) / self.L
            c, d = (np.fft.fftshift(np.fft.fft(self.inputs[k][1])) / N for k in ("f", "g"))
            out = np.zeros(2 * N, dtype=complex)
            for k in range(1, len(a) - 1):
                cx = np.where((freqs >= a[k + 1]) & (freqs < a[k]), c, 0.0)
                dy = np.where((freqs >= b[k]) & (freqs < b[0]), d, 0.0)
                out[: 2 * N - 1] += np.convolve(cx, dy)
            self._expected_apply = np.fft.ifft(np.fft.ifftshift(out)) * (2 * N)
        return self._expected_apply

    def _check_whitney(self, report: dict):
        covers = report["covers"]
        if not all(c["cover_ok"] and c["containment_ok"] for c in covers):
            return "a cover or containment check failed"
        worst = max(p["deviation"] for p in report["partition"])
        if not worst <= self.MODEL_TOL:
            return f"partition deviation {worst!r} > {self.MODEL_TOL}"
        dev = report["model_sum"]["deviation"]
        if not dev <= self.MODEL_TOL:
            return f"model deviation {dev!r} > {self.MODEL_TOL}"
        return True


WORKLOADS = {w.name: w for w in (ProofChain, ProbeScaling, CliPipeline)}


def spot_check(workload) -> dict:
    """apply_bilinear against the naive double-sum oracle at small N, for each
    symbol the workload uses; the symbol must be nonzero on the test band."""
    from bmlab import engine
    from oracles import bilinear_double_sum

    N, L = 32, 8.0
    rng = np.random.default_rng(12345)
    worst, ok = 0.0, True
    for _label, sym in workload.spot_symbols():
        f, g = (engine.SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L) for _ in range(2))
        freqs = f.freqs()
        if not np.any(sym(freqs[:, None], freqs[None, :])):
            ok = False
        want = bilinear_double_sum(sym, f, g)
        got = engine.apply_bilinear(sym, f, g).samples
        err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, err)
    return {"ok": bool(ok and worst <= 1e-10), "max_rel_err": worst, "N": N, "L": L}
