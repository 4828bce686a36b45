"""Workloads, output checks, tracing and metrics of the csg_ldpc benchmark.

Every timed pass is one in-process ``csg_ldpc.cli.main`` call.  The traced
run re-drives the same inputs through the public functions of each module
and records spans here, around those calls; the package itself is not
instrumented.  perfbench/README.md lists the workloads, the metrics and
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from csg_ldpc import analysis, bounds, channel, cli, codes, experiments, graphs
from csg_ldpc.decoders import GallagerADecoder, SumProductDecoder

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Pass i of a run with seed s uses the program seed s * PASS_STRIDE + i; pass 0
# is the untimed warm-up and probes start at PROBE_BASE.
PASS_STRIDE = 100_000
PROBE_BASE = 90_000
SETUP_PROBES = 7
# The host is shared, and its speed drifts by tens of percent within
# minutes.  Each timing is therefore divided by the mean time of a fixed
# calibration kernel run just before and just after it, and multiplied by
# CAL_REF_S, the kernel's time on a quiet 2-CPU host, so values stay close
# to wall seconds.
CAL_REF_S = 0.030
POOL_REPEATS = 5
K_CEILING = 28
MAX_ITER = 50

END_TO_END = {
    "items_per_s": "1/s",
    "pass_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "bounds.spectrum_ms": "ms",
    "bounds.bit_node_graph_ms": "ms",
    "bounds.clique_number_ms": "ms",
    "bounds.independent_set_ms": "ms",
    "bounds.compute_bounds_ms": "ms",
    "graphs.girth_ms": "ms",
    "graphs.bipartition_ms": "ms",
    "gf2.rank_ms": "ms",
    "gf2.nullspace_ms": "ms",
    "codes.build_code_ms": "ms",
    "codes.duality_ms": "ms",
    "codes.minimum_distance_ms": "ms",
    "codes.enum_steps": "count",
    "analysis.load_graph_file_ms": "ms",
    "analysis.analyze_graph_ms": "ms",
    "cli.self_ms": "ms",
    "channel.noise_us": "us",
    "channel.syndrome_us": "us",
    "channel.llr_us": "us",
    "decoders.decode_us_p50": "us",
    "decoders.decode_us_p99": "us",
    "decoders.iterations": "count",
    "decoders.iter0_frac": "ratio",
    "decoders.converged_frac": "ratio",
    "decoders.capped": "count",
    "decoders.miscorrected": "count",
    "experiments.run_experiment_s": "s",
    "experiments.pool_overhead_ms": "ms",
    "experiments.fanout_efficiency": "ratio",
    "experiments.syndrome_statistics_s": "s",
    "trace.overhead_frac": "ratio",
}

# Spans directly under a traced pass that stand for the calls the CLI makes;
# cli.self_ms is the untraced pass time minus these.
CLI_PATH = frozenset({
    "analysis.load_graph_file",
    "analysis.analyze_graph",
    "codes.build_code",
    "graphs.girth",
    "experiments.run_experiment",
    "experiments.syndrome_statistics",
})


def pass_seed(seed: int, index: int) -> int:
    return seed * PASS_STRIDE + index


class Tracer:
    """Spans in memory: name, parent span, pass id, start and stop in ns.

    ``count`` keeps integer counters per pass at the same boundaries.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.pass_id = array("q")
        self.start = array("q")
        self.stop = array("q")
        self.counts: dict[tuple[int, str], int] = {}
        self.current_pass = 0
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.pass_id.append(self.current_pass)
        self.stop.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.stop[index] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, value: int) -> None:
        key = (self.current_pass, name)
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["span,parent,pass,name,start_ns,stop_ns"]
        lines += [
            f"{i},{p},{q},{self.names[n]},{a},{b}"
            for i, (n, p, q, a, b) in enumerate(
                zip(self.name_id, self.parent, self.pass_id, self.start, self.stop)
            )
        ]
        path.write_text("\n".join(lines) + "\n")


class SpanTable:
    """Read-only numpy view of a Tracer for computing per-layer metrics."""

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.name = np.frombuffer(tr.name_id, dtype=np.int64)
        self.parent = np.frombuffer(tr.parent, dtype=np.int64)
        self.pass_id = np.frombuffer(tr.pass_id, dtype=np.int64)
        self.dur = np.frombuffer(tr.stop, dtype=np.int64) - np.frombuffer(tr.start, dtype=np.int64)

    def mask(self, name: str, passes) -> np.ndarray:
        nid = self.tr._ids.get(name, -1)
        return (self.name == nid) & np.isin(self.pass_id, list(passes))

    def has(self, name: str, passes) -> bool:
        return bool(self.mask(name, passes).any())

    def durations(self, name: str, passes) -> np.ndarray:
        return self.dur[self.mask(name, passes)]

    def per_pass_sums(self, name: str, passes) -> list[int]:
        m = self.mask(name, passes)
        return [int(self.dur[m & (self.pass_id == p)].sum()) for p in sorted(set(self.pass_id[m].tolist()))]


@dataclass
class Traced:
    """Output of a traced pass: CLI-format lines, per-operation consistency
    results, and (variance only) the (mean, mean stderr) of each point."""

    lines: list[str]
    oks: list[bool]
    means: list[tuple[float, float]] | None = None


@dataclass
class PassRecord:
    seed: int
    lines: list[str]
    oks: list[bool] = field(default_factory=list)
    means: list[tuple[float, float]] | None = None


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


@dataclass(frozen=True)
class Catalog:
    """``catalog data``: one operation per graph row."""

    name: str
    files: tuple[Path, ...]
    expected: dict
    item: str = "graph"

    @property
    def items(self) -> int:
        return len(self.files)

    def argv(self, seed: int) -> list[str]:
        return ["catalog", str(DATA)]

    def check(self, lines: list[str], seed: int) -> list[bool]:
        rows = [line.split(",") for line in lines[1:]]
        by_id = {row[0]: row for row in rows}
        if not lines or lines[0] != cli.CATALOG_HEADER or len(rows) != len(self.files) or len(by_id) != len(rows):
            return [False] * self.items
        return [self._row_ok(by_id.get(path.stem), self.expected[path.stem]) for path in self.files]

    @staticmethod
    def _row_ok(row: list[str] | None, entry: dict) -> bool:
        if row is None or len(row) != 8:
            return False
        ex = entry["expected"]
        if row[1:5] != [str(ex["n"]), str(ex["k"]), str(ex["d"]), str(ex["girth"])]:
            return False
        if row[6:8] != [_fmt_bool(entry["self_orthogonal"]), _fmt_bool(entry["lcd"])]:
            return False
        # manifest has no even flag: a self-orthogonal or zero-dimensional
        # code is even, and a code with odd minimum weight is not
        if entry["self_orthogonal"] or ex["k"] == 0:
            return row[5] == "true"
        if ex["d"] % 2:
            return row[5] == "false"
        return row[5] in ("true", "false")

    def traced_pass(self, tr: Tracer, seed: int) -> Traced:
        rows = []
        built = []
        with tr.span("pass"):
            for path in self.files:
                i = tr.begin("analysis.load_graph_file")
                g = analysis.load_graph_file(path)
                tr.end(i)
                with tr.span("analysis.analyze_graph"):
                    row, code = self._analyze(tr, g, path.stem)
                rows.append(row)
                built.append((g, code))
        # layers build_code hides, timed apart so the pass keeps the CLI's work
        with tr.span("extras"):
            for g, code in built:
                with tr.span("graphs.bipartition"):
                    graphs.bipartition(g)
                with tr.span("gf2.rank"):
                    code.H.rank()
                with tr.span("gf2.nullspace"):
                    code.H.nullspace_basis()
        rows.sort(key=lambda r: (2 * r[1], r[0]))
        lines = [cli.CATALOG_HEADER] + [
            f"{gid},{n},{k},{'' if d is None else d},{gg},{_fmt_bool(ev)},{_fmt_bool(so)},{_fmt_bool(lcd)}"
            for gid, n, k, d, gg, ev, so, lcd in rows
        ]
        return Traced(lines, [True] * len(rows))

    @staticmethod
    def _analyze(tr: Tracer, g, gid: str):
        """analysis.analyze_graph, one public call at a time."""
        with tr.span("codes.build_code"):
            code = codes.build_code(g)
        with tr.span("graphs.girth"):
            g_girth = graphs.girth(g)
        with tr.span("codes.minimum_distance"):
            try:
                d = codes.minimum_distance(code, ceiling=K_CEILING)
            except codes.EnumerationLimitExceeded:
                d = None
        if d is not None and code.k > 0:
            tr.count("codes.enum_steps", (1 << code.k) - 1)
        with tr.span("codes.duality"):
            flags = (codes.is_even_code(code), codes.is_self_orthogonal(code), codes.is_lcd(code))
        with tr.span("bounds.compute_bounds"):
            with tr.span("graphs.adjacency_array"):
                adjacency = graphs.adjacency_array(g)
            with tr.span("bounds.spectrum"):
                lam2 = float(bounds.spectrum(adjacency)[1])
            bounds.tanner_bounds(code.n, lam2)
            bounds.piecewise_distance_bound(code.n, lam2)
            with tr.span("bounds.bit_node_graph"):
                gamma = bounds.bit_node_graph(code)
            with tr.span("bounds.independent_set"):
                bounds.independent_set_lower(gamma.graph)
            with tr.span("bounds.clique_number"):
                bounds.clique_number(gamma.graph)
            bounds.predict_trivial(g)
        return (gid, code.n, code.k, d, g_girth, *flags), code


def _row(chan: str, value: float, decoder: str, seed: int, trials: int,
         ber: float, fer: float, mean: float, var: float) -> str:
    return f"{chan},{value!r},{decoder},{trials},{seed},{ber!r},{fer!r},{mean!r},{var!r}"


def _totals_row(chan: str, value: float, decoder: str, seed: int, n: int, trials: int,
                bit_errors: int, word_errors: int, syn_sum: int, syn_sq: int) -> str:
    """The CLI's simulate row, rebuilt from integer totals as run_experiment does."""
    mean = syn_sum / trials
    var = (syn_sq - syn_sum * syn_sum / trials) / (trials - 1) if trials > 1 else 0.0
    return _row(chan, value, decoder, seed, trials,
                bit_errors / (trials * n), word_errors / trials, mean, var)


def redrive(tr: Tracer, code, cfg: experiments.ExperimentConfig) -> tuple[int, int, int, int]:
    """run_experiment one trial and one public call at a time.

    Returns (bit errors, word errors, sum of syndrome weights, sum of their
    squares) and counts decoder outcomes on the tracer.
    """
    h = code.H
    i = tr.begin("decoders.build")
    decoder = (GallagerADecoder if cfg.decoder == "gallager-a" else SumProductDecoder)(h)
    tr.end(i)
    sent = np.zeros(code.n, dtype=np.uint8)
    model = cfg.channel
    bsc = isinstance(model, channel.BscChannel)
    soft = cfg.decoder == "sum-product"
    bit_errors = word_errors = syn_sum = syn_sq = 0
    iterations = iter0 = capped = miscorrected = 0
    for trial in range(cfg.trials):
        i = tr.begin("channel.noise")
        received = channel.transmit(sent, model, experiments.trial_rng(cfg.master_seed, trial))
        hard = received if bsc else (received < 0).astype(np.uint8)
        tr.end(i)
        i = tr.begin("channel.syndrome")
        _, weight = channel.syndrome(h, hard)
        tr.end(i)
        syn_sum += weight
        syn_sq += weight * weight
        if soft:
            i = tr.begin("channel.llr")
            y = channel.llr_from_bsc(hard, model.rho) if bsc else channel.llr_from_awgn(received, model.sigma)
            tr.end(i)
        else:
            y = hard
        i = tr.begin("decoders.decode")
        result = decoder.decode(y, max_iter=cfg.max_iterations)
        tr.end(i)
        errors = int(result.word.sum())
        bit_errors += errors
        word_errors += errors > 0
        iterations += result.iterations
        iter0 += result.iterations == 0
        if not result.syndrome_zero:
            capped += 1
        elif errors:
            miscorrected += 1
    for name, value in (
        ("decoders.trials", cfg.trials),
        ("decoders.iterations", iterations),
        ("decoders.iter0", iter0),
        ("decoders.converged", cfg.trials - word_errors),
        ("decoders.capped", capped),
        ("decoders.miscorrected", miscorrected),
    ):
        tr.count(name, value)
    return bit_errors, word_errors, syn_sum, syn_sq


@dataclass(frozen=True)
class Simulate:
    """``simulate``: one operation per --param point."""

    name: str
    path: Path
    chan: str
    params: tuple[str, ...]
    decoder: str
    workers: int
    trials: int
    item: str = "trial"

    @property
    def files(self) -> tuple[Path, ...]:
        return (self.path,)

    @property
    def items(self) -> int:
        return self.trials * len(self.params)

    def argv(self, seed: int) -> list[str]:
        return [
            "simulate", str(self.path), "--channel", self.chan, "--param", ",".join(self.params),
            "--decoder", self.decoder, "--workers", str(self.workers),
            "--trials", str(self.trials), "--seed", str(seed),
        ]

    def check(self, lines: list[str], seed: int) -> list[bool]:
        """Shape and internal consistency of each row; exactness is the re-drive's job."""
        if len(lines) != 1 + len(self.params) or lines[0] != cli.SIMULATE_HEADER:
            return [False] * len(self.params)
        n = _length(self.path)
        return [self._row_ok(line.split(","), text, seed, n) for line, text in zip(lines[1:], self.params)]

    def _row_ok(self, row: list[str], text: str, seed: int, n: int) -> bool:
        if len(row) != 9 or row[:5] != [self.chan, repr(float(text)), self.decoder, str(self.trials), str(seed)]:
            return False
        t = self.trials
        ber, fer, mean, var = (float(x) for x in row[5:])
        bit_errors, word_errors = ber * t * n, fer * t
        if abs(bit_errors - round(bit_errors)) > 1e-6 or abs(word_errors - round(word_errors)) > 1e-6:
            return False
        bit_errors, word_errors = round(bit_errors), round(word_errors)
        return (
            0 <= word_errors <= bit_errors <= n * word_errors
            and word_errors <= t
            and 0.0 <= mean <= n
            and var >= 0.0
        )

    def model(self, text: str):
        value = float(text)
        return channel.BscChannel(value) if self.chan == "bsc" else channel.AwgnChannel(value)

    def traced_pass(self, tr: Tracer, seed: int) -> Traced:
        results = []
        with tr.span("pass"):
            i = tr.begin("analysis.load_graph_file")
            g = analysis.load_graph_file(self.path)
            tr.end(i)
            i = tr.begin("codes.build_code")
            code = codes.build_code(g)
            tr.end(i)
            for text in self.params:
                cfg = experiments.ExperimentConfig(
                    h=code.H, channel=self.model(text), decoder=self.decoder, trials=self.trials,
                    master_seed=seed, max_iterations=MAX_ITER, worker_count=self.workers,
                )
                i = tr.begin("experiments.run_experiment")
                results.append((text, cfg, experiments.run_experiment(cfg)))
                tr.end(i)
        lines = [cli.SIMULATE_HEADER]
        oks = []
        for text, cfg, res in results:
            lines.append(_row(
                self.chan, float(text), self.decoder, seed, res.trials,
                res.ber, res.fer, res.syndrome_mean, res.syndrome_variance,
            ))
            with tr.span("redrive"):
                totals = redrive(tr, code, cfg)
            ok = totals[:2] == (res.bit_errors, res.word_errors) and lines[-1] == _totals_row(
                self.chan, float(text), self.decoder, seed, code.n, self.trials, *totals
            )
            if self.workers > 1:
                i = tr.begin("experiments.run_experiment_w1")
                ok = ok and experiments.run_experiment(replace(cfg, worker_count=1)) == res
                tr.end(i)
            oks.append(ok)
        return Traced(lines, oks)


def _length(path: Path) -> int:
    return codes.build_code(analysis.load_graph_file(path)).n


def _closed_form(n: int, rho: float) -> tuple[float, float]:
    """Syndrome-weight mean and variance for n degree-3 checks, Tanner girth >= 6."""
    def f(t: int) -> float:
        return (1.0 - (1.0 - 2.0 * rho) ** t) / 2.0
    return n * f(3), n / 2.0 * (7.0 * f(6) - 6.0 * f(4))


@dataclass(frozen=True)
class Variance:
    """``variance``: one operation per --rho point."""

    name: str
    path: Path
    rhos: tuple[str, ...]
    trials: int
    item: str = "sample"

    @property
    def files(self) -> tuple[Path, ...]:
        return (self.path,)

    @property
    def items(self) -> int:
        return self.trials * len(self.rhos)

    def argv(self, seed: int) -> list[str]:
        return ["variance", str(self.path), "--rho", ",".join(self.rhos), "--trials", str(self.trials), "--seed", str(seed)]

    def check(self, lines: list[str], seed: int) -> list[bool]:
        """Row shape and the closed form; the 4-stderr test is pooled, see pooled_check."""
        if len(lines) != 1 + len(self.rhos) or lines[0] != cli.VARIANCE_HEADER:
            return [False] * len(self.rhos)
        n = _length(self.path)
        oks = []
        for line, text in zip(lines[1:], self.rhos):
            row = line.split(",")
            if len(row) != 5 or row[0] != repr(float(text)) or row[4] != "":
                oks.append(False)
                continue
            formula, empirical, stderr = (float(x) for x in row[1:4])
            expected = _closed_form(n, float(text))[1]
            oks.append(
                math.isclose(formula, expected, rel_tol=1e-12)
                and math.isfinite(empirical)
                and math.isfinite(stderr)
                and stderr > 0.0
            )
        return oks

    def pooled_check(self, records: list[PassRecord]) -> None:
        """Average each rho's estimates over the passes and require the
        average within 4 pooled standard errors of the closed form (the
        criterion of acceptance gate 05); a miss fails that rho's points.

        Pooling keeps the false-alarm rate of a run at that of three tests
        while shrinking the error a bias must exceed to show.
        """
        n = _length(self.path)
        for j, text in enumerate(self.rhos):
            usable = [r for r in records if r.oks[j]]
            if not usable:
                continue
            mean_f, var_f = _closed_form(n, float(text))
            rows = [r.lines[1 + j].split(",") for r in usable]
            ok = _within(var_f, [float(row[2]) for row in rows], [float(row[3]) for row in rows])
            means = [r.means[j] for r in usable if r.means is not None]
            if means:
                ok = ok and _within(mean_f, [m for m, _ in means], [s for _, s in means])
            if not ok:
                for r in usable:
                    r.oks[j] = False

    def traced_pass(self, tr: Tracer, seed: int) -> Traced:
        lines = [cli.VARIANCE_HEADER]
        means = []
        with tr.span("pass"):
            i = tr.begin("analysis.load_graph_file")
            g = analysis.load_graph_file(self.path)
            tr.end(i)
            i = tr.begin("codes.build_code")
            code = codes.build_code(g)
            tr.end(i)
            i = tr.begin("graphs.girth")
            g_girth = graphs.girth(g)
            tr.end(i)
            flag = "girth<6" if g_girth is not None and g_girth < 6 else ""
            for index, text in enumerate(self.rhos):
                rho = float(text)
                formula = channel.syndrome_variance_formula(code.n, rho)
                i = tr.begin("experiments.syndrome_statistics")
                stats = experiments.syndrome_statistics(
                    code.H, rho, trials=self.trials, master_seed=seed, stream_index=index
                )
                tr.end(i)
                lines.append(f"{rho!r},{formula!r},{stats.variance!r},{stats.variance_stderr!r},{flag}")
                means.append((stats.mean, stats.mean_stderr))
        return Traced(lines, [True] * len(self.rhos), means)


def _within(expected: float, values: list[float], stderrs: list[float]) -> bool:
    average = sum(values) / len(values)
    pooled = math.sqrt(sum(s * s for s in stderrs)) / len(values)
    return abs(average - expected) <= 4.0 * pooled


def _manifest() -> dict:
    return json.loads((DATA / "manifest.json").read_text())["graphs"]


def _catalog_files() -> tuple[Path, ...]:
    """The files ``catalog`` reads, in its order."""
    return tuple(sorted((p for p in DATA.iterdir() if p.suffix in (".edges", ".lcf")), key=lambda p: p.stem))


SP = Simulate("simulate-sp", DATA / "90A.lcf", "bsc", ("0.02", "0.05", "0.08"), "sum-product", 1, 1000)
GA_W2 = Simulate("simulate-ga-w2", DATA / "48A.edges", "awgn", ("0.5", "0.6", "0.7"), "gallager-a", 2, 2000)
VARIANCE = Variance("variance", DATA / "90A.lcf", ("0.02", "0.05", "0.1"), 200_000)
WORKLOADS = ("catalog", SP.name, GA_W2.name, VARIANCE.name)
# Smaller passes of the other workloads, traced once at the end of a traced
# run to fill the layers the run's own workload never calls.
PROBES = (replace(SP, trials=400), replace(GA_W2, trials=500), replace(VARIANCE, trials=20_000))
TINY = {SP.name: 20, GA_W2.name: 20, VARIANCE.name: 2_000}


def make_workload(name: str, tiny: bool = False):
    if name == "catalog":
        return Catalog("catalog", _catalog_files(), _manifest())
    wl = {w.name: w for w in (SP, GA_W2, VARIANCE)}[name]
    return replace(wl, trials=TINY[name]) if tiny else wl


def run_cli(argv: list[str]) -> list[str]:
    """One pass: csg_ldpc.cli.main with stdout captured.  A nonzero exit or
    an exception (reported on stderr) yields no lines, which fails every
    operation of the pass."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return []
    return buf.getvalue().splitlines() if code == 0 else []


def traced_pass(wl, tr: Tracer, seed: int) -> Traced:
    """wl.traced_pass; an exception (reported on stderr) fails every operation."""
    try:
        return wl.traced_pass(tr, seed)
    except Exception:
        traceback.print_exc()
        return Traced([], [])


SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from csg_ldpc.cli import main
from csg_ldpc.analysis import load_graph_file
from csg_ldpc.codes import build_code
for path in sys.argv[2:]:
    build_code(load_graph_file(path))
"""


def fresh_setup(files: tuple[Path, ...]) -> None:
    """A fresh interpreter imports the CLI, loads the graphs and builds their codes."""
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, files)], check=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and bulk numpy work."""
    start = time.perf_counter()
    acc = 0
    for i in range(90_000):
        acc ^= (i * 2654435761) & 0xFFFF
    a = np.arange(45.0)
    for _ in range(2_000):
        a = np.where(a > 3.0, a - 1.0, a + 1.0)
    # bulk integer work on a block small enough never to set the peak RSS
    block = np.arange(45_000, dtype=np.int64)
    for _ in range(60):
        block = (block * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
    return time.perf_counter() - start


class Clock:
    """Times calls, normalizing each by the calibration kernel timed just
    before and just after it."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Calibrate afresh; call after untimed work."""
        self.last = calibrate()

    def time(self, run, *args):
        """(result, raw seconds, normalized seconds) of ``run(*args)``."""
        start = time.perf_counter()
        result = run(*args)
        raw = time.perf_counter() - start
        before, self.last = self.last, calibrate()
        return result, raw, raw * CAL_REF_S * 2.0 / (before + self.last)


@dataclass
class Loop:
    """Passes of one run: records and, per pass index, raw and normalized wall time."""

    records: list[PassRecord]
    raw: dict[int, float]
    walls: dict[int, float]

    @property
    def speed(self) -> float:
        """Median raw-to-normalized ratio; divide a raw time by it to normalize."""
        return statistics.median(self.raw[i] / self.walls[i] for i in self.walls)


def _timed_loop(wl, seed: int, seconds: float, clock: Clock, each=None) -> Loop:
    """Untimed warm-up, then passes until ``seconds`` have gone by (at least one)."""
    run_cli(wl.argv(pass_seed(seed, 0)))
    clock.reset()
    loop = Loop([], {}, {})
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        s = pass_seed(seed, index)
        lines, loop.raw[index], loop.walls[index] = clock.time(run_cli, wl.argv(s))
        loop.records.append(PassRecord(s, lines))
        if each is not None:
            each(index, loop.records[-1])
            clock.reset()
        index += 1
        if time.perf_counter() >= deadline:
            return loop


def _settle(wl, record: PassRecord, traced: Traced | None) -> None:
    """Fill record.oks from the row checks and, if given, the traced pass."""
    record.oks = wl.check(record.lines, record.seed)
    if traced is not None:
        same = traced.lines == record.lines
        record.oks = [a and b and same for a, b in zip(record.oks, traced.oks or [False] * len(record.oks))]
        record.means = traced.means


def _tally(wl, records: list[PassRecord]) -> tuple[int, int]:
    if isinstance(wl, Variance):
        wl.pooled_check(records)
    attempted = sum(len(r.oks) for r in records)
    return attempted, attempted - sum(sum(r.oks) for r in records)


def _summary(wl, passes: list[float], setups: list[float]) -> dict[str, float]:
    return {
        "items_per_s": wl.items * len(passes) / sum(passes),
        "pass_s_p50": statistics.median(passes),
        "setup_s": statistics.median(setups),
    }


def timed_run(wl, seed: int, seconds: float) -> dict:
    clock = Clock()
    loop = _timed_loop(wl, seed, seconds, clock)
    rss = peak_rss_mb()  # before any set-up probe adds a child
    clock.reset()
    setups = [clock.time(fresh_setup, wl.files)[1:] for _ in range(SETUP_PROBES)]
    # untimed checks: rows of every pass, and an exact re-drive of the first
    for k, record in enumerate(loop.records):
        _settle(wl, record, traced_pass(wl, Tracer(), record.seed) if k == 0 else None)
    attempted, failed = _tally(wl, loop.records)
    values = _summary(wl, list(loop.walls.values()), [norm for _, norm in setups])
    values["peak_rss_mb"] = rss
    raw = _summary(wl, list(loop.raw.values()), [r for r, _ in setups])
    notes = {name: f"raw {v:.6g}" for name, v in raw.items()}
    notes["items_per_s"] += f", {wl.item}s/s, {wl.items} per pass"
    notes["pass_s_p50"] += (f", {len(loop.walls)} passes; p90 {np.percentile(list(loop.walls.values()), 90):.6g}"
                            " (too few passes for a steady tail, not gated)")
    notes["setup_s"] += f", median of {SETUP_PROBES} fresh processes"
    return _result(wl, seed, len(loop.records), attempted, failed, values, END_TO_END, notes, loop.speed)


def traced_run(wl, seed: int, seconds: float, out_dir: Path, tiny: bool = False) -> dict:
    tr = Tracer()

    def pair(index: int, record: PassRecord) -> None:
        tr.current_pass = index
        _settle(wl, record, traced_pass(wl, tr, record.seed))

    loop = _timed_loop(wl, seed, seconds, Clock(), each=pair)
    records = loop.records
    attempted, failed = _tally(wl, records)
    probes: dict[str, int] = {}
    for k, probe in enumerate(_probes(wl, tiny)):
        tr.current_pass = probes[probe.name] = PROBE_BASE + k
        s = pass_seed(seed, tr.current_pass)
        traced = traced_pass(probe, tr, s)
        record = PassRecord(s, traced.lines)
        _settle(probe, record, traced)
        a, f = _tally(probe, [record])
        attempted += a
        failed += f
    tr.current_pass = PROBE_BASE + len(probes)
    values, probed = layer_metrics(tr, set(loop.raw), probes, loop.raw)
    values["experiments.pool_overhead_ms"] = _pool_overhead(tr, seed)
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms", "us"):
            values[name] /= loop.speed
    tr.write_csv(out_dir / f"trace-{wl.name}-{seed}.csv")
    notes = {name: "from probe" for name in probed}
    notes["experiments.pool_overhead_ms"] = f"medians of {POOL_REPEATS}"
    return _result(wl, seed, len(records), attempted, failed, values, PER_LAYER, notes, loop.speed)


def _probes(wl, tiny: bool) -> list:
    """Passes of the other workloads; the catalog probe analyzes this workload's graphs."""
    probes = [] if isinstance(wl, Catalog) else [Catalog("catalog", wl.files, _manifest())]
    for probe in PROBES:
        if probe.name != wl.name:
            probes.append(replace(probe, trials=TINY[probe.name]) if tiny else probe)
    return probes


def _pool_overhead(tr: Tracer, seed: int) -> float:
    """A 2-trial simulate-ga-w2 point with 2 workers minus the same with 1, in ms (medians)."""
    code = codes.build_code(analysis.load_graph_file(GA_W2.path))
    cfg = experiments.ExperimentConfig(
        h=code.H, channel=GA_W2.model(GA_W2.params[0]), decoder=GA_W2.decoder,
        trials=2, master_seed=pass_seed(seed, tr.current_pass), max_iterations=MAX_ITER, worker_count=2,
    )
    walls: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(POOL_REPEATS):
        for workers in (2, 1):
            i = tr.begin(f"experiments.pool_w{workers}")
            experiments.run_experiment(replace(cfg, worker_count=workers))
            tr.end(i)
            walls[workers].append((tr.stop[i] - tr.start[i]) / 1e6)
    return statistics.median(walls[2]) - statistics.median(walls[1])


# per-layer timing -> span; summed per pass, median over passes
_PASS_SUMS = {
    "bounds.spectrum_ms": "bounds.spectrum",
    "bounds.bit_node_graph_ms": "bounds.bit_node_graph",
    "bounds.clique_number_ms": "bounds.clique_number",
    "bounds.independent_set_ms": "bounds.independent_set",
    "bounds.compute_bounds_ms": "bounds.compute_bounds",
    "graphs.girth_ms": "graphs.girth",
    "graphs.bipartition_ms": "graphs.bipartition",
    "gf2.rank_ms": "gf2.rank",
    "gf2.nullspace_ms": "gf2.nullspace",
    "codes.build_code_ms": "codes.build_code",
    "codes.duality_ms": "codes.duality",
    "codes.minimum_distance_ms": "codes.minimum_distance",
    "analysis.load_graph_file_ms": "analysis.load_graph_file",
    "analysis.analyze_graph_ms": "analysis.analyze_graph",
    "experiments.run_experiment_s": "experiments.run_experiment",
    "experiments.syndrome_statistics_s": "experiments.syndrome_statistics",
}
# per-layer timing -> span; mean per trial
_PER_TRIAL = {
    "channel.noise_us": "channel.noise",
    "channel.syndrome_us": "channel.syndrome",
    "channel.llr_us": "channel.llr",
}
# The probe a span falls back to when the run's own workload never records
# it: the workload the span's metric is meant to explain.  Others: catalog.
_HOME = {
    "channel.noise": GA_W2.name,
    "channel.syndrome": GA_W2.name,
    "channel.llr": SP.name,
    "decoders.decode": SP.name,
    "experiments.run_experiment": GA_W2.name,
    "experiments.run_experiment_w1": GA_W2.name,
    "experiments.syndrome_statistics": VARIANCE.name,
}


def layer_metrics(tr: Tracer, own: set[int], probes: dict[str, int],
                  walls: dict[int, float]) -> tuple[dict[str, float], set[str]]:
    """Per-layer values, and the names of those taken from a probe.

    A span's values come from the run's own passes when they record it,
    else from its home probe.  Counts come from the first pass with them.
    """
    t = SpanTable(tr)
    probed: set[str] = set()

    def passes(span: str, *metrics: str) -> set[int]:
        if t.has(span, own):
            return own
        probed.update(metrics)
        return {probes[_HOME.get(span, "catalog")]}

    values: dict[str, float] = {}
    for metric, span in _PASS_SUMS.items():
        scale = 1e9 if metric.endswith("_s") else 1e6
        values[metric] = statistics.median(t.per_pass_sums(span, passes(span, metric))) / scale
    for metric, span in _PER_TRIAL.items():
        values[metric] = float(t.durations(span, passes(span, metric)).mean()) / 1e3
    decoded = passes("decoders.decode", *(m for m in PER_LAYER if m.startswith("decoders.")))
    decode_us = t.durations("decoders.decode", decoded) / 1e3
    values["decoders.decode_us_p50"] = float(np.percentile(decode_us, 50))
    values["decoders.decode_us_p99"] = float(np.percentile(decode_us, 99))
    first = min(decoded)
    trials = tr.counts[(first, "decoders.trials")]
    values["decoders.iterations"] = tr.counts[(first, "decoders.iterations")]
    values["decoders.iter0_frac"] = tr.counts[(first, "decoders.iter0")] / trials
    values["decoders.converged_frac"] = tr.counts[(first, "decoders.converged")] / trials
    values["decoders.capped"] = tr.counts[(first, "decoders.capped")]
    values["decoders.miscorrected"] = tr.counts[(first, "decoders.miscorrected")]
    enumerated = passes("codes.minimum_distance", "codes.enum_steps")
    values["codes.enum_steps"] = tr.counts.get((min(enumerated), "codes.enum_steps"), 0)

    fan = passes("experiments.run_experiment_w1", "experiments.fanout_efficiency")
    w1 = t.per_pass_sums("experiments.run_experiment_w1", fan)
    w2 = t.per_pass_sums("experiments.run_experiment", fan)
    values["experiments.fanout_efficiency"] = statistics.median(a / b / 2.0 for a, b in zip(w1, w2))

    pass_spans = t.mask("pass", own)
    cli_ids = [tr._ids[name] for name in CLI_PATH if name in tr._ids]
    self_ms = [
        (walls[int(t.pass_id[index])] - t.dur[(t.parent == index) & np.isin(t.name, cli_ids)].sum() / 1e9) * 1e3
        for index in np.flatnonzero(pass_spans)
    ]
    values["cli.self_ms"] = statistics.median(self_ms)
    # paired per pass, so drift of the host's speed between passes cancels
    values["trace.overhead_frac"] = statistics.median(
        t.dur[index] / 1e9 / walls[int(t.pass_id[index])] for index in np.flatnonzero(pass_spans)
    ) - 1.0
    return values, probed


def _result(wl, seed: int, passes: int, attempted: int, failed: int, values: dict[str, float],
            units: dict[str, str], notes: dict[str, str], speed: float) -> dict:
    """Print the readable report and return the JSON result."""
    print(f"workload={wl.name} seed={seed} passes={passes} python={platform.python_version()} "
          f"numpy={np.__version__} cpu_count={os.cpu_count()}")
    print(f"  timings are normalized: raw time / {speed:.4f} (median calibration factor)")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:<36} {values[name]:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio  {failed} of {attempted} operations")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool = False,
        tiny: bool = False, out_dir: Path = OUT) -> dict:
    """One benchmark run of workload ``name``; see perfbench/run.py."""
    wl = make_workload(name, tiny)
    if trace:
        return traced_run(wl, seed, seconds, out_dir, tiny)
    return timed_run(wl, seed, seconds)
