"""Command line interface: analyze, catalog, export-alist, simulate, variance, extend.

Exit codes: 0 on success, 1 for invalid inputs (bad graph, bad parameter,
unreadable or unwritable file), 2 when a requested minimum distance exceeds
the enumeration ceiling.  Handlers raise ``ValueError`` or ``OSError`` for
every declared error and ``main`` alone reports it as one ``error:`` line.
Randomized subcommands require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .alist import export_alist
from .analysis import GRAPH_SUFFIXES, analyze_graph, code_report, load_graph_file
from .codes import (
    MAX_DIMENSION_CEILING,
    LinearCode,
    build_code,
    code_from_parity_check,
    extended_parity_check,
    parity_check_of,
)
from .channel import AwgnChannel, BscChannel, syndrome_variance_formula
from .experiments import (
    DECODERS,
    MAX_ITERATIONS,
    RNG_FAMILY,
    ExperimentConfig,
    run_experiments,
    syndrome_statistics,
)
from .graphs import Graph, girth

__all__ = ["main", "entry"]

SIMULATE_HEADER = "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var"
VARIANCE_HEADER = "rho,formula,empirical,stderr,flag"
CATALOG_HEADER = "id,n,k,d,girth,even,self_orth,lcd"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _load_code(path: str) -> tuple[Graph, LinearCode]:
    """The graph in ``path`` and its code; the graph is the code's Tanner graph."""
    g = load_graph_file(path)
    return g, build_code(g)


def _check_out(out: str | None) -> None:
    """Refuse an output path that is a directory or lies in a missing one
    before any work starts."""
    if not out:
        return
    if Path(out).is_dir():
        raise ValueError(f"output path is a directory: {out}")
    if not Path(out).parent.is_dir():
        raise ValueError(f"no such directory: {Path(out).parent}")


def _check_k_ceiling(k_ceiling: int) -> None:
    """Refuse a negative enumeration ceiling before any graph is read."""
    if k_ceiling < 0:
        raise ValueError(f"k-ceiling must be non-negative, got {k_ceiling}")


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_k_ceiling(args.k_ceiling)
    report = analyze_graph(load_graph_file(args.path), Path(args.path).stem, k_ceiling=args.k_ceiling)
    print(report.to_json() if args.format == "json" else report.to_text())
    if report.d is None:
        return 2
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    _check_k_ceiling(args.k_ceiling)
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    _check_out(args.out)
    files = sorted(
        [p for p in directory.iterdir() if p.suffix in GRAPH_SUFFIXES],
        key=lambda p: p.stem,
    )
    rows = []
    for path in files:
        try:
            g, code = _load_code(path)
            # the table prints no bounds, so none are computed
            report = code_report(code, path.stem, girth(g), bounds=None, warnings=[], k_ceiling=args.k_ceiling)
        except (ValueError, OSError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        rows.append(report)
    rows.sort(key=lambda r: (2 * r.n, r.graph_id))
    lines = [CATALOG_HEADER]
    for r in rows:
        d_text = str(r.d) if r.d is not None else ""
        lines.append(
            f"{r.graph_id},{r.n},{r.k},{d_text},{r.girth},"
            f"{_fmt_bool(r.even)},{_fmt_bool(r.self_orthogonal)},{_fmt_bool(r.lcd)}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_export_alist(args: argparse.Namespace) -> int:
    _check_out(args.out)
    _write(export_alist(parity_check_of(load_graph_file(args.path))), args.out)
    return 0


def _parse_float_list(text: str, label: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad {label} list: {text!r}") from None
    if not values:
        raise ValueError(f"empty {label} list")
    return values


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_out(args.out)
    _check_out(args.out and args.out + ".meta.json")
    h = parity_check_of(load_graph_file(args.path))
    params = _parse_float_list(args.param, "parameter")
    # every point is checked before any is decoded, and all share one pool
    cfgs = [
        ExperimentConfig(
            h=h,
            channel=BscChannel(value) if args.channel == "bsc" else AwgnChannel(value),
            decoder=args.decoder,
            trials=args.trials,
            master_seed=args.seed,
            max_iterations=args.max_iter,
            worker_count=args.workers,
        )
        for value in params
    ]
    lines = [SIMULATE_HEADER]
    outcomes = []
    for value, result in zip(params, run_experiments(cfgs)):
        outcomes.append({"param": value, "detected": result.detected, "undetected": result.undetected})
        lines.append(
            f"{args.channel},{value!r},{args.decoder},{result.trials},{args.seed},"
            f"{result.ber!r},{result.fer!r},"
            f"{result.syndrome_mean!r},{result.syndrome_variance!r}"
        )
    _write("\n".join(lines) + "\n", args.out)
    if args.out:
        meta = {
            "graph": str(args.path),
            "channel": args.channel,
            "params": params,
            "decoder": args.decoder,
            "trials": args.trials,
            "max_iterations": args.max_iter,
            "seed": args.seed,
            "workers": args.workers,
            "rng_family": RNG_FAMILY,
            "version": __version__,
            "outcomes": outcomes,
        }
        _write(json.dumps(meta, indent=2) + "\n", str(args.out) + ".meta.json")
    return 0


def cmd_variance(args: argparse.Namespace) -> int:
    _check_out(args.out)
    g = load_graph_file(args.path)
    h = parity_check_of(g)
    rhos = _parse_float_list(args.rho, "rho")
    # every input is checked before the first point is sampled
    for rho in rhos:
        BscChannel(rho)
    if args.trials < 2:
        raise ValueError("need at least two trials")
    if args.seed < 0:
        raise ValueError("seed must be non-negative")
    flag = "girth<6" if girth(g) < 6 else ""
    lines = [VARIANCE_HEADER]
    for index, rho in enumerate(rhos):
        formula = syndrome_variance_formula(h.ncols, rho)
        stats = syndrome_statistics(h, rho, trials=args.trials, master_seed=args.seed, stream_index=index)
        lines.append(
            f"{rho!r},{formula!r},{stats.variance!r},{stats.variance_stderr!r},{flag}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    _check_k_ceiling(args.k_ceiling)
    _check_out(args.alist_out)
    g = load_graph_file(args.path)
    # only the extended H is eliminated: the base code's dimension is never read
    extended = code_from_parity_check(extended_parity_check(parity_check_of(g), args.bits))
    # the added degree-1 bits close no cycle: the girth is the base Tanner graph's
    report = code_report(
        extended,
        f"{Path(args.path).stem}+{args.bits}",
        girth(g),
        bounds=None,
        warnings=["rate-boosted code: spectral and clique bounds describe the base graph only"],
        k_ceiling=args.k_ceiling,
    )
    print(report.to_json() if args.format == "json" else report.to_text())
    if args.alist_out:
        _write(export_alist(extended.H), args.alist_out)
    if report.d is None:
        return 2
    return 0


def _write(text: str, out: str | None) -> None:
    """``text`` to the file ``out``, or to stdout without one.  A write that
    fails on flush raises an OSError with no file name; it gets ``out``."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        exc.filename = exc.filename or out
        raise


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand names
    its ``cmd_*`` handler, which ``main`` looks up at call time."""
    parser = argparse.ArgumentParser(
        prog="csg-ldpc",
        description="LDPC codes from cubic symmetric bipartite graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameters, flags and bounds of one graph")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--k-ceiling", type=int, default=MAX_DIMENSION_CEILING)
    p.set_defaults(func="cmd_analyze")

    p = sub.add_parser("catalog", help="CSV table over a directory of graph files")
    p.add_argument("directory")
    p.add_argument("--out", default=None)
    p.add_argument("--k-ceiling", type=int, default=MAX_DIMENSION_CEILING)
    p.set_defaults(func="cmd_catalog")

    p = sub.add_parser("export-alist", help="write the parity check in alist format")
    p.add_argument("path")
    p.add_argument("out")
    p.set_defaults(func="cmd_export_alist")

    p = sub.add_parser("simulate", help="Monte-Carlo decoding over BSC or AWGN")
    p.add_argument("path")
    p.add_argument("--channel", choices=("bsc", "awgn"), required=True)
    p.add_argument("--param", required=True, help="comma separated rho or sigma values")
    p.add_argument("--decoder", choices=tuple(DECODERS), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--max-iter", type=int, default=50, help=f"decoder iteration cap, 0 to {MAX_ITERATIONS} (default: 50)"
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("variance", help="syndrome-weight variance, formula vs empirical")
    p.add_argument("path")
    p.add_argument("--rho", required=True, help="comma separated crossover probabilities")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_variance")

    p = sub.add_parser("extend", help="rate boost by appending identity columns to H")
    p.add_argument("path")
    p.add_argument("--bits", type=int, required=True, help="number of identity columns")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--k-ceiling", type=int, default=MAX_DIMENSION_CEILING)
    p.add_argument("--alist-out", default=None)
    p.set_defaults(func="cmd_extend")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  A ``ValueError`` or ``OSError`` from it is a
    declared error: one ``error:`` line on stderr and exit 1; any other
    exception is a fault and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (ValueError, OSError) as exc:
        reason = exc
        if isinstance(exc, OSError) and exc.strerror:
            reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc.strerror
        print(f"error: {reason}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
