"""End-to-end analysis of one catalog graph: parameters, flags, bounds."""

from __future__ import annotations

import json
import stat
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .codes import (
    MAX_DIMENSION_CEILING,
    EnumerationLimitExceeded,
    LinearCode,
    build_code,
    hull_dimension,
    is_even_code,
    minimum_distance,
)
from .graphs import Graph, girth, load_edge_list, parse_lcf

if TYPE_CHECKING:
    from .bounds import BoundsReport

__all__ = ["GRAPH_SUFFIXES", "MAX_GRAPH_BYTES", "AnalysisReport", "analyze_graph", "code_report", "load_graph_file"]

# the graph-file extensions load_graph_file reads
GRAPH_SUFFIXES = (".edges", ".lcf")

# the largest graph file load_graph_file reads: an edge list at the
# MAX_VERTICES cap takes ~150 KB, so 1 MiB leaves room for comments
MAX_GRAPH_BYTES = 1 << 20


@dataclass
class AnalysisReport:
    """Everything the CLI reports about one code."""

    graph_id: str
    n: int
    k: int
    d: int | None
    girth: int
    even: bool
    self_orthogonal: bool
    lcd: bool
    bounds: BoundsReport | None
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_text(self) -> str:
        d_text = str(self.d) if self.d is not None else "not computed"
        lines = [
            f"graph:            {self.graph_id}",
            f"parameters:       [{self.n}, {self.k}, {d_text}]",
            f"girth:            {self.girth}",
            f"even code:        {_yn(self.even)}",
            f"self-orthogonal:  {_yn(self.self_orthogonal)}",
            f"lcd:              {_yn(self.lcd)}",
        ]
        if self.bounds is not None:
            b = self.bounds
            lines += [
                f"lambda2:          {b.lambda2:.6f}",
                f"distance bounds:  d1={b.d1:.4f} d2={b.d2:.4f} piecewise={b.piecewise_bound:.4f}",
                f"dimension bound:  {b.dim_bound:.4f}",
                f"clique number:    {b.clique_number}",
                f"independent set:  {b.independent_set_size}",
                f"predicted [n,0,n]: {_yn(b.predicted_trivial)}",
            ]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def analyze_graph(g: Graph, graph_id: str, k_ceiling: int = MAX_DIMENSION_CEILING) -> AnalysisReport:
    """Validate the graph, build its code, and gather parameters and bounds.

    Raises the graph validation errors unchanged; a dimension above the
    enumeration ceiling leaves ``d`` as None with a warning instead.
    """
    # bounds brings numpy; imported here, the commands that print no bounds never load it
    from .bounds import compute_bounds

    code = build_code(g)
    g_girth = girth(g)
    warnings: list[str] = []
    if g_girth < 6:
        warnings.append(
            f"girth {g_girth} < 6: bit pairs may share several checks, "
            "structural bound arguments do not apply"
        )
    return code_report(
        code,
        graph_id,
        g_girth,
        bounds=compute_bounds(g, code),
        warnings=warnings,
        k_ceiling=k_ceiling,
    )


def code_report(
    code: LinearCode,
    graph_id: str,
    code_girth: int,
    bounds: BoundsReport | None,
    warnings: list[str],
    k_ceiling: int,
) -> AnalysisReport:
    """Minimum distance and duality flags of ``code``, gathered into a report.

    A dimension above ``k_ceiling`` (capped at MAX_DIMENSION_CEILING)
    leaves ``d`` as None and appends a warning to ``warnings``, which
    becomes the report's list.
    """
    try:
        d = minimum_distance(code, ceiling=k_ceiling)
    except EnumerationLimitExceeded as exc:
        d = None
        warnings.append(f"minimum distance not computed: {exc}")
    hull = hull_dimension(code)
    return AnalysisReport(
        graph_id=graph_id,
        n=code.n,
        k=code.k,
        d=d,
        girth=code_girth,
        even=is_even_code(code),
        self_orthogonal=hull == code.k,
        lcd=hull == 0,
        bounds=bounds,
        warnings=warnings,
    )


def load_graph_file(path: str | Path) -> Graph:
    """Load ``.edges`` or ``.lcf`` catalog files by extension.

    Comment lines starting with ``#`` are allowed in both formats; an
    ``.lcf`` file must contain exactly one notation line.  Anything but a
    regular file of at most ``MAX_GRAPH_BYTES`` is refused before it is
    opened.
    """
    # a Path is used as given: re-parsing interns its parts, a churn that
    # doubled CPython's interned-string table (~1 MB) in ~550 catalog passes
    if not isinstance(path, Path):
        path = Path(path)
    # the suffix is checked before any read, so /dev/zero is refused, not read
    if path.suffix not in GRAPH_SUFFIXES:
        raise ValueError(f"{path}: unknown extension, expected {' or '.join(GRAPH_SUFFIXES)}")
    # stat before the open: a FIFO would block it and a device such as
    # /dev/zero (also behind a symlink) would never end the read
    info = path.stat()
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path}: not a regular file")
    if info.st_size > MAX_GRAPH_BYTES:
        raise ValueError(f"{path}: {info.st_size} bytes, above the {MAX_GRAPH_BYTES}-byte cap")
    text = path.read_text()
    if path.suffix == ".edges":
        return load_edge_list(text)
    content = [line for line in (ln.split("#", 1)[0].strip() for ln in text.splitlines()) if line]
    if len(content) != 1:
        raise ValueError(f"{path}: expected exactly one LCF line")
    return parse_lcf(content[0])
