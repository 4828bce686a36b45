#!/usr/bin/env python3
"""Regenerate the data/ catalog from named constructions and validate it.

Every entry is rebuilt from its recipe and run through
``csg_ldpc.analysis.analyze_graph``, the function behind ``csg-ldpc
analyze``: it refuses a graph that is not connected, cubic and bipartite,
and its code parameters and duality flags are compared with the frozen
expected values recorded below.  Entries that fail any check are
reported and *not* written.  The manifest records the recipe and expected
values for each shipped file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from csg_ldpc.analysis import analyze_graph
from csg_ldpc.constructions import (
    bipartite_double_cover,
    coxeter_graph,
    generalized_petersen,
)
from csg_ldpc.graphs import Graph, parse_lcf

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# id -> (LCF string or builder, expected (n, k, d, girth), self-orthogonal, lcd,
#        human-readable recipe)
LCF_RECIPES: dict[str, tuple[str, tuple[int, int, int, int], bool, bool, str]] = {
    "6A": ("[3,-3]^3", (3, 2, 2, 4), False, True, "complete bipartite K(3,3)"),
    "8A": ("[3,-3]^4", (4, 0, 4, 4), True, True, "3-cube"),
    "14A": ("[5,-5]^7", (7, 3, 4, 6), True, False, "Heawood graph"),
    "16A": ("[5,-5]^8", (8, 0, 8, 6), True, True, "Moebius-Kantor graph GP(8,3)"),
    "18A": ("[5,7,-7,7,-7,-5]^3", (9, 2, 6, 6), False, True, "Pappus graph"),
    "20B": ("[5,-5,9,-9]^5", (10, 4, 4, 6), False, True, "Desargues graph GP(10,3)"),
    "24A": ("[5,-9,7,-7,9,-5]^4", (12, 4, 6, 6), False, False, "Nauru graph GP(12,5)"),
    "26A": ("[-7,7]^13", (13, 0, 13, 6), True, True, "F26A graph"),
    "30A": ("[-13,-9,7,-7,9,13]^5", (15, 5, 6, 8), True, False, "Tutte-Coxeter graph"),
    "32A": ("[5,-5,13,-13]^8", (16, 0, 16, 6), True, True, "Dyck graph"),
    "90A": ("[17,-9,37,-37,9,-17]^15", (45, 11, 10, 10), True, False, "Foster graph"),
}

EDGE_RECIPES = {
    "40A": (
        lambda: bipartite_double_cover(generalized_petersen(10, 2)),
        (20, 4, 8, 8),
        True,
        False,
        "bipartite double cover of the dodecahedron GP(10,2)",
    ),
    "48A": (
        lambda: generalized_petersen(24, 5),
        (24, 6, 10, 8),
        False,
        False,
        "generalized Petersen graph GP(24,5)",
    ),
    "56C": (
        lambda: bipartite_double_cover(coxeter_graph()),
        (28, 8, 8, 8),
        False,
        True,
        "bipartite double cover of the Coxeter graph",
    ),
}


def validate(graph_id: str, g: Graph, expected, expect_so, expect_lcd) -> list[str]:
    try:
        report = analyze_graph(g, graph_id)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    got = (report.n, report.k, report.d, report.girth)
    if got != expected:
        problems.append(f"parameters {got} != expected {expected}")
    if report.self_orthogonal != expect_so:
        problems.append("self-orthogonality flag mismatch")
    if report.lcd != expect_lcd:
        problems.append("lcd flag mismatch")
    return problems


def edge_file_text(graph_id: str, recipe: str, g: Graph) -> str:
    lines = [f"# {graph_id}: {recipe}", f"n={g.vertex_count}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


def main() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    manifest = {}
    failed = []
    entries = [
        (gid, "lcf", spec) for gid, spec in LCF_RECIPES.items()
    ] + [
        (gid, "edges", spec) for gid, spec in EDGE_RECIPES.items()
    ]
    for gid, kind, (source, expected, so, lcd, recipe) in sorted(
        entries, key=lambda e: (int(e[0][:-1]), e[0])
    ):
        g = parse_lcf(source) if kind == "lcf" else source()
        problems = validate(gid, g, expected, so, lcd)
        if problems:
            failed.append((gid, problems))
            print(f"FAIL {gid}: {'; '.join(problems)} (not shipped)")
            continue
        filename = f"{gid}.{kind}"
        if kind == "lcf":
            text = f"# {gid}: {recipe}\n{source}\n"
            construction = f"LCF {source}"
        else:
            text = edge_file_text(gid, recipe, g)
            construction = recipe
        (DATA_DIR / filename).write_text(text)
        n, k, d, gr = expected
        manifest[gid] = {
            "file": filename,
            "construction": construction,
            "recipe": recipe,
            "vertices": g.vertex_count,
            "expected": {"n": n, "k": k, "d": d, "girth": gr},
            "self_orthogonal": so,
            "lcd": lcd,
        }
        print(f"ok   {gid}: {filename} [{n},{k},{d}] girth {gr}")
    manifest_text = json.dumps(
        {
            "comment": (
                "Catalog of bipartite cubic symmetric graphs, identified by "
                "census id.  Identity claims rest on the recorded recipe plus "
                "the validation run of this script: connected + cubic + "
                "bipartite + code parameters and duality flags matching the "
                "frozen expected values recorded per entry."
            ),
            "graphs": manifest,
        },
        indent=2,
    )
    (DATA_DIR / "manifest.json").write_text(manifest_text + "\n")
    if failed:
        print(f"{len(failed)} entries failed validation", file=sys.stderr)
        return 1
    print(f"wrote {len(manifest)} graphs + manifest to {DATA_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
