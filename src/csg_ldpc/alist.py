"""MacKay alist serialization of parity-check matrices.

Layout, all values space separated one line each: ``n m``; maximum column
and row weight; the n column weights; the m row weights; for each column
its 1-based row indices padded with 0 to the maximum column weight; for
each row its 1-based column indices padded likewise.  A single trailing
newline ends the file.
"""

from __future__ import annotations

from .gf2 import BitMatrix

__all__ = ["export_alist"]


def export_alist(h: BitMatrix) -> str:
    n = h.ncols
    m = h.nrows
    col_supports = h.transpose().supports()
    row_supports = h.supports()
    max_col = max((len(s) for s in col_supports), default=0)
    max_row = max((len(s) for s in row_supports), default=0)
    lines = [
        f"{n} {m}",
        f"{max_col} {max_row}",
        " ".join(str(len(s)) for s in col_supports),
        " ".join(str(len(s)) for s in row_supports),
    ]
    for s in col_supports:
        padded = [i + 1 for i in s] + [0] * (max_col - len(s))
        lines.append(" ".join(str(v) for v in padded))
    for s in row_supports:
        padded = [j + 1 for j in s] + [0] * (max_row - len(s))
        lines.append(" ".join(str(v) for v in padded))
    return "\n".join(lines) + "\n"
