"""MacKay alist serialization of parity-check matrices.

Layout, all values space separated one line each: ``n m``; maximum column
and row weight; the n column weights; the m row weights; for each column
its 1-based row indices padded with 0 to the maximum column weight; for
each row its 1-based column indices padded likewise.  A single trailing
newline ends the file.
"""

from __future__ import annotations

from .gf2 import BitMatrix

__all__ = ["export_alist", "parse_alist", "AlistFormatError"]


class AlistFormatError(ValueError):
    pass


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


def parse_alist(text: str) -> BitMatrix:
    """Rebuild the matrix, cross-checking column and row sections.

    Lines are read by position: four header lines, then n column and m row
    index lines, any of which is empty when its weight is 0; blank lines
    past those are ignored.
    """
    try:
        tokens = [[int(t) for t in ln.split()] for ln in text.splitlines()]
    except ValueError as exc:
        raise AlistFormatError(f"non-integer token: {exc}") from None
    if len(tokens) < 4:
        raise AlistFormatError("truncated alist header")
    if len(tokens[0]) != 2:
        raise AlistFormatError("first line must hold 'n m'")
    n, m = tokens[0]
    if n < 0 or m < 0:
        raise AlistFormatError("negative dimensions")
    if len(tokens[1]) != 2:
        raise AlistFormatError("second line must hold the maximum weights")
    max_col, max_row = tokens[1]
    col_weights, row_weights = tokens[2], tokens[3]
    if len(col_weights) != n:
        raise AlistFormatError(f"expected {n} column weights, got {len(col_weights)}")
    if len(row_weights) != m:
        raise AlistFormatError(f"expected {m} row weights, got {len(row_weights)}")
    body = tokens[4:]
    while len(body) > n + m and not body[-1]:
        body.pop()
    if len(body) != n + m:
        raise AlistFormatError(f"expected {n + m} index lines, got {len(body)}")
    rows = [0] * m
    for j, line in enumerate(body[:n]):
        if len(line) != max_col:
            raise AlistFormatError(f"column {j}: expected {max_col} entries")
        entries = [v for v in line if v != 0]
        if len(entries) != col_weights[j]:
            raise AlistFormatError(f"column {j}: weight does not match header")
        for v in entries:
            if not 1 <= v <= m:
                raise AlistFormatError(f"column {j}: row index {v} out of range")
            rows[v - 1] |= 1 << j
    check_rows = [0] * m
    for i, line in enumerate(body[n:]):
        if len(line) != max_row:
            raise AlistFormatError(f"row {i}: expected {max_row} entries")
        entries = [v for v in line if v != 0]
        if len(entries) != row_weights[i]:
            raise AlistFormatError(f"row {i}: weight does not match header")
        for v in entries:
            if not 1 <= v <= n:
                raise AlistFormatError(f"row {i}: column index {v} out of range")
            check_rows[i] |= 1 << (v - 1)
    if rows != check_rows:
        raise AlistFormatError("column and row sections disagree")
    return BitMatrix(m, n, tuple(rows))
