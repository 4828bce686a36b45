"""Dense GF(2) matrices stored as one Python int bitset per row.

Bit j of ``rows[i]`` is the entry in row i, column j.  Arbitrary-precision
ints give word-level XOR for free and ``int.bit_count()`` does the weight
counting, so none of the routines below need an external library.  Matrices
are immutable; every operation returns a fresh instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["BitMatrix"]


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix, one int bitset per row."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.rows) != self.nrows:
            raise ValueError(f"expected {self.nrows} rows, got {len(self.rows)}")
        limit = 1 << self.ncols
        for i, r in enumerate(self.rows):
            if r < 0 or r >= limit:
                raise ValueError(f"row {i} has bits outside {self.ncols} columns")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_rows(cls, rows: Iterable[int], ncols: int) -> "BitMatrix":
        rows = tuple(rows)
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence[int]], ncols: int | None = None) -> "BitMatrix":
        """Build from nested 0/1 sequences (rows of entries)."""
        packed = []
        width = ncols
        for row in entries:
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            bits = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                bits |= e << j
            packed.append(bits)
        return cls(len(packed), width or 0, tuple(packed))

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "BitMatrix":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        # pass the width explicitly so zero-row arrays keep their columns
        return cls.from_dense(arr.tolist(), ncols=int(arr.shape[1]))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # ------------------------------------------------------------------
    # element access and conversion

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry out of range")
        return (self.rows[i] >> j) & 1

    def row_weight(self, i: int) -> int:
        return self.rows[i].bit_count()

    def supports(self) -> list[list[int]]:
        """Each row's column indices, ascending: its set bits, lowest first."""
        out = []
        for r in self.rows:
            support = []
            while r:
                support.append((r & -r).bit_length() - 1)
                r &= r - 1
            out.append(support)
        return out

    def column_bits(self) -> tuple[int, ...]:
        """Columns as int bitsets (bit i set when entry (i, j) is 1)."""
        return self.transpose().rows

    def to_numpy(self) -> np.ndarray:
        """Dense uint8 array view of the same matrix."""
        nbytes = (self.ncols + 7) // 8
        raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in self.rows), dtype=np.uint8)
        return np.unpackbits(
            raw.reshape(self.nrows, nbytes), axis=1, count=self.ncols, bitorder="little"
        )

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    # ------------------------------------------------------------------
    # algebra

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.ncols
        for i, support in enumerate(self.supports()):
            for j in support:
                cols[j] |= 1 << i
        return BitMatrix(self.ncols, self.nrows, tuple(cols))

    def multiply(self, other: "BitMatrix") -> "BitMatrix":
        """GF(2) matrix product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        out = []
        for support in self.supports():
            acc = 0
            for j in support:
                acc ^= other.rows[j]
            out.append(acc)
        return BitMatrix(self.nrows, other.ncols, tuple(out))

    def rank(self) -> int:
        """GF(2) rank: the number of pivots of the reduced row echelon form."""
        return len(self.rref()[1])

    def rref(self) -> tuple["BitMatrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows dropped, plus pivot columns."""
        work = list(self.rows)
        pivots: list[int] = []
        r = 0
        for col in range(self.ncols):
            mask = 1 << col
            pivot = next((i for i in range(r, len(work)) if work[i] & mask), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(len(work)):
                if i != r and work[i] & mask:
                    work[i] ^= work[r]
            pivots.append(col)
            r += 1
            if r == len(work):
                break
        return BitMatrix(r, self.ncols, tuple(work[:r])), tuple(pivots)

    def nullspace_basis(self) -> "BitMatrix":
        """Basis of the right nullspace, one row per free column, ascending."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = 1 << f
            for idx, p in enumerate(pivots):
                if (reduced.rows[idx] >> f) & 1:
                    vec |= 1 << p
            basis.append(vec)
        return BitMatrix(len(basis), self.ncols, tuple(basis))

    def __str__(self) -> str:
        return "\n".join(
            "".join(str((r >> j) & 1) for j in range(self.ncols)) for r in self.rows
        )
