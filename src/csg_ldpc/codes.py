"""Binary linear codes whose parity checks come from bipartite cubic graphs.

A connected cubic bipartite graph on 2n vertices yields an n x n
parity-check matrix H: rows are indexed by the left colour class in
ascending vertex order, columns by the right class.  The resulting code has
length n, dimension n - rank(H), and its Tanner graph is the source graph
itself (both node degrees equal 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2 import BitMatrix
from .graphs import (
    Graph,
    NotBipartiteError,
    NotConnectedError,
    NotCubicError,
    bipartition,
    is_connected,
    is_cubic,
)

__all__ = [
    "LinearCode",
    "EnumerationLimitExceeded",
    "MAX_DIMENSION_CEILING",
    "build_code",
    "code_from_parity_check",
    "minimum_distance",
    "tanner_graph",
    "is_even_code",
    "is_self_orthogonal",
    "is_lcd",
    "hull_dimension",
    "extend_parity_check",
]

# Hard cap on any requested ceiling.  The walk costs ~170 ns per codeword
# in CPython: k = 28 (90A extended by 28 bits) took 46 s on a 2-CPU
# machine, and each further dimension doubles it (k = 30 ~3 min, k = 41
# ~4 days), so a larger ceiling would only let a typo hang the caller.
MAX_DIMENSION_CEILING = 28


class EnumerationLimitExceeded(RuntimeError):
    """Minimum-distance enumeration refused because 2**k is too large."""


@dataclass
class LinearCode:
    """Length, dimension, parity-check and generator matrices of a binary code.

    ``w_c`` / ``w_r`` hold the constant column / row weight of H when it is
    regular, else None.  The minimum distance is cached after the first
    computation; treat instances as immutable.
    """

    n: int
    k: int
    H: BitMatrix
    G: BitMatrix
    w_c: int | None = None
    w_r: int | None = None
    _distance: int | None = field(default=None, repr=False, compare=False)


def _constant_weight(weights: list[int]) -> int | None:
    return weights[0] if weights and len(set(weights)) == 1 else None


def code_from_parity_check(h: BitMatrix) -> LinearCode:
    """Code with parity-check h; generator rows span the right nullspace."""
    g = h.nullspace_basis()
    n = h.ncols
    k = g.nrows
    col_weights = [c.bit_count() for c in h.column_bits()]
    row_weights = [r.bit_count() for r in h.rows]
    return LinearCode(
        n=n, k=k, H=h, G=g,
        w_c=_constant_weight(col_weights),
        w_r=_constant_weight(row_weights),
    )


def build_code(g: Graph) -> LinearCode:
    """Build the LDPC code of a connected cubic bipartite graph.

    Raises NotConnectedError, NotCubicError or NotBipartiteError (each
    distinct) when the input does not qualify; a graph with no vertices
    is not connected.
    """
    if g.vertex_count == 0:
        raise NotConnectedError("graph has no vertices")
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    if not is_cubic(g):
        raise NotCubicError("graph is not 3-regular")
    sides = bipartition(g)
    left = sorted(sides.left)
    right = sorted(sides.right)
    if len(left) != len(right):
        raise NotCubicError("colour classes differ in size")
    col_of = {v: j for j, v in enumerate(right)}
    rows = []
    for u in left:
        bits = 0
        for v in g.adjacency[u]:
            bits |= 1 << col_of[v]
        rows.append(bits)
    return code_from_parity_check(BitMatrix(len(left), len(right), tuple(rows)))


def minimum_distance(code: LinearCode, ceiling: int = MAX_DIMENSION_CEILING) -> int:
    """Exact minimum distance by Gray-code walk over all 2**k codewords.

    Step t flips the generator row indexed by the lowest set bit of t, so
    each codeword costs a single XOR.  Codes with k = 0 return n by
    convention; k beyond ``ceiling``, or beyond MAX_DIMENSION_CEILING
    whatever the ceiling asked for, raises EnumerationLimitExceeded.
    """
    if code._distance is not None:
        return code._distance
    if code.k == 0:
        code._distance = code.n
        return code.n
    ceiling = min(ceiling, MAX_DIMENSION_CEILING)
    if code.k > ceiling:
        raise EnumerationLimitExceeded(f"k={code.k} exceeds ceiling {ceiling}")
    rows = code.G.rows
    acc = 0
    best = code.n + 1
    for t in range(1, 1 << code.k):
        acc ^= rows[(t & -t).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
            if best == 1:
                break
    code._distance = best
    return best


def tanner_graph(h: BitMatrix) -> Graph:
    """Bipartite check/bit incidence graph: checks 0..m-1, bits m..m+n-1."""
    m = h.nrows
    edges = [(i, m + j) for i, support in enumerate(h.supports()) for j in support]
    return Graph.from_edges(m + h.ncols, edges)


def is_even_code(code: LinearCode) -> bool:
    """True when every generator row (hence every codeword) has even weight."""
    return all(r.bit_count() % 2 == 0 for r in code.G.rows)


def _gram(code: LinearCode) -> BitMatrix:
    return code.G.multiply(code.G.transpose())


def is_self_orthogonal(code: LinearCode) -> bool:
    """True when the code is contained in its dual (G G^T = 0 over GF(2))."""
    return _gram(code).is_zero()


def hull_dimension(code: LinearCode) -> int:
    """Dimension of the intersection with the dual: k - rank(G G^T)."""
    return code.k - _gram(code).rank()


def is_lcd(code: LinearCode) -> bool:
    """Linear complementary dual: the hull is trivial (rank G G^T = k)."""
    return hull_dimension(code) == 0


def extend_parity_check(code: LinearCode, l: int) -> LinearCode:
    """Adjoin the first l columns of the identity to H, boosting the rate.

    The new bits hang off single checks as degree-1 leaves, so no new cycle
    appears in the Tanner graph.  Requires 1 <= l <= n.
    """
    if not 1 <= l <= code.n:
        raise ValueError(f"l must be in 1..{code.n}, got {l}")
    rows = []
    for i, r in enumerate(code.H.rows):
        if i < l:
            r |= 1 << (code.n + i)
        rows.append(r)
    extended = BitMatrix(code.H.nrows, code.n + l, tuple(rows))
    return code_from_parity_check(extended)
