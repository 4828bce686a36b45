"""Binary linear codes whose parity checks come from bipartite cubic graphs.

A code is built in two steps.  ``parity_check_of`` takes a connected cubic
bipartite graph on 2n vertices to its n x n biadjacency matrix H (rows: the
left colour class in ascending vertex order; columns: the right class).
``code_from_parity_check`` eliminates H over GF(2) for the dimension
n - rank(H) and a generator matrix; ``build_code`` runs both.  The code's
Tanner graph is the source graph itself (both node degrees equal 3).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "parity_check_of",
    "code_from_parity_check",
    "minimum_distance",
    "tanner_graph",
    "is_even_code",
    "is_self_orthogonal",
    "is_lcd",
    "hull_dimension",
    "extended_parity_check",
    "extend_parity_check",
]

# Hard cap on any requested ceiling.  The walk costs ~170 ns per codeword
# in CPython: k = 28 (90A extended by 28 bits) took 46 s on a 2-CPU
# machine, and each further dimension doubles it (k = 30 ~3 min, k = 41
# ~4 days), so a larger ceiling would only let a typo hang the caller.
MAX_DIMENSION_CEILING = 28


class EnumerationLimitExceeded(RuntimeError):
    """Minimum-distance enumeration refused because 2**k is too large."""


@dataclass(frozen=True)
class LinearCode:
    """Length, dimension, parity-check and generator matrices of a binary code.

    Instances are immutable and hold no derived state: the minimum distance
    is walked afresh on every call.
    """

    n: int
    k: int
    H: BitMatrix
    G: BitMatrix


def code_from_parity_check(h: BitMatrix) -> LinearCode:
    """Code with parity-check h; generator rows span the right nullspace."""
    g = h.nullspace_basis()
    return LinearCode(n=h.ncols, k=g.nrows, H=h, G=g)


def parity_check_of(g: Graph) -> BitMatrix:
    """Biadjacency matrix H of a connected cubic bipartite graph.

    Raises NotConnectedError, NotCubicError or NotBipartiteError, in that
    order of precedence; a graph with no vertices is not connected.  Only a
    graph that is not cubic pays for a connectivity search: for a cubic one,
    ``bipartition``'s one search finds unreachable vertices and odd cycles.
    """
    if g.vertex_count == 0:
        raise NotConnectedError("graph has no vertices")
    if not is_cubic(g):
        if not is_connected(g):
            raise NotConnectedError("graph is not connected")
        raise NotCubicError("graph is not 3-regular")
    sides = bipartition(g)
    left = sorted(sides.left)
    # cubic and bipartite: 3 |left| = |E| = 3 |right|, so H is square
    right = sorted(sides.right)
    col_of = {v: j for j, v in enumerate(right)}
    rows = []
    for u in left:
        bits = 0
        for v in g.adjacency[u]:
            bits |= 1 << col_of[v]
        rows.append(bits)
    return BitMatrix(len(left), len(right), tuple(rows))


def build_code(g: Graph) -> LinearCode:
    """The LDPC code of g: ``parity_check_of`` (and its errors), then elimination."""
    return code_from_parity_check(parity_check_of(g))


def minimum_distance(code: LinearCode, ceiling: int = MAX_DIMENSION_CEILING) -> int:
    """Exact minimum distance by Gray-code walk over all 2**k codewords.

    Step t flips the generator row indexed by the lowest set bit of t, so
    each codeword costs a single XOR.  Codes with k = 0 return n by
    convention; k beyond ``ceiling``, or beyond MAX_DIMENSION_CEILING
    whatever the ceiling asked for, raises EnumerationLimitExceeded.
    """
    if code.k == 0:
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
    return best


def tanner_graph(h: BitMatrix) -> Graph:
    """Bipartite check/bit incidence graph: checks 0..m-1, bits m..m+n-1."""
    m = h.nrows
    edges = [(i, m + j) for i, support in enumerate(h.supports()) for j in support]
    return Graph.from_edges(m + h.ncols, edges)


def is_even_code(code: LinearCode) -> bool:
    """True when every generator row (hence every codeword) has even weight."""
    return all(r.bit_count() % 2 == 0 for r in code.G.rows)


def hull_dimension(code: LinearCode) -> int:
    """Dimension of the hull, the code's intersection with its dual.

    Equals k - rank(G G^T) over GF(2).  This is the only place G G^T is
    formed; both duality flags below are read off this number.
    """
    return code.k - code.G.multiply(code.G.transpose()).rank()


def is_self_orthogonal(code: LinearCode) -> bool:
    """True when the code is contained in its dual: the hull is the whole
    code (G G^T = 0 over GF(2))."""
    return hull_dimension(code) == code.k


def is_lcd(code: LinearCode) -> bool:
    """Linear complementary dual: the hull is trivial (rank G G^T = k)."""
    return hull_dimension(code) == 0


def extended_parity_check(h: BitMatrix, l: int) -> BitMatrix:
    """h with the first l columns of the identity adjoined, boosting the rate.

    The new bits hang off single checks as degree-1 leaves, so no new cycle
    appears in the Tanner graph.  Requires 1 <= l <= n.
    """
    if not 1 <= l <= h.ncols:
        raise ValueError(f"l must be in 1..{h.ncols}, got {l}")
    rows = tuple(r | 1 << (h.ncols + i) if i < l else r for i, r in enumerate(h.rows))
    return BitMatrix(h.nrows, h.ncols + l, rows)


def extend_parity_check(code: LinearCode, l: int) -> LinearCode:
    """The code of ``extended_parity_check(code.H, l)``: one elimination,
    of the extended H."""
    return code_from_parity_check(extended_parity_check(code.H, l))
