"""Structural and spectral bounds for codes built from cubic bipartite graphs.

Everything here is mechanical: the bit-adjacency graph, built from the
bit pairs of each check, and its clique number bound the minimum distance,
a greedy independent set bounds the dimension, and the second adjacency
eigenvalue feeds the two eigenvalue-based distance bounds plus a coarser
piecewise one.  That eigenvalue is sqrt(mu2), with mu2 the second
eigenvalue of the Gram matrix H^T H from LAPACK's ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .codes import LinearCode
from .graphs import Graph, adjacency_array

__all__ = [
    "BitNodeGraph",
    "BoundsReport",
    "bit_node_graph",
    "verify_gram_identity",
    "clique_number",
    "independent_set_lower",
    "dimension_bound_check",
    "spectrum",
    "tanner_bounds",
    "piecewise_distance_bound",
    "predict_trivial",
    "compute_bounds",
]


@dataclass(frozen=True)
class BitNodeGraph:
    """Graph on codeword bits, adjacent when two columns of H share a row.

    ``hypotheses_hold`` is True exactly when no two bits share two checks,
    i.e. when the Tanner graph has no 4-cycle (one without cycles passes).
    Otherwise the graph is still built, but the 6-regularity and Gram
    identity arguments break down.
    """

    graph: Graph
    hypotheses_hold: bool


def bit_node_graph(code: LinearCode) -> BitNodeGraph:
    """Join every pair of bits that sits in a common check.

    Each check contributes the pairs of its own bits, O(m w^2) for row
    weight w; a pair met in a second check is a Tanner 4-cycle and clears
    ``hypotheses_hold``.
    """
    pairs: set[tuple[int, int]] = set()
    hypotheses_hold = True
    for bits in code.H.supports():
        for pair in combinations(bits, 2):
            if pair in pairs:
                hypotheses_hold = False
            pairs.add(pair)
    return BitNodeGraph(Graph.from_edges(code.n, pairs), hypotheses_hold)


def verify_gram_identity(code: LinearCode, gamma: BitNodeGraph) -> bool:
    """Check H^T H = 3I + A(gamma) over the integers.

    Holds exactly when every column of H has weight 3 and no two columns
    share more than one row, i.e. when the Tanner graph is bit-regular of
    degree 3 and 4-cycle free.
    """
    h = code.H.to_numpy().astype(np.int64)
    expected = 3 * np.eye(code.n, dtype=np.int64) + adjacency_array(
        gamma.graph
    ).astype(np.int64)
    return bool(np.array_equal(h.T @ h, expected))


def clique_number(g: Graph) -> int:
    """Exact maximum clique size via branch and bound on bitset candidates.

    Vertices are scanned in index order, each growing cliques only from its
    higher-index neighbours.  That is exact for any order, since every
    clique is found from its lowest-index vertex, and the candidate sets
    stay within the maximum degree (6 on the bit-node graphs built here).
    """
    n = g.vertex_count
    if n == 0:
        return 0
    adj_bits = [0] * n
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            adj_bits[u] |= 1 << v
    best = 1
    for v in range(n):
        best = _extend_clique(1, adj_bits[v] >> (v + 1) << (v + 1), adj_bits, best)
    return best


def _extend_clique(size: int, cand: int, adj_bits: list[int], best: int) -> int:
    """The larger of ``best`` and the largest clique that grows a clique of
    ``size`` vertices by vertices of the bitset ``cand``.  Not a closure:
    a recursive closure is a reference cycle left for the collector.
    """
    if cand == 0:
        return max(size, best)
    while cand:
        if size + cand.bit_count() <= best:
            return best
        v = (cand & -cand).bit_length() - 1
        best = _extend_clique(size + 1, cand & adj_bits[v], adj_bits, best)
        cand &= cand - 1
    return best


def independent_set_lower(g: Graph) -> tuple[int, ...]:
    """Greedy independent set: repeatedly take a minimum-degree vertex.

    Guaranteed size at least ceil(n / (max degree + 1)); for the 6-regular
    bit-adjacency graphs this means at least n/7, and in practice well
    above the n/6 existence bound.
    """
    remaining = set(range(g.vertex_count))
    deg = {v: g.degree(v) for v in remaining}
    chosen: list[int] = []
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        chosen.append(v)
        dropped = {v} | (set(g.adjacency[v]) & remaining)
        remaining -= dropped
        for w in dropped:
            for x in g.adjacency[w]:
                if x in remaining:
                    deg[x] -= 1
    return tuple(sorted(chosen))


def dimension_bound_check(code: LinearCode, s: Sequence[int]) -> bool:
    """Verify k <= n - |s| and k <= floor(5n/6) for an independent bit set s.

    Bits that pairwise share no check have linearly independent H-columns,
    so any such set caps the dimension.  Raises ValueError when s is not
    independent in the bit-adjacency sense.
    """
    cols = code.H.column_bits()
    s = list(s)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if cols[s[i]] & cols[s[j]]:
                raise ValueError(
                    f"bits {s[i]} and {s[j]} share a check, set is not independent"
                )
    return code.k <= code.n - len(s) and code.k <= (5 * code.n) // 6


def spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, from LAPACK's ``eigvalsh``.

    Raises ValueError for a non-square or non-symmetric input.  The
    symmetry test compares row blocks of about 2**20 entries with the
    matching column blocks, so its temporaries stay small beside the matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    step = max(1, (1 << 20) // max(n, 1))
    for i in range(0, n, step):
        if not np.allclose(a[i:i + step], a[:, i:i + step].T, atol=1e-12):
            raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]


def _snap(mu2: float) -> float:
    """mu2 = lambda2**2, rounded to the nearest integer when within 1e-9.

    Catalog graphs reach mu2 = 4 and 6 exactly, where the bounds change
    branch or d1 is 0; eigen-solver rounding must not decide either.
    """
    nearest = round(mu2)
    return float(nearest) if abs(mu2 - nearest) <= 1e-9 else mu2


def tanner_bounds(n: int, lambda2: float) -> tuple[float, float]:
    """The two eigenvalue distance bounds for a (3,3)-regular Tanner graph.

    With mu2 = lambda2**2 they read n(6 - mu2)/(9 - mu2) and
    2n(7 - mu2)/(3(9 - mu2)).  Only mu2 < 9 (connected, non-degenerate)
    is accepted.
    """
    mu2 = _snap(lambda2 * lambda2)
    if mu2 >= 9:
        raise ValueError("second eigenvalue must be below the degree 3")
    d1 = n * (6.0 - mu2) / (9.0 - mu2)
    d2 = 2.0 * n * (7.0 - mu2) / (3.0 * (9.0 - mu2))
    return d1, d2


def piecewise_distance_bound(n: int, lambda2: float) -> float:
    """Coarser spectral bound: 2n/5, 2n/9 or 4 as mu2 = lambda2**2 is at
    most 4, at most 6, or above."""
    mu2 = _snap(lambda2 * lambda2)
    if mu2 <= 4:
        return 2.0 * n / 5.0
    if mu2 <= 6:
        return 2.0 * n / 9.0
    return 4.0


def predict_trivial(g: Graph) -> bool:
    """Power-of-two vertex count forces the [n, 0, n] code."""
    v = g.vertex_count
    return v > 0 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class BoundsReport:
    """All mechanically checkable bounds for one catalog code."""

    lambda2: float
    mu2: float
    d1: float
    d2: float
    tanner_bound: float
    piecewise_bound: float
    dim_bound: float
    clique_number: int
    independent_set_size: int
    predicted_trivial: bool

    def to_dict(self) -> dict:
        return asdict(self)


def compute_bounds(g: Graph, code: LinearCode) -> BoundsReport:
    """Assemble the full BoundsReport for a catalog graph and its code.

    ``code.H`` is g's biadjacency, so lambda2 = sqrt(mu2) with mu2 the
    second eigenvalue of H^T H (snapped like the bounds' own mu2, which
    keeps rounding noise at mu2 = 0 out of the square root).
    """
    h = code.H.to_numpy().astype(np.float64)
    mu2 = _snap(float(spectrum(h.T @ h)[1]))
    lam2 = math.sqrt(mu2)
    d1, d2 = tanner_bounds(code.n, lam2)
    gamma = bit_node_graph(code)
    ind_set = independent_set_lower(gamma.graph)
    return BoundsReport(
        lambda2=lam2,
        mu2=mu2,
        d1=d1,
        d2=d2,
        tanner_bound=max(d1, d2),
        piecewise_bound=piecewise_distance_bound(code.n, lam2),
        dim_bound=5.0 * code.n / 6.0,
        clique_number=clique_number(gamma.graph),
        independent_set_size=len(ind_set),
        predicted_trivial=predict_trivial(g),
    )
