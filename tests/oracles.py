"""Independent reference implementations used to cross-check the package.

Nothing here shares an algorithm with the code under test: distances come
from a search over parity-check columns instead of a generator-space walk,
girth from per-edge removal instead of growing balls, decoders from plain
dict-of-edges loops instead of vectorized gather/scatter, eigenvalues from
cyclic Jacobi rotations instead of LAPACK.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from csg_ldpc.codes import tanner_graph
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import Graph


def gf2_rank_dense(entries: Sequence[Sequence[int]]) -> int:
    """Plain Gaussian elimination on a dense 0/1 matrix."""
    a = [list(row) for row in entries]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(nrows):
            if r != rank and a[r][c]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _dense(h: BitMatrix) -> list[list[int]]:
    return [[h.get(i, j) for j in range(h.ncols)] for i in range(h.nrows)]


def min_distance_by_column_search(h: BitMatrix) -> int:
    """Size of the smallest set of columns of h that sums to zero over GF(2).

    Full column rank returns n, matching the [n, 0, n] convention.  The
    search deepens a size budget and always branches on columns covering the
    lowest still-unsatisfied check, so the tree stays tiny even for n = 28.
    """
    cols = list(h.column_bits())
    n = len(cols)
    if n == 0:
        return 0
    if gf2_rank_dense(_dense(h)) == n:
        return n
    covers: list[list[int]] = [[] for _ in range(h.nrows)]
    for j, c in enumerate(cols):
        b = c
        while b:
            covers[(b & -b).bit_length() - 1].append(j)
            b &= b - 1
    maxw = max(c.bit_count() for c in cols)

    def extend(acc: int, used: int, budget: int, floor: int) -> bool:
        if acc == 0:
            return True
        if budget == 0 or acc.bit_count() > maxw * budget:
            return False
        row = (acc & -acc).bit_length() - 1
        for j in covers[row]:
            if j > floor and not (used >> j) & 1:
                if extend(acc ^ cols[j], used | (1 << j), budget - 1, floor):
                    return True
        return False

    for target in range(1, n + 1):
        for first in range(n):
            if extend(cols[first], 1 << first, target - 1, first):
                return target
    raise AssertionError("rank check promised a dependency")


def girth_by_edge_removal(g: Graph) -> int | None:
    """Shortest cycle length via BFS distance between edge endpoints.

    For each edge {u, v} the shortest cycle through it has length
    dist(u, v) + 1 measured in the graph without that edge; the minimum over
    all edges is the girth.
    """
    best: int | None = None
    for u, v in g.edges():
        dist = [-1] * g.vertex_count
        dist[u] = 0
        q = deque([u])
        while q:
            x = q.popleft()
            if x == v:
                break
            for y in g.adjacency[x]:
                if (x, y) in ((u, v), (v, u)):
                    continue
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if dist[v] >= 0 and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def bit_pairs_by_columns(h: BitMatrix) -> tuple[Graph, bool]:
    """Bit-adjacency graph from every column pair that shares a row, plus
    whether the Tanner graph has no cycle shorter than 6 (a Tanner forest
    counts as having none)."""
    cols = h.column_bits()
    n = h.ncols
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if cols[u] & cols[v]]
    tanner_girth = girth_by_edge_removal(tanner_graph(h))
    return Graph.from_edges(n, pairs), tanner_girth is None or tanner_girth >= 6


def codeword_weights(generator_rows: Sequence[int]) -> list[int]:
    """Weights of every nonzero codeword, by direct subset combination."""
    k = len(generator_rows)
    if k > 20:
        raise ValueError("oracle enumeration limited to k <= 20")
    weights = []
    for index in range(1, 1 << k):
        word = 0
        for b in range(k):
            if (index >> b) & 1:
                word ^= generator_rows[b]
        weights.append(word.bit_count())
    return weights


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending.

    Sweeps stop once the off-diagonal Frobenius norm drops below 1e-10;
    failing to converge within 100 sweeps raises RuntimeError.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if n < 2:
        return np.sort(np.diag(a))[::-1]
    skip = 1e-14 * max(1.0, float(np.abs(a).max()))
    off_diag = ~np.eye(n, dtype=bool)
    for _ in range(100):
        # sum the off-diagonal squares directly; subtracting the diagonal
        # from the full Frobenius norm cancels catastrophically once the
        # matrix is nearly diagonal and can leave off stuck above 1e-10
        off = math.sqrt(float((a[off_diag] ** 2).sum()))
        if off < 1e-10:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    return np.sort(np.diag(a))[::-1]


def to_networkx(g: Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges())
    return out


def support_lists(h: BitMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Per-check bit lists and per-bit check lists, ascending."""
    check_bits = [
        [j for j in range(h.ncols) if h.get(i, j)] for i in range(h.nrows)
    ]
    bit_checks = [
        [i for i in range(h.nrows) if h.get(i, j)] for j in range(h.ncols)
    ]
    return check_bits, bit_checks


def _syndrome_zero(check_bits: list[list[int]], est: Sequence[int]) -> bool:
    return all(sum(est[b] for b in bits) % 2 == 0 for bits in check_bits)


def reference_gallager_a(
    h: BitMatrix, y: Sequence[int], max_iter: int = 50
) -> tuple[list[int], int]:
    """Dict-of-edges mirror of the hard-decision decoder, integer exact."""
    check_bits, bit_checks = support_lists(h)
    n = h.ncols
    est = [int(v) for v in y]
    if _syndrome_zero(check_bits, est) or max_iter == 0:
        return est, 0
    msg = {(b, c): int(y[b]) for b in range(n) for c in bit_checks[b]}
    for it in range(1, max_iter + 1):
        cmsg = {}
        for ci, bits in enumerate(check_bits):
            total = sum(msg[(b, ci)] for b in bits) % 2
            for b in bits:
                cmsg[(ci, b)] = (total + msg[(b, ci)]) % 2
        est = []
        for b in range(n):
            ones = sum(cmsg[(c, b)] for c in bit_checks[b])
            votes = 2 * (ones + y[b])
            quorum = len(bit_checks[b]) + 1
            if votes > quorum:
                est.append(1)
            elif votes < quorum:
                est.append(0)
            else:
                est.append(int(y[b]))
        if _syndrome_zero(check_bits, est):
            return est, it
        for b in range(n):
            deg_other = len(bit_checks[b]) - 1
            incoming = sum(cmsg[(c, b)] for c in bit_checks[b])
            for c in bit_checks[b]:
                others = incoming - cmsg[(c, b)]
                if deg_other == 0:
                    msg[(b, c)] = int(y[b])
                elif y[b] == 0 and others == deg_other:
                    msg[(b, c)] = 1
                elif y[b] == 1 and others == 0:
                    msg[(b, c)] = 0
                else:
                    msg[(b, c)] = int(y[b])
    return est, max_iter


def reference_sum_product(
    h: BitMatrix, llr: Sequence[float], max_iter: int = 50, clamp: float = 30.0
) -> tuple[list[int], int]:
    """Scalar-loop sum-product with the same clipping points as the package.

    Works edge by edge with numpy scalar tanh/arctanh so that, given the
    same operation order, results agree with the vectorized decoder to the
    last bit.
    """
    one_minus = float(np.nextafter(1.0, 0.0))
    check_bits, bit_checks = support_lists(h)
    n = h.ncols
    est = [1 if v < 0 else 0 for v in llr]
    if _syndrome_zero(check_bits, est) or max_iter == 0:
        return est, 0
    msg = {(b, c): float(llr[b]) for b in range(n) for c in bit_checks[b]}
    for it in range(1, max_iter + 1):
        cmsg = {}
        for ci, bits in enumerate(check_bits):
            th = {
                b: float(np.tanh(min(max(msg[(b, ci)], -clamp), clamp) / 2.0))
                for b in bits
            }
            for b in bits:
                prod = 1.0
                for b2 in bits:
                    if b2 != b:
                        prod = prod * th[b2]
                # clip into the open interval before arctanh, then clamp
                prod = min(max(prod, -one_minus), one_minus)
                val = 2.0 * float(np.arctanh(prod))
                cmsg[(ci, b)] = min(max(val, -clamp), clamp)
        total = []
        for b in range(n):
            s = 0.0
            for c in bit_checks[b]:
                s += cmsg[(c, b)]
            total.append(float(llr[b]) + s)
        est = [1 if t < 0 else 0 for t in total]
        if _syndrome_zero(check_bits, est):
            return est, it
        for b in range(n):
            for c in bit_checks[b]:
                msg[(b, c)] = total[b] - cmsg[(c, b)]
    return est, max_iter


def leave_one_out_products_loop(x: np.ndarray) -> np.ndarray:
    """out[..., p] = 1 * x[..., 0] * ... (skipping p) ... * x[..., d - 1],
    one fresh product per slot, multiplied left to right."""
    out = np.empty_like(x)
    for p in range(x.shape[-1]):
        product = np.ones(x.shape[:-1], dtype=x.dtype)
        for q in range(x.shape[-1]):
            if q != p:
                product = product * x[..., q]
        out[..., p] = product
    return out
