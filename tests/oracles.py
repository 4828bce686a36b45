"""Independent reference implementations used to cross-check the package.

Nothing here shares an algorithm with the code under test: distances come
from a search over parity-check columns instead of a generator-space walk,
girth from per-edge removal instead of growing balls, decoders from plain
dict-of-edges loops instead of vectorized gather/scatter, eigenvalues from
cyclic Jacobi rotations instead of LAPACK, a circulant code's dimension
from a polynomial gcd instead of elimination, and H from an alist's own
row and column sections instead of ``export_alist``'s supports.  One
sum-product iteration is kept as the decoder ran it before its no-op
calls were dropped, so the leaner step is pinned to it bit for bit.

The paper's theorem checks (the Gram identity and the dimension bounds)
and the test helpers that the package itself never calls live here too.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Sequence

import numpy as np

from csg_ldpc.bounds import BitNodeGraph, gram_matrix
from csg_ldpc.channel import f_t
from csg_ldpc.codes import LinearCode, code_from_parity_check, extended_parity_check
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import Graph, adjacency_array


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


def tanner_graph(h: BitMatrix) -> Graph:
    """Bipartite check/bit incidence graph: checks 0..m-1, bits m..m+n-1."""
    m = h.nrows
    edges = [(i, m + j) for i, support in enumerate(h.supports()) for j in support]
    return Graph.from_edges(m + h.ncols, edges)


def bit_pairs_by_columns(h: BitMatrix) -> tuple[Graph, bool]:
    """Bit-adjacency graph from every column pair that shares a row, plus
    whether the Tanner graph has no cycle shorter than 6 (a Tanner forest
    counts as having none)."""
    cols = h.column_bits()
    n = h.ncols
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if cols[u] & cols[v]]
    tanner_girth = girth_by_edge_removal(tanner_graph(h))
    return Graph.from_edges(n, pairs), tanner_girth is None or tanner_girth >= 6


def verify_gram_identity(code: LinearCode, gamma: BitNodeGraph) -> bool:
    """Check H^T H = 3I + A(gamma) over the integers.

    Holds exactly when every column of H has weight 3 and no two columns
    share more than one row, i.e. when the Tanner graph is bit-regular of
    degree 3 and 4-cycle free.
    """
    expected = 3 * np.eye(code.n, dtype=np.int64) + adjacency_array(gamma.graph).astype(np.int64)
    return bool(np.array_equal(gram_matrix(code), expected))


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


def syndrome_mean_formula(n: int, rho: float) -> float:
    """Expected syndrome weight n * f_3(rho) for n checks of degree 3."""
    return n * f_t(3, rho)


def extend_parity_check(code: LinearCode, l: int) -> LinearCode:
    """The code of ``extended_parity_check(code.H, l)``."""
    return code_from_parity_check(extended_parity_check(code.H, l))


def parse_alist(text: str) -> BitMatrix:
    """H from an alist's row section, by line position: four header lines,
    n column lines, m row lines, then nothing but blank lines.  Asserts
    that the header and the column section agree with those rows."""
    lines = [[int(t) for t in ln.split()] for ln in text.splitlines()]
    (n, m), max_weights, col_weights, row_weights = lines[:4]
    col_lines, row_lines = lines[4:4 + n], lines[4 + n:4 + n + m]
    assert len(col_lines) == n and len(row_lines) == m and not any(lines[4 + n + m:])
    rows = [sum(1 << (j - 1) for j in line if j) for line in row_lines]
    cols = [sum(1 << (i - 1) for i in line if i) for line in col_lines]
    assert cols == [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(n)]
    assert col_weights == [c.bit_count() for c in cols] and row_weights == [r.bit_count() for r in rows]
    assert max_weights == [max(col_weights, default=0), max(row_weights, default=0)]
    assert all(len(line) == max_weights[0] for line in col_lines)
    assert all(len(line) == max_weights[1] for line in row_lines)
    return BitMatrix(m, n, tuple(rows))


def gf2_poly_gcd(a: int, b: int) -> int:
    """gcd of two polynomials over GF(2), each an int whose bit i is the
    coefficient of x^i."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def circulant_dimension(m: int, connection: Sequence[int]) -> int:
    """k of the code whose H is the m x m circulant with first row
    sum_{s in connection} x^s, the biadjacency of the Haar graph of Z_m:
    deg gcd(x^m + 1, h(x)), since the circulant's rank is m minus it."""
    h = sum(1 << (s % m) for s in connection)
    return gf2_poly_gcd((1 << m) | 1, h).bit_length() - 1


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


def exact_syndrome_variance(h: BitMatrix, rho: Fraction) -> Fraction:
    """Variance of the syndrome weight W = sum_i s_i of BSC(rho) noise on h,
    exactly, as Var W = sum_i Var s_i + sum_{i != j} Cov(s_i, s_j).

    With q = 1 - 2 rho, E[(-1)^s_i] = q^|i| for a check of |i| bits, so
    Var s_i = (1 - q^(2|i|)) / 4.  Two checks that share t bits and hold a
    and b bits of their own have E[(-1)^(s_i + s_j)] = q^(a + b), so
    Cov(s_i, s_j) = q^(a + b) (1 - q^(2t)) / 4.  The diagonal is the case
    i = j (t = |i|, a = b = 0), so one sum over ordered pairs covers both.
    """
    q = 1 - 2 * Fraction(rho)
    checks = [set(bits) for bits in support_lists(h)[0]]
    return sum(
        (q ** (len(ci) + len(cj) - 2 * len(ci & cj)) * (1 - q ** (2 * len(ci & cj))) / 4
         for ci in checks for cj in checks),
        Fraction(0),
    )


def check_columns_from_dense(h: BitMatrix) -> np.ndarray:
    """``channel.ParityChecks.columns`` derived from ``h.to_numpy()``:
    column i lists row i's nonzero columns, ascending, padded with n to the
    largest row weight; the table keeps at least one row."""
    supports = [np.nonzero(row)[0] for row in h.to_numpy()]
    table = np.full((max([1, *map(len, supports)]), h.nrows), h.ncols, dtype=np.intp)
    for i, cols in enumerate(supports):
        table[:len(cols), i] = cols
    return table


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


def sum_product_step_unpruned(decoder, llr: np.ndarray, total: np.ndarray, c2b: np.ndarray):
    """One iteration of ``SumProductDecoder._step`` as it ran before its
    no-op calls went: halving by division, a write to the padding slots
    even when there are none, each leave-one-out product formed afresh
    left to right, the clip of every product into (-1, 1), whatever the
    check degrees, and the totals from ``np.add.reduce`` along axis 0.
    Reads the decoder's tables only; its inputs stay as they are.
    Returns (estimate, total, c2b)."""
    one_minus = float(np.nextafter(1.0, 0.0))
    lanes = llr.shape[1]
    b2c = np.clip(total - c2b, -30.0, 30.0) / 2.0
    th = np.tanh(b2c).reshape(-1, lanes).take(decoder.slot_entry, axis=0)
    th[decoder.pad_slots] = 1.0
    th = th.reshape(*decoder.view, lanes)
    products = np.moveaxis(leave_one_out_products_loop(np.moveaxis(th, 0, -1)), -1, 0)
    products = np.clip(products, -one_minus, one_minus)
    products = np.clip(np.arctanh(products) * 2.0, -30.0, 30.0)
    c2b = products.reshape(decoder.slots, lanes).take(decoder.bit_slots, axis=0)
    c2b[decoder.bit_pad] = 0.0
    total = np.add.reduce(c2b, axis=0) + llr
    return total < 0, total, c2b
