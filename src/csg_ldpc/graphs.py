"""Simple undirected graphs plus the two catalog file formats.

Two loaders are provided: a plain edge list (``u v`` per line, ``#``
comments, optional leading ``n=<count>``) and LCF notation for cubic
Hamiltonian graphs.  Both reject anything that is not a simple graph,
and anything with more than ``MAX_VERTICES`` vertices.

The three builders, ``Graph.from_edges`` and the two loaders, share one
rule in one pass over their input: each vertex's neighbours go into a
set, a neighbour already there is a repeated edge (in either
orientation), and the sets are sorted once into the ``Graph``'s tuples
(``_sorted_graph``).  The loaders build their sets themselves, so each
edge is checked once, with the loader's own message: an edge list's
carries its line number, and LCF reads each vertex's degree off its set.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Graph",
    "Bipartition",
    "GraphFormatError",
    "LcfError",
    "MAX_VERTICES",
    "NotBipartiteError",
    "NotConnectedError",
    "NotCubicError",
    "load_edge_list",
    "parse_lcf",
    "girth",
    "bipartition",
    "is_connected",
    "is_cubic",
    "adjacency_array",
]


# The loaders allocate per vertex, so a count such as n=3000000000 would
# exhaust memory before any check on the graph could run.  The cap sits
# far above the graphs studied here (the shipped catalog stops at 90
# vertices, the paper's census below 200) and matches the largest census
# of cubic symmetric graphs (Conder's, up to 10000 vertices); a loader
# needs a few MB at the cap.
MAX_VERTICES = 10_000


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


class LcfError(ValueError):
    """Malformed or inconsistent LCF notation."""


class NotBipartiteError(ValueError):
    """Raised with a witness odd cycle in ``odd_cycle``."""

    def __init__(self, message: str, odd_cycle: list[int]):
        super().__init__(message)
        self.odd_cycle = odd_cycle


class NotConnectedError(ValueError):
    pass


class NotCubicError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on vertices 0..vertex_count-1 with the given edges.

        Each vertex's neighbours are collected in a set, so a neighbour
        already there is a repeated edge, in either orientation.  Raises
        ``ValueError`` for an endpoint outside 0..vertex_count-1, a
        self-loop or a repeated edge, whichever the first bad edge shows.
        """
        nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{vertex_count - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return _sorted_graph(nbrs)


def _sorted_graph(nbrs: list[set[int]]) -> Graph:
    """The ``Graph`` of per-vertex neighbour sets, each sorted once."""
    # from a list, not a generator: CPython resizes a generator's tuple,
    # and a resized tuple of <= 20 items grows a free list on release
    return Graph(tuple([tuple(sorted(a)) for a in nbrs]))


@dataclass(frozen=True)
class Bipartition:
    """Two colour classes of a connected bipartite graph; vertex 0 is in left."""

    left: frozenset[int]
    right: frozenset[int]


def load_edge_list(source: str) -> Graph:
    """Parse edge-list text into a Graph.

    Lines hold ``u v`` pairs, ``#`` starts a comment, blank lines are
    skipped.  An optional first content line ``n=<count>`` pins the vertex
    count; otherwise it is one more than the largest index seen.  Errors
    carry 1-based line numbers.
    """
    declared: int | None = None
    nbrs: list[set[int]] = []
    first_content = True
    for lineno, raw in enumerate(source.splitlines(), 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if first_content and text.startswith("n="):
            first_content = False
            try:
                declared = int(text[2:])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {text!r}") from None
            if declared < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            if declared > MAX_VERTICES:
                raise GraphFormatError(f"line {lineno}: vertex count {declared} exceeds {MAX_VERTICES}")
            nbrs = [set() for _ in range(declared)]
            continue
        first_content = False
        parts = text.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {text!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex index")
        top = max(u, v)
        if top >= MAX_VERTICES:
            raise GraphFormatError(f"line {lineno}: vertex index {top} beyond the cap of {MAX_VERTICES} vertices")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if declared is not None and top >= declared:
            raise GraphFormatError(f"line {lineno}: vertex index beyond declared count {declared}")
        if top >= len(nbrs):
            nbrs.extend([set() for _ in range(top + 1 - len(nbrs))])
        if v in nbrs[u]:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return _sorted_graph(nbrs)


_LCF_RE = re.compile(r"\[\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\]\s*\^\s*(\d+)$")


def parse_lcf(text: str) -> Graph:
    """Build the cubic graph described by LCF notation ``[a1,...,ak]^m``.

    Vertices 0..k*m-1 form a Hamiltonian cycle; vertex i also gets the chord
    {i, (i + a_{i mod k}) mod n}.  Offsets that reduce to 0 (loop) or +-1
    (collision with a cycle edge) are rejected, as is any pattern whose
    chords fail to pair up into a perfect matching (degree != 3).
    """
    m = _LCF_RE.match(text.strip())
    if m is None:
        raise LcfError(f"not valid LCF notation: {text!r}")
    try:
        offsets = [int(tok) for tok in m.group(1).split(",")]
        mult = int(m.group(2))
    except ValueError:  # past Python's limit on digits per int conversion
        raise LcfError("offset or multiplier has too many digits") from None
    if mult < 1:
        raise LcfError("multiplier must be positive")
    k = len(offsets)
    n = k * mult
    if n > MAX_VERTICES:
        raise LcfError(f"{k}*{mult} = {n} vertices exceeds {MAX_VERTICES}")
    if n < 3:
        raise LcfError(f"only {n} vertices, the Hamiltonian cycle needs at least 3")
    nbrs = [{(i - 1) % n, (i + 1) % n} for i in range(n)]
    for i in range(n):
        a = offsets[i % k]
        reduced = a % n
        if reduced == 0:
            raise LcfError(f"offset {a} at vertex {i} reduces to a loop")
        if reduced in (1, n - 1):
            raise LcfError(f"offset {a} at vertex {i} collides with a cycle edge")
        j = (i + reduced) % n
        nbrs[i].add(j)
        nbrs[j].add(i)
    for v, s in enumerate(nbrs):
        if len(s) != 3:
            raise LcfError(f"vertex {v} ends with degree {len(s)}, expected 3")
    return _sorted_graph(nbrs)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None when the graph is acyclic.

    Every vertex v grows its ball B_k(v) and sphere S_k(v) (the vertices at
    distance <= k and exactly k) one radius per round, all vertices at once,
    each set a Python-int bitset: B_k(v) = B_{k-1}(v) | OR of S_{k-1}(p) over
    the neighbours p of v, and S_k(v) = B_k(v) ^ B_{k-1}(v).  Round k runs
    two tests, the odd one first:

    - odd: an edge (x, y) with S_{k-1}(x) & S_{k-1}(y) nonzero closes a
      walk of length 2k - 1 through a common vertex, so a cycle of at most
      that length exists;
    - even: a vertex x with two neighbours p, q whose S_{k-1}(.) & S_k(x)
      intersect reaches a vertex at distance k by two shortest paths that
      leave x apart, so a cycle of at most 2k exists.  A running union over
      x's neighbours finds such a pair in O(deg) set operations.

    A shortest cycle of length g is seen in round ceil(g/2), at the vertex
    opposite an edge of the cycle (g odd) or opposite a vertex (g even),
    since two vertices of a shortest cycle are as far apart in the graph as
    along the cycle.  No earlier round can hit, since a hit in round k
    bounds the girth by 2k, and in that round the odd test comes first, so
    the first hit is the girth.  The graph is simple, so rounds start at
    k = 2; once every sphere is empty no test can hit and the graph is a
    forest.

    Cost: ceil(g/2) rounds of O(m) n-bit integer operations, over three
    lists of n ints (under 40 MB at 10,000 vertices).  A cubic graph on at
    most 10,000 vertices needs at most 12 rounds, as the Moore bound keeps
    its girth at or below 24, and a round there costs under 50 ms once the
    balls fill; ``[5,-5]^5000`` (girth 6) takes 0.07 s.  A forest needs as
    many rounds as its diameter and a long bare cycle or path about n/2,
    twice as slow as one BFS per start vertex (C_2000: 2.3 s);
    ``build_code`` refuses such graphs before any subcommand asks for their
    girth.
    """
    adj = g.adjacency
    sphere = [sum(1 << p for p in nbrs) for nbrs in adj]
    ball = [s | 1 << v for v, s in enumerate(sphere)]
    k = 2
    while any(sphere):
        for x, nbrs in enumerate(adj):
            sx = sphere[x]
            for y in nbrs:
                if sx & sphere[y]:
                    return 2 * k - 1
        grown = []
        for x, nbrs in enumerate(adj):
            outside = ~ball[x]
            seen = 0
            for p in nbrs:
                reached = sphere[p] & outside
                if reached & seen:
                    return 2 * k
                seen |= reached
            grown.append(seen)
            ball[x] |= seen
        sphere = grown
        k += 1
    return None


def _bfs_forest(g: Graph, root: int) -> tuple[list[int], list[int]]:
    dist = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    dist[root] = 0
    q = deque([root])
    while q:
        u = q.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                q.append(v)
    return dist, parent


def is_connected(g: Graph) -> bool:
    """BFS reachability from vertex 0 (vacuously true when empty)."""
    if g.vertex_count == 0:
        return True
    dist, _ = _bfs_forest(g, 0)
    return all(d >= 0 for d in dist)


def is_cubic(g: Graph) -> bool:
    return all(len(nbrs) == 3 for nbrs in g.adjacency)


def _odd_cycle_witness(g: Graph, parent: list[int], u: int, v: int) -> list[int]:
    path_u = [u]
    while parent[path_u[-1]] >= 0:
        path_u.append(parent[path_u[-1]])
    on_u = {vert: idx for idx, vert in enumerate(path_u)}
    path_v = [v]
    while path_v[-1] not in on_u:
        path_v.append(parent[path_v[-1]])
    meet = path_v[-1]
    cycle = path_u[: on_u[meet] + 1] + list(reversed(path_v[:-1]))
    return cycle


def bipartition(g: Graph) -> Bipartition:
    """2-colour a connected graph, left side being the colour of vertex 0.

    Raises NotBipartiteError carrying a witness odd cycle, or
    NotConnectedError when some vertex is unreachable.
    """
    if g.vertex_count == 0:
        return Bipartition(frozenset(), frozenset())
    dist, parent = _bfs_forest(g, 0)
    if any(d < 0 for d in dist):
        raise NotConnectedError("graph is not connected")
    for u in range(g.vertex_count):
        for v in g.adjacency[u]:
            if u < v and dist[u] % 2 == dist[v] % 2:
                cycle = _odd_cycle_witness(g, parent, u, v)
                raise NotBipartiteError(
                    f"odd cycle of length {len(cycle)} found", cycle
                )
    left = frozenset(v for v in range(g.vertex_count) if dist[v] % 2 == 0)
    right = frozenset(v for v in range(g.vertex_count) if dist[v] % 2 == 1)
    return Bipartition(left, right)


def adjacency_array(g: Graph) -> np.ndarray:
    """Integer-valued adjacency matrix (float64, ready for eigensolvers)."""
    # the one numpy user here: loading and walking graphs never imports it
    import numpy as np

    n = g.vertex_count
    out = np.zeros((n, n), dtype=np.float64)
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            out[u, v] = 1.0
    return out
