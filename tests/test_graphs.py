import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csg_ldpc.constructions import (
    bipartite_double_cover,
    coxeter_graph,
    generalized_petersen,
)
from csg_ldpc.graphs import (
    Graph,
    GraphFormatError,
    LcfError,
    MAX_VERTICES,
    NotBipartiteError,
    NotConnectedError,
    adjacency_array,
    bipartition,
    girth,
    is_connected,
    is_cubic,
    load_edge_list,
    parse_lcf,
)

from oracles import girth_by_edge_removal, to_networkx

K33_TEXT = """\
# complete bipartite graph on 3 + 3 vertices
n=6
0 3
0 4
0 5
1 3
1 4
1 5
2 3
2 4
2 5
"""


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(2, [(0, 2)])


def test_load_edge_list_k33():
    g = load_edge_list(K33_TEXT)
    assert g.vertex_count == 6
    assert g.edge_count == 9
    assert is_cubic(g)
    assert girth(g) == 4


def test_load_edge_list_without_header_infers_count():
    g = load_edge_list("0 1\n1 2\n2 0\n")
    assert g.vertex_count == 3
    assert girth(g) == 3


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("0 1\nnonsense\n", 2),
        ("0 1 2\n", 1),
        ("n=2\n0 5\n", 2),
        ("0 1\n\n0 1\n", 3),
        ("1 1\n", 1),
        ("n=-3\n", 1),
    ],
)
def test_load_edge_list_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphFormatError, match=f"line {lineno}"):
        load_edge_list(text)


@pytest.mark.parametrize(
    "call",
    [
        "graphs.load_edge_list('n=3000000000')",
        "graphs.load_edge_list('0 3000000000')",
        "graphs.parse_lcf('[5]^3000000000')",
    ],
)
def test_vertex_cap_rejects_before_allocating(run_capped, call):
    proc = run_capped(
        "from csg_ldpc import graphs\n"
        f"try:\n    {call}\n"
        "except (graphs.GraphFormatError, graphs.LcfError) as exc:\n"
        "    print('rejected:', exc)\n"
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.startswith("rejected:") and str(MAX_VERTICES) in proc.stdout


def test_vertex_cap_boundary():
    assert MAX_VERTICES >= 200
    assert load_edge_list(f"n={MAX_VERTICES}\n0 {MAX_VERTICES - 1}\n").vertex_count == MAX_VERTICES
    assert parse_lcf(f"[5,-5]^{MAX_VERTICES // 2}").vertex_count == MAX_VERTICES
    for text in (f"n={MAX_VERTICES + 1}\n", f"0 {MAX_VERTICES}\n"):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_edge_list(text)
    with pytest.raises(LcfError, match=str(MAX_VERTICES)):
        parse_lcf(f"[5,-5]^{MAX_VERTICES // 2 + 1}")


def test_parse_lcf_heawood():
    g = parse_lcf("[5,-5]^7")
    assert g.vertex_count == 14
    assert is_cubic(g)
    assert is_connected(g)
    assert girth(g) == 6


def test_parse_lcf_whitespace_tolerant():
    assert parse_lcf(" [ 5 , -5 ] ^ 7 ") == parse_lcf("[5,-5]^7")


@pytest.mark.parametrize(
    "text, message",
    [
        ("not lcf", "not valid LCF"),
        ("[5,-5]^0", "multiplier"),
        ("[6]^6", "loop"),
        ("[1,5]^3", "collides"),
        ("[2]^5", "degree 4"),
        ("[2]^1", "at least 3"),
        pytest.param("[5]^" + "9" * 5000, "too many digits", id="5000-digit-multiplier"),
        pytest.param("[" + "9" * 5000 + "]^3", "too many digits", id="5000-digit-offset"),
    ],
)
def test_parse_lcf_rejects(text, message):
    with pytest.raises(LcfError, match=message):
        parse_lcf(text)


LCF_LIKE = st.builds(
    "[{}]^{}".format,
    st.lists(st.integers(-20, 20), min_size=1, max_size=5).map(lambda offsets: ", ".join(map(str, offsets))),
    st.integers(-1, 200),
)


def networkx_lcf(text):
    """Vertex count and edge set of ``networkx.LCF_graph`` for LCF text
    that ``parse_lcf`` accepts."""
    body, mult = text.strip().split("^")
    offsets = [int(tok) for tok in body.strip()[1:-1].split(",")]
    nxg = nx.LCF_graph(len(offsets) * int(mult), offsets, int(mult))
    return nxg.number_of_nodes(), {frozenset(e) for e in nxg.edges()}


@given(st.one_of(st.text(max_size=40), LCF_LIKE))
@example("[5]^" + "9" * 5000)
@example("[" + "9" * 5000 + "]^2")
@example(f"[5,-5]^{MAX_VERTICES // 2 + 1}")
@example(" [ 5 , -5 ] ^ 7 ")
@example("[19,-19]^7")  # offsets past n reduce mod n
@example("[2]^4")  # K4: every chord is drawn from both ends
@example("[5,7,-7,7,-7,-5]^3")
@settings(max_examples=200, deadline=None)
def test_parse_lcf_raises_only_lcf_error(text):
    try:
        g = parse_lcf(text)
    except LcfError:
        return
    assert is_cubic(g)
    assert (g.vertex_count, {frozenset(e) for e in g.edges()}) == networkx_lcf(text)


def test_shipped_lcf_files_match_networkx(data_dir):
    paths = sorted(data_dir.glob("*.lcf"))
    assert len(paths) == 11
    for path in paths:
        [text] = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
        g = parse_lcf(text)
        assert (g.vertex_count, {frozenset(e) for e in g.edges()}) == networkx_lcf(text), path.name


CAP = MAX_VERTICES

# every refusal of the three graph builders, with its full message
REFUSALS = [
    pytest.param(lambda: Graph.from_edges(2, [(0, 0)]), ValueError, "self-loop at vertex 0", id="from_edges-loop"),
    pytest.param(lambda: Graph.from_edges(3, [(0, 1), (0, 1)]), ValueError, "duplicate edge (0, 1)", id="from_edges-repeat"),
    pytest.param(lambda: Graph.from_edges(3, [(0, 1), (1, 0)]), ValueError, "duplicate edge (1, 0)", id="from_edges-reversed"),
    pytest.param(lambda: Graph.from_edges(2, [(0, 2)]), ValueError, "edge (0, 2) outside vertex range 0..1", id="from_edges-above"),
    pytest.param(lambda: Graph.from_edges(2, [(-1, 0)]), ValueError, "edge (-1, 0) outside vertex range 0..1", id="from_edges-negative"),
    pytest.param(lambda: Graph.from_edges(2, [(2, 2)]), ValueError, "edge (2, 2) outside vertex range 0..1", id="from_edges-range-first"),
    pytest.param(lambda: load_edge_list("0 1\n1 1\n"), GraphFormatError, "line 2: self-loop at vertex 1", id="edges-loop"),
    pytest.param(lambda: load_edge_list("0 1\n\n0 1\n"), GraphFormatError, "line 3: duplicate edge (0, 1)", id="edges-repeat"),
    pytest.param(lambda: load_edge_list("n=3\n0 1\n# c\n1 0\n"), GraphFormatError, "line 4: duplicate edge (1, 0)", id="edges-reversed"),
    pytest.param(lambda: load_edge_list("0 -1\n"), GraphFormatError, "line 1: negative vertex index", id="edges-negative"),
    pytest.param(lambda: load_edge_list(f"0 {CAP}\n"), GraphFormatError, f"line 1: vertex index {CAP} beyond the cap of {CAP} vertices", id="edges-cap"),
    pytest.param(lambda: load_edge_list("n=2\n0 5\n"), GraphFormatError, "line 2: vertex index beyond declared count 2", id="edges-declared"),
    pytest.param(lambda: load_edge_list("0 x # note\n"), GraphFormatError, "line 1: non-integer endpoint in '0 x'", id="edges-non-integer"),
    pytest.param(lambda: load_edge_list("0 1 2\n"), GraphFormatError, "line 1: expected 'u v', got '0 1 2'", id="edges-three-fields"),
    pytest.param(lambda: load_edge_list("0 1\nn=3\n"), GraphFormatError, "line 2: expected 'u v', got 'n=3'", id="edges-late-header"),
    pytest.param(lambda: load_edge_list("# c\nn=2.5\n"), GraphFormatError, "line 2: bad vertex count 'n=2.5'", id="edges-count-float"),
    pytest.param(lambda: load_edge_list("n=" + "9" * 5000), GraphFormatError, "line 1: bad vertex count " + repr("n=" + "9" * 5000), id="edges-count-digits"),
    pytest.param(lambda: load_edge_list("n=-3\n"), GraphFormatError, "line 1: negative vertex count", id="edges-count-negative"),
    pytest.param(lambda: load_edge_list(f"n={CAP + 1}\n"), GraphFormatError, f"line 1: vertex count {CAP + 1} exceeds {CAP}", id="edges-count-cap"),
    pytest.param(lambda: parse_lcf("not lcf"), LcfError, "not valid LCF notation: 'not lcf'", id="lcf-syntax"),
    pytest.param(lambda: parse_lcf("[5]^" + "9" * 5000), LcfError, "offset or multiplier has too many digits", id="lcf-digits"),
    pytest.param(lambda: parse_lcf("[5,-5]^0"), LcfError, "multiplier must be positive", id="lcf-multiplier"),
    pytest.param(lambda: parse_lcf(f"[5,-5]^{CAP // 2 + 1}"), LcfError, f"2*{CAP // 2 + 1} = {CAP + 2} vertices exceeds {CAP}", id="lcf-cap"),
    pytest.param(lambda: parse_lcf("[2]^1"), LcfError, "only 1 vertices, the Hamiltonian cycle needs at least 3", id="lcf-short"),
    pytest.param(lambda: parse_lcf("[2,-4]^2"), LcfError, "offset -4 at vertex 1 reduces to a loop", id="lcf-loop"),
    pytest.param(lambda: parse_lcf("[3,-5]^3"), LcfError, "offset -5 at vertex 1 collides with a cycle edge", id="lcf-collision"),
    pytest.param(lambda: parse_lcf("[3,-3,2]^2"), LcfError, "vertex 1 ends with degree 4, expected 3", id="lcf-degree"),
]


@pytest.mark.parametrize("build, exc_type, message", REFUSALS)
def test_every_refusal_message(build, exc_type, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert type(excinfo.value) is exc_type
    assert str(excinfo.value) == message


EDGE_LINES = st.one_of(
    st.text(max_size=12),
    st.builds("{} {}".format, st.integers(-2, 12), st.integers(-2, 12)),
    st.builds("n={}".format, st.one_of(st.integers(-2, 14), st.just("9" * 5000), st.just(str(MAX_VERTICES + 1)))),
    st.just("# comment"),
)


@given(st.lists(EDGE_LINES, max_size=12).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_load_edge_list_raises_only_graph_format_error(text):
    try:
        load_edge_list(text)
    except GraphFormatError:
        pass


@st.composite
def edge_list_texts(draw):
    """A simple graph on up to 12 vertices, as its vertex count, its edges
    in a drawn order and orientation, and an edge-list text of them with
    comments, blank lines and an ``n=`` header or none."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    filler = st.lists(st.sampled_from(["", "  ", "# comment", "\t# indented comment"]), max_size=2)
    tail = st.sampled_from(["", "  # trailing comment", " ", "#"])
    lines = draw(filler)
    header = draw(st.booleans())
    if header:
        lines.append(f"n={n}" + draw(tail))
    for u, v in edges:
        lines += draw(filler) + [f"{u}{draw(st.sampled_from([' ', '  ', chr(9)]))}{v}" + draw(tail)]
    lines += draw(filler)
    count = n if header else 1 + max((max(e) for e in edges), default=-1)
    return count, edges, draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@given(edge_list_texts())
@settings(max_examples=200, deadline=None)
def test_load_edge_list_equals_from_edges(case):
    count, edges, text = case
    assert load_edge_list(text) == Graph.from_edges(count, edges)


def test_edge_list_at_the_cap_equals_its_lcf():
    g = parse_lcf(f"[5,-5]^{MAX_VERTICES // 2}")
    text = f"n={g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert load_edge_list(text) == g


def test_girth_known_values():
    assert girth(parse_lcf("[5,-5]^7")) == 6
    assert girth(generalized_petersen(5, 2)) == 5  # Petersen
    assert girth(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) is None
    assert girth(coxeter_graph()) == 7


def test_girth_matches_removal_oracle_on_catalog(catalog):
    for gid, (g, _) in catalog.items():
        assert girth(g) == girth_by_edge_removal(g), gid


@given(st.integers(0, 2 ** 21 - 1), st.integers(4, 7))
@settings(max_examples=80)
def test_girth_matches_removal_oracle_random(mask, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    g = Graph.from_edges(n, edges)
    assert girth(g) == girth_by_edge_removal(g)


@st.composite
def cycles_chords_and_trees(draw):
    """Up to 30 vertices: disjoint cycles of length 3-20, then a few chords
    between any two vertices, then the rest of the vertices hung as tree
    edges or left isolated.  Forests, components of different girths and
    odd and even girths up to 20 all come up."""
    n = draw(st.integers(0, 30))
    order = draw(st.permutations(range(n)))
    edges: set[tuple[int, int]] = set()

    def add(u, v):
        if u != v:
            edges.add((min(u, v), max(u, v)))

    used = 0
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):
        if n - used < 3:
            break
        length = draw(st.integers(3, min(20, n - used)))
        ring = order[used : used + length]
        for i in range(length):
            add(ring[i], ring[(i + 1) % length])
        used += length
    if n:
        for _ in range(draw(st.integers(0, 3))):
            add(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    for i in range(max(used, 1), n):
        if draw(st.booleans()):
            add(order[i], order[draw(st.integers(0, i - 1))])
    return Graph.from_edges(n, sorted(edges))


@given(cycles_chords_and_trees())
@settings(max_examples=300, deadline=None)
def test_girth_matches_removal_oracle_up_to_30_vertices(g):
    assert girth(g) == girth_by_edge_removal(g)


def test_girth_of_bare_cycles():
    cycles = [Graph.from_edges(length, [(i, (i + 1) % length) for i in range(length)]) for length in range(3, 41)]
    assert [girth(c) for c in cycles] == list(range(3, 41))


def test_girth_at_the_vertex_cap(run_capped):
    proc = run_capped(f"from csg_ldpc import graphs\nprint(graphs.girth(graphs.parse_lcf('[5,-5]^{MAX_VERTICES // 2}')))\n")
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "6\n"


def test_bipartition_heawood():
    g = parse_lcf("[5,-5]^7")
    sides = bipartition(g)
    assert 0 in sides.left
    assert len(sides.left) == len(sides.right) == 7
    for u, v in g.edges():
        assert (u in sides.left) != (v in sides.left)


def test_bipartition_odd_cycle_witness():
    petersen = generalized_petersen(5, 2)
    with pytest.raises(NotBipartiteError) as excinfo:
        bipartition(petersen)
    cycle = excinfo.value.odd_cycle
    assert len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    closed = list(zip(cycle, cycle[1:] + cycle[:1]))
    for u, v in closed:
        assert v in petersen.adjacency[u]


def test_bipartition_disconnected_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        bipartition(g)


def test_adjacency_representations_agree():
    g = parse_lcf("[5,-5]^7")
    arr = adjacency_array(g)
    assert [tuple(np.flatnonzero(row).tolist()) for row in arr] == list(g.adjacency)
    assert np.array_equal(arr, arr.T)
    assert arr.sum(axis=1).tolist() == [3.0] * 14


def test_generalized_petersen_validation():
    with pytest.raises(ValueError):
        generalized_petersen(2, 1)
    with pytest.raises(ValueError):
        generalized_petersen(8, 4)  # inner step must stay below n/2


def test_constructions_match_networkx_named_graphs():
    cases = [
        (parse_lcf("[5,-5]^7"), nx.heawood_graph()),
        (parse_lcf("[5,7,-7,7,-7,-5]^3"), nx.pappus_graph()),
        (parse_lcf("[5,-5,9,-9]^5"), nx.desargues_graph()),
        (generalized_petersen(5, 2), nx.petersen_graph()),
        (bipartite_double_cover(Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])), nx.hypercube_graph(3)),
        (bipartite_double_cover(generalized_petersen(5, 2)), nx.desargues_graph()),
    ]
    for mine, named in cases:
        assert nx.is_isomorphic(to_networkx(mine), named)


def test_double_cover_is_bipartite_and_preserves_degree():
    g = generalized_petersen(6, 2)
    cover = bipartite_double_cover(g)
    assert cover.vertex_count == 2 * g.vertex_count
    assert is_cubic(cover)
    sides = bipartition(cover)  # must not raise
    assert len(sides.left) == g.vertex_count
