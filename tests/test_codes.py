import numpy as np
import pytest
from hypothesis import given, settings

from csg_ldpc.codes import (
    EnumerationLimitExceeded,
    build_code,
    code_from_parity_check,
    extend_parity_check,
    hull_dimension,
    is_even_code,
    is_lcd,
    is_self_orthogonal,
    minimum_distance,
    parity_check_of,
    tanner_graph,
)
from csg_ldpc import graphs
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import (
    Graph,
    NotBipartiteError,
    NotConnectedError,
    NotCubicError,
    girth,
    load_edge_list,
    parse_lcf,
)
from csg_ldpc.constructions import generalized_petersen

from oracles import codeword_weights, gf2_rank_dense, min_distance_by_column_search
from strategies import parity_checks


def _weights(h):
    """The sets of column and of row weights of h."""
    return {c.bit_count() for c in h.column_bits()}, {r.bit_count() for r in h.rows}


def test_heawood_code_parameters(heawood_code):
    code = heawood_code
    assert (code.n, code.k) == (7, 3)
    assert _weights(code.H) == ({3}, {3})
    assert minimum_distance(code) == 4
    assert code.H.multiply(code.G.transpose()).is_zero()


def test_k33_code_parameters():
    code = build_code(parse_lcf("[3,-3]^3"))
    assert (code.n, code.k, minimum_distance(code)) == (3, 2, 2)


def test_cube_code_is_trivial():
    code = build_code(parse_lcf("[3,-3]^4"))
    assert code.k == 0
    assert code.G.nrows == 0
    # distance convention for the zero code
    assert minimum_distance(code) == 4


def test_build_code_error_types():
    two_squares = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    )
    with pytest.raises(NotConnectedError):
        build_code(two_squares)
    hexagon = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotCubicError):
        build_code(hexagon)
    with pytest.raises(NotBipartiteError):
        build_code(generalized_petersen(5, 2))
    # several faults at once: not connected, then not cubic, then not bipartite
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotCubicError):
        build_code(triangle)
    two_k4 = Graph.from_edges(8, [(a + o, b + o) for o in (0, 4) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(NotConnectedError):
        build_code(two_k4)


def test_valid_graph_is_searched_once(monkeypatch):
    # a cubic graph skips is_connected: bipartition's search alone finds an
    # unreachable vertex or an odd cycle
    roots = []
    search = graphs._bfs_forest
    monkeypatch.setattr(graphs, "_bfs_forest", lambda g, root: roots.append(root) or search(g, root))
    g = parse_lcf("[5,-5]^7")
    h = parity_check_of(g)
    assert roots == [0]
    assert build_code(g).H == h


def test_parity_check_rows_are_left_class_in_vertex_order(heawood_code):
    g = parse_lcf("[5,-5]^7")
    sides_left = sorted(v for v in range(14) if v % 2 == 0)
    # vertex 0 starts the left class; row i of H lists the neighbours of the
    # i-th left vertex among the sorted right class
    from csg_ldpc.graphs import bipartition

    sides = bipartition(g)
    left = sorted(sides.left)
    right = sorted(sides.right)
    assert left[0] == 0
    col_of = {v: j for j, v in enumerate(right)}
    for i, u in enumerate(left):
        expect = 0
        for v in g.adjacency[u]:
            expect |= 1 << col_of[v]
        assert heawood_code.H.rows[i] == expect
    assert sides_left == left  # LCF graphs alternate colours along the cycle


def test_minimum_distance_matches_enumeration_oracle(heawood_code):
    assert min(codeword_weights(heawood_code.G.rows)) == 4
    pappus = build_code(parse_lcf("[5,7,-7,7,-7,-5]^3"))
    assert minimum_distance(pappus) == min(codeword_weights(pappus.G.rows)) == 6


def test_minimum_distance_matches_column_search(heawood_code):
    assert min_distance_by_column_search(heawood_code.H) == 4
    nauru = build_code(parse_lcf("[5,-9,7,-7,9,-5]^4"))
    assert minimum_distance(nauru) == min_distance_by_column_search(nauru.H) == 6


def test_minimum_distance_ceiling_holds_after_a_full_walk(catalog):
    # the answer depends on the code and the ceiling, never on earlier calls
    code = build_code(catalog["90A"][0])
    assert code.k == 11
    assert minimum_distance(code) == 10
    with pytest.raises(EnumerationLimitExceeded):
        minimum_distance(code, ceiling=5)


def test_enumeration_ceiling():
    with pytest.raises(EnumerationLimitExceeded):
        minimum_distance(build_code(parse_lcf("[5,-5]^7")), ceiling=2)


def test_tanner_graph_is_source_graph(heawood_code):
    tg = tanner_graph(heawood_code.H)
    assert tg.vertex_count == 14
    assert girth(tg) == 6
    assert all(len(a) == 3 for a in tg.adjacency)


def test_duality_flags(heawood_code):
    assert is_self_orthogonal(heawood_code)
    assert not is_lcd(heawood_code)
    assert hull_dimension(heawood_code) == heawood_code.k
    pappus = build_code(parse_lcf("[5,7,-7,7,-7,-5]^3"))
    assert is_lcd(pappus)
    assert not is_self_orthogonal(pappus)
    assert hull_dimension(pappus) == 0
    nauru = build_code(parse_lcf("[5,-9,7,-7,9,-5]^4"))
    assert hull_dimension(nauru) == 2  # neither self-orthogonal nor LCD


def assert_duality_matches_dense_gram(code):
    g = code.G.to_numpy().astype(np.int64)
    hull = code.k - gf2_rank_dense((g @ g.T) % 2)
    assert hull_dimension(code) == hull
    assert is_self_orthogonal(code) == (hull == code.k)
    assert is_lcd(code) == (hull == 0)


def test_duality_matches_dense_gram_on_catalog_and_extensions(catalog):
    for gid, (g, _) in catalog.items():
        code = build_code(g)
        assert_duality_matches_dense_gram(code)
        for l in sorted({1, code.n // 2 or 1, code.n}):
            assert_duality_matches_dense_gram(extend_parity_check(code, l))


@given(parity_checks())
@settings(max_examples=200)
def test_duality_matches_dense_gram_on_any_parity_check(h):
    assert_duality_matches_dense_gram(code_from_parity_check(h))


def test_even_flag_matches_enumeration(catalog):
    for gid, (g, _) in catalog.items():
        code = build_code(g)
        if not 0 < code.k <= 12:
            continue
        all_even = all(w % 2 == 0 for w in codeword_weights(code.G.rows))
        assert is_even_code(code) == all_even, gid


def test_extend_parity_check_shapes(heawood_code):
    ext = extend_parity_check(heawood_code, 3)
    assert (ext.n, ext.k) == (10, 3)
    assert _weights(ext.H)[0] == {3, 1}  # mixed column weights
    assert ext.H.rows[0] == heawood_code.H.rows[0] | (1 << 7)
    assert ext.H.rows[4] == heawood_code.H.rows[4]


def test_extend_parity_check_small_l():
    code = build_code(parse_lcf("[5,-5]^7"))
    ext = extend_parity_check(code, 2)
    assert (ext.n, ext.k, minimum_distance(ext)) == (9, 3, 4)


def test_extend_full_length_reaches_dimension_n():
    code = build_code(parse_lcf("[5,-5]^7"))
    ext = extend_parity_check(code, 7)
    assert (ext.n, ext.k) == (14, 7)
    assert _weights(ext.H)[1] == {4}
    assert minimum_distance(ext) == 4
    assert min(codeword_weights(ext.G.rows)) == 4


def test_extend_rejects_bad_l(heawood_code):
    with pytest.raises(ValueError):
        extend_parity_check(heawood_code, 0)
    with pytest.raises(ValueError):
        extend_parity_check(heawood_code, 8)


def test_code_from_parity_check_irregular():
    h = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    code = code_from_parity_check(h)
    assert code.n == 3 and code.k == 1
    assert _weights(code.H) == ({1, 2}, {2})
