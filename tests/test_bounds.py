import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csg_ldpc.bounds import (
    bit_node_graph,
    clique_number,
    compute_bounds,
    dimension_bound_check,
    independent_set_lower,
    piecewise_distance_bound,
    predict_trivial,
    spectrum,
    tanner_bounds,
    verify_gram_identity,
)
from csg_ldpc.codes import build_code, code_from_parity_check
from csg_ldpc.constructions import generalized_petersen
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import Graph, adjacency_array, parse_lcf

from oracles import bit_pairs_by_columns, jacobi_eigenvalues
from strategies import parity_checks


def complete_graph(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def test_heawood_bit_graph_is_k7(heawood_code):
    gamma = bit_node_graph(heawood_code)
    assert gamma.hypotheses_hold
    assert gamma.graph.edge_count == 21
    assert all(len(a) == 6 for a in gamma.graph.adjacency)


def test_k33_bit_graph_flags_short_cycles():
    code = build_code(parse_lcf("[3,-3]^3"))
    gamma = bit_node_graph(code)
    assert not gamma.hypotheses_hold  # Tanner girth is 4


@given(parity_checks())
@settings(max_examples=300)
def test_bit_node_graph_matches_column_pair_oracle(h):
    gamma = bit_node_graph(code_from_parity_check(h))
    assert (gamma.graph, gamma.hypotheses_hold) == bit_pairs_by_columns(h)


def test_tanner_forest_satisfies_hypotheses():
    # a Tanner graph without cycles has no pair of bits sharing two checks
    triangle = code_from_parity_check(BitMatrix.from_rows([0b111], 3))  # one weight-3 check
    gamma = bit_node_graph(triangle)
    assert gamma.hypotheses_hold
    assert gamma.graph.edge_count == 3
    assert bit_pairs_by_columns(triangle.H) == (gamma.graph, True)
    star = code_from_parity_check(BitMatrix.from_rows([1, 1, 1], 1))  # one bit in three checks
    gamma = bit_node_graph(star)
    assert gamma.hypotheses_hold
    assert verify_gram_identity(star, gamma)  # H^T H = [3] = 3I + A(one vertex)


def test_gram_identity(heawood_code):
    assert verify_gram_identity(heawood_code, bit_node_graph(heawood_code))
    k33 = build_code(parse_lcf("[3,-3]^3"))
    # columns share two checks, so the entrywise identity must fail
    assert not verify_gram_identity(k33, bit_node_graph(k33))


def test_clique_number_known_graphs():
    assert clique_number(complete_graph(7)) == 7
    assert clique_number(complete_graph(4)) == 4
    assert clique_number(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])) == 2
    assert clique_number(generalized_petersen(5, 2)) == 2
    assert clique_number(Graph(((), (), ()))) == 1
    assert clique_number(Graph(())) == 0


@given(st.integers(0, 2 ** 21 - 1), st.integers(2, 7))
@settings(max_examples=60)
def test_clique_number_against_networkx(mask, n):
    import networkx as nx

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    g = Graph.from_edges(n, edges)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    expect = max(len(c) for c in nx.find_cliques(nxg)) if n else 0
    assert clique_number(g) == expect


def test_clique_number_leaves_no_reference_cycles(heawood_code):
    gamma = bit_node_graph(heawood_code).graph
    gc.disable()
    try:
        gc.collect()
        assert clique_number(gamma) == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_independent_set_is_independent_and_large(heawood_code):
    gamma = bit_node_graph(heawood_code)
    s = independent_set_lower(gamma.graph)
    for i, u in enumerate(s):
        for v in s[i + 1 :]:
            assert v not in gamma.graph.adjacency[u]
    assert len(s) >= math.ceil(gamma.graph.vertex_count / 7)


def test_independent_set_on_cycle():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert independent_set_lower(c6) == (0, 2, 4)


def test_dimension_bound_check(heawood_code):
    gamma = bit_node_graph(heawood_code)
    s = independent_set_lower(gamma.graph)
    assert dimension_bound_check(heawood_code, s)
    with pytest.raises(ValueError, match="share a check"):
        dimension_bound_check(heawood_code, (0, 1))  # adjacent in K7


def test_spectrum_k33():
    eigs = spectrum(adjacency_array(parse_lcf("[3,-3]^3")))
    assert np.allclose(eigs, [3, 0, 0, 0, 0, -3], atol=1e-8)


def test_spectrum_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        spectrum(np.zeros((2, 3)))
    assert spectrum(np.array([[5.0]])).tolist() == [5.0]
    assert spectrum(np.zeros((0, 0))).size == 0


def test_spectrum_symmetry_test_reaches_the_last_row_block():
    # 1100 rows make two blocks of ~2**20 entries; (1099, 1098) and its
    # mirror both lie in the second, so only that block sees them
    n = 1100
    rng = np.random.default_rng(5)
    b = rng.normal(size=(n, n))
    a = b + b.T
    assert np.allclose(spectrum(a), np.sort(np.linalg.eigvalsh(a))[::-1])
    a[n - 1, n - 2] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(a)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 7))
@settings(max_examples=80)
def test_spectrum_matches_jacobi_oracle(seed, n):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    a = (b + b.T) / 2.0
    assert np.allclose(spectrum(a), jacobi_eigenvalues(a), atol=1e-8)


# mu2, the second eigenvalue of H^T H, of each catalog graph: an integer
# except for 26A and 56C
CATALOG_MU2 = {
    "6A": 0.0, "8A": 1.0, "14A": 2.0, "16A": 3.0, "18A": 3.0, "20B": 4.0, "24A": 4.0,
    "26A": (5.0 + math.sqrt(13.0)) / 2.0, "30A": 4.0, "32A": 5.0, "40A": 5.0, "48A": 6.0,
    "56C": 3.0 + 2.0 * math.sqrt(2.0), "90A": 6.0,
}


def test_gram_lambda2_matches_full_adjacency(catalog):
    assert set(catalog) == set(CATALOG_MU2)
    for gid, (g, entry) in catalog.items():
        report = compute_bounds(g, build_code(g))
        assert report.lambda2 == pytest.approx(spectrum(adjacency_array(g))[1], abs=1e-9), gid
        mu2 = CATALOG_MU2[gid]
        if mu2.is_integer():
            assert report.mu2 == mu2, gid
        else:
            assert report.mu2 == pytest.approx(mu2, abs=1e-9), gid
        assert report.piecewise_bound <= entry["expected"]["d"], gid


def test_tanner_bounds_formula_values():
    d1, d2 = tanner_bounds(7, 1.0)
    assert d1 == pytest.approx(35.0 / 8.0)
    assert d2 == pytest.approx(3.5)
    with pytest.raises(ValueError):
        tanner_bounds(7, 3.0)
    assert tanner_bounds(45, 2.449489742783277)[0] == 0.0


def test_heawood_spectral_quantities(heawood_code):
    g = parse_lcf("[5,-5]^7")
    report = compute_bounds(g, heawood_code)
    assert report.lambda2 == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert report.d1 == pytest.approx(4.0, abs=1e-8)
    assert report.d2 == pytest.approx(10.0 / 3.0, abs=1e-8)
    assert report.clique_number == 7
    assert report.independent_set_size == 1
    assert not report.predicted_trivial
    assert report.dim_bound == pytest.approx(35.0 / 6.0)
    keys = list(report.to_dict())
    assert keys[0] == "lambda2" and "piecewise_bound" in keys


def test_piecewise_bound_branches():
    assert piecewise_distance_bound(10, 1.5) == 4.0
    assert piecewise_distance_bound(10, 2.0) == 4.0
    assert piecewise_distance_bound(18, 2.2) == 4.0
    assert piecewise_distance_bound(45, 2.2) == 10.0
    assert piecewise_distance_bound(45, math.sqrt(6.0)) == 10.0
    assert piecewise_distance_bound(45, 2.5) == 4.0
    # lambda2 a few ulps above 2 and sqrt(6), as an eigen-solver returns them
    assert piecewise_distance_bound(45, 2.449489742783277) == 10.0
    assert piecewise_distance_bound(15, 2.0000000000000036) == 6.0


def test_predict_trivial():
    assert predict_trivial(parse_lcf("[3,-3]^4"))
    assert not predict_trivial(parse_lcf("[5,-5]^7"))
    assert predict_trivial(parse_lcf("[5,-5,13,-13]^8"))
