"""End-to-end acceptance gates for the toolkit, one test per guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).  The
frozen tables below hold the reference parameters and duality flags of the
catalog codes; everything else is computed on the spot and compared at the
stated tolerances.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from csg_ldpc.bounds import (
    bit_node_graph,
    clique_number,
    independent_set_lower,
    piecewise_distance_bound,
    predict_trivial,
    spectrum,
    tanner_bounds,
)
from csg_ldpc.channel import (
    BscChannel,
    syndrome_variance_formula,
)
from csg_ldpc.cli import main
from csg_ldpc.codes import (
    build_code,
    is_lcd,
    is_self_orthogonal,
    minimum_distance,
)
from csg_ldpc.alist import export_alist
from csg_ldpc.analysis import load_graph_file
from csg_ldpc.decoders import GallagerADecoder
from csg_ldpc.experiments import ExperimentConfig, run_experiment, syndrome_statistics
from csg_ldpc.graphs import adjacency_array, girth

from oracles import (
    codeword_weights,
    dimension_bound_check,
    extend_parity_check,
    min_distance_by_column_search,
    parse_alist,
    syndrome_mean_formula,
    tanner_graph,
    verify_gram_identity,
)

# reference (n, k, d, girth) per catalog id
EXPECTED_TABLE = {
    "6A": (3, 2, 2, 4),
    "8A": (4, 0, 4, 4),
    "14A": (7, 3, 4, 6),
    "16A": (8, 0, 8, 6),
    "18A": (9, 2, 6, 6),
    "20B": (10, 4, 4, 6),
    "24A": (12, 4, 6, 6),
    "26A": (13, 0, 13, 6),
    "30A": (15, 5, 6, 8),
    "32A": (16, 0, 16, 6),
    "40A": (20, 4, 8, 8),
    "48A": (24, 6, 10, 8),
    "56C": (28, 8, 8, 8),
    "90A": (45, 11, 10, 10),
}
# the catalog may grow, but these ids must always ship
REQUIRED_IDS = {"6A", "8A", "14A", "16A", "18A", "20B", "24A", "30A"}
# reference duality flags (k > 0 codes; zero codes are vacuously both)
SELF_ORTHOGONAL_IDS = {"14A", "30A", "40A", "90A"}
LCD_IDS = {"6A", "18A", "20B", "56C"}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number:02d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def codes(catalog):
    return {gid: (g, build_code(g)) for gid, (g, _) in catalog.items()}


def test_criterion_01_catalog_table(data_dir):
    start = time.perf_counter()
    manifest = json.loads((data_dir / "manifest.json").read_text())["graphs"]
    got = {}
    for gid, entry in manifest.items():
        g = load_graph_file(data_dir / entry["file"])
        code = build_code(g)
        got[gid] = (code.n, code.k, minimum_distance(code), girth(g))
    elapsed = time.perf_counter() - start
    problems = [
        f"{gid}: {got[gid]} != {EXPECTED_TABLE.get(gid)}"
        for gid in got
        if got[gid] != EXPECTED_TABLE.get(gid)
    ]
    problems += [f"missing required id {gid}" for gid in REQUIRED_IDS - set(got)]
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    report(
        1,
        "catalog (n, k, d, girth) match the frozen reference table",
        not problems,
        "; ".join(problems) or f"{len(got)} graphs in {elapsed:.2f}s",
    )


def test_criterion_02_duality_flags(codes):
    problems = []
    for gid, (_, code) in codes.items():
        so = is_self_orthogonal(code)
        lcd = is_lcd(code)
        if code.k == 0:
            # zero codes are vacuously self-orthogonal and LCD; the
            # reference lists only cover k > 0 rows
            if not (so and lcd):
                problems.append(f"{gid}: zero code lost its degenerate flags")
            continue
        if so != (gid in SELF_ORTHOGONAL_IDS):
            problems.append(f"{gid}: self_orthogonal={so}")
        if lcd != (gid in LCD_IDS):
            problems.append(f"{gid}: lcd={lcd}")
    report(
        2,
        "self-orthogonal and LCD flags match the frozen reference lists",
        not problems,
        "; ".join(problems) or f"{len(codes)} codes",
    )


def test_criterion_03_structural_invariants(codes):
    start = time.perf_counter()
    failures = []
    checked = 0
    for gid, (g, code) in codes.items():
        if g.vertex_count < 14:
            continue
        checked += 1
        d = minimum_distance(code)
        gamma = bit_node_graph(code)
        eigs = spectrum(adjacency_array(g))
        lam2 = float(eigs[1])
        d1, d2 = tanner_bounds(code.n, lam2)
        ind_set = independent_set_lower(gamma.graph)
        clique = clique_number(gamma.graph)
        conditions = {
            "bit graph 6-regular": all(len(a) == 6 for a in gamma.graph.adjacency),
            "integer Gram identity": verify_gram_identity(code, gamma),
            # known honest failure: a 6-regular bit graph on 8 vertices
            # (16A) always holds a 4-clique, yet the zero code has no short
            # codewords, so the equivalence cannot hold there
            f"clique<=3 iff d>=6 (clique={clique}, d={d})": (clique <= 3) == (d >= 6),
            "spectral bounds": max(d1, d2) <= d + 1e-6,
            "piecewise bound": piecewise_distance_bound(code.n, lam2) <= d,
            "dimension bounds": dimension_bound_check(code, ind_set),
            "spectrum symmetric": all(
                abs(eigs[i] + eigs[len(eigs) - 1 - i]) < 1e-8 for i in range(len(eigs))
            ),
            "largest eigenvalue 3": abs(float(eigs[0]) - 3.0) < 1e-8,
            "power-of-two forces k=0": (not predict_trivial(g)) or code.k == 0,
        }
        failures += [f"{gid}: {name}" for name, ok in conditions.items() if not ok]
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(
        3,
        "structural and spectral invariants hold on every graph with >= 14 vertices",
        not failures,
        "; ".join(failures) or f"{checked} graphs in {elapsed:.1f}s",
    )


def test_criterion_04_distance_oracle_agreement(codes):
    problems = []
    checked = 0
    for gid, (_, code) in codes.items():
        if code.n > 28:
            continue
        checked += 1
        mine = minimum_distance(code)
        oracle = min_distance_by_column_search(code.H)
        if mine != oracle:
            problems.append(f"{gid}: walk {mine} vs column search {oracle}")
    report(
        4,
        "codeword-walk distance equals the dependent-column-search distance",
        not problems,
        "; ".join(problems) or f"{checked} codes",
    )


def test_criterion_05_syndrome_moments(codes):
    start = time.perf_counter()
    _, code = codes["48A"]
    problems = []
    for index, rho in enumerate((0.02, 0.05, 0.1)):
        stats = syndrome_statistics(
            code.H, rho, trials=1_000_000, master_seed=20_260_823, stream_index=index
        )
        var_gap = abs(stats.variance - syndrome_variance_formula(code.n, rho))
        mean_gap = abs(stats.mean - syndrome_mean_formula(code.n, rho))
        if var_gap > 4.0 * stats.variance_stderr:
            problems.append(f"rho={rho}: variance off by {var_gap:.4f}")
        if mean_gap > 4.0 * stats.mean_stderr:
            problems.append(f"rho={rho}: mean off by {mean_gap:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    report(
        5,
        "48A syndrome moments match the closed forms within 4 standard errors",
        not problems,
        "; ".join(problems) or f"3 noise levels x 1e6 trials in {elapsed:.1f}s",
    )


def test_criterion_06_guaranteed_error_correction(codes):
    eligible = [gid for gid, (g, _) in codes.items() if girth(g) >= 10]
    if not eligible:
        print("acceptance 06 [SKIP] no shipped graph reaches girth 10")
        pytest.skip("no catalog graph with girth >= 10")
    failures = []
    details = []
    for gid in eligible:
        g, code = codes[gid]
        g_girth = girth(g)
        budget = g_girth // 2
        weight_cap = budget - 1
        n = code.n
        total = sum(math.comb(n, w) for w in range(1, weight_cap + 1))
        decoder = GallagerADecoder(code.H)
        if total <= 10**6:
            patterns = (
                comb
                for w in range(1, weight_cap + 1)
                for comb in itertools.combinations(range(n), w)
            )
            tested = total
        else:
            rng = np.random.default_rng(1_000_003)
            patterns = (
                tuple(rng.choice(n, size=rng.integers(1, weight_cap + 1), replace=False))
                for _ in range(10**5)
            )
            tested = 10**5
        bad = 0
        while block := list(itertools.islice(patterns, 4096)):
            y = np.zeros((len(block), n), dtype=np.uint8)
            for row, comb in enumerate(block):
                y[row, list(comb)] = 1
            words, _, syndrome_zero = decoder.decode_block(y, max_iter=budget)
            bad += int(np.count_nonzero(words.any(axis=1) | ~syndrome_zero))
        if bad:
            failures.append(f"{gid}: {bad} of {tested} patterns not corrected")
        details.append(f"{gid}: {tested} patterns, weight <= {weight_cap}, {budget} iterations")
    report(
        6,
        "half-girth error patterns decode to zero within half-girth iterations",
        not failures,
        "; ".join(failures or details),
    )


def test_criterion_07_rate_boost(codes):
    _, base = codes["14A"]
    base_girth = girth(tanner_graph(base.H))
    problems = []
    for l in (3, 5, 7):
        ext = extend_parity_check(base, l)
        d = minimum_distance(ext)
        enum_d = min(codeword_weights(ext.G.rows))
        if ext.n != base.n + l:
            problems.append(f"l={l}: length {ext.n}")
        if ext.k < base.k:
            problems.append(f"l={l}: dimension dropped to {ext.k}")
        if l == base.n and ext.k != base.n:
            problems.append(f"l={l}: full boost should reach dimension {base.n}")
        if girth(tanner_graph(ext.H)) != base_girth:
            problems.append(f"l={l}: girth changed")
        if d != 4 or enum_d != 4:
            problems.append(f"l={l}: d={d} enum={enum_d}")
    report(
        7,
        "identity-column rate boost keeps girth and pins d = 4",
        not problems,
        "; ".join(problems) or "l in {3, 5, 7} on 14A",
    )


def test_criterion_08_simulate_determinism(data_dir, tmp_path):
    args = [
        "simulate",
        str(data_dir / "48A.edges"),
        "--channel", "bsc",
        "--param", "0.05,0.1",
        "--decoder", "gallager-a",
        "--trials", "2000",
        "--seed", "7",
    ]
    out1 = tmp_path / "workers1.csv"
    out4 = tmp_path / "workers4.csv"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "4", "--out", str(out4)]) == 0
    same = out1.read_bytes() == out4.read_bytes()
    report(8, "simulation CSV is byte-identical for 1 and 4 workers", same)


def test_criterion_09_alist_round_trip(codes):
    problems = []
    for gid, (_, code) in codes.items():
        text = export_alist(code.H)
        again = parse_alist(text)
        if again != code.H or export_alist(again) != text:
            problems.append(gid)
    report(
        9,
        "alist export-import-export is byte-identical for every catalog code",
        not problems,
        "; ".join(problems) or f"{len(codes)} matrices",
    )


def test_criterion_10_decoding_gain(codes):
    _, code = codes["48A"]
    rho = 0.02
    cfg = ExperimentConfig(
        h=code.H,
        channel=BscChannel(rho),
        decoder="sum-product",
        trials=100_000,
        master_seed=424_242,
        max_iterations=50,
        worker_count=4,
    )
    result = run_experiment(cfg)
    ok = result.ber <= rho / 10.0
    report(
        10,
        "sum-product BER beats the raw channel by 10x at the lowest noise level",
        ok,
        f"ber {result.ber:.2e} vs raw {rho} over {result.trials} trials",
    )
