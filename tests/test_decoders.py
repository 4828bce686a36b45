import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csg_ldpc.channel import llr_from_bsc
from csg_ldpc.codes import build_code, extend_parity_check
from csg_ldpc.decoders import (
    GallagerADecoder,
    SumProductDecoder,
    decode_gallager_a,
    decode_sum_product,
)
from csg_ldpc.experiments import random_regular_ldpc
from csg_ldpc.graphs import parse_lcf

from oracles import _syndrome_zero, reference_gallager_a, reference_sum_product, support_lists
from strategies import irregular_checks_and_blocks

# the rate-boosted Heawood code has degree-1 bits, unlike random_regular_ldpc
EXTENDED_HEAWOOD = extend_parity_check(build_code(parse_lcf("[5,-5]^7")), 3).H


@pytest.fixture(scope="module")
def nauru_code():
    return build_code(parse_lcf("[5,-9,7,-7,9,-5]^4"))


def test_zero_syndrome_returns_immediately(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    result = decode_gallager_a(heawood_code.H, y)
    assert result.iterations == 0
    assert result.syndrome_zero
    assert np.array_equal(result.word, y)


def test_max_iter_zero_reports_raw_word(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    y[0] = 1
    result = decode_gallager_a(heawood_code.H, y, max_iter=0)
    assert result.iterations == 0
    assert not result.syndrome_zero
    assert np.array_equal(result.word, y)


def test_single_error_corrected(heawood_code):
    for j in range(7):
        y = np.zeros(7, dtype=np.uint8)
        y[j] = 1
        hard = decode_gallager_a(heawood_code.H, y, sent=np.zeros(7, dtype=np.uint8))
        assert hard.syndrome_zero and hard.bit_errors == 0
        soft = decode_sum_product(heawood_code.H, llr_from_bsc(y, 0.05))
        assert soft.syndrome_zero and soft.word.sum() == 0


def test_all_single_and_double_errors_on_nauru(nauru_code):
    decoder = SumProductDecoder(nauru_code.H)
    n = nauru_code.n
    for a in range(n):
        for b in range(a, n):
            y = np.zeros(n, dtype=np.uint8)
            y[a] = 1
            y[b] = 1 - y[b]  # weight 1 when a == b, else weight 2
            result = decoder.decode(llr_from_bsc(y, 0.05), max_iter=50)
            assert result.word.sum() == 0, (a, b)


def test_bit_errors_only_when_sent_given(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    y[3] = 1
    assert decode_gallager_a(heawood_code.H, y).bit_errors is None
    with_sent = decode_gallager_a(
        heawood_code.H, y, sent=np.zeros(7, dtype=np.uint8)
    )
    assert with_sent.bit_errors == 0


def test_syndrome_zero_flag_is_truthful(nauru_code):
    rng = np.random.default_rng(11)
    ga = GallagerADecoder(nauru_code.H)
    h_int = nauru_code.H.to_numpy().astype(np.int64)
    for _ in range(100):
        y = (rng.random(nauru_code.n) < 0.2).astype(np.uint8)
        result = ga.decode(y, max_iter=5)
        assert result.syndrome_zero == (not ((h_int @ result.word) % 2).any())


def test_input_validation(heawood_code):
    with pytest.raises(ValueError, match="length"):
        decode_gallager_a(heawood_code.H, np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="finite"):
        decode_sum_product(heawood_code.H, np.full(7, np.inf))
    with pytest.raises(ValueError, match="length"):
        decode_sum_product(heawood_code.H, np.zeros(3))
    ga = GallagerADecoder(heawood_code.H)
    sp = SumProductDecoder(heawood_code.H)
    for decoder in (ga, sp):
        for bad in (np.zeros((2, 6)), np.zeros(7), np.zeros((1, 1, 7))):
            with pytest.raises(ValueError, match="length"):
                decoder.decode_block(bad)
    block = np.zeros((3, 7))
    block[2, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sp.decode_block(block)


@st.composite
def blocks(draw):
    """A parity check, a (B, n) block of hard words and LLRs for it, and a budget.

    The check is the extended Heawood code, a random regular one, or any
    0/1 matrix: zero rows, zero columns and m or n = 0 pad the message
    slots of ``ParityChecks`` in every way they can be padded."""
    kind = draw(st.sampled_from(["extended", "regular", "irregular"]))
    if kind == "extended":
        h = EXTENDED_HEAWOOD
    elif kind == "irregular":
        h, _ = draw(irregular_checks_and_blocks())
    else:
        m = draw(st.integers(2, 8))
        w_c = draw(st.integers(1, min(3, m)))
        n = m * draw(st.integers(1, 3))
        h = random_regular_ldpc(n, m, w_c=w_c, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = draw(st.integers(0, 6))
    words = (rng.random((rows, h.ncols)) < draw(st.sampled_from([0.05, 0.15, 0.3]))).astype(np.uint8)
    if draw(st.booleans()):
        llr = llr_from_bsc(words, draw(st.sampled_from([0.0, 0.05, 0.2])))
    else:
        llr = np.round(rng.normal(1.0, 1.5, size=words.shape), 2)
    return h, words, llr, draw(st.sampled_from([0, 1, 7]))


@given(blocks())
@settings(max_examples=120, deadline=None)
def test_decode_block_matches_oracles_row_by_row(case):
    h, words, llr, max_iter = case
    check_bits, _ = support_lists(h)
    for decoder, block, oracle in (
        (GallagerADecoder(h), words, reference_gallager_a),
        (SumProductDecoder(h), llr, reference_sum_product),
    ):
        out, iterations, syndrome_zero = decoder.decode_block(block, max_iter=max_iter)
        assert out.shape == block.shape and out.dtype == np.uint8
        assert iterations.shape == syndrome_zero.shape == (len(block),)
        assert iterations.dtype == np.int64 and syndrome_zero.dtype == bool
        for row, word, iters, ok in zip(block, out, iterations, syndrome_zero):
            ref_word, ref_iters = oracle(h, row.tolist(), max_iter=max_iter)
            assert word.tolist() == ref_word and iters == ref_iters
            assert ok == _syndrome_zero(check_bits, ref_word)


def test_empty_block_returns_empty_arrays(heawood_code):
    for decoder in (GallagerADecoder(heawood_code.H), SumProductDecoder(heawood_code.H)):
        words, iterations, syndrome_zero = decoder.decode_block(np.zeros((0, 7)))
        assert words.shape == (0, 7) and words.dtype == np.uint8
        assert iterations.shape == (0,) and iterations.dtype == np.int64
        assert syndrome_zero.shape == (0,) and syndrome_zero.dtype == bool


def test_gallager_matches_reference_implementation(heawood_code, nauru_code):
    rng = np.random.default_rng(23)
    for code in (heawood_code, nauru_code):
        decoder = GallagerADecoder(code.H)
        for _ in range(150):
            y = (rng.random(code.n) < 0.15).astype(np.uint8)
            mine = decoder.decode(y, max_iter=25)
            ref_word, ref_iters = reference_gallager_a(code.H, y.tolist(), max_iter=25)
            assert mine.word.tolist() == ref_word
            assert mine.iterations == ref_iters


def test_sum_product_matches_reference_implementation(heawood_code, nauru_code):
    rng = np.random.default_rng(29)
    for code in (heawood_code, nauru_code):
        decoder = SumProductDecoder(code.H)
        for _ in range(150):
            y = (rng.random(code.n) < 0.15).astype(np.uint8)
            llr = llr_from_bsc(y, 0.15)
            mine = decoder.decode(llr, max_iter=25)
            ref_word, ref_iters = reference_sum_product(code.H, llr.tolist(), max_iter=25)
            assert mine.word.tolist() == ref_word
            assert mine.iterations == ref_iters


def test_decoders_handle_degree_one_bits(heawood_code):
    # leaf bits from the rate boost exercise the irregular-degree paths
    ext = extend_parity_check(heawood_code, 3)
    rng = np.random.default_rng(31)
    ga = GallagerADecoder(ext.H)
    sp = SumProductDecoder(ext.H)
    for _ in range(100):
        y = (rng.random(ext.n) < 0.2).astype(np.uint8)
        mine = ga.decode(y, max_iter=15)
        ref_word, ref_iters = reference_gallager_a(ext.H, y.tolist(), max_iter=15)
        assert mine.word.tolist() == ref_word and mine.iterations == ref_iters
        llr = llr_from_bsc(y, 0.2)
        soft = sp.decode(llr, max_iter=15)
        sref_word, sref_iters = reference_sum_product(ext.H, llr.tolist(), max_iter=15)
        assert soft.word.tolist() == sref_word and soft.iterations == sref_iters


def test_sum_product_survives_saturated_llrs(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    y[1] = 1
    llr = llr_from_bsc(y, 0.0)  # clamped to +-30, still finite
    result = decode_sum_product(heawood_code.H, llr)
    assert np.all(np.isfinite(llr))
    assert result.word.shape == (7,)
