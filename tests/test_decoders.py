from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csg_ldpc import decoders
from csg_ldpc.analysis import load_graph_file
from csg_ldpc.channel import AwgnChannel, BscChannel, llr_from_awgn, llr_from_bsc, transmit
from csg_ldpc.codes import build_code, extend_parity_check
from csg_ldpc.decoders import GallagerADecoder, SumProductDecoder
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import parse_lcf

from oracles import (
    _syndrome_zero,
    leave_one_out_products_loop,
    reference_gallager_a,
    reference_sum_product,
    support_lists,
)
from strategies import parity_checks

# the rate-boosted Heawood code has degree-1 bits, unlike the catalog codes
EXTENDED_HEAWOOD = extend_parity_check(build_code(parse_lcf("[5,-5]^7")), 3).H


@pytest.fixture(scope="module")
def nauru_code():
    return build_code(parse_lcf("[5,-9,7,-7,9,-5]^4"))


def test_zero_syndrome_returns_immediately(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    result = GallagerADecoder(heawood_code.H).decode(y)
    assert result.iterations == 0
    assert result.syndrome_zero
    assert np.array_equal(result.word, y)


def test_max_iter_zero_reports_raw_word(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    y[0] = 1
    result = GallagerADecoder(heawood_code.H).decode(y, max_iter=0)
    assert result.iterations == 0
    assert not result.syndrome_zero
    assert np.array_equal(result.word, y)


def test_single_error_corrected(heawood_code):
    for j in range(7):
        y = np.zeros(7, dtype=np.uint8)
        y[j] = 1
        hard = GallagerADecoder(heawood_code.H).decode(y)
        assert hard.syndrome_zero and hard.word.sum() == 0
        soft = SumProductDecoder(heawood_code.H).decode(llr_from_bsc(y, 0.05))
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


def test_syndrome_zero_flag_is_truthful(nauru_code):
    rng = np.random.default_rng(11)
    ga = GallagerADecoder(nauru_code.H)
    h_int = nauru_code.H.to_numpy().astype(np.int64)
    for _ in range(100):
        y = (rng.random(nauru_code.n) < 0.2).astype(np.uint8)
        result = ga.decode(y, max_iter=5)
        assert result.syndrome_zero == (not ((h_int @ result.word) % 2).any())


def test_input_validation(heawood_code):
    ga = GallagerADecoder(heawood_code.H)
    sp = SumProductDecoder(heawood_code.H)
    with pytest.raises(ValueError, match="length"):
        ga.decode(np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="finite"):
        sp.decode(np.full(7, np.inf))
    with pytest.raises(ValueError, match="length"):
        sp.decode(np.zeros(3))
    for decoder in (ga, sp):
        for bad in (np.zeros((2, 6)), np.zeros(7), np.zeros((1, 1, 7))):
            with pytest.raises(ValueError, match="length"):
                decoder.decode_block(bad)
    block = np.zeros((3, 7))
    block[2, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sp.decode_block(block)
    for decoder in (ga, sp):
        with pytest.raises(ValueError, match="length"):
            list(decoder.decode_stream([(np.arange(2), np.zeros((2, 7))), (np.arange(1), np.zeros((1, 6)))]))
    # Gallager A takes hard decisions only: -1 would wrap to 255 as uint8,
    # and 0.6 would truncate to 0
    for bad in (np.array([-1, 1, 1, 1, 1, 1, 1]), np.array([0.6, 0, 0, 0, 0, 0, 0]), np.full(7, 2), np.full(7, np.nan)):
        with pytest.raises(ValueError, match="0 or 1"):
            ga.decode(bad)
        with pytest.raises(ValueError, match="0 or 1"):
            ga.decode_block(np.stack([np.zeros(7), bad]))
        with pytest.raises(ValueError, match="0 or 1"):
            list(ga.decode_stream([(np.arange(2), np.zeros((2, 7), dtype=np.uint8)), (np.arange(1), bad[None])]))
    # bits of any dtype are accepted
    for dtype in (bool, np.int64, np.float64):
        assert ga.decode(np.eye(7, dtype=dtype)[0]).syndrome_zero


@st.composite
def blocks(draw):
    """A parity check, a (B, n) block of hard words and LLRs for it, a
    budget, and cut points that split the block into uneven blocks.

    The check is the extended Heawood code or any 0/1 matrix: zero rows,
    zero columns and m or n = 0 pad the message slots of ``ParityChecks``
    in every way they can be padded.  Repeated cut points make 0-row
    blocks."""
    h = draw(st.one_of(st.just(EXTENDED_HEAWOOD), parity_checks()))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = draw(st.integers(0, 6))
    words = (rng.random((rows, h.ncols)) < draw(st.sampled_from([0.05, 0.15, 0.3]))).astype(np.uint8)
    if draw(st.booleans()):
        llr = llr_from_bsc(words, draw(st.sampled_from([0.0, 0.05, 0.2])))
    else:
        llr = np.round(rng.normal(1.0, 1.5, size=words.shape), 2)
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=4)))
    return h, words, llr, draw(st.sampled_from([0, 1, 7])), cuts


def _split(block, cuts):
    """The block cut at ``cuts``, each piece labelled with its rows' indices."""
    edges = [0, *cuts, len(block)]
    return [(np.arange(a, b), block[a:b]) for a, b in zip(edges, edges[1:])]


@given(blocks(), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_decode_block_matches_oracles_row_by_row(case, in_flight):
    h, words, llr, max_iter, cuts = case
    check_bits, _ = support_lists(h)
    for decoder, block, oracle in (
        (GallagerADecoder(h), words, reference_gallager_a),
        (SumProductDecoder(h), llr, reference_sum_product),
    ):
        expected = [oracle(h, row.tolist(), max_iter=max_iter) for row in block]
        out, iterations, syndrome_zero = decoder.decode_block(block, max_iter=max_iter)
        assert out.shape == block.shape and out.dtype == np.uint8
        assert iterations.shape == syndrome_zero.shape == (len(block),)
        assert iterations.dtype == np.int64 and syndrome_zero.dtype == bool
        for (ref_word, ref_iters), word, iters, ok in zip(expected, out, iterations, syndrome_zero):
            assert word.tolist() == ref_word and iters == ref_iters
            assert ok == _syndrome_zero(check_bits, ref_word)
        # the stream, admitting blocks while fewer than in_flight rows are active
        seen = []
        with patch.object(decoders, "IN_FLIGHT", in_flight):
            for rows, out, iterations, syndrome_zero in decoder.decode_stream(_split(block, cuts), max_iter):
                for r, word, iters, ok in zip(rows.tolist(), out, iterations, syndrome_zero):
                    ref_word, ref_iters = expected[r]
                    assert word.tolist() == ref_word and iters == ref_iters
                    assert ok == _syndrome_zero(check_bits, ref_word)
                seen += rows.tolist()
        assert sorted(seen) == list(range(len(block)))


@pytest.mark.parametrize("decoder_type", [GallagerADecoder, SumProductDecoder])
def test_stream_steps_capped_rows_together(nauru_code, monkeypatch, decoder_type):
    # bits 0, 5 and 11 flipped: both decoders are still at a nonzero
    # syndrome after 30 iterations
    y = np.zeros(nauru_code.n, dtype=np.uint8)
    y[[0, 5, 11]] = 1
    row = y if decoder_type is GallagerADecoder else llr_from_bsc(y, 0.15)
    decoder = decoder_type(nauru_code.H)
    calls = []
    step = decoder_type._step
    monkeypatch.setattr(decoder_type, "_step", lambda self, *state: calls.append(1) or step(self, *state))
    k, max_iter = 5, 30
    finished = list(decoder.decode_stream([(np.array([i]), row[None]) for i in range(k)], max_iter=max_iter))
    # decoded one block at a time, the k capped rows would take k * max_iter steps
    assert len(calls) <= max_iter + k
    rows = np.concatenate([rows for rows, *_ in finished])
    assert sorted(rows.tolist()) == list(range(k))
    for _, _, iterations, syndrome_zero in finished:
        assert (iterations == max_iter).all() and not syndrome_zero.any()


@pytest.mark.parametrize("in_flight", [1, decoders.IN_FLIGHT])
@pytest.mark.parametrize("decoder_type", [GallagerADecoder, SumProductDecoder])
def test_stream_hands_each_row_back_under_its_label(nauru_code, decoder_type, in_flight):
    # labels out of order, far apart and repeated across blocks: each row
    # comes back once, under its own label, with what decode gives it
    rng = np.random.default_rng(43)
    words = (rng.random((300, nauru_code.n)) < 0.15).astype(np.uint8)
    block = words if decoder_type is GallagerADecoder else llr_from_bsc(words, 0.15)
    labels = rng.choice([2**40, 1000, -7, 40, 3], size=len(block))
    decoder = decoder_type(nauru_code.H)
    expected = Counter()
    for label, y in zip(labels.tolist(), block):
        result = decoder.decode(y, max_iter=5)
        expected[label, result.word.tobytes(), result.iterations, result.syndrome_zero] += 1
    edges = [0, 1, 64, 65, 200, 300]
    got = Counter()
    with patch.object(decoders, "IN_FLIGHT", in_flight):
        pieces = [(labels[a:b], block[a:b]) for a, b in zip(edges, edges[1:])]
        for out_labels, out, iterations, syndrome_zero in decoder.decode_stream(pieces, max_iter=5):
            got.update(zip(out_labels.tolist(), (w.tobytes() for w in out), iterations.tolist(), syndrome_zero.tolist()))
    assert got == expected
    for wrong in (labels[:2], labels[:4], labels[:3, None]):
        with pytest.raises(ValueError, match="labels"):
            list(decoder.decode_stream([(wrong, block[:3])]))


@given(st.integers(1, 7), st.integers(0, 5), st.integers(0, 6), st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_leave_one_out_products_equal_the_double_loop(degree, rows, checks, seed):
    # tanh of clipped messages, with padding slots of exactly 1 as _step has them
    rng = np.random.default_rng(seed)
    # slot-major, as the check view has them: (degree, checks, rows)
    x = np.tanh(rng.normal(0.0, 4.0, size=(degree, checks, rows)) / 2.0)
    x[rng.random(x.shape) < 0.2] = 1.0
    got = decoders._leave_one_out_products(x)
    assert got.shape == x.shape and got.dtype == x.dtype
    expected = np.moveaxis(leave_one_out_products_loop(np.moveaxis(x, 0, -1)), -1, 0)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("in_flight", [1, decoders.IN_FLIGHT])
@pytest.mark.parametrize("decoder_type", [GallagerADecoder, SumProductDecoder])
def test_yielded_arrays_stay_valid(nauru_code, decoder_type, in_flight):
    # one-row blocks, then wider ones, more rows than are kept in flight:
    # the stream admits, compacts and finishes rows in many passes, and
    # with one row in flight every row is stepped by itself after the
    # last one was handed out whole
    rng = np.random.default_rng(41)
    words = (rng.random((3 * decoders.IN_FLIGHT + 5, nauru_code.n)) < 0.2).astype(np.uint8)
    block = words if decoder_type is GallagerADecoder else llr_from_bsc(words, 0.2)
    decoder = decoder_type(nauru_code.H)
    with patch.object(decoders, "IN_FLIGHT", in_flight):
        rows = np.arange(len(block))
        blocks = [(rows[i:i + 1], block[i:i + 1]) for i in range(40)]
        blocks += zip(np.array_split(rows[40:], 10), np.array_split(block[40:], 10))
        # a small budget leaves many rows capped, so the words differ
        yielded, copies = [], []
        for arrays in decoder.decode_stream(blocks, max_iter=3):
            yielded.append(arrays)
            copies.append([a.copy() for a in arrays])
    assert len(yielded) > 2
    assert len({word.tobytes() for _, out, _, _ in copies for word in out}) > 10
    # the stream is exhausted: no later pass may have written into them
    for arrays, saved in zip(yielded, copies):
        rows, words_out, iterations, syndrome_zero = arrays
        assert words_out.shape == (len(rows), nauru_code.n) and words_out.dtype == np.uint8
        for a, b in zip(arrays, saved):
            assert np.array_equal(a, b)
    assert sorted(np.concatenate([rows for rows, *_ in yielded]).tolist()) == list(range(len(block)))
    result = decoder.decode(block[0])
    assert result.word.shape == (nauru_code.n,) and result.word.dtype == np.uint8
    assert result.word.flags.c_contiguous


def test_block_wider_than_in_flight_matches_oracles(data_dir):
    h = build_code(load_graph_file(data_dir / "90A.lcf")).H
    rows = 300
    assert rows > 2 * decoders.IN_FLIGHT
    rng = np.random.default_rng(53)
    zeros = np.zeros((rows, h.ncols), dtype=np.uint8)
    words = transmit(zeros, BscChannel(0.08), rng)
    received = transmit(zeros, AwgnChannel(0.8), rng)
    check_bits, _ = support_lists(h)
    for decoder, block, oracle in (
        (GallagerADecoder(h), words, reference_gallager_a),
        (SumProductDecoder(h), llr_from_bsc(words, 0.08), reference_sum_product),
        (SumProductDecoder(h), llr_from_awgn(received, 0.8), reference_sum_product),
    ):
        out, iterations, syndrome_zero = decoder.decode_block(block, max_iter=50)
        for row, word, iters, ok in zip(block, out, iterations, syndrome_zero):
            ref_word, ref_iters = oracle(h, row.tolist(), max_iter=50)
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


def test_gallager_counts_votes_past_a_byte():
    # check i is bits 0 and i + 1, so bit 0 has degree 140 and its votes
    # reach 2 * 141: counts must not wrap at 256
    m = 140
    h = BitMatrix.from_dense(np.hstack([np.ones((m, 1), dtype=int), np.eye(m, dtype=int)]).tolist())
    rng = np.random.default_rng(37)
    block = (rng.random((6, m + 1)) < rng.random((6, 1))).astype(np.uint8)
    block[0] = 1
    block[0, 0] = 0  # every check tells bit 0 it is 1
    block[1] = 1
    out, iterations, _ = GallagerADecoder(h).decode_block(block, max_iter=4)
    for row, word, iters in zip(block, out, iterations):
        ref_word, ref_iters = reference_gallager_a(h, row.tolist(), max_iter=4)
        assert word.tolist() == ref_word and iters == ref_iters


def test_sum_product_survives_saturated_llrs(heawood_code):
    y = np.zeros(7, dtype=np.uint8)
    y[1] = 1
    llr = llr_from_bsc(y, 0.0)  # clamped to +-30, still finite
    result = SumProductDecoder(heawood_code.H).decode(llr)
    assert np.all(np.isfinite(llr))
    assert result.word.shape == (7,)


# block sizes around Gallager A's 64-row lanes: one row, a lane short of
# full, full, one over, and so on
LANE_BOUNDARY_ROWS = (1, 63, 64, 65, 127, 129)

# test_gallager_counts_votes_past_a_byte's matrix: check i is bits 0 and
# i + 1, so a degree-140 bit sits next to 140 degree-1 bits
DEGREE_140 = BitMatrix.from_dense(np.hstack([np.ones((140, 1), dtype=int), np.eye(140, dtype=int)]).tolist())


def _spread_words(n, rows, seed, distinct=None):
    """Hard words whose rows stop at different iterations: every fifth is
    zero (iteration 0), every seventh has bit 0 flipped, and the rest flip
    at rates spread from 0 to 0.3, some of them running to the cap.  With
    ``distinct``, the rows are drawn from that many such words."""
    rng = np.random.default_rng(seed)
    count = rows if distinct is None else distinct
    words = (rng.random((count, n)) < rng.random((count, 1)) * 0.3).astype(np.uint8)
    words[1::7] = 0
    words[1::7, :1] = 1
    words[::5] = 0
    return words if distinct is None else words[rng.integers(0, count, size=rows)]


def _oracle(h, words, max_iter):
    """``reference_gallager_a`` for each row, run once per distinct word."""
    seen = {}
    for row in words:
        if row.tobytes() not in seen:
            seen[row.tobytes()] = reference_gallager_a(h, row.tolist(), max_iter=max_iter)
    return [seen[row.tobytes()] for row in words]


def _assert_gallager_lanes_match_oracle(h, words, max_iter, cuts, expected):
    """The block decoded whole (``decode_block``) and cut at ``cuts`` into
    a stream with one lane and with the default lanes in flight: each row
    comes back once, with the oracle's word and iteration count."""
    check_bits, _ = support_lists(h)
    decoder = GallagerADecoder(h)
    out, iterations, syndrome_zero = decoder.decode_block(words, max_iter=max_iter)
    for r, (word, iters, ok) in enumerate(zip(out, iterations, syndrome_zero)):
        assert (word.tolist(), iters) == expected[r], r
        assert ok == _syndrome_zero(check_bits, expected[r][0])
    for in_flight in (1, decoders.IN_FLIGHT):
        seen = []
        with patch.object(decoders, "IN_FLIGHT", in_flight):
            for labels, out, iterations, syndrome_zero in decoder.decode_stream(_split(words, cuts), max_iter):
                for r, word, iters, ok in zip(labels.tolist(), out, iterations, syndrome_zero):
                    assert (word.tolist(), iters) == expected[r], (in_flight, r)
                    assert ok == _syndrome_zero(check_bits, expected[r][0])
                seen += labels.tolist()
        assert sorted(seen) == list(range(len(words))), in_flight


@pytest.mark.parametrize("name", ["48A", "extended-heawood", "degree-140"])
def test_gallager_lanes_match_the_oracle_at_lane_boundaries(name, data_dir):
    h = {
        "48A": lambda: build_code(load_graph_file(data_dir / "48A.edges")).H,
        "extended-heawood": lambda: EXTENDED_HEAWOOD,
        "degree-140": lambda: DEGREE_140,
    }[name]()
    # the degree-140 oracle is slow: its rows repeat 16 words
    words = _spread_words(h.ncols, max(LANE_BOUNDARY_ROWS), seed=59, distinct=16 if name == "degree-140" else None)
    for max_iter in (0, 1, 7):
        expected = _oracle(h, words, max_iter)
        if max_iter == 7:
            # one lane holds rows that stop at several iterations
            assert len({iters for _, iters in expected[:64]}) >= 3
        for rows in LANE_BOUNDARY_ROWS:
            cuts = [c for c in (1, 2, 37, 63, 66, 100, 128) if c < rows]
            _assert_gallager_lanes_match_oracle(h, words[:rows], max_iter, cuts, expected[:rows])


@given(parity_checks(), st.sampled_from(LANE_BOUNDARY_ROWS), st.sampled_from([0, 1, 7]), st.data())
@settings(max_examples=60, deadline=None)
def test_gallager_lanes_match_the_oracle_on_drawn_checks(h, rows, max_iter, data):
    words = _spread_words(h.ncols, rows, seed=data.draw(st.integers(0, 2**16)))
    cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=4)))
    _assert_gallager_lanes_match_oracle(h, words, max_iter, cuts, _oracle(h, words, max_iter))


@given(st.integers(1, 20), st.integers(1, 21), st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_bit_sliced_rules_equal_counting_each_bit(degree, t, seed):
    # (degree, 2) uint64 planes: 128 bit positions, each counted by hand
    rng = np.random.default_rng(seed)
    planes = rng.integers(0, 2**64, size=(degree, 2), dtype=np.uint64, endpoint=False)
    planes[rng.random(planes.shape) < 0.3] = decoders._ALL_ONES
    bits = np.unpackbits(planes.view(np.uint8), bitorder="little").reshape(degree, -1).astype(bool)
    def unpacked(words):
        return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), bitorder="little").astype(bool)
    assert np.array_equal(unpacked(decoders._at_least(planes, t)), bits.sum(axis=0) >= t)
    others = decoders._leave_one_out_ands(planes)
    for p in range(degree):
        assert np.array_equal(unpacked(others[p]), np.delete(bits, p, axis=0).all(axis=0))
