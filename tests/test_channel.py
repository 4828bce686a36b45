import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csg_ldpc.channel import (
    AwgnChannel,
    BscChannel,
    LLR_CLAMP,
    ParityChecks,
    f_t,
    llr_from_awgn,
    llr_from_bsc,
    syndrome,
    syndrome_mean_formula,
    syndrome_variance_formula,
    transmit,
)
from csg_ldpc.analysis import load_graph_file
from csg_ldpc.codes import build_code
from csg_ldpc.gf2 import BitMatrix

from oracles import support_lists
from strategies import irregular_checks_and_blocks


def exact_syndrome_moments(h, rho):
    """Mean and variance of the syndrome weight over all 2^n error patterns."""
    n = h.ncols
    mean = 0.0
    second = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        e = np.array(bits, dtype=np.uint8)
        weight = int(e.sum())
        prob = rho ** weight * (1 - rho) ** (n - weight)
        _, w = syndrome(h, e)
        mean += prob * w
        second += prob * w * w
    return mean, second - mean * mean


def test_channel_validation():
    with pytest.raises(ValueError):
        BscChannel(-0.1)
    with pytest.raises(ValueError):
        BscChannel(0.6)
    # past ~1.34e154 sigma^2 overflows: every LLR 2 r / sigma^2 would be 0 or nan
    for sigma in (0.0, -1.0, float("inf"), float("nan"), 1.35e154, 1e200, 1e308):
        with pytest.raises(ValueError, match="finite and positive"):
            AwgnChannel(sigma)
    AwgnChannel(1.34e154)
    BscChannel(0.0)
    BscChannel(0.5)


def test_f_t_values():
    assert f_t(2, 0.1) == pytest.approx(0.18)
    assert f_t(1, 0.25) == pytest.approx(0.25)
    assert f_t(3, 0.5) == 0.5
    assert f_t(6, 0.0) == 0.0
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            f_t(bad, 0.1)
    with pytest.raises(ValueError):
        f_t(3, 0.7)


def test_variance_formula_endpoints():
    assert syndrome_variance_formula(24, 0.0) == 0.0
    # at rho = 1/2 the syndrome bits are fair coins: variance n/4
    assert syndrome_variance_formula(24, 0.5) == 6.0
    assert syndrome_mean_formula(24, 0.0) == 0.0
    assert syndrome_mean_formula(24, 0.5) == 12.0


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5])
def test_moment_formulas_match_exact_distribution(heawood_code, rho):
    h = heawood_code.H
    mean, var = exact_syndrome_moments(h, rho)
    assert syndrome_mean_formula(7, rho) == pytest.approx(mean, abs=1e-12)
    assert syndrome_variance_formula(7, rho) == pytest.approx(var, abs=1e-12)


def test_syndrome_weights(heawood_code):
    h = heawood_code.H
    zero = np.zeros(7, dtype=np.uint8)
    bits0, w0 = syndrome(h, zero)
    assert w0 == 0 and not bits0.any()
    single = zero.copy()
    single[2] = 1
    bits, w = syndrome(h, single)
    assert w == 3  # one flipped bit violates its three checks
    assert bits.sum() == 3
    double = zero.copy()
    double[0] = double[1] = 1
    _, w2 = syndrome(h, double)
    assert w2 == 4  # the shared check of the pair is satisfied again
    with pytest.raises(ValueError):
        syndrome(h, np.zeros(6, dtype=np.uint8))


def test_transmit_bsc():
    rng = np.random.default_rng(0)
    word = np.zeros(50, dtype=np.uint8)
    assert transmit(word, BscChannel(0.0), rng).sum() == 0
    out1 = transmit(word, BscChannel(0.3), np.random.default_rng(7))
    out2 = transmit(word, BscChannel(0.3), np.random.default_rng(7))
    assert np.array_equal(out1, out2)
    assert out1.dtype == np.uint8
    flipped = transmit(np.ones(2000, dtype=np.uint8), BscChannel(0.5), rng)
    assert 800 < flipped.sum() < 1200


def test_transmit_awgn():
    rng = np.random.default_rng(3)
    word = np.zeros(4000, dtype=np.uint8)
    received = transmit(word, AwgnChannel(0.5), rng)
    assert received.dtype == np.float64
    assert abs(received.mean() - 1.0) < 0.05
    ones = transmit(np.ones(4000, dtype=np.uint8), AwgnChannel(0.5), rng)
    assert abs(ones.mean() + 1.0) < 0.05


def test_llr_from_bsc():
    bits = np.array([0, 1, 0, 1], dtype=np.uint8)
    llr = llr_from_bsc(bits, 0.1)
    mag = np.log(9.0)
    assert np.allclose(llr, [mag, -mag, mag, -mag])
    hard = llr_from_bsc(bits, 0.0)
    assert np.array_equal(hard, [LLR_CLAMP, -LLR_CLAMP, LLR_CLAMP, -LLR_CLAMP])
    assert np.all(np.isfinite(hard))
    with pytest.raises(ValueError):
        llr_from_bsc(bits, 0.51)


def test_llr_from_awgn():
    r = np.array([0.5, -2.0, 100.0])
    llr = llr_from_awgn(r, 1.0)
    assert llr[0] == pytest.approx(1.0)
    assert llr[1] == pytest.approx(-4.0)
    assert llr[2] == LLR_CLAMP  # clamped
    with pytest.raises(ValueError):
        llr_from_awgn(r, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-155, 1e-200])
def test_llr_from_awgn_tiny_sigma_clamps_silently(sigma):
    # sigma^2 is subnormal at 1e-155 (the quotient overflows) and 0 at 1e-200
    r = np.array([1.0, -1.0, 0.99, -1.01, 0.0])
    assert llr_from_awgn(r, sigma).tolist() == [LLR_CLAMP, -LLR_CLAMP, LLR_CLAMP, -LLR_CLAMP, 0.0]


@given(st.integers(1, 8), st.floats(0.0, 0.5, allow_nan=False))
@settings(max_examples=100)
def test_f_t_range_and_monotonicity(t, rho):
    value = f_t(t, rho)
    assert 0.0 <= value <= 0.5
    # more flips cannot make odd parity less likely below rho = 1/2
    assert f_t(t + 1, rho) >= value - 1e-15


_IRREGULAR = BitMatrix.from_dense([[1, 1, 1, 0], [0, 0, 0, 0], [0, 1, 0, 0]])  # weights 3, 0, 1; column 3 empty
# the largest shipped code, a full-size (3,3)-regular check
_H_90A = build_code(load_graph_file(Path(__file__).resolve().parent.parent / "data" / "90A.lcf")).H


@given(irregular_checks_and_blocks())
@example((_H_90A, np.random.default_rng(90).integers(0, 2, size=(5, 45), dtype=np.uint8)))
@example((_IRREGULAR, np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 0, 0]], dtype=np.uint8)))
@example((_IRREGULAR, np.zeros((0, 4), dtype=np.uint8)))
@settings(max_examples=150, deadline=None)
def test_block_syndrome_matches_rows_and_oracle(case):
    h, block = case
    bits, weights = syndrome(h, block)
    assert bits.shape == (len(block), h.nrows) and weights.dtype == np.int64
    for other in (h.to_numpy(), ParityChecks(h)):
        other_bits, other_weights = syndrome(other, block)
        assert np.array_equal(bits, other_bits) and np.array_equal(weights, other_weights)
    check_bits, _ = support_lists(h)
    for y, row_bits, w in zip(block, bits, weights):
        expect = [sum(int(y[j]) for j in support) % 2 for support in check_bits]
        assert row_bits.tolist() == expect and w == sum(expect)
        one_bits, one_w = syndrome(h, y)
        assert np.array_equal(one_bits, row_bits) and type(one_w) is int and one_w == w


def test_syndrome_parity_survives_uint8_wrap():
    # 301 and then 300 ones wrap the uint8 dot product to 45 and 44
    h = BitMatrix(1, 301, ((1 << 301) - 1,))
    word = np.ones(301, dtype=np.uint8)
    assert syndrome(h, word)[1] == 1
    word[0] = 0
    assert syndrome(h, word)[1] == 0
    with pytest.raises(ValueError):
        syndrome(h, np.zeros((2, 300), dtype=np.uint8))


@pytest.mark.parametrize("m", [255, 256])
def test_syndrome_weight_of_every_check_odd_fits_its_accumulator(m):
    # weights sum in the narrowest type that holds m: uint8 for 255 checks,
    # uint16 for 256; check i touches bits i and i + 1 of 257
    h = np.zeros((m, 257), dtype=np.uint8)
    h[np.arange(m), np.arange(m)] = h[np.arange(m), np.arange(m) + 1] = 1
    alternating = np.arange(257, dtype=np.uint8) % 2
    block = np.stack([alternating, 1 - alternating, np.zeros(257, np.uint8)])
    bits, weights = syndrome(h, block)
    assert bits[:2].all()  # every check sees one 1 and one 0: all m are odd
    assert weights.dtype == np.int64
    assert np.array_equal(weights, bits.astype(np.int64).sum(axis=1))
    assert weights.tolist() == [m, m, 0]
    one_w = syndrome(h, alternating)[1]
    assert type(one_w) is int and one_w == m


@pytest.mark.parametrize("channel", [BscChannel(0.2), AwgnChannel(0.8)])
def test_transmit_block_matches_stacked_words(channel):
    block = transmit(np.zeros((5, 9), dtype=np.uint8), channel, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    rows = [transmit(np.zeros(9, dtype=np.uint8), channel, rng) for _ in range(5)]
    assert block.dtype == rows[0].dtype
    assert np.array_equal(block, np.stack(rows))
