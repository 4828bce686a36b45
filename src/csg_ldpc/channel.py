"""Binary symmetric and BPSK/AWGN channels plus syndrome statistics.

This module holds the package's only noise generator, ``transmit``, and
its only syndrome routine, ``syndrome``.  Both take one word of shape (n,)
or a block of words of shape (B, n): the decoders test their estimates
with ``syndrome``, and ``syndrome_statistics`` pushes whole blocks through
both from one generator.  ``transmit`` draws uniforms (BSC) or standard
normals (AWGN) from one generator and hands them to ``apply_noise``, the
package's one channel map: ``word ^ (noise < rho)`` or
``1 - 2 word + sigma noise``.  ``run_experiments`` draws its trials' noise
itself, one generator per trial, and applies every ``--param`` point's
channel to that one draw through the same ``apply_noise``.

``ParityChecks``, each check's column indices built once per H, is the
one incidence table of H: ``syndrome`` gathers through it only the bits a
check touches (3 in a (3,3)-regular code, whatever n), and the decoders
lay their messages out in its check slots.

The closed-form syndrome moments use f_t(rho) = (1 - (1 - 2 rho)^t) / 2,
the probability that t independent flips have odd parity.  The variance
formula assumes every pair of checks shares at most one bit (Tanner girth
at least 6) and constant check degree 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .gf2 import BitMatrix

__all__ = [
    "BscChannel",
    "AwgnChannel",
    "ChannelModel",
    "ParityChecks",
    "apply_noise",
    "transmit",
    "syndrome",
    "f_t",
    "syndrome_mean_formula",
    "syndrome_variance_formula",
    "llr_from_bsc",
    "llr_from_awgn",
    "LLR_CLAMP",
]

LLR_CLAMP = 30.0


@dataclass(frozen=True)
class BscChannel:
    """Binary symmetric channel with crossover probability rho in [0, 1/2]."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 0.5:
            raise ValueError(f"crossover probability {self.rho} outside [0, 1/2]")


@dataclass(frozen=True)
class AwgnChannel:
    """BPSK over AWGN, noise standard deviation 0 < sigma < ~1.34e154 (0 -> +1, 1 -> -1)."""

    sigma: float

    def __post_init__(self) -> None:
        # an infinite sigma or sigma^2 makes received values inf and LLRs 0 or nan
        if not (0.0 < self.sigma < math.inf and self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma {self.sigma} must be finite and positive, with a finite square")


ChannelModel = Union[BscChannel, AwgnChannel]


def apply_noise(word: np.ndarray, channel: ChannelModel, noise: np.ndarray) -> np.ndarray:
    """The channel-map half of ``transmit``: flip the bits whose uniform is
    below rho (BSC), or map 0 -> +1, 1 -> -1 and add sigma times the normal
    (AWGN).  ``noise`` holds uniforms or standard normals of ``word``'s
    shape, as ``transmit`` draws them."""
    word = np.asarray(word, dtype=np.uint8)
    if isinstance(channel, BscChannel):
        return word ^ (noise < channel.rho)
    return 1.0 - 2.0 * word + channel.sigma * noise


def transmit(word: np.ndarray, channel: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """Send a codeword, or a (B, n) block of them, through the channel.

    BSC returns bits with i.i.d. flips; AWGN returns the real received
    values after BPSK mapping and Gaussian noise.  The noise is drawn
    first, in row-major order, so a block receives the same noise as its
    rows sent one after another from the same generator; ``apply_noise``
    then maps the whole block once.
    """
    word = np.asarray(word, dtype=np.uint8)
    noise = rng.random(word.shape) if isinstance(channel, BscChannel) else rng.standard_normal(word.shape)
    return apply_noise(word, channel, noise)


def padded_groups(groups: np.ndarray, items: np.ndarray, ngroups: int, fill: int) -> np.ndarray:
    """Row g lists, in their given order, the ``items`` whose group is g,
    padded with ``fill`` to the largest group's size; at least one column
    is kept, so empty groups and an empty H index like any other."""
    order = np.argsort(groups, kind="stable")
    groups, items = groups[order], items[order]
    size = np.bincount(groups, minlength=ngroups)
    slot = np.arange(len(groups)) - np.repeat(np.cumsum(size) - size, size)
    table = np.full((ngroups, max(int(size.max(initial=0)), 1)), fill, dtype=np.intp)
    table[groups, slot] = items
    return table


class ParityChecks:
    """The column indices of every check of a parity-check matrix H.

    ``columns`` is a read-only (max check degree, m) index table: entry
    (p, i) is the p-th column of check i, in ascending column order.  A
    check of lower degree, including a zero row, is padded with index n,
    which ``syndrome`` maps to a row of zeros, so every row weight goes
    through the same gather.  Build one per H and pass it to ``syndrome``
    wherever H would go.
    """

    def __init__(self, h: BitMatrix | np.ndarray):
        dense = h.to_numpy() if isinstance(h, BitMatrix) else np.asarray(h)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-d parity check, got shape {dense.shape}")
        m, self.ncols = dense.shape
        rows, cols = np.nonzero(dense)
        columns = np.ascontiguousarray(padded_groups(rows, cols, m, fill=self.ncols).T)
        columns.flags.writeable = False
        self.columns = columns


# syndrome() on a BitMatrix reuses the table of the last few matrices seen
_checks_of = lru_cache(maxsize=8)(ParityChecks)


def syndrome(h: BitMatrix | np.ndarray | ParityChecks, y: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """Syndrome bits y H^T and their weight, for one word or a block of words.

    ``h`` is a BitMatrix, its dense uint8 array, or its ``ParityChecks``;
    callers that test many blocks against one H should build the latter
    once.  ``y`` holds bits (0 or 1).  A word of shape (n,) gives (m,)
    bits and an int weight; a block of shape (B, n) gives (B, m) bits and
    int64 weights per row.  Each syndrome bit is the XOR of the bits its
    check touches, gathered from a transposed copy of the block with a
    zero row appended for the padded slots; the transposed layout makes
    every gather a copy of whole contiguous rows of B bytes.
    """
    if not isinstance(h, ParityChecks):
        h = _checks_of(h) if isinstance(h, BitMatrix) else ParityChecks(h)
    y = np.asarray(y, dtype=np.uint8)
    if y.ndim not in (1, 2) or y.shape[-1] != h.ncols:
        raise ValueError(f"expected words of length {h.ncols}, got shape {y.shape}")
    padded = np.zeros((h.ncols + 1,) + y.shape[:-1], dtype=np.uint8)
    padded[:-1] = y.T
    parity = np.bitwise_xor.reduce(padded.take(h.columns, axis=0), axis=0)
    # a weight is at most m, so it sums in the narrowest type that holds m
    # (~10x faster than summing in int64) and widens once
    weights = parity.sum(axis=0, dtype=np.min_scalar_type(len(parity))).astype(np.int64)
    if y.ndim == 1:
        return parity, int(weights)
    return parity.T, weights


def f_t(t: int, rho: float) -> float:
    """Probability that t independent flips at rate rho have odd parity."""
    if not isinstance(t, int) or t < 1:
        raise ValueError("t must be a positive integer")
    if not 0.0 <= rho <= 0.5:
        raise ValueError(f"rho {rho} outside [0, 1/2]")
    return (1.0 - (1.0 - 2.0 * rho) ** t) / 2.0


def syndrome_mean_formula(n: int, rho: float) -> float:
    """Expected syndrome weight n * f_3(rho) for n checks of degree 3."""
    return n * f_t(3, rho)


def syndrome_variance_formula(n: int, rho: float) -> float:
    """Syndrome-weight variance n/2 * (7 f_6(rho) - 6 f_4(rho)).

    Valid when the Tanner graph has girth at least 6, so that each check
    overlaps each of its 6 neighbouring checks in exactly one bit.
    """
    return n / 2.0 * (7.0 * f_t(6, rho) - 6.0 * f_t(4, rho))


def llr_from_bsc(bits: np.ndarray, rho: float) -> np.ndarray:
    """Channel log-likelihood ratios (1 - 2b) ln((1-rho)/rho), clamped.

    rho = 0 would give infinite LLRs; the clamp keeps them at +-``LLR_CLAMP``
    so downstream decoders always see finite input.
    """
    if not 0.0 <= rho <= 0.5:
        raise ValueError(f"rho {rho} outside [0, 1/2]")
    bits = np.asarray(bits, dtype=np.float64)
    with np.errstate(divide="ignore"):
        magnitude = np.log((1.0 - rho) / rho) if rho > 0 else np.inf
    return np.clip((1.0 - 2.0 * bits) * magnitude, -LLR_CLAMP, LLR_CLAMP)


def llr_from_awgn(received: np.ndarray, sigma: float) -> np.ndarray:
    """Channel LLRs 2 r / sigma^2 for BPSK over AWGN, clamped to +-``LLR_CLAMP``.

    A tiny sigma overflows the quotient (sigma^2 subnormal) or divides by
    zero (sigma^2 underflows to 0); the clamp maps both infinities to
    +-``LLR_CLAMP``, so neither warns.  A received 0 gives LLR 0 without
    dividing, so 0 / 0 cannot turn it into NaN.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    received = np.asarray(received, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore"):
        llr = np.divide(2.0 * received, sigma * sigma, out=np.zeros_like(received), where=received != 0.0)
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)
