"""Hard-decision (Gallager A) and log-domain sum-product decoders.

Both decoders share a padded edge structure derived from the parity-check
matrix: messages live on edges, with per-check and per-bit views built
through index arrays so one iteration is a handful of numpy operations.
Stopping tests go through ``channel.syndrome`` on the dense matrix kept
by that structure, the same routine the experiments use for syndrome
weights.  Construct a decoder once per matrix when decoding many words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LLR_CLAMP, syndrome
from .gf2 import BitMatrix

__all__ = [
    "DecodeResult",
    "GallagerADecoder",
    "SumProductDecoder",
    "decode_gallager_a",
    "decode_sum_product",
]

_ONE_MINUS = float(np.nextafter(1.0, 0.0))


@dataclass
class DecodeResult:
    """Decoder output: word estimate, iterations used, syndrome status.

    ``bit_errors`` counts disagreements with the transmitted word when the
    caller supplied it, else None.
    """

    word: np.ndarray
    iterations: int
    syndrome_zero: bool
    bit_errors: int | None = None


def _padded_slots(group_of_edge: np.ndarray, ngroups: int):
    """Group edges into a (ngroups, max_degree) index table plus validity mask."""
    counts = np.bincount(group_of_edge, minlength=ngroups)
    dmax = int(counts.max()) if ngroups else 0
    slots = np.zeros((ngroups, dmax), dtype=np.int64)
    mask = np.zeros((ngroups, dmax), dtype=bool)
    order = np.argsort(group_of_edge, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(len(order)) - starts[group_of_edge[order]]
    slots[group_of_edge[order], within] = order
    mask[group_of_edge[order], within] = True
    return slots, mask, counts


class _EdgeStructure:
    def __init__(self, h: BitMatrix):
        self.h = h
        self.m = h.nrows
        self.n = h.ncols
        self.dense = h.to_numpy()
        rows_idx, cols_idx = np.nonzero(self.dense)
        self.rows_idx = rows_idx
        self.cols_idx = cols_idx
        self.n_edges = len(rows_idx)
        self.check_slots, self.check_mask, self.check_deg = _padded_slots(rows_idx, self.m)
        self.bit_slots, self.bit_mask, self.bit_deg = _padded_slots(cols_idx, self.n)

    def syndrome_is_zero(self, est: np.ndarray) -> bool:
        return syndrome(self.dense, est)[1] == 0

    def _result(self, est, iterations, sent):
        ok = self.syndrome_is_zero(est)
        errors = int((est != np.asarray(sent, dtype=np.uint8)).sum()) if sent is not None else None
        return DecodeResult(word=est, iterations=iterations, syndrome_zero=ok, bit_errors=errors)


class GallagerADecoder(_EdgeStructure):
    """Binary message passing: flip a bit only on unanimous disagreement.

    Check nodes send the XOR of the other incoming bit messages.  A bit
    sends its received value unless every other incoming check message is
    the complement.  The running estimate is the majority of incoming
    messages and the received bit, ties keeping the received bit, and
    decoding stops as soon as the estimate has zero syndrome.
    """

    def decode(self, y: np.ndarray, max_iter: int = 50, sent: np.ndarray | None = None) -> DecodeResult:
        y = np.asarray(y, dtype=np.uint8)
        if y.shape[0] != self.n:
            raise ValueError(f"word length {y.shape[0]} does not match n={self.n}")
        est = y.copy()
        if self.syndrome_is_zero(est) or max_iter == 0:
            return self._result(est, 0, sent)
        b2c = y[self.cols_idx]
        received_e = y[self.cols_idx]
        deg_other = self.bit_deg[self.cols_idx] - 1
        for it in range(1, max_iter + 1):
            padded = np.where(self.check_mask, b2c[self.check_slots], 0)
            parity = np.bitwise_xor.reduce(padded, axis=1)
            c2b_view = parity[:, None] ^ padded
            c2b = np.zeros(self.n_edges, dtype=np.uint8)
            c2b[self.check_slots[self.check_mask]] = c2b_view[self.check_mask]
            incoming = np.where(self.bit_mask, c2b[self.bit_slots], 0)
            ones_in = incoming.sum(axis=1, dtype=np.int64)
            votes = 2 * (ones_in + y)
            quorum = self.bit_deg + 1
            est = np.where(votes > quorum, 1, np.where(votes < quorum, 0, y)).astype(np.uint8)
            if self.syndrome_is_zero(est):
                return self._result(est, it, sent)
            ones_other = ones_in[self.cols_idx] - c2b
            flip = np.where(received_e == 0, ones_other == deg_other, ones_other == 0)
            msg = np.where(flip, 1 - received_e, received_e)
            b2c = np.where(deg_other == 0, received_e, msg).astype(np.uint8)
        return self._result(est, max_iter, sent)


class SumProductDecoder(_EdgeStructure):
    """Log-domain belief propagation with the tanh product rule.

    Check messages are 2 atanh(prod tanh(m/2)) over the other edges,
    messages are clamped to +-30, and a total LLR of exactly zero decodes
    to bit 0.  Early exit on zero syndrome.
    """

    def decode(self, llr: np.ndarray, max_iter: int = 50, sent: np.ndarray | None = None) -> DecodeResult:
        llr = np.asarray(llr, dtype=np.float64)
        if llr.shape[0] != self.n:
            raise ValueError(f"LLR length {llr.shape[0]} does not match n={self.n}")
        if not np.all(np.isfinite(llr)):
            raise ValueError("LLR input must be finite, clamp infinities first")
        est = (llr < 0).astype(np.uint8)
        if self.syndrome_is_zero(est) or max_iter == 0:
            return self._result(est, 0, sent)
        b2c = llr[self.cols_idx]
        dmax = self.check_slots.shape[1]
        for it in range(1, max_iter + 1):
            th = np.tanh(np.clip(b2c, -LLR_CLAMP, LLR_CLAMP) / 2.0)
            padded = np.where(self.check_mask, th[self.check_slots], 1.0)
            c2b_view = np.empty_like(padded)
            for p in range(dmax):
                extrinsic = np.ones(self.m, dtype=np.float64)
                for q in range(dmax):
                    if q != p:
                        extrinsic = extrinsic * padded[:, q]
                c2b_view[:, p] = extrinsic
            c2b_view = 2.0 * np.arctanh(np.clip(c2b_view, -_ONE_MINUS, _ONE_MINUS))
            c2b_view = np.clip(c2b_view, -LLR_CLAMP, LLR_CLAMP)
            c2b = np.zeros(self.n_edges, dtype=np.float64)
            c2b[self.check_slots[self.check_mask]] = c2b_view[self.check_mask]
            incoming = np.where(self.bit_mask, c2b[self.bit_slots], 0.0)
            total = llr + incoming.sum(axis=1)
            est = (total < 0).astype(np.uint8)
            if self.syndrome_is_zero(est):
                return self._result(est, it, sent)
            b2c = total[self.cols_idx] - c2b
        return self._result(est, max_iter, sent)


def decode_gallager_a(
    h: BitMatrix, y: np.ndarray, max_iter: int = 50, sent: np.ndarray | None = None
) -> DecodeResult:
    """One-shot Gallager A decode; build GallagerADecoder directly for loops."""
    return GallagerADecoder(h).decode(y, max_iter=max_iter, sent=sent)


def decode_sum_product(
    h: BitMatrix, llr: np.ndarray, max_iter: int = 50, sent: np.ndarray | None = None
) -> DecodeResult:
    """One-shot sum-product decode; build SumProductDecoder directly for loops."""
    return SumProductDecoder(h).decode(llr, max_iter=max_iter, sent=sent)
