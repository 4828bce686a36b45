"""Hard-decision (Gallager A) and log-domain sum-product decoders.

Each decoder has one message-passing engine, ``decode_block``, which
decodes a (B, n) block of words in one set of numpy passes per iteration;
``decode`` is its B = 1 case.  Messages live in the check slots of
``channel.ParityChecks``, the one incidence table of H: reshaped, a
message block is the check view, and the bit view gathers it through a
table of each bit's slots (Richardson & Urbanke, *Modern Coding Theory*,
2008, ch. 2, flooding schedule).  The engine keeps
the indices of the rows still decoding: after each iteration it tests
their estimates with ``channel.syndrome``, writes finished rows out and
compacts the state, so every row stops at its own first zero syndrome and
gets the same word and iteration count as if it were decoded alone.
Construct a decoder once per matrix and hand it blocks when decoding many
words: a lone word pays the full per-iteration numpy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LLR_CLAMP, ParityChecks, padded_groups, syndrome
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


class _BlockState:
    """Rows of a block still being decoded, and where finished rows go.

    ``active`` holds the original row index of each live row; ``finish``
    stores the rows whose estimate has zero syndrome and returns the mask
    of rows that stay, with which the caller compacts its own state.
    """

    def __init__(self, checks: ParityChecks, est: np.ndarray):
        self.checks = checks
        self.words = est.copy()
        self.iterations = np.zeros(len(est), dtype=np.int64)
        self.syndrome_zero = np.zeros(len(est), dtype=bool)
        self.active = np.arange(len(est))

    def finish(self, est: np.ndarray, iteration: int) -> np.ndarray | None:
        done = syndrome(self.checks, est)[1] == 0
        if not done.any():
            return None
        rows = self.active[done]
        self.words[rows] = est[done]
        self.iterations[rows] = iteration
        self.syndrome_zero[rows] = True
        keep = ~done
        self.active = self.active[keep]
        return keep

    def result(self, est: np.ndarray, max_iter: int):
        """Rows still active after ``max_iter`` iterations end with their last estimate."""
        self.words[self.active] = est
        self.iterations[self.active] = max_iter
        return self.words, self.iterations, self.syndrome_zero


class _EdgeStructure:
    """H's edges as message slots: slot i * w + p (w the largest check degree)
    is check i's p-th bit, entry (p, i) of ``checks.columns``.  A (B, m * w)
    message block reshaped to (B, m, w) is the check view, with padding
    slots masked off by ``check_mask``; ``slot_bit`` maps slots to bits
    (padding to bit 0), and row j of ``bit_slots``, masked by ``bit_mask``,
    lists bit j's slots in ascending check order: the bit view."""

    def __init__(self, h: BitMatrix):
        self.n = h.ncols
        self.checks = ParityChecks(h)
        columns = self.checks.columns.T
        self.check_mask = columns < self.n
        edges = np.flatnonzero(self.check_mask)
        self.slot_bit = np.where(self.check_mask, columns, 0).ravel()
        self.bit_deg = np.bincount(self.slot_bit[edges], minlength=self.n)
        self.bit_slots = padded_groups(self.slot_bit[edges], edges, self.n, fill=0)
        self.bit_mask = np.arange(self.bit_slots.shape[1]) < self.bit_deg[:, None]

    def _block(self, y: np.ndarray, dtype) -> np.ndarray:
        y = np.asarray(y, dtype=dtype)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(f"word length does not match n={self.n}: got a block of shape {y.shape}")
        return y

    def decode(self, y: np.ndarray, max_iter: int = 50, sent: np.ndarray | None = None) -> DecodeResult:
        """Decode one word: the B = 1 case of ``decode_block``."""
        words, iterations, ok = self.decode_block(np.asarray(y)[None], max_iter=max_iter)
        word = words[0]
        errors = int((word != np.asarray(sent, dtype=np.uint8)).sum()) if sent is not None else None
        return DecodeResult(word=word, iterations=int(iterations[0]), syndrome_zero=bool(ok[0]), bit_errors=errors)


class GallagerADecoder(_EdgeStructure):
    """Binary message passing: flip a bit only on unanimous disagreement.

    Check nodes send the XOR of the other incoming bit messages.  A bit
    sends its received value unless every other incoming check message is
    the complement.  The running estimate is the majority of incoming
    messages and the received bit, ties keeping the received bit, and
    decoding stops as soon as the estimate has zero syndrome.
    """

    def decode_block(self, y: np.ndarray, max_iter: int = 50):
        """Decode a (B, n) block of hard-decision words.

        Returns (words (B, n) uint8, iterations (B,) int64, syndrome_zero
        (B,) bool); row r equals ``decode(y[r], max_iter)``.
        """
        y = self._block(y, np.uint8)
        state = _BlockState(self.checks, y)
        keep = state.finish(y, 0)
        if keep is not None:
            y = y[keep]
        if max_iter == 0 or not len(y):
            return state.result(y, 0)
        est = y
        received = y[:, self.slot_bit]
        b2c = received
        deg_other = self.bit_deg[self.slot_bit] - 1
        quorum = self.bit_deg + 1
        for it in range(1, max_iter + 1):
            padded = np.where(self.check_mask, b2c.reshape(len(b2c), *self.check_mask.shape), 0)
            parity = np.bitwise_xor.reduce(padded, axis=2)
            c2b = (parity[:, :, None] ^ padded).reshape(len(b2c), -1)
            incoming = np.where(self.bit_mask, c2b[:, self.bit_slots], 0)
            ones_in = incoming.sum(axis=2, dtype=np.int64)
            votes = 2 * (ones_in + y)
            est = np.where(votes > quorum, 1, np.where(votes < quorum, 0, y)).astype(np.uint8)
            keep = state.finish(est, it)
            if keep is not None:
                y, est, received, ones_in, c2b = y[keep], est[keep], received[keep], ones_in[keep], c2b[keep]
                if not len(y):
                    break
            ones_other = ones_in[:, self.slot_bit] - c2b
            flip = np.where(received == 0, ones_other == deg_other, ones_other == 0)
            msg = np.where(flip, 1 - received, received)
            b2c = np.where(deg_other == 0, received, msg).astype(np.uint8)
        return state.result(est, max_iter)


class SumProductDecoder(_EdgeStructure):
    """Log-domain belief propagation with the tanh product rule.

    Check messages are 2 atanh(prod tanh(m/2)) over the other edges,
    messages are clamped to +-30, and a total LLR of exactly zero decodes
    to bit 0.  Early exit on zero syndrome.
    """

    def decode_block(self, llr: np.ndarray, max_iter: int = 50):
        """Decode a (B, n) block of channel LLRs, which must be finite.

        Returns (words (B, n) uint8, iterations (B,) int64, syndrome_zero
        (B,) bool); row r equals ``decode(llr[r], max_iter)``.
        """
        llr = self._block(llr, np.float64)
        if not np.all(np.isfinite(llr)):
            raise ValueError("LLR input must be finite, clamp infinities first")
        est = (llr < 0).astype(np.uint8)
        state = _BlockState(self.checks, est)
        keep = state.finish(est, 0)
        if keep is not None:
            llr, est = llr[keep], est[keep]
        if max_iter == 0 or not len(llr):
            return state.result(est, 0)
        b2c = llr[:, self.slot_bit]
        dmax = self.check_mask.shape[1]
        for it in range(1, max_iter + 1):
            th = np.tanh(np.clip(b2c, -LLR_CLAMP, LLR_CLAMP) / 2.0)
            padded = np.where(self.check_mask, th.reshape(len(th), *self.check_mask.shape), 1.0)
            c2b_view = np.empty_like(padded)
            for p in range(dmax):
                extrinsic = np.ones(padded.shape[:2], dtype=np.float64)
                for q in range(dmax):
                    if q != p:
                        extrinsic = extrinsic * padded[:, :, q]
                c2b_view[:, :, p] = extrinsic
            c2b_view = 2.0 * np.arctanh(np.clip(c2b_view, -_ONE_MINUS, _ONE_MINUS))
            c2b = np.clip(c2b_view, -LLR_CLAMP, LLR_CLAMP).reshape(len(th), -1)
            incoming = np.where(self.bit_mask, c2b[:, self.bit_slots], 0.0)
            total = llr + incoming.sum(axis=2)
            est = (total < 0).astype(np.uint8)
            keep = state.finish(est, it)
            if keep is not None:
                llr, est, total, c2b = llr[keep], est[keep], total[keep], c2b[keep]
                if not len(llr):
                    break
            b2c = total[:, self.slot_bit] - c2b
        return state.result(est, max_iter)


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
