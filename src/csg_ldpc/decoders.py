"""Hard-decision (Gallager A) and log-domain sum-product decoders.

Each decoder has one message-passing engine, ``decode_block``, which
decodes a (B, n) block of words in one set of numpy passes per iteration;
``decode`` is its B = 1 case.  Messages live on edges, with per-check and
per-bit views built through padded index tables (Richardson & Urbanke,
*Modern Coding Theory*, 2008, ch. 2, flooding schedule).  The engine keeps
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


class _BlockState:
    """Rows of a block still being decoded, and where finished rows go.

    ``active`` holds the original row index of each live row; ``finish``
    stores the rows whose estimate has zero syndrome and returns the mask
    of rows that stay, with which the caller compacts its own state.
    """

    def __init__(self, dense: np.ndarray, est: np.ndarray):
        self.dense = dense
        self.words = est.copy()
        self.iterations = np.zeros(len(est), dtype=np.int64)
        self.syndrome_zero = np.zeros(len(est), dtype=bool)
        self.active = np.arange(len(est))

    def finish(self, est: np.ndarray, iteration: int) -> np.ndarray | None:
        done = syndrome(self.dense, est)[1] == 0
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
        # edge e sits at flat position edge_slot[e] of an (m, max check degree) view
        self.edge_slot = np.empty(self.n_edges, dtype=np.int64)
        self.edge_slot[self.check_slots[self.check_mask]] = np.flatnonzero(self.check_mask)

    def _block(self, y: np.ndarray, dtype) -> np.ndarray:
        y = np.asarray(y, dtype=dtype)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(f"word length does not match n={self.n}: got a block of shape {y.shape}")
        return y

    def _to_edges(self, per_check: np.ndarray) -> np.ndarray:
        """(B, m, max check degree) check-side messages -> (B, n_edges) in edge order."""
        return per_check.reshape(len(per_check), -1)[:, self.edge_slot]

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
        state = _BlockState(self.dense, y)
        keep = state.finish(y, 0)
        if keep is not None:
            y = y[keep]
        if max_iter == 0 or not len(y):
            return state.result(y, 0)
        est = y
        received_e = y[:, self.cols_idx]
        b2c = received_e
        deg_other = self.bit_deg[self.cols_idx] - 1
        quorum = self.bit_deg + 1
        for it in range(1, max_iter + 1):
            padded = np.where(self.check_mask, b2c[:, self.check_slots], 0)
            parity = np.bitwise_xor.reduce(padded, axis=2)
            c2b = self._to_edges(parity[:, :, None] ^ padded)
            incoming = np.where(self.bit_mask, c2b[:, self.bit_slots], 0)
            ones_in = incoming.sum(axis=2, dtype=np.int64)
            votes = 2 * (ones_in + y)
            est = np.where(votes > quorum, 1, np.where(votes < quorum, 0, y)).astype(np.uint8)
            keep = state.finish(est, it)
            if keep is not None:
                y, est, received_e, ones_in, c2b = y[keep], est[keep], received_e[keep], ones_in[keep], c2b[keep]
                if not len(y):
                    break
            ones_other = ones_in[:, self.cols_idx] - c2b
            flip = np.where(received_e == 0, ones_other == deg_other, ones_other == 0)
            msg = np.where(flip, 1 - received_e, received_e)
            b2c = np.where(deg_other == 0, received_e, msg).astype(np.uint8)
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
        state = _BlockState(self.dense, est)
        keep = state.finish(est, 0)
        if keep is not None:
            llr, est = llr[keep], est[keep]
        if max_iter == 0 or not len(llr):
            return state.result(est, 0)
        b2c = llr[:, self.cols_idx]
        dmax = self.check_slots.shape[1]
        for it in range(1, max_iter + 1):
            th = np.tanh(np.clip(b2c, -LLR_CLAMP, LLR_CLAMP) / 2.0)
            padded = np.where(self.check_mask, th[:, self.check_slots], 1.0)
            c2b_view = np.empty_like(padded)
            for p in range(dmax):
                extrinsic = np.ones(padded.shape[:2], dtype=np.float64)
                for q in range(dmax):
                    if q != p:
                        extrinsic = extrinsic * padded[:, :, q]
                c2b_view[:, :, p] = extrinsic
            c2b_view = 2.0 * np.arctanh(np.clip(c2b_view, -_ONE_MINUS, _ONE_MINUS))
            c2b = self._to_edges(np.clip(c2b_view, -LLR_CLAMP, LLR_CLAMP))
            incoming = np.where(self.bit_mask, c2b[:, self.bit_slots], 0.0)
            total = llr + incoming.sum(axis=2)
            est = (total < 0).astype(np.uint8)
            keep = state.finish(est, it)
            if keep is not None:
                llr, est, total, c2b = llr[keep], est[keep], total[keep], c2b[keep]
                if not len(llr):
                    break
            b2c = total[:, self.cols_idx] - c2b
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
