"""Hard-decision (Gallager A) and log-domain sum-product decoders.

One message-passing loop, ``_EdgeStructure.decode_stream``, decodes a
stream of (B, n) blocks of words in one set of numpy passes per
iteration; ``decode_block`` is its one-block case and ``decode`` the
B = 1 case of that.  The two decoders differ only in their update rule: a
start method checks the input and gives the iteration-0 estimate and the
per-row state the rule carries, as it stands before the first iteration,
and a step method runs one iteration from that state.  Messages live in
the check slots of ``channel.ParityChecks``, the one incidence table of
H: reshaped, a message block is the check view, and the bit view gathers
it through a table of each bit's slots (Richardson & Urbanke, *Modern
Coding Theory*, 2008, ch. 2, flooding schedule).

The loop keeps every active row's stream position and iteration count.
Each pass it admits further blocks while fewer than ``BLOCK_ROWS`` rows
are active, tests every active row's estimate with ``channel.syndrome``,
hands out the rows that reached a zero syndrome or their ``max_iter``,
compacts the carried state, and steps the rest.  So every row stops at
its own first zero syndrome and gets the same word and iteration count as
if it were decoded alone, while a row that runs to the cap shares each of
its iterations with fresh rows instead of stepping alone.  Construct a
decoder once per matrix and hand it blocks when decoding many words: a
lone word pays the full per-iteration numpy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import LLR_CLAMP, ParityChecks, padded_groups, syndrome
from .gf2 import BitMatrix

__all__ = ["DecodeResult", "GallagerADecoder", "SumProductDecoder"]

_ONE_MINUS = float(np.nextafter(1.0, 0.0))

# rows a decode stream keeps in flight: it admits the next block whenever
# fewer are active, so with blocks of this size at most 2 * BLOCK_ROWS - 1
BLOCK_ROWS = 64


def _leave_one_out_products(x: np.ndarray) -> np.ndarray:
    """out[..., p] is the product of x[..., q] over every q != p, taken left
    to right (the empty product is 1).  Each one starts from the product of
    the slots left of p, shared with the next, so a degree-d check takes
    about d^2 / 2 multiplies rather than d (d - 1)."""
    out = np.empty_like(x)
    degree = x.shape[-1]
    prefix = None  # x[..., 0] * ... * x[..., p - 1]
    for p in range(degree):
        if p:
            prefix = x[..., 0] if p == 1 else prefix * x[..., p - 1]
        product = prefix
        for q in range(p + 1, degree):
            product = x[..., q] if product is None else product * x[..., q]
        out[..., p] = 1.0 if product is None else product
    return out


@dataclass
class DecodeResult:
    """Decoder output: word estimate, iterations used, syndrome status."""

    word: np.ndarray
    iterations: int
    syndrome_zero: bool


class _EdgeStructure:
    """H's edges as message slots: slot i * w + p (w the largest check degree)
    is check i's p-th bit, entry (p, i) of ``checks.columns``.  A (B, m * w)
    message block reshaped to (B, m, w) is the check view, with padding
    slots masked off by ``check_mask``; ``slot_bit`` maps slots to bits
    (padding to bit 0), and row j of ``bit_slots``, masked by ``bit_mask``,
    lists bit j's slots in ascending check order: the bit view.

    Subclasses supply the update rule: ``_start(y)`` returns the iteration-0
    estimate and a tuple of (B, ...) state arrays, and ``_step(*arrays)``
    returns the next estimate and arrays; the first step is no different
    from any other."""

    def __init__(self, h: BitMatrix):
        self.n = h.ncols
        self.checks = ParityChecks(h)
        columns = self.checks.columns.T
        if not self.n:  # no bits to pad with: no slots
            columns = columns[:, :0]
        self.check_mask = columns < self.n
        edges = np.flatnonzero(self.check_mask)
        self.slot_bit = np.where(self.check_mask, columns, 0).ravel()
        self.bit_deg = np.bincount(self.slot_bit[edges], minlength=self.n)
        self.bit_slots = padded_groups(self.slot_bit[edges], edges, self.n, fill=0)
        self.bit_mask = np.arange(self.bit_slots.shape[1]) < self.bit_deg[:, None]

    def decode(self, y: np.ndarray, max_iter: int = 50) -> DecodeResult:
        """Decode one word: the B = 1 case of ``decode_block``."""
        words, iterations, ok = self.decode_block(np.asarray(y)[None], max_iter=max_iter)
        return DecodeResult(word=words[0], iterations=int(iterations[0]), syndrome_zero=bool(ok[0]))

    def decode_block(self, y: np.ndarray, max_iter: int = 50):
        """Decode a (B, n) block of received words: the one-block stream.

        Returns (words (B, n) uint8, iterations (B,) int64, syndrome_zero
        (B,) bool); row r equals ``decode(y[r], max_iter)``.
        """
        # decode_stream checks the block's shape as it admits it
        y = np.asarray(y)
        words = np.empty(y.shape, dtype=np.uint8)
        iterations = np.empty(y.shape[:1], dtype=np.int64)
        syndrome_zero = np.empty(y.shape[:1], dtype=bool)
        for rows, *finished in self.decode_stream([y], max_iter=max_iter):
            words[rows], iterations[rows], syndrome_zero[rows] = finished
        return words, iterations, syndrome_zero

    def decode_stream(self, blocks: Iterable[np.ndarray], max_iter: int = 50):
        """Decode an iterable of (B, n) blocks as one stream of rows.

        Before each iteration the stream admits further blocks while fewer
        than ``BLOCK_ROWS`` rows are active, so rows that decode slowly
        share their iterations with fresh ones; each block is read only
        when it is admitted.  Each pass that finishes rows yields (rows,
        words, iterations, syndrome_zero): the rows' positions in the
        stream (counted over all blocks in order) and, for each, what
        ``decode`` returns for it.
        """
        blocks = iter(blocks)
        admitted = 0
        # one array per quantity, one row per active word: stream positions,
        # iteration counts, estimates, then the carried state
        state = (np.zeros(0, dtype=np.int64),)
        while True:
            while len(state[0]) < BLOCK_ROWS and (block := next(blocks, None)) is not None:
                est, carried = self._start(self._checked(block))
                new = (np.arange(admitted, admitted + len(est)), np.zeros(len(est), dtype=np.int64), est, *carried)
                admitted += len(est)
                state = tuple(map(np.concatenate, zip(state, new))) if len(state[0]) else new
            if not len(state[0]):
                return
            rows, iterations, est, *carried = state
            done = syndrome(self.checks, est)[1] == 0
            finished = done | (iterations == max_iter)
            count = np.count_nonzero(finished)
            if count == len(rows):  # nothing left to compact or step
                yield rows, est, iterations, done
                state = (rows[:0],)
                continue
            if count:
                yield rows[finished], est[finished], iterations[finished], done[finished]
                keep = ~finished
                rows, iterations, *carried = (a[keep] for a in (rows, iterations, *carried))
            est, carried = self._step(*carried)
            state = (rows, iterations + 1, est, *carried)

    def _checked(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(f"word length does not match n={self.n}: got a block of shape {y.shape}")
        return y


class GallagerADecoder(_EdgeStructure):
    """Binary message passing: flip a bit only on unanimous disagreement.

    Check nodes send the XOR of the other incoming bit messages.  A bit
    sends its received value unless every other incoming check message is
    the complement.  The running estimate is the majority of incoming
    messages and the received bit, ties keeping the received bit, and
    decoding stops as soon as the estimate has zero syndrome.
    """

    def __init__(self, h: BitMatrix):
        super().__init__(h)
        self.deg_other = self.bit_deg[self.slot_bit] - 1
        self.quorum = self.bit_deg + 1

    def _start(self, y: np.ndarray):
        """Hard-decision words: the estimate is the word itself.  The state
        is that of checks echoing the channel: each slot's incoming message
        is its bit's received value, so the first step sends the received
        bits."""
        y = y.astype(np.uint8, copy=False)
        received = y[:, self.slot_bit]
        return y, (y, received, y * self.bit_deg, received)

    def _step(self, y: np.ndarray, received: np.ndarray, ones_in: np.ndarray, c2b: np.ndarray):
        """One iteration from the received bit at each slot and the last
        iteration's (ones_in, c2b)."""
        ones_other = ones_in[:, self.slot_bit] - c2b
        flip = np.where(received == 0, ones_other == self.deg_other, ones_other == 0)
        msg = np.where(flip, 1 - received, received)
        b2c = np.where(self.deg_other == 0, received, msg).astype(np.uint8)
        padded = np.where(self.check_mask, b2c.reshape(len(b2c), *self.check_mask.shape), 0)
        parity = np.bitwise_xor.reduce(padded, axis=2)
        c2b = (parity[:, :, None] ^ padded).reshape(len(b2c), -1)
        incoming = np.where(self.bit_mask, c2b[:, self.bit_slots], 0)
        ones_in = incoming.sum(axis=2, dtype=np.int64)
        votes = 2 * (ones_in + y)
        est = np.where(votes > self.quorum, 1, np.where(votes < self.quorum, 0, y)).astype(np.uint8)
        return est, (y, received, ones_in, c2b)


class SumProductDecoder(_EdgeStructure):
    """Log-domain belief propagation with the tanh product rule.

    Check messages are 2 atanh(prod tanh(m/2)) over the other edges,
    messages are clamped to +-30, and a total LLR of exactly zero decodes
    to bit 0.  Early exit on zero syndrome.
    """

    def _start(self, llr: np.ndarray):
        """Channel LLRs, which must be finite: the estimate is their sign.
        With every check message still zero, the first step sends the
        channel LLRs."""
        llr = llr.astype(np.float64, copy=False)
        if not np.all(np.isfinite(llr)):
            raise ValueError("LLR input must be finite, clamp infinities first")
        return (llr < 0).astype(np.uint8), (llr, llr, np.zeros((len(llr), self.check_mask.size)))

    def _step(self, llr: np.ndarray, total: np.ndarray, c2b: np.ndarray):
        """One iteration from the last iteration's (total, c2b)."""
        b2c = total[:, self.slot_bit] - c2b
        th = np.tanh(np.clip(b2c, -LLR_CLAMP, LLR_CLAMP) / 2.0)
        padded = np.where(self.check_mask, th.reshape(len(th), *self.check_mask.shape), 1.0)
        c2b_view = 2.0 * np.arctanh(np.clip(_leave_one_out_products(padded), -_ONE_MINUS, _ONE_MINUS))
        c2b = np.clip(c2b_view, -LLR_CLAMP, LLR_CLAMP).reshape(len(th), -1)
        incoming = np.where(self.bit_mask, c2b[:, self.bit_slots], 0.0)
        total = llr + incoming.sum(axis=2)
        return (total < 0).astype(np.uint8), (llr, total, c2b)
