"""Hard-decision (Gallager A) and log-domain sum-product decoders.

One message-passing loop, ``_EdgeStructure.decode_stream``, decodes a
stream of (B, n) blocks of words in one set of numpy passes per
iteration; ``decode_block`` is its one-block case and ``decode`` the
B = 1 case of that.  The two decoders differ only in their update rule: a
start method checks the input and gives the iteration-0 estimate and the
state the rule carries, as it stands before the first iteration, and a
step method runs one iteration from that state (Richardson & Urbanke,
*Modern Coding Theory*, 2008, ch. 2, flooding schedule).

The state is slot-major: each active row is a column.  Estimates, and
sum-product's channel and total LLRs, are (n, A) for A active rows, and
messages are (S, A) plus one zero row.  Messages live in the check slots
of ``channel.ParityChecks``, the one incidence table of H: with m checks
of degree at most w, slot p * m + i (of S = w m) holds check i's p-th
bit, so the messages reshaped to (w, m, A) are the check view, whose w
(m, A) blocks are contiguous, and the bit view gathers them through a
(d, n) table of each bit's slots in ascending check order, d the largest
bit degree.  Every gather is a ``take`` along
axis 0, a copy of whole contiguous rows, the layout ``channel.syndrome``
uses.  A bit of lower degree than d points its spare entries at the zero
row; a check of lower degree than w has padding slots, a fixed list that
each step sets to the rule's neutral value (1 for the tanh products, 0
for the parities) after its gather.  No code of the catalog has either.

The loop keeps every active row's label, an integer the caller hands in
with its block, and its iteration count.  Each pass it admits further
blocks while fewer than ``IN_FLIGHT`` rows are active, tests every active
row's estimate with ``channel.syndrome``, hands out the rows that reached
a zero syndrome or their ``max_iter`` with their labels, compacts the
carried state along its row axis, and steps the rest.  So every row
stops at its own first zero syndrome and gets the same word and iteration
count as if it were decoded alone, while a row that runs to the cap
shares each of its iterations with fresh rows instead of stepping alone.
Construct a decoder once per matrix and hand it blocks when decoding many
words: a lone word pays the full per-iteration numpy overhead.
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
# fewer are active, so with blocks of b rows at most IN_FLIGHT + b - 1
IN_FLIGHT = 128


def _leave_one_out_products(x: np.ndarray) -> np.ndarray:
    """out[p] is the product of x[q] over every q != p along axis 0, taken
    left to right (the empty product is 1).  Each one starts from the
    product of the slots before p, shared with the next, so a degree-d
    check takes about d^2 / 2 multiplies rather than d (d - 1)."""
    out = np.empty_like(x)
    degree = len(x)
    prefix = None  # x[0] * ... * x[p - 1]
    for p in range(degree):
        if p:
            prefix = x[0] if p == 1 else prefix * x[p - 1]
        product = prefix
        for q in range(p + 1, degree):
            product = x[q] if product is None else product * x[q]
        out[p] = 1.0 if product is None else product
    return out


@dataclass
class DecodeResult:
    """Decoder output: word estimate, iterations used, syndrome status."""

    word: np.ndarray
    iterations: int
    syndrome_zero: bool


class _EdgeStructure:
    """H's edges as message slots, laid out as the module docstring says:
    ``slot_bit`` is ``checks.columns`` raveled, padding slots
    (``pad_slots``) read from bit 0; ``view`` is the check view's (w, m);
    column j of ``bit_slots`` lists bit j's slots, padded with S.

    Subclasses supply the update rule: ``_start(y)`` takes a (B, n) block
    and returns the iteration-0 estimate and a tuple of state arrays, each
    with one column per row, and ``_step(*arrays)`` returns the next
    estimate and arrays; the first step is no different from any other."""

    def __init__(self, h: BitMatrix):
        self.n = h.ncols
        self.checks = ParityChecks(h)
        columns = self.checks.columns
        if not self.n:  # no bits to pad with: no slots
            columns = columns[:0]
        self.view = columns.shape
        self.slots = columns.size
        real = columns < self.n
        self.slot_bit = np.where(real, columns, 0).ravel()
        self.pad_slots = np.flatnonzero(~real)
        # every edge, in ascending check order
        check, position = np.nonzero(real.T)
        bits = columns[position, check]
        self.bit_deg = np.bincount(bits, minlength=self.n)
        table = padded_groups(bits, position * self.view[1] + check, self.n, fill=self.slots)
        self.bit_slots = np.ascontiguousarray(table.T)

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
        for rows, *finished in self.decode_stream([(np.arange(iterations.size), y)], max_iter=max_iter):
            words[rows], iterations[rows], syndrome_zero[rows] = finished
        return words, iterations, syndrome_zero

    def decode_stream(self, blocks: Iterable[tuple[np.ndarray, np.ndarray]], max_iter: int = 50):
        """Decode an iterable of (labels, y) pairs as one stream of rows: y
        a (B, n) block and labels B integers the caller chooses, one a row.

        Before each iteration the stream admits further blocks while fewer
        than ``IN_FLIGHT`` rows are active, so rows that decode slowly
        share their iterations with fresh ones; each block is read only
        when it is admitted.  Each pass that finishes rows yields (labels,
        words, iterations, syndrome_zero): the rows' labels and, for each,
        what ``decode`` returns for it, words as a (k, n) array.
        """
        blocks = iter(blocks)
        # one array per quantity, each active word at the same place along
        # the last axis: labels, iteration counts, estimates, then the
        # carried state
        state = (np.zeros(0, dtype=np.int64),)
        while True:
            while len(state[0]) < IN_FLIGHT and (block := next(blocks, None)) is not None:
                labels, y = self._checked(*block)
                est, carried = self._start(y)
                new = (labels, np.zeros(len(labels), dtype=np.int64), est, *carried)
                state = tuple(np.concatenate(pair, axis=-1) for pair in zip(state, new)) if len(state[0]) else new
            if not len(state[0]):
                return
            labels, iterations, est, *carried = state
            del state  # so compaction frees the uncompacted arrays before the step
            done = syndrome(self.checks, est.T)[1] == 0
            finished = done | (iterations == max_iter)
            count = np.count_nonzero(finished)
            if count == len(labels):  # nothing left to compact or step
                yield labels, est.T, iterations, done
                state = (labels[:0],)
                continue
            if count:
                yield labels[finished], est[:, finished].T, iterations[finished], done[finished]
                keep = np.flatnonzero(~finished)
                labels, iterations, *carried = (a.take(keep, axis=-1) for a in (labels, iterations, *carried))
            est, carried = self._step(*carried)
            state = (labels, iterations + 1, est, *carried)

    def _checked(self, labels: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        labels, y = np.asarray(labels), np.asarray(y)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(f"word length does not match n={self.n}: got a block of shape {y.shape}")
        if labels.shape != y.shape[:1]:
            raise ValueError(f"labels of shape {labels.shape} do not match a block of {len(y)} rows")
        return labels, y

    def _messages(self, rows: int, dtype) -> np.ndarray:
        """A (S + 1, rows) message block whose last row, the one every
        bit-view padding entry points at, is zero."""
        block = np.empty((self.slots + 1, rows), dtype=dtype)
        block[self.slots] = 0
        return block


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
        # the unsigned type every count and vote fits: votes reach 2 (degree + 1)
        counts = np.min_scalar_type(2 * (int(self.bit_deg.max(initial=0)) + 1))
        self.degree = self.bit_deg.astype(counts)[:, None]
        self.quorum = self.degree + 1
        deg_other = self.bit_deg[self.slot_bit] - 1
        # slots of degree-1 bits, which have no other check to hear from
        self.lone_slots = np.flatnonzero(deg_other == 0)
        self.deg_other = deg_other.astype(counts)[:, None]

    def _start(self, y: np.ndarray):
        """Hard-decision words, every entry 0 or 1: the estimate is the word
        itself.  The state is that of checks echoing the channel: each
        slot's incoming message is its bit's received value, so the first
        step sends the received bits."""
        if ((y != 0) & (y != 1)).any():
            raise ValueError("Gallager A input must be hard decisions, every entry 0 or 1")
        y = np.ascontiguousarray(y.T, dtype=np.uint8)
        received = y.take(self.slot_bit, axis=0)
        c2b = self._messages(y.shape[1], np.uint8)
        c2b[:self.slots] = received
        return y, (y, received, y * self.degree, c2b)

    def _step(self, y: np.ndarray, received: np.ndarray, ones_in: np.ndarray, c2b: np.ndarray):
        """One iteration from the received bit at each slot and the last
        iteration's (ones_in, c2b).  A slot flips its received bit when
        every other check disagrees with it: all others send 1 to a 0,
        or 0 to a 1."""
        ones_other = ones_in.take(self.slot_bit, axis=0)
        ones_other -= c2b[:self.slots]
        b2c = received ^ (ones_other == self.deg_other * (1 - received))
        b2c[self.lone_slots] = received[self.lone_slots]
        b2c[self.pad_slots] = 0
        view = b2c.reshape(*self.view, -1)
        c2b = self._messages(b2c.shape[1], np.uint8)
        np.bitwise_xor(np.bitwise_xor.reduce(view, axis=0), view, out=c2b[:self.slots].reshape(view.shape))
        ones_in = c2b.take(self.bit_slots[0], axis=0).astype(self.degree.dtype, copy=False)
        for slots in self.bit_slots[1:]:
            ones_in += c2b.take(slots, axis=0)
        votes = 2 * (ones_in + y)
        est = np.where(votes == self.quorum, y, votes > self.quorum).astype(np.uint8)
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
        llr = np.ascontiguousarray(llr.T, dtype=np.float64)
        if not np.all(np.isfinite(llr)):
            raise ValueError("LLR input must be finite, clamp infinities first")
        return (llr < 0).astype(np.uint8), (llr, llr, np.zeros((self.slots + 1, llr.shape[1])))

    def _step(self, llr: np.ndarray, total: np.ndarray, c2b: np.ndarray):
        """One iteration from the last iteration's (total, c2b).  A bit's
        incoming messages add in ascending check order, then its channel
        LLR."""
        b2c = total.take(self.slot_bit, axis=0)
        b2c -= c2b[:self.slots]
        np.clip(b2c, -LLR_CLAMP, LLR_CLAMP, out=b2c)
        b2c /= 2.0
        th = np.tanh(b2c, out=b2c)
        th[self.pad_slots] = 1.0
        products = _leave_one_out_products(th.reshape(*self.view, -1))
        np.clip(products, -_ONE_MINUS, _ONE_MINUS, out=products)
        np.arctanh(products, out=products)
        products *= 2.0
        c2b = self._messages(th.shape[1], np.float64)
        np.clip(products, -LLR_CLAMP, LLR_CLAMP, out=c2b[:self.slots].reshape(products.shape))
        total = c2b.take(self.bit_slots[0], axis=0)
        for slots in self.bit_slots[1:]:
            total += c2b.take(slots, axis=0)
        total += llr
        return (total < 0).astype(np.uint8), (llr, total, c2b)
