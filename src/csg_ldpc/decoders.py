"""Hard-decision (Gallager A) and log-domain sum-product decoders.

One message-passing loop, ``_EdgeStructure.decode_stream``, decodes a
stream of (B, n) blocks of words in one set of numpy passes per
iteration; ``decode_block`` is its one-block case and ``decode`` the
B = 1 case of that.  The two decoders differ only in their update rule: a
start method checks the input and gives the iteration-0 estimate and the
state the rule carries, as it stands before the first iteration, and a
step method runs one iteration from that state (Richardson & Urbanke,
*Modern Coding Theory*, 2008, ch. 2, flooding schedule).

The stream works in lanes.  A lane holds one row for sum-product, whose
messages are floats, and up to 64 rows for Gallager A, whose messages
are single bits: row r of a lane is bit r of a uint64 word, so each
bitwise numpy operation steps 64 rows.  The rows of one block fill its
lanes in order, and a partly filled last lane carries zero rows that no
one asked for.

The state is slot-major: each lane is a column.  Estimates, and
sum-product's channel and total LLRs, are (n, L) for L lanes, and
messages are (S, L), or (S + 1, L) with a zero last row.  Messages live
in the check slots of ``channel.ParityChecks``, the one incidence table
of H: with m checks of degree at most w, slot p * m + i (of S = w m)
holds check i's p-th bit, so the messages reshaped to (w, m, L) are the
check view, whose w (m, L) blocks are contiguous, and the bit view
gathers them through a (d, n) table of each bit's slots in ascending
check order, d the largest bit degree.  Every gather is a ``take`` along axis 0, a copy of whole
contiguous rows, the layout ``channel.syndrome`` uses.  A bit of lower
degree than d has spare entries in the bit view, and a check of lower
degree than w has padding slots; each rule gives both the value that
leaves it unchanged.  No code of the catalog has either.

The loop keeps every lane's labels, an integer for each row that the
caller hands in with its block, which of its rows are still live, and an
iteration count, shared by the rows of a lane since they are admitted
together.  Each pass it admits further blocks while fewer than
``IN_FLIGHT`` lanes are active, tests every lane's estimate for a zero
syndrome, hands out the live rows that reached one or their ``max_iter``
with their labels (unpacking only the lanes that hold such a row), drops
the lanes that have no live row left, and steps the rest.  A finished
row of a lane that is still stepping changes nothing that is handed out.
So every row stops at its own first zero syndrome and gets the same word
and iteration count as if it were decoded alone, while a row that runs
to the cap shares each of its iterations with fresh rows instead of
stepping alone.  Construct a decoder once per matrix and hand it blocks
when decoding many words: a lone word pays the full per-iteration numpy
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import LLR_CLAMP, ParityChecks, padded_groups, syndrome
from .gf2 import BitMatrix

__all__ = ["DecodeResult", "GallagerADecoder", "SumProductDecoder"]

_ONE_MINUS = float(np.nextafter(1.0, 0.0))

# lanes a decode stream keeps in flight: it admits the next block whenever
# fewer are active, so with blocks of b lanes at most IN_FLIGHT + b - 1.
# A lane is one row for sum-product and up to 64 rows for Gallager A
IN_FLIGHT = 128

# rows of one Gallager A lane: the bits of a uint64 word
_WORD_BITS = 64
_ALL_ONES = np.uint64(2**64 - 1)


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


def _leave_one_out_ands(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[p] is the AND of x[q] over every q != p along axis 0, all ones
    where there is none: ``_leave_one_out_products``' shared prefixes, and
    since an AND, unlike a float product, is exact in any order, shared
    suffixes too.  About 3d operations for d planes, 3 for d = 3."""
    out = np.empty_like(x) if out is None else out
    degree = len(x)
    suffix = [None] * (degree + 1)  # suffix[p] = x[p] & ... & x[d - 1], p >= 1
    for p in range(degree - 1, 0, -1):
        suffix[p] = x[p] if suffix[p + 1] is None else suffix[p + 1] & x[p]
    prefix = None  # x[0] & ... & x[p - 1]
    for p in range(degree):
        after = suffix[p + 1]
        others = [a for a in (prefix, after) if a is not None]
        if len(others) == 2:
            np.bitwise_and(*others, out=out[p])
        else:
            out[p] = others[0] if others else _ALL_ONES
        if p + 1 < degree:
            prefix = x[p] if prefix is None else prefix & x[p]
    return out


def _at_least(planes: np.ndarray, t: int) -> np.ndarray:
    """Bit-sliced threshold (t >= 1): a word whose bit is set where at
    least t of the planes along axis 0 have it set.

    Near the top (t > d - log2 d for d planes) it keeps "at least c of the
    planes so far" only for the c that can still reach t, so t = d is a
    chain of d - 1 ANDs.  Otherwise it adds the planes into a bit-sliced
    binary count, least significant plane first, and compares the count
    with t from the bottom bit up: about 2 d log2 d operations, not d^2 / 2.
    """
    total = len(planes)
    if t > total:
        return np.zeros(planes.shape[1:], dtype=planes.dtype)
    if total - t < total.bit_length():
        reached: dict[int, np.ndarray] = {}  # c -> at least c of the planes so far
        for p, plane in enumerate(planes):
            for c in range(min(p + 1, t), max(1, t - (total - 1 - p)) - 1, -1):
                carry = plane if c == 1 else reached[c - 1] & plane
                reached[c] = reached[c] | carry if c in reached else carry
        return reached[t]
    count: list[np.ndarray] = []
    for p, plane in enumerate(planes):
        carry = plane
        for k in range(len(count)):
            count[k], carry = count[k] ^ carry, count[k] & carry
        if len(count) < (p + 1).bit_length():
            count.append(carry)
    # set where the count's low k + 1 bits are at least t's (None: always)
    result = None
    for k, bit in enumerate(count):
        if t >> k & 1:
            result = bit if result is None else bit & result
        elif result is not None:
            result = bit | result
    return result


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bits of shape (B,) or (B, n) as uint64 lane words of shape (L,) or
    (n, L), L = ceil(B / 64): row r is bit r % 64 of lane r // 64, and a
    last lane's missing rows are 0."""
    rows = len(bits)
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=-1, bitorder="little")
    if rows % _WORD_BITS:
        full = np.zeros(bits.shape[1:] + (-(-rows // _WORD_BITS) * 8,), dtype=np.uint8)
        full[..., :packed.shape[-1]] = packed
        packed = full
    return packed.view(np.uint64)


def _unpack(words: np.ndarray) -> np.ndarray:
    """The inverse of ``_pack``: lane words of shape (L,) or (n, L) as
    uint8 bits of shape (64 L,) or (64 L, n), padding rows included."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=-1, bitorder="little").T


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

    Subclasses supply the update rule and the lane format.  ``_start(y)``
    takes a (B, n) block and returns the iteration-0 estimate and a tuple
    of state arrays, each with one column per lane, and ``_step(*arrays)``
    returns the next estimate and arrays; the first step is no different
    from any other.  ``_lanes(labels)`` gives a block's labels by lane,
    (rows of a lane, lanes), and its live-row masks, ``_zero_syndrome(est)``
    each lane's mask of rows with a zero syndrome, and ``_hand_out`` the
    finished rows of some lanes, one by one.  Here a lane is one row and a
    mask one bool."""

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
        than ``IN_FLIGHT`` lanes are active, so rows that decode slowly
        share their iterations with fresh ones; each block is read only
        when it is admitted.  Each pass that finishes rows yields (labels,
        words, iterations, syndrome_zero): the rows' labels and, for each,
        what ``decode`` returns for it, words as a (k, n) array.
        """
        blocks = iter(blocks)
        # one array per quantity, each lane at the same place along the
        # last axis: labels (rows of a lane, lanes), live-row masks,
        # iteration counts, estimates, then the carried state
        state = None
        while True:
            # the blocks admitted on one pass join the state in one copy
            parts = [] if state is None else [state]
            active = 0 if state is None else len(state[1])
            while active < IN_FLIGHT and (block := next(blocks, None)) is not None:
                labels, y = self._checked(*block)
                est, carried = self._start(y)
                lanes = est.shape[-1]
                parts.append((*self._lanes(labels), np.zeros(lanes, dtype=np.int64), est, *carried))
                active += lanes
            if len(parts) > 1:
                state = tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
            elif parts:
                state = parts[0]
            del parts  # so the admitted blocks' own arrays are freed
            if state is None or not len(state[1]):
                return
            labels, live, iterations, est, *carried = state
            del state  # so compaction frees the uncompacted arrays before the step
            done = self._zero_syndrome(est)
            finished = live & done
            if iterations[0] == max_iter:  # the oldest lanes come first
                capped = iterations == max_iter
                finished[capped] = live[capped]
            hit = np.flatnonzero(finished)
            if len(hit):
                yield self._hand_out(finished[hit], done[hit], labels[:, hit], iterations[hit], est[:, hit])
                live = live ^ finished
                keep = np.flatnonzero(live)
                if not len(keep):  # nothing left to compact or step
                    state = None
                    continue
                if len(keep) < len(live):
                    kept = (a.take(keep, axis=-1) for a in (labels, live, iterations, *carried))
                    labels, live, iterations, *carried = kept
            est, carried = self._step(*carried)
            state = (labels, live, iterations + 1, est, *carried)

    def _checked(self, labels: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        labels, y = np.asarray(labels), np.asarray(y)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(f"word length does not match n={self.n}: got a block of shape {y.shape}")
        if labels.shape != y.shape[:1]:
            raise ValueError(f"labels of shape {labels.shape} do not match a block of {len(y)} rows")
        return labels, y

    def _lanes(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return labels[None], np.ones(len(labels), dtype=bool)

    def _zero_syndrome(self, est: np.ndarray) -> np.ndarray:
        return syndrome(self.checks, est.T)[1] == 0

    def _hand_out(self, finished, done, labels, iterations, est):
        """(labels, words, iterations, syndrome_zero) of the ``finished``
        rows of some lanes, given those lanes' masks, labels, counts and
        estimates."""
        return labels[0], est.T, iterations, done


class GallagerADecoder(_EdgeStructure):
    """Binary message passing: flip a bit only on unanimous disagreement.

    Check nodes send the XOR of the other incoming bit messages.  A bit
    sends its received value unless every other incoming check message is
    the complement.  The running estimate is the majority of incoming
    messages and the received bit, ties keeping the received bit, and
    decoding stops as soon as the estimate has zero syndrome.

    Every message is a bit, so the rule runs bit-sliced on uint64 lanes of
    64 rows.  The state is the received words and, in the bit view, each
    incoming check message XOR its bit's received value: a set bit is a
    check that disagrees with the channel.  A bit flips its message to a
    check when every other check disagrees (a leave-one-out AND), and its
    estimate when more than half of its d + 1 inputs disagree: for
    d = 3, ``y ? c1 | c2 | c3 : c1 & c2 & c3``.  A bit of degree 2 or more
    reads its padding entries as disagreeing, which changes neither rule
    once its threshold counts them; one of degree 0 or 1 reads them as
    agreeing, so it never flips.
    """

    def __init__(self, h: BitMatrix):
        super().__init__(h)
        degree, n = self.bit_slots.shape
        pad = self.bit_slots == self.slots
        several = self.bit_deg >= 2
        # rows of the raveled (d n, L) bit view
        self.pad_ones = np.flatnonzero(pad & several)
        self.pad_zeros = np.flatnonzero(pad & ~several)
        # where each slot's bit-view entry sits; padding slots read the
        # zero row past the d n entries
        self.slot_entry = np.full(self.slots, degree * n)
        real = ~pad
        self.slot_entry[self.bit_slots[real]] = np.flatnonzero(real)
        # bit_slots with padding entries at slot 0, which _padded overwrites
        self.bit_entries = np.where(pad, 0, self.bit_slots)
        # a bit of degree k flips its estimate on at least k // 2 + 1 of
        # its k disagreeing checks, so with its d - k padding entries on
        # at least d + 1 - k // 2 of d: bits of one such threshold vote
        # together, all of them if they can
        thresholds = degree + 1 - self.bit_deg // 2
        groups = sorted(set(thresholds[several].tolist()))
        if len(groups) == 1:
            self.votes = [(None, groups[0])]
        else:
            self.votes = [(np.flatnonzero(several & (thresholds == t)), t) for t in groups]

    def _lanes(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lanes = -(-len(labels) // _WORD_BITS)
        padded = np.zeros(lanes * _WORD_BITS, dtype=labels.dtype)
        padded[:len(labels)] = labels
        return padded.reshape(lanes, _WORD_BITS).T, _pack(np.ones(len(labels), dtype=bool))

    def _hand_out(self, finished, done, labels, iterations, est):
        rows = _unpack(finished).view(bool)
        # unpacked a few lanes at a time: each chunk is at most ~4 MB of
        # uint8 words, whatever n
        chunk = max(1, (1 << 16) // max(self.n, 1))
        words = [
            _unpack(est[:, lo:lo + chunk])[rows[lo * _WORD_BITS:(lo + chunk) * _WORD_BITS]]
            for lo in range(0, est.shape[1], chunk)
        ]
        return (
            labels.T.ravel()[rows],
            words[0] if len(words) == 1 else np.concatenate(words),
            np.repeat(iterations, _WORD_BITS)[rows],
            _unpack(done).view(bool)[rows],
        )

    def _zero_syndrome(self, est: np.ndarray) -> np.ndarray:
        """Bit r of lane l set when row r's estimate satisfies every check:
        an XOR over each check's slots, then an OR over the checks."""
        bits = est.take(self.slot_bit, axis=0)
        if len(self.pad_slots):
            bits[self.pad_slots] = 0
        parity = np.bitwise_xor.reduce(bits.reshape(*self.view, est.shape[-1]), axis=0)
        return ~np.bitwise_or.reduce(parity, axis=0)

    def _start(self, y: np.ndarray):
        """Hard-decision words, every entry 0 or 1: the estimate is the word
        itself.  The state is that of checks echoing the channel: no check
        disagrees, so the first step sends the received bits."""
        bits = y.astype(bool)
        if (bits != y).any():
            raise ValueError("Gallager A input must be hard decisions, every entry 0 or 1")
        y = _pack(bits)
        disagree = np.zeros(self.bit_slots.shape + y.shape[1:], dtype=np.uint64)
        return y, (y, self._padded(disagree))

    def _step(self, y: np.ndarray, disagree: np.ndarray):
        """One iteration from the received lanes and the last iteration's
        disagreeing checks, (d, n, L) in the bit view.  Each temporary is
        dropped once the next is made: at n = 5000 one is ~5 MB a plane."""
        degree, n, lanes = disagree.shape
        # bit-to-check messages in the bit view, then a zero row that every
        # padding slot reads: a bit flips what it sends a check when every
        # other check disagrees with it
        sent = np.empty((degree * n + 1, lanes), dtype=np.uint64)
        sent[-1] = 0
        in_bit_view = _leave_one_out_ands(disagree, out=sent[:-1].reshape(disagree.shape))
        in_bit_view ^= y
        # in the check view, each check sends a slot the XOR of the others
        heard = sent.take(self.slot_entry, axis=0).reshape(*self.view, lanes)
        del sent, in_bit_view
        heard ^= np.bitwise_xor.reduce(heard, axis=0)
        disagree = heard.reshape(self.slots, lanes).take(self.bit_entries, axis=0)
        del heard
        disagree ^= y
        disagree = self._padded(disagree)
        flips = np.zeros_like(y)
        for bits, t in self.votes:
            if bits is None:
                flips = _at_least(disagree, t)
            else:
                flips[bits] = _at_least(disagree[:, bits], t)
        return y ^ flips, (y, disagree)

    def _padded(self, disagree: np.ndarray) -> np.ndarray:
        """``disagree`` with every bit-view padding entry set as the class
        docstring says."""
        if len(self.pad_ones) or len(self.pad_zeros):
            degree, n, lanes = disagree.shape
            flat = disagree.reshape(degree * n, lanes)
            flat[self.pad_ones] = _ALL_ONES
            flat[self.pad_zeros] = 0
        return disagree


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
        # a zero last row, which every spare bit-view entry reads
        c2b = np.empty((self.slots + 1, th.shape[1]))
        c2b[self.slots] = 0
        np.clip(products, -LLR_CLAMP, LLR_CLAMP, out=c2b[:self.slots].reshape(products.shape))
        total = c2b.take(self.bit_slots[0], axis=0)
        for slots in self.bit_slots[1:]:
            total += c2b.take(slots, axis=0)
        total += llr
        return (total < 0).astype(np.uint8), (llr, total, c2b)
