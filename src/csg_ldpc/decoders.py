"""Hard-decision (Gallager A) and log-domain sum-product decoders.

One message-passing loop, ``_EdgeStructure.decode_stream``, decodes a
stream of (B, n) blocks of words in one set of numpy passes per
iteration; ``decode_block`` is its one-block case and ``decode`` the
B = 1 case of that.  The two decoders differ only in their update rule
and lanes: a start method checks a block, lays its rows and labels out in
lanes and gives the iteration-0 estimate and the state the rule carries,
as it stands before the first iteration, and a step method runs one
iteration from that state (Richardson & Urbanke,
*Modern Coding Theory*, 2008, ch. 2, flooding schedule).

The stream works in lanes.  A lane holds one row for sum-product, whose
messages are floats, and up to 64 rows for Gallager A, whose messages
are single bits: row r of a lane is bit r of a uint64 word, so each
bitwise numpy operation steps 64 rows.  The rows of one block fill its
lanes in order, and a partly filled last lane carries zero rows that no
one asked for.

The state is slot-major: each lane is a column.  Estimates, and
sum-product's channel and total LLRs, are (n, L) for L lanes.  Both
decoders keep their messages in one layout, the bit view: a (d, n, L)
array, d the largest bit degree, whose entry (k, j) holds the message on
bit j's k-th edge in ascending check order, so its d (n, L) blocks are
contiguous.  Each iteration also reads the same edges in the check view
of ``channel.ParityChecks``, the one incidence table of H: with m checks
of degree at most w, slot p * m + i (of S = w m) holds check i's p-th
bit, so an (S, L) array reshaped to (w, m, L) has one contiguous (m, L)
block per position.  Two tables connect the views: ``slot_entry`` gives
each slot's bit-view entry k n + j and ``bit_slots`` each entry's slot,
and every gather is a ``take`` along axis 0, a copy of whole contiguous
rows.  A check of lower degree than w has padding slots, and a bit of
lower degree than d padding entries.  There is one padding rule: a
padding slot reads entry 0, a padding entry reads slot 0, and the update
rule then overwrites either with the value that leaves that rule
unchanged.  No code of the catalog has either.  The zero syndrome test is
``ParityChecks.parity``, the routine ``channel.syndrome`` runs, on the
estimates as they are: bool rows or uint64 lanes.

The loop keeps every lane's labels, an integer for each row that the
caller hands in with its block, which of its rows are still live, and an
iteration count, shared by the rows of a lane since they are admitted
together.  Each pass it fills the room left under its lane budget with
the next rows of the stream, cut at a lane boundary, so a block wider
than that room waits in part for a later pass and no more than the
budget is ever in flight.  It then tests every lane's estimate for a zero
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

At the catalog's sizes a step costs numpy's per-call floor as much as
arithmetic: on 90A at 50 lanes, about half of sum-product's step is its
tanh and arctanh pair and the rest some twenty calls of a few us each
(2-CPU machine).  So a step makes no call that cannot change a bit: a
padding write runs only where there is padding, sum-product's clip into
(-1, 1) only where a check of 0 or 1 bits can reach 1, each leave-one-out
product is written where the next call reads it, and a bit's total is
one add a plane, in ``np.add.reduce``'s order and from its 0.0 start.

The lane budget is ``IN_FLIGHT`` (128) lanes, cut to ``LANE_WORDS // n``
for n above 2048: a lane's state and step temporaries grow with n (a
Gallager A lane carries (1 + d) n words and a sum-product lane (2 + d) n
floats), so lanes x n bounds the decoder's memory whatever n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import LLR_CLAMP, ParityChecks, padded_groups
from .gf2 import BitMatrix
from .sweep import is_integer

__all__ = ["DecodeResult", "GallagerADecoder", "SumProductDecoder"]

_ONE_MINUS = float(np.nextafter(1.0, 0.0))

# lanes a decode stream keeps in flight: each pass it admits the next
# rows of the stream, cut at a lane boundary, up to exactly this many.  A
# lane is one row for sum-product and up to 64 rows for Gallager A
IN_FLIGHT = 128

# lanes x n a stream keeps in flight, at least one lane: every n up to
# 2048 keeps IN_FLIGHT lanes, and the 5000-bit vertex cap keeps 52.  A
# stream reads both constants when it starts
LANE_WORDS = 128 * 2048

# rows of one Gallager A lane: the bits of a uint64 word
_WORD_BITS = 64
_ALL_ONES = np.uint64(2**64 - 1)


def _leave_one_out_products(x: np.ndarray) -> np.ndarray:
    """out[p] is the product of x[q] over every q != p along axis 0, taken
    left to right (the empty product is 1).  Each one starts from the
    product of the slots before p, shared with the next, so a degree-d
    check takes about d^2 / 2 multiplies rather than d (d - 1).  Every
    multiply writes into ``out``: out[p] holds that prefix until its own
    product replaces it, so no product is copied."""
    out = np.empty_like(x)
    degree = len(x)
    for p in range(degree):
        row = out[p]
        # x[0] * ... * x[p - 1], from p = 2 on already in out[p]
        product = None if p == 0 else x[0] if p == 1 else row
        if 1 <= p < degree - 1:
            np.multiply(product, x[p], out=out[p + 1])
        for q in range(p + 1, degree):
            product = x[q] if product is None else np.multiply(product, x[q], out=row)
        if product is not row:
            row[...] = 1.0 if product is None else product
    return out


def _leave_one_out_ands(x: np.ndarray) -> np.ndarray:
    """out[p] is the AND of x[q] over every q != p along axis 0, all ones
    where there is none: ``_leave_one_out_products``' shared prefixes, and
    since an AND, unlike a float product, is exact in any order, shared
    suffixes too.  About 3d operations for d planes, 3 for d = 3."""
    out = np.empty_like(x)
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
    """H's edges in the two views of the module docstring.  ``view`` is
    the check view's (w, m) and ``slots`` its S.  ``bit_slots`` is the
    (d, n) table of each bit-view entry's slot and ``slot_entry`` the (S,)
    table of each slot's entry k n + j.  Padding slots (``pad_slots``)
    read entry 0 and padding entries (the (d, n) mask ``bit_pad``) slot 0;
    a step runs only while some check of H has a bit, so both exist.
    ``has_bit_pad`` tells the steps whether to overwrite any entry at all:
    a masked write that selects nothing still costs ~3 us.

    Subclasses supply the update rule and the lane format, whose
    ``_LANE_ROWS`` is the rows a lane holds.
    ``_start(labels, y)`` takes a block's labels and (B, n) words and
    returns its lanes: the labels by lane, (rows of a lane, lanes), the
    live-row masks, the iteration-0 estimate and the state arrays, each
    with one column per lane.  ``_step(*arrays)`` returns the next estimate
    and arrays; the first step is no different from any other.
    ``_hand_out`` gives the finished rows of some lanes, one by one.  Here
    a lane is one row, and an estimate and a mask are bools."""

    _LANE_ROWS = 1

    def __init__(self, h: BitMatrix):
        self.checks = ParityChecks(h)
        self.n = h.ncols
        columns = self.checks.columns
        self.view = columns.shape
        self.slots = columns.size
        real = columns < self.n
        self.pad_slots = np.flatnonzero(~real)
        # every edge, in ascending check order
        check, position = np.nonzero(real.T)
        bits = columns[position, check]
        self.bit_deg = np.bincount(bits, minlength=self.n)
        table = padded_groups(bits, position * self.view[1] + check, self.n, fill=0)
        self.bit_slots = np.ascontiguousarray(table.T)
        self.bit_pad = np.arange(len(self.bit_slots))[:, None] >= self.bit_deg
        self.has_bit_pad = bool(self.bit_pad.any())
        self.slot_entry = np.zeros(self.slots, dtype=np.intp)
        self.slot_entry[self.bit_slots[~self.bit_pad]] = np.flatnonzero(~self.bit_pad)

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

        Before each iteration the stream admits the next rows, cut at a
        lane boundary, until its lane budget (the module docstring) is
        full, so rows that decode slowly share their iterations with fresh
        ones and a block wider than the room left waits in part for a
        later pass; each block is read only when its first rows are
        admitted.  Each pass that finishes rows yields (labels, words,
        iterations, syndrome_zero): the rows' labels and, for each, what
        ``decode`` returns for it, words as a (k, n) array.  ``max_iter``
        must be a non-negative integer, Python or numpy; anything else
        raises ``ValueError`` before any block is read.
        """
        # a row that never reaches a zero syndrome stops only at
        # iterations == max_iter, which a cap of -1 or 2.5 never meets
        if not is_integer(max_iter) or max_iter < 0:
            raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
        blocks = iter(blocks)
        budget = min(IN_FLIGHT, max(1, LANE_WORDS // max(self.n, 1)))
        # one array per quantity, each lane at the same place along the
        # last axis: labels (rows of a lane, lanes), live-row masks,
        # iteration counts, estimates, then the carried state
        state = None
        # (labels, y) of the rows of the last block read not yet admitted
        waiting = None
        while True:
            # the rows admitted on one pass join the state in one copy
            parts = [] if state is None else [state]
            active = 0 if state is None else len(state[1])
            while active < budget:
                if waiting is None:
                    waiting = next(blocks, None)
                    if waiting is None:
                        break
                    waiting = self._checked(*waiting)
                # as many lanes as the budget has room for; the rest waits
                room = (budget - active) * self._LANE_ROWS
                labels, live, *lanes = self._start(*(a[:room] for a in waiting))
                waiting = tuple(a[room:] for a in waiting) if room < len(waiting[1]) else None
                parts.append((labels, live, np.zeros(len(live), dtype=np.int64), *lanes))
                active += len(live)
            if len(parts) > 1:
                state = tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
            elif parts:
                state = parts[0]
            del parts  # so the admitted blocks' own arrays are freed
            if state is None or not len(state[1]):
                return
            labels, live, iterations, est, *carried = state
            del state  # so compaction frees the uncompacted arrays before the step
            # each lane's mask of rows whose estimate satisfies every check
            done = ~np.bitwise_or.reduce(self.checks.parity(est), axis=0)
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

    def _hand_out(self, finished, done, labels, iterations, est):
        """(labels, words, iterations, syndrome_zero) of the ``finished``
        rows of some lanes, given those lanes' masks, labels, counts and
        estimates."""
        return labels[0], est.T.view(np.uint8), iterations, done


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
    fills its padding entries with "disagree", which changes neither rule
    once its threshold counts them; one of degree 0 or 1 fills them with
    "agree", so it never flips.  The check XOR fills padding slots with 0.
    The start state is all zeros, padding entries included: a first step
    reads a padding entry only in the leave-one-out AND of a bit's real
    entry, which for a bit of degree 2 or more also takes another real
    entry, 0, so only the fill of lower degrees counts, and that is 0.
    """

    _LANE_ROWS = _WORD_BITS

    def __init__(self, h: BitMatrix):
        super().__init__(h)
        several = self.bit_deg >= 2
        # the fill of each padding entry, in the order bit_pad selects them
        self.pad_fill = np.where(several, _ALL_ONES, np.uint64(0))[np.nonzero(self.bit_pad)[1], None]
        # a bit of degree k flips its estimate when more than half of its
        # k + 1 inputs disagree, that is on at least ceil(k / 2) + 1 =
        # k + 1 - k // 2 of its k checks (all 3 for k = 3), so with its
        # d - k padding entries on at least d + 1 - k // 2 of d: bits of
        # one such threshold vote together, all of them if they can
        thresholds = len(self.bit_slots) + 1 - self.bit_deg // 2
        groups = sorted(set(thresholds[several].tolist()))
        self.votes = [(np.flatnonzero(several & (thresholds == t)) if len(groups) > 1 else slice(None), t)
                      for t in groups]

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

    def _start(self, labels: np.ndarray, y: np.ndarray):
        """Hard-decision words, every entry 0 or 1, 64 rows to a lane: a
        last lane's missing rows take label 0 and are never live.  The
        estimate is the word itself.  The state is that of checks echoing
        the channel: no check disagrees, so the first step sends the
        received bits."""
        bits = y.astype(bool)
        if (bits != y).any():
            raise ValueError("Gallager A input must be hard decisions, every entry 0 or 1")
        y = _pack(bits)
        by_lane = np.zeros((y.shape[1], _WORD_BITS), dtype=labels.dtype)
        by_lane.flat[:len(labels)] = labels
        live = _pack(np.ones(len(labels), dtype=bool))
        return by_lane.T, live, y, y, np.zeros(self.bit_slots.shape + y.shape[1:], dtype=np.uint64)

    def _step(self, y: np.ndarray, disagree: np.ndarray):
        """One iteration from the received lanes and the last iteration's
        disagreeing checks, (d, n, L) in the bit view.  Each temporary is
        dropped once the next is made: at n = 5000 one is ~5 MB a plane."""
        lanes = y.shape[1]
        # bit-to-check messages: a bit flips what it sends a check when
        # every other check disagrees with it
        sent = _leave_one_out_ands(disagree)
        sent ^= y
        # in the check view, each check sends a slot the XOR of the others
        heard = sent.reshape(-1, lanes).take(self.slot_entry, axis=0)
        del sent
        if len(self.pad_slots):
            heard[self.pad_slots] = 0
        heard = heard.reshape(*self.view, lanes)
        heard ^= np.bitwise_xor.reduce(heard, axis=0)
        disagree = heard.reshape(self.slots, lanes).take(self.bit_slots, axis=0)
        del heard
        disagree ^= y
        if self.has_bit_pad:
            disagree[self.bit_pad] = self.pad_fill
        flips = np.zeros_like(y)
        for bits, t in self.votes:
            flips[bits] = _at_least(disagree[:, bits], t)
        return y ^ flips, (y, disagree)


class SumProductDecoder(_EdgeStructure):
    """Log-domain belief propagation with the tanh product rule.

    Check messages are 2 atanh(prod tanh(m/2)) over the other edges,
    messages are clamped to +-30, and a total LLR of exactly zero decodes
    to bit 0.  Early exit on zero syndrome.

    A product of tanh factors reaches arctanh's pole at 1 only in a check
    of 0 or 1 bits, where a slot's product can be of padding alone
    (exactly 1.0): every factor of a real bit has |tanh(m/2)| <= tanh(15)
    < 1 - 2^-53, and a product with other factors of magnitude at most 1
    never grows.  So products are clipped into (-1, 1) only when H has
    such a check (``has_short_check``), and no catalog code has one.
    """

    def __init__(self, h: BitMatrix):
        super().__init__(h)
        # only a check of 0 or 1 bits can send a product of 1.0 (the class docstring)
        self.has_short_check = bool(((self.checks.columns < self.n).sum(axis=0) < 2).any())

    def _start(self, labels: np.ndarray, llr: np.ndarray):
        """Channel LLRs, which must be finite, one row to a lane: the
        estimate is their sign.  With every check message still zero, the
        first step sends the channel LLRs."""
        llr = np.ascontiguousarray(llr.T, dtype=np.float64)
        if not np.all(np.isfinite(llr)):
            raise ValueError("LLR input must be finite, clamp infinities first")
        c2b = np.zeros(self.bit_slots.shape + llr.shape[1:])
        return labels[None], np.ones(len(labels), dtype=bool), llr < 0, llr, llr, c2b

    def _step(self, llr: np.ndarray, total: np.ndarray, c2b: np.ndarray):
        """One iteration from the last iteration's (total, c2b), c2b (d, n,
        L) in the bit view.  A bit's incoming messages add in ascending
        check order, then its channel LLR: ``np.add.reduce``'s order along
        axis 0, one add a plane without its per-call setup."""
        lanes = llr.shape[1]
        # bit-to-check messages, written over the check messages they replace
        b2c = np.subtract(total, c2b, out=c2b)
        np.clip(b2c, -LLR_CLAMP, LLR_CLAMP, out=b2c)
        b2c *= 0.5
        np.tanh(b2c, out=b2c)
        th = b2c.reshape(-1, lanes).take(self.slot_entry, axis=0)
        if len(self.pad_slots):
            th[self.pad_slots] = 1.0
        products = _leave_one_out_products(th.reshape(*self.view, lanes))
        del th
        if self.has_short_check:
            np.clip(products, -_ONE_MINUS, _ONE_MINUS, out=products)
        np.arctanh(products, out=products)
        products *= 2.0
        np.clip(products, -LLR_CLAMP, LLR_CLAMP, out=products)
        c2b = products.reshape(self.slots, lanes).take(self.bit_slots, axis=0)
        del products
        if self.has_bit_pad:
            c2b[self.bit_pad] = 0.0
        # 0.0 first, as np.add.reduce starts, so planes of -0.0 sum to +0.0
        total = c2b[0] + 0.0
        for plane in c2b[1:]:
            total += plane
        total += llr
        return total < 0, (llr, total, c2b)
