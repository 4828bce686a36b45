"""Monte-Carlo decoding experiments with reproducible per-trial seeding.

Every trial transmits the all-zero codeword and draws its noise from an
independent generator seeded by (master_seed, trial_index), so results
depend only on the seed and trial count, never on how trials are split
across workers.  Aggregation sums integers, which makes the reduction
order irrelevant and the output byte-stable.

Each worker decodes its share of a sweep as one block-major stream of
rows through one ``decode_stream``.  A sweep's configs share one channel
type and differ only in its parameter, so trial i draws the same noise at
every point: its span is cut into trial blocks, each drawn once, uniforms
for BSC and normals for AWGN, trial i's row from its own generator as
above, and every config in turn applies its own rho or sigma to that one
draw (``channel.apply_noise``).  This module is the one place that draws
a sweep's noise.  ``BLOCK_ELEMENTS`` (2^15) bounds what enters the stream
at once, summed over the configs (``_block_shape``): a trial block holds
2^15 // (configs x n) trials, but at least 64, one Gallager A lane, and
its configs' hard words go, as many configs at a time as fit the budget
(at least one), into one (configs x rows, n) array, whose received
weights one syndrome call takes, and which enters the stream as one
(labels, y) pair, config after config.  So a 3-point sweep yields one
block of 3 x 455 trials on 48A and of 3 x 121 on 90A, and a sweep at the
5000-bit vertex cap one block of 64 trials per config, however many
points it has: no yielded block holds more than max(64 n, 2^15)
elements.  ``decode_stream`` admits a block's rows, cut at a lane
boundary, into whatever room is left under its lane budget
(``decoders.IN_FLIGHT``, 128, for n up to 2048), and the rest waits for
a later pass, so a row that runs to the iteration cap shares its
iterations with fresh rows, those of the next config included, and no
more than the budget is ever in flight.  A lane is one row for
sum-product and one uint64 word of up to 64 rows for Gallager A.  Each
row goes in labelled with its config's index, so a finished row's errors
and flags go into that config's integer sums: the order in which rows
finish cannot change a number.
The working set is at most 128 lanes of decoder state and step
temporaries, one trial block of noise, and the decoder input of the
block being admitted and of the next one while it is built.  For
sum-product that is 128 rows of state; for Gallager A up to 8192 rows at
1 + d bits of state per bit and row: all of ``simulate-ga-w2``'s 6000
rows at once on 48A.  Past n = 2048 the budget shrinks as 1/n
(``decoders.LANE_WORDS``): 52 lanes at the vertex cap, where README's
cap table gives the peak RSS of 10,000 Gallager A trials.  The element
budget was read from in-process sweeps on a 2-CPU machine (min of 15
runs, 3 rounds): from 2^12 to 2^15 elements a block, ``simulate-ga-w2``'s
sweep took 24.2-25.9, 21.5-22.0, 20.4-20.8 and 19.6-20.3 ms and
``simulate-sp``'s 31.6-31.9, 30.5-31.1, 27.7-27.9 and 27.2-28.0 ms,
while the sweep's traced peak grew from 0.55 to 0.63 MB on 48A and from
0.63 to 0.98 MB on 90A; 2^15, the top of that range, was the fastest
size for both.

``trial_rng`` is the seeding contract, but building its generator takes
~11 us (in process, min of 5 x 20,000 calls), against ~1.3 us for a
45-bit BSC draw (2-CPU machine), most of it in ``SeedSequence``
hashing.  That hash is a fixed sequence of uint32 steps whose constants
do not depend on the seed, so ``_pcg64_seeds`` runs numpy's steps in
numpy's order on whole rows of words, one word per trial, for up to
``_SEED_CHUNK`` (1024) trials per pass of ``_seed_chunks`` (~0.17 us a
trial).  Each trial's 4 words then seed a new ``PCG64`` through
numpy's own routine, the one ``default_rng`` runs: ``_trial_seed_type``
is a minimal ``ISeedSequence`` that hands them over.  So every trial
has a generator of its own, equal to ``trial_rng``'s bit for bit.
``_decoder_inputs`` builds them in one loop that walks a noise block's
rows and the seed chunks' rows together, with the classes, the seed
type and the draw method bound once, so a row pays for its generator
and its draw and for no generator ``yield``, bound-method lookup or
cached call.  On ``simulate-ga-w2``'s inputs (48A, a 24-value normal
draw per trial) that loop takes ~2.5 us a trial against ~2.8 us through
``_trial_generators``, and on ``simulate-sp``'s (90A, 45 uniforms)
~2.3 against ~2.6 us (2-CPU machine, min of 5 x 5 passes), paid once per
trial, however many points the sweep has.

``run_experiments`` runs a sweep: configs that differ only in their
channel's parameter, as ``simulate`` builds one per ``--param`` value.
Their one trial range splits into ``min(worker_count, trials, usable
CPUs, 1 + bit-decodes // 1,152,000)`` spans, one task per worker, and worker w
decodes span w of every config; the usable CPUs are the process's
affinity mask where the OS has one, not the host's count, and the
bit-decodes are trials x configs x n, for either decoder.  So a
``simulate`` call starts and joins its processes once, and each worker
builds one decoder and ends one stream tail, not one per channel
parameter.  Results do not depend on the worker count, so
``worker_count`` is a ceiling, and a process past the first starts only
when the sweep's work pays for its fork.  1,152,000 bit-decodes per
extra process is the smallest measured size from which two processes beat one
for both decoders on a 2-CPU machine.  README's Python API section holds
the table it was read from.  With one span the task runs in-process.
``run_experiment`` is the one-config case.

numpy 2.x loads ``numpy.random`` lazily, and so does this module: the
seed type is built on the first draw, since subclassing ``ISeedSequence``
loads it.  Every pool worker needs it, so the pool branch imports it in
the parent just before the pool starts: under the ``fork`` start method
(Linux's default through Python 3.13) the workers inherit it instead of
each importing its 19 modules (~17 ms) again on every sweep.  That pays
in a process that runs more than one pooled sweep; a one-shot CLI call
only moves the import from the children, where it ran in parallel, to
the parent, and its wall time does not change.  A process that imports
this module and draws nothing, such as perfbench's ``catalog`` run,
never loads ``numpy.random`` (~6 MB of RSS).  This module is imported
only by ``simulate`` and ``variance``: ``catalog``, ``export-alist`` and
``extend`` never load numpy, and ``analyze`` never loads
``numpy.random``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .channel import (
    BscChannel,
    ChannelModel,
    ParityChecks,
    apply_noise,
    llr_from_awgn,
    llr_from_bsc,
    require_bit_matrix,
    syndrome,
    transmit,
)
from .decoders import GallagerADecoder, SumProductDecoder
from .gf2 import BitMatrix
from .sweep import DECODER_NAMES, MAX_ITERATIONS, is_integer

__all__ = [
    "DECODERS",
    "RNG_FAMILY",
    "ExperimentConfig",
    "ExperimentResult",
    "SyndromeStats",
    "trial_rng",
    "run_experiment",
    "run_experiments",
    "syndrome_statistics",
]

RNG_FAMILY = "numpy PCG64 seeded via SeedSequence((master_seed, trial_index))"

# each --decoder name and the class that decodes under it, in DECODER_NAMES' order
DECODERS = dict(zip(DECODER_NAMES, (GallagerADecoder, SumProductDecoder)))

# decoder-input elements (configs x trials x n) per block that
# _decoder_inputs yields, past a floor of one 64-row lane (_block_shape)
BLOCK_ELEMENTS = 1 << 15

# noise elements (rows x columns) drawn per block by syndrome_statistics
_SAMPLE_ELEMENTS = 1 << 20

# trials whose PCG64 seeds _seed_chunks derives in one numpy pass
_SEED_CHUNK = 1024

# finished rows whose counts _run_share holds before one np.add.at adds
# them to its table: ~17 bytes a row
_TALLY_ROWS = 1 << 12

# bit-decodes (trials x configs x n) of a sweep per process past the first:
# a second process pays from about this much work, one rule for both
# decoders (_pool_size)
_WORK_PER_EXTRA_PROCESS = 1_152_000


# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial; the split contract of the repo.

    ``run_experiments`` does not call it: ``_trial_generators`` derives the
    same PCG64 seeds in bulk and builds each trial's generator from them,
    and the tests check those generators against this one.
    """
    return np.random.default_rng((master_seed, trial_index))


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence
    splits it: 0 gives one zero word."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for each column e of a
    (words, B) uint32 entropy array, as a C-contiguous (B, 4) uint64
    array: row b is column b's seed.

    numpy's steps in numpy's order, each on a whole row of B words: hash
    the first four entropy words into a pool of four, zeros past the
    entropy's end; mix each pool word into the other three; mix every
    further entropy word into all four; hash the pool twice round for the
    eight uint32 words of state.  Every hash XORs in the running hash
    constant and multiplies by the next one.  The constant is a Python
    int and every operand a row, so uint32 products wrap as numpy's do
    and no overflow warning fires.
    """
    const = _INIT_A

    def hashed(value: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    def mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashed(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mixed(pool[dst], hashed(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mixed(pool[dst], hashed(word))
    const = _INIT_B
    state = np.stack([hashed(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    # as numpy does: the eight words as four little-endian uint64
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _trial_seed_type() -> type:
    """The ``ISeedSequence`` that hands numpy's ``PCG64`` one trial's seed:
    the 4 uint64 words its ``SeedSequence`` would generate, one row of
    ``_pcg64_seeds``.  ``PCG64`` asks for exactly these and reads the
    returned buffer raw, so the words are a C-contiguous uint64 array, and
    any other request is refused.

    Built on first use: subclassing ``ISeedSequence`` loads
    ``numpy.random`` (~6 MB of RSS), which a process that imports this
    module but draws nothing never needs.
    """
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 passes the type itself, and testing for it first spares
            # building a dtype on every trial: ~0.11 us a call, not ~0.26
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError(f"a trial seed is 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
            return self.words

    return TrialSeed


def _seed_chunks(master_seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Yield the PCG64 seeds of trials [start, stop) in order, chunk by
    chunk, each a (B, 4) uint64 array of ``_pcg64_seeds``: one row a
    trial, the 4 words its ``trial_rng`` generator is seeded with.

    Seeds are derived ``_SEED_CHUNK`` trials at a time.  Entropy is the
    seed's words followed by the index's; a chunk stops at each multiple of
    2^32, so all its indices share every word but the lowest and the
    entropy array stays rectangular.
    """
    seed_words = _words(master_seed)
    lo = start
    while lo < stop:
        hi = min(stop, lo + _SEED_CHUNK, ((lo >> 32) + 1) << 32)
        low = lo & _MASK32
        columns = [np.full(hi - lo, w, np.uint32) for w in seed_words]
        columns.append(np.arange(low, low + hi - lo, dtype=np.uint32))
        columns += [np.full(hi - lo, w, np.uint32) for w in _words(lo)[1:]]
        yield _pcg64_seeds(np.vstack(columns))
        lo = hi


def _trial_generators(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Yield, for each trial i in [start, stop), a new generator equal to
    ``trial_rng(master_seed, i)`` bit for bit.  Each is independent, so
    earlier ones may be held while later ones are taken.  ``PCG64`` seeds
    itself from each trial's row of ``_seed_chunks`` (``_trial_seed_type``)
    as ``default_rng`` does.  ``_decoder_inputs`` builds the same
    generators in its own loop over the same chunks.
    """
    seed_type = _trial_seed_type()
    for seeds in _seed_chunks(master_seed, start, stop):
        for words in seeds:
            yield np.random.Generator(np.random.PCG64(seed_type(words)))


@dataclass(frozen=True)
class ExperimentConfig:
    """One decoding experiment: parity check, channel, decoder, budget.

    ``channel`` is a ``BscChannel`` or an ``AwgnChannel``.  ``trials``,
    ``master_seed``, ``max_iterations`` and ``worker_count`` are Python or
    numpy integers (``sweep.is_integer``).
    ``max_iterations`` may be 0 to measure the raw channel (hard decisions
    only), and at most ``MAX_ITERATIONS``.  ``worker_count`` > 1 splits
    trials over processes without changing any number in the result; it is
    capped at the trial count, the CPUs this process may run on and what
    the sweep's work pays for (``_pool_size``).
    """

    h: BitMatrix
    channel: ChannelModel
    decoder: str
    trials: int
    master_seed: int
    max_iterations: int = 50
    worker_count: int = 1

    def __post_init__(self) -> None:
        require_bit_matrix(self.h)
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}, expected {tuple(DECODERS)}")
        if not isinstance(self.channel, ChannelModel):
            raise ValueError(f"channel must be a BscChannel or an AwgnChannel, got {self.channel!r}")
        for name in ("trials", "master_seed", "max_iterations", "worker_count"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must be in [0, {MAX_ITERATIONS}], got {self.max_iterations}")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.decoder == "sum-product" and isinstance(self.channel, BscChannel) and self.channel.rho == 0.5:
            # every LLR would be 0, which the decoder reads as the all-zero word sent
            raise ValueError("sum-product cannot decode a BSC at rho = 1/2: every channel LLR is 0")


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate counts and rates over all trials.

    ``detected`` counts trials whose decoder output still had a non-zero
    syndrome (the iteration cap was hit, or ``max_iterations`` is 0);
    ``undetected`` counts trials that reached a zero syndrome on a nonzero
    word, i.e. another codeword.
    """

    trials: int
    bit_errors: int
    word_errors: int
    ber: float
    fer: float
    syndrome_mean: float
    syndrome_variance: float
    detected: int
    undetected: int


def _block_shape(n: int, configs: int) -> tuple[int, int]:
    """(trials, configs) of one block a sweep of ``configs`` configs on
    n-bit words yields: ``BLOCK_ELEMENTS`` // (configs x n) trials, but at
    least one Gallager A lane of 64, and as many configs as keep its
    decoder input within ``BLOCK_ELEMENTS``, but at least one.  So a block
    never holds more than max(64 n, ``BLOCK_ELEMENTS``) elements, however
    many configs the sweep has."""
    n = max(n, 1)
    rows = max(64, BLOCK_ELEMENTS // (configs * n))
    return rows, max(1, BLOCK_ELEMENTS // (rows * n))


def _decoder_inputs(cfgs: Sequence[ExperimentConfig], start: int, stop: int, checks: ParityChecks, moments: np.ndarray):
    """Yield (labels, y) pairs that hold every config's decoder input for
    trials [start, stop), in blocks of ``_block_shape`` trials and configs:
    for each block of trials, config after config, each row labelled with
    its config's index.  Each config's sum w and sum w^2 of received
    syndrome weights go into its row of ``moments``.

    The sweep has one channel type, so a block's noise is drawn once, row
    r from a new generator of trial lo + r, and each config applies its
    own rho or sigma to that one draw.  The row loop walks the block's rows
    and the rows of ``_seed_chunks`` together, with the draw method and the
    classes it calls bound once: each row builds a generator of its own as
    ``_trial_generators`` does and draws into its row of the block.  One
    ``syndrome`` call per yielded block then takes its configs' hard words.
    """
    first = cfgs[0]
    bsc = isinstance(first.channel, BscChannel)
    hard_only = first.decoder == "gallager-a"
    n = first.h.ncols
    rows, group = _block_shape(n, len(cfgs))
    Generator, PCG64, seed_type = np.random.Generator, np.random.PCG64, _trial_seed_type()
    draw = Generator.random if bsc else Generator.standard_normal
    chunks = _seed_chunks(first.master_seed, start, stop)
    seeds = np.empty((0, 4), dtype=np.uint64)  # the current chunk's rows not yet drawn
    zero_block = np.zeros((rows, n), dtype=np.uint8)
    for lo in range(start, stop, rows):
        sent = zero_block[:stop - lo]
        size = len(sent)
        noise = np.empty(sent.shape)
        drawn = 0
        while drawn < size:
            if not len(seeds):
                seeds = next(chunks)
            for words, row in zip(seeds, noise[drawn:]):
                draw(Generator(PCG64(seed_type(words))), out=row)
            taken = min(len(seeds), size - drawn)
            seeds, drawn = seeds[taken:], drawn + taken
        for c0 in range(0, len(cfgs), group):
            part = cfgs[c0:c0 + group]
            hard = np.empty((len(part) * size, n), dtype=np.uint8)
            y = hard if hard_only else np.empty(hard.shape)
            for c, cfg in enumerate(part):
                at = slice(c * size, (c + 1) * size)
                received = apply_noise(sent, cfg.channel, noise)
                hard[at] = received if bsc else received < 0
                if hard_only:
                    continue
                if bsc:
                    y[at] = llr_from_bsc(hard[at], cfg.channel.rho)
                else:
                    y[at] = llr_from_awgn(received, cfg.channel.sigma)
            del received
            if c0 + group >= len(cfgs):
                del noise  # so the stream's passes can reuse its memory
            _, w = syndrome(checks, hard)
            w = w.reshape(len(part), size)
            moments[c0:c0 + group] += np.stack((w.sum(axis=1), np.einsum("ij,ij->i", w, w)), axis=1)
            yield np.repeat(np.arange(c0, c0 + len(part)), size), y


def _run_share(cfgs: Sequence[ExperimentConfig], start: int, stop: int) -> np.ndarray:
    """Integer sums over trials [start, stop) of one sweep as a (configs, 6)
    int64 table, one row per config: bit errors, word errors, detected and
    undetected decoder failures, sum w and sum w^2.

    The configs decode as one block-major stream: each block of the span
    is drawn once and enters the stream in config order, as many configs'
    rows at once as ``_block_shape`` allows (``_decoder_inputs``), so one
    config's slow rows step alongside the fresh rows of the next.  Each
    hand-out's labels, per-row bit errors and zero-syndrome flags are held
    until ``_TALLY_ROWS`` rows are, then added to the table with one
    ``np.add.at``, and the rest once the stream ends.  Every sum is over
    integers, so neither the order in which rows finish nor where the
    tallies fall can change it.
    """
    first = cfgs[0]
    decoder = DECODERS[first.decoder](first.h)
    table = np.zeros((len(cfgs), 6), dtype=np.int64)
    held, held_rows = [], 0

    def tally():
        config, errs, syndrome_zero = (np.concatenate(parts) for parts in zip(*held))
        wrong = errs > 0
        np.add.at(table[:, :4], config, np.stack((errs, wrong, ~syndrome_zero, syndrome_zero & wrong), axis=1))
        held.clear()

    blocks = _decoder_inputs(cfgs, start, stop, decoder.checks, table[:, 4:])
    for config, words, _, syndrome_zero in decoder.decode_stream(blocks, max_iter=first.max_iterations):
        held.append((config, words.sum(axis=1, dtype=np.int64), syndrome_zero))
        held_rows += len(config)
        if held_rows >= _TALLY_ROWS:
            tally()
            held_rows = 0
    if held:
        tally()
    return table


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (``taskset`` or a container's cpuset can shrink it below the
    host's count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(worker_count: int, trials: int, bit_decodes: int) -> int:
    """Processes worth starting: never more than the trials, the CPUs this
    process may run on (``_usable_cpus``), or one plus one per
    ``_WORK_PER_EXTRA_PROCESS`` (1,152,000) of the sweep's ``bit_decodes``
    (trials x configs x n), whichever the decoder.  ``worker_count`` is
    only a ceiling.

    The constant is the crossover of one process against two, measured
    on a 2-CPU machine with 3-point sweeps as fresh ``simulate`` CLI
    calls, the path a user runs: it is the smallest measured size at
    which, and at every larger one, two processes won more than half of
    40 alternating pairs for both decoders (1152k: Gallager A 29 and
    sum-product 35 of 40; from 720k to 1008k Gallager A won 19 to 21).
    README's Python API section holds the table it was read from, and
    the lower in-process crossover for library callers.
    """
    return min(worker_count, trials, _usable_cpus(), 1 + bit_decodes // _WORK_PER_EXTRA_PROCESS)


def _aggregate(cfg: ExperimentConfig, row: list[int]) -> ExperimentResult:
    """One config's rates from its row of the summed share tables."""
    bit_errors, word_errors, detected, undetected, syn_sum, syn_sq = row
    t = cfg.trials
    mean = syn_sum / t
    variance = (syn_sq - syn_sum * syn_sum / t) / (t - 1) if t > 1 else 0.0
    return ExperimentResult(
        trials=t,
        bit_errors=bit_errors,
        word_errors=word_errors,
        ber=bit_errors / (t * cfg.h.ncols),
        fer=word_errors / t,
        syndrome_mean=mean,
        syndrome_variance=variance,
        detected=detected,
        undetected=undetected,
    )


def run_experiments(cfgs: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
    """Run a sweep, configs that differ only in their channel's parameter
    (one channel type), with one task per worker, and aggregate each
    config exactly.

    The shared trial range splits into ``_pool_size(worker_count, trials,
    bit_decodes)`` spans, and worker w decodes span w of every config as
    one stream (``_run_share``), so a sweep starts its processes once and
    each worker ends one stream tail, not one per point.  The k spans are
    [trials w // k, trials (w + 1) // k), none empty since k <= trials.
    With one span, which every sweep below 1,152,000 bit-decodes gets, that
    task runs in this process and no pool starts.  A pool's parent imports
    ``numpy.random`` first, so ``fork``ed workers inherit it rather than
    import it each.
    """
    if not cfgs:
        return []
    first = cfgs[0]
    kind = type(first.channel)
    if any(type(cfg.channel) is not kind or replace(cfg, channel=first.channel) != first for cfg in cfgs):
        raise ValueError("the configs of one sweep may differ only in their channel's parameter")
    trials = first.trials
    k = _pool_size(first.worker_count, trials, trials * len(cfgs) * first.h.ncols)
    spans = [(trials * w // k, trials * (w + 1) // k) for w in range(k)]
    if len(spans) == 1:
        table = _run_share(cfgs, *spans[0])
    else:
        # imported here so runs without a pool never load concurrent.futures,
        # logging or multiprocessing (~1.9 MB of RSS per CLI process)
        from concurrent.futures import ProcessPoolExecutor

        # every worker seeds from numpy.random, which numpy 2.x loads lazily:
        # loaded once here, it is inherited by fork-started workers, which
        # would otherwise each import its 19 modules (~17 ms) on every sweep
        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(_run_share, cfgs, start, stop) for start, stop in spans]
            table = sum(f.result() for f in futures)
    return [_aggregate(cfg, row) for cfg, row in zip(cfgs, table.tolist())]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials of one config (optionally across processes) and
    aggregate exactly: ``run_experiments([cfg])[0]``."""
    return run_experiments([cfg])[0]


@dataclass(frozen=True)
class SyndromeStats:
    """Empirical syndrome-weight moments with resampling standard errors."""

    trials: int
    mean: float
    mean_stderr: float
    variance: float
    variance_stderr: float


def syndrome_statistics(
    h: BitMatrix,
    rho: float,
    trials: int,
    master_seed: int,
    stream_index: int = 0,
) -> SyndromeStats:
    """Sample syndrome weights of BSC noise in bulk and summarize them.

    Noise comes from ``transmit`` on blocks of zero words, drawn from one
    stream per (master_seed, stream_index) pair, and each block's weights
    from one ``syndrome`` call against a table of H's checks built once.
    A block holds about ``_SAMPLE_ELEMENTS`` (2^20) noise draws, i.e.
    2^20 // n words, which bounds the float64 uniforms of one draw to
    8 MB whatever the trial count; larger blocks only raise peak memory.
    ``transmit`` draws row-major, so the uniforms, and hence the weights,
    are the same for every block size.
    The variance standard error comes from a multinomial bootstrap, 200
    rounds, of the observed weight histogram.
    """
    noise = BscChannel(rho)
    for name, value in (("trials", trials), ("master_seed", master_seed), ("stream_index", stream_index)):
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 2:
        raise ValueError("need at least two trials")
    if master_seed < 0 or stream_index < 0:
        raise ValueError(f"master_seed and stream_index must be non-negative, got {master_seed} and {stream_index}")
    checks = ParityChecks(h)
    m = h.nrows
    rng = np.random.default_rng((master_seed, stream_index, 0))
    counts = np.zeros(m + 1, dtype=np.int64)
    remaining = trials
    rows = min(trials, max(1, _SAMPLE_ELEMENTS // max(1, h.ncols)))
    zero_block = np.zeros((rows, h.ncols), dtype=np.uint8)
    while remaining:
        size = min(len(zero_block), remaining)
        _, weights = syndrome(checks, transmit(zero_block[:size], noise, rng))
        counts += np.bincount(weights, minlength=m + 1)
        remaining -= size
    values = np.arange(m + 1, dtype=np.float64)
    total = float(trials)
    mean = float(counts @ values) / total
    sum_sq = float(counts @ (values * values))
    variance = (sum_sq - total * mean * mean) / (total - 1.0)
    boot_rng = np.random.default_rng((master_seed, stream_index, 1))
    resampled = boot_rng.multinomial(trials, counts / total, size=200)
    boot_means = (resampled @ values) / total
    boot_sq = resampled @ (values * values)
    boot_vars = (boot_sq - total * boot_means**2) / (total - 1.0)
    return SyndromeStats(
        trials=trials,
        mean=mean,
        mean_stderr=float(np.sqrt(variance / total)),
        variance=variance,
        variance_stderr=float(np.std(boot_vars, ddof=1)),
    )
