"""Monte-Carlo decoding experiments with reproducible per-trial seeding.

Every trial transmits the all-zero codeword and draws its noise from an
independent generator seeded by (master_seed, trial_index), so results
depend only on the seed and trial count, never on how trials are split
across workers.  Aggregation sums integers, which makes the reduction
order irrelevant and the output byte-stable.

Each worker decodes its share of a sweep as one block-major stream of
rows through one ``decode_stream``.  Its span is cut into blocks of
``BLOCK_ROWS`` (64) trials.  A sweep's configs share one channel
type and differ only in its parameter, so trial i draws the same noise at
every point: each block is drawn once, uniforms for BSC and normals for
AWGN, trial i's row from its own generator as above, and every config in
turn applies its own rho or sigma to that one draw
(``channel.apply_noise``) and feeds the block to the stream.  This module
is the one place that draws a sweep's noise.  One syndrome call per
config takes the block's received weights and one conversion its LLRs.
``decode_stream`` takes a new block whenever fewer than
``decoders.IN_FLIGHT`` (128) lanes are still decoding, so a row that runs
to the iteration cap shares its iterations with fresh rows, those of the
next config included, rather than holding a whole block's pass to a few
rows.  A lane is one row for sum-product and one uint64 word of up to 64
rows for Gallager A, so a Gallager A block is one lane.  Each row goes in
labelled with its config's index, so a finished row's errors and flags go
into that config's integer sums: the order in which rows finish cannot
change a number.
The noise block need not match the in-flight count: the working set is
at most 191 active lanes of decoder state and step temporaries plus one
block of noise.  For sum-product that is 191 rows; on 90A sweeps,
128-trial blocks cost ~1.6% more peak RSS and did not make them
measurably faster.  For Gallager A it is 128 lanes, up to 8192 rows at
1 + d bits of state per bit and row: all of ``simulate-ga-w2``'s 6000
rows at once on 48A, and ~150 MB of peak RSS for 10,000 trials at the
5000-bit vertex cap.

``trial_rng`` is the seeding contract, but building its generator takes
~20 us, against ~1.3 us for a 45-bit BSC draw (2-CPU machine), nearly
all of it in ``SeedSequence`` hashing and ``PCG64`` seeding.  Both are
fixed integer recurrences, so ``_trial_generators`` runs them in numpy
for up to ``_SEED_CHUNK`` (1024) trials per pass and sets each trial's
PCG64 state on one reused generator.  The states, and so the draws, equal
``trial_rng``'s bit for bit, and ``_decoder_inputs`` still makes every
draw: it takes the generators one row at a time and never one past the
block.  On ``simulate-ga-w2``'s inputs (48A, a 24-value normal draw per
trial, 2-CPU machine), seeding plus draw takes ~7.5 us per trial, ~0.4 us
of it the seed hashing.  What is left, the per-trial state set and the
draw, is paid once per trial, however many points the sweep has.

``run_experiments`` runs a sweep: configs that differ only in their
channel's parameter, as ``simulate`` builds one per ``--param`` value.
Their one trial range splits into ``min(worker_count, trials, usable
CPUs, 1 + bit-decodes // 2^18)`` spans, one task per worker, and worker w
decodes span w of every config; the usable CPUs are the process's
affinity mask where the OS has one, not the host's count, and the
bit-decodes are trials x configs x n.  So a ``simulate`` call starts and
joins its processes once, and each worker builds one decoder and ends one
stream tail, not one per channel parameter.  Results do not depend on the
worker count, so ``worker_count`` is a ceiling, and a process past the
first starts only when the sweep's work pays for its fork.  2^18
bit-decodes per extra process is the measured crossover of one process
against two on a 2-CPU machine (medians in ms; in a process that had run
sweeps before, and in fresh ``simulate`` CLI calls, which also pay the
pool's imports):

===========================  ===========  ==========  ==========
sweep                        bit-decodes  in process  fresh CLI
                                          1 / 2       1 / 2
===========================  ===========  ==========  ==========
Gallager A, 48A, 3 x 2000    144k         36 / 43     294 / 371
Gallager A, 48A, 3 x 4000    288k         60 / 65     349 / 378
Gallager A, 48A, 3 x 8000    576k         123 / 94    435 / 427
sum-product, 90A, 3 x 1000   135k         27 / 41     340 / 382
sum-product, 90A, 3 x 2000   270k         59 / 60     415 / 441
sum-product, 90A, 3 x 8000   1.08M        288 / 171   535 / 472
===========================  ===========  ==========  ==========

Below it no call gains from a second process (``_pool_size`` has the
full table).  With one span the task runs in-process.
``run_experiment`` is the one-config case.

numpy 2.x loads ``numpy.random`` lazily, and every worker needs it.  So
the pool branch imports it in the parent just before the pool starts:
under the ``fork`` start method (Linux's default through Python 3.13) the
workers inherit it instead of each importing its 19 modules (~17 ms)
again on every sweep.  That pays in a process that runs more than one
pooled sweep; a one-shot CLI call only moves the import from the
children, where it ran in parallel, to the parent, and its wall time
does not change.  The import stays in that branch: ``catalog``,
``analyze``, ``export-alist`` and ``extend`` never load ``numpy.random``.
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
    syndrome,
    transmit,
)
from .decoders import GallagerADecoder, SumProductDecoder
from .gf2 import BitMatrix

__all__ = [
    "DECODERS",
    "RNG_FAMILY",
    "MAX_ITERATIONS",
    "ExperimentConfig",
    "ExperimentResult",
    "SyndromeStats",
    "trial_rng",
    "run_experiment",
    "run_experiments",
    "syndrome_statistics",
]

RNG_FAMILY = "numpy PCG64 seeded via SeedSequence((master_seed, trial_index))"

# each --decoder name and the class that decodes under it
DECODERS = {"gallager-a": GallagerADecoder, "sum-product": SumProductDecoder}

# the largest decoder iteration budget a config accepts: every row that
# never reaches a zero syndrome is stepped this many times
MAX_ITERATIONS = 1000

# trials per noise block: _decoder_inputs draws a sweep's noise, and feeds
# every config's decoder input, this many trials at a time
BLOCK_ROWS = 64

# noise elements (rows x columns) drawn per block by syndrome_statistics
_SAMPLE_ELEMENTS = 1 << 20

# trials whose PCG64 seeds _trial_generators derives in one numpy pass
_SEED_CHUNK = 1024

# bit-decodes (trials x configs x n) of a sweep per process past the first:
# a second process pays from about this much work (_pool_size)
_WORK_PER_EXTRA_PROCESS = 1 << 18


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and the
# PCG64 LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial; the split contract of the repo.

    ``run_experiments`` does not call it: ``_trial_generators`` derives the
    same PCG64 states in bulk, and the tests check them against it.
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


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constant each of ``count`` successive hashes XORs in, and the
    one it multiplies by (the next constant of the sequence).  Cached, so
    both are read-only."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    sequence = np.array(consts, dtype=np.uint32)[:, None]
    sequence.flags.writeable = False
    return sequence[:-1], sequence[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _pcg64_seeds(entropy: np.ndarray) -> list[list[int]]:
    """``SeedSequence(e).generate_state(4, uint64)`` for each column e of a
    (words, B) uint32 entropy array, as lists of 4 Python ints."""
    words = len(entropy)
    if words < _POOL_SIZE:
        entropy = np.vstack([entropy, np.zeros((_POOL_SIZE - words, entropy.shape[1]), np.uint32)])
    xor, mult = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, words - _POOL_SIZE))
    pool = _hashmix(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    # each pool word, hashed once per other word, mixes into those words
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k:k + len(dst)], mult[k:k + len(dst)]))
        k += len(dst)
    # entropy words past the pool mix into every pool word
    for extra in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(extra, xor[k:k + _POOL_SIZE], mult[k:k + _POOL_SIZE]))
        k += _POOL_SIZE
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.vstack([pool, pool]), xor, mult).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T.tolist()


def _trial_generators(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Yield, for each trial i in [start, stop), one reused generator whose
    state equals ``trial_rng(master_seed, i)``'s.

    Each yielded state must be drawn from before the next is requested.
    Seeds are derived ``_SEED_CHUNK`` trials at a time.  Entropy is the
    seed's words followed by the index's; a chunk stops at each multiple of
    2^32, so all its indices share every word but the lowest and the
    entropy array stays rectangular.  PCG64 then seeds by
    its setseq-128 recurrence on s = q0:q1 and inc = 2 (q2:q3) + 1.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    seed_words = _words(master_seed)
    lo = start
    while lo < stop:
        hi = min(stop, lo + _SEED_CHUNK, ((lo >> 32) + 1) << 32)
        low = lo & _MASK32
        columns = [np.full(hi - lo, w, np.uint32) for w in seed_words]
        columns.append(np.arange(low, low + hi - lo, dtype=np.uint32))
        columns += [np.full(hi - lo, w, np.uint32) for w in _words(lo)[1:]]
        for q0, q1, q2, q3 in _pcg64_seeds(np.vstack(columns)):
            inc = ((q2 << 64 | q3) << 1 | 1) & _MASK128
            state = ((inc + (q0 << 64 | q1)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator
        lo = hi


@dataclass(frozen=True)
class ExperimentConfig:
    """One decoding experiment: parity check, channel, decoder, budget.

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
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}, expected {tuple(DECODERS)}")
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


def _decoder_inputs(cfgs: Sequence[ExperimentConfig], start: int, stop: int, checks: ParityChecks, moments: np.ndarray):
    """Yield, for each ``BLOCK_ROWS``-trial block of [start, stop), every
    config's decoder input for that block in config order, each row
    labelled with its config's index, adding each config's sum w and
    sum w^2 of received syndrome weights into its row of ``moments``.

    The sweep has one channel type, so the block's noise is drawn once,
    row r from trial lo + r's ``_trial_generators`` state, and each config
    applies its own rho or sigma to that one draw.
    """
    first = cfgs[0]
    bsc = isinstance(first.channel, BscChannel)
    generators = _trial_generators(first.master_seed, start, stop)
    zero_block = np.zeros((BLOCK_ROWS, first.h.ncols), dtype=np.uint8)
    for lo in range(start, stop, BLOCK_ROWS):
        sent = zero_block[:stop - lo]
        noise = np.empty(sent.shape)
        # rows first: zip stops at the block's last row without taking the next state
        for row, generator in zip(noise, generators):
            (generator.random if bsc else generator.standard_normal)(out=row)
        for c, (cfg, sums) in enumerate(zip(cfgs, moments)):
            received = apply_noise(sent, cfg.channel, noise)
            hard = received if bsc else (received < 0).astype(np.uint8)
            _, w = syndrome(checks, hard)
            sums += (w.sum(), w @ w)
            if first.decoder == "gallager-a":
                y = hard
            elif bsc:
                y = llr_from_bsc(hard, cfg.channel.rho)
            else:
                y = llr_from_awgn(received, cfg.channel.sigma)
            yield np.full(len(y), c), y


def _run_share(cfgs: Sequence[ExperimentConfig], start: int, stop: int) -> np.ndarray:
    """Integer sums over trials [start, stop) of one sweep as a (configs, 6)
    int64 table, one row per config: bit errors, word errors, detected and
    undetected decoder failures, sum w and sum w^2.

    The configs decode as one block-major stream: each ``BLOCK_ROWS``-trial
    block of the span is drawn once and then fed once per config, in
    config order (``_decoder_inputs``), so one config's slow rows step
    alongside the fresh rows of the next.  Every sum is over integers, so
    the order in which rows finish cannot change it.
    """
    first = cfgs[0]
    decoder = DECODERS[first.decoder](first.h)
    table = np.zeros((len(cfgs), 6), dtype=np.int64)
    blocks = _decoder_inputs(cfgs, start, stop, decoder.checks, table[:, 4:])
    for config, words, _, syndrome_zero in decoder.decode_stream(blocks, max_iter=first.max_iterations):
        errs = words.sum(axis=1, dtype=np.int64)
        wrong = errs > 0
        np.add.at(table[:, :4], config, np.stack((errs, wrong, ~syndrome_zero, syndrome_zero & wrong), axis=1))
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
    ``_WORK_PER_EXTRA_PROCESS`` (2^18) of the sweep's ``bit_decodes``
    (trials x configs x n).  ``worker_count`` is only a ceiling.

    The constant is the crossover of one process against two, measured on
    a 2-CPU machine with 3-point sweeps, ``run_experiments`` in a process
    that had run sweeps before (median of 11) and fresh ``simulate`` CLI
    calls (median of 10), in ms; the Gallager A rows are medians of three
    such runs of the bit-sliced decoder:

    ===========================  ===========  ==========  ==========
    sweep                        bit-decodes  in process  fresh CLI
                                              1 / 2       1 / 2
    ===========================  ===========  ==========  ==========
    Gallager A, 48A, 3 x 2000    144k         36 / 43     294 / 371
    Gallager A, 48A, 3 x 4000    288k         60 / 65     349 / 378
    Gallager A, 48A, 3 x 8000    576k         123 / 94    435 / 427
    Gallager A, 48A, 3 x 32000   2.3M         525 / 316   676 / 619
    sum-product, 90A, 3 x 1000   135k         27 / 41     340 / 382
    sum-product, 90A, 3 x 2000   270k         59 / 60     415 / 441
    sum-product, 90A, 3 x 4000   540k         147 / 102   427 / 452
    sum-product, 90A, 3 x 8000   1.08M        288 / 171   535 / 472
    ===========================  ===========  ==========  ==========

    In process two pay from ~270k (sum-product) and from between 288k and
    576k (Gallager A).  A one-shot CLI call also pays the pool's imports,
    and two pay there only from ~0.5-1M.  2^18 is sum-product's in-process
    crossover: below it no call gains from a second process, and above it
    the pool starts as it did without the cap.
    """
    return min(worker_count, trials, _usable_cpus(), 1 + bit_decodes // _WORK_PER_EXTRA_PROCESS)


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """``workers`` contiguous spans of [0, trials); callers pass at most
    ``trials`` workers (``_pool_size``), so none is empty."""
    size, extra = divmod(trials, workers)
    spans = []
    start = 0
    for i in range(workers):
        stop = start + size + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


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
    each worker ends one stream tail, not one per point.  With one span,
    which every sweep below 2^18 bit-decodes gets, that task runs in this
    process and no pool starts.  A pool's parent imports
    ``numpy.random`` first, so ``fork``ed workers inherit it rather than
    import it each.
    """
    if not cfgs:
        return []
    first = cfgs[0]
    kind = type(first.channel)
    if any(type(cfg.channel) is not kind or replace(cfg, channel=first.channel) != first for cfg in cfgs):
        raise ValueError("the configs of one sweep may differ only in their channel's parameter")
    work = first.trials * len(cfgs) * first.h.ncols
    spans = _chunks(first.trials, _pool_size(first.worker_count, first.trials, work))
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
    if trials < 2:
        raise ValueError("need at least two trials")
    m = h.nrows
    checks = ParityChecks(h)
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
