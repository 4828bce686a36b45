"""Monte-Carlo decoding experiments with reproducible per-trial seeding.

Every trial transmits the all-zero codeword and draws its noise from an
independent generator seeded by (master_seed, trial_index), so results
depend only on the seed and trial count, never on how trials are split
across workers.  Aggregation sums integers, which makes the reduction
order irrelevant and the output byte-stable.

Each worker walks its trial range in blocks of ``_BLOCK`` trials: it
draws trial i from its own generator as above, stacks the block's draws,
and takes one syndrome, one LLR conversion and one ``decode_block`` call
per block.  The block size is pinned by peak memory, not speed: on
sum-product over 90A (2-CPU machine), 32 rows ran 10-20% slower than
64, while 256 rows ran ~10% faster but raised the process's peak RSS by
~6% over per-word decoding, past the 5% bound of the ``perfbench``
simulate workloads; 64 rows stay within 1.2%.

``trial_rng`` is the seeding contract, but building its generator takes
~20 us, against ~1.3 us for a 45-bit BSC draw (2-CPU machine), nearly
all of it in ``SeedSequence`` hashing and ``PCG64`` seeding.  Both are
fixed integer recurrences, so ``_trial_generators`` runs them for a
whole block in numpy and sets each trial's PCG64 state on one reused
generator.  The states, and so the draws, equal ``trial_rng``'s bit for
bit, and ``transmit`` still makes every draw.

``run_experiments`` runs a whole sweep through one process pool: each
config splits into at most ``min(worker_count, trials, os.cpu_count())``
trial spans, and every (config, span) task goes to one pool of the
largest such size, so a ``simulate`` call starts and joins its processes
once, not once per channel parameter.  Results do not depend on the
worker count, so extra processes would only cost forks; with one worker
the tasks run in-process.  ``run_experiment`` is the one-config case.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import BscChannel, ChannelModel, ParityChecks, llr_from_awgn, llr_from_bsc, syndrome, transmit
from .decoders import GallagerADecoder, SumProductDecoder
from .gf2 import BitMatrix

__all__ = [
    "RNG_FAMILY",
    "ExperimentConfig",
    "ExperimentResult",
    "SyndromeStats",
    "trial_rng",
    "run_experiment",
    "run_experiments",
    "syndrome_statistics",
    "random_regular_ldpc",
]

RNG_FAMILY = "numpy PCG64 seeded via SeedSequence((master_seed, trial_index))"

DECODER_NAMES = ("gallager-a", "sum-product")

_BLOCK = 64

# noise elements (rows x columns) drawn per block by syndrome_statistics
_SAMPLE_ELEMENTS = 1 << 20


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

    ``_run_range`` does not call it: ``_trial_generators`` derives the same
    PCG64 states for a whole block, and the tests check them against it.
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


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constant each of ``count`` successive hashes XORs in, and the
    one it multiplies by (the next constant of the sequence)."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    sequence = np.array(consts, dtype=np.uint32)[:, None]
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
    Entropy is the seed's words followed by the index's; a block stops at
    each multiple of 2^32, so all its indices share every word but the
    lowest and the entropy array stays rectangular.  PCG64 then seeds by
    its setseq-128 recurrence on s = q0:q1 and inc = 2 (q2:q3) + 1.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    seed_words = _words(master_seed)
    lo = start
    while lo < stop:
        hi = min(stop, lo + _BLOCK, ((lo >> 32) + 1) << 32)
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
    only).  ``worker_count`` > 1 splits trials over processes without
    changing any number in the result; it is capped at the trial count
    and the machine's CPU count.
    """

    h: BitMatrix
    channel: ChannelModel
    decoder: str
    trials: int
    master_seed: int
    max_iterations: int = 50
    worker_count: int = 1

    def __post_init__(self) -> None:
        if self.decoder not in DECODER_NAMES:
            raise ValueError(f"unknown decoder {self.decoder!r}, expected {DECODER_NAMES}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


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


def _run_range(cfg: ExperimentConfig, start: int, stop: int) -> tuple[int, ...]:
    """Partial sums for one trial range: bit errors, word errors, sum w,
    sum w^2, detected and undetected decoder failures."""
    gallager = cfg.decoder == "gallager-a"
    decoder = GallagerADecoder(cfg.h) if gallager else SumProductDecoder(cfg.h)
    zero_word = np.zeros(cfg.h.ncols, dtype=np.uint8)
    bsc = isinstance(cfg.channel, BscChannel)
    sums = np.zeros(6, dtype=np.int64)
    generators = _trial_generators(cfg.master_seed, start, stop)
    for lo in range(start, stop, _BLOCK):
        received = np.stack([
            transmit(zero_word, cfg.channel, next(generators))
            for _ in range(lo, min(lo + _BLOCK, stop))
        ])
        hard = received if bsc else (received < 0).astype(np.uint8)
        _, w = syndrome(decoder.checks, hard)
        if gallager:
            y = hard
        elif bsc:
            y = llr_from_bsc(hard, cfg.channel.rho)
        else:
            y = llr_from_awgn(received, cfg.channel.sigma)
        words, _, syndrome_zero = decoder.decode_block(y, max_iter=cfg.max_iterations)
        errs = words.sum(axis=1, dtype=np.int64)
        sums += (
            errs.sum(),
            np.count_nonzero(errs),
            w.sum(),
            w @ w,
            np.count_nonzero(~syndrome_zero),
            np.count_nonzero(syndrome_zero & (errs > 0)),
        )
    return tuple(int(v) for v in sums)


def _pool_size(worker_count: int, trials: int) -> int:
    """Processes worth starting: never more than the trials or the CPUs."""
    return min(worker_count, trials, os.cpu_count() or 1)


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    size, extra = divmod(trials, workers)
    spans = []
    start = 0
    for i in range(workers):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans


def _aggregate(cfg: ExperimentConfig, partials: list[tuple[int, ...]]) -> ExperimentResult:
    """Sum one config's integer partials and derive its rates."""
    bit_errors, word_errors, syn_sum, syn_sq, detected, undetected = (sum(col) for col in zip(*partials))
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
    """Run every config's trials through one process pool and aggregate
    each config exactly.

    Each config splits into ``_pool_size(worker_count, trials)`` spans; all
    (config, span) tasks go to one pool of the largest such size, so a
    sweep starts its processes once.  When that size is 1 the tasks run
    in this process and no pool starts.
    """
    sizes = [_pool_size(cfg.worker_count, cfg.trials) for cfg in cfgs]
    spans = [_chunks(cfg.trials, size) for cfg, size in zip(cfgs, sizes)]
    tasks = [(cfg, a, b) for cfg, cfg_spans in zip(cfgs, spans) for a, b in cfg_spans]
    workers = max(sizes, default=1)
    if workers == 1:
        partials = [_run_range(*task) for task in tasks]
    else:
        # imported here so runs without a pool never load concurrent.futures,
        # logging or multiprocessing (~1.9 MB of RSS per CLI process)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_range, *task) for task in tasks]
            partials = [f.result() for f in futures]
    done = iter(partials)
    return [_aggregate(cfg, [next(done) for _ in cfg_spans]) for cfg, cfg_spans in zip(cfgs, spans)]


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


def random_regular_ldpc(n: int, m: int, w_c: int = 3, seed: int = 0) -> BitMatrix:
    """Random (w_c, w_r)-regular parity check by socket matching.

    Each check contributes n*w_c/m sockets; columns draw w_c sockets and
    redraw whenever a column would repeat a row.  Deterministic for a given
    seed.  4-cycles are allowed, callers who care should inspect the girth.
    """
    if n < 1 or m < 1 or w_c < 1:
        raise ValueError("dimensions must be positive")
    if (n * w_c) % m != 0:
        raise ValueError(f"infeasible degree sequence: {n}*{w_c} not divisible by {m}")
    w_r = n * w_c // m
    if w_r > n or w_c > m:
        raise ValueError("degree exceeds matrix dimension")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        sockets = list(np.repeat(np.arange(m), w_r))
        columns: list[int] = []
        failed = False
        for _col in range(n):
            placed = None
            for _attempt in range(200):
                picks = rng.choice(len(sockets), size=w_c, replace=False)
                chosen = [sockets[i] for i in picks]
                if len(set(chosen)) == w_c:
                    placed = (sorted(picks, reverse=True), chosen)
                    break
            if placed is None:
                failed = True
                break
            for i in placed[0]:
                sockets.pop(i)
            bits = 0
            for row in placed[1]:
                bits |= 1 << int(row)
            columns.append(bits)
        if not failed:
            cols_matrix = BitMatrix(n, m, tuple(columns))
            return cols_matrix.transpose()
    raise RuntimeError("could not place all sockets without duplicate rows")
