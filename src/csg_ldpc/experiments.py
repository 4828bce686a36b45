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

``run_experiment`` starts at most ``min(worker_count, trials,
os.cpu_count())`` processes: results do not depend on the worker count,
so extra processes would only cost forks.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import BscChannel, ChannelModel, llr_from_awgn, llr_from_bsc, syndrome, transmit
from .decoders import GallagerADecoder, SumProductDecoder
from .gf2 import BitMatrix

__all__ = [
    "RNG_FAMILY",
    "ExperimentConfig",
    "ExperimentResult",
    "SyndromeStats",
    "trial_rng",
    "run_experiment",
    "syndrome_statistics",
    "random_regular_ldpc",
]

RNG_FAMILY = "numpy PCG64 seeded via SeedSequence((master_seed, trial_index))"

DECODER_NAMES = ("gallager-a", "sum-product")

_BLOCK = 64


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial; the split contract of the repo."""
    return np.random.default_rng((master_seed, trial_index))


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
    dense = cfg.h.to_numpy()
    zero_word = np.zeros(cfg.h.ncols, dtype=np.uint8)
    bsc = isinstance(cfg.channel, BscChannel)
    sums = np.zeros(6, dtype=np.int64)
    for lo in range(start, stop, _BLOCK):
        received = np.stack([
            transmit(zero_word, cfg.channel, trial_rng(cfg.master_seed, trial))
            for trial in range(lo, min(lo + _BLOCK, stop))
        ])
        hard = received if bsc else (received < 0).astype(np.uint8)
        _, w = syndrome(dense, hard)
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials (optionally across processes) and aggregate exactly."""
    workers = _pool_size(cfg.worker_count, cfg.trials)
    spans = _chunks(cfg.trials, workers)
    if workers == 1:
        partials = [_run_range(cfg, a, b) for a, b in spans]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_range, cfg, a, b) for a, b in spans]
            partials = [f.result() for f in futures]
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
    bootstrap_rounds: int = 200,
) -> SyndromeStats:
    """Sample syndrome weights of BSC noise in bulk and summarize them.

    Noise comes from ``transmit`` on blocks of up to 200000 zero words,
    drawn from one stream per (master_seed, stream_index) pair, and each
    block's weights from one ``syndrome`` call, which keeps a million
    trials in the second range.
    The variance standard error comes from a multinomial bootstrap of the
    observed weight histogram.
    """
    noise = BscChannel(rho)
    if trials < 2:
        raise ValueError("need at least two trials")
    m = h.nrows
    dense = h.to_numpy()
    rng = np.random.default_rng((master_seed, stream_index, 0))
    counts = np.zeros(m + 1, dtype=np.int64)
    remaining = trials
    zero_block = np.zeros((min(200_000, trials), h.ncols), dtype=np.uint8)
    while remaining:
        size = min(len(zero_block), remaining)
        _, weights = syndrome(dense, transmit(zero_block[:size], noise, rng))
        counts += np.bincount(weights, minlength=m + 1)
        remaining -= size
    values = np.arange(m + 1, dtype=np.float64)
    total = float(trials)
    mean = float(counts @ values) / total
    sum_sq = float(counts @ (values * values))
    variance = (sum_sq - total * mean * mean) / (total - 1.0)
    boot_rng = np.random.default_rng((master_seed, stream_index, 1))
    resampled = boot_rng.multinomial(trials, counts / total, size=bootstrap_rounds)
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
