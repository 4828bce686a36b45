import concurrent.futures
import dataclasses
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csg_ldpc import experiments
from csg_ldpc.channel import (
    AwgnChannel,
    BscChannel,
    ParityChecks,
    llr_from_awgn,
    llr_from_bsc,
    syndrome,
    transmit,
)
from csg_ldpc.cli import main
from csg_ldpc.codes import build_code
from csg_ldpc.decoders import GallagerADecoder, SumProductDecoder
from csg_ldpc.experiments import (
    ExperimentConfig,
    run_experiment,
    run_experiments,
    syndrome_statistics,
    trial_rng,
)
from csg_ldpc.graphs import parse_lcf

from oracles import syndrome_mean_formula
from test_package import loaded_after


@pytest.fixture(scope="module")
def heawood_h():
    return build_code(parse_lcf("[5,-5]^7")).H


def test_trial_rng_is_reproducible_and_split():
    a = trial_rng(9, 4).random(5)
    b = trial_rng(9, 4).random(5)
    c = trial_rng(9, 5).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# seeds near 0, 2^32, 2^64 and 2^96 have 1 to 4 uint32 words, so with the
# index's words the entropy runs from 2 words to past the 4-word pool
SEEDS = st.builds(lambda base, offset: max(0, base + offset),
                  st.sampled_from([0, 2**32, 2**64, 2**96]), st.integers(-40, 40))
# starts near 2^32 give ranges that cross to two-word indices
STARTS = st.one_of(st.integers(0, 300), st.integers(2**32 - 100, 2**32 + 5))


@given(SEEDS, STARTS, st.integers(0, 100), st.integers(1, 9))
@example(seed=7, start=0, width=0, n=4)
@example(seed=2**96 + 1, start=2**32 - 3, width=6, n=4)
@example(seed=2**64 + 9, start=2**32 - 50, width=100, n=1)
@settings(max_examples=80, deadline=None)
def test_block_generators_equal_trial_rng(seed, start, width, n):
    stop = start + width
    uniforms = [g.random(n) for g in experiments._trial_generators(seed, start, stop)]
    normals = [g.standard_normal(n) for g in experiments._trial_generators(seed, start, stop)]
    assert len(uniforms) == len(normals) == width
    for trial, u, z in zip(range(start, stop), uniforms, normals):
        assert np.array_equal(u, trial_rng(seed, trial).random(n))
        assert np.array_equal(z, trial_rng(seed, trial).standard_normal(n))


def _chunk_widths(trials, chunk):
    return [chunk] * (trials // chunk) + [trials % chunk] * bool(trials % chunk)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**96 + 3])
def test_seed_chunks_equal_trial_rng_across_2_32(monkeypatch, chunk, seed):
    monkeypatch.setattr(experiments, "_SEED_CHUNK", chunk)
    widths = []
    seeds = experiments._pcg64_seeds
    monkeypatch.setattr(experiments, "_pcg64_seeds", lambda e: widths.append(e.shape[1]) or seeds(e))
    for start, stop in ((0, 11), (2**32 - 7, 2**32 + 6)):
        widths.clear()
        generators = experiments._trial_generators(seed, start, stop)
        for trial, g in zip(range(start, stop), generators):
            draw = g.random(3) if trial % 2 else g.standard_normal(3)
            rng = trial_rng(seed, trial)
            assert np.array_equal(draw, rng.random(3) if trial % 2 else rng.standard_normal(3))
        assert next(generators, None) is None
        # full chunks, cut short only at 2^32 and at the stop
        below = min(max(2**32 - start, 0), stop - start)
        assert widths == _chunk_widths(below, chunk) + _chunk_widths(stop - start - below, chunk)


def test_held_generators_equal_trial_rng():
    # every generator is taken before any is drawn from, across 2^32: each
    # must be a generator of its own, not one reused and reset
    start, stop = 2**32 - 3, 2**32 + 3
    generators = list(experiments._trial_generators(2**64 + 5, start, stop))
    draws = [g.random(4) for g in reversed(generators)][::-1]
    for trial, draw in zip(range(start, stop), draws, strict=True):
        assert np.array_equal(draw, trial_rng(2**64 + 5, trial).random(4))


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 2**96 + 3])
def test_first_uint32_draw_equals_trial_rng(seed):
    # a 32-bit draw keeps half of a 64-bit output for the next one; each
    # trial's generator must start with none kept, as trial_rng's does
    for trial, g in zip(range(4), experiments._trial_generators(seed, 0, 4)):
        expected = trial_rng(seed, trial).integers(0, 2**32, size=3, dtype=np.uint32)
        assert np.array_equal(g.integers(0, 2**32, size=3, dtype=np.uint32), expected)


def test_trial_seed_gives_pcg64_only_its_own_request():
    seeds = experiments._pcg64_seeds(np.array([[7, 7], [0, 1]], dtype=np.uint32))
    assert seeds.dtype == np.uint64 and seeds.shape == (2, 4) and seeds.flags.c_contiguous
    for trial, words in enumerate(seeds):
        assert np.array_equal(words, np.random.SeedSequence((7, trial)).generate_state(4, np.uint64))
    words = seeds[1]
    seed = experiments._trial_seed_type()(words)
    assert seed.generate_state(4, np.uint64) is words
    assert seed.generate_state(4, "uint64") is words
    # PCG64 reads the buffer as 4 uint64 words: any other request is refused
    for n_words, dtype in ((4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed.generate_state(n_words, dtype)


# a uint32 entropy word, its two extremes drawn often
UINT32 = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


# 1 to 8 entropy words: short of numpy's pool of 4, filling it and past it
@given(st.integers(1, 8).flatmap(lambda words: st.lists(st.lists(UINT32, min_size=words, max_size=words),
                                                        min_size=1, max_size=6)))
@example(columns=[[0] * 8, [2**32 - 1] * 8])
@example(columns=[[0], [2**32 - 1]])
@settings(max_examples=100, deadline=None)
def test_pcg64_seeds_equal_seed_sequence(columns):
    seeds = experiments._pcg64_seeds(np.array(columns, dtype=np.uint32).T)
    assert seeds.dtype == np.uint64 and seeds.shape == (len(columns), 4) and seeds.flags.c_contiguous
    for words, column in zip(seeds, columns):
        assert np.array_equal(words, np.random.SeedSequence(column).generate_state(4, np.uint64))


def test_trial_generators_across_2_32_raise_no_warning():
    # the seed hash's uint32 products wrap, as numpy's do, and must not
    # warn of overflow at any seed width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**32 - 1, 2**64 + 5, 2**96 + 3):
            for g in experiments._trial_generators(seed, 2**32 - 3, 2**32 + 3):
                g.random(2)


def test_config_validation(heawood_h):
    ok = dict(h=heawood_h, channel=BscChannel(0.1), decoder="gallager-a",
              trials=10, master_seed=1)
    ExperimentConfig(**ok)
    with pytest.raises(ValueError, match="decoder"):
        ExperimentConfig(**{**ok, "decoder": "turbo"})
    # any other channel would fail later, in run_experiment (in a pool,
    # inside a worker), with an AttributeError
    for bad in (0.1, None, "awgn", BscChannel):
        with pytest.raises(ValueError, match="channel must be a BscChannel or an AwgnChannel"):
            ExperimentConfig(**{**ok, "channel": bad})
    ExperimentConfig(**{**ok, "channel": AwgnChannel(0.8)})
    # a dense H would fail only in run_experiment, reading h.ncols
    for bad in (np.eye(7, dtype=np.uint8), heawood_h.rows, None):
        with pytest.raises(ValueError, match="H must be a BitMatrix.*BitMatrix.from_numpy"):
            ExperimentConfig(**{**ok, "h": bad})
    with pytest.raises(ValueError, match="trial"):
        ExperimentConfig(**{**ok, "trials": 0})
    for bad in (-1, experiments.MAX_ITERATIONS + 1, 10**9):
        with pytest.raises(ValueError, match="max_iterations"):
            ExperimentConfig(**{**ok, "max_iterations": bad})
    ExperimentConfig(**{**ok, "max_iterations": experiments.MAX_ITERATIONS})
    with pytest.raises(ValueError, match="worker"):
        ExperimentConfig(**{**ok, "worker_count": 0})
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(**{**ok, "master_seed": -2})
    # at rho = 1/2 every LLR is 0, which sum-product would read as the sent word
    with pytest.raises(ValueError, match="rho = 1/2"):
        ExperimentConfig(**{**ok, "decoder": "sum-product", "channel": BscChannel(0.5)})
    ExperimentConfig(**{**ok, "channel": BscChannel(0.5)})
    ExperimentConfig(**{**ok, "decoder": "sum-product", "channel": BscChannel(0.45)})
    # a float cap never meets a row's integer count, and a float trial
    # count or seed fails later with a TypeError: each is refused here,
    # while numpy integers pass
    for name in ("trials", "master_seed", "max_iterations", "worker_count"):
        for bad in (2.5, 3.0, np.float64(2.0), True, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentConfig(**{**ok, name: bad})
        ExperimentConfig(**{**ok, name: np.int64(2)})


def test_noiseless_channel_gives_zero_rates(heawood_h):
    cfg = ExperimentConfig(
        h=heawood_h, channel=BscChannel(0.0), decoder="gallager-a",
        trials=50, master_seed=3,
    )
    result = run_experiment(cfg)
    assert result.ber == 0.0
    assert result.fer == 0.0
    assert result.syndrome_mean == 0.0
    assert result.syndrome_variance == 0.0


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    started = 0
    workers = 0
    tasks = 0

    def __init__(self, *args, max_workers=None, **kwargs):
        type(self).started += 1
        type(self).workers += max_workers
        super().__init__(*args, max_workers=max_workers, **kwargs)

    def submit(self, *args, **kwargs):
        type(self).tasks += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def pooled(monkeypatch):
    """``pooled(cpus)`` lets a sweep fan out to ``cpus`` processes however
    small its work, and counts the pools it starts: it patches
    ``_usable_cpus`` and ``_WORK_PER_EXTRA_PROCESS`` and returns
    ``CountingPool`` with its counts at 0."""
    def setup(cpus):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiments, "_WORK_PER_EXTRA_PROCESS", 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        for name in ("started", "workers", "tasks"):
            monkeypatch.setattr(CountingPool, name, 0)
        return CountingPool

    return setup


def test_worker_count_does_not_change_results(heawood_h, pooled):
    pool = pooled(3)
    base = ExperimentConfig(
        h=heawood_h, channel=BscChannel(0.08), decoder="gallager-a",
        trials=400, master_seed=17,
    )
    single = run_experiment(base)
    multi = run_experiment(dataclasses.replace(base, worker_count=3))
    assert single == multi  # exact, including the float fields
    assert (pool.started, pool.workers) == (1, 3)


def test_shared_pool_equals_one_config_at_a_time(heawood_h, pooled):
    # 3 CPUs, so the sweep keeps three spans on any machine
    pool = pooled(3)
    for channels in ((BscChannel(0.1), BscChannel(0.12)), (AwgnChannel(0.7), AwgnChannel(0.9))):
        cfgs = [
            ExperimentConfig(h=heawood_h, channel=channel, decoder="sum-product",
                             trials=301, master_seed=3, worker_count=3, max_iterations=3)
            for channel in channels
        ]
        expected = [run_experiment(dataclasses.replace(cfg, worker_count=1)) for cfg in cfgs]
        assert run_experiments(cfgs) == expected
    assert run_experiments([]) == []
    assert (pool.started, pool.workers) == (2, 6)


# each entry changes one field of the second config; the channel entry
# changes its type, so the sweep would mix BSC and AWGN
SWEEP_FIELDS = {
    "channel": AwgnChannel(0.8),
    "h": build_code(parse_lcf("[5,-9,7,-7,9,-5]^4")).H,
    "decoder": "sum-product",
    "trials": 11,
    "master_seed": 4,
    "max_iterations": 3,
    "worker_count": 2,
}


@pytest.mark.parametrize("field", SWEEP_FIELDS)
def test_sweep_refuses_configs_that_differ_beyond_the_channel(heawood_h, field):
    base = ExperimentConfig(h=heawood_h, channel=BscChannel(0.1), decoder="gallager-a",
                            trials=10, master_seed=1)
    other = dataclasses.replace(base, **{"channel": BscChannel(0.2), field: SWEEP_FIELDS[field]})
    with pytest.raises(ValueError, match="may differ only in their channel's parameter"):
        run_experiments([base, other])
    with pytest.raises(ValueError, match="may differ only in their channel's parameter"):
        run_experiments([base, base, other])


@pytest.mark.parametrize("workers,pools", [("2", 1), ("1", 0)])
def test_simulate_starts_at_most_one_pool(data_dir, pooled, capsys, workers, pools):
    pool = pooled(2)
    assert main([
        "simulate", str(data_dir / "24A.lcf"), "--channel", "bsc", "--param", "0.02,0.05,0.1",
        "--decoder", "gallager-a", "--trials", "50", "--seed", "4", "--workers", workers,
    ]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert pool.started == pools


def test_sweep_sends_one_task_per_started_worker(data_dir, pooled, capsys):
    pool = pooled(2)
    assert main([
        "simulate", str(data_dir / "24A.lcf"), "--channel", "bsc", "--param", "0.02,0.05,0.1",
        "--decoder", "gallager-a", "--trials", "50", "--seed", "4", "--workers", "2",
    ]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    # one task per worker, not one per (point, span)
    assert (pool.started, pool.workers, pool.tasks) == (1, 2, 2)


def test_gate_08_sweep_is_byte_identical_across_a_real_pool(data_dir, tmp_path, pooled):
    # acceptance gate 08's argv; its sweep, 2 points x 2000 trials of 48A's
    # 24 bits, is below the crossover, so both of the gate's own runs
    # decode in process
    args = [
        "simulate", str(data_dir / "48A.edges"), "--channel", "bsc", "--param", "0.05,0.1",
        "--decoder", "gallager-a", "--trials", "2000", "--seed", "7",
    ]
    assert 2000 * 2 * 24 < experiments._WORK_PER_EXTRA_PROCESS
    out1, out4 = tmp_path / "workers1.csv", tmp_path / "workers4.csv"
    pool = pooled(4)
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert pool.started == 0
    assert main(args + ["--workers", "4", "--out", str(out4)]) == 0
    assert (pool.started, pool.workers) == (1, 4)
    assert out1.read_bytes() == out4.read_bytes()


def test_sweep_merges_stream_tails(monkeypatch):
    # the Nauru code: each point ends with rows at the iteration cap
    h = build_code(parse_lcf("[5,-9,7,-7,9,-5]^4")).H
    cfgs = [
        ExperimentConfig(h=h, channel=BscChannel(rho), decoder="gallager-a",
                         trials=150, master_seed=11, max_iterations=20)
        for rho in (0.05, 0.08, 0.1)
    ]
    calls = []
    step = GallagerADecoder._step
    monkeypatch.setattr(GallagerADecoder, "_step", lambda self, *state: calls.append(1) or step(self, *state))
    alone = [run_experiment(cfg) for cfg in cfgs]
    steps_alone = len(calls)
    calls.clear()
    assert run_experiments(cfgs) == alone
    # a point's capped rows step alongside the next point's fresh ones
    assert 0 < len(calls) < steps_alone


@pytest.mark.parametrize("decoder", ["gallager-a", "sum-product"])
def test_shared_stream_sums_each_span_apart(heawood_h, decoder):
    # spans of 63 and 65 rows end inside a 64-row block and just past one;
    # spans of 1 and 2 rows put every row next to a span boundary
    for channels in ((BscChannel(0.3), BscChannel(0.2)), (AwgnChannel(0.8), AwgnChannel(1.1))):
        for trials in (1, 2, 63, 65):
            cfgs = [
                ExperimentConfig(h=heawood_h, channel=channel, decoder=decoder,
                                 trials=trials, master_seed=trials, max_iterations=2)
                for channel in channels
            ]
            assert run_experiments(cfgs) == [run_experiment(cfg) for cfg in cfgs]


@pytest.mark.parametrize("channels", [
    (BscChannel(0.05), BscChannel(0.1), BscChannel(0.2)),
    (AwgnChannel(0.6), AwgnChannel(0.8), AwgnChannel(1.0)),
])
def test_sweep_draws_each_trial_once_per_noise_kind(heawood_h, monkeypatch, channels):
    trials = 150
    cfgs = [
        ExperimentConfig(h=heawood_h, channel=channel, decoder="sum-product",
                         trials=trials, master_seed=5, max_iterations=5)
        for channel in channels
    ]
    alone = [run_experiment(cfg) for cfg in cfgs]
    starts, states = [], []
    chunks = experiments._seed_chunks

    def counted(*args):
        starts.append(args)
        for seeds in chunks(*args):
            states.extend(seeds)
            yield seeds

    monkeypatch.setattr(experiments, "_seed_chunks", counted)
    assert run_experiments(cfgs) == alone
    # one seed stream for the whole sweep, one seed and so one draw a
    # trial, and every point reads the same per-trial draw
    assert starts == [(5, 0, trials)]
    assert len(states) == trials


@pytest.mark.parametrize("decoder", ["gallager-a", "sum-product"])
def test_block_major_stream_counts_rows_at_block_edges(heawood_h, pooled, decoder):
    def sweep(channels, trials, workers):
        return [
            ExperimentConfig(h=heawood_h, channel=channel, decoder=decoder, trials=trials,
                             master_seed=trials, max_iterations=4, worker_count=workers)
            for channel in channels
        ]

    pool = pooled(2)
    for channels in ((BscChannel(0.3), BscChannel(0.15)), (AwgnChannel(0.9), AwgnChannel(0.6))):
        # 64, 128 and 192 trials are whole blocks only; 129 and 257 leave a
        # one-row tail, 257 after more rows than the decoders keep in flight
        for trials in (64, 128, 129, 192, 257):
            cfgs = sweep(channels, trials, 1)
            assert run_experiments(cfgs) == [run_experiment(cfg) for cfg in cfgs]
        # two spans of 65 and 64 trials: one with a one-row tail, one with none
        cfgs = sweep(channels, 129, 2)
        expected = [run_experiment(dataclasses.replace(cfg, worker_count=1)) for cfg in cfgs]
        assert run_experiments(cfgs) == expected
    assert (pool.started, pool.workers) == (2, 4)


def test_runs_without_a_pool_never_import_it(run_capped, data_dir):
    proc = run_capped(
        "import sys\n"
        "from csg_ldpc.cli import main\n"
        f"assert main(['catalog', {str(data_dir)!r}]) == 0\n"
        f"assert main(['simulate', {str(data_dir / '24A.lcf')!r}, '--channel', 'bsc', '--param', '0.05',\n"
        "             '--decoder', 'gallager-a', '--trials', '20', '--seed', '4', '--workers', '1']) == 0\n"
        "print(*sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)), file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == ""


def test_decoder_off_reproduces_channel_errors(heawood_h):
    trials = 300
    cfg = ExperimentConfig(
        h=heawood_h, channel=BscChannel(0.1), decoder="gallager-a",
        trials=trials, master_seed=5, max_iterations=0,
    )
    result = run_experiment(cfg)
    expected_bits = 0
    for t in range(trials):
        rng = trial_rng(5, t)
        expected_bits += int((rng.random(7) < 0.1).sum())
    assert result.bit_errors == expected_bits


@pytest.mark.parametrize("channel,decoder", [
    (BscChannel(0.12), "gallager-a"),
    (AwgnChannel(0.7), "sum-product"),
])
def test_counts_match_per_word_decoding(heawood_h, channel, decoder):
    # 150 trials span two full blocks and a partial one
    cfg = ExperimentConfig(
        h=heawood_h, channel=channel, decoder=decoder, trials=150, master_seed=21,
        max_iterations=1,
    )
    result = run_experiment(cfg)
    engine = GallagerADecoder(heawood_h) if decoder == "gallager-a" else SumProductDecoder(heawood_h)
    zero = np.zeros(7, dtype=np.uint8)
    bit_errors = word_errors = detected = undetected = 0
    for t in range(cfg.trials):
        received = transmit(zero, channel, trial_rng(21, t))
        y = received if decoder == "gallager-a" else llr_from_awgn(received, channel.sigma)
        out = engine.decode(y, max_iter=1)
        errors = int(out.word.sum())  # the zero word was sent
        bit_errors += errors
        word_errors += errors > 0
        detected += not out.syndrome_zero
        undetected += out.syndrome_zero and errors > 0
    assert (result.bit_errors, result.word_errors) == (bit_errors, word_errors)
    assert (result.detected, result.undetected) == (detected, undetected)
    assert detected > 0 and undetected > 0


@pytest.mark.parametrize("elements", [1, 1000, experiments.BLOCK_ELEMENTS])
@pytest.mark.parametrize("decoder", ["gallager-a", "sum-product"])
@pytest.mark.parametrize("channels", [
    (BscChannel(0.12),),
    (BscChannel(0.05), BscChannel(0.1), BscChannel(0.2)),
    (AwgnChannel(0.7),),
    (AwgnChannel(0.6), AwgnChannel(0.8), AwgnChannel(1.0)),
])
def test_decoder_inputs_equal_per_trial_transmit_across_block_edges(heawood_h, monkeypatch, channels, decoder, elements):
    # elements = 1 gives the 64-row floor, one config a block; 1000 gives
    # blocks of 142 trials for one config and of 64 trials and 2 of the
    # 3 configs, so a block's configs split unevenly; the real budget puts
    # each span in one block.  The spans start off a block edge and hold
    # no whole number of blocks
    monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", elements)
    rows, group = experiments._block_shape(7, len(channels))
    expected_shape = {1: (64, 1), 1000: (142, 1) if len(channels) == 1 else (64, 2)}
    assert (rows, group) == expected_shape.get(elements, (elements // (7 * len(channels)), len(channels)))
    cfgs = [ExperimentConfig(h=heawood_h, channel=channel, decoder=decoder, trials=300, master_seed=23,
                             max_iterations=3)
            for channel in channels]
    engine = experiments.DECODERS[decoder](heawood_h)
    zero = np.zeros(7, dtype=np.uint8)
    for start, stop in ((0, 1), (37, 300), (129, 194)):
        inputs = [[] for _ in cfgs]
        table = np.zeros((len(cfgs), 6), dtype=np.int64)
        for t in range(start, stop):
            for c, cfg in enumerate(cfgs):
                received = transmit(zero, cfg.channel, trial_rng(23, t))
                hard = received if isinstance(cfg.channel, BscChannel) else (received < 0).astype(np.uint8)
                if decoder == "gallager-a":
                    y = hard
                elif isinstance(cfg.channel, BscChannel):
                    y = llr_from_bsc(hard, cfg.channel.rho)
                else:
                    y = llr_from_awgn(received, cfg.channel.sigma)
                inputs[c].append(y)
                out = engine.decode(y, max_iter=3)
                errors = int(out.word.sum())  # the zero word was sent
                _, w = syndrome(heawood_h, hard)
                table[c] += (errors, errors > 0, not out.syndrome_zero, out.syndrome_zero and errors > 0, w, w * w)
        moments = np.zeros((len(cfgs), 2), dtype=np.int64)
        blocks = list(experiments._decoder_inputs(cfgs, start, stop, engine.checks, moments))
        # trial block after trial block, each config group's rows in config
        # order, and never more than max(64 n, BLOCK_ELEMENTS) elements
        layout = [(lo, c0) for lo in range(start, stop, rows) for c0 in range(0, len(cfgs), group)]
        assert len(blocks) == len(layout)
        for (lo, c0), (labels, y) in zip(layout, blocks):
            size = min(rows, stop - lo)
            assert labels.tolist() == [c for c in range(c0, min(c0 + group, len(cfgs))) for _ in range(size)]
            assert y.size <= max(64 * 7, elements)
        for c, expected in enumerate(inputs):
            got = np.concatenate([y[labels == c] for labels, y in blocks])
            assert got.dtype == expected[0].dtype
            assert np.array_equal(got.view(np.uint8), np.stack(expected).view(np.uint8))
        assert np.array_equal(moments, table[:, 4:])
        assert np.array_equal(experiments._run_share(cfgs, start, stop), table)


@pytest.mark.parametrize("chunk", [1, 5, 100, experiments._SEED_CHUNK])
def test_noise_rows_cross_seed_chunks_and_2_32(heawood_h, monkeypatch, chunk):
    # 64-row blocks against seed chunks of other widths, and a span across
    # 2^32, where a chunk is cut short: every row is still its own trial's
    # draw, whichever chunk and block it falls in
    monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(experiments, "_SEED_CHUNK", chunk)
    channel = AwgnChannel(0.8)
    cfgs = [ExperimentConfig(h=heawood_h, channel=channel, decoder="sum-product", trials=1, master_seed=2**64 + 3)]
    zero = np.zeros(7, dtype=np.uint8)
    for start, stop in ((3, 200), (2**32 - 70, 2**32 + 61)):
        moments = np.zeros((1, 2), dtype=np.int64)
        blocks = list(experiments._decoder_inputs(cfgs, start, stop, ParityChecks(heawood_h), moments))
        assert [len(y) for _, y in blocks] == [min(64, stop - lo) for lo in range(start, stop, 64)]
        got = np.concatenate([y for _, y in blocks])
        expected = [llr_from_awgn(transmit(zero, channel, trial_rng(2**64 + 3, t)), channel.sigma)
                    for t in range(start, stop)]
        assert np.array_equal(got.view(np.uint64), np.stack(expected).view(np.uint64))


@pytest.mark.parametrize("decoder", ["gallager-a", "sum-product"])
@pytest.mark.parametrize("channels", [
    (BscChannel(0.05), BscChannel(0.1), BscChannel(0.2)),
    (AwgnChannel(0.6), AwgnChannel(0.8), AwgnChannel(1.0)),
])
def test_batched_tally_equals_a_tally_per_hand_out(heawood_h, monkeypatch, channels, decoder):
    # a bound of 1 tallies every hand-out on its own, 5 to 300 fall inside
    # and across hand-outs, and the default holds the whole share to its end
    cfgs = [ExperimentConfig(h=heawood_h, channel=channel, decoder=decoder, trials=400, master_seed=29,
                             max_iterations=3)
            for channel in channels]
    start, stop = 11, 400
    engine = experiments.DECODERS[decoder](heawood_h)
    expected = np.zeros((len(cfgs), 6), dtype=np.int64)
    blocks = experiments._decoder_inputs(cfgs, start, stop, engine.checks, expected[:, 4:])
    handouts = 0
    for config, words, _, syndrome_zero in engine.decode_stream(blocks, max_iter=3):
        for c, word, ok in zip(config.tolist(), words, syndrome_zero.tolist()):
            errors = int(word.sum())
            expected[c, :4] += (errors, errors > 0, not ok, ok and errors > 0)
        handouts += 1
    assert handouts > 1 and expected[:, :4].any()
    for bound in (1, 5, 64, 300, experiments._TALLY_ROWS):
        monkeypatch.setattr(experiments, "_TALLY_ROWS", bound)
        assert np.array_equal(experiments._run_share(cfgs, start, stop), expected), bound


def test_max_iter_zero_detects_every_nonzero_syndrome(heawood_h):
    cfg = ExperimentConfig(
        h=heawood_h, channel=BscChannel(0.1), decoder="sum-product",
        trials=200, master_seed=6, max_iterations=0,
    )
    result = run_experiment(cfg)
    zero = np.zeros(7, dtype=np.uint8)
    weights = [syndrome(heawood_h, transmit(zero, cfg.channel, trial_rng(6, t)))[1] for t in range(200)]
    assert result.detected == sum(w > 0 for w in weights)
    assert result.syndrome_mean == sum(weights) / 200


def test_pool_size_never_exceeds_trials_or_cpus(monkeypatch):
    cpus = experiments._usable_cpus()
    work = 10**18  # past any work cap, so only the trials and CPUs bind
    assert experiments._pool_size(100_000, 10**9, work) == cpus
    assert experiments._pool_size(1, 10**9, work) == 1
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 64)
    assert experiments._pool_size(100_000, 5, work) == 5
    assert experiments._pool_size(100_000, 10**9, work) == 64
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    assert experiments._pool_size(100_000, 10**9, work) == 1


def test_pool_size_adds_a_process_per_crossover_of_work(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 64)
    # one crossover for both decoders: one-shot 3-point sweeps of 48A
    # gain from a second process in more than half their pairs from
    # 1152k bit-decodes (3 x 16000) on for both decoders; Gallager A is
    # even from 720k to 1008k (README's fan-out table)
    per = experiments._WORK_PER_EXTRA_PROCESS
    assert per == 1_152_000
    trials = 10**9
    for work, size in ((0, 1), (1, 1), (288_000, 1), (720_000, 1), (1_008_000, 1), (per - 1, 1), (per, 2),
                       (per + 1, 2), (1_296_000, 2), (2 * per - 1, 2), (2 * per, 3), (10 * per, 11)):
        assert experiments._pool_size(64, trials, work) == size, work
    # the CI sweep, 4 x 36000 trials of 48A's 24 bits (three times the
    # crossover), still starts a pool at 2 CPUs
    assert 4 * 36_000 * 24 >= 2 * per
    assert experiments._pool_size(2, 36_000, 4 * 36_000 * 24) == 2
    # --workers stays a ceiling: an absurd count starts no more than the work pays for
    assert experiments._pool_size(10**12, trials, per - 1) == 1
    assert experiments._pool_size(10**12, trials, 3 * per) == 4
    assert experiments._pool_size(10**12, trials, 10**30) == 64
    assert experiments._pool_size(1, trials, 10**30) == 1


def test_usable_cpus_reads_the_affinity_mask_where_there_is_one(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert experiments._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert experiments._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments._usable_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask")
def test_one_usable_cpu_starts_no_pool(run_capped, data_dir):
    # the child pins only itself to one CPU; the host may still have more.
    # Any work pays for a second process, so only the mask holds it back
    proc = run_capped(
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from csg_ldpc import experiments\n"
        "experiments._WORK_PER_EXTRA_PROCESS = 1\n"
        "from csg_ldpc.cli import main\n"
        f"assert main(['simulate', {str(data_dir / '24A.lcf')!r}, '--channel', 'bsc', '--param', '0.05,0.1',\n"
        "             '--decoder', 'gallager-a', '--trials', '200', '--seed', '4', '--workers', '2']) == 0\n"
        "print('concurrent.futures.process' in sys.modules, file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def test_one_shot_simulate_below_the_crossover_starts_no_pool(run_capped, data_dir):
    # simulate-ga-w2's sweep, 3 x 2000 trials of 48A's 24 bits, and a
    # sum-product sweep of 3 x 4000 (288k bit-decodes, where two processes
    # lose for either decoder), at --workers 2 with 2 usable CPUs: only
    # their work holds the pool back
    proc = run_capped(
        "import sys\n"
        "from csg_ldpc import experiments\n"
        "experiments._usable_cpus = lambda: 2\n"
        "from csg_ldpc.cli import main\n"
        "for decoder, trials in (('gallager-a', '2000'), ('sum-product', '4000')):\n"
        f"    assert main(['simulate', {str(data_dir / '48A.edges')!r}, '--channel', 'awgn',\n"
        "                 '--param', '0.5,0.6,0.7', '--decoder', decoder, '--trials', trials,\n"
        "                 '--seed', '4', '--workers', '2']) == 0\n"
        "print('concurrent.futures.process' in sys.modules, file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="workers inherit the parent's modules only when forked")
def test_pool_workers_import_nothing_their_parent_has_not(run_capped, data_dir):
    # a module-level spy stands in for _run_share in each worker and
    # reports the modules the real share imported, one write per worker so
    # the two lines cannot interleave
    proc = run_capped(
        "import os, sys\n"
        "from csg_ldpc import experiments\n"
        "from csg_ldpc.cli import main\n"
        "real = experiments._run_share\n"
        "def spy(*args):\n"
        "    before = set(sys.modules)\n"
        "    table = real(*args)\n"
        "    os.write(2, ' '.join(['imported:', *sorted(set(sys.modules) - before)]).encode() + b'\\n')\n"
        "    return table\n"
        "experiments._run_share = spy\n"
        "experiments._usable_cpus = lambda: 2\n"
        "experiments._WORK_PER_EXTRA_PROCESS = 1\n"
        f"assert main(['simulate', {str(data_dir / '48A.edges')!r}, '--channel', 'awgn', '--param', '0.6,0.7',\n"
        "             '--decoder', 'gallager-a', '--trials', '200', '--seed', '4', '--workers', '2']) == 0\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["imported:"] * 2


def test_commands_without_a_sweep_never_load_numpy_random(run_capped, data_dir, tmp_path):
    proc = run_capped(
        "import sys\n"
        "from csg_ldpc.cli import main\n"
        f"assert main(['catalog', {str(data_dir)!r}]) == 0\n"
        f"assert main(['analyze', {str(data_dir / '48A.edges')!r}]) == 0\n"
        f"assert main(['export-alist', {str(data_dir / '24A.lcf')!r}, {str(tmp_path / '24A.alist')!r}]) == 0\n"
        f"assert main(['extend', {str(data_dir / '14A.lcf')!r}, '--bits', '3']) == 0\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def _run_main(*argv_lists) -> str:
    """Source that imports ``main`` and runs each argv, each to exit 0."""
    return "from csg_ldpc.cli import main\n" + "".join(f"assert main({argv!r}) == 0\n" for argv in argv_lists)


def test_importing_the_cli_loads_no_numpy(run_capped):
    loaded = loaded_after(run_capped, _run_main())
    assert "csg_ldpc.cli" in loaded and "numpy" not in loaded


def test_pure_python_commands_never_load_numpy(run_capped, data_dir, tmp_path):
    graph = str(data_dir / "90A.lcf")
    loaded = loaded_after(run_capped, _run_main(
        ["catalog", str(data_dir)],
        ["export-alist", graph, str(tmp_path / "90A.alist")],
        ["extend", graph, "--bits", "8", "--alist-out", str(tmp_path / "extended.alist")],
    ))
    assert "csg_ldpc.codes" in loaded and "numpy" not in loaded


def test_importing_experiments_loads_no_numpy_random(run_capped):
    # the seed type is built on the first draw: a process that imports the
    # module and draws nothing (perfbench's catalog run) stays ~6 MB smaller
    loaded = loaded_after(run_capped, "import csg_ldpc.experiments")
    assert "csg_ldpc.experiments" in loaded and "numpy.random" not in loaded


def test_analyze_loads_no_simulation_module(run_capped, data_dir):
    loaded = loaded_after(run_capped, _run_main(["analyze", str(data_dir / "48A.edges")]))
    assert "csg_ldpc.bounds" in loaded
    assert {"csg_ldpc.channel", "csg_ldpc.decoders", "csg_ldpc.experiments"}.isdisjoint(loaded)


def test_awgn_channel_runs(heawood_h):
    cfg = ExperimentConfig(
        h=heawood_h, channel=AwgnChannel(0.4), decoder="sum-product",
        trials=200, master_seed=2,
    )
    result = run_experiment(cfg)
    assert 0.0 <= result.ber <= 1.0
    assert result.trials == 200


def test_rates_are_counts_over_totals(heawood_h):
    cfg = ExperimentConfig(
        h=heawood_h, channel=BscChannel(0.3), decoder="gallager-a",
        trials=123, master_seed=8,
    )
    result = run_experiment(cfg)
    assert result.ber == result.bit_errors / (123 * 7)
    assert result.fer == result.word_errors / 123
    assert result.word_errors <= 123


def test_syndrome_statistics_refuses_non_integer_counts(heawood_h):
    for kwargs in ({"trials": 100.0}, {"trials": True}, {"master_seed": 1.5}, {"master_seed": "1"}):
        with pytest.raises(ValueError, match="must be an integer"):
            syndrome_statistics(heawood_h, 0.05, **{"trials": 100, "master_seed": 1, **kwargs})
    stats = syndrome_statistics(heawood_h, 0.05, trials=np.int64(100), master_seed=np.uint8(1))
    assert stats == syndrome_statistics(heawood_h, 0.05, trials=100, master_seed=1)


def test_syndrome_statistics_determinism(heawood_h):
    a = syndrome_statistics(heawood_h, 0.05, trials=5000, master_seed=4)
    b = syndrome_statistics(heawood_h, 0.05, trials=5000, master_seed=4)
    assert a == b
    c = syndrome_statistics(heawood_h, 0.05, trials=5000, master_seed=4, stream_index=1)
    assert c != a


def test_syndrome_statistics_match_formula(heawood_h):
    stats = syndrome_statistics(heawood_h, 0.1, trials=60_000, master_seed=12)
    expect = syndrome_mean_formula(7, 0.1)
    assert abs(stats.mean - expect) < 5 * stats.mean_stderr
    assert stats.variance_stderr > 0


@pytest.mark.parametrize("elements", [3, 35, 63])
@pytest.mark.parametrize("trials", [2, 23, 50])
def test_syndrome_statistics_ignore_block_size(heawood_h, monkeypatch, elements, trials):
    # n = 7: blocks of 1, 5 and 9 words, against one block at the default size
    whole = syndrome_statistics(heawood_h, 0.2, trials=trials, master_seed=9, stream_index=2)
    monkeypatch.setattr(experiments, "_SAMPLE_ELEMENTS", elements)
    assert syndrome_statistics(heawood_h, 0.2, trials=trials, master_seed=9, stream_index=2) == whole


def test_syndrome_statistics_validation(heawood_h):
    with pytest.raises(ValueError):
        syndrome_statistics(heawood_h, 0.7, trials=100, master_seed=0)
    with pytest.raises(ValueError):
        syndrome_statistics(heawood_h, 0.1, trials=1, master_seed=0)
    # numpy would raise its own TypeError or a generic error for these
    for kwargs in ({"stream_index": 1.5}, {"stream_index": True}, {"stream_index": "1"}):
        with pytest.raises(ValueError, match="stream_index must be an integer"):
            syndrome_statistics(heawood_h, 0.1, trials=100, master_seed=0, **kwargs)
    for kwargs in ({"stream_index": -1}, {"master_seed": -3}):
        with pytest.raises(ValueError, match="master_seed and stream_index must be non-negative"):
            syndrome_statistics(heawood_h, 0.1, **{"trials": 100, "master_seed": 0, **kwargs})
    # a dense H would fail reading h.nrows
    with pytest.raises(ValueError, match="H must be a BitMatrix.*BitMatrix.from_numpy"):
        syndrome_statistics(np.eye(7, dtype=np.uint8), 0.1, trials=100, master_seed=0)
    stats = syndrome_statistics(heawood_h, 0.1, trials=100, master_seed=0, stream_index=np.int64(2))
    assert stats == syndrome_statistics(heawood_h, 0.1, trials=100, master_seed=0, stream_index=2)
