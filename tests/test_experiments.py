import dataclasses
import os

import numpy as np
import pytest

from csg_ldpc import experiments
from csg_ldpc.channel import (
    AwgnChannel,
    BscChannel,
    llr_from_awgn,
    syndrome,
    syndrome_mean_formula,
    transmit,
)
from csg_ldpc.codes import build_code
from csg_ldpc.decoders import GallagerADecoder, SumProductDecoder
from csg_ldpc.experiments import (
    ExperimentConfig,
    random_regular_ldpc,
    run_experiment,
    syndrome_statistics,
    trial_rng,
)
from csg_ldpc.graphs import parse_lcf


@pytest.fixture(scope="module")
def heawood_h():
    return build_code(parse_lcf("[5,-5]^7")).H


def test_trial_rng_is_reproducible_and_split():
    a = trial_rng(9, 4).random(5)
    b = trial_rng(9, 4).random(5)
    c = trial_rng(9, 5).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation(heawood_h):
    ok = dict(h=heawood_h, channel=BscChannel(0.1), decoder="gallager-a",
              trials=10, master_seed=1)
    ExperimentConfig(**ok)
    with pytest.raises(ValueError, match="decoder"):
        ExperimentConfig(**{**ok, "decoder": "turbo"})
    with pytest.raises(ValueError, match="trial"):
        ExperimentConfig(**{**ok, "trials": 0})
    with pytest.raises(ValueError, match="max_iterations"):
        ExperimentConfig(**{**ok, "max_iterations": -1})
    with pytest.raises(ValueError, match="worker"):
        ExperimentConfig(**{**ok, "worker_count": 0})
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(**{**ok, "master_seed": -2})


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


def test_worker_count_does_not_change_results(heawood_h):
    base = ExperimentConfig(
        h=heawood_h, channel=BscChannel(0.08), decoder="gallager-a",
        trials=400, master_seed=17,
    )
    single = run_experiment(base)
    multi = run_experiment(dataclasses.replace(base, worker_count=3))
    assert single == multi  # exact, including the float fields


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
        out = engine.decode(y, max_iter=1, sent=zero)
        bit_errors += out.bit_errors
        word_errors += out.bit_errors > 0
        detected += not out.syndrome_zero
        undetected += out.syndrome_zero and out.bit_errors > 0
    assert (result.bit_errors, result.word_errors) == (bit_errors, word_errors)
    assert (result.detected, result.undetected) == (detected, undetected)
    assert detected > 0 and undetected > 0


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
    cpus = os.cpu_count() or 1
    assert experiments._pool_size(100_000, 10**9) == cpus
    assert experiments._pool_size(1, 10**9) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert experiments._pool_size(100_000, 5) == 5
    assert experiments._pool_size(100_000, 10**9) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments._pool_size(100_000, 10**9) == 1


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


def test_syndrome_statistics_validation(heawood_h):
    with pytest.raises(ValueError):
        syndrome_statistics(heawood_h, 0.7, trials=100, master_seed=0)
    with pytest.raises(ValueError):
        syndrome_statistics(heawood_h, 0.1, trials=1, master_seed=0)


def test_random_regular_ldpc_degrees():
    h = random_regular_ldpc(20, 10, w_c=3, seed=6)
    assert (h.nrows, h.ncols) == (10, 20)
    assert all(c.bit_count() == 3 for c in h.column_bits())
    assert all(r.bit_count() == 6 for r in h.rows)
    assert h == random_regular_ldpc(20, 10, w_c=3, seed=6)
    assert h != random_regular_ldpc(20, 10, w_c=3, seed=7)


def test_random_regular_ldpc_validation():
    with pytest.raises(ValueError, match="divisible"):
        random_regular_ldpc(10, 4)
    with pytest.raises(ValueError):
        random_regular_ldpc(0, 3)
    with pytest.raises(ValueError, match="degree exceeds"):
        random_regular_ldpc(4, 2, w_c=3)  # would need row weight 6 on 4 columns
