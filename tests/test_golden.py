"""Exact CSV bytes of ``simulate`` and ``variance`` for fixed seeds.

The expected text was produced by the command line before the channel
noise and syndrome routines were merged into ``csg_ldpc.channel``; any
change to the per-trial random stream, the batching of the variance
path or the aggregation shows up here as a byte difference.  The two
cases at seed 7700100000 were recorded while every trial still built its
own ``default_rng((seed, i))``; they pin the block-derived generators on a
seed of two uint32 words.
"""

import pytest

from csg_ldpc.cli import main

GOLDEN = [
    (
        "simulate 24A.lcf --channel bsc --param 0.05,0.1 --decoder sum-product"
        " --trials 200 --seed 11 --workers 2",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "bsc,0.05,sum-product,200,11,0.010833333333333334,0.02,1.7,4.090452261306533\n"
        "bsc,0.1,sum-product,200,11,0.04708333333333333,0.09,3.005,4.819070351758794\n",
    ),
    (
        "simulate 24A.lcf --channel awgn --param 0.6,0.8 --decoder gallager-a"
        " --trials 200 --seed 11 --workers 2",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "awgn,0.6,gallager-a,200,11,0.005,0.02,1.63,3.741809045226131\n"
        "awgn,0.8,gallager-a,200,11,0.04,0.125,3.2,4.8542713567839195\n",
    ),
    (
        "simulate 24A.lcf --channel bsc --param 0.1 --decoder gallager-a"
        " --trials 200 --seed 5 --max-iter 0",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "bsc,0.1,gallager-a,200,5,0.09083333333333334,0.675,2.7,4.994974874371859\n",
    ),
    (
        "simulate 24A.lcf --channel awgn --param 0.7 --decoder sum-product"
        " --trials 200 --seed 5 --max-iter 0",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "awgn,0.7,sum-product,200,5,0.08166666666666667,0.65,2.43,4.246331658291457\n",
    ),
    # a seed of two uint32 words, recorded with one default_rng per trial
    (
        "simulate 24A.lcf --channel bsc --param 0.05,0.1 --decoder sum-product"
        " --trials 200 --seed 7700100000 --workers 2",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "bsc,0.05,sum-product,200,7700100000,0.015,0.03,1.55,3.7763819095477387\n"
        "bsc,0.1,sum-product,200,7700100000,0.07125,0.135,2.785,5.074145728643217\n",
    ),
    (
        "simulate 24A.lcf --channel awgn --param 0.6,0.8 --decoder gallager-a"
        " --trials 200 --seed 7700100000 --workers 2",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "awgn,0.6,gallager-a,200,7700100000,0.0025,0.01,1.645,3.2753517587939696\n"
        "awgn,0.8,gallager-a,200,7700100000,0.03916666666666667,0.13,3.24,4.585326633165829\n",
    ),
    # three points over two workers with an odd trial count, so the pooled
    # (param, span) tasks have unequal spans; recorded with one pool per point
    (
        "simulate 48A.edges --channel awgn --param 0.7,0.8,0.9 --decoder gallager-a"
        " --trials 301 --seed 13 --workers 2",
        "channel,param,decoder,trials,seed,ber,fer,syndrome_mean,syndrome_var\n"
        "awgn,0.7,gallager-a,301,13,0.008859357696566999,0.029900332225913623,5.009966777408638,9.523233665559246\n"
        "awgn,0.8,gallager-a,301,13,0.020071982281284605,0.0664451827242525,6.451827242524917,10.121838316722036\n"
        "awgn,0.9,gallager-a,301,13,0.03889811738648948,0.132890365448505,7.6544850498338874,10.586888150609084\n",
    ),
    # girth 6; recorded with blocks of 200000 words, while 200001 trials span
    # three blocks of 2^20 // 12 words, so a block-size dependence shows here
    (
        "variance 24A.lcf --rho 0.05,0.2 --trials 200001 --seed 3",
        "rho,formula,empirical,stderr,flag\n"
        "0.05,3.649539,3.6375364655676723,0.01053322782987521,\n"
        "0.2,4.353024,4.351690326448367,0.014397908042009876,\n",
    ),
]


IDS = [
    "bsc-sp-w2", "awgn-ga-w2", "bsc-ga-iter0", "awgn-sp-iter0",
    "bsc-sp-w2-wide-seed", "awgn-ga-w2-wide-seed", "awgn-ga-w2-three-points", "variance",
]


@pytest.mark.parametrize("command,expected", GOLDEN, ids=IDS)
def test_csv_bytes_match_recorded_output(data_dir, capsys, command, expected):
    sub, graph, *rest = command.split()
    assert main([sub, str(data_dir / graph), *rest]) == 0
    assert capsys.readouterr().out == expected
