"""Exact output bytes of ``simulate``, ``variance``, ``catalog`` and ``analyze``.

The simulate and variance text was produced by the command line before
the channel noise and syndrome routines were merged into
``csg_ldpc.channel``; any change to the per-trial random stream, the
batching of the variance path or the aggregation shows up here as a byte
difference.  The two cases at seed 7700100000 were recorded while every
trial still built its own ``default_rng((seed, i))``; they pin the
block-derived generators on a seed of two uint32 words.  The catalog CSV
and the analyze reports pin the parameters, duality flags and bounds.
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


# recorded while clique_number still scanned a degeneracy order and the
# duality flags each formed their own G G^T
CATALOG_CSV = (
    "id,n,k,d,girth,even,self_orth,lcd\n"
    "6A,3,2,2,4,true,false,true\n"
    "8A,4,0,4,4,true,true,true\n"
    "14A,7,3,4,6,true,true,false\n"
    "16A,8,0,8,6,true,true,true\n"
    "18A,9,2,6,6,true,false,true\n"
    "20B,10,4,4,6,true,false,true\n"
    "24A,12,4,6,6,true,false,false\n"
    "26A,13,0,13,6,true,true,true\n"
    "30A,15,5,6,8,true,true,false\n"
    "32A,16,0,16,6,true,true,true\n"
    "40A,20,4,8,8,true,true,false\n"
    "48A,24,6,10,8,true,false,false\n"
    "56C,28,8,8,8,true,false,true\n"
    "90A,45,11,10,10,true,true,false\n"
)

ANALYZE_TEXT = {
    "6A.lcf": (
        "graph:            6A\n"
        "parameters:       [3, 2, 2]\n"
        "girth:            4\n"
        "even code:        yes\n"
        "self-orthogonal:  no\n"
        "lcd:              yes\n"
        "lambda2:          0.000000\n"
        "distance bounds:  d1=2.0000 d2=1.5556 piecewise=1.2000\n"
        "dimension bound:  2.5000\n"
        "clique number:    3\n"
        "independent set:  1\n"
        "predicted [n,0,n]: no\n"
        "warning: girth 4 < 6: bit pairs may share several checks, structural bound arguments do not apply\n"
    ),
    "8A.lcf": (
        "graph:            8A\n"
        "parameters:       [4, 0, 4]\n"
        "girth:            4\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              yes\n"
        "lambda2:          1.000000\n"
        "distance bounds:  d1=2.5000 d2=2.0000 piecewise=1.6000\n"
        "dimension bound:  3.3333\n"
        "clique number:    4\n"
        "independent set:  1\n"
        "predicted [n,0,n]: yes\n"
        "warning: girth 4 < 6: bit pairs may share several checks, structural bound arguments do not apply\n"
    ),
    "14A.lcf": (
        "graph:            14A\n"
        "parameters:       [7, 3, 4]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              no\n"
        "lambda2:          1.414214\n"
        "distance bounds:  d1=4.0000 d2=3.3333 piecewise=2.8000\n"
        "dimension bound:  5.8333\n"
        "clique number:    7\n"
        "independent set:  1\n"
        "predicted [n,0,n]: no\n"
    ),
    "16A.lcf": (
        "graph:            16A\n"
        "parameters:       [8, 0, 8]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              yes\n"
        "lambda2:          1.732051\n"
        "distance bounds:  d1=4.0000 d2=3.5556 piecewise=3.2000\n"
        "dimension bound:  6.6667\n"
        "clique number:    4\n"
        "independent set:  2\n"
        "predicted [n,0,n]: yes\n"
    ),
    "18A.lcf": (
        "graph:            18A\n"
        "parameters:       [9, 2, 6]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  no\n"
        "lcd:              yes\n"
        "lambda2:          1.732051\n"
        "distance bounds:  d1=4.5000 d2=4.0000 piecewise=3.6000\n"
        "dimension bound:  7.5000\n"
        "clique number:    3\n"
        "independent set:  3\n"
        "predicted [n,0,n]: no\n"
    ),
    "20B.lcf": (
        "graph:            20B\n"
        "parameters:       [10, 4, 4]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  no\n"
        "lcd:              yes\n"
        "lambda2:          2.000000\n"
        "distance bounds:  d1=4.0000 d2=4.0000 piecewise=4.0000\n"
        "dimension bound:  8.3333\n"
        "clique number:    4\n"
        "independent set:  2\n"
        "predicted [n,0,n]: no\n"
    ),
    "24A.lcf": (
        "graph:            24A\n"
        "parameters:       [12, 4, 6]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  no\n"
        "lcd:              no\n"
        "lambda2:          2.000000\n"
        "distance bounds:  d1=4.8000 d2=4.8000 piecewise=4.8000\n"
        "dimension bound:  10.0000\n"
        "clique number:    3\n"
        "independent set:  4\n"
        "predicted [n,0,n]: no\n"
    ),
    "26A.lcf": (
        "graph:            26A\n"
        "parameters:       [13, 0, 13]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              yes\n"
        "lambda2:          2.074313\n"
        "distance bounds:  d1=4.6972 d2=4.9765 piecewise=2.8889\n"
        "dimension bound:  10.8333\n"
        "clique number:    3\n"
        "independent set:  3\n"
        "predicted [n,0,n]: no\n"
    ),
    "30A.lcf": (
        "graph:            30A\n"
        "parameters:       [15, 5, 6]\n"
        "girth:            8\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              no\n"
        "lambda2:          2.000000\n"
        "distance bounds:  d1=6.0000 d2=6.0000 piecewise=6.0000\n"
        "dimension bound:  12.5000\n"
        "clique number:    3\n"
        "independent set:  5\n"
        "predicted [n,0,n]: no\n"
    ),
    "32A.lcf": (
        "graph:            32A\n"
        "parameters:       [16, 0, 16]\n"
        "girth:            6\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              yes\n"
        "lambda2:          2.236068\n"
        "distance bounds:  d1=4.0000 d2=5.3333 piecewise=3.5556\n"
        "dimension bound:  13.3333\n"
        "clique number:    3\n"
        "independent set:  4\n"
        "predicted [n,0,n]: yes\n"
    ),
    "40A.edges": (
        "graph:            40A\n"
        "parameters:       [20, 4, 8]\n"
        "girth:            8\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              no\n"
        "lambda2:          2.236068\n"
        "distance bounds:  d1=5.0000 d2=6.6667 piecewise=4.4444\n"
        "dimension bound:  16.6667\n"
        "clique number:    3\n"
        "independent set:  6\n"
        "predicted [n,0,n]: no\n"
    ),
    "48A.edges": (
        "graph:            48A\n"
        "parameters:       [24, 6, 10]\n"
        "girth:            8\n"
        "even code:        yes\n"
        "self-orthogonal:  no\n"
        "lcd:              no\n"
        "lambda2:          2.449490\n"
        "distance bounds:  d1=0.0000 d2=5.3333 piecewise=5.3333\n"
        "dimension bound:  20.0000\n"
        "clique number:    3\n"
        "independent set:  7\n"
        "predicted [n,0,n]: no\n"
    ),
    "56C.edges": (
        "graph:            56C\n"
        "parameters:       [28, 8, 8]\n"
        "girth:            8\n"
        "even code:        yes\n"
        "self-orthogonal:  no\n"
        "lcd:              yes\n"
        "lambda2:          2.414214\n"
        "distance bounds:  d1=1.5147 d2=6.8954 piecewise=6.2222\n"
        "dimension bound:  23.3333\n"
        "clique number:    3\n"
        "independent set:  8\n"
        "predicted [n,0,n]: no\n"
    ),
    "90A.lcf": (
        "graph:            90A\n"
        "parameters:       [45, 11, 10]\n"
        "girth:            10\n"
        "even code:        yes\n"
        "self-orthogonal:  yes\n"
        "lcd:              no\n"
        "lambda2:          2.449490\n"
        "distance bounds:  d1=0.0000 d2=10.0000 piecewise=10.0000\n"
        "dimension bound:  37.5000\n"
        "clique number:    3\n"
        "independent set:  15\n"
        "predicted [n,0,n]: no\n"
    ),
}


def test_catalog_csv_bytes_match_recorded_output(data_dir, capsys):
    assert main(["catalog", str(data_dir)]) == 0
    assert capsys.readouterr().out == CATALOG_CSV


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT))
def test_analyze_text_matches_recorded_output(data_dir, capsys, name):
    assert main(["analyze", str(data_dir / name)]) == 0
    assert capsys.readouterr().out == ANALYZE_TEXT[name]
