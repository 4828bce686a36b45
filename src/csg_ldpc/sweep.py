"""What a Monte-Carlo run accepts, in plain Python: the decoder names, the
iteration cap, the trial-point ceiling and what counts as an integer.

``cli`` builds its parser and checks its inputs from these without loading
numpy, and ``experiments`` validates its configs against the same names.
"""

from __future__ import annotations

import numbers

__all__ = ["DECODER_NAMES", "MAX_ITERATIONS", "MAX_TRIAL_POINTS", "is_integer"]

# the --decoder names; experiments.DECODERS maps each to its class
DECODER_NAMES = ("gallager-a", "sum-product")

# the largest decoder iteration budget a config accepts: every row that
# never reaches a zero syndrome is stepped this many times
MAX_ITERATIONS = 1000

# the most trials x points (--param or --rho values) one simulate or
# variance call may ask for.  The fastest paths measured on a 2-CPU
# machine are variance on 6A, ~10M trial-points/s, and simulate on 6A,
# ~160k/s per process; at those rates 10^12 takes variance over a day and
# simulate about a month on two processes.  No planned run comes near it,
# so only a typo (--trials 10**18 ran until killed) reaches it
MAX_TRIAL_POINTS = 10**12


def is_integer(value: object) -> bool:
    """True for a Python or numpy integer (numpy registers its integer
    types as ``numbers.Integral``); False for a bool, a float of integral
    value and anything else.  A count, seed or iteration cap of another
    type fails later with an undeclared error, or never stops."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
