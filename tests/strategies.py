"""Hypothesis strategies shared by several test modules."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from csg_ldpc.gf2 import BitMatrix


@st.composite
def parity_checks(draw):
    """Any 0/1 parity check with 0-6 rows and 0-8 columns."""
    n = draw(st.integers(0, 8))
    return BitMatrix.from_rows(draw(st.lists(st.integers(0, 2 ** n - 1), max_size=6)), n)


@st.composite
def irregular_checks_and_blocks(draw):
    """Any 0/1 parity check, zero rows, zero columns and empty shapes
    included, and a (B, n) block of words for it."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entries = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m))
    h = BitMatrix.from_dense(entries, ncols=n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    block = rng.integers(0, 2, size=(draw(st.integers(0, 5)), n), dtype=np.uint8)
    return h, block
