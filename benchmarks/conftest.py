"""Shared configuration for the benchmark suite.

``REPRO_BENCH_FULL=1`` switches to the paper's complete parameter sweeps
(ten scale factors, IN-clause sizes 1-10, BN254 at every t); the default
configuration keeps the whole suite to a few minutes.
"""

from __future__ import annotations

import os

import pytest

# Every benchmark, like every unit test, ends with no more live
# children, open descriptors or non-daemon threads than it began with.
from tests.conftest import no_leaks  # noqa: F401

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

SCALE_FACTORS = (
    (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1)
    if FULL
    else (0.01, 0.02, 0.04)
)
IN_CLAUSE_SIZES = tuple(range(1, 11)) if FULL else (1, 4, 10)
SELECTIVITIES = (1 / 100, 1 / 50, 1 / 25, 1 / 12.5)
BN254_T_VALUES = tuple(range(1, 11)) if FULL else (1, 2)


@pytest.fixture(scope="session")
def bench_selectivities():
    return SELECTIVITIES
