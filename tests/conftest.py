"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.crypto.backend import BN254Backend, FastBackend
from repro.db.matcher import NestedMatcher


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG so failures are reproducible."""
    return random.Random(20220310)


@pytest.fixture
def fast_backend() -> FastBackend:
    return FastBackend()


@pytest.fixture(scope="session")
def bn254_backend() -> BN254Backend:
    """Session-scoped so the fixed-base tables are built once."""
    return BN254Backend()


@pytest.fixture
def nested_rematch():
    """The Section 6.5 baseline on the very handles a server just matched
    by hash: ``rematch(server, result)`` feeds the last observation's
    handles (two distinct tables) to a :class:`NestedMatcher` and
    returns it finished — ``.finish()`` is its right-major pairing,
    ``.stats`` its quadratic comparison count."""

    def rematch(server, result) -> NestedMatcher:
        view = server.observations[-1].handles
        matcher = NestedMatcher()
        for name, feed in zip(
            result.tables, (matcher.add_left, matcher.add_right)
        ):
            feed([
                (row, handle)
                for (table, row), handle in view.items() if table == name
            ])
        matcher.finish()
        return matcher

    return rematch
