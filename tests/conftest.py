"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.core import service
from repro.core.client import SecureJoinClient
from repro.core.engine import DEFAULT_BATCH_SIZE, BatchedEngine
from repro.crypto.backend import SJ_DEC, BN254Backend, FastBackend
from repro.db.matcher import NestedMatcher
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.series.cache import series_key

class PoolEngine(BatchedEngine):
    """The engine as if every backend's SJ.Dec floor were BN254's, two
    rows: on a server two workers wide, every side of two rows or more
    goes to the pool — how tests reach the pool on the fast backend,
    whose SJ.Dec never pools.  The rule is still ``goes_to_pool``."""

    def pool_floors(self, backend):
        return {**backend.pool_floors, SJ_DEC: 2}


#: The two server shapes the property suites sample: one worker wide
#: (every side inline, nothing decided), and two workers wide with
#: :class:`PoolEngine`.
SERVER_SHAPES = ("inline", "pooled")


def server_shape(shape: str, batch_size: int = DEFAULT_BATCH_SIZE) -> dict:
    """``SecureJoinServer`` / ``LocalShard`` arguments for one of
    :data:`SERVER_SHAPES`, with a fresh engine — an engine serves the
    pool of the first server it is bound to."""
    if shape == "inline":
        return {"engine": BatchedEngine(batch_size), "workers": 1}
    return {
        "engine": PoolEngine(batch_size),
        "workers": 2,
    }


def descriptor_targets(pid="self") -> list[str]:
    """What a process's open descriptors point at (``[]`` where the
    platform has no ``/proc``)."""
    fd_dir = f"/proc/{pid}/fd"
    if not os.path.isdir(fd_dir):
        return []
    targets = []
    for fd in os.listdir(fd_dir):
        try:
            targets.append(os.readlink(f"{fd_dir}/{fd}"))
        except OSError:
            continue
    return targets


def _resources() -> dict[str, int]:
    """The three things a test must not end with more of than it began."""
    return {
        "live children": len(multiprocessing.active_children()),
        "open descriptors": len(descriptor_targets()),
        "non-daemon threads": sum(
            not thread.daemon for thread in threading.enumerate()
        ),
    }


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail a test that ends with more live children, open descriptors
    or non-daemon threads than it started with, or that leaves a child
    holding a socket (a peer would never see that socket hang up).  In
    ``tests/`` it measures after ``_fresh_process_pools`` has closed the
    test's pools, so a pool the test left open counts only if closing
    it leaves something behind."""
    before = _resources()
    yield
    after = _resources()
    grown = {
        name: (before[name], count)
        for name, count in after.items() if count > before[name]
    }
    assert not grown, f"the test ended with more than it began: {grown}"
    sockets = {
        child.pid: held
        for child in multiprocessing.active_children()
        if (held := [
            target for target in descriptor_targets(child.pid)
            if target.startswith("socket:")
        ])
    }
    assert not sockets, f"children hold sockets: {sockets}"


@pytest.fixture(autouse=True)
def _fresh_process_pools(no_leaks):
    """Close and forget every process pool after each test, servers
    left open included: a test backend's state (``CrashOnceBackend``'s
    flag path) is not part of a pool's key, so no test may inherit
    workers started on another test's backend instance, and each test's
    pools start at generation 1."""
    yield
    with service._POOLS_LOCK:
        pools = list(service._POOLS.values())
        service._POOLS.clear()
    for pool in pools:
        pool.close()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG so failures are reproducible."""
    return random.Random(20220310)


@pytest.fixture
def fast_backend() -> FastBackend:
    return FastBackend()


@pytest.fixture(scope="session")
def bn254_backend() -> BN254Backend:
    """Session-scoped so the GT base is paired once (the fixed-base
    tables are per process whatever the backend)."""
    return BN254Backend()


class SleepingBackend(FastBackend):
    """A fast backend whose every chunk takes 50 ms *asleep* — a sleep,
    not a spin, so it is load-independent: long enough that every worker
    of a small pool is demonstrably busy at once, whatever the machine
    is doing."""

    def pair_vectors_batch(self, g1_vector, g2_vectors):
        time.sleep(0.05)
        return super().pair_vectors_batch(g1_vector, g2_vectors)


@pytest.fixture
def sleeping_backend() -> SleepingBackend:
    return SleepingBackend()


class PacedBackend(FastBackend):
    """A fast backend whose every chunk sleeps 30 ms *per row*: a
    chunk's time grows with its rows whatever the machine is doing, so
    of two pooled chunks dispatched together the one-row chunk
    completes before the two-row one."""

    def pair_vectors_batch(self, g1_vector, g2_vectors):
        time.sleep(0.03 * len(g2_vectors))
        return super().pair_vectors_batch(g1_vector, g2_vectors)


@pytest.fixture
def paced_backend() -> PacedBackend:
    return PacedBackend()


class CrashOnceBackend(FastBackend):
    """Deterministic crash injection: the first pooled worker to decrypt
    a chunk on this backend SIGKILLs itself mid-chunk — exactly one
    worker, every run.  "First" is whoever wins the exclusive create of
    the flag file; the process that built the backend (inline sides,
    reference runs) never dies."""

    def __init__(self, flag_path):
        super().__init__()
        self.flag_path = str(flag_path)
        self.builder_pid = os.getpid()

    def pair_vectors_batch(self, g1_vector, g2_vectors):
        if os.getpid() != self.builder_pid:
            try:
                os.close(os.open(self.flag_path, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().pair_vectors_batch(g1_vector, g2_vectors)


@pytest.fixture
def crash_once_backend(tmp_path) -> CrashOnceBackend:
    return CrashOnceBackend(tmp_path / "worker-crashed")


def bn254_small_join(backend):
    """The shape of perfbench's ``bn254_small``: ``L`` of 2 rows and
    ``R`` of 4, each ``R`` row matching one ``L`` row, at d = 5 on
    ``backend`` — ``(client, encrypted [L, R], join query)``.  Row 0 of
    each side match, so a join's first match needs one row per side."""
    schema = Schema.of(("k", "int"), ("v", "str"))
    left = Table("L", schema, [(7, "l0"), (8, "l1")])
    right = Table("R", schema, [(7, "r0"), (8, "r1"), (7, "r2"), (8, "r3")])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=1,
        backend=backend, rng=random.Random(16),
    )
    encrypted = [client.encrypt_table(table, "k") for table in (left, right)]
    query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
    return client, encrypted, query


def held_handles(host, query) -> dict[tuple[int, int], bytes]:
    """``{(position, row): handle}``: every handle ``query``'s series
    entry on ``host`` holds — what its runs computed and no delete has
    withdrawn since.  The host must cache series."""
    entry = host.series_cache._entries[series_key(query, host.backend)]
    return {
        (position, row): handle
        for position, held in enumerate(entry.executor.handles)
        for row, handle in held.items()
    }


@pytest.fixture
def nested_rematch():
    """The Section 6.5 baseline on the very handles a server just matched
    by hash: ``rematch(server, query)`` feeds the two positions' held
    handles to a :class:`NestedMatcher` and returns it finished —
    ``.finish()`` is its lexicographic pairing, ``.stats`` its quadratic
    comparison count."""

    def rematch(server, query) -> NestedMatcher:
        matcher = NestedMatcher()
        sides: tuple[list, list] = ([], [])
        for (position, row), handle in held_handles(server, query).items():
            sides[position].append((row, handle))
        matcher.add_left(sides[0])
        matcher.add_right(sides[1])
        matcher.finish()
        return matcher

    return rematch
