"""Abandoning a stream after its first batch, on every path of the drive.

One drive serves every entry point, so one contract must hold for
{single store, shard fleet} x {two-way join, 3-table chain} x {cold run,
replay, delta refresh whose delta spans several chunks}: closing the
stream releases every pool admission, leaks no process or descriptor,
links in the host's ledger exactly what the abandoned run computed, and
leaves the series entry in a state from which the same query still
completes byte-identically to a from-scratch answer.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import random

import pytest

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.shard import LocalShard, ShardCoordinator, partition_table
from tests.conftest import PoolEngine

ROWS = 120
KEYS = 40
#: More than two pooled chunks per shard and side.
DELTA = 160


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd"
    ) else -1


def _tables(names):
    return [
        Table(
            name,
            Schema.of(("k", "int"), ("v", "str")),
            [(i % KEYS, f"{name}.{i}") for i in range(ROWS)],
        )
        for name in names
    ]


def _build(sharded: bool, names):
    """``(client, host, pools, reference)``: the host under test and a
    cache-less single store that mirrors every mutation."""
    tables = _tables(names)
    client = SecureJoinClient.for_tables(
        [(t, "k") for t in tables], in_clause_limit=1, rng=random.Random(5)
    )
    encrypted = [client.encrypt_table(t, "k") for t in tables]
    reference = SecureJoinServer(client.params, series_cache_bytes=0)
    for table in encrypted:
        reference.store(copy.deepcopy(table))
    if not sharded:
        host = SecureJoinServer(
            client.params, engine=PoolEngine(),
            workers=2,
        )
        for table in encrypted:
            host.store(table)
        return client, host, [host.execution_service], reference
    shards = [
        LocalShard(
            client.params, engine=PoolEngine(),
            workers=2, name=f"s{i}",
        )
        for i in range(2)
    ]
    backend = reference.scheme.backend
    for table in encrypted:
        for piece in partition_table(table, backend, 2):
            shards[piece.shard.shard_index].store(piece)
    pools = [shard.execution_service for shard in shards]
    return client, ShardCoordinator(shards), pools, reference


def _nodes(host) -> set:
    """Every row the host's ledger has linked to another."""
    return {node for cls in host.ledger.classes() for node in cls}


def _identical(result, expected) -> bool:
    return (result.tuples, result.payloads) == (
        expected.tuples, expected.payloads
    )


@pytest.mark.parametrize("phase", ["cold", "replay", "delta"])
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("sharded", [False, True], ids=["store", "fleet"])
def test_close_after_first_batch(sharded, arity, phase):
    children_before = len(multiprocessing.active_children())
    fds_before = _open_fds()
    names = ["T1", "T2", "T3"][:arity]
    client, host, pools, reference = _build(sharded, names)
    try:
        if arity == 2:
            query = client.create_query(
                JoinQuery.build("T1", "T2", on=("k", "k"))
            )
            stream_of, execute = host.stream_join, host.execute_join
            execute_reference = reference.execute_join
        else:
            query = client.create_chain_query(
                ChainQuery.build([(name, "k") for name in names])
            )
            stream_of, execute = host.stream_chain, host.execute_chain
            execute_reference = reference.execute_chain
        if phase != "cold":
            execute(query)
        if phase == "delta":
            for i in range(DELTA):
                row = client.encrypt_row_for("T2", (i % KEYS, f"new.{i}"))
                host.insert_row("T2", *row)
                reference.insert_row("T2", *row)

        linked = _nodes(host)
        stream = stream_of(query)
        first = next(stream)
        stream.close()
        assert first.tuples
        assert [pool.active_sides for pool in pools] == [0] * len(pools)
        # A cold run's first batch needed handles, and keys repeat, so
        # the partial feed linked rows; a hit's first batch is retained
        # tuples, streamed before any source is opened, so nothing new
        # was computed and nothing was linked.
        if phase == "cold":
            assert _nodes(host) > linked
        else:
            assert _nodes(host) == linked

        # The abandoned run left nothing half-done behind: the same
        # query completes, and equals a from-scratch answer.
        assert _identical(execute(query), execute_reference(query))
        assert [pool.active_sides for pool in pools] == [0] * len(pools)
    finally:
        host.close()
        reference.close()
    assert len(multiprocessing.active_children()) == children_before
    assert _open_fds() == fds_before
