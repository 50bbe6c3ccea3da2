"""A two-way join is the two-table chain, on every deployment.

Over random tables and selections, a two-table query answers the same
tuples and payloads — in ``chain_join``'s lexicographic order — from
``execute_join``, from ``execute_chain`` on the same encrypted query and
from the drained ``stream_join``, on an in-process server, a fleet of
two in-process shards on the shared pool, and a remote client of a join
service.  A self-join without selections is one side under one token,
served to its second position from the handle pool; with a selection,
each position has a token of its own, since under a shared one a row
the selection rejects would join itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.join import chain_join
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.net import JoinServiceServer, RemoteJoinClient
from repro.shard import LocalShard, ShardCoordinator
from repro.shard.partition import partition_table
from tests.conftest import server_shape

VALUES = "xyz"


def _drain(stream):
    batches = []
    while True:
        try:
            batches.append(next(stream))
        except StopIteration as stop:
            return batches, stop.value


def _in_process(client, encrypted):
    server = SecureJoinServer(
        client.params, workers=1, series_cache_bytes=None
    )
    for table in encrypted:
        server.store(table)
    return server


def _fleet(client, encrypted):
    backend = client.scheme.backend
    shards = [
        LocalShard(client.params, **server_shape("pooled", batch_size=2))
        for _ in range(2)
    ]
    for table in encrypted:
        for piece in partition_table(table, backend, 2):
            shards[piece.shard.shard_index].store(piece)
    return ShardCoordinator(shards, series_cache_bytes=None)


class _Remote:
    """A remote client of a join service over an in-process server."""

    def __init__(self, client, encrypted):
        self.service = JoinServiceServer(_in_process(client, encrypted))
        host, port = self.service.start()
        self.remote = RemoteJoinClient(host, port, client.scheme.backend)
        self.stream_join = self.remote.stream_join
        self.execute_join = self.remote.execute_join
        self.execute_chain = self.remote.execute_chain

    def close(self):
        self.remote.close()
        self.service.shutdown()


DEPLOYMENTS = (_in_process, _fleet, _Remote)


def _selection():
    return st.one_of(
        st.none(),
        st.lists(st.sampled_from(VALUES), min_size=1, max_size=2, unique=True),
    )


@st.composite
def _cases(draw):
    rows = st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(VALUES)), max_size=8
    )
    left = Table("L", Schema.of(("k", "int"), ("a", "str")), draw(rows))
    right = Table("R", Schema.of(("k", "int"), ("a", "str")), draw(rows))
    shape = draw(st.sampled_from(["pair", "self-equal", "self-other"]))
    where_left = draw(_selection())
    where_right = draw(_selection())
    if shape != "pair":
        right = left
        if shape == "self-equal":
            where_right = where_left
    return left, right, shape, where_left, where_right, draw(
        st.integers(0, 2**16)
    )


@pytest.mark.parametrize(
    "deploy", DEPLOYMENTS, ids=["server", "fleet", "remote"]
)
@settings(max_examples=20, deadline=None)
@given(case=_cases())
def test_every_entry_point_answers_the_two_table_chain(deploy, case):
    left, right, shape, where_left, where_right, seed = case
    tables = [left] if right is left else [left, right]
    client = SecureJoinClient.for_tables(
        [(table, "k") for table in tables],
        in_clause_limit=2,
        rng=random.Random(seed),
    )
    encrypted = [client.encrypt_table(table, "k") for table in tables]
    plain = JoinQuery.build(
        left.name, right.name, on=("k", "k"),
        where_left={"a": where_left} if where_left else None,
        where_right={"a": where_right} if where_right else None,
    )
    query = client.create_query(plain)
    reference = chain_join(
        [left, right],
        ["k", "k"],
        [
            plain.left_selection.to_predicate(),
            plain.right_selection.to_predicate(),
        ],
    )
    shared = right is left and not (where_left or where_right)
    assert (query.tokens[0] is query.tokens[1]) == shared
    host = deploy(client, encrypted)
    try:
        joined = host.execute_join(query)
        chained = host.execute_chain(query)
        batches, streamed = _drain(host.stream_join(query))
    finally:
        host.close()
    assert joined.tuples == reference.index_tuples
    assert chained.tuples == streamed.tuples == joined.tuples
    assert chained.payloads == streamed.payloads == joined.payloads
    assert sorted(
        pair
        for batch in batches
        for pair in zip(batch.tuples, batch.payloads)
    ) == list(zip(joined.tuples, joined.payloads))
    decrypted = client.decrypt_chain_result(joined)
    assert decrypted.table.schema == reference.table.schema
    assert decrypted.table.rows() == reference.table.rows()
    for result in (joined, chained, streamed):
        assert result.stats.plan_nodes == 1
        assert result.stats.handle_pool_hits == int(shared)


def test_a_self_chain_under_a_selection_joins_only_selected_rows():
    table = Table(
        "L", Schema.of(("k", "int"), ("a", "str")),
        [(1, "x"), (1, "y"), (2, "x"), (1, "y")],
    )
    client = SecureJoinClient.for_tables(
        [(table, "k")], in_clause_limit=2, rng=random.Random(3)
    )
    server = _in_process(client, [client.encrypt_table(table, "k")])
    with server:
        for arity in (2, 3):
            plain = ChainQuery.build(
                [("L", "k")] * arity, where=[{"a": ["y"]}] * arity
            )
            query = client.create_chain_query(plain)
            assert len(set(map(id, query.tokens))) == arity
            reference = chain_join(
                [table] * arity,
                ["k"] * arity,
                [s.to_predicate() for s in plain.selections],
            )
            result = server.execute_chain(query)
            assert result.tuples == reference.index_tuples
            assert len(result.tuples) == 2 ** arity
