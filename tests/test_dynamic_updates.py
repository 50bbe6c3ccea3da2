"""Tests for dynamic inserts and deletes on encrypted tables.

Every test runs on a single store (``TestInsert`` / ``TestDelete``) and
again on a two-shard fleet (the ``…OnAFleet`` subclasses): a store and a
fleet keep one write contract."""

from __future__ import annotations

import random

import pytest

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError, SchemaError
from repro.shard import LocalShard, ShardCoordinator, partition_table


class _OnAStore:
    """Builds the host a test writes to: a single store."""

    def _setup(self, enable_prefilter=False, seed=31):
        left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                     [(1, "x"), (2, "y")])
        right = Table("R", Schema.of(("k", "int"), ("d", "str")),
                      [(1, "p"), (2, "q")])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")],
            in_clause_limit=2,
            rng=random.Random(seed),
            enable_prefilter=enable_prefilter,
        )
        server = self._host(client)
        self._store(server, client.encrypt_table(left, "k"))
        self._store(server, client.encrypt_table(right, "k"))
        return client, server

    def _host(self, client):
        return SecureJoinServer(client.params)

    def _store(self, host, encrypted) -> None:
        host.store(encrypted)


class _OnAFleet(_OnAStore):
    """Builds the host a test writes to: two shards, one coordinator."""

    def _host(self, client):
        return ShardCoordinator([
            LocalShard(client.params, workers=1, name=f"shard-{index}")
            for index in range(2)
        ])

    def _store(self, host, encrypted) -> None:
        for piece in partition_table(encrypted, host.backend, 2):
            host.shards[piece.shard.shard_index].store(piece)


def _join_pairs(client, server, **where):
    query = JoinQuery.build("L", "R", on=("k", "k"), **where)
    return sorted(
        server.execute_join(client.create_query(query)).tuples
    )


class TestInsert(_OnAStore):
    def test_inserted_row_joins(self):
        client, server = self._setup()
        assert _join_pairs(client, server) == [(0, 0), (1, 1)]
        ciphertext, payload, tags = client.encrypt_row_for("R", (1, "r"))
        index = server.insert_row("R", ciphertext, payload, tags)
        assert index == 2
        assert _join_pairs(client, server) == [(0, 0), (0, 2), (1, 1)]

    def test_inserted_row_decrypts_in_results(self):
        client, server = self._setup()
        ciphertext, payload, tags = client.encrypt_row_for("L", (3, "new"))
        server.insert_row("L", ciphertext, payload, tags)
        ciphertext, payload, tags = client.encrypt_row_for("R", (3, "match"))
        server.insert_row("R", ciphertext, payload, tags)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(client.create_query(query))
        decrypted = client.decrypt_chain_result(result)
        assert (3, "new", 3, "match") in decrypted.table.rows()

    def test_insert_with_prefilter_updates_index(self):
        client, server = self._setup(enable_prefilter=True)
        ciphertext, payload, tags = client.encrypt_row_for("R", (1, "p"))
        server.insert_row("R", ciphertext, payload, tags)
        pairs = _join_pairs(client, server, where_right={"d": ["p"]})
        assert pairs == [(0, 0), (0, 2)]

    def test_insert_missing_tags_rejected(self):
        client, server = self._setup(enable_prefilter=True)
        ciphertext, payload, _ = client.encrypt_row_for("R", (1, "p"))
        with pytest.raises(QueryError):
            server.insert_row("R", ciphertext, payload, None)

    @pytest.mark.parametrize("store", ["raw", "prepared"])
    def test_a_rejected_insert_leaves_no_row(self, store):
        """An insert refused for its tags changes nothing: no
        ciphertext, payload or prepared row is appended, the version
        stays, and an unfiltered join sees no ghost row."""
        client, server = self._setup(enable_prefilter=True)
        pieces = [shard.table("R") for shard in server.shards]
        if store == "prepared":
            for shard in server.shards:
                shard.prepare_table("R")
        ciphertext, payload, _ = client.encrypt_row_for("R", (1, "p"))
        with pytest.raises(QueryError):
            server.insert_row("R", ciphertext, payload, None)
        assert sum(len(table.ciphertexts) for table in pieces) == 2
        assert sum(len(table.payloads) for table in pieces) == 2
        for table in pieces:
            assert [len(tags) for tags in table.prefilter_tags.values()] == [
                len(table.ciphertexts)
            ]
            if store == "prepared":
                assert len(table.prepared_rows) == len(table.ciphertexts)
        assert max(shard.row_end("R") for shard in server.shards) == 2
        assert server.table_version("R") == 0
        assert _join_pairs(client, server) == [(0, 0), (1, 1)]

    def test_insert_invalid_row_rejected(self):
        client, server = self._setup()
        with pytest.raises(SchemaError):
            client.encrypt_row_for("R", ("not-an-int", "p"))

    def test_insert_into_unknown_table(self):
        client, server = self._setup()
        ciphertext, payload, tags = client.encrypt_row_for("R", (1, "r"))
        with pytest.raises(QueryError):
            server.insert_row("Ghost", ciphertext, payload, tags)


class TestInsertOnAFleet(_OnAFleet, TestInsert):
    pass


class TestDelete(_OnAStore):
    def test_deleted_row_stops_joining(self):
        client, server = self._setup()
        assert server.delete_rows("R", [0, 0]) == 1
        assert _join_pairs(client, server) == [(1, 1)]

    def test_delete_then_insert(self):
        client, server = self._setup()
        server.delete_rows("L", [0])
        ciphertext, payload, tags = client.encrypt_row_for("L", (1, "again"))
        server.insert_row("L", ciphertext, payload, tags)
        assert _join_pairs(client, server) == [(1, 1), (2, 0)]

    def test_delete_out_of_range(self):
        client, server = self._setup()
        with pytest.raises(QueryError):
            server.delete_rows("L", [99])

    def test_a_rejected_delete_tombstones_nothing(self):
        """A delete refused for one index out of range tombstones none
        of the others: the version stays, and a re-submitted cached
        query agrees with a fresh one."""
        client, server = self._setup()
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        assert server.execute_join(query).tuples == [(0, 0), (1, 1)]
        with pytest.raises(QueryError):
            server.delete_rows("R", [0, 99])
        assert server.tombstoned_rows("R") == frozenset()
        assert server.table_version("R") == 0
        replay = server.execute_join(query)
        assert replay.stats.series_cache_hits == 1
        assert replay.tuples == [(0, 0), (1, 1)]
        assert _join_pairs(client, server) == [(0, 0), (1, 1)]

    def test_delete_reduces_decryptions(self):
        client, server = self._setup()
        query = JoinQuery.build("L", "R", on=("k", "k"))
        before = server.execute_join(client.create_query(query))
        server.delete_rows("R", [0, 1])
        after = server.execute_join(client.create_query(query))
        assert after.stats.decryptions < before.stats.decryptions
        assert after.stats.matches == 0

    def test_restored_table_has_no_deleted_rows(self):
        # A table replaced wholesale is a new table: the old one's
        # tombstones must not hide (or, on a shard, mis-index) its rows.
        client, server = self._setup()
        server.delete_rows("L", [0])
        assert _join_pairs(client, server) == [(1, 1)]
        left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                     [(1, "x"), (2, "y")])
        self._store(server, client.encrypt_table(left, "k"))
        assert server.tombstoned_rows("L") == frozenset()
        assert _join_pairs(client, server) == [(0, 0), (1, 1)]

    def test_delete_idempotent(self):
        client, server = self._setup()
        server.delete_rows("R", [0])
        server.delete_rows("R", [0])
        assert _join_pairs(client, server) == [(1, 1)]


class TestDeleteOnAFleet(_OnAFleet, TestDelete):
    pass
