"""Tests for dynamic inserts and deletes on encrypted tables."""

from __future__ import annotations

import random

import pytest

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError, SchemaError


def _setup(enable_prefilter=False, seed=31):
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
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


def _join_pairs(client, server, **where):
    query = JoinQuery.build("L", "R", on=("k", "k"), **where)
    return sorted(
        server.execute_join(client.create_query(query)).index_pairs
    )


class TestInsert:
    def test_inserted_row_joins(self):
        client, server = _setup()
        assert _join_pairs(client, server) == [(0, 0), (1, 1)]
        ciphertext, payload, tags = client.encrypt_row_for("R", (1, "r"))
        index = server.insert_row("R", ciphertext, payload, tags)
        assert index == 2
        assert _join_pairs(client, server) == [(0, 0), (0, 2), (1, 1)]

    def test_inserted_row_decrypts_in_results(self):
        client, server = _setup()
        ciphertext, payload, tags = client.encrypt_row_for("L", (3, "new"))
        server.insert_row("L", ciphertext, payload, tags)
        ciphertext, payload, tags = client.encrypt_row_for("R", (3, "match"))
        server.insert_row("R", ciphertext, payload, tags)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(client.create_query(query))
        decrypted = client.decrypt_result(result)
        assert (3, "new", 3, "match") in decrypted.table.rows()

    def test_insert_with_prefilter_updates_index(self):
        client, server = _setup(enable_prefilter=True)
        ciphertext, payload, tags = client.encrypt_row_for("R", (1, "p"))
        server.insert_row("R", ciphertext, payload, tags)
        pairs = _join_pairs(client, server, where_right={"d": ["p"]})
        assert pairs == [(0, 0), (0, 2)]

    def test_insert_missing_tags_rejected(self):
        client, server = _setup(enable_prefilter=True)
        ciphertext, payload, _ = client.encrypt_row_for("R", (1, "p"))
        with pytest.raises(QueryError):
            server.insert_row("R", ciphertext, payload, None)

    def test_insert_invalid_row_rejected(self):
        client, server = _setup()
        with pytest.raises(SchemaError):
            client.encrypt_row_for("R", ("not-an-int", "p"))

    def test_insert_into_unknown_table(self):
        client, server = _setup()
        ciphertext, payload, tags = client.encrypt_row_for("R", (1, "r"))
        with pytest.raises(QueryError):
            server.insert_row("Ghost", ciphertext, payload, tags)


class TestDelete:
    def test_deleted_row_stops_joining(self):
        client, server = _setup()
        server.delete_rows("R", [0])
        assert _join_pairs(client, server) == [(1, 1)]

    def test_delete_then_insert(self):
        client, server = _setup()
        server.delete_rows("L", [0])
        ciphertext, payload, tags = client.encrypt_row_for("L", (1, "again"))
        server.insert_row("L", ciphertext, payload, tags)
        assert _join_pairs(client, server) == [(1, 1), (2, 0)]

    def test_delete_out_of_range(self):
        client, server = _setup()
        with pytest.raises(QueryError):
            server.delete_rows("L", [99])

    def test_delete_reduces_decryptions(self):
        client, server = _setup()
        query = JoinQuery.build("L", "R", on=("k", "k"))
        before = server.execute_join(client.create_query(query))
        server.delete_rows("R", [0, 1])
        after = server.execute_join(client.create_query(query))
        assert after.stats.decryptions < before.stats.decryptions
        assert after.stats.matches == 0

    def test_restored_table_has_no_deleted_rows(self):
        # A table replaced wholesale is a new table: the old one's
        # tombstones must not hide (or, on a shard, mis-index) its rows.
        client, server = _setup()
        server.delete_rows("L", [0])
        assert _join_pairs(client, server) == [(1, 1)]
        left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                     [(1, "x"), (2, "y")])
        server.store(client.encrypt_table(left, "k"))
        assert server.tombstoned_rows("L") == frozenset()
        assert _join_pairs(client, server) == [(0, 0), (1, 1)]

    def test_delete_idempotent(self):
        client, server = _setup()
        server.delete_rows("R", [0])
        server.delete_rows("R", [0])
        assert _join_pairs(client, server) == [(1, 1)]
