"""A stored row is checked once, at its write, and a side that reads
every row of a table or piece is lent the store's own lists.

The contracts under test:

- **checked at the write** — :meth:`LocalShard.store` refuses a table
  holding a row of another dimension than the scheme's before anything
  is replaced (the stored table, its epoch and its series entries stay
  as they were), and :meth:`LocalShard.insert_row` refuses such a row
  before anything is appended, and refuses any row into a table object
  another store has written to;
- **lent** — a side with no pre-filter, tombstone or exclusion hands
  the engine the store's own list of SJ.Dec vectors, on a whole table
  and on a piece, and a piece's side names the store's own global rows;
- **the lent list follows the store** — after an insert, a delete,
  ``prepare_table`` and a second ``store``, a cold query's handles are
  SJ.Dec of the rows the store holds then, row by row, and a prepared
  table's rows replay prepared Miller loops.
"""

from __future__ import annotations

import random

import pytest

from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.scheme import SJRowCiphertext
from repro.core.server import SecureJoinServer
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import SchemeError
from repro.shard import LocalShard, ShardCoordinator
from repro.shard.partition import partition_table
from tests.conftest import SERVER_SHAPES, held_handles, server_shape

JOIN = JoinQuery.build("L", "R", on=("k", "k"))


class _SpyEngine(BatchedEngine):
    """The one engine, recording the vectors every side hands it."""

    def __init__(self):
        super().__init__()
        self.sides = []

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        self.sides.append(ciphertext_vectors)
        return super().decrypt_stream(
            backend, token_elements, ciphertext_vectors, qos
        )


def _client(seed=23):
    """A pre-filtering client over ``L`` (6 rows) and ``R`` (5 rows)."""
    left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                 [(i % 3, f"a{i}") for i in range(6)])
    right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                  [(i % 4, f"b{i}") for i in range(5)])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=2,
        rng=random.Random(seed), enable_prefilter=True,
    )
    return client, (left, right)


def _short(ciphertext: SJRowCiphertext) -> SJRowCiphertext:
    """The row with its last element dropped: one short of the scheme."""
    return SJRowCiphertext(ciphertext.elements[:-1])


class TestRowsAreCheckedAtTheWrite:
    def test_store_refuses_a_short_row_and_keeps_what_was_stored(self):
        client, tables = _client()
        with SecureJoinServer(client.params, workers=1) as server:
            for table in tables:
                server.store(client.encrypt_table(table, "k"))
            query = client.create_query(JOIN)
            first = server.execute_join(query)
            stored = server.table("L")
            epoch = server.table_epoch("L")
            entries = dict(server.series_cache._entries)
            assert entries

            bad = client.encrypt_table(tables[0], "k")
            bad.ciphertexts[3] = _short(bad.ciphertexts[3])
            with pytest.raises(SchemeError, match="dimension"):
                server.store(bad)

            assert server.table("L") is stored
            assert server.table_epoch("L") == epoch
            assert server.series_cache._entries == entries
            replay = server.execute_join(query)
            assert replay.stats.series_cache_hits == 1
            assert replay.stats.decryptions == 0
            assert replay.tuples == first.tuples

    def test_a_first_refused_store_leaves_the_store_empty(self):
        client, tables = _client()
        bad = client.encrypt_table(tables[0], "k")
        bad.ciphertexts[0] = _short(bad.ciphertexts[0])
        with LocalShard(client.params, workers=1) as store:
            with pytest.raises(SchemeError, match="dimension"):
                store.store(bad)
            assert not store.holds("L")
            assert store.layout is None

    @pytest.mark.parametrize("prepared", [False, True])
    def test_insert_refuses_a_short_row_and_changes_nothing(self, prepared):
        client, tables = _client()
        with SecureJoinServer(client.params, workers=1) as server:
            for table in tables:
                server.store(client.encrypt_table(table, "k"))
            if prepared:
                server.prepare_table("L")
            table = server.table("L")

            def state():
                return (
                    list(table.ciphertexts),
                    list(table.payloads),
                    {c: list(t) for c, t in table.prefilter_tags.items()},
                    None if table.prepared_rows is None
                    else list(table.prepared_rows),
                    server.table_version("L"),
                    server.shards[0].row_end("L"),
                )

            before = state()
            ciphertext, payload, tags = client.encrypt_row_for("L", (1, "x"))
            with pytest.raises(SchemeError, match="dimension"):
                server.insert_row("L", _short(ciphertext), payload, tags)
            assert state() == before

            # The refused row left no trace a later query could read.
            assert server.insert_row("L", ciphertext, payload, tags) == 6
            result = server.execute_join(client.create_query(JOIN))
            assert result.stats.candidates_left == 7


    def test_insert_refuses_a_table_another_store_wrote_to(self):
        client, tables = _client()
        shared = [client.encrypt_table(table, "k") for table in tables]
        with SecureJoinServer(client.params, workers=1) as writer, \
                SecureJoinServer(client.params, workers=1) as other:
            for server in (writer, other):
                for table in shared:
                    server.store(table)
            writer.insert_row("L", *client.encrypt_row_for("L", (1, "x")))
            row = client.encrypt_row_for("L", (2, "y"))
            with pytest.raises(SchemeError, match="outside this store"):
                other.insert_row("L", *row)
            assert len(shared[0].ciphertexts) == 7
            assert other.table_version("L") == 0


class TestSidesAreLent:
    def test_a_whole_table_side_is_the_stores_own_list(self):
        client, tables = _client()
        engine = _SpyEngine()
        with SecureJoinServer(
            client.params, engine=engine, workers=1
        ) as server:
            for table in tables:
                server.store(client.encrypt_table(table, "k"))
            store = server.shards[0]
            server.execute_join(client.create_query(JOIN))
            lent = [store._vectors["L"], store._vectors["R"]]
            assert len(engine.sides) == 2
            assert all(
                any(side is own for own in lent) for side in engine.sides
            )

            # A tombstone makes the side a list of its own, without it.
            server.delete_rows("L", [2])
            engine.sides.clear()
            server.execute_join(client.create_query(JOIN))
            right = store._vectors["R"]
            [left] = [side for side in engine.sides if side is not right]
            assert left is not store._vectors["L"]
            assert left == [
                vector for row, vector in enumerate(store._vectors["L"])
                if row != 2
            ]

    def test_a_piece_side_is_the_stores_own_lists(self):
        client, tables = _client()
        encrypted = [client.encrypt_table(table, "k") for table in tables]
        query = client.create_query(JOIN)
        pieces = partition_table(encrypted[0], client.scheme.backend, 2)
        for piece in pieces:
            engine = _SpyEngine()
            with LocalShard(client.params, engine=engine, workers=1) as store:
                store.store(piece)
                rows, stream = store.open_side_stream("L", query.tokens[0])
                stream.close()
                assert engine.sides == [store._vectors["L"]]
                assert engine.sides[0] is store._vectors["L"]
                assert rows is store._global_rows["L"]
                assert list(rows) == list(piece.shard.global_indices)


def _expected(stores, query, name, position):
    """``{(position, row): handle}`` by SJ.Dec of every live row the
    ``stores`` hold of table ``name``, computed one row at a time."""
    expected = {}
    token = query.tokens[position]
    for store in stores:
        table = store.table(name)
        doomed = store.tombstoned_rows(name)
        for row in range(store.row_end(name)):
            local = store.local_row(name, row)
            if local is None or row in doomed:
                continue
            handle = store.scheme.decrypt(token, table.ciphertexts[local])
            expected[(position, row)] = handle.to_bytes()
    return expected


class TestTheLentListFollowsTheStore:
    """Each step's query is fresh, so it decrypts every live row."""

    @staticmethod
    def _check(host, stores, client):
        query = client.create_query(JOIN)
        result = host.execute_join(query)
        assert result.stats.series_cache_hits == 0
        expected = {
            **_expected(stores, query, "L", 0),
            **_expected(stores, query, "R", 1),
        }
        assert held_handles(host, query) == expected
        return result

    @pytest.mark.parametrize("shape", SERVER_SHAPES)
    def test_one_store(self, shape):
        client, tables = _client()
        with SecureJoinServer(client.params, **server_shape(shape)) as server:
            for table in tables:
                server.store(client.encrypt_table(table, "k"))
            stores = server.shards
            self._check(server, stores, client)
            server.insert_row("L", *client.encrypt_row_for("L", (2, "n")))
            self._check(server, stores, client)
            server.delete_rows("L", [1, 6])
            self._check(server, stores, client)
            assert server.prepare_table("L") == 7
            stats = self._check(server, stores, client).stats
            dimension = client.params.dimension
            assert stats.prepared_miller_loops == 5 * dimension
            assert stats.miller_loops == 5 * dimension
            server.insert_row("L", *client.encrypt_row_for("L", (0, "m")))
            stats = self._check(server, stores, client).stats
            assert stats.prepared_miller_loops == 6 * dimension
            server.store(client.encrypt_table(tables[0], "k"))
            stats = self._check(server, stores, client).stats
            assert stats.prepared_miller_loops == 0
            assert stats.miller_loops == 11 * dimension

    def test_a_fleet_of_pieces(self):
        client, tables = _client()
        backend = client.scheme.backend
        stores = [LocalShard(client.params, workers=1) for _ in range(2)]

        def store_all():
            for table in tables:
                encrypted = client.encrypt_table(table, "k")
                for store, piece in zip(
                    stores, partition_table(encrypted, backend, 2)
                ):
                    store.store(piece)

        store_all()
        with ShardCoordinator(stores) as fleet:
            self._check(fleet, stores, client)
            fleet.insert_row("L", *client.encrypt_row_for("L", (2, "n")))
            self._check(fleet, stores, client)
            fleet.delete_rows("L", [0, 6])
            self._check(fleet, stores, client)
            for store in stores:
                store.prepare_table("R")
            stats = self._check(fleet, stores, client).stats
            dimension = client.params.dimension
            assert stats.prepared_miller_loops == 5 * dimension
            assert stats.miller_loops == 5 * dimension
            store_all()
            stats = self._check(fleet, stores, client).stats
            assert stats.prepared_miller_loops == 0
            assert stats.miller_loops == 11 * dimension
