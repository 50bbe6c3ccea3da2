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
  table's rows replay prepared Miller loops;
- **a pre-filtered side is read chunk by chunk** — opening one reads
  none of its vectors or global rows; inline, each chunk reads its own,
  and pooled, admission reads each vector once;
- **candidates** — over random insert / delete / re-store schedules, on
  one store and on a fleet of two pieces, a one-tag, an IN or a
  two-column pre-filter lets through exactly the rows the per-row tags
  select, ascending, and every answer is the plaintext join's.
"""

from __future__ import annotations

import random
from contextlib import closing

import pytest

from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.scheme import SJRowCiphertext
from repro.core.server import SecureJoinServer
from repro.db.join import hash_join
from repro.db.predicate import AndPredicate, InPredicate
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import SchemeError
from repro.shard import LocalShard, ShardCoordinator
from repro.shard.partition import partition_table
from tests.conftest import (
    SERVER_SHAPES,
    PoolEngine,
    held_handles,
    server_shape,
)

JOIN = JoinQuery.build("L", "R", on=("k", "k"))


class _SpyEngine(PoolEngine):
    """The one engine — on a store two workers wide, pooling every side
    of two rows or more — recording the vectors every side hands it
    and, once ``counter`` is set, how many it had given out by then."""

    def __init__(self):
        super().__init__()
        self.sides = []
        self.counter = None
        self.reads_at_open = []

    def decrypt_stream(
        self, backend, token_elements, ciphertext_vectors, qos=None
    ):
        self.sides.append(ciphertext_vectors)
        if self.counter is not None:
            self.reads_at_open.append(self.counter.reads)
        return super().decrypt_stream(
            backend, token_elements, ciphertext_vectors, qos
        )


class _ReadCounter(list):
    """A store's list standing in for its own, counting the items read
    from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.reads += len(item) if isinstance(key, slice) else 1
        return item


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

            # A tombstone makes the side a view of the list without it.
            server.delete_rows("L", [2])
            engine.sides.clear()
            server.execute_join(client.create_query(JOIN))
            right = store._vectors["R"]
            [left] = [side for side in engine.sides if side is not right]
            assert left is not store._vectors["L"]
            assert list(left) == [
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


def _where_a(*values):
    """``L ⋈ R`` with ``L.a IN ("a{v}" for v in values)``: ``L.a`` is
    ``"a{row mod 3}"``, so one value lets rows through all along the
    table."""
    return JoinQuery.build(
        "L", "R", on=("k", "k"), where_left={"a": [f"a{v}" for v in values]}
    )


def _mod_client():
    """Like :func:`_client`, with ``L.a`` = ``"a{row mod 3}"`` (12
    rows), so a pre-filter lets several rows through: ``(client,
    encrypted L)``."""
    left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                 [(i % 4, f"a{i % 3}") for i in range(12)])
    right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                  [(i % 4, f"b{i}") for i in range(5)])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=2,
        rng=random.Random(5), enable_prefilter=True,
    )
    client.encrypt_table(right, "k")
    return client, client.encrypt_table(left, "k")


class TestAPrefilteredSideIsReadChunkByChunk:
    """Opening a pre-filtered side gathers nothing: the store lends its
    lists through the candidates, and the engine reads them."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
    @pytest.mark.parametrize(
        "values,deleted", [((1,), ()), ((1, 2), ()), ((1,), (4,))],
        ids=["one tag", "in", "tombstoned"],
    )
    def test_opening_reads_no_vector(self, workers, values, deleted):
        client, encrypted = _mod_client()
        engine = _SpyEngine()
        with LocalShard(client.params, engine=engine, workers=workers) \
                as store:
            store.store(encrypted)
            store.delete_rows("L", deleted)
            counter = store._vectors["L"] = _ReadCounter(store._vectors["L"])
            engine.counter = counter
            query = client.create_query(_where_a(*values))
            rows, stream = store.open_side_stream(
                "L", query.tokens[0], query.prefilters[0]
            )
            with closing(stream):
                expected = [
                    row for row in range(12)
                    if row % 3 in values and row not in deleted
                ]
                assert list(rows) == expected
                # The store read nothing before handing the side over.
                assert engine.reads_at_open == [0]
                first = next(stream)
                if workers == 1:
                    assert counter.reads == len(first.handles) == 1
                chunks = [first, *stream]
            assert stream.report.selected == (
                "parallel" if workers == 2 else ""
            )
            # Every candidate's vector was read once, inline per chunk
            # and pooled by admission's one pass.
            assert counter.reads == len(expected)
            assert sum(len(chunk.handles) for chunk in chunks) == len(rows)

    def test_a_pieces_global_rows_are_read_per_chunk(self):
        client, encrypted = _mod_client()
        query = client.create_query(_where_a(1, 2))
        pieces = partition_table(encrypted, client.scheme.backend, 2)
        for piece in pieces:
            with LocalShard(client.params, workers=1) as store:
                store.store(piece)
                own = store._global_rows["L"]
                counter = store._global_rows["L"] = _ReadCounter(own)
                rows, stream = store.open_side_stream(
                    "L", query.tokens[0], query.prefilters[0]
                )
                with closing(stream):
                    assert counter.reads == 0
                    read = []
                    for chunk in stream:
                        stop = chunk.start + len(chunk.handles)
                        read.extend(rows[chunk.start:stop])
                        assert counter.reads == stop
                assert read == [row for row in own if row % 3 in (1, 2)]

    def test_a_one_tag_side_ends_where_it_opened(self):
        """The one-tag candidates are the store's own postings list: an
        insert while the side streams appends past its end."""
        client, encrypted = _mod_client()
        with LocalShard(client.params, workers=1) as store:
            store.store(encrypted)
            query = client.create_query(_where_a(1))
            rows, stream = store.open_side_stream(
                "L", query.tokens[0], query.prefilters[0]
            )
            with closing(stream):
                first = next(stream)
                ciphertext, payload, tags = client.encrypt_row_for(
                    "L", (1, "a1")
                )
                store.insert_row("L", ciphertext, payload, tags, 12)
                chunks = [first, *stream]
            assert list(rows) == [1, 4, 7, 10]
            assert sum(len(chunk.handles) for chunk in chunks) == 4


# -- candidates over random schedules -------------------------------------

#: The selections a schedule draws from: one tag, an IN clause, and two
#: columns (the second an IN clause).
_WHERE = (
    {"a": [1]},
    {"a": [0, 2]},
    {"a": [1, 2], "b": [0]},
)


def _schedule_client(seed):
    """``L`` (k, a, b) and ``R`` (k, c), every non-join column tagged."""
    rng = random.Random(seed)
    left = Table(
        "L", Schema.of(("k", "int"), ("a", "int"), ("b", "int")),
        [(rng.randrange(4), rng.randrange(3), rng.randrange(2))
         for _ in range(14)],
    )
    right = Table(
        "R", Schema.of(("k", "int"), ("c", "int")),
        [(rng.randrange(4), rng.randrange(3)) for _ in range(9)],
    )
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=2,
        rng=random.Random(seed), enable_prefilter=True,
    )
    return client, left, right


def _old_candidates(store, name, prefilter):
    """What the store let through before it lent its postings: the
    per-row tags' set of matches, intersected across columns, sorted,
    in global rows, tombstones dropped."""
    table = store.table(name)
    survivors = None
    for column, allowed in prefilter.items():
        matching = {
            row for row, tag in enumerate(table.prefilter_tags[column])
            if tag in allowed
        }
        survivors = matching if survivors is None else survivors & matching
    global_rows = store._global_rows.get(name)
    doomed = store.tombstoned_rows(name)
    rows = [
        row if global_rows is None else global_rows[row]
        for row in sorted(survivors)
    ]
    return [row for row in rows if row not in doomed]


class TestCandidatesOverRandomSchedules:
    """Inserts, deletes and re-stores in a seeded random order; every
    query's candidates are checked against the per-row tags on each
    store, and its answer against the plaintext join."""

    @staticmethod
    def _run(seed, host, stores, store_all):
        client, left, right = _schedule_client(seed)
        rng = random.Random(seed)
        plain = {"L": list(left.rows()), "R": list(right.rows())}
        deleted = {"L": set(), "R": set()}
        schemas = {"L": left.schema, "R": right.schema}

        def restore(name):
            plain[name] = [
                row for i, row in enumerate(plain[name])
                if i not in deleted[name]
            ]
            deleted[name] = set()
            store_all(client.encrypt_table(
                Table(name, schemas[name], plain[name]), "k"
            ))

        for name in ("L", "R"):
            restore(name)
        asked = []
        for _ in range(24):
            step = rng.random()
            name = rng.choice(("L", "R"))
            live = [
                i for i in range(len(plain[name])) if i not in deleted[name]
            ]
            if step < 0.3:
                row = (rng.randrange(4), rng.randrange(3)) + (
                    (rng.randrange(2),) if name == "L" else ()
                )
                host.insert_row(name, *client.encrypt_row_for(name, row))
                plain[name].append(row)
                continue
            if step < 0.45 and live:
                doomed = rng.sample(live, min(len(live), rng.randrange(1, 3)))
                host.delete_rows(name, doomed)
                deleted[name].update(doomed)
                continue
            if step < 0.55:
                restore(name)
                continue
            if asked and step < 0.7:
                # A re-submission: a delta refresh excludes held rows.
                query, selections = rng.choice(asked)
            else:
                selections = (
                    rng.choice(_WHERE),
                    {"c": [rng.randrange(3)]} if step > 0.9 else None,
                )
                query = client.create_query(JoinQuery.build(
                    "L", "R", on=("k", "k"), where_left=selections[0],
                    where_right=selections[1],
                ))
                asked.append((query, selections))
            for position, name in enumerate(("L", "R")):
                prefilter = query.prefilters[position]
                if prefilter is None:
                    continue
                for store in stores:
                    rows, stream = store.open_side_stream(
                        name, query.tokens[position], prefilter
                    )
                    stream.close()
                    assert list(rows) == _old_candidates(
                        store, name, prefilter
                    )
            result = host.execute_join(query)
            reference = hash_join(
                Table("L", schemas["L"], plain["L"]),
                Table("R", schemas["R"], plain["R"]),
                "k", "k",
                *(
                    where and AndPredicate(*(
                        InPredicate(column, values)
                        for column, values in where.items()
                    ))
                    for where in selections
                ),
            )
            pairs = [
                (i, j) for i, j in reference.index_pairs
                if i not in deleted["L"] and j not in deleted["R"]
            ]
            assert result.tuples == pairs
            decrypted = client.decrypt_chain_result(result)
            assert decrypted.table.rows() == [
                plain["L"][i] + plain["R"][j] for i, j in pairs
            ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", SERVER_SHAPES)
    def test_one_store(self, seed, shape):
        with SecureJoinServer(
            _schedule_client(seed)[0].params, **server_shape(shape)
        ) as server:
            self._run(seed, server, server.shards, server.store)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_fleet_of_two_pieces(self, seed):
        params = _schedule_client(seed)[0].params
        stores = [LocalShard(params, workers=1) for _ in range(2)]

        def store_all(encrypted):
            backend = stores[0].backend
            for store, piece in zip(
                stores, partition_table(encrypted, backend, 2)
            ):
                store.store(piece)

        with ShardCoordinator(stores) as fleet:
            self._run(seed, fleet, stores, store_all)
