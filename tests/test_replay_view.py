"""What a re-submitted query keeps from the refreshes before it.

A replay's answer is the one the retained executor finished last time,
and a refresh feeds the executor only the rows it holds no handle for.
That is only sound if the executor's held handles follow the tables: the
contract pinned here is that a delete withdraws its rows from the held
handles, a finished refresh holds every live selected row, an abandoned
refresh resumes by decrypting exactly the rows it had not reached, and a
feed or a retraction invalidates the finished answer — on a single store
and on a fleet.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.plan.executor as executor_module
from repro.core.client import EncryptedChainQuery, SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.db.matcher import get_matcher
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.plan import ChainExecutor
from repro.series.cache import series_key
from repro.shard import LocalShard, ShardCoordinator
from repro.shard.partition import partition_table

SCHEMA = Schema.of(("k", "int"), ("v", "str"))
NAMES = ("T1", "T2", "T3")
KEYS = 3


def _tables(sizes=(5, 6, 4)):
    return [
        Table(name, SCHEMA, [(i % KEYS, f"{name}.{i}") for i in range(size)])
        for name, size in zip(NAMES, sizes)
    ]


def _client(tables, seed=29):
    return SecureJoinClient.for_tables(
        [(table, "k") for table in tables],
        in_clause_limit=1,
        rng=random.Random(seed),
    )


class _Store:
    """A single store; two-row chunks, so a refresh can be abandoned
    between chunks."""

    def __init__(self, client, tables):
        self.client = client
        self.host = SecureJoinServer(
            client.params, engine=BatchedEngine(batch_size=2)
        )
        for table in tables:
            self.restore(table)

    def restore(self, table) -> None:
        self.host.store(self.client.encrypt_table(table, "k"))

    def size(self, name) -> int:
        return len(self.host.table(name))

    def close(self) -> None:
        self.host.close()


class _Fleet:
    """Two in-process shards behind a coordinator."""

    def __init__(self, client, tables):
        self.client = client
        self.shards = [
            LocalShard(
                client.params,
                engine=BatchedEngine(batch_size=2),
                workers=1,
                name=f"shard-{index}",
            )
            for index in range(2)
        ]
        for table in tables:
            self.restore(table)
        self.host = ShardCoordinator(self.shards)

    def restore(self, table) -> None:
        encrypted = self.client.encrypt_table(table, "k")
        backend = self.shards[0].backend
        for piece in partition_table(encrypted, backend, len(self.shards)):
            self.shards[piece.shard.shard_index].store(piece)

    def size(self, name) -> int:
        return max(s.row_end(name) for s in self.shards)

    def close(self) -> None:
        self.host.close()


def _held(host, query) -> int:
    """How many handles ``query``'s entry holds, over all positions."""
    entry = host.series_cache._entries[series_key(query, host.backend)]
    return entry.reused_handles()


def _queries(client):
    """A pair query, a three-table chain, and the pair's tokens again as
    a two-table chain (which shares the pair's entry)."""
    pair = client.create_query(JoinQuery.build("T1", "T2", on=("k", "k")))
    chain = client.create_chain_query(
        ChainQuery.build([(name, "k") for name in NAMES])
    )
    same_tokens = EncryptedChainQuery(
        query_id=pair.query_id,
        tables=pair.tables,
        tokens=pair.tokens,
        prefilters=pair.prefilters,
    )
    return [pair, chain, same_tokens]


def _submit(host, query, batches: int = 0):
    """Run ``query`` to completion and return its result — or, with
    ``batches``, close its stream after that many batches (``None``)."""
    pair = hasattr(query, "left_table")
    stream = (host.stream_join if pair else host.stream_chain)(query)
    try:
        while True:
            next(stream)
            batches -= 1
            if not batches:
                stream.close()
                return None
    except StopIteration as stop:
        return stop.value


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["query", "query", "abandon", "insert", "delete", "store"]
        ),
        st.integers(0, 2),
        st.integers(0, 50),
    ),
    min_size=2,
    max_size=12,
)


class TestHeldHandles:
    @pytest.mark.parametrize("deployment", [_Store, _Fleet])
    @settings(max_examples=25, deadline=None)
    @given(ops=OPS)
    def test_any_interleaving(self, deployment, ops):
        tables = _tables()
        client = _client(tables)
        deployed = deployment(client, tables)
        queries = _queries(client)
        host = deployed.host
        try:
            for kind, which, value in ops:
                name = NAMES[which]
                if kind == "insert":
                    row = (value % KEYS, f"{name}.new{value}")
                    host.insert_row(name, *client.encrypt_row_for(name, row))
                elif kind == "delete":
                    host.delete_rows(name, [value % deployed.size(name)])
                elif kind == "store":
                    deployed.restore(tables[which])
                if kind not in ("query", "abandon"):
                    continue
                query = queries[which]
                key = series_key(query, host.backend)
                result = _submit(
                    host, query, batches=1 if kind == "abandon" else 0
                )
                entry = host.series_cache._entries.get(key)
                if entry is None:
                    # Only a cold run that never finished leaves none.
                    assert result is None
                    continue
                for position, table_name in enumerate(query.tables):
                    held = entry.executor.handles[position].keys()
                    dead = host.tombstoned_rows(table_name)
                    # A deleted row leaves the held handles ...
                    assert not held & dead
                    if result is not None:
                        # ... and a finished refresh holds every live
                        # row (these queries select them all).
                        size = deployed.size(table_name)
                        assert held == set(range(size)) - dead
        finally:
            deployed.close()

    @pytest.mark.parametrize("deployment", [_Store, _Fleet])
    def test_a_delete_withdraws_an_abandoned_refresh_resumes(
        self, deployment
    ):
        """The same contract, walked by hand once."""
        tables = _tables()
        client = _client(tables)
        deployed = deployment(client, tables)
        pair = _queries(client)[0]
        host = deployed.host
        try:
            key = series_key(pair, host.backend)
            host.execute_join(pair)
            host.execute_join(pair)
            replay = host.execute_join(pair)
            assert replay.stats.engine == "series"
            entry = host.series_cache._entries[key]
            assert _held(host, pair) == 5 + 6

            # A delete withdraws its row from the next hit's handles,
            # without decrypting anything.
            host.delete_rows("T1", [1])
            stale = host.execute_join(pair)
            assert stale.stats.decryptions == 0
            assert 1 not in entry.executor.handles[0]
            assert _held(host, pair) == 4 + 6

            # Abandon a refresh after its first new increment (the first
            # batch is the retained answer): the executor holds what it
            # was fed so far, and the next query decrypts exactly the
            # rows it had left.
            for value in range(4):
                row = (value % KEYS, f"T2.late{value}")
                host.insert_row("T2", *client.encrypt_row_for("T2", row))
            assert _submit(host, pair, batches=2) is None
            partial = _held(host, pair)
            assert 4 + 6 < partial < 4 + 6 + 4
            result = host.execute_join(pair)
            assert result.stats.decryptions == 4 + 6 + 4 - partial
            assert _held(host, pair) == 4 + 6 + 4
        finally:
            deployed.close()


class TestFinishedAnswerIsMemoized:
    def test_matcher_finish_is_lexicographic(self):
        # The matcher keeps no sorted state: each call sorts its pairs
        # into the two-table chain's order, after feeds and retractions
        # alike (the executor memoizes the answer a replay reads).
        matcher = get_matcher("hash")
        matcher.add_left([(0, b"x"), (1, b"y"), (2, b"x")])
        matcher.add_right([(1, b"x"), (0, b"y")])
        expected = [(0, 1), (1, 0), (2, 1)]
        first = matcher.finish()
        assert first == expected
        first.clear()
        assert matcher.finish() == expected
        matcher.add_left([(3, b"y")])
        assert matcher.finish() == [(0, 1), (1, 0), (2, 1), (3, 0)]

    def test_matcher_retraction_keeps_order_and_never_fakes_it(self):
        matcher = get_matcher("hash")
        matcher.add_left([(0, b"x"), (1, b"x"), (2, b"x")])
        matcher.add_right([(1, b"x"), (0, b"x")])
        matcher.finish()
        matcher.retract_left([1])
        assert matcher.finish() == [(0, 0), (0, 1), (2, 0), (2, 1)]
        # A pair list that grew and shrank back to its old length is
        # answered in order too.
        matcher.add_left([(1, b"x"), (3, b"x")])
        matcher.retract_left([0, 2])
        assert len(matcher.pairs) == 4
        assert matcher.finish() == [(1, 0), (1, 1), (3, 0), (3, 1)]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0), (1, 0, 2), (1, 2, 0)])
    def test_executor_expands_and_sorts_only_after_a_change(
        self, order, monkeypatch
    ):
        calls = []

        def counting_sorted(iterable):
            calls.append(1)
            return sorted(iterable)

        monkeypatch.setattr(
            executor_module, "sorted", counting_sorted, raising=False
        )
        sides = [
            [(row, bytes([row % 2])) for row in range(size)]
            for size in (4, 3, 5)
        ][:len(order)]

        def reference(held):
            fresh = ChainExecutor(order)
            for position in order:
                fresh.feed(position, held[position])
            return fresh.finish()

        def finish(executor):
            """``(answer, how many times it sorted)``."""
            before = len(calls)
            return executor.finish(), len(calls) - before

        executor = ChainExecutor(order)
        for position in order:
            executor.feed(position, sides[position])
        answer, sorts = finish(executor)
        assert answer == reference(sides) and answer and sorts == 1
        # Nothing fed, nothing retracted: same answer, no second sort,
        # and each call's list is the caller's own.
        again, sorts = finish(executor)
        assert again == answer and again is not answer and sorts == 0
        again.clear()
        assert finish(executor) == (answer, 0)
        charged = executor.retained_bytes()

        late = [(9, bytes([1]))]
        executor.feed(order[-1], late)
        sides[order[-1]] = sides[order[-1]] + late
        fed, sorts = finish(executor)
        assert fed == reference(sides) and len(fed) > len(answer)
        assert sorts == 1 and finish(executor) == (fed, 0)
        assert executor.retained_bytes() > charged

        executor.retract(order[0], [0, 2])
        sides[order[0]] = [
            item for item in sides[order[0]] if item[0] not in (0, 2)
        ]
        shrunk, sorts = finish(executor)
        assert shrunk == reference(sides) and len(shrunk) < len(fed)
        assert sorts == 1
        # A retraction that withdraws nothing changes nothing.
        executor.retract(order[0], [0, 2])
        assert finish(executor) == (shrunk, 0)

    def test_the_memo_is_charged_to_the_entry(self):
        chained = ChainExecutor((0, 1))
        three = ChainExecutor((0, 1, 2))
        for executor in (chained, three):
            for position in range(executor.arity):
                executor.feed(position, [(r, b"h") for r in range(3)])
        baseline = chained.retained_bytes()
        # The lexicographic order of a two-table chain is a second list
        # over the same nine pair objects: a slot each.
        assert len(chained.finish()) == 9
        assert chained.retained_bytes() == baseline + 9 * 8
        assert chained.finish()[0] is chained.matchers[0].pairs[0]
        # A longer chain's tuples are expanded objects of their own.
        before = three.retained_bytes()
        assert len(three.finish()) == 27
        assert three.retained_bytes() == before + 27 * (8 + 40 + 8 * 3)

    def test_pair_and_chain_replay_in_one_order(self):
        # Keys laid out so that right-major and lexicographic differ:
        # only the lexicographic order is ever answered.
        tables = _tables()
        client = _client(tables)
        with SecureJoinServer(client.params) as server:
            for table in tables:
                server.store(client.encrypt_table(table, "k"))
            pair, _, same_tokens = _queries(client)
            cold = server.execute_join(pair)
            as_chain = server.execute_chain(same_tokens)
            as_pair = server.execute_join(pair)
            again = server.execute_chain(same_tokens)
            assert len(server.series_cache) == 1
            assert server.series_cache.stats.replays == 3
            for replay in (as_chain, as_pair, again):
                assert replay.stats.engine == "series"
                assert replay.tuples == cold.tuples
                assert replay.payloads == cold.payloads
            assert cold.tuples == sorted(cold.tuples)
            right_major = sorted(cold.tuples, key=lambda t: (t[1], t[0]))
            assert cold.tuples != right_major

            # A feed invalidates the finished answer for both.
            server.insert_row(
                "T2", *client.encrypt_row_for("T2", (0, "T2.late"))
            )
            grown = server.execute_join(pair)
            grown_chain = server.execute_chain(same_tokens)
            assert len(grown.tuples) > len(cold.tuples)
            assert grown.tuples == grown_chain.tuples == sorted(grown.tuples)
            assert grown.payloads == grown_chain.payloads
