"""Tests for the multi-way join planner and pipelined chain executor.

The contract under test: an n-way chain query decrypts each distinct
``(table, token)`` side exactly once (the per-query handle pool),
evaluates in the left-deep order the candidate counts choose (fewest
first, then toward the smaller neighbour — which builds the fewest
partial tuples on the chains pinned below), streams completed chain
tuples incrementally, and — however the work is ordered, pooled,
cached, sharded or shipped over the wire — the canonical result is
byte-identical to the plaintext :func:`~repro.db.join.chain_join`
ground truth.
"""

from __future__ import annotations

import copy
import itertools
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import EncryptedChainQuery, SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.join import chain_join
from repro.db.predicate import InPredicate
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.bench.costmodel import default_engine_cost_model
from repro.errors import QueryError
from repro.net.client import RemoteJoinClient
from repro.net.server import JoinServiceServer
from repro.net.shard import RemoteShard, ShardServiceServer
from repro.plan import (
    MAX_CHAIN_TABLES,
    ChainExecutor,
    compile_plan,
    group_chain_sides,
)
from repro.series.cache import series_key
from repro.shard import LocalShard, ShardCoordinator, partition_table
from repro.store import wire

KEYS = tuple(range(4))


def _mk(name, n, rng, keys=KEYS):
    return Table(
        name,
        Schema.of(("k", "int"), ("v", "str")),
        [(rng.choice(keys), f"{name}.{i}") for i in range(n)],
    )


def _setup(sizes=(9, 12, 7), seed=17, enable_prefilter=False,
           **server_kwargs):
    """``len(sizes)`` tables T1..Tn over a shared key domain, one server."""
    rng = random.Random(seed)
    tables = [_mk(f"T{i + 1}", n, rng) for i, n in enumerate(sizes)]
    client = SecureJoinClient.for_tables(
        [(t, "k") for t in tables],
        in_clause_limit=1,
        rng=random.Random(seed + 1),
        enable_prefilter=enable_prefilter,
    )
    server = SecureJoinServer(client.params, **server_kwargs)
    for t in tables:
        server.store(client.encrypt_table(t, "k"))
    return client, server, tables


def _chain(client, names, where=None, **kwargs):
    return client.create_chain_query(
        ChainQuery.build([(n, "k") for n in names], where=where), **kwargs
    )


def _drain(generator):
    batches = []
    while True:
        try:
            batches.append(next(generator))
        except StopIteration as stop:
            return batches, stop.value


def _assert_matches_plaintext(client, result, tables, deleted=None):
    """The decrypted result must be byte-identical to chain_join truth.

    ``deleted`` maps table name -> tombstoned indices; chain tuples
    touching a deleted row are dropped from the plaintext reference
    (tombstones never renumber the surviving rows).
    """
    reference = chain_join([t for t in tables], ["k"] * len(tables))
    expected = reference.index_tuples
    if deleted:
        names = [t.name for t in tables]
        expected = [
            combo
            for combo in expected
            if all(
                row not in deleted.get(names[pos], ())
                for pos, row in enumerate(combo)
            )
        ]
    decrypted = client.decrypt_chain_result(result)
    assert decrypted.index_tuples == expected
    rows = [list(t) for t in tables]
    expected_rows = [
        tuple(
            value
            for pos, row in enumerate(combo)
            for value in rows[pos][row]
        )
        for combo in expected
    ]
    assert list(decrypted.table) == expected_rows


# -- planner ---------------------------------------------------------------


class TestPlanner:
    """The rule: fewest candidates first, then toward the neighbour
    with fewer candidates, ties going left."""

    @staticmethod
    def _order(counts):
        return compile_plan(None, counts).order

    def test_starts_at_the_fewest_candidates(self):
        assert self._order([50, 5, 40, 60])[0] == 1
        assert self._order([9, 8, 7, 6, 5])[0] == 4
        # The leftmost of equal minima.
        assert self._order([5, 2, 9, 2])[0] == 1

    def test_extends_toward_the_smaller_neighbour(self):
        assert self._order([50, 5, 40, 60]) == (1, 2, 0, 3)
        assert self._order([10, 70, 3, 20, 30]) == (2, 3, 4, 1, 0)
        assert self._order([4, 6, 29]) == (0, 1, 2)
        assert self._order([12, 30, 8]) == (2, 1, 0)

    def test_ties_go_left(self):
        assert self._order([7, 3, 7]) == (1, 0, 2)
        assert self._order([1, 9, 0, 9, 1]) == (2, 1, 0, 3, 4)

    def test_uniform_cardinalities_keep_chain_order(self):
        for n in range(2, MAX_CHAIN_TABLES + 1):
            assert self._order([30] * n) == tuple(range(n))
            # Unknown counts (a remote shard's) read 0.
            assert self._order([0] * n) == tuple(range(n))

    def test_two_tables_keep_identity(self):
        assert self._order([10, 1]) == (0, 1)

    def test_model_is_not_read(self):
        model = default_engine_cost_model("fast")
        for counts in ([50, 5000, 40], [3, 1, 2, 0]):
            assert compile_plan(model, counts) == compile_plan(None, counts)

    def test_left_deep_orders_are_exhaustive(self):
        # A chain of n tables has 2^(n-1) contiguous left-deep orders,
        # the ones the executor accepts; the work comparison below
        # ranges over all of them.
        for n in (2, 3, 4, 5):
            accepted = []
            for order in itertools.permutations(range(n)):
                try:
                    ChainExecutor(order)
                except QueryError:
                    continue
                accepted.append(order)
            assert len(accepted) == 2 ** (n - 1)
            if n == 3:
                assert sorted(accepted) == list(THREE_TABLE_ORDERS)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.integers(0, 50), min_size=2, max_size=MAX_CHAIN_TABLES
    ))
    def test_compile_plan_nodes_follow_order(self, counts):
        # Node j joins the interval order[:j + 1] with order[j + 1], an
        # end of that interval's neighbourhood.
        plan = compile_plan(None, counts)
        build = {plan.order[0]}
        for probe in plan.order[1:]:
            assert probe not in build
            assert probe in (min(build) - 1, max(build) + 1)
            build.add(probe)
        assert plan.candidates == tuple(counts)
        if len(counts) > 2:
            assert plan.order[0] == counts.index(min(counts))
        assert plan.record() == {
            "stage": "plan",
            "order": list(plan.order),
            "candidates": list(counts),
        }

    def test_compile_plan_rejects_bad_arity(self):
        with pytest.raises(QueryError):
            compile_plan(None, [10])
        with pytest.raises(QueryError):
            compile_plan(None, [10] * (MAX_CHAIN_TABLES + 1))


#: Every contiguous left-deep order of a three-table chain.
THREE_TABLE_ORDERS = ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0))


def _partial_tuples(order, sides) -> int:
    """The partial tuples a :class:`ChainExecutor` builds in ``order``:
    the pairs of every node but the last.  ``sides[p]`` is position
    ``p``'s ``(row, key)`` items."""
    executor = ChainExecutor(order)
    for position in order:
        executor.feed(
            position,
            [(row, repr(key).encode()) for row, key in sides[position]],
        )
    return sum(matcher.stats.matches for matcher in executor.matchers[:-1])


class TestOrderSavesWork:
    """The order a server picks builds the fewest partial tuples of all
    contiguous orders, counted on the plaintext keys of the candidates,
    and the result is still :func:`chain_join`'s."""

    def _check(self, tables, where=None):
        client = SecureJoinClient.for_tables(
            [(t, "k") for t in tables], in_clause_limit=2,
            rng=random.Random(7), enable_prefilter=where is not None,
        )
        with SecureJoinServer(client.params, workers=1) as server:
            for t in tables:
                server.store(client.encrypt_table(t, "k"))
            result = server.execute_chain(
                _chain(client, [t.name for t in tables], where=where)
            )
        predicates = [
            InPredicate("v", sel["v"]) if sel else None
            for sel in where or [None] * len(tables)
        ]
        sides = [
            [
                (row, values[0])
                for row, values in enumerate(table)
                if predicate is None
                or predicate.evaluate(values, table.schema)
            ]
            for table, predicate in zip(tables, predicates)
        ]
        (plan,) = [
            record for record in result.stats.planner
            if record["stage"] == "plan"
        ]
        built = {
            order: _partial_tuples(order, sides)
            for order in THREE_TABLE_ORDERS
        }
        assert built[tuple(plan["order"])] == min(built.values())
        assert plan["candidates"] == [len(side) for side in sides]
        reference = chain_join(tables, ["k"] * len(tables), predicates)
        decrypted = client.decrypt_chain_result(result)
        assert decrypted.index_tuples == reference.index_tuples
        assert list(decrypted.table) == list(reference.table)
        return built, tuple(plan["order"])

    def test_unfiltered_chain(self):
        tables = [
            Table(name, Schema.of(("k", "int"), ("v", "str")),
                  [(i % keys, f"{name}.{i}") for i in range(rows)])
            for name, rows, keys in (
                ("T1", 4, 8), ("T2", 6, 3), ("T3", 29, 2)
            )
        ]
        built, order = self._check(tables)
        assert built == {
            (0, 1, 2): 6, (1, 0, 2): 6, (1, 2, 0): 58, (2, 1, 0): 58,
        }
        assert order == (0, 1, 2)

    def test_prefiltered_chain_with_many_to_many_middle(self):
        # Every key five times in the middle; the right end filtered to
        # two rows, so starting there saves work the identity order does.
        tables = [
            Table(name, Schema.of(("k", "int"), ("v", "str")),
                  [(i % 5, f"{name}.{i}") for i in range(rows)])
            for name, rows in (("T1", 20), ("T2", 25), ("T3", 20))
        ]
        built, order = self._check(
            tables, where=[None, None, {"v": ["T3.0", "T3.7"]}]
        )
        assert built == {
            (0, 1, 2): 100, (1, 0, 2): 100, (1, 2, 0): 10, (2, 1, 0): 10,
        }
        assert order == (2, 1, 0)


# -- executor --------------------------------------------------------------


class TestChainExecutor:
    def test_rejects_non_contiguous_order(self):
        with pytest.raises(QueryError):
            ChainExecutor((0, 2, 1))
        with pytest.raises(QueryError):
            ChainExecutor((0,))
        with pytest.raises(QueryError):
            ChainExecutor((0, 0, 1))

    def test_feed_completes_tuples_incrementally(self):
        executor = ChainExecutor((0, 1, 2))
        assert executor.feed(0, [(0, b"a"), (1, b"b")]) == []
        assert executor.feed(1, [(5, b"a")]) == []
        # Completing the last position surfaces the full chain tuple.
        assert executor.feed(2, [(7, b"a")]) == [(0, 5, 7)]
        # Late increments extend existing partial matches.
        assert executor.feed(2, [(8, b"a")]) == [(0, 5, 8)]
        assert sorted(executor.finish()) == [(0, 5, 7), (0, 5, 8)]

    def test_retract_cascades_and_reinsert_restores(self):
        executor = ChainExecutor((1, 0, 2))
        executor.feed(0, [(0, b"x")])
        executor.feed(1, [(3, b"x")])
        assert executor.feed(2, [(9, b"x")]) == [(0, 3, 9)]
        # Withdrawing the middle row tears down every tuple through it.
        assert executor.retract(1, [3]) == [(0, 3, 9)]
        assert executor.finish() == []
        # Feeding it back completes the same tuple again.
        assert executor.feed(1, [(3, b"x")]) == [(0, 3, 9)]
        assert executor.finish() == [(0, 3, 9)]

    def test_finish_is_canonical_lexicographic(self):
        executor = ChainExecutor((2, 1, 0))
        executor.feed(2, [(1, b"k"), (0, b"k")])
        executor.feed(1, [(4, b"k")])
        executor.feed(0, [(2, b"k"), (1, b"k")])
        assert executor.finish() == [
            (1, 4, 0), (1, 4, 1), (2, 4, 0), (2, 4, 1),
        ]


# -- single-store chain execution ------------------------------------------


class TestChainExecution:
    def test_chain_matches_plaintext_reference(self):
        client, server, tables = _setup()
        with server:
            result = server.execute_chain(_chain(client, ["T1", "T2", "T3"]))
            assert result.tables == ("T1", "T2", "T3")
            assert result.stats.plan_nodes == 2
            assert result.stats.decryptions == 9 + 12 + 7
            _assert_matches_plaintext(client, result, tables)

    def test_streamed_equals_materialized(self):
        client, server, tables = _setup(seed=23)
        with server:
            reference = server.execute_chain(
                _chain(client, ["T1", "T2", "T3"])
            )
            batches, final = _drain(
                server.stream_chain(_chain(client, ["T1", "T2", "T3"]))
            )
            streamed = sorted(
                combo for batch in batches for combo in batch.tuples
            )
            assert streamed == reference.tuples == final.tuples
            assert final.payloads == reference.payloads
            by_tuple = {
                combo: payload
                for batch in batches
                for combo, payload in zip(batch.tuples, batch.payloads)
            }
            assert [by_tuple[c] for c in final.tuples] == final.payloads

    def test_four_way_chain(self):
        client, server, tables = _setup(sizes=(6, 8, 5, 7), seed=31)
        with server:
            result = server.execute_chain(
                _chain(client, ["T1", "T2", "T3", "T4"])
            )
            assert result.stats.plan_nodes == 3
            _assert_matches_plaintext(client, result, tables)

    def test_chain_with_selections_matches_filtered_reference(self):
        client, server, tables = _setup(seed=37, enable_prefilter=True)
        with server:
            picked = tables[1][0][1]  # one live "v" value of T2
            result = server.execute_chain(
                _chain(
                    client,
                    ["T1", "T2", "T3"],
                    where=[None, {"v": [picked]}, None],
                )
            )
        reference = chain_join(
            tables,
            ["k"] * 3,
            [None, InPredicate("v", [picked]), None],
        )
        decrypted = client.decrypt_chain_result(result)
        assert decrypted.index_tuples == reference.index_tuples
        assert list(decrypted.table) == list(reference.table)

    def test_two_table_chain_agrees_with_join(self):
        client, server, tables = _setup(sizes=(9, 12), seed=41)
        with server:
            chain_result = server.execute_chain(_chain(client, ["T1", "T2"]))
            join_result = server.execute_join(
                client.create_query(
                    JoinQuery.build("T1", "T2", on=("k", "k"))
                )
            )
            # One canonical order: the join is the two-table chain.
            assert join_result.tuples == chain_result.tuples
            assert join_result.payloads == chain_result.payloads

    def test_chain_arity_bounds(self):
        client, server, _ = _setup(sizes=(4, 4), seed=43)
        with server:
            with pytest.raises(QueryError):
                ChainQuery.build([("T1", "k")])
            too_long = [("T1", "k"), ("T2", "k")] * 5
            query = client.create_chain_query(ChainQuery.build(too_long))
            with pytest.raises(QueryError):
                server.execute_chain(query)


# -- the per-query handle pool ---------------------------------------------


class TestHandlePool:
    def test_shared_side_decrypted_exactly_once(self):
        client, server, tables = _setup(sizes=(9, 12), seed=47)
        with server:
            query = _chain(client, ["T1", "T2", "T1"])
            assert len(group_chain_sides(
                query, series_key(query, server.scheme.backend)
            )) == 2
            result = server.execute_chain(query)
            assert result.stats.handle_pool_hits == 1
            assert result.stats.decryptions == 9 + 12
        expected = [
            (a, b, c)
            for a, b in chain_join(tables[:2], ["k", "k"]).index_tuples
            for c in range(9)
            if tables[0][c][0] == tables[0][a][0]
        ]
        assert result.tuples == sorted(expected)

    def test_exactly_once_op_counter(self):
        # The acceptance check: a 3-way chain sharing its outer table
        # performs *identical* pairing work to a plain two-way join of
        # the same two sides — the pool decrypts (table, token) sides,
        # not chain positions.
        client, server, _ = _setup(sizes=(9, 12), seed=53)
        ops = server.scheme.backend.ops
        with server:
            before_chain = ops.snapshot()
            server.execute_chain(_chain(client, ["T1", "T2", "T1"]))
            chain_delta = ops.since(before_chain)
            before_join = ops.snapshot()
            server.execute_join(
                client.create_query(
                    JoinQuery.build("T1", "T2", on=("k", "k"))
                )
            )
            join_delta = ops.since(before_join)
        assert chain_delta.snapshot() == join_delta.snapshot()
        assert (
            chain_delta.miller_loops + chain_delta.prepared_miller_loops > 0
        )


# -- chain series cache: replay, delta repair, contention ------------------


class TestChainSeries:
    def test_replay_and_delta_repair(self):
        client, server, tables = _setup(seed=61)
        with server:
            query = _chain(client, ["T1", "T2", "T3"])
            first = server.execute_chain(query)
            replay = server.execute_chain(query)
            assert replay.stats.series_cache_hits == 1
            assert replay.stats.decryptions == 0
            assert replay.tuples == first.tuples
            assert replay.payloads == first.payloads

            # Insert into the middle table: only the delta decrypts.
            new_row = (tables[1][0][0], "T2.new")
            ciphertext, payload, tags = client.encrypt_row_for(
                "T2", new_row
            )
            server.insert_row("T2", ciphertext, payload, tags)
            tables[1].insert(new_row)
            repaired = server.execute_chain(query)
            assert repaired.stats.series_cache_hits == 1
            assert repaired.stats.delta_rows == 1
            assert repaired.stats.decryptions == 1
            _assert_matches_plaintext(client, repaired, tables)

            # Delete from the outer table: retraction, no decryption.
            server.delete_rows("T1", [0])
            shrunk = server.execute_chain(query)
            assert shrunk.stats.series_cache_hits == 1
            assert shrunk.stats.decryptions == 0
            _assert_matches_plaintext(
                client, shrunk, tables, deleted={"T1": {0}}
            )

    def test_contended_entry_falls_through_to_miss(self):
        client, server, tables = _setup(seed=67)
        with server:
            query = _chain(client, ["T1", "T2", "T3"])
            first = server.execute_chain(query)
            cache = server.series_cache
            key = series_key(query, server.scheme.backend)
            entry = cache._entries[key]
            contention_before = cache.stats.lock_contention

            held = threading.Event()
            release = threading.Event()

            def hold_lock():
                with entry.lock:
                    held.set()
                    release.wait(timeout=30.0)

            holder = threading.Thread(target=hold_lock, daemon=True)
            holder.start()
            assert held.wait(timeout=10.0)
            try:
                # The entry is locked by another query: this run must
                # not block behind it — it recomputes from scratch.
                result = server.execute_chain(query)
            finally:
                release.set()
                holder.join(timeout=10.0)
            assert cache.stats.lock_contention == contention_before + 1
            assert result.stats.series_cache_hits == 0
            assert result.stats.decryptions == 9 + 12 + 7
            assert result.tuples == first.tuples
            assert result.payloads == first.payloads


# -- sharded chains --------------------------------------------------------


def _sharded(client, backend, encrypted, n_shards, workers=2):
    shards = [
        LocalShard(client.params, workers=workers, name=f"shard-{i}")
        for i in range(n_shards)
    ]
    for table in encrypted:
        for piece in partition_table(table, backend, n_shards):
            shards[piece.shard.shard_index].store(piece)
    return ShardCoordinator(shards)


def _remote_fleet(endpoints, backend):
    """A coordinator over one :class:`RemoteShard` per endpoint, shard
    ``i`` served at ``endpoints[i]``."""
    return ShardCoordinator([
        RemoteShard(host, port, backend, name=f"shard-{i}@{host}:{port}")
        for i, (host, port) in enumerate(endpoints)
    ])


class TestShardedChains:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_scatter_gather_parity(self, n_shards):
        client, server, tables = _setup(seed=71)
        backend = server.scheme.backend
        encrypted = [copy.deepcopy(server.table(t.name)) for t in tables]
        with server:
            reference = server.execute_chain(
                _chain(client, ["T1", "T2", "T3"])
            )
        with _sharded(client, backend, encrypted, n_shards) as coordinator:
            result = coordinator.execute_chain(
                _chain(client, ["T1", "T2", "T3"])
            )
            assert result.tuples == reference.tuples
            assert result.payloads == reference.payloads
            assert result.stats.shards == n_shards
            assert result.stats.decryptions == 9 + 12 + 7
            batches, final = _drain(
                coordinator.stream_chain(_chain(client, ["T1", "T2", "T3"]))
            )
            streamed = sorted(
                combo for batch in batches for combo in batch.tuples
            )
            assert streamed == reference.tuples
            assert final.tuples == reference.tuples

    def test_sharded_handle_pool(self):
        client, server, tables = _setup(sizes=(9, 12), seed=73)
        backend = server.scheme.backend
        encrypted = [copy.deepcopy(server.table(t.name)) for t in tables]
        with server:
            reference = server.execute_chain(
                _chain(client, ["T1", "T2", "T1"])
            )
        with _sharded(client, backend, encrypted, 2) as coordinator:
            result = coordinator.execute_chain(
                _chain(client, ["T1", "T2", "T1"])
            )
            assert result.stats.handle_pool_hits == 1
            assert result.stats.decryptions == 9 + 12
            assert result.tuples == reference.tuples
            assert result.payloads == reference.payloads

    def test_sharded_chain_series(self):
        """A chain through the coordinator replays and delta-repairs
        like the single store's, byte-identically to it."""
        client, server, tables = _setup(seed=127)
        backend = server.scheme.backend
        encrypted = [copy.deepcopy(server.table(t.name)) for t in tables]
        query = _chain(client, ["T1", "T2", "T3"])

        def assert_same_as_single_store(result):
            reference = server.execute_chain(query)
            assert result.tuples == reference.tuples
            assert result.payloads == reference.payloads

        with server, _sharded(client, backend, encrypted, 2) as coordinator:
            assert_same_as_single_store(coordinator.execute_chain(query))
            replay = coordinator.execute_chain(query)
            assert replay.stats.series_cache_hits == 1
            assert replay.stats.decryptions == 0
            assert_same_as_single_store(replay)

            inserted = [(tables[1][0][0], "T2.a"), (tables[1][1][0], "T2.b")]
            for row in inserted:
                encrypted_row = client.encrypt_row_for("T2", row)
                coordinator.insert_row("T2", *encrypted_row)
                server.insert_row("T2", *encrypted_row)
            repaired = coordinator.execute_chain(query)
            assert repaired.stats.series_cache_hits == 1
            assert repaired.stats.delta_rows == len(inserted)
            assert repaired.stats.decryptions == len(inserted)
            assert_same_as_single_store(repaired)

            assert coordinator.delete_rows("T1", [0]) == 1
            server.delete_rows("T1", [0])
            shrunk = coordinator.execute_chain(query)
            assert shrunk.stats.series_cache_hits == 1
            assert shrunk.stats.decryptions == 0
            assert_same_as_single_store(shrunk)

    def test_remote_fleet_serves_chains(self):
        """Two remote shards behind one coordinator answer chains
        byte-identically to the single store — the scatter frames are
        positional, so no code on that path knows how many tables a
        query names."""
        client, server, tables = _setup(seed=79)
        backend = server.scheme.backend
        encrypted = [copy.deepcopy(server.table(t.name)) for t in tables]
        shards = [
            LocalShard(client.params, workers=2, name=f"s{i}")
            for i in range(2)
        ]
        for table in encrypted:
            for piece in partition_table(table, backend, 2):
                shards[piece.shard.shard_index].store(piece)
        services = [ShardServiceServer(shard) for shard in shards]
        endpoints = [service.start() for service in services]
        try:
            with server, _remote_fleet(endpoints, backend) as coordinator:
                for names in (["T1", "T2", "T3"], ["T1", "T2", "T1"]):
                    query = _chain(client, names)
                    reference = server.execute_chain(query)
                    result = coordinator.execute_chain(query)
                    assert result.tables == reference.tables
                    assert result.tuples == reference.tuples
                    assert result.payloads == reference.payloads
                    assert result.stats.shards == 2
                    assert (
                        result.stats.decryptions
                        == reference.stats.decryptions
                    )
                    batches, final = _drain(coordinator.stream_chain(query))
                    assert final.tuples == reference.tuples
                    assert final.payloads == reference.payloads
                    assert sorted(
                        combo for batch in batches for combo in batch.tuples
                    ) == reference.tuples
                # The pooled side of T1 ⋈ T2 ⋈ T1 was decrypted once per
                # shard: the pairing work of the two-table chain.
                assert result.stats.handle_pool_hits == 1
                two_way = coordinator.execute_chain(
                    _chain(client, ["T1", "T2"])
                )
                assert result.stats.miller_loops == two_way.stats.miller_loops
                assert result.stats.decryptions == 9 + 12
        finally:
            for service in services:
                service.shutdown()

    def test_remote_fleet_joins(self):
        client, server, tables = _setup(sizes=(8, 6), seed=83)
        backend = server.scheme.backend
        encrypted = [copy.deepcopy(server.table(t.name)) for t in tables]
        with server:
            reference = server.execute_join(
                client.create_query(
                    JoinQuery.build("T1", "T2", on=("k", "k"))
                )
            )
        shards = [
            LocalShard(client.params, workers=2, name=f"s{i}")
            for i in range(2)
        ]
        for table in encrypted:
            for piece in partition_table(table, backend, 2):
                shards[piece.shard.shard_index].store(piece)
        services = [ShardServiceServer(shard) for shard in shards]
        endpoints = [service.start() for service in services]
        try:
            with _remote_fleet(endpoints, backend) as coordinator:
                result = coordinator.execute_join(
                    client.create_query(
                        JoinQuery.build("T1", "T2", on=("k", "k"))
                    )
                )
                assert result.tuples == reference.tuples
                assert result.payloads == reference.payloads
        finally:
            for service in services:
                service.shutdown()


# -- chain queries over the wire (frames: tests/test_wire_fuzz.py) ---------


class TestChainWire:
    def test_query_round_trip_preserves_results_and_pooling(self):
        client, server, _ = _setup(sizes=(9, 12), seed=89)
        backend = server.scheme.backend
        with server:
            query = _chain(
                client, ["T1", "T2", "T1"], priority=2, deadline=30.0
            )
            decoded = wire.decode_join_query(
                wire.encode_join_query(query, backend), backend
            )
            assert decoded == query
            reference = server.execute_chain(query)
            # Token bytes survive the round trip, so the decoded query
            # still dedups its shared side (and replays the series).
            server.series_cache.clear()
            result = server.execute_chain(decoded)
            assert result.stats.handle_pool_hits == 1
            assert result.tuples == reference.tuples
            assert result.payloads == reference.payloads


# -- the remote chain path -------------------------------------------------


class TestRemoteChains:
    def test_remote_chain_end_to_end(self):
        client, server, tables = _setup(seed=109)
        backend = server.scheme.backend
        reference = server.execute_chain(_chain(client, ["T1", "T2", "T3"]))
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, backend) as remote:
                stream = remote.stream_chain(
                    _chain(client, ["T1", "T2", "T3"])
                )
                batches, result = _drain(stream)
                assert result.tuples == reference.tuples
                assert result.payloads == reference.payloads
                streamed = sorted(
                    combo for batch in batches for combo in batch.tuples
                )
                assert streamed == reference.tuples
                _assert_matches_plaintext(client, result, tables)
                # Two-way and chain queries interleave on one connection.
                join_result = remote.execute_join(
                    client.create_query(
                        JoinQuery.build("T1", "T2", on=("k", "k"))
                    )
                )
                assert join_result.tuples
                again = remote.execute_chain(
                    _chain(client, ["T1", "T2", "T3"])
                )
                assert again.tuples == reference.tuples

    def test_remote_chain_error_reported_in_band(self):
        client, server, _ = _setup(sizes=(4, 3), seed=113)
        backend = server.scheme.backend
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, backend) as remote:
                bogus = _chain(client, ["T1", "T2"])
                bogus = type(bogus)(
                    query_id=bogus.query_id,
                    tables=("T1", "Nope"),
                    tokens=bogus.tokens,
                    prefilters=bogus.prefilters,
                )
                with pytest.raises(QueryError):
                    remote.execute_chain(bogus)
                # The connection survives an error frame.
                ok = remote.execute_chain(_chain(client, ["T1", "T2"]))
                assert ok.tables == ("T1", "T2")


# -- property-based coverage ----------------------------------------------


@st.composite
def _chain_workload(draw):
    n_base = draw(st.integers(min_value=2, max_value=3))
    sizes = [
        draw(st.integers(min_value=2, max_value=6)) for _ in range(n_base)
    ]
    length = draw(st.integers(min_value=3, max_value=4))
    positions = [
        draw(st.integers(min_value=0, max_value=n_base - 1))
        for _ in range(length)
    ]
    seed = draw(st.integers(min_value=0, max_value=2**20))
    mutate_table = draw(st.integers(min_value=0, max_value=n_base - 1))
    insert_key = draw(st.integers(min_value=0, max_value=3))
    delete = draw(st.booleans())
    return sizes, positions, seed, mutate_table, insert_key, delete


class TestChainProperties:
    @settings(max_examples=8, deadline=None)
    @given(_chain_workload())
    def test_random_chains_with_mutations(self, workload):
        sizes, positions, seed, mutate_table, insert_key, delete = workload
        rng = random.Random(seed)
        base = [_mk(f"B{i}", n, rng) for i, n in enumerate(sizes)]
        client = SecureJoinClient.for_tables(
            [(t, "k") for t in base],
            in_clause_limit=1,
            rng=random.Random(seed + 1),
        )
        server = SecureJoinServer(client.params)
        for t in base:
            server.store(client.encrypt_table(t, "k"))
        names = [base[p].name for p in positions]
        chain_tables = [base[p] for p in positions]
        with server:
            query = _chain(client, names)
            first = server.execute_chain(query)
            _assert_matches_plaintext(client, first, chain_tables)

            # Mutate one base table, then repair the same series and
            # re-derive from scratch: all three views must agree.
            victim = base[mutate_table]
            new_row = (insert_key, f"{victim.name}.new")
            ciphertext, payload, tags = client.encrypt_row_for(
                victim.name, new_row
            )
            server.insert_row(victim.name, ciphertext, payload, tags)
            victim.insert(new_row)
            deleted: dict[str, set[int]] = {}
            if delete and sizes[mutate_table] > 1:
                server.delete_rows(victim.name, [0])
                deleted[victim.name] = {0}

            repaired = server.execute_chain(query)
            assert repaired.stats.series_cache_hits == 1
            _assert_matches_plaintext(
                client, repaired, chain_tables, deleted=deleted
            )
            fresh = server.execute_chain(_chain(client, names))
            assert fresh.tuples == repaired.tuples
            assert fresh.payloads == repaired.payloads

    @settings(max_examples=6, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=2, max_value=6), min_size=2, max_size=3
        ),
        n_shards=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_sharded_chains_match_single_store(self, sizes, n_shards, seed):
        rng = random.Random(seed)
        base = [_mk(f"S{i}", n, rng) for i, n in enumerate(sizes)]
        client = SecureJoinClient.for_tables(
            [(t, "k") for t in base],
            in_clause_limit=1,
            rng=random.Random(seed + 1),
        )
        server = SecureJoinServer(client.params)
        encrypted = [client.encrypt_table(t, "k") for t in base]
        for table in encrypted:
            server.store(copy.deepcopy(table))
        names = [t.name for t in base] + [base[0].name]
        with server:
            reference = server.execute_chain(_chain(client, names))
        backend = client.scheme.backend
        with _sharded(client, backend, encrypted, n_shards) as coordinator:
            result = coordinator.execute_chain(_chain(client, names))
            assert result.tuples == reference.tuples
            assert result.payloads == reference.payloads

    @settings(max_examples=10, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        right_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_join_is_the_two_table_chain(self, left_keys, right_keys, seed):
        schema = Schema.of(("k", "int"), ("v", "str"))
        left = Table("L", schema, [(k, f"l{i}") for i, k in enumerate(left_keys)])
        right = Table(
            "R", schema, [(k, f"r{i}") for i, k in enumerate(right_keys)]
        )
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")],
            in_clause_limit=1,
            rng=random.Random(seed),
        )
        encrypted = [
            client.encrypt_table(left, "k"), client.encrypt_table(right, "k")
        ]
        join_query = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k"))
        )
        # The same tokens, presented as a chain.
        chain_query = EncryptedChainQuery(
            query_id=join_query.query_id,
            tables=join_query.tables,
            tokens=join_query.tokens,
            prefilters=join_query.prefilters,
        )
        # No series cache: both must execute, not replay one another.
        with SecureJoinServer(client.params, series_cache_bytes=0) as server:
            for table in encrypted:
                server.store(table)
            joined = server.execute_join(join_query)
            chained = server.execute_chain(chain_query)
        pairs = [
            (i, j)
            for j, rk in enumerate(right_keys)
            for i, lk in enumerate(left_keys)
            if lk == rk
        ]
        # One answer order and one result type for both entry points.
        assert type(joined) is type(chained)
        assert joined.tuples == chained.tuples == sorted(pairs)
        assert joined.payloads == chained.payloads
        for counter in (
            "miller_loops",
            "prepared_miller_loops",
            "final_exponentiations",
            "decryptions",
            "probes",
            "comparisons",
            "plan_nodes",
            "handle_pool_hits",
        ):
            assert getattr(joined.stats, counter) == getattr(
                chained.stats, counter
            )
