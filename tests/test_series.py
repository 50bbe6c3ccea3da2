"""Tests for the query-series cache and delta-maintained joins.

The contract under test: re-submitting the *same* encrypted query
replays the cached canonical result with zero pairing work; base-table
mutations are repaired by decrypting only the delta; and every cached
or delta-maintained answer is byte-identical to a from-scratch join on
a cache-less server holding the same tables.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SerialEngine
from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.series.cache import SeriesCache, SeriesEntry, series_key
from repro.shard import LocalShard, ShardCoordinator
from repro.shard.partition import partition_table
from repro.store.wire import decode_frame, encode_final_frame
from tests.conftest import SERVER_SHAPES, PoolEngine, server_shape

LEFT_ROWS = [(1, "a0"), (2, "a1"), (3, "a2"), (2, "a3")]
RIGHT_ROWS = [(2, "b0"), (3, "b1"), (4, "b2")]


def _setup(seed=41, series_cache_bytes=None, enable_prefilter=False,
           left_rows=LEFT_ROWS, right_rows=RIGHT_ROWS, **server_kwargs):
    """Two small joined tables on one server; default cache budget."""
    left = Table("L", Schema.of(("k", "int"), ("a", "str")), left_rows)
    right = Table("R", Schema.of(("k", "int"), ("b", "str")), right_rows)
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=2,
        rng=random.Random(seed),
        enable_prefilter=enable_prefilter,
    )
    if series_cache_bytes is not None:
        server_kwargs["series_cache_bytes"] = series_cache_bytes
    server = SecureJoinServer(client.params, **server_kwargs)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


def _query(client, **kwargs):
    return client.create_query(
        JoinQuery.build("L", "R", on=("k", "k")), **kwargs
    )


def _mirror(client, server, **built):
    """A cache-less server, built with ``built``'s arguments, holding
    deep copies of ``server``'s tables."""
    mirror = SecureJoinServer(client.params, series_cache_bytes=0, **built)
    for name in ("L", "R"):
        mirror.store(copy.deepcopy(server.table(name)))
    for name in ("L", "R"):
        doomed = server.tombstoned_rows(name)
        if doomed:
            mirror.delete_rows(name, sorted(doomed))
    return mirror


def _assert_identical(result, reference):
    assert result.tuples == reference.tuples
    assert result.payloads == reference.payloads
    assert result.stats.matches == reference.stats.matches


def _drain(generator):
    batches = []
    while True:
        try:
            batches.append(next(generator))
        except StopIteration as stop:
            return batches, stop.value


# -- the series key -------------------------------------------------------


class TestSeriesKey:
    def test_same_query_same_key(self):
        client, server = _setup()
        backend = server.scheme.backend
        query = _query(client)
        assert series_key(query, backend) == series_key(query, backend)
        server.close()

    def test_fresh_tokens_fresh_key(self):
        # create_query draws fresh randomness, so two submissions of the
        # same plaintext query are distinct series: the cache must not
        # (and cannot) conflate them.
        client, server = _setup()
        backend = server.scheme.backend
        assert series_key(_query(client), backend) != series_key(
            _query(client), backend
        )
        server.close()


# -- warm replay ----------------------------------------------------------


class TestWarmReplay:
    def test_replay_runs_zero_pairing_ops(self):
        client, server = _setup()
        ops = server.scheme.backend.ops
        query = _query(client)
        cold = server.execute_join(query)
        snapshot = ops.snapshot()
        warm = server.execute_join(query)
        since = ops.since(snapshot)
        assert since.miller_loops == 0
        assert since.prepared_miller_loops == 0
        assert since.final_exponentiations == 0
        assert warm.stats.decryptions == 0
        assert warm.stats.series_cache_hits == 1
        assert warm.stats.delta_rows == 0
        assert warm.stats.reused_handles == (
            cold.stats.candidates_left + cold.stats.candidates_right
        )
        assert warm.stats.engine == "series"
        _assert_identical(warm, cold)
        assert server.series_cache.stats.replays == 1
        server.close()

    def test_streamed_replay_matches_materialized(self):
        client, server = _setup()
        query = _query(client)
        cold = server.execute_join(query)
        batches, warm = _drain(server.stream_join(query))
        streamed = sorted(
            pair for batch in batches for pair in batch.tuples
        )
        assert streamed == sorted(cold.tuples)
        _assert_identical(warm, cold)
        server.close()

    def test_replay_is_byte_identical_to_scratch(self):
        client, server = _setup()
        query = _query(client)
        server.execute_join(query)
        warm = server.execute_join(query)
        scratch = _mirror(client, server)
        _assert_identical(warm, scratch.execute_join(query))
        scratch.close()
        server.close()

    def test_disabled_cache_never_hits(self):
        client, server = _setup(series_cache_bytes=0)
        assert server.series_cache is None
        query = _query(client)
        first = server.execute_join(query)
        second = server.execute_join(query)
        assert second.stats.series_cache_hits == 0
        assert second.stats.decryptions == first.stats.decryptions
        server.close()


# -- delta maintenance ----------------------------------------------------


class TestDeltaMaintenance:
    def test_insert_of_k_rows_decrypts_exactly_k_rows(self):
        client, server = _setup()
        ops = server.scheme.backend.ops
        query = _query(client)
        server.execute_join(query)
        inserted = [(2, "new0"), (5, "new1"), (3, "new2")]
        for row in inserted:
            server.insert_row("R", *client.encrypt_row_for("R", row))
        dimension = len(server.table("R").ciphertexts[0])
        snapshot = ops.snapshot()
        delta = server.execute_join(query)
        since = ops.since(snapshot)
        assert delta.stats.series_cache_hits == 1
        assert delta.stats.delta_rows == len(inserted)
        assert delta.stats.decryptions == len(inserted)
        # SJ.Dec costs one Miller loop per ciphertext element, so the
        # pairing counter pins the decryption count independently.
        assert (
            since.miller_loops + since.prepared_miller_loops
            == len(inserted) * dimension
        )
        scratch = _mirror(client, server)
        _assert_identical(delta, scratch.execute_join(query))
        scratch.close()
        server.close()

    def test_delete_refresh_decrypts_nothing(self):
        client, server = _setup()
        ops = server.scheme.backend.ops
        query = _query(client)
        cold = server.execute_join(query)
        server.delete_rows("R", [0])
        snapshot = ops.snapshot()
        refreshed = server.execute_join(query)
        since = ops.since(snapshot)
        assert since.miller_loops == 0
        assert since.prepared_miller_loops == 0
        assert refreshed.stats.series_cache_hits == 1
        assert refreshed.stats.delta_rows == 0
        assert refreshed.stats.decryptions == 0
        assert all(pair[1] != 0 for pair in refreshed.tuples)
        assert len(refreshed.tuples) < len(cold.tuples)
        scratch = _mirror(client, server)
        _assert_identical(refreshed, scratch.execute_join(query))
        scratch.close()
        server.close()

    def test_replay_after_delta_is_warm_again(self):
        client, server = _setup()
        query = _query(client)
        server.execute_join(query)
        server.insert_row("L", *client.encrypt_row_for("L", (4, "late")))
        server.execute_join(query)
        warm = server.execute_join(query)
        assert warm.stats.series_cache_hits == 1
        assert warm.stats.delta_rows == 0
        assert warm.stats.decryptions == 0
        server.close()

    def test_streamed_delta_yields_retained_pairs_first(self):
        client, server = _setup()
        query = _query(client)
        cold = server.execute_join(query)
        server.insert_row("R", *client.encrypt_row_for("R", (1, "fresh")))
        batches, result = _drain(server.stream_join(query))
        assert sorted(batches[0].tuples) == sorted(cold.tuples)
        streamed = sorted(
            pair for batch in batches for pair in batch.tuples
        )
        assert streamed == sorted(result.tuples)
        server.close()

    def test_small_delta_never_wakes_the_pool(self):
        """No delta pricing is needed for this: even where the pool
        always pays, a one-row side runs inline — and the stats say it
        ran inline — while the delta's empty side is not decided at
        all.  The cold query ran on the pool; closed after it, the pool
        stays closed through the delta."""
        client, server = _setup(
            workers=2, engine=PoolEngine()
        )
        query = _query(client)
        assert server.execute_join(query).stats.engine_selected == "parallel"
        server.execution_service.close()
        server.insert_row("R", *client.encrypt_row_for("R", (2, "fresh")))
        delta = server.execute_join(query)
        assert delta.stats.series_cache_hits == 1
        assert delta.stats.delta_rows == 1
        assert delta.stats.engine_selected == "batched"
        assert delta.stats.pool_generation == 0
        assert not server.execution_service.started
        # Nothing is priced: the one record is the store's scatter load.
        assert delta.stats.planner == [{
            "stage": "scatter", "shards": 1, "rows_per_shard": [1],
            "skew": 1.0,
        }]
        server.close()

    def test_a_refresh_with_nothing_to_decrypt_prices_nothing(self):
        """After a delete the re-submitted query refreshes, and both
        sides it opens are empty: neither is decided, so nothing is
        selected and the pool is never asked."""
        client, server = _setup(
            workers=2, engine=PoolEngine()
        )
        query = _query(client)
        server.execute_join(query)
        server.execution_service.close()
        server.delete_rows("R", [0])
        refresh = server.execute_join(query)
        assert refresh.stats.series_cache_hits == 1
        assert refresh.stats.delta_rows == 0
        assert refresh.stats.engine_selected == "batched"
        assert refresh.stats.planner == [{
            "stage": "scatter", "shards": 1, "rows_per_shard": [0],
            "skew": 1.0,
        }]
        assert not server.execution_service.started
        server.close()


# -- invalidation ---------------------------------------------------------


class TestInvalidation:
    def test_restore_invalidates_the_series(self):
        client, server = _setup()
        query = _query(client)
        server.execute_join(query)
        left = Table("L", Schema.of(("k", "int"), ("a", "str")), LEFT_ROWS)
        server.store(client.encrypt_table(left, "k"))
        assert server.series_cache.stats.invalidations >= 1
        again = server.execute_join(query)
        assert again.stats.series_cache_hits == 0
        assert again.stats.decryptions > 0
        server.close()

    def test_version_counters_route_to_delta_not_replay(self):
        client, server = _setup()
        query = _query(client)
        server.execute_join(query)
        before = server.table_version("R")
        server.insert_row("R", *client.encrypt_row_for("R", (9, "v")))
        assert server.table_version("R") == before + 1
        delta = server.execute_join(query)
        assert delta.stats.series_cache_hits == 1
        assert delta.stats.delta_rows == 1
        server.close()


# -- eviction under a byte budget ----------------------------------------


class TestEviction:
    def test_budget_evicts_lru_and_stays_correct(self):
        client, server = _setup()
        entry_bytes = None
        query_a = _query(client)
        server.execute_join(query_a)
        cache = server.series_cache
        entry_bytes = next(iter(cache._entries.values())).byte_size
        # Shrink the budget to hold exactly one entry, then cache a
        # second series: the older one must be evicted.
        cache.budget_bytes = entry_bytes + entry_bytes // 2
        query_b = _query(client)
        server.execute_join(query_b)
        assert cache.stats.evictions >= 1
        assert len(cache._entries) == 1
        evicted_rerun = server.execute_join(query_a)
        assert evicted_rerun.stats.series_cache_hits == 0
        scratch = _mirror(client, server)
        _assert_identical(evicted_rerun, scratch.execute_join(query_a))
        scratch.close()
        server.close()

    def test_oversized_entry_is_not_cached(self):
        cache = SeriesCache(budget_bytes=8)
        entry = SeriesEntry(
            key=b"k" * 32, tables=("L", "R"), epochs=(1, 1), versions=(0, 0),
        )
        assert not cache.store(entry)
        assert cache.lookup(b"k" * 32, (1, 1)) is None



def _one_handle_bytes():
    entry = SeriesEntry(b"", ("L",))
    entry.withdrawn[b""] = 0
    return entry.recompute_bytes()


#: What an entry holding one empty withdrawn handle accounts.
_ONE_HANDLE = _one_handle_bytes()
#: One size unit for the policy tests' entries.
U = 2000


def _resize(entry, size):
    """Make ``entry`` account ``size`` bytes at its next recompute (its
    charged ``byte_size`` is left to the cache)."""
    entry.withdrawn = {b"\0" * (size - _ONE_HANDLE): 0}


def _entry(key, size=U, tables=("L", "R")):
    entry = SeriesEntry(key, tables, epochs=(1,) * len(tables))
    _resize(entry, size)
    return entry


def _live(cache):
    return set(cache._entries)


def _assert_accounted(cache):
    live = list(cache._entries.values())
    assert cache.total_bytes == sum(entry.byte_size for entry in live)
    assert cache.total_bytes <= cache.budget_bytes
    assert len(cache) == len(live)


class TestSegmentedEviction:
    """A stored entry is on probation, a hit protects it, and victims
    come from probation first."""

    def test_resubmitted_entry_outlives_one_shots(self):
        cache = SeriesCache(budget_bytes=10 * U)
        cache.store(_entry(b"series"))
        assert cache.lookup(b"series", (1, 1)) is not None
        # One-shot queries whose bytes together exceed the budget.
        for i in range(12):
            cache.store(_entry(b"once%d" % i))
        assert cache.stats.evictions >= 3
        assert cache.lookup(b"series", (1, 1)) is not None
        _assert_accounted(cache)

    def test_protected_holds_at_most_its_share(self):
        cache = SeriesCache(budget_bytes=10 * U)
        keys = [b"p%d" % i for i in range(9)]
        for key in keys:
            cache.store(_entry(key))
        for key in keys:
            cache.lookup(key, (1, 1))
            protected = sum(
                cache._entries[key].byte_size for key in cache._protected
            )
            assert protected <= 0.8 * cache.budget_bytes
        # The ninth promotion demoted the least recent protected entry.
        assert list(cache._probation) == [keys[0]]
        assert list(cache._protected) == keys[1:]
        # ... which is the next victim.
        cache.store(_entry(b"new", 2 * U))
        assert _live(cache) == set(keys[1:]) | {b"new"}
        _assert_accounted(cache)

    def test_stored_entry_is_not_its_own_victim(self):
        # The new entry is alone on probation: the victim is protected.
        cache = SeriesCache(budget_bytes=4 * U)
        cache.store(_entry(b"old"))
        cache.lookup(b"old", (1, 1))
        cache.store(_entry(b"new", 3 * U + U // 2))
        assert _live(cache) == {b"new"}
        _assert_accounted(cache)

    def test_refreshed_protected_entry_is_not_its_own_victim(self):
        cache = SeriesCache(budget_bytes=10 * U)
        refreshed = _entry(b"refreshed")
        cache.store(refreshed)
        for i in range(3):
            cache.store(_entry(b"once%d" % i))
        # The refreshed entry is the least recent one of all.
        assert cache.lookup(b"refreshed", (1, 1)) is refreshed
        _resize(refreshed, 7 * U + U // 2)
        cache.reaccount(refreshed)
        assert _live(cache) == {b"refreshed", b"once1", b"once2"}
        assert list(cache._protected) == [b"refreshed"]
        _assert_accounted(cache)

    def test_protected_entry_grown_past_the_budget_is_evicted(self):
        cache = SeriesCache(budget_bytes=10 * U)
        grown = _entry(b"grown")
        cache.store(grown)
        cache.store(_entry(b"other"))
        cache.lookup(b"grown", (1, 1))
        _resize(grown, 11 * U)
        cache.reaccount(grown)
        assert _live(cache) == {b"other"}
        assert cache._protected_bytes == 0
        _assert_accounted(cache)

    def test_invalidation_drops_both_segments(self):
        cache = SeriesCache(budget_bytes=10 * U)
        for key, tables in (
            (b"L-protected", ("L", "R")),
            (b"L-probation", ("R", "L")),
            (b"X-protected", ("X", "Y")),
            (b"X-probation", ("X", "Y")),
        ):
            cache.store(_entry(key, tables=tables))
        cache.lookup(b"L-protected", (1, 1))
        cache.lookup(b"X-protected", (1, 1))
        assert cache.invalidate_table("L") == 2
        assert _live(cache) == {b"X-protected", b"X-probation"}
        _assert_accounted(cache)
        # An epoch mismatch drops the entry from either segment.
        assert cache.lookup(b"X-protected", (2, 1)) is None
        assert cache.lookup(b"X-probation", (2, 1)) is None
        assert len(cache) == 0
        assert cache.stats.invalidations == 4
        _assert_accounted(cache)
        for key in (b"a", b"b"):
            cache.store(_entry(key))
        cache.lookup(b"a", (1, 1))
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == cache._protected_bytes == 0
        assert not cache._probation and not cache._protected


class TestReaccountReplaced:
    """A refresh that finishes after a cold run of the same query stored
    a new entry under its key must not charge the old entry."""

    def test_replaced_entry_is_not_charged(self):
        cache = SeriesCache(budget_bytes=8 * U)
        old = _entry(b"query")
        cache.store(old)
        assert cache.lookup(b"query", (1, 1)) is old
        new = _entry(b"query")
        cache.store(new)
        _resize(old, 3 * U)
        cache.reaccount(old)
        assert cache._entries[b"query"] is new
        _assert_accounted(cache)
        # Grown past the budget, the old entry still leaves the new one.
        _resize(old, 9 * U)
        cache.reaccount(old)
        assert cache._entries[b"query"] is new
        _assert_accounted(cache)

    def test_refresh_racing_a_cold_run_of_the_same_query(self):
        client, server = _setup()
        cache = server.series_cache
        query = _query(client)
        server.execute_join(query)
        server.insert_row("R", *client.encrypt_row_for("R", (2, "fresh")))
        # The stale entry's delta refresh holds its lock mid-stream ...
        refresh = server.stream_join(query)
        next(refresh)
        (stale,) = cache._entries.values()
        # ... so the same query on a second thread runs cold and stores
        # a new entry under the same key.
        racer = threading.Thread(target=server.execute_join, args=(query,))
        racer.start()
        racer.join()
        assert cache.stats.lock_contention == 1
        (fresh,) = cache._entries.values()
        assert fresh is not stale
        _, result = _drain(refresh)
        assert result.stats.delta_rows == 1
        assert cache._entries[stale.key] is fresh
        _assert_accounted(cache)
        server.close()


class TestAccountingInvariant:
    """Random store / hit / stale-epoch lookup / grow-and-reaccount /
    invalidate / clear sequences against a dict model of what may be
    live."""

    TABLES = (("L", "R"), ("R", "S"), ("S", "L"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bytes_match_live_entries(self, seed):
        rng = random.Random(seed)
        cache = SeriesCache(budget_bytes=12 * U)
        keys = [b"q%d" % i for i in range(12)]
        model = {}
        made = []
        for _ in range(300):
            op = rng.random()
            key = rng.choice(keys)
            if op < 0.35:
                entry = _entry(
                    key,
                    rng.randrange(_ONE_HANDLE, 3 * U),
                    rng.choice(self.TABLES),
                )
                made.append(entry)
                if cache.store(entry):
                    model[key] = entry
                else:
                    model.pop(key, None)
            elif op < 0.6:
                hit = cache.lookup(key, (1, 1))
                assert hit is None or model.get(key) is hit
            elif op < 0.7:
                assert cache.lookup(key, (2, 2)) is None
                model.pop(key, None)
            elif op < 0.9 and made:
                # Any entry ever made: live, evicted or replaced.
                entry = rng.choice(made)
                _resize(entry, rng.randrange(_ONE_HANDLE, 14 * U))
                cache.reaccount(entry)
            elif op < 0.97:
                table = rng.choice("LRS")
                cache.invalidate_table(table)
                model = {
                    key: entry
                    for key, entry in model.items()
                    if table not in entry.tables
                }
            else:
                cache.clear()
                model = {}
            live = {
                key: entry
                for key, entry in model.items()
                if cache._entries.get(key) is entry
            }
            assert set(cache._entries) == set(live)
            assert len(cache) == len(live)
            assert cache.total_bytes == sum(
                entry.byte_size for entry in live.values()
            )
            assert cache.total_bytes <= cache.budget_bytes
            assert set(cache._probation) | set(cache._protected) == set(live)
            assert not set(cache._probation) & set(cache._protected)
            assert cache._protected_bytes == sum(
                live[key].byte_size for key in cache._protected
            )
            assert cache._protected_bytes <= 0.8 * cache.budget_bytes


# -- wire stats round-trip ------------------------------------------------


class TestWireStats:
    def test_series_counters_round_trip(self):
        client, server = _setup()
        query = _query(client)
        server.execute_join(query)
        server.insert_row("R", *client.encrypt_row_for("R", (2, "w")))
        delta = server.execute_join(query)
        assert delta.stats.delta_rows == 1
        decoded = decode_frame(encode_final_frame(delta))
        assert decoded.stats.series_cache_hits == 1
        assert decoded.stats.delta_rows == 1
        assert decoded.stats.reused_handles == delta.stats.reused_handles
        server.close()

    def test_future_stats_keys_are_dropped(self):
        # The stats block is the dataclass as it is, so the series
        # counters are wire fields; a key no field answers to is dropped
        # (tests/test_store.py::test_unknown_future_stats_fields_ignored).
        from repro.core.server import ServerStats

        assert {"series_cache_hits", "delta_rows", "reused_handles"} <= set(
            dataclasses.asdict(ServerStats())
        )


# -- sharded series -------------------------------------------------------


def _sharded_setup(seed=43, n_shards=2, series_cache_bytes=None,
                   left_rows=LEFT_ROWS, right_rows=RIGHT_ROWS):
    left = Table("L", Schema.of(("k", "int"), ("a", "str")), left_rows)
    right = Table("R", Schema.of(("k", "int"), ("b", "str")), right_rows)
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=2,
        rng=random.Random(seed),
    )
    backend_probe = SecureJoinServer(client.params)
    backend = backend_probe.scheme.backend
    tables = [
        client.encrypt_table(left, "k"), client.encrypt_table(right, "k")
    ]
    shards = [
        LocalShard(client.params, workers=2, name=f"shard-{i}")
        for i in range(n_shards)
    ]
    for table in tables:
        for piece in partition_table(table, backend, n_shards):
            shards[piece.shard.shard_index].store(piece)
    kwargs = {}
    if series_cache_bytes is not None:
        kwargs["series_cache_bytes"] = series_cache_bytes
    coordinator = ShardCoordinator(shards, **kwargs)
    backend_probe.close()
    return client, coordinator, shards


class TestShardedSeries:
    def test_coordinator_replay_runs_zero_pairing_ops(self):
        client, coordinator, shards = _sharded_setup()
        query = _query(client)
        cold = coordinator.execute_join(query)
        ops = shards[0].backend.ops
        snapshot = ops.snapshot()
        warm = coordinator.execute_join(query)
        since = ops.since(snapshot)
        assert since.miller_loops == 0
        assert since.prepared_miller_loops == 0
        assert warm.stats.series_cache_hits == 1
        assert warm.stats.decryptions == 0
        _assert_identical(warm, cold)
        for shard in shards:
            shard.close()

    def test_coordinator_delta_insert_decrypts_only_the_delta(self):
        client, coordinator, shards = _sharded_setup()
        query = _query(client)
        coordinator.execute_join(query)
        coordinator.insert_row("R", *client.encrypt_row_for("R", (2, "d")))
        delta = coordinator.execute_join(query)
        assert delta.stats.series_cache_hits == 1
        assert delta.stats.delta_rows == 1
        assert delta.stats.decryptions == 1
        # The new global row joins key 2 on both left rows with that key.
        fresh = _sharded_setup(seed=43)  # rebuild cold for comparison
        client2, cold_coord, cold_shards = fresh
        cold_coord.insert_row(
            "R", *client2.encrypt_row_for("R", (2, "d"))
        )
        cold = cold_coord.execute_join(_query(client2))
        assert sorted(delta.tuples) == sorted(cold.tuples)
        for shard in shards + cold_shards:
            shard.close()

    def test_coordinator_delete_tombstones_without_recompute(self):
        client, coordinator, shards = _sharded_setup()
        query = _query(client)
        cold = coordinator.execute_join(query)
        assert coordinator.delete_rows("R", [0]) == 1
        ops = shards[0].backend.ops
        snapshot = ops.snapshot()
        refreshed = coordinator.execute_join(query)
        since = ops.since(snapshot)
        assert since.miller_loops == 0
        assert refreshed.stats.series_cache_hits == 1
        assert refreshed.stats.delta_rows == 0
        assert all(pair[1] != 0 for pair in refreshed.tuples)
        assert len(refreshed.tuples) < len(cold.tuples)
        for shard in shards:
            shard.close()


class TestAStoreLendsItsPayloads:
    """A single store is a one-shard fleet, and the drive reads its
    payloads from the stored tables (a series entry has no payload
    slot).  The
    footprint is pinned at the value a store had when it was not a
    fleet, plus the two-way entry's finished answer (the executor's
    list, a slot per pair: 69 pairs, 552 bytes), and the chain's plan
    record as the order rule writes it."""

    #: ``series_cache.total_bytes`` after the series below.
    TOTAL_BYTES = 49080
    #: The cold chain's ``"plan"`` record: the fewest candidates first
    #: (T3), then T2.  (1, 2, 0) builds the same partial tuples, so the
    #: footprint is the same under either order.
    PLAN = {"stage": "plan", "order": [2, 1, 0], "candidates": [12, 30, 8]}

    def test_cold_resubmit_insert_delete_resubmit(self):
        tables = [
            Table(name, Schema.of(("k", "int"), ("v", "str")),
                  [(i % 5, f"{name}{i % 3}") for i in range(rows)])
            for name, rows in (("T1", 12), ("T2", 30), ("T3", 8))
        ]
        client = SecureJoinClient.for_tables(
            [(table, "k") for table in tables], in_clause_limit=2,
            rng=random.Random(11), enable_prefilter=True,
        )
        server = SecureJoinServer(client.params, workers=1)
        for table in tables:
            server.store(client.encrypt_table(table, "k"))
        pair = client.create_query(
            JoinQuery.build("T1", "T2", on=("k", "k"))
        )
        chain = client.create_chain_query(
            ChainQuery.build([("T1", "k"), ("T2", "k"), ("T3", "k")])
        )
        runs = []
        for _ in range(2):
            runs += [server.execute_join(pair), server.execute_chain(chain)]
        server.insert_row("T2", *client.encrypt_row_for("T2", (1, "T21")))
        server.delete_rows("T1", [0])
        runs += [server.execute_join(pair), server.execute_chain(chain)]
        assert [run.stats.series_cache_hits for run in runs] == [
            0, 0, 1, 1, 1, 1
        ]
        assert [run.stats.delta_rows for run in runs[4:]] == [1, 1]
        assert len(runs[4].tuples) == 69
        assert len(server.series_cache._entries) == 2
        assert server.series_cache.total_bytes == self.TOTAL_BYTES
        assert runs[1].stats.planner[0] == self.PLAN
        server.close()


# -- interleavings are byte-identical to from-scratch ---------------------


#: How a server is built, per label: the host and its from-scratch
#: mirror are both built so, and every one of them runs through the
#: cache.  ``None`` is the default build, as wide as the CPUs the
#: process may run on; ``auto`` lets the backend decide every side at
#: width 2; ``parallel`` sends every side of two rows or more
#: to a two-worker pool.
ENGINES = {
    None: lambda: {},
    "auto": lambda: {"workers": 2},
    "serial": lambda: {"engine": SerialEngine()},
    "batched": lambda: {"engine": BatchedEngine()},
    "parallel": lambda: {
        "engine": PoolEngine(batch_size=8),
        "workers": 2,
    },
}


class TestSlicedReplay:
    """A retained answer longer than one replay slice streams as several
    batches, and streamed == materialized still holds on both hosts."""

    # 3 keys x 20 x 20 rows: 1200 matches, one slice and a bit.
    ROWS = [(i % 3, f"v{i}") for i in range(60)]
    # 3 keys x 40 x 40 rows: the first right-hand chunk of a cold run
    # (of a shard's slice, on a fleet) completes more than one slice.
    COLD_ROWS = [(i % 3, f"v{i}") for i in range(120)]

    @pytest.mark.parametrize("sharded", [False, True], ids=["store", "fleet"])
    def test_streamed_replay_matches_materialized(self, sharded):
        if sharded:
            client, host, shards = _sharded_setup(
                left_rows=self.ROWS, right_rows=self.ROWS
            )
        else:
            client, host = _setup(left_rows=self.ROWS, right_rows=self.ROWS)
            shards = [host]
        query = _query(client)
        cold = host.execute_join(query)
        batches, warm = _drain(host.stream_join(query))
        assert warm.stats.series_cache_hits == 1
        assert [len(batch.tuples) for batch in batches] == [1024, 176]
        streamed = [pair for batch in batches for pair in batch.tuples]
        assert streamed == warm.tuples
        assert [
            payloads for batch in batches for payloads in batch.payloads
        ] == warm.payloads
        _assert_identical(warm, cold)
        for shard in shards:
            shard.close()

    @pytest.mark.parametrize("sharded", [False, True], ids=["store", "fleet"])
    def test_streamed_cold_run_is_sliced_and_matches_materialized(
        self, sharded
    ):
        """A cold increment is cut by the same bound as a replayed
        answer: one chunk under a repeated key may complete any number
        of tuples, and a batch is one message."""
        rows = self.COLD_ROWS
        if sharded:
            client, host, shards = _sharded_setup(
                left_rows=rows, right_rows=rows
            )
        else:
            client, host = _setup(left_rows=rows, right_rows=rows)
            shards = [host]
        query = _query(client)
        batches, cold = _drain(host.stream_join(query))
        assert cold.stats.series_cache_hits == 0
        sizes = [len(batch.tuples) for batch in batches]
        assert sum(sizes) == len(cold.tuples) == 4800
        assert max(sizes) == 1024
        streamed = {
            pair: payloads
            for batch in batches
            for pair, payloads in zip(batch.tuples, batch.payloads)
        }
        assert streamed == dict(zip(cold.tuples, cold.payloads))
        # With the entry dropped, the same query executes from
        # scratch, materialized.
        host.series_cache.clear()
        scratch = host.execute_join(query)
        assert scratch.stats.series_cache_hits == 0
        _assert_identical(cold, scratch)
        for shard in shards:
            shard.close()


class TestInterleavings:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_fixed_interleaving_every_engine(self, engine):
        client, server = _setup(**ENGINES[engine]())
        query = _query(client)
        steps = [
            ("query", None),
            ("insert", ("R", (2, "i0"))),
            ("query", None),
            ("delete", ("L", [1])),
            ("query", None),
            ("insert", ("L", (4, "i1"))),
            ("insert", ("R", (4, "i2"))),
            ("query", None),
            ("query", None),
        ]
        for action, payload in steps:
            if action == "insert":
                table, row = payload
                server.insert_row(
                    table, *client.encrypt_row_for(table, row)
                )
            elif action == "delete":
                table, rows = payload
                server.delete_rows(table, rows)
            else:
                result = server.execute_join(query)
                scratch = _mirror(client, server, **ENGINES[engine]())
                reference = scratch.execute_join(query)
                _assert_identical(result, reference)
                scratch.close()
        server.close()

    @pytest.mark.parametrize("n_shards", (1, 2))
    def test_fixed_interleaving_sharded(self, n_shards):
        client, coordinator, shards = _sharded_setup(n_shards=n_shards)
        cacheless = _sharded_setup(
            n_shards=n_shards, series_cache_bytes=0
        )
        client2, cold_coord, cold_shards = cacheless
        assert cold_coord.series_cache is None
        query = _query(client)
        query2 = _query(client2)
        steps = [
            ("query", None),
            ("insert", ("R", (3, "s0"))),
            ("query", None),
            ("delete", ("R", [1])),
            ("query", None),
            ("query", None),
        ]
        for action, payload in steps:
            if action == "insert":
                table, row = payload
                coordinator.insert_row(
                    table, *client.encrypt_row_for(table, row)
                )
                cold_coord.insert_row(
                    table, *client2.encrypt_row_for(table, row)
                )
            elif action == "delete":
                table, rows = payload
                coordinator.delete_rows(table, rows)
                cold_coord.delete_rows(table, rows)
            else:
                cached = coordinator.execute_join(query)
                cold = cold_coord.execute_join(query2)
                assert sorted(cached.tuples) == sorted(
                    cold.tuples
                )
                assert cached.stats.matches == cold.stats.matches
        for shard in shards + cold_shards:
            shard.close()

    @given(
        shape=st.sampled_from(SERVER_SHAPES),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.sampled_from(("L", "R")),
                    st.integers(min_value=1, max_value=5),
                ),
                st.tuples(
                    st.just("delete"),
                    st.sampled_from(("L", "R")),
                    st.integers(min_value=0, max_value=7),
                ),
                st.tuples(
                    st.just("query"), st.just(""), st.just(0)
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_any_interleaving_matches_scratch(self, shape, ops):
        # Pooled chunks of 2 rows: the tables' 3-4 rows reach the pool.
        client, server = _setup(**server_shape(shape, batch_size=4))
        try:
            query = _query(client)
            counter = 0
            for action, table, value in ops:
                if action == "insert":
                    counter += 1
                    server.insert_row(
                        table,
                        *client.encrypt_row_for(
                            table, (value, f"h{counter}")
                        ),
                    )
                elif action == "delete":
                    live = [
                        i for i in range(len(server.table(table)))
                        if i not in server.tombstoned_rows(table)
                    ]
                    if live:
                        server.delete_rows(
                            table, [live[value % len(live)]]
                        )
                else:
                    result = server.execute_join(query)
                    scratch = _mirror(
                        client, server, **server_shape(shape, batch_size=4)
                    )
                    reference = scratch.execute_join(query)
                    _assert_identical(result, reference)
                    scratch.close()
            batches, streamed = _drain(server.stream_join(query))
            union = sorted(
                pair for batch in batches for pair in batch.tuples
            )
            assert union == sorted(streamed.tuples)
            scratch = _mirror(client, server)
            _assert_identical(streamed, scratch.execute_join(query))
            scratch.close()
        finally:
            server.close()
