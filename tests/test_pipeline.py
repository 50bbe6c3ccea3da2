"""The streaming join pipeline: matcher kernels, stream/materialized
byte-identity, early emission, the one matcher, and the wire stats.

The contract under test: however the decrypted chunks interleave —
per-row serial streams, per-batch inline streams, out-of-order pooled
completions — the final join result is byte-identical to the fully
materialized decrypt-then-match pass, while match batches stream out
*before* the sides finish decrypting.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import SerialEngine
from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.pipeline import round_robin
from repro.core.server import SecureJoinServer
from repro.db.matcher import (
    HashMatcher,
    NestedMatcher,
    get_matcher,
)
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from tests.conftest import PoolEngine

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False

def _engines():
    """Server arguments per engine, fresh engines each call (an engine
    keeps the pool of the first server bound to it): serial, inline,
    on a two-worker pool in chunks of 4, and decided by the backend at
    width 2."""
    return (
        {"engine": SerialEngine()},
        {"engine": BatchedEngine(batch_size=3), "workers": 1},
        {"engine": PoolEngine(batch_size=8)},
        {"engine": BatchedEngine(batch_size=3)},
    )


# -- matcher kernels ------------------------------------------------------


def _reference_pairs(left_keys, right_keys):
    """The canonical build-then-probe result: right-major order."""
    return [
        (i, j)
        for j, rk in enumerate(right_keys)
        for i, lk in enumerate(left_keys)
        if lk == rk
    ]


def _feed_in_order(matcher, left_items, right_items, order):
    """Feed two sides to a matcher in an arbitrary interleaving.

    ``order`` is a sequence of ("left"|"right", start, count) chunks.
    Returns the concatenated incremental emissions.
    """
    sides = {"left": left_items, "right": right_items}
    feeds = {"left": matcher.add_left, "right": matcher.add_right}
    emitted = []
    for side, start, count in order:
        emitted.extend(feeds[side](sides[side][start:start + count]))
    return emitted


class TestMatcherKernels:
    def test_hash_matches_reference_any_order(self):
        left_keys = [1, 1, 2, 3, 7]
        right_keys = [1, 2, 2, 5, 7, 7]
        left_items = list(enumerate(left_keys))
        right_items = list(enumerate(right_keys))
        reference = _reference_pairs(left_keys, right_keys)
        orders = [
            # materialized: all left, then all right
            [("left", 0, 5), ("right", 0, 6)],
            # right before left
            [("right", 0, 6), ("left", 0, 5)],
            # interleaved chunks
            [("left", 0, 2), ("right", 0, 3), ("left", 2, 3),
             ("right", 3, 3)],
            # out-of-order chunk arrival within a side
            [("right", 3, 3), ("left", 2, 3), ("right", 0, 3),
             ("left", 0, 2)],
        ]
        for order in orders:
            matcher = HashMatcher()
            emitted = _feed_in_order(matcher, left_items, right_items, order)
            assert sorted(emitted) == sorted(reference)
            assert matcher.finish() == reference
            # Canonical accounting regardless of arrival order.
            assert matcher.stats.probes == len(right_keys)
            assert matcher.stats.matches == len(reference)
            assert (
                matcher.stats.comparisons
                == matcher.stats.probes + matcher.stats.matches
            )

    def test_nested_matches_reference_any_order(self):
        left_keys = [1, 2, 2, 9]
        right_keys = [2, 9, 9, 4, 1]
        left_items = list(enumerate(left_keys))
        right_items = list(enumerate(right_keys))
        reference = _reference_pairs(left_keys, right_keys)
        orders = [
            [("left", 0, 4), ("right", 0, 5)],
            [("right", 0, 5), ("left", 0, 4)],
            [("right", 2, 3), ("left", 0, 2), ("right", 0, 2),
             ("left", 2, 2)],
        ]
        for order in orders:
            matcher = NestedMatcher()
            emitted = _feed_in_order(matcher, left_items, right_items, order)
            assert sorted(emitted) == sorted(reference)
            assert matcher.finish() == reference
            # Exactly one comparison per cross pair, however fed.
            assert matcher.stats.comparisons == len(left_keys) * len(
                right_keys
            )

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=60, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 4), min_size=0, max_size=12),
        right_keys=st.lists(st.integers(0, 4), min_size=0, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_property_random_interleavings(self, left_keys, right_keys, seed):
        """Any chunking and interleaving yields the canonical result
        with canonical accounting, for both kernels."""
        rng = random.Random(seed)
        chunks = []
        for side, keys in (("left", left_keys), ("right", right_keys)):
            start = 0
            while start < len(keys):
                count = rng.randint(1, 4)
                chunks.append((side, start, min(count, len(keys) - start)))
                start += count
        rng.shuffle(chunks)
        reference = _reference_pairs(left_keys, right_keys)
        for build in (HashMatcher, NestedMatcher):
            matcher = build()
            emitted = _feed_in_order(
                matcher, list(enumerate(left_keys)),
                list(enumerate(right_keys)), chunks,
            )
            assert sorted(emitted) == sorted(reference)
            assert matcher.finish() == reference
            assert matcher.stats.matches == len(reference)
            if build is HashMatcher:
                assert matcher.stats.probes == len(right_keys)
                assert (
                    matcher.stats.comparisons
                    == matcher.stats.probes + matcher.stats.matches
                )
            else:
                assert matcher.stats.comparisons == len(left_keys) * len(
                    right_keys
                )

    def test_get_matcher(self):
        assert isinstance(get_matcher("hash"), HashMatcher)
        assert isinstance(get_matcher("nested"), NestedMatcher)
        with pytest.raises(ValueError):
            get_matcher("sorted-merge")


# -- streamed vs. materialized joins --------------------------------------


def _build(left_keys, right_keys, seed=7, engine=None):
    left = Table(
        "L", Schema.of(("k", "int"), ("a", "str")),
        [(k, f"a{i}") for i, k in enumerate(left_keys)],
    )
    right = Table(
        "R", Schema.of(("k", "int"), ("b", "str")),
        [(k, f"b{i}") for i, k in enumerate(right_keys)],
    )
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=1,
        rng=random.Random(seed),
    )
    server = SecureJoinServer(client.params, engine=engine, workers=2)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


def _with_engine(client, server, engine=None, workers=2):
    """A server ``workers`` wide, built with ``engine``, over
    ``server``'s encrypted tables."""
    sibling = SecureJoinServer(client.params, engine=engine, workers=workers)
    for name in ("L", "R"):
        sibling.store(server.table(name))
    return sibling


def _materialized_reference(server, query, engine):
    """The pre-pipeline pass, reconstructed independently: decrypt both
    sides to completion (engine.decrypt_handles), then build-then-probe
    hash match in canonical right-major order."""
    left = server.table(query.left_table)
    right = server.table(query.right_table)
    backend = server.scheme.backend
    left_handles, _ = engine.decrypt_handles(
        backend, query.left_token.elements,
        [c.elements for c in left.ciphertexts],
    )
    right_handles, _ = engine.decrypt_handles(
        backend, query.right_token.elements,
        [c.elements for c in right.ciphertexts],
    )
    buckets = {}
    for i, handle in enumerate(left_handles):
        buckets.setdefault(handle, []).append(i)
    pairs = [
        (i, j)
        for j, handle in enumerate(right_handles)
        for i in buckets.get(handle, ())
    ]
    return pairs, [left.payloads[i] for i, _ in pairs], [
        right.payloads[j] for _, j in pairs
    ]


def _drain(generator):
    """Drain a stream_join generator: (yields, return value)."""
    batches = []
    while True:
        try:
            batches.append(next(generator))
        except StopIteration as stop:
            return batches, stop.value


class TestStreamedEquivalence:
    def test_streamed_byte_identical_to_materialized(self):
        client, server = _build([1, 1, 2, 3, 5] * 4, [1, 2, 2, 5, 8] * 3)
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            for built in _engines():
                expected_pairs, expected_left, expected_right = (
                    _materialized_reference(server, query, BatchedEngine(4))
                )
                with _with_engine(client, server, **built) as sibling:
                    batches, result = _drain(sibling.stream_join(query))
                assert result.index_pairs == expected_pairs
                assert result.left_payloads == expected_left
                assert result.right_payloads == expected_right
                # The incremental emissions cover the final result exactly.
                streamed = [
                    pair for batch in batches for pair in batch.index_pairs
                ]
                assert sorted(streamed) == sorted(expected_pairs)
                streamed_left = [
                    payload for batch in batches
                    for payload in batch.left_payloads
                ]
                assert sorted(streamed_left) == sorted(expected_left)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=10, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        right_keys=st.lists(st.integers(0, 4), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    def test_property_streamed_equals_materialized(
        self, left_keys, right_keys, seed
    ):
        """Property: for every engine, the streamed pipeline's result is
        byte-identical to the independent materialized reference, and
        its emissions reassemble to it."""
        client, server = _build(left_keys, right_keys, seed=seed)
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        reference = _reference_pairs(left_keys, right_keys)
        with server:
            expected_pairs, expected_left, expected_right = (
                _materialized_reference(server, query, BatchedEngine(3))
            )
            assert expected_pairs == reference
            for built in _engines():
                with _with_engine(client, server, **built) as sibling:
                    batches, result = _drain(sibling.stream_join(query))
                assert result.index_pairs == expected_pairs
                assert result.left_payloads == expected_left
                assert result.right_payloads == expected_right
                streamed = [
                    pair for batch in batches for pair in batch.index_pairs
                ]
                assert sorted(streamed) == sorted(expected_pairs)

    def test_nested_matcher_agrees_on_the_observed_handles(
        self, nested_rematch
    ):
        """The §6.5 baseline on the very handles the server matched by
        hash: same pairs, one comparison per candidate pair."""
        client, server = _build([2, 2, 4, 6], [2, 4, 4, 9])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        hash_result = server.execute_join(query)
        nested = nested_rematch(server, query)
        assert nested.finish() == hash_result.index_pairs
        assert nested.stats.comparisons == 4 * 4
        assert hash_result.stats.comparisons == 4 + len(hash_result.index_pairs)
        server.close()


class TestEarlyEmission:
    def test_first_batch_before_decryption_finishes(self):
        """With chunked streams, matches must surface before the last
        chunk: more than one batch, and the first batch is a strict
        subset of the final result."""
        client, server = _build([i % 5 for i in range(40)],
                                [i % 5 for i in range(40)],
                                engine=BatchedEngine(batch_size=4))
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            batches, result = _drain(server.stream_join(query))
        assert len(batches) > 1
        assert 0 < len(batches[0].index_pairs) < len(result.index_pairs)

    def test_stage_timings_recorded(self):
        client, server = _build([i % 3 for i in range(30)],
                                [i % 3 for i in range(30)],
                                engine=BatchedEngine(4))
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(query)
        stats = result.stats
        assert stats.matches > 0
        assert stats.time_to_first_match > 0.0
        assert stats.decrypt_seconds > 0.0
        assert stats.match_seconds > 0.0
        # First match arrives before the decrypt stage is over.
        assert stats.time_to_first_match < (
            stats.decrypt_seconds + stats.match_seconds
        )
        server.close()

    def test_empty_join_has_zero_ttfm(self):
        client, server = _build([1, 2], [3, 4])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(query)
        assert result.stats.matches == 0
        assert result.stats.time_to_first_match == 0.0
        server.close()

    def test_both_sides_interleave_on_the_pool(self):
        """One query, two large sides, both on the pool: the service must
        co-admit them (concurrent_sides >= 2), on one pool generation."""
        client, server = _build(
            [i % 9 for i in range(90)], [i % 9 for i in range(90)],
            engine=PoolEngine(batch_size=8),
        )
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            result = server.execute_join(query)
            assert result.stats.concurrent_sides >= 2
            assert result.stats.pool_generation == 1
            assert server.execution_service.peak_concurrent_sides >= 2

    def test_client_decrypts_streamed_batches(self):
        """End-to-end streaming: the client turns every MatchBatch into
        plaintext rows, their union equals the materialized join, and
        the wrapped generator's final result is passed through."""
        client, server = _build([1, 2, 2, 3], [2, 2, 3, 4, 1])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        reference = server.execute_join(query)
        streamed_rows = []
        decrypting = client.stream_decrypt(
            "L", "R", server.stream_join(query)
        )
        while True:
            try:
                pairs, rows = next(decrypting)
            except StopIteration as stop:
                result = stop.value
                break
            assert len(pairs) == len(rows)
            streamed_rows.extend(rows)
        # stream_decrypt surfaces stream_join's final result.
        assert result.index_pairs == reference.index_pairs
        final = client.decrypt_result(result)
        assert sorted(streamed_rows) == sorted(final.table.rows())
        server.close()

    def test_abandoned_stream_releases_pool_state(self):
        """Dropping a stream mid-join must not leak admitted sides, and
        must still link, in the ledger, the rows whose computed handles
        coincide."""
        client, server = _build(
            [i % 4 for i in range(60)], [i % 4 for i in range(60)],
            engine=PoolEngine(batch_size=8),
        )
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            assert server.ledger.classes() == []
            stream = server.stream_join(query)
            next(stream)  # first batch only
            stream.close()
            assert server.execution_service.active_sides == 0
            # What the partial feed revealed is part of the leakage
            # record: keys repeat, so it linked something, but not all
            # 120 rows.
            partial = sum(map(len, server.ledger.classes()))
            assert 2 <= partial < 120
            # The pool is still healthy for the next (full) query.
            result = server.execute_join(query)
            with _with_engine(client, server, BatchedEngine(4)) as sibling:
                reference = sibling.execute_join(query)
            assert result.index_pairs == reference.index_pairs
            assert [len(cls) for cls in server.ledger.classes()] == [30] * 4


# -- one matcher, never chosen ---------------------------------------------


class TestOneMatcher:
    """A join matches by hash: no entry point takes an algorithm, and
    the engine decides only where SJ.Dec runs."""

    def test_auto_engine_records_no_match_stage(self):
        # Tiny sides, where a priced matcher used to pick nested; two
        # workers wide, so the engine decides every side.
        client, server = _build([1], [1, 2])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(query)
        assert result.index_pairs == [(0, 0)]
        assert result.stats.engine_selected == "batched"
        assert result.stats.planner is None
        with pytest.raises(TypeError):
            server.execute_join(query, algorithm="nested")
        with pytest.raises(TypeError):
            server.stream_join(query, algorithm="nested")
        server.close()


# -- one dealing loop ------------------------------------------------------


class TestRoundRobin:
    """The join drive and a shard endpoint deal their sources through
    the same :func:`~repro.core.pipeline.round_robin`."""

    def test_one_event_per_source_per_round_until_all_are_dry(self):
        events = list(round_robin(
            [iter([1, 2, 3]), iter(["a"]), iter([10, 20]), iter([])]
        ))
        # The first round takes one event from every source.
        assert events[:3] == [1, "a", 10]
        assert sorted(map(str, events)) == sorted(
            map(str, [1, 2, 3, "a", 10, 20])
        )
        # Each source's own order survives the dealing.
        assert [e for e in events if e in (1, 2, 3)] == [1, 2, 3]
        assert [e for e in events if e in (10, 20)] == [10, 20]


# -- wire: pipeline stats -------------------------------------------------


class TestWirePipelineStats:
    def _result(self):
        client, server = _build([1, 2, 2], [2, 2, 5])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server, _with_engine(client, server) as sibling:
            result = sibling.execute_join(query)
        return result

    def test_round_trips_pipeline_fields(self):
        from repro.store.wire import decode_frame, encode_final_frame

        result = self._result()
        decoded = decode_frame(encode_final_frame(result))
        assert decoded.stats == result.stats
        assert (
            decoded.stats.time_to_first_match
            == result.stats.time_to_first_match
        )
        assert decoded.stats.decrypt_seconds == result.stats.decrypt_seconds
        assert decoded.stats.match_seconds == result.stats.match_seconds
        assert (
            decoded.stats.concurrent_sides == result.stats.concurrent_sides
        )
