"""The first match leaves after one row per side.

Every SJ.Dec side is cut by :func:`~repro.core.service.chunk_spans`:
chunks of 1, 2, 4, … rows up to the chunk size, inline and on the pool
alike.  The contract, asserted on counts rather than clocks:

- every side's first :class:`~repro.core.engine.HandleChunk` is one
  row, inline and on a two-worker pool;
- a join whose row 0 matches on both sides yields its first batch, the
  one tuple ``(0, 0)``, after exactly two final exponentiations on an
  inline server — one row per side — and as that same tuple on a pooled
  server;
- on a two-shard fleet the first batch is one tuple, after two
  decrypted rows, long before the last chunk of either side (the socket
  deployment is checked in ``tests/test_net_integration.py``);
- every answer is byte-identical to the plaintext reference join
  (:func:`repro.db.join.hash_join`), and the streamed batches
  reassemble it;
- on real pairings, a server as wide as two CPUs (the default there)
  deals both sides of a ``bn254_small``-shaped join to its pool
  together, and its first batch leaves after one row per side, as at
  one worker, with the same answer and the same pairing counts.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.core.service as service_module

from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService, chunk_spans
from repro.crypto.backend import FastBackend
from repro.db.join import hash_join
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.plan.executor import ChainExecutor
from repro.shard import LocalShard, ShardCoordinator, partition_table
from tests.conftest import PoolEngine, bn254_small_join

#: Rows per side: several chunks inline (1, 2, 4, 8, 5 at chunk size 8)
#: and on the pool (eight chunks of at most 4 rows at width 2).
ROWS = 20

JOIN = JoinQuery.build("L", "R", on=("k", "k"))


def _tables(keys):
    """Plaintext ``L`` and ``R`` with the join keys ``keys`` each, and a
    client over them."""
    left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                 [(k, f"a{i}") for i, k in enumerate(keys)])
    right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                  [(k, f"b{i}") for i, k in enumerate(keys)])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=1,
        rng=random.Random(5),
    )
    return client, (left, right)


def _drain(stream):
    """``(batches, result)`` of a ``stream_join`` generator."""
    batches = []
    while True:
        try:
            batches.append(next(stream))
        except StopIteration as stop:
            return batches, stop.value


def _assert_reference(client, plain, batches, result):
    """Streamed == materialized == the plaintext join, byte for byte."""
    reference = hash_join(*plain, "k", "k")
    assert result.tuples == reference.index_pairs
    assert sorted(
        pair for batch in batches for pair in batch.tuples
    ) == reference.index_pairs
    decrypted = client.decrypt_chain_result(result)
    assert decrypted.index_tuples == reference.index_pairs
    assert decrypted.table.rows() == reference.table.rows()


class TestFirstChunk:
    @pytest.mark.parametrize("shape", ["inline", "pooled"])
    def test_every_sides_first_chunk_is_one_row(self, shape, paced_backend):
        """Both sides opened before either is read, as a join opens
        them: each stream's first chunk is row 0 alone, and the chunks
        that follow are the schedule's.  On the pool the rows sleep 30
        ms each, so the one-row chunk completes first however the two
        workers pick up the side's first two chunks."""
        client, plain = _tables([i % 5 for i in range(ROWS)])
        encrypted = [client.encrypt_table(table, "k") for table in plain]
        query = client.create_query(JOIN)
        sides = [
            (token.elements, [row.elements for row in table.ciphertexts])
            for token, table in zip(
                (query.left_token, query.right_token), encrypted
            )
        ]
        inline = BatchedEngine(8)
        with ExecutionService(workers=2) as service:
            if shape == "inline":
                engine, backend = inline, FastBackend()
                spans = chunk_spans(ROWS, 8)
            else:
                engine = PoolEngine(8)
                engine.bind_service(service)
                backend = paced_backend
                spans = chunk_spans(ROWS, 4, width=2)
            streams = [engine.decrypt_stream(backend, *side) for side in sides]
            firsts = [next(stream) for stream in streams]
            rests = [list(stream) for stream in streams]
        for side, first, rest, stream in zip(sides, firsts, rests, streams):
            assert (first.start, len(first.handles)) == (0, 1)
            chunks = [first, *rest]
            assert sorted(
                (chunk.start, chunk.start + len(chunk.handles))
                for chunk in chunks
            ) == spans
            handles = [
                handle
                for chunk in sorted(chunks, key=lambda chunk: chunk.start)
                for handle in chunk.handles
            ]
            assert handles == inline.decrypt_handles(FastBackend(), *side)[0]
            report = stream.report
            assert (report.batches, report.max_batch_size) == (
                len(spans), max(stop - start for start, stop in spans),
            )
            assert report.selected == ("parallel" if shape == "pooled" else "")


class TestFirstBatch:
    def test_inline_first_batch_after_two_final_exponentiations(self):
        """One SJ.Dec row per side, then the first match leaves: the
        backend has run exactly two final exponentiations of 40."""
        client, plain = _tables([i % 5 for i in range(ROWS)])
        with SecureJoinServer(client.params) as server:
            for table in plain:
                server.store(client.encrypt_table(table, "k"))
            query = client.create_query(JOIN)
            before = server.backend.ops.snapshot()
            stream = server.stream_join(query)
            first = next(stream)
            assert server.backend.ops.since(before).final_exponentiations == 2
            assert first.tuples == [(0, 0)]
            batches, result = _drain(stream)
            assert result.stats.final_exponentiations == 2 * ROWS
        _assert_reference(client, plain, [first, *batches], result)

    def test_pooled_first_batch_is_row_zero_of_each_side(self, paced_backend):
        """Both sides on a two-worker pool: the first batch is the match
        of the two sides' one-row first chunks."""
        client, plain = _tables([i % 5 for i in range(ROWS)])
        with SecureJoinServer(
            client.params, backend=paced_backend, workers=2,
            engine=PoolEngine(8),
        ) as server:
            for table in plain:
                server.store(client.encrypt_table(table, "k"))
            batches, result = _drain(
                server.stream_join(client.create_query(JOIN))
            )
        assert result.stats.engine_selected == "parallel"
        assert batches[0].tuples == [(0, 0)]
        _assert_reference(client, plain, batches, result)

    def test_fleet_first_batch_before_the_last_chunk(self):
        """Two ``LocalShard`` s, every key equal: the first batch is one
        tuple, after the two shards had decrypted two rows between them
        — the first shard's one-row first chunk of each side, while
        every shard's part of a side (5 to 15 rows) is cut into three
        chunks or more."""
        client, plain = _tables([7] * ROWS)
        counted = FastBackend()
        shards = [LocalShard(client.params, backend=counted) for _ in range(2)]
        for table in plain:
            encrypted = client.encrypt_table(table, "k")
            for piece in partition_table(encrypted, counted, 2):
                shards[piece.shard.shard_index].store(piece)
        with ShardCoordinator(shards) as coordinator:
            before = counted.ops.snapshot()
            stream = coordinator.stream_join(client.create_query(JOIN))
            first = next(stream)
            assert counted.ops.since(before).final_exponentiations == 2
            assert len(first.tuples) == 1
            batches, result = _drain(stream)
        assert len(result.tuples) == ROWS * ROWS
        assert result.stats.shards == 2
        _assert_reference(client, plain, [first, *batches], result)


@pytest.mark.bn254
class TestDefaultWidth:
    def test_two_cpus_first_batch_after_one_row_per_side(
        self, monkeypatch, bn254_backend
    ):
        """The ``bn254_small`` shape (2 + 4 rows, d = 5) on a default
        server two CPUs wide — both sides on its pool — against one
        worker wide: the same answer byte for byte, the same 30 Miller
        loops and 6 final exponentiations, and on both the first batch
        leaves once the matcher has been fed one row of each side.  On
        the pool those two rows are the first two chunks dealt, so the
        two workers start on them together."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        dealt = []

        class DealingPool(ProcessPoolExecutor):
            def submit(self, function, token_bytes, prepared, chunk):
                dealt.append((tuple(token_bytes), len(chunk)))
                return super().submit(function, token_bytes, prepared, chunk)

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", DealingPool)
        fed = []
        feed = ChainExecutor.feed

        def counting_feed(executor, position, items):
            fed.append((position, len(items)))
            return feed(executor, position, items)

        monkeypatch.setattr(ChainExecutor, "feed", counting_feed)
        client, tables, query = bn254_small_join(bn254_backend)
        runs = []
        for workers in (None, 1):
            with SecureJoinServer(
                client.params, backend=bn254_backend, workers=workers
            ) as server:
                for table in tables:
                    server.store(table)
                fed.clear()
                stream = server.stream_join(query)
                first = next(stream)
                assert sorted(fed) == [(0, 1), (1, 1)], workers
                assert first.tuples == [(0, 0)]
                batches, result = _drain(stream)
            runs.append(result)
            stats = result.stats
            assert (stats.miller_loops, stats.final_exponentiations) == (30, 6)
        pooled, inline = runs
        assert pooled.stats.engine_selected == "parallel"
        row_bytes = 5 * bn254_backend.g2_element_size
        assert dealt[:2] == [
            (tuple(map(bn254_backend.encode_g1, token.elements)), row_bytes)
            for token in (query.left_token, query.right_token)
        ]
        assert [r["stage"] for r in inline.stats.planner] == ["scatter"]
        assert pooled.tuples == inline.tuples
        assert pooled.payloads == inline.payloads
        assert sorted(pooled.tuples) == [(0, 0), (0, 2), (1, 1), (1, 3)]
