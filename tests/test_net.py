"""Tests for the network service layer (:mod:`repro.net`).

Covers the full remote-join path over real sockets: streamed
match-batch delivery (multiple frames before the final frame,
byte-identical reassembly against the in-process result), in-band
error reporting, backpressure from a slow consumer, the operator's engine,
QoS threading (priority-preferring dispatch, deadline cancellation)
and graceful drain.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import operator
import random
import socket
import threading
import time
from concurrent.futures import Future

import pytest

import repro.core.service as service_module

from repro.baselines import SerialEngine
from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import (
    ChainMatchBatch,
    SecureJoinServer,
    ServerStats,
    ShardCoordinator,
)
from repro.core.service import ExecutionService, QueryQoS
from repro.crypto.backend import FastBackend, PairingOpCounter
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import (
    DeadlineError,
    NetworkError,
    QueryError,
    SchemeError,
)
from repro.net import (
    JoinServiceServer,
    RemoteJoinClient,
    recv_message,
    send_message,
)
from repro.shard import LocalShard, partition_table
from repro.store.wire import (
    ErrorFrame,
    FinalFrame,
    MatchBatchFrame,
    StreamHeaderFrame,
    StreamReassembler,
    decode_frame,
    encode_join_query,
)
from tests.conftest import SleepingBackend


def _fixture(n_rows=12, batch_size=3, seed=17, **server_kwargs):
    """Client + server whose joins span multiple decryption chunks.

    Every left key matches a right key, so with ``batch_size``-row
    chunks the streaming pipeline emits several non-empty match batches
    before the final frame.
    """
    keys = [i % 5 for i in range(n_rows)]
    left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                 [(k, f"a{i}") for i, k in enumerate(keys)])
    right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                  [(k, f"b{i}") for i, k in enumerate(keys)])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=1,
        rng=random.Random(seed),
    )
    server_kwargs.setdefault("engine", BatchedEngine(batch_size=batch_size))
    server = SecureJoinServer(client.params, **server_kwargs)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


def _query(client, **kwargs):
    return client.create_query(
        JoinQuery.build("L", "R", on=("k", "k")), **kwargs
    )


def _drain(stream):
    """Consume a stream generator; returns (batches, final result)."""
    batches = []
    while True:
        try:
            batches.append(next(stream))
        except StopIteration as stop:
            return batches, stop.value


def _normalize(result):
    """Strip the run-dependent stats for byte-identity comparison."""
    return dataclasses.replace(result, stats=ServerStats())


# -- end-to-end over a real socket -----------------------------------------


class TestRemoteJoin:
    def test_streamed_join_multiple_batches_byte_identical(self):
        client, server = _fixture()
        reference = server.execute_join(_query(client))
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                batches, result = _drain(rc.stream_join(_query(client)))
        # The join spans multiple chunks: several match-batch frames
        # arrive before the final frame, and at least two carry pairs.
        assert len(batches) >= 2
        assert sum(1 for b in batches if b.tuples) >= 2
        assert sum(len(b.tuples) for b in batches) == len(
            reference.tuples
        )
        # Reassembly is byte-identical to the in-process result modulo
        # the run-dependent stats block.
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads
        assert _normalize(result) == _normalize(reference)
        # The remote stats still describe a real execution.
        assert result.stats.matches == len(reference.tuples)

    def test_execute_join_remote(self):
        client, server = _fixture(n_rows=6)
        reference = server.execute_join(_query(client))
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                result = rc.execute_join(_query(client))
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads

    def test_connection_serves_many_queries(self):
        client, server = _fixture(n_rows=6)
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                first = rc.execute_join(_query(client))
                second = rc.execute_join(_query(client))
            assert first.tuples == second.tuples
            # The handler bumps the counter after sending the final
            # frame, so a fast client can observe the result first.
            deadline = time.monotonic() + 5.0
            while (
                service.queries_served != 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert service.queries_served == 2

    def test_concurrent_clients(self):
        client, server = _fixture(n_rows=8)
        reference = server.execute_join(_query(client))
        results = {}
        errors = []

        def run(name, host, port):
            try:
                with RemoteJoinClient(
                    host, port, client.scheme.backend
                ) as rc:
                    results[name] = rc.execute_join(_query(client))
            except Exception as error:  # noqa: BLE001 - collected
                errors.append((name, error))

        with JoinServiceServer(server) as service:
            host, port = service.address
            threads = [
                threading.Thread(target=run, args=(i, host, port))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        assert len(results) == 3
        for result in results.values():
            assert result.tuples == reference.tuples

    def test_single_connection_rejects_overlapping_streams(self):
        client, server = _fixture(n_rows=6)
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                stream = rc.stream_join(_query(client))
                next(stream)
                with pytest.raises(NetworkError, match="in flight"):
                    next(rc.stream_join(_query(client)))
                _drain_started(stream)


def _drain_started(stream):
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            return stop.value


# -- in-band errors ---------------------------------------------------------


class TestRemoteErrors:
    def test_unknown_table_maps_to_query_error(self):
        client, server = _fixture(n_rows=4)
        query = _query(client)
        query = dataclasses.replace(query, tables=(query.left_table, "NOPE"))
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                with pytest.raises(QueryError, match="server:"):
                    rc.execute_join(query)
                # An in-band error leaves the connection in sync: the
                # next query on the same connection succeeds.
                good = rc.execute_join(_query(client))
                assert good.tuples

    def test_undecodable_request_gets_error_frame(self):
        client, server = _fixture(n_rows=4)
        with JoinServiceServer(server) as service:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                send_message(sock, b"RPROJQRY garbage that will not parse")
                frame = decode_frame(recv_message(sock))
                assert isinstance(frame, ErrorFrame)
                assert frame.error_type == "SchemeError"
                # Still in sync: a real query now streams normally.
                send_message(sock, encode_join_query(
                    _query(client), client.scheme.backend
                ))
                opening = decode_frame(recv_message(sock))
                assert isinstance(opening, StreamHeaderFrame)
                while True:
                    frame = decode_frame(recv_message(sock))
                    if isinstance(frame, FinalFrame):
                        break
                    assert isinstance(frame, MatchBatchFrame)

    def test_scheme_error_type_survives_the_wire(self):
        client, server = _fixture(n_rows=4)
        with JoinServiceServer(server) as service:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                send_message(sock, b"\x00" * 32)
                frame = decode_frame(recv_message(sock))
                assert isinstance(frame, ErrorFrame)
                assert frame.error_type == "SchemeError"

    def test_oversized_request_drops_connection(self):
        client, server = _fixture(n_rows=4)
        with JoinServiceServer(
            server, max_message_size=1024
        ) as service:
            host, port = service.address
            with socket.create_connection((host, port), timeout=10) as sock:
                send_message(sock, b"\x00" * 4096)
                # The server cannot trust the framing any more: it
                # closes rather than answering (clean EOF, or a reset
                # when our unread bytes were still in its buffer).
                try:
                    assert recv_message(sock) is None
                except NetworkError:
                    pass

    def test_deadline_exceeded_maps_to_deadline_error(self):
        client, server = _fixture(n_rows=12)
        query = _query(client, deadline=1e-9)
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                with pytest.raises(DeadlineError, match="deadline"):
                    rc.execute_join(query)
                # Cancellation is in-band: the connection still serves.
                good = rc.execute_join(_query(client))
                assert good.tuples


class TestServedHosts:
    """A join service serves any in-process host, and a host's failure
    outside the library's errors is an in-band ``QueryError``."""

    def test_an_in_process_fleet_answers_as_the_single_store(self):
        client, server = _fixture(n_rows=12)
        backend = server.backend
        shards = [LocalShard(client.params, name=f"s{i}") for i in range(2)]
        for name in ("L", "R"):
            table = copy.deepcopy(server.table(name))
            for piece in partition_table(table, backend, 2):
                shards[piece.shard.shard_index].store(piece)
        reference = server.execute_join(_query(client))
        with JoinServiceServer(ShardCoordinator(shards)) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, backend) as rc:
                result = rc.execute_join(_query(client))
        assert result.stats.shards == 2
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads

    def test_a_host_failure_is_a_query_error_and_the_connection_serves_on(
        self, monkeypatch
    ):
        client, server = _fixture(n_rows=12)
        reference = server.execute_join(_query(client))
        stream_chain = server.stream_chain
        failed = []

        def fails_once_after_a_batch(query):
            stream = stream_chain(query)
            if failed:
                return stream

            def failing():
                yield next(stream)
                stream.close()
                failed.append(query)
                raise RuntimeError("host bug holding a secret")

            return failing()

        monkeypatch.setattr(server, "stream_chain", fails_once_after_a_batch)
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                with pytest.raises(QueryError, match="RuntimeError") as caught:
                    rc.execute_join(_query(client))
                assert "secret" not in str(caught.value)
                assert not rc.closed
                result = rc.execute_join(_query(client))
        assert failed
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads


class TestReplayedAnswerIsFramed:
    """A batch is one message, and a receiver refuses a message over its
    size limit: a cached answer streams in slices, and so does the cold
    increment of a chunk that completes thousands of tuples at once."""

    LIMIT = 256 * 1024

    def _stream_twice(self, keys_per_table):
        """Serve tables ``T1..Tn`` (one row per listed key) to a client
        with the small limit; drain the query cold, then re-submitted."""
        names = [f"T{i + 1}" for i in range(len(keys_per_table))]
        tables = [
            Table(name, Schema.of(("k", "int"), ("v", "str")),
                  [(key, f"{name}.{i}") for i, key in enumerate(keys)])
            for name, keys in zip(names, keys_per_table)
        ]
        client = SecureJoinClient.for_tables(
            [(t, "k") for t in tables], in_clause_limit=1,
            rng=random.Random(23),
        )
        server = SecureJoinServer(client.params)
        for table in tables:
            server.store(client.encrypt_table(table, "k"))
        if len(names) == 2:
            query = client.create_query(
                JoinQuery.build("T1", "T2", on=("k", "k"))
            )
        else:
            query = client.create_chain_query(
                ChainQuery.build([(name, "k") for name in names])
            )
        with server, JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(
                host, port, client.scheme.backend,
                max_message_size=self.LIMIT,
            ) as rc:
                stream_of = (
                    rc.stream_join if len(names) == 2 else rc.stream_chain
                )
                return _drain(stream_of(query)), _drain(stream_of(query))

    @pytest.mark.parametrize("arity", [2, 3], ids=["join", "chain3"])
    def test_resubmission_fits_the_message_limit(self, arity):
        # Distinct keys: 3000 matches, a few dozen per cold chunk.
        (_, cold), (batches, replay) = self._stream_twice(
            [range(3000)] * arity
        )
        assert len(cold.tuples) == 3000
        assert replay.stats.series_cache_hits == 1
        assert [len(batch.tuples) for batch in batches] == [1024, 1024, 952]
        assert sorted(
            row for batch in batches for row in batch.tuples
        ) == sorted(replay.tuples)
        assert replay.tuples == cold.tuples
        assert replay.payloads == cold.payloads
        _assert_same_objects(replay, cold)

    @pytest.mark.parametrize("arity", [2, 3], ids=["join", "chain3"])
    def test_cold_increment_fits_the_message_limit(self, arity):
        # One key, so every chunk completes the cross product of its
        # rows with the other sides' rows so far.  The 120-row side's
        # chunks are 1, 2, 4, …, 32 and 57 rows, the 50-row side's 1, 2,
        # 4, 8, 16 and 19: the last chunk completes 57 × 50 = 2850
        # tuples in one increment (≈ 285 KB as one message), sliced
        # into 1024 + 1024 + 802; before it, the join's 32-row chunk
        # completes 1600 (1024 + 576) and the chain's 19-row chunk 1197
        # (1024 + 173), the chain's planner feeding the sides in
        # another order.
        sizes = [50, 120, 1][:arity]
        (batches, cold), (_, replay) = self._stream_twice(
            [[7] * size for size in sizes]
        )
        assert cold.stats.series_cache_hits == 0
        ramp = [1, 2, 6, 12, 28, 56, 120, 240, 496]
        assert [len(batch.tuples) for batch in batches] == ramp + {
            2: [589, 1024, 576, 1024, 1024, 802],
            3: [992, 1024, 173, 1024, 1024, 802],
        }[arity]
        assert sorted(
            row for batch in batches for row in batch.tuples
        ) == sorted(cold.tuples)
        assert len(cold.tuples) == 6000
        assert replay.tuples == cold.tuples
        assert replay.payloads == cold.payloads
        _assert_same_objects(replay, cold)


def _assert_same_objects(replay, cold):
    """The replay carried no payload: the connection resolved every row
    to the very ``bytes`` object the cold answer received."""
    for again, before in zip(replay.payloads, cold.payloads):
        assert all(map(operator.is_, again, before))


class _CountingSocket:
    """Counts the bytes ``recv`` hands out; the rest is the socket's."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.received = 0

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self.received += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


@dataclasses.dataclass
class _Answer:
    """One query's answer on a :class:`_RawConnection`, counted."""

    header: StreamHeaderFrame | None
    result: object
    #: Rows whose payload the answer carried, and their payload bytes.
    rows: int
    payload_bytes: int
    #: Every other byte the socket carried for the answer.
    framing: int
    frames: int
    error: ErrorFrame | None = None


class _RawConnection:
    """A connection driven frame by frame on a real socket, the
    client's row state kept beside it, counting every byte received."""

    def __init__(self, address, backend):
        self.sock = _CountingSocket(
            socket.create_connection(address, timeout=30)
        )
        self.backend = backend
        self.held: dict[str, dict[int, bytes]] = {}

    def ask(self, query) -> _Answer:
        before = self.sock.received
        send_message(self.sock, encode_join_query(query, self.backend))
        header = decode_frame(recv_message(self.sock))
        if isinstance(header, ErrorFrame):
            # A query that fails before its first batch gets no header.
            return _Answer(
                header=None, result=None, rows=0, payload_bytes=0,
                framing=self.sock.received - before, frames=1, error=header,
            )
        reassembler = StreamReassembler(query, header, self.held)
        rows = payload_bytes = frames = 0
        while True:
            frame = decode_frame(recv_message(self.sock))
            frames += 1
            if isinstance(frame, (FinalFrame, ErrorFrame)):
                break
            rows += sum(map(len, frame.rows))
            payload_bytes += sum(
                len(payload)
                for carried in frame.rows
                for payload in carried.values()
            )
            reassembler.add_batch(frame)
        failed = isinstance(frame, ErrorFrame)
        return _Answer(
            header=header,
            result=None if failed else reassembler.finish(frame),
            rows=rows,
            payload_bytes=payload_bytes,
            framing=self.sock.received - before - payload_bytes,
            frames=frames,
            error=frame if failed else None,
        )

    def __enter__(self) -> "_RawConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.sock.close()


def _served(tables, seed=29, **server_kwargs):
    """A client for ``tables`` (joined on ``k``), and a server storing
    them; returns ``(client, server, encrypted tables)``."""
    client = SecureJoinClient.for_tables(
        [(t, "k") for t in tables], in_clause_limit=1,
        rng=random.Random(seed),
    )
    encrypted = [client.encrypt_table(t, "k") for t in tables]
    server = SecureJoinServer(client.params, **server_kwargs)
    for table in encrypted:
        server.store(table)
    return client, server, encrypted


def _reference(client, encrypted, query):
    """The in-process answer over the same stored tables, uncached."""
    with SecureJoinServer(client.params, series_cache_bytes=0) as server:
        for table in encrypted:
            server.store(table)
        return server.execute_chain(query)


class TestEachRowTravelsOnce:
    """A connection carries each matched row's payload once per table
    epoch, however many tuples and queries name the row — counted on a
    real socket, byte for byte."""

    def test_payload_bytes_on_the_socket_are_the_distinct_rows(self):
        # 50 x 60 rows under one key: 3000 tuples name 110 rows.
        sizes = {"T1": 50, "T2": 60}
        tables = [
            Table(name, Schema.of(("k", "int"), ("v", "str")),
                  [(7, f"{name}.{i}" * (1 + i % 5)) for i in range(size)])
            for name, size in sizes.items()
        ]
        client, server, encrypted = _served(tables)
        t1, t2 = (e.payloads for e in encrypted)
        narrow = client.create_query(JoinQuery.build(
            "T1", "T2", on=("k", "k"), where_left={"v": ["T1.0"]}
        ))
        query = client.create_query(JoinQuery.build("T1", "T2", on=("k", "k")))
        with server, JoinServiceServer(server) as service:
            with _RawConnection(
                service.address, client.scheme.backend
            ) as connection:
                first = connection.ask(narrow)
                cold = connection.ask(query)
                replayed = connection.ask(query)
            with _RawConnection(
                service.address, client.scheme.backend
            ) as other:
                fresh = other.ask(query)
        # A connection's first stream restarts every table it names.
        assert first.header.restart == ("T1", "T2")
        assert (first.rows, first.payload_bytes) == (
            61, len(t1[0]) + sum(map(len, t2))
        )
        # The wider query carries only the rows the narrow one did not
        # match: T1's other 49, and none of T2's.
        assert cold.header.restart == ()
        assert (cold.rows, cold.payload_bytes) == (
            49, sum(map(len, t1[1:]))
        )
        # A replay carries no payload, and no final tuple run: the
        # index tuples once (in the batches), a header per message.
        assert (replayed.rows, replayed.payload_bytes) == (0, 0)
        assert replayed.header.restart == ()
        assert 3000 * 2 * 4 <= replayed.framing <= 3000 * 2 * 4 + (
            (replayed.frames + 1) * 160 + 1500
        )
        # A second connection starts over: every matched row, once.
        assert fresh.header.restart == ("T1", "T2")
        assert (fresh.rows, fresh.payload_bytes) == (
            110, sum(map(len, t1)) + sum(map(len, t2))
        )
        assert fresh.framing <= 3000 * 2 * 4 + 110 * 8 + (
            (fresh.frames + 1) * 160 + 1500
        )
        assert (cold.result.stats.series_cache_hits,
                replayed.result.stats.series_cache_hits) == (0, 1)
        expected = _reference(client, encrypted, query)
        for answer in (cold, replayed, fresh):
            assert answer.result.tuples == expected.tuples
            assert answer.result.payloads == expected.payloads
        assert len(expected.tuples) == 3000
        # One connection hands out one object per row, in every answer.
        _assert_same_objects(replayed.result, cold.result)

    def test_a_table_stored_again_restarts_on_the_connection(self):
        keys = [i % 3 for i in range(9)]
        left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                     [(k, f"a{i}") for i, k in enumerate(keys)])
        right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                      [(k, f"b{i}") for i, k in enumerate(keys)])
        # The same keys at the same rows, other values.
        moved = Table("R", right.schema,
                      [(k, f"moved{i}") for i, k in enumerate(keys)])
        client, server, encrypted = _served([left, right])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server, JoinServiceServer(server) as service:
            with _RawConnection(
                service.address, client.scheme.backend
            ) as connection:
                before = connection.ask(query)
                encrypted[1] = client.encrypt_table(moved, "k")
                server.store(encrypted[1])
                after = connection.ask(query)
        assert before.header.restart == ("L", "R")
        assert after.header.restart == ("R",)
        # R's rows travel again, L's do not.
        assert after.rows == len(moved)
        assert after.payload_bytes == sum(map(len, encrypted[1].payloads))
        expected = _reference(client, encrypted, query)
        assert after.result.tuples == expected.tuples
        assert after.result.payloads == expected.payloads
        decrypted = client.decrypt_chain_result(after.result).table.rows()
        assert {row[3] for row in decrypted} == {
            f"moved{i}" for i in range(len(keys))
        }

    def test_a_store_racing_the_query_start_restarts_the_table(
        self, monkeypatch
    ):
        # R is stored again right after the service reads its epoch for
        # the second query, before the pipeline lends R's payloads: the
        # answer must be the new table's, not rows the connection holds.
        keys = [i % 3 for i in range(9)]
        left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                     [(k, f"a{i}") for i, k in enumerate(keys)])
        right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                      [(k, f"b{i}") for i, k in enumerate(keys)])
        moved = Table("R", right.schema,
                      [(k, f"moved{i}") for i, k in enumerate(keys)])
        client, server, encrypted = _served([left, right])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        read_epoch = server.table_epoch
        pending = []

        def racing_epoch(name):
            epoch = read_epoch(name)
            if name == "R" and pending:
                server.store(pending.pop())
            return epoch

        monkeypatch.setattr(server, "table_epoch", racing_epoch)
        with server, JoinServiceServer(server) as service:
            with _RawConnection(
                service.address, client.scheme.backend
            ) as connection:
                before = connection.ask(query)
                encrypted[1] = client.encrypt_table(moved, "k")
                pending.append(encrypted[1])
                during = connection.ask(query)
                after = connection.ask(query)
        assert before.header.restart == ("L", "R")
        # The store landed between the two epoch reads: R restarts, and
        # again on the next query, which sees an epoch the connection
        # did not record.
        assert during.header.restart == after.header.restart == ("R",)
        expected = _reference(client, encrypted, query)
        for answer in (during, after):
            assert answer.rows == len(moved)
            assert answer.result.tuples == expected.tuples
            assert answer.result.payloads == expected.payloads
        decrypted = client.decrypt_chain_result(during.result).table.rows()
        assert {row[3] for row in decrypted} == {
            f"moved{i}" for i in range(len(keys))
        }

    def test_an_inserted_row_travels_once_and_a_deleted_row_never(self):
        keys = [i % 3 for i in range(9)]
        left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                     [(k, f"a{i}") for i, k in enumerate(keys)])
        right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                      [(k, f"b{i}") for i, k in enumerate(keys)])
        client, server, encrypted = _served([left, right])
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server, JoinServiceServer(server) as service:
            with _RawConnection(
                service.address, client.scheme.backend
            ) as connection:
                cold = connection.ask(query)
                ciphertext, payload, tags = client.encrypt_row_for(
                    "R", (1, "late")
                )
                inserted = server.insert_row("R", ciphertext, payload, tags)
                server.delete_rows("L", [4])
                after = connection.ask(query)
                again = connection.ask(query)
            expected = server.execute_chain(query)
        assert cold.rows == 18
        # Inserts and deletes move no epoch: nothing restarts, and the
        # one new row is the one payload carried.
        assert after.header.restart == again.header.restart == ()
        assert (after.rows, after.payload_bytes) == (1, len(payload))
        assert (again.rows, again.payload_bytes) == (0, 0)
        for answer in (after, again):
            assert answer.result.tuples == expected.tuples
            assert answer.result.payloads == expected.payloads
            assert all(combo[0] != 4 for combo in answer.result.tuples)
            assert sum(
                combo[1] == inserted for combo in answer.result.tuples
            ) == keys.count(1) - 1

    def test_a_table_named_twice_carries_each_row_once(self):
        keys = [i % 4 for i in range(12)]
        t = Table("T", Schema.of(("k", "int"), ("v", "str")),
                  [(k, f"t{i}") for i, k in enumerate(keys)])
        u = Table("U", Schema.of(("k", "int"), ("w", "str")),
                  [(k, f"u{i}") for i, k in enumerate(keys[:6])])
        client, server, encrypted = _served([t, u])
        self_join = client.create_query(
            JoinQuery.build("T", "T", on=("k", "k"))
        )
        chain = client.create_chain_query(
            ChainQuery.build([("T", "k"), ("U", "k"), ("T", "k")])
        )
        with server, JoinServiceServer(server) as service:
            with _RawConnection(
                service.address, client.scheme.backend
            ) as connection:
                paired = connection.ask(self_join)
                chained = connection.ask(chain)
            with _RawConnection(
                service.address, client.scheme.backend
            ) as other:
                alone = other.ask(chain)
        t_bytes = sum(map(len, encrypted[0].payloads))
        u_bytes = sum(map(len, encrypted[1].payloads))
        # Two positions, one table: each of T's 12 rows once.
        assert paired.header.restart == ("T",)
        assert (paired.rows, paired.payload_bytes) == (12, t_bytes)
        # The chain after it carries only U's rows ...
        assert chained.header.restart == ("U",)
        assert (chained.rows, chained.payload_bytes) == (6, u_bytes)
        # ... and on a fresh connection T's rows once, not twice.
        assert alone.header.restart == ("T", "U")
        assert (alone.rows, alone.payload_bytes) == (18, t_bytes + u_bytes)
        for answer, query in (
            (paired, self_join), (chained, chain), (alone, chain)
        ):
            expected = _reference(client, encrypted, query)
            assert answer.result.tuples == expected.tuples
            assert answer.result.payloads == expected.payloads

    def test_a_deadline_error_mid_stream_leaves_the_rows_in_step(self):
        # Each chunk sleeps 50 ms, so the answer's first batches leave
        # well before its deadline passes and its last chunks never run.
        client, server = _fixture(
            n_rows=12, backend=SleepingBackend(), workers=1
        )
        late = _query(client, deadline=0.25)
        query = _query(client)
        encrypted = [server.table("L"), server.table("R")]
        with server, JoinServiceServer(server) as service:
            with _RawConnection(
                service.address, client.scheme.backend
            ) as connection:
                failed = connection.ask(late)
                good = connection.ask(query)
            with RemoteJoinClient(
                *service.address, client.scheme.backend
            ) as rc:
                stream = rc.stream_join(late)
                assert next(stream).tuples
                with pytest.raises(DeadlineError, match="deadline"):
                    _drain_started(stream)
                remote = rc.execute_join(query)
        assert failed.error.error_type == "DeadlineError"
        assert 0 < failed.rows < 24
        # The good answer carries exactly the rows the failed one had
        # not, and resolves the others from what the connection holds.
        assert failed.rows + good.rows == 24
        expected = _reference(client, encrypted, query)
        for result in (good.result, remote):
            assert result.tuples == expected.tuples
            assert result.payloads == expected.payloads


# -- the engine is the operator's ---------------------------------------------


class TestServerEngine:
    def test_remote_queries_run_on_the_engine_the_server_was_built_with(self):
        client, server = _fixture(n_rows=6, engine=SerialEngine())
        batched = SecureJoinServer(client.params)
        for name in ("L", "R"):
            batched.store(server.table(name))
        reference = batched.execute_join(_query(client))
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                result = rc.execute_join(_query(client))
        assert result.stats.engine == result.stats.engine_selected == "serial"
        assert result.stats.final_exponentiations == result.stats.miller_loops
        assert _normalize(result) == _normalize(reference)


# -- client-side backpressure -----------------------------------------------


class TestBackpressure:
    def test_slow_consumer_still_reassembles(self):
        client, server = _fixture(n_rows=15, batch_size=2)
        reference = server.execute_join(_query(client))
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                stream = rc.stream_join(_query(client))
                batches = []
                while True:
                    try:
                        batches.append(next(stream))
                    except StopIteration as stop:
                        result = stop.value
                        break
                    time.sleep(0.01)  # fall behind the producer
        assert len(batches) >= 2
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads

    def test_abandoned_stream_closes_connection_and_releases(self):
        client, server = _fixture(n_rows=15, batch_size=2)
        with JoinServiceServer(server) as service:
            host, port = service.address
            rc = RemoteJoinClient(host, port, client.scheme.backend)
            stream = rc.stream_join(_query(client))
            next(stream)  # at least the first batch arrived
            stream.close()  # abandon mid-stream
            # Mid-stream abandonment desynchronizes the framing: the
            # client drops the connection...
            assert rc.closed
            # ...and the server notices, releasing the handler slot.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if service.active_connections == 0:
                    break
                time.sleep(0.02)
            assert service.active_connections == 0
            # The service remains healthy for new clients.
            with RemoteJoinClient(host, port, client.scheme.backend) as rc2:
                assert rc2.execute_join(_query(client)).tuples


    def test_queries_served_counts_completed_streams_only(self):
        """An error reply and a stream cut by a vanished client are not
        served queries; only an answer whose final frame went out is."""
        client, server = _fixture(n_rows=6)
        backend = client.scheme.backend
        with JoinServiceServer(server) as service:
            host, port = service.address
            with RemoteJoinClient(host, port, backend) as rc:
                assert rc.execute_join(_query(client)).tuples
                unknown = dataclasses.replace(
                    _query(client), tables=("L", "NOPE")
                )
                with pytest.raises(QueryError):
                    rc.execute_join(unknown)

            # An answer far larger than any socket buffer: the handler
            # is still blocked sending it when the client walks away.
            def flood(query):
                yield ChainMatchBatch([(0, 0)], [(bytes(32 << 20), b"")])

            server.stream_chain = flood
            with socket.create_connection((host, port), timeout=10) as sock:
                send_message(sock, encode_join_query(_query(client), backend))
                opening = decode_frame(recv_message(sock))
                assert isinstance(opening, StreamHeaderFrame)
            deadline = time.monotonic() + 10
            while service.active_connections and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.active_connections == 0
            assert service.queries_served == 1


# -- graceful drain ---------------------------------------------------------


class TestDrain:
    def test_shutdown_closes_idle_connections_and_stops_accepting(self):
        client, server = _fixture(n_rows=4)
        service = JoinServiceServer(server)
        host, port = service.start()
        idle = socket.create_connection((host, port), timeout=10)
        try:
            service.shutdown(drain=True)
            # The idle connection was force-closed (EOF or reset)...
            try:
                assert recv_message(idle) is None
            except NetworkError:
                pass
        finally:
            idle.close()
        # ...and nothing new is accepted.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_drain_finishes_in_flight_stream(self):
        client, server = _fixture(n_rows=15, batch_size=2)
        reference = server.execute_join(_query(client))
        service = JoinServiceServer(server, drain_timeout=30.0)
        host, port = service.start()
        rc = RemoteJoinClient(host, port, client.scheme.backend)
        try:
            stream = rc.stream_join(_query(client))
            first = next(stream)  # the stream is in flight
            shutdown_done = threading.Event()

            def trigger():
                service.shutdown(drain=True)
                shutdown_done.set()

            threading.Thread(target=trigger, daemon=True).start()
            batches, result = _drain(stream)
            # Drain let the in-flight stream run to completion.
            assert result.tuples == reference.tuples
            assert [first.tuples] + [
                b.tuples for b in batches
            ]  # batches all arrived
            assert shutdown_done.wait(timeout=30)
        finally:
            rc.close()
        # The pool went down with the service.
        assert not server.execution_service.started

    def test_shutdown_without_drain_cuts_streams(self):
        client, server = _fixture(n_rows=15, batch_size=2)
        service = JoinServiceServer(server)
        host, port = service.start()
        rc = RemoteJoinClient(host, port, client.scheme.backend)
        try:
            stream = rc.stream_join(_query(client))
            next(stream)
            service.shutdown(drain=False)
            with pytest.raises((NetworkError, StopIteration)):
                while True:
                    next(stream)
        finally:
            rc.close()

    def test_shutdown_is_idempotent(self):
        client, server = _fixture(n_rows=4)
        service = JoinServiceServer(server)
        service.start()
        service.shutdown()
        service.shutdown()


class _SlowClose:
    """A socket whose ``close`` takes 0.3 s: its handler is still alive
    after the connection has left the server's registry."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def close(self) -> None:
        time.sleep(0.3)
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _SlowClosingListener:
    """A listener that hands out :class:`_SlowClose` sockets."""

    def __init__(self, listener: socket.socket):
        self._listener = listener

    def accept(self):
        sock, peer = self._listener.accept()
        return _SlowClose(sock), peer

    def __getattr__(self, name):
        return getattr(self._listener, name)


class TestHandlerTracking:
    def test_no_handler_outlives_shutdown(self, monkeypatch):
        """Clients that hung up just before ``shutdown`` leave handlers
        on their way out, already unregistered: shutdown joins them."""
        create_server = socket.create_server
        monkeypatch.setattr(
            socket, "create_server",
            lambda *args, **kwargs: _SlowClosingListener(
                create_server(*args, **kwargs)
            ),
        )
        before = set(threading.enumerate())
        client, server = _fixture(n_rows=4)
        service = JoinServiceServer(server)
        host, port = service.start()
        for _ in range(3):
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                rc.execute_join(_query(client))
        deadline = time.monotonic() + 10
        while service.active_connections and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.active_connections == 0
        service.shutdown()
        assert not [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith("repro-net-conn-")
        ]

    def test_finished_handlers_are_not_retained(self):
        """A long-lived server keeps a handler ``Thread`` per *live*
        connection, not one per connection ever accepted."""

        def handler_threads():
            gc.collect()
            return sum(
                isinstance(obj, threading.Thread)
                and obj.name.startswith("repro-net-conn-")
                for obj in gc.get_objects()
            )

        client, server = _fixture(n_rows=4)
        before = handler_threads()
        with JoinServiceServer(server) as service:
            host, port = service.address
            held = socket.create_connection((host, port), timeout=10)
            try:
                for _ in range(20):
                    with RemoteJoinClient(
                        host, port, client.scheme.backend
                    ) as rc:
                        rc.execute_join(_query(client))
                deadline = time.monotonic() + 10
                while (
                    service.active_connections > 1
                    or handler_threads() - before > 2
                ) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert service.active_connections == 1
                # The held connection's handler, plus the one the accept
                # loop's locals still name (the last it accepted) — not 21.
                assert 1 <= handler_threads() - before <= 2
            finally:
                held.close()


# -- QoS: priority-preferring dispatch and deadline cancellation ------------


class _RecordingExecutor:
    """Stands in for the process pool (the one place a test substitutes
    a fake): ``submit`` records the chunk's encoded token and returns a
    future the test resolves by hand, so the pump's picks can be read
    off one at a time."""

    def __init__(self, **kwargs):
        self.calls: list[tuple[tuple, Future]] = []

    def submit(self, function, token_bytes, *args):
        future = Future()
        self.calls.append((tuple(token_bytes), future))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _Scheduler:
    """A one-worker service over the recording executor whose window
    (two chunks) a filler side already fills: every admitted side waits,
    and each resolved future makes the pump pick exactly one chunk.
    Admission dispatches nothing, so the filler is dealt by one pull —
    of an empty side, whose stream ends at once."""

    def __init__(self, monkeypatch):
        self.executors: list[_RecordingExecutor] = []

        def build(**kwargs):
            self.executors.append(_RecordingExecutor(**kwargs))
            return self.executors[-1]

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", build)
        self.backend = FastBackend()
        self.service = ExecutionService(workers=1)
        self.names: dict[tuple, str] = {}
        self.resolved = 0
        self.admit("filler", pending=2)
        assert list(self.service.stream_chunks(self.admit("", pending=0))) == []
        assert len(self.executors[0].calls) == 2

    def admit(self, name, priority=0, pending=1, deadline=None):
        # A distinct token per side: its bytes name the side's chunks.
        token = self.backend.g1_powers([len(self.names) + 1])
        self.names[tuple(map(self.backend.encode_g1, token))] = name
        return self.service.admit_side(
            self.backend, token,
            [self.backend.g2_powers([row + 1]) for row in range(pending)],
            batch_size=1,
            qos=QueryQoS(priority=priority, deadline=deadline),
        )

    def picks(self, count):
        """Resolve ``count`` futures, oldest first; the sides the pump
        submitted a chunk of in response, in order."""
        (executor,) = self.executors
        before = len(executor.calls)
        for _ in range(count):
            _, future = executor.calls[self.resolved]
            self.resolved += 1
            future.set_result((0, [b"handle"], PairingOpCounter()))
        return [self.names[token] for token, _ in executor.calls[before:]]


class TestPriorityScheduling:
    def test_higher_priority_side_wins_the_refill(self, monkeypatch):
        scheduler = _Scheduler(monkeypatch)
        scheduler.admit("low", priority=0)
        scheduler.admit("high", priority=7)
        assert scheduler.picks(1) == ["high"]

    def test_negative_priority_defers_to_neutral(self, monkeypatch):
        scheduler = _Scheduler(monkeypatch)
        scheduler.admit("background", priority=-5)
        scheduler.admit("neutral", priority=0)
        assert scheduler.picks(1) == ["neutral"]

    def test_equal_priorities_round_robin(self, monkeypatch):
        scheduler = _Scheduler(monkeypatch)
        scheduler.admit("a", priority=3, pending=4)
        scheduler.admit("b", priority=3, pending=4)
        assert scheduler.picks(4) == ["a", "b", "a", "b"]

    def test_expired_and_errored_sides_are_skipped(self, monkeypatch):
        scheduler = _Scheduler(monkeypatch)
        scheduler.admit("dead", priority=9, deadline=time.monotonic() - 1.0)
        failed = scheduler.admit("failed", priority=9)
        failed.error = "boom"
        scheduler.admit("ok", priority=0)
        assert scheduler.picks(1) == ["ok"]

    def test_priority_outranks_rotation_position(self, monkeypatch):
        # Even sitting at the back of the rotation, the high-priority
        # side is picked first on a fresh refill.
        scheduler = _Scheduler(monkeypatch)
        for name in ("one", "two", "three"):
            scheduler.admit(name, priority=0, pending=2)
        scheduler.admit("high", priority=1, pending=2)
        assert scheduler.picks(2) == ["high", "high"]


class TestDealingOrder:
    def test_sides_opened_together_are_dealt_together(self, monkeypatch):
        """Admission dispatches nothing: the first pull of either of two
        sides opened before it deals both round-robin — L0, R0, L1, R1
        — so a two-worker pool starts on one row of each side."""
        executors: list[_RecordingExecutor] = []

        def build(**kwargs):
            executors.append(_RecordingExecutor(**kwargs))
            return executors[-1]

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", build)
        backend = FastBackend()
        service = ExecutionService(workers=2)
        names, sides = {}, []
        for name in ("L", "R"):
            token = backend.g1_powers([len(names) + 1])
            names[tuple(map(backend.encode_g1, token))] = name
            sides.append(service.admit_side(
                backend, token,
                [backend.g2_powers([row + 1]) for row in range(4)],
                batch_size=1,
            ))
        assert executors == []
        stream = service.stream_chunks(sides[0])
        pull = threading.Thread(target=next, args=(stream,), daemon=True)
        pull.start()
        deadline = time.monotonic() + 30.0
        while not executors or len(executors[0].calls) < 4:
            assert time.monotonic() < deadline, "nothing was dealt"
            time.sleep(0.01)
        (executor,) = executors
        # The window is two chunks per worker: four dealt, none resolved.
        assert [names[token] for token, _ in executor.calls] == [
            "L", "R", "L", "R",
        ]
        executor.calls[0][1].set_result((0, [b"handle"], PairingOpCounter()))
        pull.join(timeout=30.0)
        assert not pull.is_alive()
        service.close()


class TestDeadlineCancellation:
    def test_expired_admission_raises_deadline_error(self):
        client, _ = _fixture(n_rows=8)
        backend = client.scheme.backend
        table = client.encrypt_table(
            Table("T", Schema.of(("k", "int"), ("v", "str")),
                  [(i, f"v{i}") for i in range(8)]),
            "k",
        )
        query = _query(client)
        service = ExecutionService(workers=1)
        try:
            side = service.admit_side(
                backend,
                query.left_token.elements,
                [c.elements for c in table.ciphertexts],
                batch_size=2,
                qos=QueryQoS(priority=0, deadline=time.monotonic() - 1.0),
            )
            with pytest.raises(DeadlineError, match="deadline"):
                for _ in service.stream_chunks(side):
                    pass
        finally:
            service.close()

    def test_unexpired_admission_completes(self):
        client, _ = _fixture(n_rows=6)
        backend = client.scheme.backend
        table = client.encrypt_table(
            Table("T", Schema.of(("k", "int"), ("v", "str")),
                  [(i, f"v{i}") for i in range(6)]),
            "k",
        )
        query = _query(client)
        service = ExecutionService(workers=1)
        try:
            side = service.admit_side(
                backend,
                query.left_token.elements,
                [c.elements for c in table.ciphertexts],
                batch_size=2,
                qos=QueryQoS(priority=2, deadline=time.monotonic() + 300.0),
            )
            chunks = list(service.stream_chunks(side))
            assert sum(len(handles) for _, handles in chunks) == 6
        finally:
            service.close()

    def test_batched_engine_checks_deadline_between_chunks(self):
        client, server = _fixture(n_rows=8)
        backend = client.scheme.backend
        query = _query(client)
        table = server.table("L")
        engine = BatchedEngine(batch_size=2)
        stream = engine.decrypt_stream(
            backend,
            query.left_token.elements,
            [c.elements for c in table.ciphertexts],
            qos=QueryQoS(deadline=time.monotonic() - 1.0),
        )
        with pytest.raises(DeadlineError):
            for _ in stream:
                pass
        server.close()
