"""Sharded store + scatter-gather coordination: the proof suite.

The contracts under test:

- **determinism** — the partitioner is a pure function of stored bytes
  (seeded blake2b), identical across processes and interpreter runs
  regardless of ``PYTHONHASHSEED``; golden values are pinned;
- **explicitness** — repartitioning never happens silently: layout
  mismatches (wrong shard count, mixed seeds, duplicate indices) are
  errors, not triggers;
- **byte-identity** — the merged scatter-gather stream reassembles the
  *exact* single-store ``execute_join`` result (pairs and payloads) for
  any shard count, any skew, any engine, local or remote shards;
- **fault tolerance** — a SIGKILLed worker inside one shard's pool is
  rescued invisibly (result unchanged); a whole shard dying mid-stream
  raises :class:`~repro.errors.ShardUnavailableError` naming the shard,
  with every surviving shard's admissions released and flat process/FD
  counts afterwards.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading

import pytest

from repro.baselines import SerialEngine
from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.crypto.backend import get_backend
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import SchemeError, ShardUnavailableError
from repro.net import RemoteShard, ShardServiceServer
from repro.shard import (
    DEFAULT_SEED,
    LocalShard,
    ShardCoordinator,
    ShardDescriptor,
    partition_rows,
    partition_table,
    shard_of_bytes,
    shard_skew,
    validate_shard_layout,
)
from tests.conftest import (
    SERVER_SHAPES,
    PoolEngine,
    held_handles,
    server_shape,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False

#: How a fleet's shards are built, per label, as ``LocalShard``
#: arguments.  Each shard gets a fresh engine: an engine stays bound to
#: the first pool it is given, so shards must not share one.  ``None``
#: is the default build (as wide as the CPUs the process may run on);
#: ``batched`` lets the backend decide every side on two workers;
#: ``parallel`` sends every side of two rows or more to a two-worker pool, as the
#: property suite's ``pooled`` shape does.
SHARD_BUILDS = {
    None: lambda: {},
    "serial": lambda: {"engine": SerialEngine()},
    "batched": lambda: {"engine": BatchedEngine(), "workers": 2},
    "parallel": lambda: {
        "engine": PoolEngine(), "workers": 2,
    },
    **{
        shape: (lambda shape=shape: server_shape(shape, batch_size=4))
        for shape in SERVER_SHAPES
    },
}
ENGINES = (None, "serial", "batched", "parallel")


def _alive_children() -> int:
    return len(multiprocessing.active_children())


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd"
    ) else -1


def _fixture(left_keys, right_keys, seed=7):
    """Plaintext tables -> (client, backend, [enc_left, enc_right], ref).

    ``ref`` is the single-store ``execute_join`` result the sharded
    runs must reproduce byte-for-byte.
    """
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
    tables = [client.encrypt_table(left, "k"), client.encrypt_table(right, "k")]
    server = SecureJoinServer(client.params, workers=2)
    for table in tables:
        server.store(table)
    ref = server.execute_join(_query(client))
    backend = server.scheme.backend
    server.close()
    return client, backend, tables, ref


def _query(client, **kwargs):
    return client.create_query(
        JoinQuery.build("L", "R", on=("k", "k")), **kwargs
    )


def _sharded(
    client, backend, tables, n_shards, assignments=None, build=None,
    shard_backend=None,
):
    """Build ``n_shards`` local shards as ``SHARD_BUILDS[build]`` says
    (decrypting on ``shard_backend``, when given), holding the
    partitioned tables."""
    shards = [
        LocalShard(
            client.params, backend=shard_backend, name=f"shard-{i}",
            **SHARD_BUILDS[build](),
        )
        for i in range(n_shards)
    ]
    for position, table in enumerate(tables):
        assignment = assignments[position] if assignments else None
        for piece in partition_table(
            table, backend, n_shards, assignment=assignment
        ):
            shards[piece.shard.shard_index].store(piece)
    return shards


def _drain(generator):
    batches = []
    while True:
        try:
            batches.append(next(generator))
        except StopIteration as stop:
            return batches, stop.value


def _assert_identical(result, ref, shards):
    assert result.index_pairs == ref.index_pairs
    assert result.left_payloads == ref.left_payloads
    assert result.right_payloads == ref.right_payloads
    assert result.stats.shards == shards
    assert result.stats.candidates_left == ref.stats.candidates_left
    assert result.stats.candidates_right == ref.stats.candidates_right
    assert result.stats.matches == ref.stats.matches


# -- partitioner determinism ----------------------------------------------


class TestPartitionerDeterminism:
    def test_golden_values_pinned(self):
        """The placement function is part of the on-disk/wire contract:
        these exact values must hold on every platform and forever
        (changing them silently re-homes every stored row)."""
        expected = {
            b"row-0": [1, 2, 1, 5],
            b"row-1": [0, 1, 0, 5],
            b"hello world": [1, 2, 1, 6],
            b"\x00" * 16: [0, 2, 2, 3],
        }
        for key, placements in expected.items():
            assert [
                shard_of_bytes(key, n, DEFAULT_SEED) for n in (2, 3, 4, 7)
            ] == placements
        # The seed really keys the hash.
        assert shard_of_bytes(b"row-0", 4, b"other-seed") == 0

    def test_deterministic_across_interpreter_runs(self):
        """Same bytes -> same shard in a fresh interpreter with a
        different PYTHONHASHSEED — the partitioner must not lean on
        ``hash()`` anywhere (that is the bug class this pins)."""
        script = (
            "import json, sys\n"
            "from repro.shard import shard_of_bytes, DEFAULT_SEED\n"
            "keys = [b'row-%d' % i for i in range(32)]\n"
            "print(json.dumps("
            "[shard_of_bytes(k, 5, DEFAULT_SEED) for k in keys]))\n"
        )
        runs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            output = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            runs.append(json.loads(output))
        in_process = [
            shard_of_bytes(b"row-%d" % i, 5, DEFAULT_SEED) for i in range(32)
        ]
        assert runs[0] == runs[1] == in_process

    def test_row_assignment_deterministic_and_stable(self):
        client, backend, tables, _ = _fixture(range(12), range(12))
        first = partition_rows(tables[0], backend, 4)
        assert partition_rows(tables[0], backend, 4) == first
        assert all(0 <= shard < 4 for shard in first)

    def test_layout_validation_rejects_hostile_values(self):
        for count in (0, -1, 1025, True, "2", None, 2.0):
            with pytest.raises(SchemeError):
                validate_shard_layout(0, count, DEFAULT_SEED)
        for index in (-1, 2, True, "0"):
            with pytest.raises(SchemeError):
                validate_shard_layout(index, 2, DEFAULT_SEED)
        for seed in (b"", b"x" * 65, "not-bytes", None):
            with pytest.raises(SchemeError):
                validate_shard_layout(0, 2, seed)

    def test_descriptor_requires_monotonic_indices(self):
        for bad in ((3, 3), (2, 1), (-1, 0), (0, "1")):
            with pytest.raises(SchemeError):
                ShardDescriptor(0, 2, DEFAULT_SEED, bad)
        ShardDescriptor(0, 2, DEFAULT_SEED, (0, 5, 9))

    def test_shard_skew(self):
        assert shard_skew([]) == 1.0
        assert shard_skew([5, 5]) == 1.0
        assert shard_skew([0, 0]) == 1.0
        assert shard_skew([9, 1, 2]) == pytest.approx(2.25)


# -- explicit repartitioning ----------------------------------------------


class TestExplicitRepartitioning:
    def test_unsharded_table_rejected_by_shard(self):
        client, backend, tables, _ = _fixture([1, 2], [2, 3])
        shard = LocalShard(client.params)
        with pytest.raises(SchemeError, match="partition_table"):
            shard.store(tables[0])
        shard.close()

    def test_mixed_layouts_rejected_by_shard(self):
        client, backend, tables, _ = _fixture([1, 2, 3], [2, 3, 4])
        two = partition_table(tables[0], backend, 2)
        three = partition_table(tables[1], backend, 3)
        with LocalShard(client.params) as shard:
            shard.store(two[0])
            with pytest.raises(SchemeError, match="repartition"):
                shard.store(three[0])

    def test_shard_count_change_is_never_silent(self):
        """Tables partitioned for 3 shards refuse to serve under a
        2-shard coordinator: the caller must repartition."""
        client, backend, tables, _ = _fixture([1, 2, 3], [2, 3, 4])
        shards = [
            LocalShard(client.params, name=f"s{i}") for i in range(2)
        ]
        for table in tables:
            pieces = partition_table(table, backend, 3)
            shards[0].store(pieces[0])
            shards[1].store(pieces[1])
        with pytest.raises(SchemeError, match="repartition"):
            ShardCoordinator(shards)
        for shard in shards:
            shard.close()

    def test_duplicate_shard_index_rejected(self):
        client, backend, tables, _ = _fixture([1, 2], [2, 3])
        shards = [
            LocalShard(client.params, name=f"s{i}") for i in range(2)
        ]
        for shard in shards:
            for table in tables:
                shard.store(partition_table(table, backend, 2)[0])
        with pytest.raises(SchemeError, match="same shard index"):
            ShardCoordinator(shards)
        for shard in shards:
            shard.close()

    def test_assignment_override_validated(self):
        client, backend, tables, _ = _fixture([1, 2, 3], [2, 3, 4])
        with pytest.raises(SchemeError, match="assignment names"):
            partition_table(tables[0], backend, 2, assignment=[0])
        with pytest.raises(SchemeError, match="outside"):
            partition_table(tables[0], backend, 2, assignment=[0, 2, 0])
        pieces = partition_table(tables[0], backend, 2, assignment=[1, 1, 1])
        assert len(pieces[0].ciphertexts) == 0
        assert pieces[1].shard.global_indices == (0, 1, 2)


# -- scatter-gather byte-identity -----------------------------------------


class TestScatterGather:
    def test_matches_single_store_every_engine_and_count(self):
        client, backend, tables, ref = _fixture(
            [i % 5 for i in range(14)], [i % 5 for i in range(11)]
        )
        for n_shards in (1, 2, 3):
            for engine in ENGINES:
                shards = _sharded(
                    client, backend, tables, n_shards, build=engine
                )
                with ShardCoordinator(shards) as coordinator:
                    result = coordinator.execute_join(_query(client))
                    _assert_identical(result, ref, n_shards)
                    assert result.stats.engine == (
                        "serial" if engine == "serial" else "batched"
                    )

    def test_streamed_batches_reassemble_canonically(self):
        client, backend, tables, ref = _fixture(
            [i % 4 for i in range(12)], [i % 4 for i in range(12)]
        )
        shards = _sharded(client, backend, tables, 3)
        with ShardCoordinator(shards) as coordinator:
            batches, result = _drain(coordinator.stream_join(_query(client)))
            _assert_identical(result, ref, 3)
            streamed = [
                pair for batch in batches for pair in batch.index_pairs
            ]
            # Discovery order differs from canonical; the set must not.
            assert sorted(streamed) == sorted(ref.index_pairs)
            assert len(streamed) == len(set(streamed))
            for batch in batches:
                assert len(batch.index_pairs) == len(batch.left_payloads)
                assert len(batch.index_pairs) == len(batch.right_payloads)

    def test_skewed_partition_still_identical(self):
        """All rows crammed onto one shard of two: maximal skew, same
        bytes out, and the skew shows up in the stats."""
        client, backend, tables, ref = _fixture(
            [i % 3 for i in range(10)], [i % 3 for i in range(8)]
        )
        assignments = [[1] * 10, [1] * 8]
        shards = _sharded(client, backend, tables, 2, assignments=assignments)
        with ShardCoordinator(shards) as coordinator:
            result = coordinator.execute_join(_query(client))
            _assert_identical(result, ref, 2)
            assert result.stats.shard_skew == pytest.approx(2.0)
            scatter = [
                record for record in result.stats.planner
                if record.get("stage") == "scatter"
            ]
            assert scatter == [{
                "stage": "scatter",
                "shards": 2,
                "rows_per_shard": [0, 18],
                "skew": pytest.approx(2.0),
            }]

    def test_abandoned_stream_releases_every_shard(self):
        client, backend, tables, _ = _fixture(
            [i % 2 for i in range(30)], [i % 2 for i in range(30)]
        )
        shards = _sharded(client, backend, tables, 2, build="parallel")
        with ShardCoordinator(shards) as coordinator:
            stream = coordinator.stream_join(_query(client))
            next(stream)  # at least one batch in flight
            stream.close()
            for shard in shards:
                assert shard.server.execution_service.active_sides == 0

    def test_observations_cover_all_shards(self):
        """The coordinator sees what the single store sees: every
        handle, under global row indices, and so the same links."""
        client, backend, tables, _ = _fixture([1, 2, 3, 4], [2, 3, 4, 5])
        server = SecureJoinServer(client.params)
        for table in tables:
            server.store(table)
        query = _query(client)
        server.execute_join(query)
        single_handles = held_handles(server, query)
        single_classes = server.ledger.classes()
        server.close()
        assert len(single_handles) == 8 and len(single_classes) == 3
        shards = _sharded(client, backend, tables, 2)
        with ShardCoordinator(shards) as coordinator:
            coordinator.execute_join(query)
            assert held_handles(coordinator, query) == single_handles
            assert coordinator.ledger.classes() == single_classes

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=10, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        right_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        n_shards=st.integers(1, 4),
        shape=st.sampled_from(SERVER_SHAPES),
        data=st.data(),
    )
    def test_property_identical_for_any_partition(
        self, left_keys, right_keys, n_shards, shape, data
    ):
        """Hypothesis-drawn keys, shard counts, skews and server shapes: the
        scatter-gather result is always byte-identical to the single
        store — including under arbitrary (drawn) row placements."""
        client, backend, tables, ref = _fixture(left_keys, right_keys)
        assignments = [
            data.draw(st.lists(
                st.integers(0, n_shards - 1),
                min_size=len(table.ciphertexts),
                max_size=len(table.ciphertexts),
            ))
            for table in tables
        ]
        shards = _sharded(
            client, backend, tables, n_shards, assignments=assignments,
            build=shape,
        )
        with ShardCoordinator(shards) as coordinator:
            result = coordinator.execute_join(_query(client))
            _assert_identical(result, ref, n_shards)


# -- fault injection ------------------------------------------------------


class TestFaultInjection:
    def test_worker_sigkill_mid_scatter_is_rescued(self, crash_once_backend):
        """SIGKILL one shard's pool worker while the scatter is in
        flight: the shard's own rescue restarts its pool, the merged
        result is byte-identical, and the restart is visible in the
        stats."""
        client, backend, tables, ref = _fixture(
            [i % 6 for i in range(72)], [i % 6 for i in range(72)]
        )
        shards = _sharded(
            client, backend, tables, 2, build="parallel",
            shard_backend=crash_once_backend,
        )
        with ShardCoordinator(shards) as coordinator:
            result = coordinator.execute_join(_query(client))
            _assert_identical(result, ref, 2)
            assert result.stats.worker_restarts >= 1
            assert sum(
                shard.server.execution_service.worker_restarts
                for shard in shards
            ) == 1

    def test_shard_death_mid_stream_raises_and_releases(self):
        """Hard-kill one whole shard's pool mid-stream: the consumer
        gets a ShardUnavailableError naming the shard, the surviving
        shard's admissions are released, and no process or FD leaks."""
        children_before = _alive_children()
        fds_before = _open_fds()
        # Shard 1 gets nearly all rows, so after the first merged batch
        # its streams are guaranteed to still be in flight.
        left_n, right_n = 160, 160
        client, backend, tables, _ = _fixture(
            [i % 8 for i in range(left_n)], [i % 8 for i in range(right_n)]
        )
        assignments = [
            [0 if i < 4 else 1 for i in range(left_n)],
            [0 if i < 4 else 1 for i in range(right_n)],
        ]
        shards = _sharded(
            client, backend, tables, 2, assignments=assignments,
            build="parallel",
        )
        coordinator = ShardCoordinator(shards)
        stream = coordinator.stream_join(_query(client))
        next(stream)
        shards[1].server.execution_service.close()
        with pytest.raises(ShardUnavailableError, match="shard 1"):
            while True:
                next(stream)
        assert shards[0].server.execution_service.active_sides == 0
        coordinator.close()
        assert _alive_children() == children_before
        assert _open_fds() == fds_before

    def test_unavailable_error_is_not_raised_for_deadlines(self):
        """Deadline expiry is a property of the query, not shard death:
        it must surface as DeadlineError, untranslated."""
        from repro.errors import DeadlineError, QueryError

        assert issubclass(ShardUnavailableError, QueryError)
        assert not issubclass(DeadlineError, ShardUnavailableError)
        assert not issubclass(ShardUnavailableError, DeadlineError)


# -- remote shards --------------------------------------------------------


class TestRemoteShards:
    def test_mixed_local_and_remote_identical(self):
        client, backend, tables, ref = _fixture(
            [i % 4 for i in range(13)], [i % 4 for i in range(9)]
        )
        shards = _sharded(client, backend, tables, 2)
        service = ShardServiceServer(shards[1])
        host, port = service.start()
        remote = RemoteShard(host, port, backend, name="remote-1")
        try:
            with ShardCoordinator([shards[0], remote]) as coordinator:
                result = coordinator.execute_join(_query(client))
                _assert_identical(result, ref, 2)
                batches, streamed = _drain(
                    coordinator.stream_join(_query(client))
                )
                _assert_identical(streamed, ref, 2)
        finally:
            shards[0].close()
            service.shutdown()

    def test_remote_shard_unreachable_raises(self):
        client, backend, tables, _ = _fixture([1], [1])
        shards = _sharded(client, backend, tables, 2)
        # A bound-then-closed socket: connection refused, deterministic.
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        remote = RemoteShard("127.0.0.1", dead_port, backend, name="gone")
        with ShardCoordinator([shards[0], remote]) as coordinator:
            with pytest.raises(ShardUnavailableError, match="unreachable"):
                coordinator.execute_join(_query(client))
            assert shards[0].server.execution_service.active_sides == 0
        shards[0].close()

    def test_remote_service_shutdown_mid_stream(self):
        """Cutting the shard service's sockets mid-stream surfaces as a
        ShardUnavailableError at the coordinator, and the local
        surviving shard releases its admissions."""
        left_n, right_n = 160, 160
        client, backend, tables, _ = _fixture(
            [i % 8 for i in range(left_n)], [i % 8 for i in range(right_n)]
        )
        assignments = [
            [0 if i < 4 else 1 for i in range(left_n)],
            [0 if i < 4 else 1 for i in range(right_n)],
        ]
        shards = _sharded(
            client, backend, tables, 2, assignments=assignments,
            build="parallel",
        )
        service = ShardServiceServer(shards[1])
        host, port = service.start()
        remote = RemoteShard(host, port, backend, name="doomed")
        coordinator = ShardCoordinator([shards[0], remote])
        stream = coordinator.stream_join(_query(client))
        next(stream)
        service.shutdown(drain=False, timeout=0.0)
        with pytest.raises(ShardUnavailableError):
            while True:
                next(stream)
        assert shards[0].server.execution_service.active_sides == 0
        coordinator.close()
        shards[0].close()

    @staticmethod
    def _against_a_fake_endpoint(answer, match):
        """Scatter over one pooled local shard and one fake endpoint
        that sends the stream header and then ``answer(wire)``: the
        coordinator must raise a ShardUnavailableError matching
        ``match`` (a codec SchemeError as its cause) and the surviving
        local shard must release its admissions."""
        import socket as socket_module

        from repro.net import recv_message, send_message
        from repro.store import wire

        client, backend, tables, _ = _fixture(
            [i % 4 for i in range(40)], [i % 4 for i in range(40)]
        )
        shards = _sharded(client, backend, tables, 2, build="parallel")
        listener = socket_module.create_server(("127.0.0.1", 0))

        def fake_endpoint():
            sock, _ = listener.accept()
            with sock:
                query = wire.decode_join_query(recv_message(sock), backend)
                send_message(
                    sock,
                    wire.encode_stream_header(query.query_id, *query.tables),
                )
                send_message(sock, answer(wire))
                sock.recv(1)  # hold the socket until the proxy drops it

        thread = threading.Thread(target=fake_endpoint, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        remote = RemoteShard(host, port, backend, name="garbler")
        try:
            with ShardCoordinator([shards[0], remote]) as coordinator:
                with pytest.raises(
                    ShardUnavailableError, match=match
                ) as caught:
                    coordinator.execute_join(_query(client))
                assert isinstance(caught.value.__cause__, SchemeError)
                assert (
                    shards[0].server.execution_service.active_sides == 0
                )
        finally:
            listener.close()
            thread.join(timeout=5.0)
            shards[0].close()

    def test_garbage_from_a_shard_is_a_named_shard_failure(self):
        """A shard endpoint that answers with an undecodable frame is a
        ShardUnavailableError naming the shard (the codec's SchemeError
        as its cause), like every other shard failure — and the local
        surviving shard releases its admissions."""

        def garbage(wire):
            good = wire.encode_error_frame("QueryError", "x")
            return good[:13] + b"{bad" + good[17:]

        self._against_a_fake_endpoint(garbage, "garbler.*undecodable")

    def test_mistyped_report_from_a_shard_is_a_named_shard_failure(self):
        """A scatter final that decodes as JSON but whose engine report
        says ``"batches": "x"`` used to reach the coordinator's stats
        fold and die there as a TypeError, outside every guard.  It is
        refused where it is decoded: a named shard failure, admissions
        released."""
        from repro.store.codec import Writer, write_header

        def mistyped(wire):
            writer = Writer()
            write_header(writer, b"RPROJFRM", wire._VERSION, {
                "kind": wire.FRAME_SCATTER_FINAL,
                "candidates": [40, 40],
                "reports": [{"engine": "batched", "batches": "x"}, None],
            })
            return writer.getvalue()

        self._against_a_fake_endpoint(
            mistyped, "garbler.*undecodable.*batches"
        )
