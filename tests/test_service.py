"""Stress and lifecycle tests for the persistent execution service.

The contract under test: :class:`~repro.core.service.ExecutionService`
is lazy (no process before the first pooled side), persistent (many
queries reuse one pool — ``pool_generation`` never moves), crash
resilient (a SIGKILLed worker costs a pool restart and its chunks are
recomputed), wide (an idle worker never waits behind a busy one's
backlog, and the pool's width is the server's ``workers``), clean
(idempotent ``close``, context-manager support, and flat process/FD
counts across dozens of queries), and — since the streaming pipeline
PR — a fair multi-query admission scheduler: concurrent queries (and
both sides of one query) interleave chunk scheduling on one warm pool.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError
from repro.series.cache import DEFAULT_SERIES_BUDGET
from tests.conftest import PoolEngine, held_handles


def _alive_children() -> int:
    return len(multiprocessing.active_children())


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd"
    ) else -1


def _fixture(
    rows: int = 40, seed: int = 9, engine=None, right_rows=None,
    backend=None, workers: int = 2, series_cache_bytes=None,
):
    """Two tables on a server built with ``engine`` and, unless a test
    that submits each query once reads its held handles, no series
    cache: the pool is under test, so every submission must reach
    SJ.Dec."""
    left = Table(
        "L", Schema.of(("k", "int"), ("a", "str")),
        [(i % 7, f"a{i}") for i in range(rows)],
    )
    right = Table(
        "R", Schema.of(("k", "int"), ("b", "str")),
        [
            (i % 7, f"b{i}")
            for i in range(rows // 2 if right_rows is None else right_rows)
        ],
    )
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=1,
        rng=random.Random(seed),
    )
    server = SecureJoinServer(
        client.params, backend=backend, engine=engine, workers=workers,
        series_cache_bytes=series_cache_bytes,
    )
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


def _with_engine(client, server, engine):
    """A server built with ``engine`` over ``server``'s encrypted tables
    (an engine already bound to a live pool keeps it).  It caches
    series, so its held handles can be read: each runs one query."""
    sibling = SecureJoinServer(client.params, engine=engine, workers=2)
    for name in ("L", "R"):
        sibling.store(server.table(name))
    return sibling


def _inline(client, server, query):
    """The inline batched reference: ``(result, held handles)``."""
    with _with_engine(client, server, BatchedEngine(4)) as sibling:
        result = sibling.execute_join(query)
    return result, held_handles(sibling, query)


def _pooled(chunk: int = 4) -> BatchedEngine:
    """An engine that sends every side of two rows or more to the
    pool, in chunks of at most ``chunk``; the pool's width is the
    ``workers=2`` of the server that binds it."""
    return PoolEngine(batch_size=2 * chunk)


class TestServiceExecution:
    def test_run_side_matches_batched_engine(self):
        """Pooled handles are byte-identical to the inline batched path."""
        client, server = _fixture(
            engine=_pooled(), series_cache_bytes=DEFAULT_SERIES_BUDGET
        )
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            pooled = server.execute_join(query)
            inline, inline_handles = _inline(client, server, query)
            assert pooled.index_pairs == inline.index_pairs
            assert pooled.left_payloads == inline.left_payloads
            # Same token => identical handle bytes computed per row.
            assert held_handles(server, query) == inline_handles
            assert (
                pooled.stats.final_exponentiations
                == inline.stats.final_exponentiations
            )

    def test_lazy_start(self):
        """Constructing servers and services forks nothing, and neither
        does a query whose sides all run inline: one-row sides under an
        engine that pools every side it may, or 40- and 20-row sides on
        the fast backend, whose pool never pays."""
        for rows, right_rows, engine in (
            (1, 1, _pooled()), (40, None, BatchedEngine()),
        ):
            client, server = _fixture(
                rows=rows, right_rows=right_rows, engine=engine
            )
            assert not server.execution_service.started
            assert server.execution_service.generation == 0
            query = client.create_query(
                JoinQuery.build("L", "R", on=("k", "k"))
            )
            result = server.execute_join(query)
            assert result.stats.engine_selected == "batched"
            assert result.stats.planner is None
            assert result.stats.pool_generation == 0
            assert not server.execution_service.started
            server.close()

    def test_an_idle_worker_takes_the_second_chunk(self, sleeping_backend):
        """The window is filled across the pool, not worker by worker: a
        side of exactly two chunks — two rows on a pool of two, which
        the schedule cuts one row apiece — occupies both workers."""
        token = sleeping_backend.g1_powers(range(1, 4))
        side = [
            sleeping_backend.g2_powers(range(r + 1, r + 4)) for r in range(2)
        ]
        with ExecutionService(workers=2) as service:
            engine = _pooled(1)
            engine.bind_service(service)
            handles, report = engine.decrypt_handles(
                sleeping_backend, token, side
            )
        assert handles == BatchedEngine(4).decrypt_handles(
            sleeping_backend, token, side
        )[0]
        assert report.selected == "parallel"
        assert report.batches == 2
        assert report.workers == 2

    def test_the_servers_width_is_the_sides_width(self, sleeping_backend):
        """One width, set where the server is built: what ``python -m
        repro.net --workers 3`` builds, with an engine that pools every
        side it may, gives a 96-row side three workers.  The
        schedule cuts it into 15 slow chunks (1, 2, 4, 8, 16, then 22,
        15, 10, 6, 4, 3, 2, 1, 1, 1: never more than a third of the
        rows left); the right side, 7 rows, goes to the pool too, in
        chunks of 1, 2, 2, 1 and 1."""
        client, server = _fixture(
            rows=96, right_rows=7, engine=PoolEngine(),
            workers=3, backend=sleeping_backend,
        )
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            result = server.execute_join(query)
            expected, _ = _inline(client, server, query)
        assert result.index_pairs == expected.index_pairs
        assert result.stats.batches == 15 + 5
        assert result.stats.max_batch_size == 22
        assert result.stats.workers == 3

    def test_invalid_configuration(self):
        with pytest.raises(QueryError):
            ExecutionService(workers=0)
        service = ExecutionService(workers=1)
        with pytest.raises(QueryError):
            service.admit_side(None, [], [], batch_size=0)
        assert service.active_sides == 0 and not service.started


class TestPoolReuse:
    def test_sequential_queries_reuse_one_pool(self):
        """The headline fix over PR 1: no pool re-creation per query."""
        client, server = _fixture(engine=_pooled())
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            generations = []
            pids = set()
            for _ in range(8):
                encrypted = client.create_query(query)
                result = server.execute_join(encrypted)
                generations.append(result.stats.pool_generation)
                pids.update(server.execution_service.worker_pids())
            assert generations == [1] * 8
            assert server.execution_service.worker_restarts == 0
            # The same two processes served every query.
            assert len(pids) == 2

    def test_no_process_or_fd_leak_across_50_queries(self):
        client, server = _fixture(engine=_pooled())
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            # Warm up: spawn the pool, then measure.
            server.execute_join(client.create_query(query))
            children_before = _alive_children()
            fds_before = _open_fds()
            for _ in range(50):
                server.execute_join(client.create_query(query))
            assert _alive_children() == children_before
            assert _open_fds() == fds_before
            assert server.execution_service.generation == 1
        assert server.execution_service.worker_pids() == []

    def test_engine_named_at_construction_shares_pool(self):
        """The engine handed in at construction is bound once, to the
        server's own pool, and every query shares it."""
        engine = PoolEngine()
        client, server = _fixture(engine=engine)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            first = server.execute_join(client.create_query(query))
            second = server.execute_join(client.create_query(query))
            assert server.engine is engine
            # Both sides, 40 rows and 20, go to the pool.
            for stats in (first.stats, second.stats):
                assert stats.engine == "batched"
                assert stats.engine_selected == "parallel"
                assert stats.pool_generation == 1
            assert server.execution_service.generation == 1


class TestCrashResilience:
    def test_pool_survives_idle_worker_kill(self):
        client, server = _fixture(engine=_pooled())
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            baseline = server.execute_join(client.create_query(query))
            victim = server.execution_service.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            shared = client.create_query(query)
            expected, _ = _inline(client, server, shared)
            recovered = server.execute_join(shared)
            assert recovered.index_pairs == expected.index_pairs
            assert recovered.index_pairs == baseline.index_pairs
            assert server.execution_service.worker_restarts >= 1
            # Same pool generation: restart, not re-creation.
            assert recovered.stats.pool_generation == 1

    def test_pool_survives_mid_query_worker_kill(self, crash_once_backend):
        client, server = _fixture(
            rows=120, engine=_pooled(2), backend=crash_once_backend,
            series_cache_bytes=DEFAULT_SERIES_BUDGET,
        )
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            expected, expected_handles = _inline(client, server, query)
            recovered = server.execute_join(query)
            assert recovered.index_pairs == expected.index_pairs
            assert held_handles(server, query) == expected_handles
            assert server.execution_service.worker_restarts >= 1


class TestConcurrentAdmission:
    """Multi-query admission: interleaving, isolation, crash recovery."""

    def test_concurrent_queries_interleave_on_one_pool(self):
        """N threads, one server, one warm pool: every query correct,
        no per-query pool respawn, sides demonstrably co-admitted."""
        client, server = _fixture(rows=120, engine=_pooled(4))
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            reference, _ = _inline(client, server, client.create_query(query))
            encrypted = [client.create_query(query) for _ in range(12)]
            results = [None] * len(encrypted)
            errors = []

            def run(slot):
                try:
                    results[slot] = server.execute_join(encrypted[slot])
                except Exception as exc:  # pragma: no cover - must not happen
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(len(encrypted))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert errors == []
            for result in results:
                assert result is not None
                assert result.index_pairs == reference.index_pairs
                assert result.left_payloads == reference.left_payloads
                assert result.stats.pool_generation == 1
            service = server.execution_service
            assert service.generation == 1
            assert service.worker_restarts == 0
            # The whole point: sides of different queries overlapped.
            assert service.peak_concurrent_sides >= 2
            assert max(r.stats.concurrent_sides for r in results) >= 2

    def test_concurrent_queries_with_mid_query_crash(
        self, crash_once_backend
    ):
        """A worker SIGKILLed while several queries are in flight: every
        query still completes correctly on the same pool generation."""
        client, server = _fixture(
            rows=160, engine=_pooled(2), backend=crash_once_backend
        )
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            shared = client.create_query(query)
            reference, _ = _inline(client, server, shared)
            service = server.execution_service
            results = []
            errors = []
            lock = threading.Lock()

            def run():
                try:
                    result = server.execute_join(shared)
                    with lock:
                        results.append(result)
                except Exception as exc:  # pragma: no cover
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert errors == []
            assert len(results) == 3
            for result in results:
                assert result.index_pairs == reference.index_pairs
            # Restart, not pool re-creation.
            assert service.generation == 1
            assert all(r.stats.pool_generation == 1 for r in results)
            assert service.worker_restarts >= 1

    def test_no_leaks_across_concurrent_batches(self):
        """Repeated waves of concurrent queries leave no extra
        processes, FDs, or admitted sides behind."""
        client, server = _fixture(rows=60, engine=_pooled(4))
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            # Warm up: spawn the pool, then measure.
            server.execute_join(client.create_query(query))
            children_before = _alive_children()
            fds_before = _open_fds()
            for _ in range(5):
                threads = [
                    threading.Thread(
                        target=server.execute_join,
                        args=(client.create_query(query),),
                    )
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert _alive_children() == children_before
            assert _open_fds() == fds_before
            assert server.execution_service.active_sides == 0
            assert server.execution_service.generation == 1

    def test_backend_switch_refused_while_sides_active(self):
        """Per-query isolation: an admitted side pins the pool backend."""
        client, server = _fixture(rows=80, engine=_pooled(4))
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            stream = server.stream_join(query)
            # Start the join (admits sides) but do not finish it.
            try:
                next(stream)
            except StopIteration:  # pragma: no cover - tiny join
                pytest.skip("join finished in one pull")
            service = server.execution_service
            assert service.active_sides > 0

            class _OtherBackend:
                name = "other"
                order = 97

            with pytest.raises(QueryError):
                service.ensure_started(_OtherBackend())
            stream.close()
            assert service.active_sides == 0


class TestLifecycle:
    def test_close_is_idempotent(self):
        client, server = _fixture(engine=_pooled())
        server.execute_join(
            client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        )
        assert server.execution_service.started
        server.close()
        assert not server.execution_service.started
        server.close()  # second close: no error, no effect
        server.close()

    def test_close_without_start_is_fine(self):
        service = ExecutionService(workers=2)
        service.close()
        service.close()
        assert not service.started

    def test_context_manager_closes_pool(self):
        client, server = _fixture(engine=_pooled())
        with server as managed:
            managed.execute_join(
                client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
            )
            assert managed.execution_service.started
        assert not server.execution_service.started

    def test_reuse_after_close_bumps_generation(self):
        """A closed service transparently restarts; the generation proves
        it was a restart rather than silent reuse."""
        client, server = _fixture(engine=_pooled())
        query = JoinQuery.build("L", "R", on=("k", "k"))
        with server:
            first = server.execute_join(client.create_query(query))
            assert first.stats.pool_generation == 1
        second = server.execute_join(client.create_query(query))
        assert second.stats.pool_generation == 2
        assert second.index_pairs == first.index_pairs
        server.close()
