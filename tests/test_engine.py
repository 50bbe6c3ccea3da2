"""The execution engine: result equivalence, batching edge cases,
accounting, and the one pool-or-inline rule.

The contract under test: the naive serial baseline and the one engine —
inline, decided at width two, or on the pool — return *byte-identical*
join results (index pairs, payloads and observed handles) for every
workload, while their ``ServerStats`` expose the different pairing-work
profiles — the batched path shares one final exponentiation per row
where the serial path pays one per vector component — and say what ran.
A server has one engine, fixed where it is built, so every comparison
runs one server per engine over the same encrypted tables.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro.baselines import SerialEngine
from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService, chunk_spans
from repro.crypto.backend import FastBackend
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError
from tests.conftest import PoolEngine, held_handles

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False

# Module-scoped ``(engine, server width)`` pairs, so the pooled
# engine's persistent pool is spawned once and reused by every test (and
# every Hypothesis example) — which is itself part of the contract under
# test.  Each engine keeps the pool of the first server bound to it:
# inline and undecided at width 1, decided by the backend at width 2
# (the fast backend's pool never pays), and on the pool as
# ``PoolEngine`` in chunks of up to 4.
ENGINES = (
    (SerialEngine(), 1),
    (BatchedEngine(batch_size=3), 1),
    (PoolEngine(batch_size=8), 2),
    (BatchedEngine(batch_size=3), 2),
)


def _build(left_keys, right_keys, seed=7, num_attributes=1, in_clause_limit=2,
           **server_kwargs):
    """Encrypted L/R tables with ``num_attributes`` non-join columns (m)
    and IN-clause bound ``in_clause_limit`` (t) — the scheme dimension
    grows with both, which is exactly what the m/t property grid varies."""
    attr_columns = [(f"a{j}", "str") for j in range(num_attributes)]
    left = Table(
        "L", Schema.of(("k", "int"), *attr_columns),
        [
            (k, *[f"a{j}.{i}" for j in range(num_attributes)])
            for i, k in enumerate(left_keys)
        ],
    )
    right = Table(
        "R", Schema.of(("k", "int"), *attr_columns),
        [
            (k, *[f"b{j}.{i}" for j in range(num_attributes)])
            for i, k in enumerate(right_keys)
        ],
    )
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=in_clause_limit,
        rng=random.Random(seed),
    )
    server = SecureJoinServer(client.params, **server_kwargs)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    return client, server


def _expected_pairs(left_keys, right_keys):
    """Right-major order, matching both matchers' output order."""
    return [
        (i, j)
        for j, rk in enumerate(right_keys)
        for i, lk in enumerate(left_keys)
        if lk == rk
    ]


def _with_engine(client, server, engine, workers=1):
    """A server ``workers`` wide, built with ``engine``, over
    ``server``'s encrypted tables."""
    sibling = SecureJoinServer(
        client.params, backend=server.backend, engine=engine,
        workers=workers,
    )
    for name in ("L", "R"):
        sibling.store(server.table(name))
    return sibling


def _run(client, server, encrypted, engine, workers=1):
    """``encrypted`` on a server built with ``engine``:
    ``(result, held handles)``.  The server is left open: a shared
    engine stays bound to the first live pool it was given."""
    sibling = _with_engine(client, server, engine, workers)
    result = sibling.execute_join(encrypted)
    return result, held_handles(sibling, encrypted)


def _run_engines(client, server, query):
    """One fresh query per engine: ``(results, held handles)``."""
    runs = [
        _run(client, server, client.create_query(query), *engine)
        for engine in ENGINES
    ]
    return [result for result, _ in runs], [seen for _, seen in runs]


def _assert_equivalent(results, handle_sets):
    base = results[0]
    for result in results[1:]:
        assert result.index_pairs == base.index_pairs
        assert result.left_payloads == base.left_payloads
        assert result.right_payloads == base.right_payloads
        assert result.stats.matches == base.stats.matches
        assert result.stats.decryptions == base.stats.decryptions
    # Handles differ across queries (fresh query keys) but each engine
    # must compute handles with the same equality pattern per query;
    # within one query the three runs used three different tokens, so we
    # only compare the join outputs above and the per-run handle counts.
    for handles, result in zip(handle_sets, results):
        assert len(handles) == result.stats.decryptions


class TestEquivalence:
    def test_seeded_random_workload(self):
        rng = random.Random(20260729)
        for trial in range(5):
            left_keys = [rng.randrange(6) for _ in range(rng.randrange(1, 14))]
            right_keys = [rng.randrange(6) for _ in range(rng.randrange(1, 14))]
            client, server = _build(left_keys, right_keys, seed=trial)
            query = JoinQuery.build("L", "R", on=("k", "k"))
            results, handle_sets = _run_engines(client, server, query)
            for result in results:
                assert result.index_pairs == _expected_pairs(
                    left_keys, right_keys
                )
            _assert_equivalent(results, handle_sets)

    def test_same_token_same_handles(self):
        """With one shared query, all engines compute identical bytes."""
        client, server = _build([1, 2, 2, 3], [2, 2, 3, 4, 1])
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        handle_sets = [
            _run(client, server, encrypted, *engine)[1]
            for engine in ENGINES
        ]
        assert all(handles == handle_sets[0] for handles in handle_sets[1:])

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=12, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        right_keys=st.lists(st.integers(0, 4), min_size=0, max_size=10),
        seed=st.integers(0, 2**16),
    )
    def test_property_round_trip(self, left_keys, right_keys, seed):
        client, server = _build(left_keys, right_keys, seed=seed)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        results, handle_sets = _run_engines(client, server, query)
        expected = _expected_pairs(left_keys, right_keys)
        for result in results:
            assert result.index_pairs == expected
            decrypted = client.decrypt_result(result)
            assert len(decrypted.table) == len(expected)
        _assert_equivalent(results, handle_sets)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=10, deadline=None)
    @given(
        num_attributes=st.integers(1, 3),
        in_clause_limit=st.integers(1, 3),
        left_size=st.integers(0, 12),
        right_size=st.integers(1, 12),
        key_space=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_property_engines_identical_across_m_t_grid(
        self, num_attributes, in_clause_limit, left_size, right_size,
        key_space, seed,
    ):
        """Serial, inline, decided and pooled runs are byte-identical
        for random scheme dimensions (m, t) and candidate counts."""
        rng = random.Random(seed)
        left_keys = [rng.randrange(key_space) for _ in range(left_size)]
        right_keys = [rng.randrange(key_space) for _ in range(right_size)]
        client, server = _build(
            left_keys, right_keys, seed=seed,
            num_attributes=num_attributes, in_clause_limit=in_clause_limit,
        )
        shared = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        expected = _expected_pairs(left_keys, right_keys)
        handle_sets = []
        for engine in ENGINES:
            result, handles = _run(client, server, shared, *engine)
            assert result.index_pairs == expected
            handle_sets.append(handles)
        # One shared token: every engine must compute the same bytes.
        assert all(handles == handle_sets[0] for handles in handle_sets[1:])

    def test_tpch_workload_equivalence(self):
        from repro.bench.workloads import build_encrypted_tpch, tpch_query

        workload = build_encrypted_tpch(0.002, in_clause_limit=1)
        encrypted = workload.client.create_query(tpch_query(1 / 12.5))
        results = []
        for built in (
            {"engine": SerialEngine()},
            {},
            {"engine": PoolEngine(), "workers": 2},
            {"workers": 2},
        ):
            with SecureJoinServer(workload.client.params, **built) as server:
                for name in encrypted.tables:
                    server.store(workload.server.table(name))
                results.append(server.execute_join(encrypted))
        assert results[0].stats.matches > 0
        for result in results[1:]:
            assert result.index_pairs == results[0].index_pairs
            assert result.left_payloads == results[0].left_payloads
            assert result.right_payloads == results[0].right_payloads


class TestChunking:
    """Every side is cut by ``chunk_spans``: 1, 2, 4, … rows up to the
    chunk size, and on a pool no chunk over the rows left ÷ its width."""

    def test_chunks_cover_in_order(self):
        assert chunk_spans(10, 3) == [(0, 1), (1, 3), (3, 6), (6, 9), (9, 10)]
        assert chunk_spans(64, 64) == [
            (0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 63), (63, 64),
        ]

    def test_chunk_larger_than_side(self):
        assert chunk_spans(2, 64) == [(0, 1), (1, 2)]
        assert chunk_spans(7, 64) == [(0, 1), (1, 3), (3, 7)]

    def test_chunk_of_one(self):
        assert chunk_spans(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_the_tail_is_spread_over_the_pool(self):
        """The committed CPU-seconds check's side (64 rows, 32-row
        pooled chunks, two workers): doubling alone would end 16, 32, 1,
        and the busiest worker would get 42 rows; the tail rule cuts
        it so that in-order dispatch splits it 32 / 32."""
        sizes = [stop - start for start, stop in chunk_spans(64, 32, 2)]
        assert sizes == [1, 2, 4, 8, 16, 17, 8, 4, 2, 1, 1]
        loads = [0, 0]
        for size in sizes:
            loads[loads.index(min(loads))] += size
        assert loads == [32, 32]

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(0, 300),
        size=st.integers(1, 80),
        width=st.integers(1, 5),
    )
    def test_property_spans(self, rows, size, width):
        """The spans cover ``[0, rows)`` once and in order, start with
        one row, never exceed ``size`` nor the rows left ÷ ``width``,
        and at width 1 double until ``size``."""
        spans = chunk_spans(rows, size, width)
        assert [
            row for start, stop in spans for row in range(start, stop)
        ] == list(range(rows))
        sizes = [stop - start for start, stop in spans]
        assert sizes[:1] == ([1] if rows else [])
        assert all(1 <= n <= size for n in sizes)
        assert all(
            width * (stop - start) < rows - start + width
            for start, stop in spans
        )
        if width == 1:
            assert sizes[:-1] == [
                min(2 ** k, size) for k in range(len(sizes) - 1)
            ]

    def test_empty_side(self):
        assert chunk_spans(0, 4) == []
        client, server = _build([1, 2], [])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        for engine in ENGINES:
            result, _ = _run(client, server, client.create_query(query), *engine)
            assert result.index_pairs == []
            assert result.stats.candidates_right == 0

    def test_single_handle(self):
        client, server = _build([3], [3])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        for engine in ENGINES:
            result, _ = _run(client, server, client.create_query(query), *engine)
            assert result.index_pairs == [(0, 0)]

    def test_batch_exceeds_side_size(self):
        client, server = _build(
            [1, 1, 2], [1, 2], engine=BatchedEngine(batch_size=100)
        )
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(client.create_query(query))
        # The ramp, not the size, cuts a small side: 1 + 2 rows on the
        # left and 1 + 1 on the right.
        assert result.stats.batches == 4
        assert result.stats.max_batch_size == 2

    def test_invalid_configuration(self):
        with pytest.raises(QueryError):
            BatchedEngine(batch_size=0)
        for size, width in ((0, 1), (4, 0)):
            with pytest.raises(QueryError):
                chunk_spans(4, size, width)
        # There are no engine names: ``engine=`` takes an instance.
        with pytest.raises(QueryError, match="not str 'parallel'"):
            SecureJoinServer(
                SecureJoinClient(num_attributes=1).params, engine="parallel"
            )


class TestAccounting:
    def test_batched_halves_final_exponentiations_on_64_handles(self):
        """The headline saving: one shared final exponentiation per row.

        A 64-row side decrypted serially costs one final exponentiation
        per *vector component* per row (the naive product of pairings);
        batched it costs one per row — at least 2x fewer for every
        scheme dimension >= 2 (the dimension is >= 5 by construction).
        """
        left_keys = [i % 8 for i in range(64)]
        right_keys = list(range(8))
        client, server = _build(left_keys, right_keys)
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))

        serial, _ = _run(client, server, encrypted, SerialEngine())
        batched, _ = _run(client, server, encrypted, BatchedEngine())

        assert serial.index_pairs == batched.index_pairs
        rows = serial.stats.decryptions
        assert rows == 64 + 8
        # Batched: exactly one shared final exponentiation per decrypted
        # row; serial: one per pairing, i.e. one per Miller loop.
        assert batched.stats.final_exponentiations == rows
        assert serial.stats.final_exponentiations == serial.stats.miller_loops
        assert serial.stats.miller_loops == batched.stats.miller_loops
        assert (
            serial.stats.final_exponentiations
            >= 2 * batched.stats.final_exponentiations
        )

    def test_stats_record_batches_and_workers(self, sleeping_backend):
        # Chunks that take 50 ms asleep: both workers demonstrably serve
        # (which worker takes a microsecond chunk is the OS's choice).
        client, server = _build(
            [i % 4 for i in range(20)], [0, 1, 2, 3],
            backend=sleeping_backend, workers=2,
            engine=PoolEngine(batch_size=10),
        )
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            result = server.execute_join(encrypted)
        # Left side: 20 rows through the pool (2 workers) in 8 chunks of
        # 1, 2, 4, 5, 4, 2, 1, 1 rows (at most 5, and at most half the
        # rows left); right side: 4 rows, through the pool too, in 3
        # chunks of 1, 2, 1 rows.
        assert result.stats.engine == "batched"
        # Both sides ran on the pool: an inline one would add
        # "+batched".
        assert result.stats.engine_selected == "parallel"
        assert result.stats.planner is None
        assert result.stats.workers == 2
        assert result.stats.batches == 8 + 3
        assert result.stats.max_batch_size == 5
        assert result.stats.final_exponentiations == 24

    def test_the_engine_is_the_one_the_server_was_built_with(self):
        client, server = _build([1, 2], [2, 3])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        # Built without one, the server runs batched.
        assert server.engine.name == "batched"
        assert server.execute_join(client.create_query(query)).stats.engine == (
            "batched"
        )
        # Built with one — any ExecutionEngine, which is how an ablation
        # gets its naive server and a test its pool — it runs that very
        # instance.
        for engine, name in (
            (SerialEngine(), "serial"),
            (PoolEngine(), "batched"),
        ):
            with _with_engine(client, server, engine) as built:
                assert built.engine is engine
                stats = built.execute_join(client.create_query(query)).stats
            assert stats.engine == name

    def test_final_frame_round_trips_engine_fields(self, sleeping_backend):
        from repro.store.wire import decode_frame, encode_final_frame

        # The left side's three one-row chunks have the pool to
        # themselves, so both workers serve it; the one-row right side
        # runs inline.
        client, server = _build(
            [1, 2, 2], [2], backend=sleeping_backend, workers=2,
            engine=PoolEngine(batch_size=2),
        )
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        with server:
            result = server.execute_join(encrypted)
        assert result.stats.engine_selected == "parallel+batched"
        assert result.stats.workers == 2
        assert decode_frame(encode_final_frame(result)).stats == result.stats


class _PayingBackend(FastBackend):
    """The fast backend as if its pool paid, as BN254's does."""

    pool_pays = True


class TestPlanner:
    """The one rule: on a server at least two workers wide, a side goes
    to the pool iff it has two rows or more and its backend's pool
    pays; every non-empty side is decided, and ``selected`` says what
    ran it."""

    def test_auto_records_planner_inputs_per_side(self):
        """At width 2 on the fast backend every side with rows is
        decided, and runs inline; no per-side record is filed."""
        client, server = _build(
            [i % 4 for i in range(20)], [0, 1, 2, 3], workers=2
        )
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(encrypted)
        assert result.stats.engine == "batched"
        assert result.stats.engine_selected == "batched"
        assert result.stats.planner is None
        for name, token in (("L", encrypted.left_token),
                            ("R", encrypted.right_token)):
            rows = [row.elements for row in server.table(name).ciphertexts]
            _, report = server.engine.decrypt_handles(
                server.backend, token.elements, rows
            )
            assert (report.selected, report.workers) == ("batched", 1)
        assert not server.execution_service.started
        server.close()

    def test_auto_never_picks_serial_with_default_models(self):
        """Serial can never beat batched (same Miller loops, strictly
        more final exponentiations), so the rule never names it."""
        for rows in ([3], [0] * 40):
            client, server = _build(rows, [0, 1], workers=2)
            encrypted = client.create_query(
                JoinQuery.build("L", "R", on=("k", "k"))
            )
            result = server.execute_join(encrypted)
            assert result.stats.engine_selected == "batched"
            server.close()

    def test_auto_matches_batched_results_exactly(self):
        """A side sent to the pool yields the handles and the pairs of
        the inline run."""
        client, server = _build([1, 2, 2, 3] * 6, [2, 3, 4])
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        pooled, pooled_handles = _run(
            client, server, encrypted,
            PoolEngine(batch_size=8), workers=2,
        )
        batched, batched_handles = _run(
            client, server, encrypted, BatchedEngine()
        )
        assert pooled.stats.engine_selected == "parallel"
        assert batched.stats.planner is None
        assert pooled.index_pairs == batched.index_pairs
        assert pooled_handles == batched_handles

    def test_auto_as_server_default(self):
        """Deciding is what the default engine does once the server is
        two workers wide; there is no engine name to ask for it."""
        client, _ = _build([1, 2], [2, 3])
        with pytest.raises(QueryError, match="ExecutionEngine instance"):
            SecureJoinServer(client.params, engine="auto")
        with SecureJoinServer(client.params, workers=2) as server:
            assert type(server.engine) is BatchedEngine
            assert server.engine.name == "batched"

    def test_planner_prices_actual_pool_size(self):
        """The rule reads the bound pool's width, and a pooled side
        gets that pool: three workers wide here."""
        client, server = _build(
            [i % 3 for i in range(9)], [0, 1, 2],
            backend=_PayingBackend(), workers=3,
        )
        encrypted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k"))
        )
        with server:
            result = server.execute_join(encrypted)
            assert server.execution_service.worker_target == 3
            assert server.execution_service.generation == 1
        assert result.stats.engine_selected == "parallel"
        assert 1 <= result.stats.workers <= 3

    def test_invalid_planner_configuration(self):
        with pytest.raises(QueryError):
            PoolEngine(batch_size=0)
        # Retired options are refused, not silently accepted: the rule
        # is the backend's, learns nothing online, and the pool and its
        # width are the server's.
        for retired in (
            {"candidates": ("serial",)},
            {"calibrate_online": False},
            {"calibrator": object()},
            {"cost_model": None},
            {"service": ExecutionService(workers=2)},
            {"workers": 2},
        ):
            with pytest.raises(TypeError):
                BatchedEngine(**retired)

    @pytest.mark.parametrize(
        "engine_type", [PoolEngine, BatchedEngine], ids=["parallel", "auto"]
    )
    def test_unbound_pooled_engine_runs_inline(self, engine_type):
        """There is no process-wide pool to fall back on: an engine no
        service was bound to — or bound to a pool one worker wide —
        decrypts inline and decides nothing, whether it sends every
        side it may to the pool (``parallel``) or the backend decides
        (``auto``)."""
        client, server = _build([i % 4 for i in range(20)], [0, 1])
        encrypted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k"))
        )
        side = (
            server.backend,
            encrypted.left_token.elements,
            [row.elements for row in server.table("L").ciphertexts],
        )
        unbound = engine_type(batch_size=8)
        one_wide = engine_type(batch_size=8)
        service = ExecutionService(workers=1)
        one_wide.bind_service(service)
        children = multiprocessing.active_children()
        for engine in (unbound, one_wide):
            handles, report = engine.decrypt_handles(*side)
            assert multiprocessing.active_children() == children
            assert handles == BatchedEngine(4).decrypt_handles(*side)[0]
            assert report.engine == "batched"
            assert (report.selected, report.planner) == ("", None)
            assert (report.pool_generation, report.workers) == (0, 1)
            # Inline chunks of 1, 2, 4, 8 and 5 rows.
            assert report.batches == 5 and report.max_batch_size == 8
        assert not service.started

    def test_a_one_row_side_reports_what_ran(self):
        """On a two-worker pool where the pool always pays, every side
        of two rows or more goes to the pool and a one-row side — one
        chunk, which no worker can share — runs inline; ``selected``
        names the engine that produced the side's chunks."""
        client, server = _build([i % 4 for i in range(12)], [0, 1, 2])
        encrypted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k"))
        )
        token = encrypted.left_token.elements
        rows = [row.elements for row in server.table("L").ciphertexts]
        expected = BatchedEngine().decrypt_handles(
            server.backend, token, rows
        )[0]
        engine = PoolEngine(batch_size=8)
        with ExecutionService(workers=2) as service:
            engine.bind_service(service)
            for count in (1, 2, 4, 5, 12):
                handles, report = engine.decrypt_handles(
                    server.backend, token, rows[:count]
                )
                assert handles == expected[:count]
                pooled = report.pool_generation == 1
                assert pooled == (count >= 2), count
                assert report.planner is None
                assert report.selected == ("parallel" if pooled else "batched")
        # Through a server: two one-row sides run inline, and the stats
        # say so.
        small_client, small = _build([1], [1])
        with _with_engine(
            small_client, small,
            PoolEngine(batch_size=8), workers=2,
        ) as built:
            stats = built.execute_join(small_client.create_query(
                JoinQuery.build("L", "R", on=("k", "k"))
            )).stats
            assert not built.execution_service.started
        assert stats.engine == stats.engine_selected == "batched"
        assert stats.planner is None

    def test_the_pool_is_priced_warm_before_it_starts(self):
        """The pool is persistent: its start is paid once per server,
        so the rule does not ask whether it has started — the first
        side of a backend whose pool pays goes to a pool not yet
        forked, and the fast backend's stays inline however warm."""
        client, server = _build([i % 4 for i in range(12)], [0, 1, 2])
        encrypted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k"))
        )
        token = encrypted.left_token.elements
        rows = [row.elements for row in server.table("L").ciphertexts]
        expected = BatchedEngine().decrypt_handles(
            server.backend, token, rows
        )[0]
        engine = BatchedEngine(batch_size=8)
        with ExecutionService(workers=2) as service:
            engine.bind_service(service)
            _, report = engine.decrypt_handles(server.backend, token, rows)
            assert not service.started
            assert report.selected == "batched"
            paying = BatchedEngine(batch_size=8)
            paying.bind_service(service)
            handles, report = paying.decrypt_handles(
                _PayingBackend(), token, rows
            )
            assert service.started
            assert handles == expected
            assert (report.selected, report.pool_generation) == (
                "parallel", 1,
            )
            # Warm now: the fast backend's side still runs inline.
            _, report = engine.decrypt_handles(server.backend, token, rows)
            assert (report.selected, report.pool_generation) == (
                "batched", 0,
            )

    def test_an_empty_side_is_not_priced(self, monkeypatch):
        """No rows, no decision: an empty side never asks the rule and
        selects nothing."""
        def refuse(*args, **kwargs):
            raise AssertionError("an empty side was decided")

        engine = PoolEngine()
        monkeypatch.setattr(engine, "pools_side", refuse)
        with ExecutionService(workers=2) as service:
            engine.bind_service(service)
            handles, report = engine.decrypt_handles(
                _PayingBackend(), FastBackend().g1_powers([1, 2]), []
            )
            assert not service.started
        assert handles == []
        assert (report.selected, report.planner, report.batches) == (
            "", None, 0,
        )


def _default_builds(tables):
    """A join, a chain and a two-shard join, each on a store built with
    default arguments (the benchmark's shape): ``(runs, servers)``."""
    from repro.db.query import ChainQuery
    from repro.shard import LocalShard, ShardCoordinator, partition_table

    client = SecureJoinClient.for_tables(
        [(table, "k") for table in tables], in_clause_limit=1,
        rng=random.Random(5),
    )
    encrypted = [client.encrypt_table(table, "k") for table in tables]
    join = client.create_query(JoinQuery.build("A", "B", on=("k", "k")))
    chain = client.create_chain_query(
        ChainQuery.build([("A", "k"), ("B", "k"), ("C", "k")])
    )
    with SecureJoinServer(client.params) as server:
        for table in encrypted:
            server.store(table)
        runs = [server.execute_join(join), server.execute_chain(chain)]
        shards = [LocalShard(client.params) for _ in range(2)]
        for table in encrypted[:2]:
            for piece in partition_table(table, server.backend, 2):
                shards[piece.shard.shard_index].store(piece)
        with ShardCoordinator(shards) as coordinator:
            runs.append(coordinator.execute_join(join))
        assert runs[2].index_pairs == runs[0].index_pairs
    return runs, [server] + [shard.server for shard in shards]


_DEFAULT_TABLES = [
    Table(name, Schema.of(("k", "int"), ("v", "str")),
          [(i % 4, f"{name}.{i}") for i in range(rows)])
    for name, rows in (("A", 90), ("B", 70), ("C", 40))
]


class TestDefaultPath:
    """Built with default arguments — every server and shard the
    benchmark builds — a store is as wide as the CPUs the process may
    run on.  On one CPU the engine runs its inline loop after one width
    check and decides nothing; on two it decides every side, and on the
    fast backend, whose pool never pays, keeps every one inline."""

    def test_default_builds_never_consult_the_model(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the rule consulted at width 1")

        monkeypatch.setattr(BatchedEngine, "pools_side", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        children = multiprocessing.active_children()
        runs, servers = _default_builds(_DEFAULT_TABLES)
        assert runs[0].stats.planner is None
        for result in runs:
            stats = result.stats
            assert stats.engine == stats.engine_selected == "batched"
            # Only the chain's order and the fleet's scatter are
            # recorded.
            assert all("stage" in record for record in stats.planner or ())
            assert (stats.workers, stats.pool_generation) == (1, 0)
        for server in servers:
            assert server.execution_service.worker_target == 1
            # The generation moves when a pool starts; closing does not
            # reset it.
            assert server.execution_service.generation == 0
        assert multiprocessing.active_children() == children

    def test_two_cpu_default_builds_price_every_side_inline(
        self, monkeypatch
    ):
        """Two CPUs, default builds: every side with rows is decided at
        width 2 and runs inline on the fast backend, so no worker is
        forked and the answers are the one-CPU ones."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        narrow, _ = _default_builds(_DEFAULT_TABLES)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        children = multiprocessing.active_children()
        decided = []
        pools_side = BatchedEngine.pools_side

        def spy(engine, backend, rows):
            decided.append(rows)
            return pools_side(engine, backend, rows)

        monkeypatch.setattr(BatchedEngine, "pools_side", spy)
        runs, servers = _default_builds(_DEFAULT_TABLES)
        for result, reference in zip(runs, narrow):
            assert result.tuples == reference.tuples
            stats = result.stats
            assert stats.engine == stats.engine_selected == "batched"
            assert (stats.workers, stats.pool_generation) == (1, 0)
            assert all("stage" in record for record in stats.planner or ())
        # One decision per (side, shard) that had rows: the join's two
        # sides, the chain's three, each shard's two.
        assert len(decided) == 2 + 3 + 4 and all(decided)
        for server in servers:
            assert server.execution_service.worker_target == 2
            assert server.execution_service.generation == 0
        assert multiprocessing.active_children() == children


@pytest.mark.bn254
class TestBN254CrossCheck:
    """The op counters model BN254: check them against the real backend."""

    def test_serial_and_batched_agree_on_real_pairings(self, bn254_backend):
        left = Table("L", Schema.of(("k", "int"), ("a", "str")), [(1, "x")])
        right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                      [(1, "y"), (2, "z")])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=1,
            backend=bn254_backend, rng=random.Random(11),
        )
        server = SecureJoinServer(client.params, backend=bn254_backend)
        server.store(client.encrypt_table(left, "k"))
        server.store(client.encrypt_table(right, "k"))
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))

        serial, serial_handles = _run(
            client, server, encrypted, SerialEngine()
        )
        batched, batched_handles = _run(
            client, server, encrypted, BatchedEngine()
        )

        assert serial.index_pairs == batched.index_pairs == [(0, 0)]
        assert serial_handles == batched_handles
        # Real counts: serial pays one final exponentiation per Miller
        # loop, batched one per row.
        assert serial.stats.final_exponentiations == serial.stats.miller_loops
        assert batched.stats.final_exponentiations == 3
        assert (
            serial.stats.final_exponentiations
            >= 2 * batched.stats.final_exponentiations
        )
