"""Execution engines: result equivalence, batching edge cases, accounting.

The contract under test: serial, batched and parallel engines return
*byte-identical* join results (index pairs, payloads and observed
handles) for every workload, while their ``ServerStats`` expose the
different pairing-work profiles — the batched path shares one final
exponentiation per row where the serial path pays one per vector
component.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import replace

import pytest

from repro.core.client import SecureJoinClient
from repro.core.engine import (
    AutoEngine,
    BatchedEngine,
    ParallelEngine,
    SerialEngine,
    _chunked,
    get_engine,
)
from repro.core.server import SecureJoinServer
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError
from repro.plan.cost import FAST_ENGINE_COSTS

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False

# Module-scoped engine instances so the parallel engine's persistent
# pool is spawned once and reused by every test (and every Hypothesis
# example) — which is itself part of the contract under test.
ENGINES = (
    SerialEngine(),
    BatchedEngine(batch_size=3),
    ParallelEngine(workers=2, batch_size=4),
    AutoEngine(batch_size=3),
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


def _run_engines(client, server, query):
    results = []
    for engine in ENGINES:
        encrypted = client.create_query(query)
        results.append(server.execute_join(encrypted, engine=engine))
    return results


def _assert_equivalent(results, server):
    base = results[0]
    observations = server.observations[-len(results):]
    for result, observation in zip(results[1:], observations[1:]):
        assert result.index_pairs == base.index_pairs
        assert result.left_payloads == base.left_payloads
        assert result.right_payloads == base.right_payloads
        assert result.stats.matches == base.stats.matches
        assert result.stats.decryptions == base.stats.decryptions
    # Handles differ across queries (fresh query keys) but each engine
    # must observe handles with the same equality pattern per query;
    # within one query the three runs used three different tokens, so we
    # only compare the join outputs above and the per-run handle counts.
    for observation, result in zip(observations, results):
        assert len(observation.handles) == result.stats.decryptions


class TestEquivalence:
    def test_seeded_random_workload(self):
        rng = random.Random(20260729)
        for trial in range(5):
            left_keys = [rng.randrange(6) for _ in range(rng.randrange(1, 14))]
            right_keys = [rng.randrange(6) for _ in range(rng.randrange(1, 14))]
            client, server = _build(left_keys, right_keys, seed=trial)
            query = JoinQuery.build("L", "R", on=("k", "k"))
            results = _run_engines(client, server, query)
            for result in results:
                assert result.index_pairs == _expected_pairs(
                    left_keys, right_keys
                )
            _assert_equivalent(results, server)

    def test_same_token_same_handles(self):
        """With one shared query, all engines observe identical bytes."""
        client, server = _build([1, 2, 2, 3], [2, 2, 3, 4, 1])
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        handle_sets = []
        for engine in ENGINES:
            server.execute_join(encrypted, engine=engine)
            handle_sets.append(dict(server.observations[-1].handles))
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
        results = _run_engines(client, server, query)
        expected = _expected_pairs(left_keys, right_keys)
        for result in results:
            assert result.index_pairs == expected
            decrypted = client.decrypt_result(result)
            assert len(decrypted.table) == len(expected)
        _assert_equivalent(results, server)

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
        """All engines (incl. pooled and the planner) are byte-identical
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
            result = server.execute_join(shared, engine=engine)
            assert result.index_pairs == expected
            handle_sets.append(dict(server.observations[-1].handles))
        # One shared token: every engine must observe the same bytes.
        assert all(handles == handle_sets[0] for handles in handle_sets[1:])

    def test_tpch_workload_equivalence(self):
        from repro.bench.workloads import build_encrypted_tpch, tpch_query

        workload = build_encrypted_tpch(0.002, in_clause_limit=1)
        encrypted = workload.client.create_query(tpch_query(1 / 12.5))
        results = [
            workload.server.execute_join(encrypted, engine=engine)
            for engine in ("serial", "batched", "parallel", "auto")
        ]
        assert results[0].stats.matches > 0
        for result in results[1:]:
            assert result.index_pairs == results[0].index_pairs
            assert result.left_payloads == results[0].left_payloads
            assert result.right_payloads == results[0].right_payloads


class TestChunking:
    def test_chunks_cover_in_order(self):
        items = list(range(10))
        chunks = _chunked(items, 3)
        assert [start for start, _ in chunks] == [0, 3, 6, 9]
        assert [x for _, chunk in chunks for x in chunk] == items

    def test_chunk_larger_than_side(self):
        assert _chunked([1, 2], 64) == [(0, [1, 2])]

    def test_chunk_of_one(self):
        assert _chunked([1, 2, 3], 1) == [(0, [1]), (1, [2]), (2, [3])]

    def test_empty_side(self):
        assert _chunked([], 4) == []
        client, server = _build([1, 2], [])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        for engine in ENGINES:
            result = server.execute_join(
                client.create_query(query), engine=engine
            )
            assert result.index_pairs == []
            assert result.stats.candidates_right == 0

    def test_single_handle(self):
        client, server = _build([3], [3])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        for engine in ENGINES:
            result = server.execute_join(
                client.create_query(query), engine=engine
            )
            assert result.index_pairs == [(0, 0)]

    def test_batch_exceeds_side_size(self):
        client, server = _build([1, 1, 2], [1, 2])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(
            client.create_query(query), engine=BatchedEngine(batch_size=100)
        )
        # One chunk per side.
        assert result.stats.batches == 2
        assert result.stats.max_batch_size == 3

    def test_invalid_configuration(self):
        with pytest.raises(QueryError):
            BatchedEngine(batch_size=0)
        with pytest.raises(QueryError):
            ParallelEngine(workers=0)
        with pytest.raises(QueryError):
            ParallelEngine(batch_size=0)
        with pytest.raises(QueryError):
            get_engine("warp-drive")


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

        serial = server.execute_join(encrypted, engine="serial")
        batched = server.execute_join(encrypted, engine="batched")

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

    def test_stats_record_batches_and_workers(self):
        client, server = _build([i % 4 for i in range(20)], [0, 1, 2, 3])
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(
            encrypted, engine=ParallelEngine(workers=2, batch_size=5)
        )
        # Left side: 20 rows in 4 chunks through the pool (2 workers);
        # right side: 4 rows, inline fallback (1 chunk).
        assert result.stats.engine == "parallel"
        assert result.stats.workers == 2
        assert result.stats.batches == 5
        assert result.stats.max_batch_size == 5
        assert result.stats.final_exponentiations == 24

    def test_engine_hint_and_override_precedence(self):
        client, server = _build(
            [1, 2], [2, 3], hint_engines=("serial", "batched")
        )
        query = JoinQuery.build("L", "R", on=("k", "k"))

        hinted = client.create_query(query, engine="serial")
        assert hinted.engine_hint == "serial"
        assert server.execute_join(hinted).stats.engine == "serial"
        # An explicit engine argument beats the hint.
        assert (
            server.execute_join(hinted, engine="batched").stats.engine
            == "batched"
        )
        # Without hint or argument, the server default (batched) applies.
        plain = client.create_query(query)
        assert server.execute_join(plain).stats.engine == "batched"
        # A server built with an explicit default engine uses it.
        serial_server = SecureJoinServer(client.params, engine="serial")
        assert serial_server.engine.name == "serial"
        with pytest.raises(QueryError):
            client.create_query(query, engine="warp-drive")

    def test_parallel_hint_requires_server_opt_in(self):
        """Hints spend server resources, so "parallel" is allowlisted."""
        client, server = _build([1, 2], [2, 3])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        hinted = client.create_query(query, engine="parallel")
        # Default allowlist ignores the hint: server default applies.
        assert server.execute_join(hinted).stats.engine == "batched"
        # An operator who opts in gets the hinted engine.
        open_server = SecureJoinServer(
            client.params, hint_engines=("serial", "batched", "parallel")
        )
        for table in ("L", "R"):
            open_server.store(server.table(table))
        assert open_server.execute_join(hinted).stats.engine == "parallel"

    def test_serial_hint_requires_server_opt_in(self):
        """The ablation baseline is several times slower than the
        default: a remote client cannot ask a default server for it."""
        client, server = _build([1, 2], [2, 3])
        assert server.hint_engines == {"batched"}
        hinted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k")), engine="serial"
        )
        ignored = server.execute_join(hinted)
        assert ignored.stats.engine == "batched"
        assert ignored.stats.engine_source == "default"
        open_server = SecureJoinServer(
            client.params, hint_engines=("serial", "batched")
        )
        for table in ("L", "R"):
            open_server.store(server.table(table))
        honoured = open_server.execute_join(hinted)
        assert honoured.stats.engine == "serial"
        assert honoured.stats.engine_source == "hint"
        assert honoured.index_pairs == ignored.index_pairs
        # A name no engine answers to is a typo, not an allowlist.
        with pytest.raises(QueryError, match="warp-drive"):
            SecureJoinServer(client.params, hint_engines=("warp-drive",))

    def test_engine_source_recorded(self):
        client, server = _build(
            [1, 2], [2, 3], hint_engines=("serial", "batched")
        )
        query = JoinQuery.build("L", "R", on=("k", "k"))
        plain = client.create_query(query)
        assert server.execute_join(plain).stats.engine_source == "default"
        hinted = client.create_query(query, engine="serial")
        assert server.execute_join(hinted).stats.engine_source == "hint"
        overridden = server.execute_join(hinted, engine="batched")
        assert overridden.stats.engine_source == "override"
        assert overridden.stats.engine_selected == "batched"

    def test_wire_format_round_trips_engine_fields(self):
        from repro.store.wire import (
            decode_join_query,
            decode_join_result,
            encode_join_query,
            encode_join_result,
        )

        client, server = _build([1, 2, 2], [2, 2, 5])
        backend = client.scheme.backend
        encrypted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k")), engine="parallel"
        )
        decoded = decode_join_query(encode_join_query(encrypted, backend), backend)
        assert decoded.engine_hint == "parallel"

        result = server.execute_join(encrypted, engine="batched")
        round_tripped = decode_join_result(encode_join_result(result))
        assert round_tripped.stats == result.stats


class TestPlanner:
    """The ``auto`` engine: per-side cost-model engine selection."""

    def test_auto_records_planner_inputs_per_side(self):
        client, server = _build([i % 4 for i in range(20)], [0, 1, 2, 3])
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        result = server.execute_join(encrypted, engine="auto")
        assert result.stats.engine == "auto"
        assert result.stats.planner is not None
        assert len(result.stats.planner) == 2  # one record per side
        left_side, right_side = result.stats.planner
        assert left_side["rows"] == 20
        assert right_side["rows"] == 4
        for side in result.stats.planner:
            assert side["dimension"] >= 2
            assert set(side["estimates"]) == {"batched", "parallel"}
            assert side["chosen"] in ("batched", "parallel")
            assert side["chosen"] == min(
                side["estimates"], key=side["estimates"].get
            ) or side["chosen"] == "batched"
        # engine_selected names what actually executed.
        assert result.stats.engine_selected in (
            "batched", "parallel", "batched+parallel", "parallel+batched",
        )

    def test_auto_never_picks_serial_with_default_models(self):
        """Serial can never beat batched (same Miller loops, strictly
        more final exponentiations), so the planner does not price it."""
        for rows in ([3], [0] * 40):
            client, server = _build(rows, [0, 1])
            encrypted = client.create_query(
                JoinQuery.build("L", "R", on=("k", "k"))
            )
            result = server.execute_join(encrypted, engine="auto")
            for side in result.stats.planner:
                assert side["chosen"] != "serial"
                assert "serial" not in side["estimates"]

    def test_auto_matches_batched_results_exactly(self):
        client, server = _build([1, 2, 2, 3] * 6, [2, 3, 4])
        encrypted = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        auto = server.execute_join(encrypted, engine="auto")
        batched = server.execute_join(encrypted, engine="batched")
        assert auto.index_pairs == batched.index_pairs
        assert (
            server.observations[-2].handles == server.observations[-1].handles
        )

    def test_auto_hint_requires_server_opt_in(self):
        """"auto" may choose the pool, so it is allowlisted like parallel."""
        client, server = _build([1, 2], [2, 3])
        query = JoinQuery.build("L", "R", on=("k", "k"))
        hinted = client.create_query(query, engine="auto")
        assert hinted.engine_hint == "auto"
        # Default allowlist: hint ignored, server default applies.
        assert server.execute_join(hinted).stats.engine == "batched"
        open_server = SecureJoinServer(
            client.params, hint_engines=("serial", "batched", "auto")
        )
        for table in ("L", "R"):
            open_server.store(server.table(table))
        assert open_server.execute_join(hinted).stats.engine == "auto"

    def test_auto_as_server_default(self):
        client, _ = _build([1, 2], [2, 3])
        auto_server = SecureJoinServer(client.params, engine="auto")
        assert auto_server.engine.name == "auto"

    def test_planner_prices_actual_pool_size(self):
        """The estimate must divide work by the pool the side really
        gets (engine cap ∧ service size), not the engine cap alone."""
        from repro.core.service import ExecutionService

        with ExecutionService(workers=2) as service:
            engine = AutoEngine(workers=8, service=service)
            client, server = _build([i % 3 for i in range(9)], [0, 1, 2])
            encrypted = client.create_query(
                JoinQuery.build("L", "R", on=("k", "k"))
            )
            result = server.execute_join(encrypted, engine=engine)
            for side in result.stats.planner:
                assert side["workers"] == 2

    def test_invalid_planner_configuration(self):
        with pytest.raises(QueryError):
            AutoEngine(batch_size=0)
        with pytest.raises(QueryError):
            AutoEngine(workers=0)
        # Retired options are refused, not silently accepted: the
        # planner has two fixed candidates and learns nothing online.
        with pytest.raises(TypeError):
            AutoEngine(candidates=("serial",))
        with pytest.raises(TypeError):
            AutoEngine(calibrate_online=False)
        with pytest.raises(TypeError):
            AutoEngine(calibrator=object())

    @pytest.mark.parametrize("name", ["parallel", "auto"])
    def test_unbound_pooled_engine_runs_inline(self, name):
        """There is no process-wide pool to fall back on: an engine no
        service was bound to decrypts inline, and the planner prices
        the one worker it would really get."""
        client, server = _build([i % 4 for i in range(20)], [0, 1])
        encrypted = client.create_query(
            JoinQuery.build("L", "R", on=("k", "k"))
        )
        side = (
            server.backend,
            encrypted.left_token.elements,
            [row.elements for row in server.table("L").ciphertexts],
        )
        # A pool that charges nothing and needs no margin: the planner
        # prefers it even at one worker (it saves the batch overhead).
        free_pool = replace(
            FAST_ENGINE_COSTS, switch_margin=1.0,
            element_transport=0.0, chunk_overhead=0.0, pool_spawn=0.0,
        )
        if name == "parallel":
            engine = ParallelEngine(workers=2, batch_size=4)
        else:
            engine = AutoEngine(cost_model=free_pool, workers=2, batch_size=8)
        children = multiprocessing.active_children()
        handles, report = engine.decrypt_handles(*side)
        assert multiprocessing.active_children() == children
        assert handles == BatchedEngine(4).decrypt_handles(*side)[0]
        assert report.engine == name
        assert (report.pool_generation, report.workers) == (0, 1)
        assert report.batches == 5 and report.max_batch_size == 4
        if name == "auto":
            assert report.planner["workers"] == 1
            assert report.planner["pool_warm"] is False
            assert report.selected == "parallel"
        else:
            assert engine.effective_workers() == 1


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

        serial = server.execute_join(encrypted, engine="serial")
        batched = server.execute_join(encrypted, engine="batched")

        assert serial.index_pairs == batched.index_pairs == [(0, 0)]
        assert dict(server.observations[-2].handles) == dict(
            server.observations[-1].handles
        )
        # Real counts: serial pays one final exponentiation per Miller
        # loop, batched one per row.
        assert serial.stats.final_exponentiations == serial.stats.miller_loops
        assert batched.stats.final_exponentiations == 3
        assert (
            serial.stats.final_exponentiations
            >= 2 * batched.stats.final_exponentiations
        )
