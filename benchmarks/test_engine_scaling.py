"""Execution-engine ablation: serial vs. batched vs. parallel SJ.Dec.

The server-side join is pairing-bound, so how SJ.Dec is issued against
the backend decides the scale ceiling:

- ``serial`` — the naive product of pairings (one final exponentiation
  per vector component per row);
- ``batched`` — chunked multi-pairings, one shared final exponentiation
  per row (d× fewer, d = scheme dimension);
- ``parallel`` — the batched plan fanned out over the *persistent*
  worker pool (no per-query fork since the execution-service PR);
- ``auto`` — the cost-model planner picking batched or parallel per side.

A server has one engine, fixed where it is built, so each engine gets
its own server over the workload's encrypted tables.

``REPRO_BENCH_FULL=1`` widens the sweep as for the other benchmarks.
Run ``python -m repro.bench`` for the paper-style engine table, or
``pytest benchmarks/test_engine_scaling.py --benchmark-only`` here.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import SCALE_FACTORS
from repro.baselines import SerialEngine
from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.core.server import SecureJoinServer
from repro.crypto.backend import FastBackend

_SELECTIVITY = 1 / 12.5  # densest series: the most decryptions per query
_ENGINES = ("serial", "batched", "parallel", "auto")

#: One server per (workload, engine), cached like the workloads are.
_SERVERS: dict[tuple[float, object], SecureJoinServer] = {}


def _server(workload, engine) -> SecureJoinServer:
    """The server built with ``engine`` (a runtime name, ``"serial"``
    for the naive baseline, or an instance) over ``workload``'s
    encrypted tables — without a series cache, like the workload's own:
    a repeated query must measure SJ.Dec, not a replay."""
    key = (workload.scale_factor, engine)
    server = _SERVERS.get(key)
    if server is None:
        server = _SERVERS[key] = SecureJoinServer(
            workload.client.params,
            engine=SerialEngine() if engine == "serial" else engine,
            series_cache_bytes=None,
        )
        for name in ("Customers", "Orders"):
            server.store(workload.server.table(name))
    return server


@pytest.fixture(autouse=True)
def _close_cached_pools():
    """Servers are cached module-wide; close any worker pool a test
    warmed up so idle workers don't accumulate under the rest of the
    session.  Pools restart lazily, so this is safe."""
    yield
    for server in _SERVERS.values():
        server.close()


@pytest.mark.parametrize("scale_factor", list(SCALE_FACTORS))
@pytest.mark.parametrize("engine", _ENGINES)
def test_engine_scaling(benchmark, scale_factor, engine):
    workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )

    server = _server(workload, engine)
    result = benchmark.pedantic(
        lambda: server.execute_join(encrypted_query),
        rounds=3, iterations=1,
    )
    assert result.stats.engine == engine
    assert result.stats.matches > 0


def test_batched_final_exponentiation_savings():
    """Acceptance: >= 2x fewer final exponentiations on a 64+ handle side."""
    workload = build_encrypted_tpch(0.008, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    serial = _server(workload, "serial").execute_join(encrypted_query)
    batched = _server(workload, "batched").execute_join(encrypted_query)

    assert serial.stats.candidates_left >= 64  # a 64-handle (or larger) side
    assert serial.index_pairs == batched.index_pairs
    assert batched.stats.final_exponentiations == batched.stats.decryptions
    assert (
        serial.stats.final_exponentiations
        >= 2 * batched.stats.final_exponentiations
    )


def test_parallel_engine_matches_batched_plan():
    """The pool fan-out must not change the batched plan's results."""
    workload = build_encrypted_tpch(0.004, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    batched = _server(workload, "batched").execute_join(encrypted_query)
    parallel = _server(workload, "parallel").execute_join(encrypted_query)

    assert parallel.index_pairs == batched.index_pairs
    assert parallel.stats.final_exponentiations == (
        batched.stats.final_exponentiations
    )
    assert parallel.stats.workers >= 2


def test_parallel_pool_persists_across_queries():
    """Acceptance: no per-query pool spawn.  After warmup, repeated
    queries report the same pool generation and warm runs are not
    slower than the cold one that paid the fork."""
    workload = build_encrypted_tpch(0.004, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )

    server = _server(workload, "parallel")
    start = time.perf_counter()
    cold = server.execute_join(encrypted_query)
    cold_seconds = time.perf_counter() - start

    warm_seconds = []
    generations = []
    for _ in range(3):
        start = time.perf_counter()
        warm = server.execute_join(encrypted_query)
        warm_seconds.append(time.perf_counter() - start)
        generations.append(warm.stats.pool_generation)
        assert warm.index_pairs == cold.index_pairs

    assert generations == [cold.stats.pool_generation] * 3
    # Warm queries skip the fork: allow scheduling noise, but a warm run
    # re-spawning the pool (the PR 1 behavior) would clearly fail this.
    assert min(warm_seconds) <= cold_seconds * 1.5


def test_warm_pool_beats_per_query_pool():
    """Acceptance vs PR 1: a query on the warm persistent pool must be
    cheaper than one that spawns (and tears down) a pool of its own —
    the old per-query-fork behavior.  Holds on any core count: the gap
    is the fork cost itself."""
    from repro.core.engine import ParallelEngine
    from repro.core.service import ExecutionService

    workload = build_encrypted_tpch(0.004, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    # Warm the server-owned pool once.
    server = _server(workload, "parallel")
    warm_result = server.execute_join(encrypted_query)

    def best_warm(rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            server.execute_join(encrypted_query)
            best = min(best, time.perf_counter() - start)
        return best

    def best_per_query_pool(rounds=3):
        best = float("inf")
        for _ in range(rounds):
            service = ExecutionService(workers=2)
            # Built (tables stored) before the clock starts: the gap
            # under test is the fork, not the server's construction.
            own_pool = _server(
                workload, ParallelEngine(workers=2, service=service)
            )
            start = time.perf_counter()
            result = own_pool.execute_join(encrypted_query)
            service.close()
            best = min(best, time.perf_counter() - start)
            assert result.index_pairs == warm_result.index_pairs
        return best

    assert best_warm() < best_per_query_pool()


class _ComputeBoundBackend(FastBackend):
    """FastBackend plus an artificial per-row pairing cost.

    Emulates a compute-dominated backend (the BN254 regime, where one
    pairing costs milliseconds) at benchmark-friendly speed, so the
    pool's multi-core win is measurable without the real pairing.
    """

    SPIN_PER_ROW = 5e-4  # seconds of busy work per decrypted row

    def pair_vectors_batch(self, g1_vector, g2_vectors):
        handles = super().pair_vectors_batch(g1_vector, g2_vectors)
        deadline = time.perf_counter() + self.SPIN_PER_ROW * len(g2_vectors)
        while time.perf_counter() < deadline:
            pass
        return handles


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="pooled-vs-batched wall-clock comparison needs >= 2 cores",
)
def test_pooled_beats_batched_when_compute_dominates():
    """On real cores, with per-row compute dominating transport (the
    BN254 regime the planner's model encodes), the warm pool must beat
    single-threaded batched."""
    from repro.core.engine import BatchedEngine, ParallelEngine
    from repro.core.service import ExecutionService

    backend = _ComputeBoundBackend()
    dimension, rows = 5, 200
    token = backend.g1_powers(range(1, dimension + 1))
    side = [
        backend.g2_powers(range(r + 1, r + dimension + 1))
        for r in range(rows)
    ]
    workers = min(4, os.cpu_count() or 2)
    service = ExecutionService(workers=workers)
    pooled = ParallelEngine(workers=workers, batch_size=16, service=service)
    batched = BatchedEngine(batch_size=64)
    with service:
        # Warm the pool, and check byte-identical handles while at it.
        warm_handles, _ = pooled.decrypt_handles(backend, token, side)
        batched_handles, _ = batched.decrypt_handles(backend, token, side)
        assert warm_handles == batched_handles

        def best_of(engine, rounds=3):
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                engine.decrypt_handles(backend, token, side)
                best = min(best, time.perf_counter() - start)
            return best

        # ~100 ms of spin across >= 2 cores vs one core: require a real
        # win, with slack for scheduling noise.
        assert best_of(pooled) <= best_of(batched) * 0.85


def test_auto_planner_is_never_slower_than_default():
    """Acceptance: on the benchmarked grid the planner's choice is
    estimated no slower than the static default, and its measured
    results are identical to batched's."""
    for scale_factor in SCALE_FACTORS:
        workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
        encrypted_query = workload.client.create_query(
            tpch_query(_SELECTIVITY, in_clause_size=1)
        )
        batched = _server(workload, "batched").execute_join(encrypted_query)
        auto = _server(workload, "auto").execute_join(encrypted_query)
        assert auto.index_pairs == batched.index_pairs
        assert auto.stats.planner is not None
        for side in auto.stats.planner:
            estimates = side["estimates"]
            assert estimates[side["chosen"]] <= estimates["batched"]
            # The planner never falls back to the naive ablation baseline.
            assert side["chosen"] != "serial"
