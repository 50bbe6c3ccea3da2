"""Streaming-pipeline benchmarks: time to first match vs. full join.

The acceptance claim of the pipeline: on the Figure 3 workload, the
first matched rows surface after a small fraction of the SJ.Dec work a
full-side materialization needs — the matcher starts pairing the moment
the first decrypted chunks land, instead of waiting for both sides to
finish SJ.Dec.  These benchmarks time that gap, pin it with an
assertion on rows decrypted (not on a clock), and time the
concurrent-admission path (several queries interleaved on one warm
pool) for the CI trajectory artifact.
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.conftest import SCALE_FACTORS
from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.core.server import SecureJoinServer
from tests.conftest import PoolEngine

_SELECTIVITY = 1 / 12.5  # densest series: the most decryptions per query


@pytest.fixture(autouse=True)
def _close_cached_pools():
    """Close any worker pool a test warmed up on the module-cached
    workload servers (pools restart lazily, so this is safe)."""
    yield
    from repro.bench.workloads import _CACHE

    for workload in _CACHE.values():
        workload.server.close()


def _first_match_seconds(server, encrypted_query):
    """Drive ``stream_join`` until the first batch only."""
    stream = server.stream_join(encrypted_query)
    start = time.perf_counter()
    try:
        next(stream)
    except StopIteration:  # pragma: no cover - workload always matches
        pass
    elapsed = time.perf_counter() - start
    stream.close()
    return elapsed


@pytest.mark.parametrize("scale_factor", list(SCALE_FACTORS))
def test_time_to_first_match(benchmark, scale_factor):
    """Benchmark: latency of the *first* streamed match batch."""
    workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    elapsed = benchmark.pedantic(
        lambda: _first_match_seconds(workload.server, encrypted_query),
        rounds=3, iterations=1,
    )
    assert elapsed > 0.0


@pytest.mark.parametrize("scale_factor", list(SCALE_FACTORS))
def test_streamed_full_join(benchmark, scale_factor):
    """Benchmark: the full pipelined join (for the ratio in the JSON)."""
    workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    result = benchmark.pedantic(
        lambda: workload.server.execute_join(encrypted_query),
        rounds=3, iterations=1,
    )
    assert result.stats.matches > 0
    assert result.stats.time_to_first_match > 0.0


def test_first_match_beats_materialization():
    """Acceptance: on the Figure 3 workload the first match leaves after
    a small fraction of the SJ.Dec work the full join does (which is
    itself a lower bound for the old decrypt-everything-then-match
    pass).  Counted in rows decrypted — the backend's final
    exponentiations, one per row — not timed; the times are printed."""
    workload = build_encrypted_tpch(0.02, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    server = workload.server
    ops = server.backend.ops

    before = ops.snapshot()
    started = time.perf_counter()
    stream = server.stream_join(encrypted_query)
    next(stream)
    first_seconds = time.perf_counter() - started
    first_rows = ops.since(before).final_exponentiations
    stream.close()

    before = ops.snapshot()
    started = time.perf_counter()
    result = server.execute_join(encrypted_query)
    full_seconds = time.perf_counter() - started
    full_rows = ops.since(before).final_exponentiations
    assert result.stats.matches > 0
    assert full_rows == result.stats.decryptions
    print(
        f"\nfirst match after {first_rows} of {full_rows} rows "
        f"({first_seconds * 1e3:.1f} of {full_seconds * 1e3:.1f} ms)"
    )
    # The count is set by how deep the first matching pair sits, about
    # 95 rows into each side here (190 of 2640 rows; flat 64-row chunks
    # read 192), not by how the sides are chunked.
    assert 2 <= first_rows < full_rows * 0.1
    assert 0.0 < result.stats.time_to_first_match


def test_concurrent_admission_throughput():
    """Concurrent queries interleaved on one pool complete correctly
    and co-admit (the admission counters prove the interleaving)."""
    workload = build_encrypted_tpch(0.01, in_clause_limit=1)
    encrypted = [
        workload.client.create_query(tpch_query(_SELECTIVITY, in_clause_size=1))
        for _ in range(4)
    ]
    reference = workload.server.execute_join(encrypted[0])
    results = [None] * len(encrypted)
    pooled = SecureJoinServer(
        workload.client.params, engine=PoolEngine(),
        workers=2, series_cache_bytes=None,
    )
    for name in ("Customers", "Orders"):
        pooled.store(workload.server.table(name))

    def run(slot):
        results[slot] = pooled.execute_join(encrypted[slot])

    threads = [
        threading.Thread(target=run, args=(slot,))
        for slot in range(len(encrypted))
    ]
    with pooled:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    for slot, result in enumerate(results):
        assert result is not None
        if slot == 0:
            assert result.index_pairs == reference.index_pairs
        assert result.stats.matches == reference.stats.matches
    service = pooled.execution_service
    # One pool incarnation served every concurrent query: no per-query
    # respawn.
    assert len({r.stats.pool_generation for r in results}) == 1
    assert service.generation == results[0].stats.pool_generation
    assert service.peak_concurrent_sides >= 2
