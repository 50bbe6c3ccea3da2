"""Execution ablation: serial vs. inline vs. pooled SJ.Dec.

The server-side join is pairing-bound, so how SJ.Dec is issued against
the backend decides the scale ceiling.  Each label is a way to build
the server:

- ``serial`` — the naive product of pairings (one final exponentiation
  per vector component per row), handed in as an engine instance;
- ``batched`` — the default build: one worker, chunked multi-pairings
  inline, one shared final exponentiation per row (d× fewer, d = scheme
  dimension);
- ``parallel`` — two workers and an engine that sends every side of two
  rows or more to the pool: the batched plan fanned out over the
  *persistent* worker pool (forked once, not per query);
- ``auto`` — two workers, and the backend decides each side.

Each label gets its own server over the workload's encrypted tables.

``REPRO_BENCH_FULL=1`` widens the sweep as for the other benchmarks.
Run ``python -m repro.bench`` for the paper-style engine table, or
``pytest benchmarks/test_engine_scaling.py --benchmark-only`` here.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import statistics
import time

import pytest

from benchmarks.conftest import SCALE_FACTORS
from repro.baselines import SerialEngine
from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService, chunk_spans
from tests.conftest import PoolEngine

_SELECTIVITY = 1 / 12.5  # densest series: the most decryptions per query

#: Server arguments per label, and what each label's stats report as
#: ``engine_selected`` on the fast backend, whose pool never pays.
_BUILDS = {
    "serial": (lambda: {"engine": SerialEngine()}, "serial"),
    "batched": (lambda: {}, "batched"),
    "parallel": (
        lambda: {"engine": PoolEngine(), "workers": 2},
        "parallel",
    ),
    "auto": (lambda: {"workers": 2}, "batched"),
}

#: One server per (workload, label), cached like the workloads are.
_SERVERS: dict[tuple[float, str], SecureJoinServer] = {}


def _build(workload, build: str, **overrides) -> SecureJoinServer:
    """A server built as ``_BUILDS[build]`` says (and ``overrides``)
    over ``workload``'s encrypted tables — without a series cache, like
    the workload's own: a repeated query must measure SJ.Dec, not a
    replay."""
    server = SecureJoinServer(
        workload.client.params, series_cache_bytes=None,
        **{**_BUILDS[build][0](), **overrides},
    )
    for name in ("Customers", "Orders"):
        server.store(workload.server.table(name))
    return server


def _server(workload, engine: str) -> SecureJoinServer:
    """The cached :func:`_build` for ``(workload, engine)``."""
    key = (workload.scale_factor, engine)
    if key not in _SERVERS:
        _SERVERS[key] = _build(workload, engine)
    return _SERVERS[key]


@pytest.fixture(scope="module", autouse=True)
def _close_cached_servers():
    """The ``parallel`` servers hold the process's pool for their
    module; let go of it at the end, or the workers a later large
    upload forks there would outlive that upload."""
    yield
    for server in _SERVERS.values():
        server.close()
    _SERVERS.clear()


@pytest.fixture(autouse=True)
def _close_cached_pools():
    """Servers are cached module-wide and hold the process's pools;
    close any pool a test warmed up so idle workers don't accumulate
    under the rest of the session.  Pools restart lazily, so this is
    safe."""
    yield
    for server in _SERVERS.values():
        server.execution_service.close()


@pytest.mark.parametrize("scale_factor", list(SCALE_FACTORS))
@pytest.mark.parametrize("engine", list(_BUILDS))
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
    assert result.stats.engine == (
        "serial" if engine == "serial" else "batched"
    )
    assert result.stats.engine_selected == _BUILDS[engine][1]
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
    assert serial.tuples == batched.tuples
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

    assert parallel.stats.engine_selected == "parallel"
    assert parallel.tuples == batched.tuples
    assert parallel.stats.final_exponentiations == (
        batched.stats.final_exponentiations
    )
    assert parallel.stats.workers >= 2


def test_parallel_pool_persists_across_queries():
    """Acceptance: no per-query pool spawn.  After warmup, repeated
    queries report the same pool generation; the cold and warm
    wall-clock times are printed, not asserted."""
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
        assert warm.tuples == cold.tuples

    # The same generation is the proof that no warm query re-spawned
    # the pool; how long each took is recorded.
    assert generations == [cold.stats.pool_generation] * 3
    print(
        f"\ncold {cold_seconds * 1e3:.1f} ms, warm "
        + ", ".join(f"{seconds * 1e3:.1f}" for seconds in warm_seconds)
        + " ms"
    )


def _child_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def test_warm_pool_beats_per_query_pool():
    """Acceptance: a query on the warm persistent pool forks no process,
    while one that brings a pool of its own — the old per-query-fork
    behavior — forks its workers and loses them at close.  Counted in
    child pids, not timed; the best wall-clock of each is printed."""
    workload = build_encrypted_tpch(0.004, in_clause_limit=1)
    encrypted_query = workload.client.create_query(
        tpch_query(_SELECTIVITY, in_clause_size=1)
    )
    # Warm the process's pool once.
    server = _server(workload, "parallel")
    warm_result = server.execute_join(encrypted_query)
    known = _child_pids()
    assert set(server.execution_service.worker_pids()) <= known

    warm_seconds, own_seconds = [], []
    for _ in range(3):
        start = time.perf_counter()
        result = server.execute_join(encrypted_query)
        warm_seconds.append(time.perf_counter() - start)
        assert result.stats.engine_selected == "parallel"
        assert not _child_pids() - known

        # Built (tables stored) before the clock starts: the gap under
        # test is the fork, not the server's construction.  The
        # process's pool is warm, so the engine is bound to a pool of
        # its own first (an engine serves the first pool it is bound to).
        own_pool = ExecutionService(workers=2)
        engine = PoolEngine()
        engine.bind_service(own_pool)
        fresh = _build(workload, "parallel", engine=engine)
        start = time.perf_counter()
        result = fresh.execute_join(encrypted_query)
        forked = _child_pids() - known
        own_pool.close()
        own_seconds.append(time.perf_counter() - start)
        fresh.close()
        assert result.tuples == warm_result.tuples
        assert len(forked) == own_pool.worker_target
        assert not _child_pids() & forked
    print(
        f"\nwarm pool best {min(warm_seconds) * 1e3:.1f} ms, "
        f"per-query pool best {min(own_seconds) * 1e3:.1f} ms"
    )


def _cpu_seconds(pid: int) -> float:
    """User + system CPU a live process has used (``/proc/<pid>/stat``
    fields 14 and 15, after the parenthesised command name)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _pool_cpu_profile(
    pooled, workers, inline, backend, token, rows, rounds=3
) -> dict:
    """One side inline and on the warm pool, in CPU-seconds: the
    parent's from ``time.process_time()``, each worker's from ``/proc``.
    Wall-clock cannot judge a pool on a shared box whose second core
    comes and goes; CPU-seconds can — *predicted speed-up* = inline CPU
    / (parent CPU + the busiest worker's CPU) is what a machine with a
    free core per worker would see, and *overhead* = (every worker's
    CPU + parent CPU) / inline CPU is what pooling costs on any machine.
    The box also runs at two speeds for minutes at a time, so each
    ratio is taken within one round — inline, then pooled, seconds
    apart — and reported as the median over ``rounds``: a change of
    speed can spoil the one round it falls in, not the median.  The
    wall-clock from opening the pooled stream to its first chunk is
    recorded too (``first_handle_ms``), not asserted."""
    inline_cpu, parent_cpu, worker_cpu, first_ms = [], [], [], []
    for _ in range(rounds):
        start = time.process_time()
        inline_handles, _ = inline.decrypt_handles(backend, token, rows)
        inline_cpu.append(time.process_time() - start)

        before = [_cpu_seconds(pid) for pid in workers]
        start = time.process_time()
        opened = time.perf_counter()
        stream = pooled.decrypt_stream(backend, token, rows)
        chunks = {}
        for chunk in stream:
            if not chunks:
                first_ms.append((time.perf_counter() - opened) * 1e3)
            chunks[chunk.start] = chunk.handles
        parent_cpu.append(time.process_time() - start)
        worker_cpu.append(
            [_cpu_seconds(pid) - was for pid, was in zip(workers, before)]
        )
        report = stream.report
        assert [
            handle for offset in sorted(chunks) for handle in chunks[offset]
        ] == inline_handles
    each = list(zip(inline_cpu, parent_cpu, worker_cpu))
    return {
        "predicted_speedup": round(statistics.median(
            inline / (parent + max(pool)) for inline, parent, pool in each
        ), 2),
        "overhead": round(statistics.median(
            (parent + sum(pool)) / inline for inline, parent, pool in each
        ), 2),
        "inline_cpu_s": [round(cpu, 3) for cpu in inline_cpu],
        "parent_cpu_s": [round(cpu, 4) for cpu in parent_cpu],
        "worker_cpu_s": [
            [round(cpu, 3) for cpu in pool] for pool in worker_cpu
        ],
        "first_handle_ms": [round(ms, 1) for ms in first_ms],
        "selected": report.selected,
        "chunks": report.batches,
        "workers": report.workers,
        "preparations": report.preparations,
    }


@pytest.mark.slow
@pytest.mark.bn254
@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"),
    reason="per-worker CPU-seconds are read from /proc/<pid>/stat",
)
def test_pool_pays_in_cpu_seconds_at_the_papers_dimension():
    """The pool's reason to exist, measured where it can be: real
    pairings at the paper's dimension (Customers, m = 8, t = 1: d = 19),
    one 64-row side, two workers, the engine's default pooled chunk of
    32 rows, which the schedule cuts as 1, 2, 4, 8, 16, 17, 8, 4, 2, 1
    and 1 rows: eleven chunks that in-order dispatch spreads 32 / 32
    over the two workers, the first of them one row, so the first
    handle (recorded) leaves after one pairing product, not after 32.
    The engine must choose the pool by itself, under the built-in BN254
    model; then raw rows must predict >= 1.6x at an overhead <= 1.15;
    prepared rows are recorded (their worker-side cache is keyed to
    whichever worker last saw a row, so the speed-up moves with the
    preparations redone)."""
    from repro.crypto.backend import BN254Backend

    backend = BN254Backend()
    dimension, rows = 19, 64
    rng = random.Random(19)
    token = backend.g1_powers(
        [rng.randrange(1, backend.order) for _ in range(dimension)]
    )
    raw = [
        backend.g2_powers(
            [rng.randrange(1, backend.order) for _ in range(dimension)]
        )
        for _ in range(rows)
    ]
    prepared = [backend.prepare_row(row) for row in raw]
    others = {child.pid for child in multiprocessing.active_children()}
    with ExecutionService(workers=2) as service:
        pooled = BatchedEngine()
        pooled.bind_service(service)
        # Inline chunks capped at the pooled chunk size: the comparison
        # is of where the rows run, not of how large a chunk may grow.
        inline = BatchedEngine(pooled.batch_size // 2)
        # Fork the workers, and fill their prepared-row caches, off the
        # clock: the check is of a warm pool.
        pooled.decrypt_handles(backend, token, prepared)
        workers = [
            child.pid for child in multiprocessing.active_children()
            if child.pid not in others
        ]
        profile = {
            "raw": _pool_cpu_profile(
                pooled, workers, inline, backend, token, raw
            ),
            "prepared": _pool_cpu_profile(
                pooled, workers, inline, backend, token, prepared,
                rounds=1,
            ),
        }
    print(f"\npool CPU-seconds at d={dimension}, {rows} rows, w=2:")
    for kind, numbers in profile.items():
        print(f"  {kind}: {json.dumps(numbers)}")
    assert profile["raw"]["selected"] == "parallel"
    assert profile["prepared"]["selected"] == "parallel"
    assert profile["raw"]["chunks"] == len(chunk_spans(rows, 32, 2))
    assert profile["raw"]["workers"] == 2
    assert profile["raw"]["overhead"] <= 1.15
    assert profile["raw"]["predicted_speedup"] >= 1.6


def test_auto_planner_is_never_slower_than_default():
    """Acceptance: on the benchmarked grid a two-worker server keeps
    every fast-backend side inline, as the default build runs it, and
    its measured results are identical to the default build's."""
    for scale_factor in SCALE_FACTORS:
        workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
        encrypted_query = workload.client.create_query(
            tpch_query(_SELECTIVITY, in_clause_size=1)
        )
        batched = _server(workload, "batched").execute_join(encrypted_query)
        auto = _server(workload, "auto").execute_join(encrypted_query)
        assert auto.tuples == batched.tuples
        # Every side decided inline: a pooled one would add
        # "+parallel", and the naive ablation baseline is never chosen.
        assert auto.stats.engine_selected == "batched"
        assert auto.stats.pool_generation == 0
