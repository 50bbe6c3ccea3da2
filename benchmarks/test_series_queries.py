"""Query-series benchmarks: repeated queries and trickle inserts.

The acceptance claims of the query-series PR: re-submitting the same
encrypted query replays the cached canonical result with *zero* Miller
loops and at least 5x the cold speed; a trickle of inserts is repaired
by decrypting exactly the inserted rows (SJ.Dec never re-runs over the
retained prefix); and every cached answer stays byte-identical to a
from-scratch join.

``python benchmarks/test_series_queries.py`` regenerates
``BENCH_9.json`` at the repo root (the ROADMAP's perf-trajectory
artifact): a measured repeated-query + trickle-insert TPC-H mix at
SF 0.01.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench.workloads import build_encrypted_tpch, tpch_query

_SCALE_FACTOR = 0.01
_SELECTIVITY = 1 / 12.5
_WARM_REPEATS = 5
_TRICKLE_ROUNDS = 3
_TRICKLE_BATCH = 3
#: Warm replay must beat the cold run by at least this factor; measured
#: headroom is ~40x on the fast backend, so 5x tolerates noisy runners.
_MIN_WARM_SPEEDUP = 5.0


def _workload():
    return build_encrypted_tpch(
        _SCALE_FACTOR, use_cache=False, series_cache=True
    )


def _order_row(orderkey: int) -> tuple:
    """A fresh Orders row whose selectivity label the query selects."""
    return (
        orderkey, 7, "O", 1234.5, "1995-01-02", "1-URGENT",
        "Clerk#000000001", 0, "trickle", "1/12.5",
    )


def _repeated_query_series(workload) -> dict:
    ops = workload.server.scheme.backend.ops
    query = workload.client.create_query(tpch_query(_SELECTIVITY))
    start = time.perf_counter()
    cold = workload.server.execute_join(query)
    cold_seconds = time.perf_counter() - start
    warm_seconds = []
    snapshot = ops.snapshot()
    for _ in range(_WARM_REPEATS):
        start = time.perf_counter()
        warm = workload.server.execute_join(query)
        warm_seconds.append(time.perf_counter() - start)
        assert warm.tuples == cold.tuples
        assert warm.payloads == cold.payloads
    since = ops.since(snapshot)
    warm_mean = sum(warm_seconds) / len(warm_seconds)
    return {
        "cold_seconds": cold_seconds,
        "cold_decryptions": cold.stats.decryptions,
        "warm_repeats": _WARM_REPEATS,
        "warm_seconds_mean": warm_mean,
        "warm_miller_loops": (
            since.miller_loops + since.prepared_miller_loops
        ),
        "warm_final_exponentiations": since.final_exponentiations,
        "warm_decryptions": warm.stats.decryptions,
        "reused_handles": warm.stats.reused_handles,
        "matches": cold.stats.matches,
        "speedup": cold_seconds / warm_mean,
        "byte_identical": True,
    }


def _trickle_insert_series(workload) -> dict:
    ops = workload.server.scheme.backend.ops
    query = workload.client.create_query(tpch_query(_SELECTIVITY))
    workload.server.execute_join(query)
    dimension = len(workload.server.table("Orders").ciphertexts[0])
    rounds = []
    orderkey = 10_000_000
    for _ in range(_TRICKLE_ROUNDS):
        for _ in range(_TRICKLE_BATCH):
            orderkey += 1
            workload.server.insert_row(
                "Orders",
                *workload.client.encrypt_row_for(
                    "Orders", _order_row(orderkey)
                ),
            )
        snapshot = ops.snapshot()
        start = time.perf_counter()
        refreshed = workload.server.execute_join(query)
        seconds = time.perf_counter() - start
        since = ops.since(snapshot)
        rounds.append({
            "inserted_rows": _TRICKLE_BATCH,
            "seconds": seconds,
            "delta_rows": refreshed.stats.delta_rows,
            "decryptions": refreshed.stats.decryptions,
            "miller_loops_per_row": (
                (since.miller_loops + since.prepared_miller_loops)
                / _TRICKLE_BATCH
            ),
        })
    return {
        "rounds": rounds,
        "dimension": dimension,
        "total_inserted": _TRICKLE_ROUNDS * _TRICKLE_BATCH,
    }


@pytest.mark.slow
def test_warm_replay_is_5x_and_runs_zero_pairing_ops():
    """Acceptance: the warm repeated query performs zero Miller loops
    and beats the cold run by at least 5x at SF 0.01."""
    workload = _workload()
    try:
        series = _repeated_query_series(workload)
        assert series["warm_miller_loops"] == 0
        assert series["warm_final_exponentiations"] == 0
        assert series["warm_decryptions"] == 0
        assert series["speedup"] >= _MIN_WARM_SPEEDUP
    finally:
        workload.server.close()


@pytest.mark.slow
def test_trickle_insert_decrypts_exactly_the_delta():
    """Acceptance: every trickle round decrypts exactly the inserted
    rows — one Miller loop per ciphertext element per new row."""
    workload = _workload()
    try:
        series = _trickle_insert_series(workload)
        for round_record in series["rounds"]:
            assert round_record["delta_rows"] == _TRICKLE_BATCH
            assert round_record["decryptions"] == _TRICKLE_BATCH
            assert (
                round_record["miller_loops_per_row"]
                == series["dimension"]
            )
    finally:
        workload.server.close()


def collect_trajectory() -> dict:
    """Measure the BENCH_9 figures; returns the JSON-ready record."""
    workload = _workload()
    try:
        repeated = _repeated_query_series(workload)
        trickle = _trickle_insert_series(workload)
    finally:
        workload.server.close()
    return {
        "benchmark": "series_queries",
        "description": (
            "Cross-query series cache under a repeated-query + "
            "trickle-insert TPC-H mix: the first execution retains "
            "decrypted handles and live matcher state, warm replays "
            "run zero Miller loops, and inserts are delta-maintained "
            "(SJ.Dec over exactly the new rows, fed into the retained "
            "matcher)."
        ),
        "cpu_count": os.cpu_count(),
        "scale_factor": _SCALE_FACTOR,
        "selectivity": _SELECTIVITY,
        "backend": "fast",
        "repeated_query": repeated,
        "trickle_insert": trickle,
    }


def main() -> None:
    record = collect_trajectory()
    out = Path(__file__).resolve().parent.parent / "BENCH_9.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
