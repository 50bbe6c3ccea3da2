"""Shard scaling benchmarks: scatter-gather vs the single-store join.

The acceptance claim of the sharding PR: partitioning an encrypted
store across ``n`` shards divides the SJ.Dec work ``1/n`` per shard
(max rows per shard shrinks accordingly), the coordinator's merged
result stays byte-identical to the single store at every shard count,
and the built-in cost model prices the scatter makespan (slowest
shard + per-shard dispatch), so the parallel speedup is estimated
beside the measurement.

``python benchmarks/test_shard_scaling.py`` regenerates
``BENCH_8.json`` at the repo root (the ROADMAP's perf-trajectory
artifact): a measured single-vs-sharded series on the fast backend
plus the cost model's scatter estimates.  Wall-clock speedup needs one
core per shard pool — the artifact records ``cpu_count`` so a
single-core run is read as overhead measurement, not a regression.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.bench.costmodel import (
    default_engine_cost_model,
    estimate_scatter_costs,
)
from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.crypto.backend import BN254Backend
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.shard import LocalShard, ShardCoordinator, partition_table
from tests.conftest import PoolEngine

#: Shard counts of the measured series; 1 is the sharded-but-trivial
#: baseline (coordinator overhead with no fan-out).
_SHARD_SERIES = (1, 2, 4)
_ROWS = 96
_DISTINCT_KEYS = 12
_WORKERS = 2


def _fixture(rows: int, backend=None, seed: int = 29):
    left = Table(
        "L", Schema.of(("k", "int"), ("a", "str")),
        [(i % _DISTINCT_KEYS, f"a{i}") for i in range(rows)],
    )
    right = Table(
        "R", Schema.of(("k", "int"), ("b", "str")),
        [(i % _DISTINCT_KEYS, f"b{i}") for i in range(rows)],
    )
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")], in_clause_limit=1,
        backend=backend, rng=random.Random(seed),
    )
    tables = [
        client.encrypt_table(left, "k"), client.encrypt_table(right, "k")
    ]
    return client, tables


def _query(client):
    return client.create_query(JoinQuery.build("L", "R", on=("k", "k")))


def _single_store_run(client, tables) -> tuple:
    server = SecureJoinServer(
        client.params, engine=PoolEngine(),
        workers=_WORKERS,
    )
    for table in tables:
        server.store(table)
    try:
        start = time.perf_counter()
        result = server.execute_join(_query(client))
        seconds = time.perf_counter() - start
    finally:
        server.close()
    return result, seconds


def _sharded_run(client, backend, tables, n_shards: int) -> tuple:
    shards = [
        LocalShard(
            client.params, engine=PoolEngine(),
            workers=_WORKERS, name=f"shard-{i}",
        )
        for i in range(n_shards)
    ]
    for table in tables:
        for piece in partition_table(table, backend, n_shards):
            shards[piece.shard.shard_index].store(piece)
    coordinator = ShardCoordinator(shards)
    try:
        start = time.perf_counter()
        result = coordinator.execute_join(_query(client))
        seconds = time.perf_counter() - start
    finally:
        coordinator.close()
    return result, seconds


def _scaling_series(rows: int, backend=None) -> dict:
    """Single store vs every shard count; byte-identity enforced."""
    client, tables = _fixture(rows, backend=backend)
    resolved = client.scheme.backend
    reference, single_seconds = _single_store_run(client, tables)
    dimension = len(tables[0].ciphertexts[0]) if tables[0].ciphertexts else 1
    # Price the spread under the measured backend AND the production
    # pairing backend: fast-backend rows cost microseconds, so dispatch
    # overhead dominates its estimate; under BN254 per-row pairing cost
    # the same partition shows the real fan-out win.
    models = {
        resolved.name: default_engine_cost_model(resolved.name),
        "bn254": default_engine_cost_model("bn254"),
    }
    points = []
    for n_shards in _SHARD_SERIES:
        result, seconds = _sharded_run(client, resolved, tables, n_shards)
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads
        assert result.stats.shards == n_shards
        per_table = [
            [len(piece) for piece in
             partition_table(table, resolved, n_shards)]
            for table in tables
        ]
        rows_per_shard = [sum(col) for col in zip(*per_table)]
        estimates = {
            name: estimate_scatter_costs(
                model, rows_per_shard, dimension=dimension,
                workers=_WORKERS,
            )
            for name, model in models.items()
        }
        points.append({
            "shards": n_shards,
            "seconds": seconds,
            "speedup_vs_single": single_seconds / seconds,
            "rows_per_shard": rows_per_shard,
            "max_rows_per_shard": max(rows_per_shard),
            "work_division": (
                (rows * 2) / max(rows_per_shard) if rows else 1.0
            ),
            "skew": result.stats.shard_skew,
            "model_estimates": estimates,
            "byte_identical": True,
        })
    return {
        "backend": resolved.name,
        "rows_per_side": rows,
        "distinct_keys": _DISTINCT_KEYS,
        "matches": len(reference.tuples),
        "workers_per_shard": _WORKERS,
        "single_store_seconds": single_seconds,
        "series": points,
    }


@pytest.mark.slow
def test_sharded_byte_identity_across_series():
    """Acceptance: every shard count reproduces the single store, max
    rows per shard shrinks with the fan-out, and the cost model prices
    a speedup for the spread."""
    series = _scaling_series(_ROWS)
    max_rows = [point["max_rows_per_shard"] for point in series["series"]]
    assert all(point["byte_identical"] for point in series["series"])
    assert max_rows == sorted(max_rows, reverse=True)
    assert max_rows[-1] < max_rows[0]
    four = next(p for p in series["series"] if p["shards"] == 4)
    assert four["model_estimates"]["bn254"]["speedup"] > 1.5


@pytest.mark.slow
@pytest.mark.bn254
def test_sharded_byte_identity_bn254():
    """The identity claim holds under the production pairing backend."""
    client, tables = _fixture(rows=12, backend=BN254Backend(), seed=31)
    backend = client.scheme.backend
    reference, _ = _single_store_run(client, tables)
    result, _ = _sharded_run(client, backend, tables, 2)
    assert result.tuples == reference.tuples
    assert result.payloads == reference.payloads


def collect_trajectory() -> dict:
    """Measure the BENCH_8 figures; returns the JSON-ready record."""
    return {
        "benchmark": "shard_scaling",
        "description": (
            "Hash-partitioned encrypted store under scatter-gather "
            "coordination: SJ.Dec fans out to per-shard pools, handles "
            "gather to one central matcher, and the merged result is "
            "byte-identical to the single store at every shard count. "
            "max_rows_per_shard tracks the 1/n work division; "
            "model_estimates is the built-in cost model's view (scatter "
            "makespan = slowest shard + per-shard dispatch). Wall-clock "
            "speedup requires one core per shard pool (see cpu_count)."
        ),
        "cpu_count": os.cpu_count(),
        "fast_backend_series": _scaling_series(_ROWS),
    }


def main() -> None:
    record = collect_trajectory()
    out = Path(__file__).resolve().parent.parent / "BENCH_8.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
