"""A store is as wide as the CPUs its process may run on.

:func:`~repro.core.service.default_width` is the one place the default
is read — the process's CPU affinity, so ``taskset`` and cgroup CPU
sets count — and ``ExecutionService``, ``SecureJoinServer``,
``LocalShard`` and ``python -m repro.net`` all take it.  ``workers=N``
/ ``--workers N`` still override.  The affinity is monkeypatched here,
so every test reads the same on any machine:

- one CPU: the inline path, nothing decided, nothing forked;
- two CPUs on BN254: both sides of a ``bn254_small``-shaped join run on
  the pool, and closing the server leaves no worker behind;
- two CPUs, many stores: a two-shard fleet, and ``bn254_small``'s raw
  and prepared stores, each share one pool and fork two workers, not
  two per store; a ``workers=1`` store beside them forks nothing;
- ``--cost-model`` is no option, whatever the width comes to.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random

import pytest

from repro.core.client import SecureJoinClient
from repro.core.scheme import SecureJoinParams
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService, default_width
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.net.__main__ import main as serve
from repro.shard import LocalShard, ShardCoordinator, partition_table
from tests.conftest import bn254_small_join, held_handles

PARAMS = SecureJoinParams(num_attributes=1, in_clause_limit=1)


def _cpus(monkeypatch, *cpus) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


class TestDefaultWidth:
    def test_the_width_is_the_affinity(self, monkeypatch):
        _cpus(monkeypatch, 0, 2, 5)
        assert default_width() == 3
        # No affinity call on this platform: every CPU, at least one.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_width() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_width() == 1

    @pytest.mark.parametrize("cpus", [(0,), (0, 1), (1, 2, 3)])
    def test_every_store_takes_the_default(self, monkeypatch, cpus):
        _cpus(monkeypatch, *cpus)
        with SecureJoinServer(PARAMS) as server, LocalShard(PARAMS) as shard:
            services = [
                ExecutionService(),
                server.execution_service,
                shard.execution_service,
            ]
            assert [s.worker_target for s in services] == [len(cpus)] * 3
            # Constructing forks nothing, whatever the width.
            assert not any(s.started for s in services)

    def test_workers_overrides_the_default(self, monkeypatch):
        _cpus(monkeypatch, 0, 1)
        with SecureJoinServer(PARAMS, workers=1) as server:
            assert server.execution_service.worker_target == 1
        with LocalShard(PARAMS, workers=3) as shard:
            assert shard.execution_service.worker_target == 3


class TestCostModelOption:
    """The backend decides pool or inline, so there is no model to load:
    ``--cost-model`` is refused at every width, given or defaulted."""

    @pytest.mark.parametrize(
        "cpus, options",
        [
            ((0,), ()),
            ((0, 1), ("--workers", "1")),
            ((0, 1), ()),
            ((0,), ("--workers", "2")),
        ],
        ids=["one-cpu", "workers-1", "two-cpus", "workers-2"],
    )
    def test_refused_at_any_width(self, monkeypatch, capsys, cpus, options):
        _cpus(monkeypatch, *cpus)
        params = {"num_attributes": 1, "in_clause_limit": 1}
        with pytest.raises(SystemExit) as refused:
            serve([
                "--params", json.dumps(params),
                *options, "--cost-model", "missing.json",
            ])
        assert refused.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(
            "unrecognized arguments: --cost-model missing.json"
        )


@pytest.mark.bn254
class TestBN254Default:
    def test_one_cpu_prices_nothing_and_forks_nothing(
        self, monkeypatch, bn254_backend
    ):
        _cpus(monkeypatch, 0)
        client, tables, query = bn254_small_join(bn254_backend)
        children = multiprocessing.active_children()
        with SecureJoinServer(client.params, backend=bn254_backend) as server:
            for table in tables:
                server.store(table)
            result = server.execute_join(query)
            _, report = server.engine.decrypt_handles(
                bn254_backend, query.right_token.elements,
                [row.elements for row in tables[1].ciphertexts],
            )
            assert not server.execution_service.started
        assert (report.selected, report.planner) == ("", None)
        assert [r["stage"] for r in result.stats.planner] == ["scatter"]
        assert (result.stats.workers, result.stats.pool_generation) == (1, 0)
        assert multiprocessing.active_children() == children

    def test_two_cpus_pool_both_sides_and_close_clean(
        self, monkeypatch, bn254_backend
    ):
        _cpus(monkeypatch, 0, 1)
        client, tables, query = bn254_small_join(bn254_backend)
        children = multiprocessing.active_children()
        with SecureJoinServer(client.params, backend=bn254_backend) as server:
            for table in tables:
                server.store(table)
            stats = server.execute_join(query).stats
            assert server.execution_service.started
        # Both sides ran on the pool: an inline one would add
        # "+batched".
        assert stats.engine_selected == "parallel"
        assert stats.pool_generation == 1
        assert [r["stage"] for r in stats.planner] == ["scatter"]
        assert multiprocessing.active_children() == children


def _new_children(before) -> int:
    """Live child processes started since ``before``."""
    return len(set(multiprocessing.active_children()) - set(before))


@pytest.mark.bn254
class TestOnePoolPerProcess:
    """Every store of a backend at one width runs on one pool, so the
    process forks that width's workers once, however many stores and
    shards it holds."""

    def test_a_two_shard_fleet_forks_one_pool(
        self, monkeypatch, bn254_backend
    ):
        """Two ``LocalShard``s at the default width run an 8 x 8 join on
        one pool: two workers while the fleet is open, not two per
        shard, and the result a one-worker store computes."""
        _cpus(monkeypatch, 0, 1)
        schema = Schema.of(("k", "int"), ("v", "str"))
        left = Table("L", schema, [(i % 4, f"l{i}") for i in range(8)])
        right = Table("R", schema, [(i % 4, f"r{i}") for i in range(8)])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=1,
            backend=bn254_backend, rng=random.Random(32),
        )
        tables = [client.encrypt_table(t, "k") for t in (left, right)]
        query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
        inline = SecureJoinServer(
            client.params, backend=bn254_backend, workers=1
        )
        for table in tables:
            inline.store(table)
        expected = inline.execute_join(query)
        children = multiprocessing.active_children()
        shards = [
            LocalShard(client.params, backend=bn254_backend)
            for _ in range(2)
        ]
        for table in tables:
            for piece in partition_table(table, bn254_backend, 2):
                shards[piece.shard.shard_index].store(piece)
        with ShardCoordinator(shards) as fleet:
            result = fleet.execute_join(query)
            assert _new_children(children) == 2
        assert "parallel" in result.stats.engine_selected
        pool = shards[0].execution_service
        assert shards[1].execution_service is pool
        assert pool.worker_target == 2
        assert result.tuples == expected.tuples
        assert result.payloads == expected.payloads

    def test_raw_and_prepared_stores_share_one_pool(
        self, monkeypatch, bn254_backend
    ):
        """``bn254_small``'s shape: a raw and a prepared store on one
        backend, each running one join, fork one pool between them; a
        ``workers=1`` store beside them forks nothing, and all three
        compute the same handles."""
        _cpus(monkeypatch, 0, 1)
        client, tables, query = bn254_small_join(bn254_backend)
        children = multiprocessing.active_children()
        raw = SecureJoinServer(client.params, backend=bn254_backend)
        prepared = SecureJoinServer(client.params, backend=bn254_backend)
        inline = SecureJoinServer(
            client.params, backend=bn254_backend, workers=1
        )
        for table in tables:
            raw.store(table)
            inline.store(table)
            prepared.store(dataclasses.replace(table))
            prepared.prepare_table(table.name)
        results = [
            store.execute_join(query) for store in (raw, prepared, inline)
        ]
        assert [r.stats.engine_selected for r in results[:2]] == [
            "parallel", "parallel",
        ]
        assert results[2].stats.workers == 1
        assert _new_children(children) <= 2
        assert raw.execution_service is prepared.execution_service
        assert not inline.execution_service.started
        handles = [
            held_handles(store, query) for store in (raw, prepared, inline)
        ]
        assert handles[0] == handles[1] == handles[2]
        assert results[0].tuples == results[2].tuples
