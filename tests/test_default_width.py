"""A store is as wide as the CPUs its process may run on.

:func:`~repro.core.service.default_width` is the one place the default
is read — the process's CPU affinity, so ``taskset`` and cgroup CPU
sets count — and ``ExecutionService``, ``SecureJoinServer``,
``LocalShard`` and ``python -m repro.net`` all take it.  ``workers=N``
/ ``--workers N`` still override.  The affinity is monkeypatched here,
so every test reads the same on any machine:

- one CPU: the inline path, nothing priced, nothing forked;
- two CPUs on BN254: both sides of a ``bn254_small``-shaped join run on
  the pool, and closing the server leaves no worker behind;
- ``--cost-model`` is refused only when the width comes to 1.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.core.scheme import SecureJoinParams
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService, default_width
from repro.net.__main__ import main as serve
from repro.shard import LocalShard
from tests.conftest import bn254_small_join

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
                shard.server.execution_service,
            ]
            assert [s.worker_target for s in services] == [len(cpus)] * 3
            # Constructing forks nothing, whatever the width.
            assert not any(s.started for s in services)

    def test_workers_overrides_the_default(self, monkeypatch):
        _cpus(monkeypatch, 0, 1)
        with SecureJoinServer(PARAMS, workers=1) as server:
            assert server.execution_service.worker_target == 1
        with LocalShard(PARAMS, workers=3) as shard:
            assert shard.server.execution_service.worker_target == 3


_WIDTH_1 = "the model prices nothing at width 1"
_UNREADABLE = "cannot load cost model from missing.json"


class TestCostModelOption:
    """``--cost-model`` needs a pool to price: refused when the width,
    given or defaulted, comes to 1 — and only then."""

    @pytest.mark.parametrize(
        "cpus, options, complaint",
        [
            ((0,), (), _WIDTH_1),
            ((0, 1), ("--workers", "1"), _WIDTH_1),
            ((0, 1), (), _UNREADABLE),
            ((0,), ("--workers", "2"), _UNREADABLE),
        ],
        ids=["one-cpu", "workers-1", "two-cpus", "workers-2"],
    )
    def test_refused_only_at_width_1(
        self, monkeypatch, capsys, cpus, options, complaint
    ):
        _cpus(monkeypatch, *cpus)
        params = {"num_attributes": 1, "in_clause_limit": 1}
        status = serve([
            "--params", json.dumps(params),
            *options, "--cost-model", "missing.json",
        ])
        assert status == 2
        assert capsys.readouterr().err.startswith(
            f"bad --cost-model: {complaint}"
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
        assert result.stats.planner is None
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
        assert stats.engine_selected == "parallel"
        assert [(side["rows"], side["workers"], side["chosen"])
                for side in stats.planner] == [
            (2, 2, "parallel"), (4, 2, "parallel"),
        ]
        assert multiprocessing.active_children() == children
