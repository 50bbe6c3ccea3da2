"""Which way the arrows point, and how few of them there are.

``repro.bench`` reproduces the paper's figures *with* the runtime, and
the runtime prices nothing: the per-backend cost model lives in
:mod:`repro.bench.costmodel`, beside the scatter estimate that reads
it.  The arrow points one way: ``core`` / ``plan`` / ``shard`` /
``net`` (and everything below them) import nothing from
``repro.bench``, not even lazily inside a function.  The client module
needs no engine, pool or shared memory — and the server, which does
need a pool, needs neither shared memory nor the resource tracker, nor
the leakage analysis that reads its ledger; nothing under ``src/`` imports a
third-party package the requirements file does not name; every host
answers a query through the same four one-argument entry points; a
pool's width and transport are not parameters of anything; and there is
one engine, exported under no other name.  There is one join host, too:
the single server is a one-shard fleet, ``core`` / ``plan`` / ``series``
import nothing from ``shard`` or ``net``, and one class opens a query's
decrypt sources.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.core.engine
import repro.core.server
from repro.core.engine import BatchedEngine
from repro.core.scheme import SecureJoinParams
from repro.core.server import SecureJoinServer
from repro.core.service import ExecutionService
from repro.net import RemoteJoinClient
from repro.shard import ShardCoordinator

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"

#: Runs in a fresh interpreter: every runtime package imported, then one
#: query down each path that decides something — a side on a two-worker
#: server, a chain's join order, a sharded join.
_DRIVE = """
import random, sys
import repro, repro.core, repro.plan, repro.shard, repro.net
import repro.net.__main__
from repro.core import SecureJoinClient, SecureJoinServer
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.shard import LocalShard, ShardCoordinator, partition_table

tables = [
    Table(name, Schema.of(("k", "int"), ("v", "str")),
          [(i % 4, f"{name}.{i}") for i in range(rows)])
    for name, rows in (("A", 9), ("B", 30), ("C", 6))
]
client = SecureJoinClient.for_tables(
    [(table, "k") for table in tables], in_clause_limit=1,
    rng=random.Random(5),
)
encrypted = [client.encrypt_table(table, "k") for table in tables]
join = client.create_query(JoinQuery.build("A", "B", on=("k", "k")))
chain = client.create_chain_query(
    ChainQuery.build([("A", "k"), ("B", "k"), ("C", "k")])
)
with SecureJoinServer(client.params, workers=2) as server:
    for table in encrypted:
        server.store(table)
    priced = server.execute_join(join)
    assert priced.stats.engine == priced.stats.engine_selected == "batched"
    planned = server.execute_chain(chain)
    assert planned.stats.planner[0]["stage"] == "plan"
    shards = [LocalShard(client.params) for _ in range(2)]
    for table in encrypted[:2]:
        for piece in partition_table(table, server.backend, 2):
            shards[piece.shard.shard_index].store(piece)
    with ShardCoordinator(shards) as coordinator:
        sharded = coordinator.execute_join(join)
    assert sharded.index_pairs == priced.index_pairs
print(sorted(name for name in sys.modules if name.startswith("repro.bench")))
"""


def test_no_runtime_path_loads_the_benchmark_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    process = subprocess.run(
        [sys.executable, "-c", _DRIVE],
        env=env, cwd=_REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "[]"


def _imports(path: Path):
    """``(module, is_function_level)`` for every import in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, id(node) in nested
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, id(node) in nested


def test_import_rule_holds_in_every_source_file():
    package = _SRC / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        in_bench = "bench" in path.relative_to(package).parts[:1]
        for module, in_function in _imports(path):
            if module.startswith("repro.bench") and not in_bench:
                offenders.append((str(path), module))
            # Nothing imports the cost module lazily: there is no cycle
            # left to dodge.
            if in_function and module == "repro.bench.costmodel":
                offenders.append((str(path), f"function-level {module}"))
    assert not offenders


@pytest.mark.parametrize("package", ["core", "plan", "series"])
def test_the_join_host_imports_no_deployment(package):
    """The store and the coordinator live below ``repro.shard`` and
    ``repro.net``: nothing in these packages imports either, not even
    lazily inside a function."""
    offenders = [
        (str(path.relative_to(_SRC)), module)
        for path in sorted((_SRC / "repro" / package).rglob("*.py"))
        for module, _ in _imports(path)
        if module.split(".")[:2] in (["repro", "shard"], ["repro", "net"])
    ]
    assert not offenders


def test_one_class_opens_a_querys_sources():
    """One host implements the seam the drive calls: the single server
    inherits it from the coordinator it is."""
    definers = [
        (str(path.relative_to(_SRC)), node.name)
        for path in sorted((_SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "_open_sources"
            for item in node.body
        )
    ]
    assert definers == [("repro/core/server.py", "ShardCoordinator")]
    params = SecureJoinParams(num_attributes=1, in_clause_limit=1)
    with SecureJoinServer(params, workers=1) as server:
        assert isinstance(server, ShardCoordinator)
        assert len(server.shards) == 1


def test_every_third_party_import_is_declared():
    """``pip install -r requirements-dev.txt`` is all a clean machine
    gets: a top-level module imported anywhere under ``src/`` is the
    standard library's, the package's own, or named there."""
    requirements = _REPO_ROOT / "requirements-dev.txt"
    declared = {
        re.split(r"[<>=!~\[; ]", line, maxsplit=1)[0].replace("-", "_").lower()
        for line in requirements.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    }
    undeclared = set()
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for module, _ in _imports(path):
            top = module.split(".")[0]
            if (
                top != "repro"
                and top not in sys.stdlib_module_names
                and top.lower() not in declared
            ):
                undeclared.add((str(path.relative_to(_SRC)), top))
    assert not undeclared


#: ``repro`` and ``repro.core`` re-export the server beside the client,
#: so their ``__init__`` files are kept from running: what is loaded is
#: what ``repro.core.client`` itself needs, transitively.
_CLIENT_ALONE = """
import sys, types
for name, path in (("repro", "{src}/repro"), ("repro.core", "{src}/repro/core")):
    package = types.ModuleType(name)
    package.__path__ = [path]
    sys.modules[name] = package
import repro.core.client
assert sys.modules["repro.core.client"].SecureJoinClient
print(sorted(
    name for name in sys.modules
    if name in ("repro.core.engine", "repro.core.service", "repro.core.server")
    or name.startswith("multiprocessing")
))
"""


def test_the_client_module_needs_no_engine_pool_or_shared_memory():
    process = subprocess.run(
        [sys.executable, "-c", _CLIENT_ALONE.format(src=_SRC)],
        cwd=_REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "[]"


def test_the_server_module_needs_no_shared_memory_or_resource_tracker():
    """The pool has one transport — bytes through the executor's own
    queue — so serving loads nothing that manages POSIX segments."""
    process = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.core.server\n"
            "print(sorted(name for name in sys.modules if name in ("
            "'multiprocessing.shared_memory', "
            "'multiprocessing.resource_tracker')))",
        ],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        cwd=_REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "[]"


def test_the_server_loads_no_leakage_analysis_or_baseline():
    """The server feeds its leakage ledger but never analyzes it:
    ``repro.leakage`` imports the baselines, and the baselines import
    the server, so a server that reached either would close a cycle."""
    process = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.core.server\n"
            "print(sorted(name for name in sys.modules if name.startswith(("
            "'repro.leakage', 'repro.baselines'))))",
        ],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        cwd=_REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "[]"


def test_there_is_no_observation_log():
    """A host keeps what its queries revealed as a ledger of classes,
    not as one record per query: nothing exports the record type."""
    for module in (repro, repro.core.server):
        assert not [n for n in dir(module) if n.endswith("Observation")]
    assert not [n for n in repro.__all__ if n.endswith("Observation")]


@pytest.mark.parametrize(
    "function, removed",
    [
        (BatchedEngine.__init__, "workers"),
        (ExecutionService.__init__, "use_shared_memory"),
        (ExecutionService.admit_side, "max_workers"),
    ],
    ids=lambda value: getattr(value, "__qualname__", value),
)
def test_a_pools_width_and_transport_are_not_options(function, removed):
    """One width, set by the server's ``workers``; one transport."""
    assert removed not in inspect.signature(function).parameters


@pytest.mark.parametrize("module", [repro.core.engine, repro.core])
def test_there_are_no_engine_names(module):
    """The server has one engine: neither the engine module nor the
    package exports the retired engines or a name table."""
    for retired in ("ParallelEngine", "AutoEngine", "ENGINE_NAMES", "get_engine"):
        assert not hasattr(module, retired), (module.__name__, retired)


@pytest.mark.parametrize(
    "host",
    [SecureJoinServer, ShardCoordinator, RemoteJoinClient],
    ids=lambda host: host.__name__,
)
def test_every_host_answers_through_the_same_four_signatures(host):
    """How a query executes is decided where the host is built: each
    entry point takes the query and nothing else."""
    for name in (
        "stream_join", "execute_join", "stream_chain", "execute_chain"
    ):
        parameters = inspect.signature(getattr(host, name)).parameters
        assert list(parameters) == ["self", "query"], (host, name)
