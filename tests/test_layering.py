"""The runtime never imports the benchmark package.

``repro.bench`` reproduces the paper's figures *with* the runtime; what
the runtime prices with lives in :mod:`repro.plan.cost`.  The arrow
points one way: ``core`` / ``plan`` / ``shard`` / ``net`` (and
everything below them) import nothing from ``repro.bench``, not even
lazily inside a function.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"

#: Runs in a fresh interpreter: every runtime package imported, then one
#: query down each path that prices something — the ``auto`` engine,
#: a chain's join order, a sharded join.
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
with SecureJoinServer(client.params) as server:
    for table in encrypted:
        server.store(table)
    auto = server.execute_join(join, engine="auto")
    assert auto.stats.engine == "auto" and len(auto.stats.planner) == 2
    planned = server.execute_chain(chain)
    assert planned.stats.planner[0]["stage"] == "plan"
    shards = [LocalShard(client.params) for _ in range(2)]
    for table in encrypted[:2]:
        for piece in partition_table(table, server.backend, 2):
            shards[piece.shard.shard_index].store(piece)
    with ShardCoordinator(shards) as coordinator:
        sharded = coordinator.execute_join(join)
    assert sharded.index_pairs == auto.index_pairs
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
            if in_function and module in (
                "repro.plan.cost", "repro.bench.costmodel"
            ):
                offenders.append((str(path), f"function-level {module}"))
    assert not offenders
