"""Integration tests: the ``python -m repro.net`` server as a subprocess.

Drives the real deployment shape — a separate server process, real
sockets, encrypted tables loaded from disk — and the operational
contract: concurrent remote joins against one process, graceful SIGTERM
drain (in-flight streams finish, exit code 0), and no orphaned worker
processes or leaked listening sockets afterwards.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer, ShardCoordinator
from repro.db.join import hash_join
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.net import RemoteJoinClient, RemoteShard
from repro.shard import partition_table
from repro.store.tables import load_encrypted_table, save_encrypted_table
from tests.conftest import bn254_small_join

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"


def _plain(n_rows):
    """The two joinable plaintext tables: keys ``i % 7`` on both."""
    keys = [i % 7 for i in range(n_rows)]
    left = Table("L", Schema.of(("k", "int"), ("a", "str")),
                 [(k, f"a{i}") for i, k in enumerate(keys)])
    right = Table("R", Schema.of(("k", "int"), ("b", "str")),
                  [(k, f"b{i}") for i, k in enumerate(keys)])
    return left, right


def _dataset(tmp_path, n_rows=40, seed=23):
    """Encrypt two joinable tables to disk; return (client, paths)."""
    left, right = _plain(n_rows)
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=1,
        rng=random.Random(seed),
    )
    backend = client.scheme.backend
    paths = []
    for table, column in ((left, "k"), (right, "k")):
        encrypted = client.encrypt_table(table, column)
        path = tmp_path / f"{table.name}.rprot"
        save_encrypted_table(encrypted, path, backend)
        paths.append(path)
    return client, paths


#: Well-formed ``--params``, for runs that must fail on another option.
_PARAMS_JSON = '{"num_attributes": 1, "in_clause_limit": 1}'


def _params_json(client) -> str:
    params = client.params
    return json.dumps({
        "num_attributes": params.num_attributes,
        "in_clause_limit": params.in_clause_limit,
        "backend_name": params.backend_name,
    })


#: A shard endpoint process, taking ``python -m repro.net``'s
#: ``--params`` / ``--table`` / ``--port`` / ``--port-file``: it serves
#: one ``LocalShard`` until its stdin closes.
_SHARD_SERVICE = """
import argparse, json, os, sys
from repro.core.scheme import SecureJoinParams
from repro.net import ShardServiceServer
from repro.shard import LocalShard
from repro.store.tables import load_encrypted_table

parser = argparse.ArgumentParser()
parser.add_argument("--params")
parser.add_argument("--table", action="append")
parser.add_argument("--port", type=int)
parser.add_argument("--port-file")
args = parser.parse_args()
shard = LocalShard(SecureJoinParams(**json.loads(args.params)))
for path in args.table:
    shard.store(load_encrypted_table(path, shard.backend))
with ShardServiceServer(shard, port=args.port) as service:
    host, port = service.address
    with open(args.port_file + ".tmp", "w") as handle:
        handle.write(f"{host}:{port}\\n")
    os.replace(args.port_file + ".tmp", args.port_file)
    sys.stdin.read()
"""


def _launch(tmp_path, client, paths, *extra, program=("-m", "repro.net")):
    """Start ``python -m repro.net`` (or ``program``); return (process,
    host, port)."""
    port_file = tmp_path / "service.port"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    process = subprocess.Popen(
        [
            sys.executable, *program,
            "--params", _params_json(client),
            "--table", str(paths[0]),
            "--table", str(paths[1]),
            "--port", "0",
            "--port-file", str(port_file),
            *extra,
        ],
        env=env,
        cwd=_REPO_ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            _, err = process.communicate(timeout=5)
            raise AssertionError(
                f"server died at startup (rc={process.returncode}): "
                f"{err.decode(errors='replace')}"
            )
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                host, port = text.rsplit(":", 1)
                return process, host, int(port)
        time.sleep(0.05)
    process.kill()
    raise AssertionError("server never published its port")


def _finish(process, timeout=30) -> int:
    """Wait for exit, collecting output; kill on overrun."""
    try:
        process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate(timeout=5)
        raise AssertionError("server did not exit in time")
    return process.returncode


def _reference(client, paths):
    server = SecureJoinServer(client.params)
    backend = client.scheme.backend
    for path in paths:
        server.store(load_encrypted_table(path, backend))
    query = client.create_query(JoinQuery.build("L", "R", on=("k", "k")))
    result = server.execute_join(query)
    server.close()
    return result


def _query(client):
    return client.create_query(JoinQuery.build("L", "R", on=("k", "k")))


def _python_pids() -> set[int]:
    """PIDs of every live python process (orphan detection baseline)."""
    out = subprocess.run(
        ["ps", "-eo", "pid=,comm="], capture_output=True, text=True,
        check=True,
    ).stdout
    pids = set()
    for line in out.splitlines():
        pid, _, comm = line.strip().partition(" ")
        if "python" in comm:
            pids.add(int(pid))
    return pids


class TestNoThreadPerQuery:
    """A remote answer is read in the caller's thread.  The endpoint runs
    in a child process, so every thread here is the consumer's; none may
    be alive, in any state of a query, that was not alive before it (a
    set, not a count: a thread some earlier test left may end
    meanwhile)."""

    @staticmethod
    def _new_threads_in_each_state(stream_of):
        """The threads that are alive and were not alive before the
        query: while its first batch is held, after draining it, and
        after abandoning a second one."""
        before = set(threading.enumerate())

        def new():
            return [t.name for t in threading.enumerate() if t not in before]

        seen = {}
        stream = stream_of()
        next(stream)
        seen["holding the first batch"] = new()
        batches = 1
        while True:
            try:
                next(stream)
                batches += 1
            except StopIteration:
                break
        seen["drained"] = new()
        stream = stream_of()
        next(stream)
        stream.close()
        seen["abandoned"] = new()
        assert batches >= 2
        return seen

    def test_join_client(self, tmp_path):
        client, paths = _dataset(tmp_path, n_rows=200)
        process, host, port = _launch(tmp_path, client, paths)
        try:
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                seen = self._new_threads_in_each_state(
                    lambda: rc.stream_join(_query(client))
                )
                assert rc.closed  # abandoning dropped the connection
        finally:
            process.send_signal(signal.SIGTERM)
            returncode = _finish(process)
        assert seen == {
            "holding the first batch": [], "drained": [], "abandoned": [],
        }
        assert returncode == 0

    def test_remote_shard_scatter(self, tmp_path):
        client, paths = _dataset(tmp_path, n_rows=200)
        backend = client.scheme.backend
        pieces = []
        for path in paths:
            (piece,) = partition_table(
                load_encrypted_table(path, backend), backend, 1
            )
            pieces.append(path.with_suffix(".piece.rprot"))
            save_encrypted_table(piece, pieces[-1], backend)
        process, host, port = _launch(
            tmp_path, client, pieces, program=("-c", _SHARD_SERVICE)
        )
        try:
            with ShardCoordinator(
                [RemoteShard(host, port, backend, name="child")]
            ) as fleet:
                seen = self._new_threads_in_each_state(
                    lambda: fleet.stream_join(_query(client))
                )
        finally:
            returncode = _finish(process)
        assert seen == {
            "holding the first batch": [], "drained": [], "abandoned": [],
        }
        assert returncode == 0


class TestServerProcess:
    def test_concurrent_remote_joins_and_graceful_exit(self, tmp_path):
        client, paths = _dataset(tmp_path)
        reference = _reference(client, paths)
        baseline_pids = _python_pids()
        process, host, port = _launch(tmp_path, client, paths)
        try:
            results = {}
            errors = []

            def run(name):
                try:
                    with RemoteJoinClient(
                        host, port, client.scheme.backend
                    ) as rc:
                        results[name] = rc.execute_join(_query(client))
                except Exception as error:  # noqa: BLE001 - collected
                    errors.append((name, error))

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert len(results) == 3
            for result in results.values():
                assert result.tuples == reference.tuples
                assert result.payloads == reference.payloads
        finally:
            process.send_signal(signal.SIGTERM)
            returncode = _finish(process)
        assert returncode == 0
        # The listener is gone...
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)
        # ...and no orphaned python processes survived the server.
        leftover = _python_pids() - baseline_pids
        assert process.pid not in leftover
        assert not leftover, f"orphaned processes: {leftover}"

    def test_first_batch_is_the_match_of_each_sides_first_row(
        self, tmp_path
    ):
        """Through the socket, the first batch is the one tuple of the
        two rows 0 (keys ``i % 7`` match there): it left after one
        SJ.Dec row per side, before the last of either side's six
        chunks (1, 2, 4, 8, 16 and 9 rows).  The whole answer is the
        plaintext join's, streamed or materialized."""
        client, paths = _dataset(tmp_path)
        process, host, port = _launch(tmp_path, client, paths)
        try:
            with RemoteJoinClient(host, port, client.scheme.backend) as rc:
                stream = rc.stream_join(_query(client))
                batches = []
                while True:
                    try:
                        batches.append(next(stream))
                    except StopIteration as stop:
                        result = stop.value
                        break
        finally:
            process.send_signal(signal.SIGTERM)
            returncode = _finish(process)
        assert returncode == 0
        assert batches[0].tuples == [(0, 0)]
        reference = hash_join(*_plain(40), "k", "k")
        assert result.tuples == reference.index_pairs
        assert sorted(
            pair for batch in batches for pair in batch.tuples
        ) == reference.index_pairs
        decrypted = client.decrypt_chain_result(result)
        assert decrypted.table.rows() == reference.table.rows()

    def test_sigterm_mid_stream_drains_gracefully(self, tmp_path):
        # Nine chunks a side on the default engine (1, 2, 4, … 64 rows,
        # then 9): several batches.
        client, paths = _dataset(tmp_path, n_rows=200)
        reference = _reference(client, paths)
        process, host, port = _launch(
            tmp_path, client, paths, "--drain-timeout", "60",
        )
        rc = RemoteJoinClient(host, port, client.scheme.backend)
        try:
            stream = rc.stream_join(_query(client))
            batches = [next(stream)]  # the stream is live
            # SIGTERM lands while the stream is in flight: drain must
            # let it run to completion, not cut it.
            process.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            while True:
                try:
                    batches.append(next(stream))
                except StopIteration as stop:
                    result = stop.value
                    break
            assert result.tuples == reference.tuples
            assert result.payloads == reference.payloads
            assert sum(len(b.tuples) for b in batches) == len(
                reference.tuples
            )
        finally:
            rc.close()
            returncode = _finish(process)
        assert returncode == 0

    @pytest.mark.bn254
    def test_worker_pool_shuts_down_with_the_server(
        self, tmp_path, bn254_backend
    ):
        # On BN254 the pool pays, so the server's two workers really
        # fork for a side of two rows or more.
        client, tables, query = bn254_small_join(bn254_backend)
        paths = []
        for table in tables:
            path = tmp_path / f"{table.name}.rprot"
            save_encrypted_table(table, path, bn254_backend)
            paths.append(path)
        baseline_pids = _python_pids()
        process, host, port = _launch(
            tmp_path, client, paths, "--workers", "2",
        )
        try:
            with RemoteJoinClient(host, port, bn254_backend) as rc:
                result = rc.execute_join(query)
                assert result.tuples
                assert result.stats.engine_selected == "parallel"
        finally:
            process.send_signal(signal.SIGTERM)
            returncode = _finish(process, timeout=60)
        assert returncode == 0
        # Pool workers (separate python processes) went down with it.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leftover = _python_pids() - baseline_pids
            if not leftover:
                break
            time.sleep(0.1)
        assert not leftover, f"orphaned pool workers: {leftover}"

    @staticmethod
    def _run_cli(*options):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.net", *options],
            env=env,
            cwd=_REPO_ROOT,
            capture_output=True,
            timeout=60,
        )

    def test_bad_params_fail_fast(self, tmp_path):
        process = self._run_cli("--params", "not json")
        assert process.returncode == 2
        assert b"bad --params" in process.stderr

    @pytest.mark.parametrize(
        "options, complaint",
        [
            # The server has one engine: no name selects another, and
            # the ablation baseline is not a runtime engine either.
            (
                ("--engine", "parallel"),
                b"error: unrecognized arguments: --engine parallel",
            ),
            (
                ("--engine", "serial"),
                b"error: unrecognized arguments: --engine serial",
            ),
            (
                ("--workers", "0"),
                b"bad --workers: worker count must be at least 1",
            ),
            # The backend decides pool or inline: there is no model to
            # load, at any width.
            (
                ("--workers", "1", "--cost-model", "model.json"),
                b"error: unrecognized arguments: --cost-model model.json",
            ),
            (
                ("--workers", "2", "--cost-model", "missing.json"),
                b"error: unrecognized arguments: --cost-model missing.json",
            ),
        ],
        ids=[
            "engine", "serial",
            "workers", "cost-model-at-width-1", "cost-model-unreadable",
        ],
    )
    def test_bad_engine_options_fail_fast(self, options, complaint):
        """The execution option — the pool's width — is refused before
        anything listens: one ``bad --...`` line and exit code 2, no
        traceback, no service that fails every query.  An engine name or
        a cost model is no option at all: argparse refuses it after its
        usage text."""
        process = self._run_cli("--params", _PARAMS_JSON, *options)
        assert process.returncode == 2
        assert b"Traceback" not in process.stderr
        lines = process.stderr.splitlines()
        if complaint.startswith(b"bad --"):
            (line,) = lines
            assert line.startswith(complaint)
        else:
            assert lines[-1].endswith(complaint)

    @pytest.mark.parametrize(
        "option, value",
        [("--algorithm", "sort"), ("--hint-engines", "batched")],
        ids=["algorithm", "hint-engines"],
    )
    def test_retired_options_are_gone(self, option, value):
        """Neither the matcher nor a client's say in the engine is a
        deployment choice (and ``sort``, which the old help text
        offered, never existed)."""
        process = self._run_cli("--params", _PARAMS_JSON, option, value)
        assert process.returncode == 2
        assert (
            f"unrecognized arguments: {option}".encode() in process.stderr
        )
        assert b"Traceback" not in process.stderr
