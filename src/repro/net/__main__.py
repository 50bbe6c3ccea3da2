"""Standalone join service process: ``python -m repro.net``.

Builds a :class:`~repro.core.server.SecureJoinServer` from public
parameters, loads encrypted tables from disk, and serves the frame
stream until SIGTERM/SIGINT, then drains gracefully: stop accepting,
finish in-flight query streams, close the worker pool, exit 0.

Example::

    python -m repro.net \\
        --params '{"num_attributes": 2, "in_clause_limit": 4}' \\
        --table customers.rprot --table orders.rprot \\
        --port 0 --port-file /tmp/join-service.port

With ``--port 0`` the OS picks a free port; ``--port-file`` publishes
the actual ``host:port`` for clients (written atomically, so a watcher
never reads a partial line).  ``--workers N`` is how many pool
workers the server may fork; by default, as many as the CPUs the
process may run on (its affinity, so ``taskset -c 0`` means one: every
side inline).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.core.scheme import SecureJoinParams
from repro.core.server import SecureJoinServer
from repro.errors import QueryError
from repro.net.server import JoinServiceServer
from repro.store.tables import load_encrypted_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve encrypted secure joins over TCP.",
    )
    parser.add_argument(
        "--params",
        required=True,
        help="SecureJoinParams as JSON, e.g. "
        '\'{"num_attributes": 2, "in_clause_limit": 4}\'',
    )
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="PATH",
        help="encrypted table file to load and store (repeatable)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned (default)"
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound host:port here once listening",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes the server may fork (default: the CPUs "
        "this process may run on; 1 runs every side inline)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let in-flight streams finish on shutdown",
    )
    return parser


def _bad(option: str, problem) -> int:
    """Report one unusable option on stderr; returns the exit code."""
    print(f"bad {option}: {problem}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params_dict = json.loads(args.params)
    except ValueError as error:
        return _bad("--params JSON", error)
    if not isinstance(params_dict, dict):
        return _bad("--params JSON", "expected an object")
    try:
        params = SecureJoinParams(**params_dict)
    except TypeError as error:
        return _bad("--params fields", error)
    try:
        join_server = SecureJoinServer(params, workers=args.workers)
    except QueryError as error:
        return _bad("--workers", error)
    for path in args.table:
        join_server.store(
            load_encrypted_table(path, join_server.scheme.backend)
        )
    service = JoinServiceServer(
        join_server,
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
    )
    host, port = service.start()
    if args.port_file:
        temp_path = f"{args.port_file}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(f"{host}:{port}\n")
        os.replace(temp_path, args.port_file)
    print(f"repro.net serving on {host}:{port}", file=sys.stderr, flush=True)

    stop = threading.Event()

    def handle_signal(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    stop.wait()
    print("repro.net draining...", file=sys.stderr, flush=True)
    service.shutdown(drain=True)
    print(
        f"repro.net stopped after {service.queries_served} queries",
        file=sys.stderr,
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
