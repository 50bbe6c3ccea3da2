"""The six workloads and the calls they make into the program.

One client in a closed loop: the next operation starts when the last
one's rows are decrypted and checked.  A cold query always gets fresh
tokens (``create_query``) — re-using an encrypted query measures the
series cache's replay instead, which is its own operation here.  Each
workload's ``WHY`` says which layers it loads and which it leaves idle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.bench.costmodel import default_engine_cost_model
from repro.bench.workloads import tpch_query
from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.crypto import pairing_fast
from repro.crypto.backend import BN254Backend
from repro.crypto.curve import G1Point, G2Point
from repro.crypto.field import Fp2
from repro.crypto.hashing import derive_key
from repro.crypto.symmetric import SymmetricCipher
from repro.db.join import hash_join
from repro.db.matcher import get_matcher
from repro.db.query import ChainQuery, JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.net import RemoteJoinClient
from repro.plan import ChainExecutor, compile_plan
from repro.shard import LocalShard, ShardCoordinator, partition_table, shard_skew
from repro.store import wire
from repro.store.tables import load_encrypted_table, save_encrypted_table
from repro.tpch import SELECTIVITY_LABELS, SELECTIVITY_VALUES, TPCHGenerator
from repro.tpch.tables import MKT_SEGMENTS, ORDER_PRIORITIES

from perfbench.oracle import Mirror
from perfbench.tracing import START, seconds_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the on-disk store; inside the checkout, git-ignored.
WORK = Path(__file__).resolve().parent / ".work"


@dataclasses.dataclass
class Op:
    """One completed and verified query."""

    query: object  # the encrypted query, kept for re-submission
    seconds: float  # create_query (cold only) -> last batch decrypted
    first: float  # submit -> first decrypted batch (or the empty answer)
    stats: object  # the program's own ServerStats for this execution
    layers: dict  # per-layer readings; traced operations only


def clock(function, *args, repeat: int = 5):
    """Median seconds of ``function(*args)`` and its last result."""
    seconds = []
    for _ in range(repeat):
        started = time.perf_counter()
        result = function(*args)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


class Workload:
    """Set-up, one schedule step, one re-submit step, tear-down."""

    name = ""
    WHY = ""
    #: Replay each step's queries once after it; false when re-submits
    #: are part of the schedule itself.
    probe = True
    warm_up_steps = 2
    #: Steps after which peak memory is read: a count every run's first
    #: window reaches, because memory here grows with the queries served
    #: and a window that ends by the clock serves more on a faster minute.
    rss_after = 1
    #: Span name of the call that executes a query on ``executor``.
    execute_span = "server.execute"

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.rng = random.Random(f"{self.name}.schedule.{seed}")
        self.client: SecureJoinClient | None = None
        self.mirror: Mirror | None = None
        #: What queries are submitted to.
        self.executor = None
        #: A single in-process store of the same tables, for staging a
        #: query's engine and matcher work alone (traced runs).
        self.local: SecureJoinServer | None = None
        #: The last step's (plain, encrypted) queries and sample group.
        self.last: list[tuple[object, object]] = []
        self.last_group = None
        self.resubmits = 0
        self.schedule: list[str] = []

    # -- set-up and tear-down ---------------------------------------------
    def build(self, run) -> None:
        raise NotImplementedError

    def close(self) -> None:
        for closable in (self.executor, self.local):
            if closable is not None:
                closable.close()
        self.executor = self.local = None

    def child_pids(self) -> list[int]:
        return []

    def load_tpch(self, run, scale: float, prefilter: bool, queries):
        """Generate and encrypt Customers and Orders for this seed.

        One matching pair per query in ``queries`` is moved to the front
        of both tables.  Where the first match sits in the input is luck
        that moves with the seed; with a match at the front of each
        side, time-to-first-match measures the pipeline's latency to
        surface it and not the luck.
        """
        with run.span("tpch.generate") as span:
            customers, orders = TPCHGenerator(scale, seed=self.seed).both()
            front: tuple[list[int], list[int]] = ([], [])
            for query in queries:
                pairs = hash_join(
                    customers, orders, "custkey", "custkey",
                    query.left_selection.to_predicate(),
                    query.right_selection.to_predicate(),
                ).index_pairs
                if pairs:
                    front[0].append(pairs[0][0])
                    front[1].append(pairs[0][1])
            customers = _moved_to_front(customers, front[0])
            orders = _moved_to_front(orders, front[1])
        run.layer("tpch.generate_s", seconds_of(span))
        self.mirror = Mirror([customers, orders])
        self.client = SecureJoinClient.for_tables(
            [(customers, "custkey"), (orders, "custkey")],
            in_clause_limit=1,
            rng=random.Random(self.seed),
            enable_prefilter=prefilter,
            prefilter_columns=("selectivity",),
        )
        self.queries = list(queries)
        return self.encrypt(run, [(customers, "custkey"), (orders, "custkey")])

    def encrypt(self, run, tables):
        with run.span("client.encrypt") as span:
            encrypted = [
                self.client.encrypt_table(table, column)
                for table, column in tables
            ]
        rows = sum(len(table) for table, _ in tables)
        run.layer("client.encrypt_us_per_row", seconds_of(span) * 1e6 / rows)
        if run.trace:
            sample = json.dumps(list(tables[-1][0][0])).encode("utf-8")
            cipher = SymmetricCipher(derive_key(b"perfbench", "payload"))
            blob = cipher.encrypt(sample)
            seconds, _ = clock(cipher.decrypt, blob, repeat=200)
            run.layer("crypto.sym_decrypt_us", seconds * 1e6)
        return encrypted

    # -- the schedule ------------------------------------------------------
    def warm_up(self, run) -> None:
        """Untimed steps, so caches fill and lazy set-up finishes."""
        for _ in range(self.warm_up_steps):
            run.next_step()
            self.step(run)

    def step(self, run) -> None:
        raise NotImplementedError

    def replay_last(self, run) -> None:
        """Re-submit the last step's queries; the server should replay."""
        ops = [
            self.submit(run, plain, resubmit=query)
            for plain, query in self.last
        ]
        if ops and None not in ops:
            run.record("resubmit", ops, self.last_group)
        self.last = []

    def cold_then_replays(self, run, plain, replays: int):
        """A fresh query, then the same encrypted query ``replays`` times."""
        op = self.submit(run, plain)
        if op is not None:
            run.record("cold", [op])
            for _ in range(replays):
                again = self.submit(run, plain, resubmit=op.query)
                if again is not None:
                    run.record("resubmit", [again])

    # -- one query, end to end ---------------------------------------------
    def submit(self, run, plain, resubmit=None, executor=None, stage=True):
        """Tokens -> streamed execution -> every batch decrypted -> checked.

        Returns ``None`` (and counts a failure) when the program raises
        or the decrypted rows differ from the plaintext reference.  In a
        traced step a cold query is then staged layer by layer unless
        ``stage`` is false.
        """
        tracer = run.tracer
        client = self.client
        executor = executor or self.executor
        if isinstance(plain, ChainQuery):
            create, stream_of = client.create_chain_query, executor.stream_chain
            tables = plain.tables

            def decrypt(batch):
                return client.decrypt_chain_batch(tables, batch)
        else:
            create, stream_of = client.create_query, executor.stream_join
            left, right = plain.left_table, plain.right_table

            def decrypt(batch):
                return client.decrypt_match_batch(left, right, batch)

        execute_span = self.execute_span
        rows: list[tuple] = []
        first = first_batch = None
        run.attempted += 1
        if resubmit is not None:
            self.resubmits += 1
        tracer.begin()
        try:
            with tracer.span("op.query" if resubmit is None else "op.resubmit"):
                started = time.perf_counter()
                if resubmit is None:
                    with tracer.span("client.token"):
                        query = create(plain)
                else:
                    query = resubmit
                submitted = time.perf_counter()
                stream = stream_of(query)
                while True:
                    with tracer.span(execute_span):
                        try:
                            batch = next(stream)
                        except StopIteration as stop:
                            result = stop.value
                            break
                    if first_batch is None:
                        first_batch = time.perf_counter()
                    with tracer.span("client.decrypt"):
                        rows.extend(decrypt(batch))
                    if first is None:
                        first = time.perf_counter()
                ended = time.perf_counter()
        except Exception:  # noqa: BLE001 - a failed operation is a result
            run.fail()
            return None
        if not self.mirror.check(plain, rows):
            run.fail(f"{self.name}: decrypted rows differ from the reference")
            return None
        layers: dict = {}
        if tracer.enabled:
            real = tracer.totals(tracer.op)
            layers["client.decrypt_s"] = real["client.decrypt"]
            if rows:
                layers["client.decrypt_us_per_match"] = (
                    real["client.decrypt"] * 1e6 / len(rows)
                )
            if execute_span == "net.roundtrip":
                layers["net.first_frame_ms"] = (
                    (first_batch or ended) - submitted
                ) * 1e3
            if resubmit is not None:
                layers["series.reused_handles"] = result.stats.reused_handles
            else:
                layers["client.token_ms"] = real["client.token"] * 1e3
                if stage and isinstance(plain, ChainQuery):
                    self.stage_chain(run, query, result, real, layers)
                elif stage:
                    self.stage_join(run, query, result, real, layers)
        return Op(
            query=query,
            seconds=ended - started,
            first=(first or ended) - submitted,
            stats=result.stats,
            layers=layers,
        )

    # -- the same query again, one stage at a time (traced runs) -----------
    def stage_join(self, run, query, result, real, layers) -> None:
        """Engine alone, matcher alone, and the server around them.

        Spans named ``stage.*`` sit beside the operation, not inside
        it: they re-do parts of its work on recorded inputs, so their
        time is not part of the operation's wall-clock.
        """
        tracer = run.tracer
        local = self.local
        staged = result
        batches: list = []
        if local is self.executor:
            execute = real[self.execute_span]
        else:
            # Another store holds the same tables: the cold single-store
            # execution of this very query is what the deployment's own
            # cost (scatter, socket) is measured against.
            with tracer.span("stage.execute") as span:
                stream = local.stream_join(query)
                while True:
                    try:
                        batches.append(next(stream))
                    except StopIteration as stop:
                        staged = stop.value
                        break
            execute = seconds_of(span)
        sides, engine = self.stage_engine(
            run,
            local,
            (
                (query.left_table, query.left_token, query.left_prefilter),
                (query.right_table, query.right_token, query.right_prefilter),
            ),
            layers,
        )
        with tracer.span("stage.matcher") as span:
            matcher = get_matcher("hash")
            matcher.add_left(sides[0])
            matcher.add_right(sides[1])
            matcher.finish()
        match = seconds_of(span)
        handles = len(sides[0]) + len(sides[1])
        layers.update({
            "matcher.match_s": match,
            "matcher.us_per_handle": match * 1e6 / handles if handles else 0.0,
            "matcher.probes": matcher.stats.probes,
            "matcher.comparisons": matcher.stats.comparisons,
            "matcher.matches": matcher.stats.matches,
            "server.execute_s": execute,
            "server.self_s": execute - engine - match,
        })
        self.stats_layers(staged.stats, layers)
        self.stage_deployment(
            run, query, real, execute, batches, staged, layers
        )

    @staticmethod
    def stage_engine(run, local, sides, layers):
        """Drain ``open_side_stream`` for each side; nothing else runs.

        Returns each side's ``(row, handle)`` items and the seconds.
        """
        items: list[list] = []
        chunks = 0
        first_chunk = 0.0
        with run.tracer.span("stage.engine") as span:
            for table, token, prefilter in sides:
                rows, stream = local.open_side_stream(table, token, prefilter)
                side: list = []
                for chunk in stream:
                    if not chunks:
                        first_chunk = time.perf_counter() - span[START]
                    chunks += 1
                    end = chunk.start + len(chunk.handles)
                    side.extend(zip(rows[chunk.start:end], chunk.handles))
                items.append(side)
        engine = seconds_of(span)
        handles = sum(len(side) for side in items)
        layers.update({
            "engine.decrypt_s": engine,
            "engine.rows": handles,
            "engine.us_per_row": engine * 1e6 / handles if handles else 0.0,
            "engine.chunks": chunks,
            "engine.first_chunk_ms": first_chunk * 1e3,
        })
        return items, engine

    @staticmethod
    def stats_layers(stats, layers) -> None:
        """The program's own accounting, as a cross-check and for counts."""
        layers.update({
            "server.candidates": stats.candidates_left + stats.candidates_right,
            "server.stats_decrypt_s": stats.decrypt_seconds,
            "server.stats_match_s": stats.match_seconds,
            "server.stats_first_match_ms": stats.time_to_first_match * 1e3,
            "crypto.miller_loops": stats.miller_loops,
            "crypto.prepared_miller_loops": stats.prepared_miller_loops,
            "crypto.final_exps": stats.final_exponentiations,
        })

    def stage_deployment(
        self, run, query, real, execute, batches, final, layers
    ) -> None:
        """What the deployment adds on top of a single in-process store."""

    def stage_chain(self, run, query, result, real, layers) -> None:
        tracer = run.tracer
        local = self.local
        stats = result.stats
        execute = real[self.execute_span]
        sizes = [len(local.table(name)) for name in query.tables]
        model = default_engine_cost_model(local.scheme.backend.name)
        seconds, plan = clock(compile_plan, model, sizes)
        sides, engine = self.stage_engine(
            run,
            local,
            zip(query.tables, query.tokens, query.prefilters),
            layers,
        )
        with tracer.span("stage.executor") as span:
            executor = ChainExecutor(plan.order)
            for position in plan.order:
                executor.feed(position, sides[position])
            executor.finish()
        layers.update({
            "plan.compile_ms": seconds * 1e3,
            "plan.order": int("".join(str(p) for p in plan.order)),
            "plan.nodes": stats.plan_nodes,
            "plan.handle_pool_hits": stats.handle_pool_hits,
            "plan.executor_s": seconds_of(span),
            "matcher.probes": executor.probes,
            "matcher.comparisons": executor.comparisons,
            "matcher.matches": executor.matches,
            "server.execute_s": execute,
            "server.self_s": execute - engine - seconds_of(span),
        })
        self.stats_layers(stats, layers)

    # -- counters the program keeps, read once at the end -------------------
    def gauges(self, run) -> None:
        cache = getattr(self.executor, "series_cache", None)
        if cache is not None:
            useful = cache.stats.replays + cache.stats.delta_refreshes
            run.layer("series.replays", cache.stats.replays)
            run.layer("series.delta_refreshes", cache.stats.delta_refreshes)
            run.layer("series.evictions", cache.stats.evictions)
            run.layer("series.entries", len(cache))
            run.layer("series.bytes", cache.total_bytes)
            if self.resubmits:
                run.layer("series.hit_ratio", useful / self.resubmits)
        store = getattr(self.executor, "handle_store", None)
        if store is not None:
            run.layer("plan.handle_store_hits", store.stats.hits)
            run.layer("plan.handle_store_bytes", store.total_bytes)


def _moved_to_front(table: Table, indices: list[int]) -> Table:
    first = list(dict.fromkeys(indices))
    chosen = set(first)
    rows = [table[i] for i in first]
    rows += [row for i, row in enumerate(table) if i not in chosen]
    return Table(table.name, table.schema, rows)


class SelectInproc(Workload):
    name = "select_inproc"
    WHY = (
        "paper regime: TPC-H at t=1, prefilter at the four selectivities, "
        "in-process; few decryptions and matches, so core.server's fixed "
        "per-query cost leads and the series cache only admits"
    )
    warm_up_steps = 4
    rss_after = 25

    def build(self, run) -> None:
        scale = 0.0004 if self.toy else 0.01
        encrypted = self.load_tpch(
            run, scale, True, [tpch_query(v) for v in SELECTIVITY_VALUES]
        )
        self.executor = self.local = SecureJoinServer(self.client.params)
        for table in encrypted:
            self.executor.store(table)

    def step(self, run) -> None:
        """One round of the paper's four selectivities; one sample."""
        self.schedule.append("round")
        ops = [self.submit(run, plain) for plain in self.queries]
        if None not in ops:
            self.last = [(p, op.query) for p, op in zip(self.queries, ops)]
            run.record("cold", ops)


class ScanSharded(Workload):
    name = "scan_sharded"
    WHY = (
        "selection in the token polynomial, not the prefilter: every row "
        "of two LocalShards goes through SJ.Dec and few match, so "
        "core.engine and the shard scatter lead; wire and client idle"
    )
    execute_span = "shard.scatter"
    rss_after = 8
    SHARDS = 2

    def build(self, run) -> None:
        scale = 0.0004 if self.toy else 0.005
        # Every (market segment, order priority) pair in turn: each
        # selects 1/25 of the pairs, and a cycle covers every order
        # once, so a run's typical query does not depend on which
        # segment this seed happened to favour.
        queries = [
            JoinQuery.build(
                "Customers", "Orders", on=("custkey", "custkey"),
                where_left={"mktsegment": [segment]},
                where_right={"orderpriority": [priority]},
            )
            for segment in MKT_SEGMENTS
            for priority in ORDER_PRIORITIES
        ]
        # No prefilter tags: the partitioner then hashes ciphertext
        # bytes, which spreads rows evenly (tags would co-locate the 85 %
        # of rows that share the filler label on one shard).
        encrypted = self.load_tpch(run, scale, False, queries)
        backend = self.client.scheme.backend
        with run.span("shard.partition") as span:
            pieces = [
                partition_table(table, backend, self.SHARDS)
                for table in encrypted
            ]
        run.layer("shard.partition_s", seconds_of(span))
        shards = [
            LocalShard(self.client.params, name=f"shard-{index}")
            for index in range(self.SHARDS)
        ]
        # Owned from here on, so a failed store still closes the shards.
        self.executor = ShardCoordinator(shards)
        for table_pieces in pieces:
            for shard, piece in zip(shards, table_pieces):
                shard.store(piece)
        loads = [sum(len(p[i]) for p in pieces) for i in range(self.SHARDS)]
        run.layer("shard.skew", shard_skew(loads))
        run.layer("shard.rows_per_shard_max", max(loads))
        if run.trace:
            self.local = SecureJoinServer(self.client.params)
            for table in encrypted:
                self.local.store(table)
        self.turn = 0

    def step(self, run) -> None:
        choice = self.turn % len(self.queries)
        self.turn += 1
        self.schedule.append(f"scan:{choice}")
        plain = self.queries[choice]
        op = self.submit(run, plain)
        if op is not None:
            self.last, self.last_group = [(plain, op.query)], choice
            run.record("cold", [op], group=choice)

    def stage_deployment(
        self, run, query, real, execute, batches, final, layers
    ) -> None:
        layers["shard.scatter_s"] = real["shard.scatter"]
        layers["shard.self_s"] = real["shard.scatter"] - execute


class WideRemote(Workload):
    name = "wide_remote"
    WHY = (
        "unfiltered join served by a child `python -m repro.net` from "
        ".rprot files: thousands of matches, so db.matcher, store.wire, "
        "the socket and client payload decryption lead; SJ.Dec is small"
    )
    execute_span = "net.roundtrip"
    warm_up_steps = 1
    rss_after = 2

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.child: subprocess.Popen | None = None
        self.workdir: Path | None = None

    def build(self, run) -> None:
        scale = 0.0004 if self.toy else 0.004
        self.query = JoinQuery.build(
            "Customers", "Orders", on=("custkey", "custkey")
        )
        encrypted = self.load_tpch(run, scale, True, [self.query])
        backend = self.client.scheme.backend
        self.workdir = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
        self.workdir.mkdir(parents=True)
        paths = [self.workdir / f"{table.name}.rprot" for table in encrypted]
        with run.span("store.save") as span:
            for table, path in zip(encrypted, paths):
                save_encrypted_table(table, path, backend)
        stored = sum(path.stat().st_size for path in paths)
        rows = sum(len(table) for table in encrypted)
        user = sum(
            len(json.dumps(list(row)).encode("utf-8"))
            for table in self.mirror.tables.values()
            for row in table
        )
        run.layer("store.save_s", seconds_of(span))
        run.layer("store.bytes_per_row", stored / rows)
        run.layer("store.bytes_per_user_byte", stored / user)
        host, port = self.spawn(paths)
        with run.span("net.connect") as span:
            self.executor = RemoteJoinClient(host, port, backend)
        run.layer("net.connect_ms", seconds_of(span) * 1e3)
        if run.trace:
            self.local = SecureJoinServer(self.client.params)
            with run.span("store.load") as span:
                loaded = [load_encrypted_table(p, backend) for p in paths]
            run.layer("store.load_s", seconds_of(span))
            for table in loaded:
                self.local.store(table)

    def child_pids(self) -> list[int]:
        return [self.child.pid]

    def spawn(self, paths) -> tuple[str, int]:
        """Start the join service with its defaults; wait for its port."""
        port_file = self.workdir / "port"
        command = [
            sys.executable, "-m", "repro.net",
            "--params", json.dumps(dataclasses.asdict(self.client.params)),
            "--port-file", str(port_file),
        ]
        for path in paths:
            command += ["--table", str(path)]
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        self.child = subprocess.Popen(
            command,
            env=environment,
            cwd=self.workdir,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.child.poll() is not None:
                raise RuntimeError(
                    f"repro.net exited with {self.child.returncode} "
                    "before it listened"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("repro.net did not listen within 60 s")
            time.sleep(0.005)
        host, port = port_file.read_text().strip().rsplit(":", 1)
        return host, int(port)

    def close(self) -> None:
        try:
            super().close()
        finally:
            child, self.child = self.child, None
            if child is not None:
                child.terminate()
                try:
                    # It drains in milliseconds; one SIGTERM in a few
                    # dozen hangs in its shutdown, so do not wait long.
                    child.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)
                self.workdir = None
                try:
                    WORK.rmdir()  # leave nothing behind once it is empty
                except OSError:
                    pass

    def step(self, run) -> None:
        self.schedule.append("wide")
        op = self.submit(run, self.query)
        if op is not None:
            self.last = [(self.query, op.query)]
            run.record("cold", [op])

    def stage_deployment(
        self, run, query, real, execute, batches, final, layers
    ) -> None:
        """The codec alone, on the frames this query's answer makes."""
        backend = self.client.scheme.backend
        encode_s, request = clock(wire.encode_join_query, query, backend)
        decode_s, _ = clock(wire.decode_join_query, request, backend)
        with run.tracer.span("stage.wire.encode") as span:
            frames = [wire.encode_stream_header(
                query.query_id, query.left_table, query.right_table
            )]
            frames += [wire.encode_match_batch(batch) for batch in batches]
            frames.append(wire.encode_final_frame(final))
        encode_frames = seconds_of(span)
        with run.tracer.span("stage.wire.decode") as span:
            for frame in frames:
                wire.decode_frame(frame)
        decode_frames = seconds_of(span)
        result_bytes = sum(len(frame) for frame in frames)
        staged = execute + encode_s + decode_s + encode_frames + decode_frames
        layers.update({
            "wire.query_bytes": len(request),
            "wire.query_encode_us": encode_s * 1e6,
            "wire.query_decode_us": decode_s * 1e6,
            "wire.result_bytes": result_bytes,
            "wire.result_encode_ms": encode_frames * 1e3,
            "wire.result_decode_ms": decode_frames * 1e3,
            "wire.frames": len(frames),
            "wire.bytes_per_query": len(request) + result_bytes,
            "net.roundtrip_s": real["net.roundtrip"],
            # Negative when the two processes overlap more work than
            # the socket costs: the child encodes while this process
            # decrypts the previous batch.
            "net.socket_self_s": real["net.roundtrip"] - staged,
        })


class Chain3Inproc(Workload):
    name = "chain3_inproc"
    WHY = (
        "three-way chain over a dominant middle table at t=10: the only "
        "user of repro.plan (order choice, ChainExecutor, handle pool); "
        "each fresh chain is re-submitted 3 times, the cache's chain path"
    )
    probe = False
    warm_up_steps = 1
    rss_after = 10
    RESUBMITS = 3

    def build(self, run) -> None:
        outer, middle = (20, 200) if self.toy else (500, 10000)
        # Which rows join moves with the seed; how many does not.  Every
        # key sits twice in the middle table, the outer tables hold
        # distinct keys of which exactly 15 % are common to both, and
        # one common key leads all three tables, so the result has
        # 0.3 * outer tuples and its first one is due at once (see
        # load_tpch on why).
        data = random.Random(f"chain3.data.{self.seed}")
        domain = middle // 2
        both = outer * 15 // 100
        drawn = data.sample(range(domain), 2 * outer - both)
        shared, only_1, only_3 = drawn[:both], drawn[both:outer], drawn[outer:]
        keys = [shared + only_1, list(range(domain)) * 2, shared + only_3]
        for column in keys:
            data.shuffle(column)
            column.remove(shared[0])
            column.insert(0, shared[0])
        tables = [
            Table(
                f"T{index + 1}",
                Schema.of(("k", "int"), ("v", "str")),
                [(k, f"T{index + 1}.{row}") for row, k in enumerate(column)],
            )
            for index, column in enumerate(keys)
        ]
        self.mirror = Mirror(tables)
        self.client = SecureJoinClient.for_tables(
            [(table, "k") for table in tables],
            in_clause_limit=10,
            rng=random.Random(self.seed),
        )
        encrypted = self.encrypt(run, [(table, "k") for table in tables])
        self.executor = self.local = SecureJoinServer(self.client.params)
        for table in encrypted:
            self.executor.store(table)
        self.query = ChainQuery.build([(t.name, "k") for t in tables])

    def step(self, run) -> None:
        self.schedule.append("chain")
        self.cold_then_replays(run, self.query, self.RESUBMITS)


class SeriesMix(Workload):
    name = "series_mix"
    WHY = (
        "Zipf-drawn pool of encrypted queries, three times the series-cache "
        "budget, re-submitted between insert bursts, deletes and fresh "
        "queries: hits, delta repair, eviction, writes beside reads"
    )
    probe = False
    rss_after = 150
    TOKEN_SETS = 8
    BURST = 3
    #: Cache budget as a share of what the whole pool would retain.
    BUDGET_SHARE = 1 / 3
    #: Steps per 200: re-submits (Zipf over the pool), fresh queries
    #: (five per selectivity), insert bursts, deletes.  Every stretch of
    #: 200 steps holds exactly these, in an order the seed shuffles, so
    #: the mix is the workload's and only its order the draw's.
    PLAN = {"resubmit": 160, "fresh": 20, "insert": 12, "delete": 8}

    def build(self, run) -> None:
        scale = 0.0004 if self.toy else 0.01
        encrypted = self.load_tpch(
            run, scale, True, [tpch_query(v) for v in SELECTIVITY_VALUES]
        )
        token_sets = 2 if self.toy else self.TOKEN_SETS
        # Popularity rank r asks selectivity r mod 4, whatever the seed,
        # so the mix of cheap and dear replays is the workload's and not
        # the draw's.
        self.pool = [
            (plain, self.client.create_query(plain))
            for _ in range(token_sets)
            for plain in self.queries
        ]
        self.plan: list[tuple[str, int]] = []
        # Size the cache against the pool: a throwaway server with the
        # default budget runs the pool once and reports what it retains.
        with SecureJoinServer(self.client.params) as sizing:
            for table in encrypted:
                sizing.store(table)
            for _, query in self.pool:
                sizing.execute_join(query)
            footprint = sizing.series_cache.total_bytes
        budget = max(1, int(footprint * self.BUDGET_SHARE))
        run.layer("series.budget_share", budget / footprint)
        self.executor = self.local = SecureJoinServer(
            self.client.params, series_cache_bytes=budget
        )
        for table in encrypted:
            self.executor.store(table)
        self.customers = len(self.mirror.tables["Customers"])
        self.next_orderkey = 10_000_000

    def warm_up(self, run) -> None:
        """The pool's first pass, so the timed mix starts with the
        cache already turning over."""
        for plain, query in self.pool:
            run.next_step()
            self.submit(run, plain, resubmit=query)
        self.resubmits = 0  # first submissions, not re-submits

    def refill(self) -> None:
        """The next 200 steps: exact proportions, shuffled by the seed."""
        ranks = range(len(self.pool))
        weights = [(rank + 1) ** -1.1 for rank in ranks]
        quota = [w * self.PLAN["resubmit"] / sum(weights) for w in weights]
        counts = [int(q) for q in quota]
        by_remainder = sorted(ranks, key=lambda r: counts[r] - quota[r])
        for rank in by_remainder[:self.PLAN["resubmit"] - sum(counts)]:
            counts[rank] += 1
        self.plan = [("resubmit", r) for r in ranks for _ in range(counts[r])]
        groups = range(len(self.queries))
        self.plan += [("fresh", g) for g in groups] * (
            self.PLAN["fresh"] // len(groups)
        )
        self.plan += [("insert", 0)] * self.PLAN["insert"]
        self.plan += [("delete", 0)] * self.PLAN["delete"]
        self.rng.shuffle(self.plan)

    def step(self, run) -> None:
        if not self.plan:
            self.refill()
        kind, choice = self.plan.pop()
        self.schedule.append(f"{kind}:{choice}")
        if kind == "resubmit":
            plain, query = self.pool[choice]
            op = self.submit(run, plain, resubmit=query)
            if op is None:
                return
            # Classed by what the server says it did, not by intent;
            # grouped by selectivity, whose costs differ tenfold.
            group = choice % len(self.queries)
            if not op.stats.series_cache_hits:
                run.record("cold", [op], group)
            elif op.stats.delta_rows:
                op.layers["series.delta_rows_per_refresh"] = op.stats.delta_rows
                run.record("refresh", [op], group)
            else:
                run.record("resubmit", [op], group)
        elif kind == "fresh":
            op = self.submit(run, self.queries[choice])
            if op is not None:
                run.record("cold", [op], choice)
        elif kind == "insert":
            for _ in range(self.BURST):
                self.insert(run)
        else:
            self.delete(run)

    def insert(self, run) -> None:
        self.next_orderkey += 1
        row = (
            self.next_orderkey, self.rng.randrange(1, self.customers + 1),
            "O", 1234.5, "1995-01-02", "1-URGENT", "Clerk#000000001", 0,
            "trickle insert", self.rng.choice(SELECTIVITY_LABELS),
        )
        run.attempted += 1
        run.tracer.begin()
        try:
            with run.tracer.span("op.write"):
                started = time.perf_counter()
                with run.tracer.span("client.encrypt_row"):
                    encrypted = self.client.encrypt_row_for("Orders", row)
                with run.tracer.span("server.insert"):
                    index = self.executor.insert_row("Orders", *encrypted)
                seconds = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - a failed operation is a result
            run.fail()
            return
        if index != self.mirror.insert("Orders", row):
            run.fail("series_mix: insert landed at an unexpected row index")
            return
        run.sample("write", seconds)

    def delete(self, run) -> None:
        index = self.rng.choice(self.mirror.live("Orders"))
        run.attempted += 1
        run.tracer.begin()
        try:
            with run.tracer.span("op.delete"):
                started = time.perf_counter()
                self.executor.delete_rows("Orders", [index])
                seconds = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - a failed operation is a result
            run.fail()
            return
        self.mirror.delete("Orders", index)
        run.sample("delete", seconds)


class Bn254Small(Workload):
    name = "bn254_small"
    probe = False
    rss_after = 2
    #: Replays after each raw query: a replay is ~0.1 ms here, so one
    #: per step would leave the median to a handful of samples.
    RESUBMITS = 20
    WHY = (
        "real BN254 pairings on a handful of rows, raw and prepared store "
        "side by side: crypto.field/curve/pairing_fast is nearly all of the "
        "time here and none of it on the five fast-backend workloads"
    )
    warm_up_steps = 0

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.prepared: SecureJoinServer | None = None

    def build(self, run) -> None:
        left_rows, right_rows = (1, 2) if self.toy else (2, 4)
        schema = Schema.of(("k", "int"), ("v", "str"))
        data = random.Random(f"bn254.data.{self.seed}")
        keys = [data.randrange(1000) for _ in range(left_rows)]
        left = Table("L", schema, [(k, f"l{i}") for i, k in enumerate(keys)])
        right = Table(
            "R", schema,
            [(keys[i % left_rows], f"r{i}") for i in range(right_rows)],
        )
        self.mirror = Mirror([left, right])
        self.client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")],
            in_clause_limit=1,
            backend=BN254Backend(),
            rng=random.Random(self.seed),
        )
        encrypted = self.encrypt(run, [(left, "k"), (right, "k")])
        backend = BN254Backend()
        self.executor = self.local = SecureJoinServer(
            self.client.params, backend=backend
        )
        self.prepared = SecureJoinServer(self.client.params, backend=backend)
        for table in encrypted:
            self.executor.store(table)
            # prepare_table extends the stored table in place, so the
            # prepared store needs a copy of its own.
            self.prepared.store(dataclasses.replace(table))
            self.prepared.prepare_table(table.name)
        if run.trace:
            self.micro(run, encrypted[0].ciphertexts[0].elements, backend)
        self.query = JoinQuery.build("L", "R", on=("k", "k"))

    @staticmethod
    def micro(run, row_elements, backend) -> None:
        """The arithmetic under SJ.Dec, one primitive at a time."""
        p = G1Point.generator() * 0x1234567
        q = G2Point.generator() * 0x7654321
        loop_s, f = clock(pairing_fast.miller_loop_fast, q, p, repeat=3)
        prepared_q = pairing_fast.G2Prepared.from_point(q)
        prepared_s, _ = clock(
            pairing_fast.miller_loop_prepared, prepared_q, p, repeat=3
        )
        final_s, _ = clock(pairing_fast.final_exponentiation_fast, f, repeat=3)
        fp12_s, _ = clock(f.__mul__, f, repeat=200)
        a, b = Fp2(p.x, p.y), Fp2(p.y, p.x)
        fp2_s, _ = clock(a.__mul__, b, repeat=2000)
        row_s, _ = clock(backend.prepare_row, row_elements, repeat=3)
        run.layer("crypto.miller_loop_ms", loop_s * 1e3)
        run.layer("crypto.miller_prepared_ms", prepared_s * 1e3)
        run.layer("crypto.final_exp_ms", final_s * 1e3)
        run.layer("crypto.fp12_mul_us", fp12_s * 1e6)
        run.layer("crypto.fp2_mul_us", fp2_s * 1e6)
        run.layer("crypto.prepare_row_ms", row_s * 1e3)

    def close(self) -> None:
        try:
            super().close()
        finally:
            if self.prepared is not None:
                self.prepared.close()
                self.prepared = None

    def step(self, run) -> None:
        """One cold query on the raw store, one on the prepared store."""
        self.schedule.append("raw+prepared")
        self.cold_then_replays(run, self.query, self.RESUBMITS)
        prepared = self.submit(
            run, self.query, executor=self.prepared, stage=False
        )
        if prepared is not None:
            # The raw query's layer readings are the ones this workload
            # reports; the prepared store adds only its latency.
            prepared.layers.clear()
            run.record("prepared", [prepared])


WORKLOADS = {
    cls.name: cls
    for cls in (
        SelectInproc, ScanSharded, WideRemote,
        Chain3Inproc, SeriesMix, Bn254Small,
    )
}
