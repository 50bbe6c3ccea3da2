"""The join drive, and the single store that hosts it.

The server is the semi-honest adversary of the paper's model: it stores
encrypted tables, applies tokens to produce per-row handles (SJ.Dec) and
joins rows whose handles match (SJ.Match).

A query leaks the equality pattern of the handles of the rows it
selected, and over a *series* of queries the server may only ever learn
the transitive closure of those patterns — the host's
:class:`~repro.series.ledger.LeakageLedger` — so "decrypt the selected
rows not yet seen under this token, match, link what was seen" is one
operation, and :class:`_JoinHost` runs it for every public entry point
(``stream_join`` / ``execute_join`` / ``stream_chain`` /
``execute_chain``, here and on the shard coordinator):

1. look the query up in the series cache and take its entry — or an
   *empty* one on a miss (a cold run is a refresh of an empty entry);
2. withdraw the tombstones the entry has not applied yet;
3. if the entry's table versions are current, open nothing: the
   answer is the one the retained executor finished last time, its
   payloads are gathered once for the batches and the result alike, and
   nothing new is linked (a replay — it sorts nothing and allocates
   nothing per held handle);
4. otherwise ask the host for decrypt sources over exactly the selected
   rows the entry holds no handle for — all of them when it is empty —
   one per distinct ``(table, token)`` side, and merge them round-robin
   into the entry's :class:`~repro.plan.executor.ChainExecutor`
   (:func:`~repro.core.pipeline.merge_sources`), re-checking the
   deadline between events and linking, even if abandoned, each fed row
   to the entry's rows with its handle;
5. fold the sources' reports into one :class:`ServerStats`, then admit
   the entry to the cache or re-account it.

A two-way join is the two-table chain run in the identity order; its
public shape (:class:`MatchBatch`, right-major
:class:`EncryptedJoinResult`) is produced at the API edge.  What differs
between a store and a fleet is the *host seam* the drive calls:
``table_epoch`` / ``table_version`` / ``tombstoned_rows`` per table,
``_open_sources`` (a single store streams its own rows; a coordinator
asks every shard), ``_payloads`` (the tables here; the entry's retained
payload maps on a coordinator, which holds no tables) and ``_account``
for scatter accounting.

How SJ.Dec is issued is not a property of a query: a store has one
:class:`~repro.core.engine.BatchedEngine`, one pool ``workers`` wide
(``SecureJoinServer(workers=…)``) and one matcher, the paper's hash
join — so every entry point takes the query and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.client import EncryptedTable, position_view
from repro.core.engine import (
    BatchedEngine,
    EngineReport,
    ExecutionEngine,
    HandleStream,
)
from repro.core.pipeline import HandleSource, merge_sources
from repro.core.scheme import SecureJoinParams, SecureJoinScheme, SJToken
from repro.core.service import ExecutionService, QueryQoS
from repro.crypto.backend import BilinearBackend
from repro.errors import DeadlineError, QueryError, SchemeError
from repro.plan import (
    MAX_CHAIN_TABLES,
    ChainExecutor,
    compile_plan,
    group_chain_sides,
)
from repro.plan.cost import default_engine_cost_model
from repro.series.cache import (
    DEFAULT_SERIES_BUDGET,
    SeriesCache,
    SeriesEntry,
    series_key,
)
from repro.series.ledger import LeakageLedger


@dataclass
class ServerStats:
    """Operation counts for one join execution.

    ``comparisons`` counts handle-equality work in the hash matcher:
    one hash-key comparison per probe plus one equality confirmation per
    bucket entry it emits (O(n + m + output)).

    ``miller_loops`` / ``final_exponentiations`` record the pairing work
    of SJ.Dec as issued by the execution engine (see
    :mod:`repro.core.engine`); ``batches``, ``max_batch_size`` and
    ``workers`` describe how that work was grouped and fanned out.

    ``engine`` is the host's engine (``"series"`` for a replay, which
    ran none); ``engine_selected`` is what actually executed
    (``"parallel"`` for a side that ran on the pool).  ``planner`` holds
    the query's auditable records: a chain's ``"plan"``, a fleet's
    ``"scatter"``, a replay's ``"series"``.
    ``pool_generation`` / ``worker_restarts`` expose the persistent
    pool's lifecycle: the generation only moves when the pool is
    actually (re)created, so equal generations across queries prove
    worker reuse.

    Pipeline fields: ``time_to_first_match`` is the wall-clock from
    execution start to the first emitted pair (0.0 when the join is
    empty); ``decrypt_seconds`` / ``match_seconds`` split the pipeline
    wall-clock by stage (they overlap — that is the pipelining);
    ``concurrent_sides`` is the peak number of sides co-admitted on the
    worker pool while this query ran (>= 2 proves interleaving, 0 means
    the query never used the pool).

    Scatter-gather fields (set by the shard coordinator when it
    scatters; 0 for a single-store join and for a replay, which asks no
    shard): ``shards`` is how many shards served the query and
    ``shard_skew`` the candidate-row imbalance across them (max
    over mean; 1.0 = perfectly uniform) — what discounts the ideal
    ``1/n`` speedup of the scatter.

    Query-series fields: ``series_cache_hits`` is 1 when the query hit
    the server's cross-query cache (a warm replay or a delta refresh),
    ``reused_handles`` how many previously decrypted per-row handles it
    reused instead of re-running SJ.Dec, and ``delta_rows`` how many
    rows the refresh actually decrypted (0 on a pure replay).  For a
    cached query ``probes``/``comparisons`` report the retained
    matcher's cumulative work across the series, not one execution's.
    """

    candidates_left: int = 0
    candidates_right: int = 0
    decryptions: int = 0
    probes: int = 0
    comparisons: int = 0
    matches: int = 0
    engine: str = "batched"
    batches: int = 0
    max_batch_size: int = 0
    workers: int = 1
    miller_loops: int = 0
    final_exponentiations: int = 0
    prepared_miller_loops: int = 0
    preparations: int = 0
    engine_selected: str = ""
    planner: list | None = None
    pool_generation: int = 0
    worker_restarts: int = 0
    time_to_first_match: float = 0.0
    decrypt_seconds: float = 0.0
    match_seconds: float = 0.0
    concurrent_sides: int = 0
    shards: int = 0
    shard_skew: float = 0.0
    series_cache_hits: int = 0
    delta_rows: int = 0
    reused_handles: int = 0
    #: Multi-way plan fields (0 for a two-way join): ``plan_nodes`` is
    #: the number of left-deep nodes the planner laid out (chain arity
    #: minus one) and ``handle_pool_hits`` how many chain positions
    #: were served from another position's decrypt stream instead of
    #: opening their own (same table under byte-identical tokens).
    plan_nodes: int = 0
    handle_pool_hits: int = 0

    def record(self, decision: dict) -> None:
        """Append one auditable planner record."""
        if self.planner is None:
            self.planner = []
        self.planner.append(decision)

    def merge_report(self, report: EngineReport) -> None:
        """Fold one side's engine report into the per-query totals."""
        self.engine = report.engine
        selected = report.selected or report.engine
        if not self.engine_selected:
            self.engine_selected = selected
        elif selected not in self.engine_selected.split("+"):
            self.engine_selected += f"+{selected}"
        self.batches += report.batches
        self.max_batch_size = max(self.max_batch_size, report.max_batch_size)
        self.workers = max(self.workers, report.workers)
        self.miller_loops += report.miller_loops
        self.final_exponentiations += report.final_exponentiations
        self.prepared_miller_loops += report.prepared_miller_loops
        self.preparations += report.preparations
        self.pool_generation = max(self.pool_generation, report.pool_generation)
        self.worker_restarts = max(self.worker_restarts, report.worker_restarts)
        self.concurrent_sides = max(
            self.concurrent_sides, report.concurrent_sides
        )


@dataclass
class ChainMatchBatch:
    """One increment of a streamed join.

    Yielded by :meth:`SecureJoinServer.stream_chain` (and, as its
    two-table case :class:`MatchBatch`, by ``stream_join``):
    ``tuples`` are completed chain tuples (one row index per chain
    position, positions in chain order) in discovery order (NOT the
    canonical order of the final result); ``payloads`` carries each
    tuple's payload blobs in the same position order, so a client can
    decrypt joined rows while the server is still pairing.
    """

    tuples: list[tuple[int, ...]]
    payloads: list[tuple[bytes, ...]]


@dataclass
class EncryptedChainResult:
    """What the server returns: matched row-index tuples in canonical
    order, each tuple's payload blobs, and the execution stats."""

    tables: tuple[str, ...]
    tuples: list[tuple[int, ...]]
    payloads: list[tuple[bytes, ...]]
    stats: ServerStats


class _PairViews:
    """The pair names of a two-table batch or result.  Each payload
    view builds its list once per access — read it once per batch."""

    @property
    def index_pairs(self) -> list[tuple[int, int]]:
        return self.tuples

    @property
    def left_payloads(self) -> list[bytes]:
        return [left for left, _ in self.payloads]

    @property
    def right_payloads(self) -> list[bytes]:
        return [right for _, right in self.payloads]


class MatchBatch(_PairViews, ChainMatchBatch):
    """One increment of a streamed two-way join: the two-table
    :class:`ChainMatchBatch`."""


class EncryptedJoinResult(_PairViews, EncryptedChainResult):
    """A two-way join's result: the two-table
    :class:`EncryptedChainResult`, pairs in right-major order."""

    left_table = position_view("tables", 0)
    right_table = position_view("tables", 1)


class _PairShape:
    """The two-way join's public shape: :class:`MatchBatch` increments
    and the right-major :class:`EncryptedJoinResult`."""

    batch, result = MatchBatch, EncryptedJoinResult

    @staticmethod
    def canonical(executor) -> list[tuple[int, int]]:
        # The single node's matcher keeps its own pairs right-major
        # (sorted in place, and only when a pair arrived since).
        return executor.matchers[0].finish()


class _ChainShape:
    """The multi-way chain's public shape: :class:`ChainMatchBatch`
    increments and the lexicographic :class:`EncryptedChainResult`."""

    batch, result = ChainMatchBatch, EncryptedChainResult
    canonical = staticmethod(ChainExecutor.finish)


def gather_payloads(tuples, payloads) -> list[tuple[bytes, ...]]:
    """Each tuple's payload blobs in position order, gathered one
    position (column) at a time from the per-position payload maps."""
    columns = [
        map(held.__getitem__, rows)
        for held, rows in zip(payloads, zip(*tuples))
    ]
    return list(zip(*columns))


#: Most tuples one streamed batch carries, replayed or cold.  A cached
#: answer is one list and one chunk can complete any number of tuples
#: under a repeated key; over the socket a batch is one message, and a
#: message has a size limit.
_BATCH_SLICE = 1024


def _drain(events):
    """Run a drive to completion; its return value is the result."""
    while True:
        try:
            next(events)
        except StopIteration as stop:
            return stop.value


class _JoinHost:
    """The one join drive (see the module docstring for its steps).

    A host supplies the seam — ``backend``, ``series_cache``,
    ``ledger``, ``table_epoch`` / ``table_version`` /
    ``tombstoned_rows``, ``_open_sources``, ``_payloads`` — and inherits
    the four public entry points.
    """

    series_cache: SeriesCache | None
    ledger: LeakageLedger
    #: The host's own SJ.Dec engine; ``None`` on a host that decrypts
    #: nothing itself (a coordinator: each shard has its own).
    engine: ExecutionEngine | None = None

    # -- public entry points ----------------------------------------------
    def stream_join(self, query):
        """Run the join as a streaming pipeline; a generator.

        Yields :class:`MatchBatch` increments (pairs in discovery
        order, with payloads) as soon as decrypted chunks complete the
        pairings, and returns the final :class:`EncryptedJoinResult` —
        canonical right-major order, byte-identical to the materialized
        pass and, on a shard coordinator, to the single-store join over
        the unpartitioned tables — as the generator's value
        (``StopIteration.value``).  Closing the generator early releases
        every pool admission and still links, in the ledger, the rows
        whose computed handles coincide.
        """
        return (yield from self._drive(query, _PairShape, True))

    def execute_join(self, query) -> EncryptedJoinResult:
        """:meth:`stream_join` run to completion: only the final,
        canonically ordered result is built (no per-batch payloads)."""
        return _drain(self._drive(query, _PairShape, False))

    def stream_chain(self, query):
        """Run a multi-way chain join as a streaming pipeline; a generator.

        Yields :class:`ChainMatchBatch` increments (completed chain
        tuples in discovery order, with payloads) as the left-deep
        pipeline completes them, and returns the final
        :class:`EncryptedChainResult` — canonical lexicographic tuple
        order — as the generator's value (``StopIteration.value``).

        The join order is chosen per query by the cost-model planner
        from prefilter-posting cardinality estimates (one incremental
        hash matcher per plan node), and each distinct ``(table,
        token)`` side is decrypted once however many positions consume
        it (``stats.handle_pool_hits``).
        """
        return (yield from self._drive(query, _ChainShape, True))

    def execute_chain(self, query) -> EncryptedChainResult:
        """:meth:`stream_chain` run to completion."""
        return _drain(self._drive(query, _ChainShape, False))

    # -- the drive ---------------------------------------------------------
    def _drive(self, query, shape, streaming):
        """Steps 1–2: find the query's entry (or start an empty one),
        then refresh it under its lock.  Yields batches when
        ``streaming``; returns the result ``shape`` builds."""
        tables = query.tables
        n = len(tables)
        if not 2 <= n <= MAX_CHAIN_TABLES:
            raise QueryError(
                f"a chain query needs 2..{MAX_CHAIN_TABLES} tables, got {n}"
            )
        if len(query.tokens) != n or len(query.prefilters) != n:
            raise QueryError(
                "chain query tables, tokens and prefilters must align"
            )
        # A literally re-submitted query (same token bytes) has the
        # same key; each token is hashed once per query, here.
        key = series_key(query, self.backend)
        cache = self.series_cache
        entry = epochs = versions = None
        if cache is not None:
            # Maintenance state is captured *before* any candidate is
            # computed, so a concurrent mutation lands after the
            # snapshot and shows up as a version mismatch next time.
            epochs = tuple(map(self.table_epoch, tables))
            versions = tuple(map(self.table_version, tables))
            entry = cache.lookup(key, epochs)
            # Per-entry admission is non-blocking: a series whose entry
            # is mid-refresh on another thread must not starve this
            # query, so on contention it recomputes from an empty entry
            # — correct, just not cheap.
            if entry is not None and not entry.lock.acquire(blocking=False):
                cache.stats.lock_contention += 1
                entry = None
        hit = entry is not None
        if not hit:
            entry = SeriesEntry(key, tables, epochs)
            if cache is not None:
                # Rows already tombstoned never enter an empty entry,
                # so they count as applied.
                entry.applied_tombstones = [
                    set(self.tombstoned_rows(name)) for name in tables
                ]
        try:
            return (
                yield from self._refresh(
                    query, entry, hit, versions, shape, streaming
                )
            )
        finally:
            if hit:
                entry.lock.release()

    def _refresh(self, query, entry, hit, versions, shape, streaming):
        """Steps 2–5 over one entry (``hit``: it came from the cache)."""
        stats = ServerStats()
        tables = entry.tables
        cache = self.series_cache
        executor = entry.executor
        stale = executor is None or entry.versions != versions
        payloads = self._payloads(query, entry)
        # The relative deadline is stamped against this host's clock at
        # admission.  Pooled engines thread the QoS into the admission
        # scheduler, inline engines check it between chunks, and the
        # loop below checks it between merged events so the match stage
        # cannot overrun either.
        qos = QueryQoS.stamp(query)
        # ``first`` maps a handle to the first row fed under it (on a
        # hit, from every handle the entry ever fed, withdrawn ones too);
        # each later row with that handle is linked to that one.  A row
        # is the int ``row * width + slot`` (``slot``: its table's first
        # position) until the ledger takes it: a ``(table, row)`` tuple
        # per fed row costs the cyclic collector ≈ 4 ms a cold perfbench
        # ``chain3_inproc`` query (2-vCPU x86).
        width, slots = len(tables), [tables.index(t) for t in tables]
        first: dict[bytes, int] = {}
        linked: list[int] = []  # (earlier row, later row) pairs, flat
        if hit:
            if stale:
                # Dead rows are withdrawn *first*, so they can never
                # pair with the rows the refresh is about to feed.
                for position, name in enumerate(tables):
                    applied = entry.applied_tombstones[position]
                    new = self.tombstoned_rows(name) - applied
                    if new:
                        held = executor.handles[position]
                        for row in new & held.keys():
                            code = row * width + slots[position]
                            entry.withdrawn[held[row]] = code
                        executor.retract(position, new)
                        for row in new:
                            entry.payloads[position].pop(row, None)
                        applied |= new
                first.update(entry.withdrawn)
                for side in entry.sides:
                    position = side.positions[0]
                    for row, handle in executor.handles[position].items():
                        first[handle] = row * width + slots[position]
            stats.series_cache_hits = 1
            stats.reused_handles = entry.reused_handles()

        def node(code: int) -> tuple[str, int]:
            row, slot = divmod(code, width)
            return tables[slot], row

        def on_items(positions, items) -> None:
            slot = slots[positions[0]]
            for item in items:
                code = item[0] * width + slot
                seen = first.setdefault(item[1], code)
                if seen != code:
                    linked.extend((seen, code))
            if items and len(items[0]) == 3:
                # A host without local tables retains the payloads that
                # ride the items, per consuming position.
                for position in positions:
                    retained = entry.payloads[position]
                    for row, _, payload in items:
                        retained[row] = payload

        def emitted() -> None:
            if not stats.time_to_first_match:
                stats.time_to_first_match = time.perf_counter() - started

        def batches(tuples: list, gathered: list):
            for start in range(0, len(tuples), _BATCH_SLICE):
                stop = start + _BATCH_SLICE
                yield shape.batch(tuples[start:stop], gathered[start:stop])

        sources: list = []
        started = time.perf_counter()
        try:
            # Retained tuples stream first, so the union of the yielded
            # batches still equals the final result.
            tuples = shape.canonical(executor) if hit else []
            if tuples:
                emitted()
            if streaming or not stale:
                # A replay gathers once: its batches are slices of the
                # list its result carries.
                gathered = gather_payloads(tuples, payloads)
            if streaming:
                yield from batches(tuples, gathered)
            if stale:
                if entry.sides is None:
                    entry.sides = group_chain_sides(query, entry.key)
                sides = entry.sides
                stats.handle_pool_hits = len(tables) - len(sides)
                # Rows that ever entered a handle map passed the
                # pre-filter, and tags are immutable, so excluding the
                # map's rows leaves exactly "inserted since the last
                # refresh" (everything, for an empty entry).
                held = [
                    executor.handles[side.positions[0]] if hit else ()
                    for side in sides
                ]
                # Every source is opened before any is pulled: that is
                # what co-admits the sides (and shards) on the pools.
                for source in self._open_sources(query, sides, held, qos):
                    sources.append(source)
                if executor is None:
                    executor = self._plan(entry, sources, stats)
                for new in merge_sources(sources, executor, on_items, stats):
                    emitted()
                    if qos is not None and qos.expired():
                        raise DeadlineError(
                            f"query {query.query_id} exceeded its deadline "
                            f"of {query.deadline}s; cancelled mid-join"
                        )
                    if streaming:
                        yield from batches(new, gather_payloads(new, payloads))
                finish_at = time.perf_counter()
                tuples = shape.canonical(executor)
                stats.match_seconds += time.perf_counter() - finish_at
                gathered = gather_payloads(tuples, payloads)
        finally:
            # Deterministic on abandonment too (not just refcount GC):
            # closing the sources releases every pool admission, and the
            # links are recorded even then — the host *did* compute
            # those handles, and the leakage analyzer must see them.
            for source in sources:
                source.close()
            nodes = map(node, linked)
            self.ledger.link(zip(nodes, nodes))

        for source in sources:
            stats.decryptions += source.decrypted
            for report in source.reports:
                if report is not None:
                    stats.merge_report(report)
        if sources:
            self._account(stats, sources)
        elif hit:
            stats.engine = stats.engine_selected = "series"
            stats.planner = [{
                "stage": "series",
                "outcome": "replay",
                "reused_handles": stats.reused_handles,
                "tuples": len(tuples),
            }]
        if hit:
            stats.delta_rows = stats.decryptions
        stats.matches = len(tuples)
        stats.probes = executor.probes
        stats.comparisons = executor.comparisons
        stats.candidates_left = len(executor.handles[0])
        stats.candidates_right = len(executor.handles[-1])
        entry.versions = versions
        if cache is not None:
            if not hit:
                cache.store(entry)
            elif stale:
                entry.delta_refreshes += 1
                cache.stats.delta_refreshes += 1
                cache.reaccount(entry)
            else:
                entry.replays += 1
                cache.stats.replays += 1
        if shape is _ChainShape:
            stats.plan_nodes = len(tables) - 1
        return shape.result(tuple(tables), tuples, gathered, stats)

    def _plan(self, entry, sources, stats):
        """Give an empty entry its executor.  A chain's join order is
        priced from the candidate counts the opened sources already
        know (a remote shard reports its counts only when it finishes)."""
        tables = entry.tables
        if len(tables) == 2:
            # One node, and the identity order keeps ``probes`` counting
            # right-side rows: nothing to plan.
            order = (0, 1)
        else:
            counts = [0] * len(tables)
            for source in sources:
                if source.rows is not None:
                    for position in source.positions:
                        counts[position] += len(source.rows)
            distincts = [
                self._distinct_estimate(name, count)
                for name, count in zip(tables, counts)
            ]
            plan = compile_plan(
                default_engine_cost_model(self.backend.name),
                counts,
                distincts,
            )
            stats.record(plan.record())
            order = plan.order
        entry.executor = ChainExecutor(order)
        return entry.executor

    # -- seam defaults -----------------------------------------------------
    def _distinct_estimate(self, table_name: str, candidate_count: int):
        """Estimated distinct join values among a side's candidates;
        ``None`` = unknown (the estimators then assume all-distinct)."""
        return None

    def _account(self, stats: ServerStats, sources: list) -> None:
        """Host-specific accounting over the sources a refresh drained."""


class SecureJoinServer(_JoinHost):
    """Stores encrypted tables and executes encrypted equi-joins."""

    def __init__(
        self,
        params: SecureJoinParams,
        backend: BilinearBackend | None = None,
        engine: ExecutionEngine | None = None,
        workers: int | None = None,
        series_cache_bytes: int | None = DEFAULT_SERIES_BUDGET,
    ):
        # The engine every query runs on, fixed here and nowhere else —
        # the resources it spends are the server's, so neither a caller
        # nor a client picks per query.  An instance, never a name.
        if engine is None:
            engine = BatchedEngine()
        elif not isinstance(engine, ExecutionEngine):
            raise QueryError(
                "engine must be an ExecutionEngine instance, not "
                f"{type(engine).__name__} {engine!r}"
            )
        # The server only needs public parameters — never the master key.
        self.scheme = SecureJoinScheme(params, backend)
        # The server owns one persistent worker pool, ``workers`` wide
        # (by default, the CPUs the process may run on), for its whole
        # lifetime, and binds its engine to it.
        # Construction is lazy — no process is forked until a side goes
        # to the pool — and ``close()`` (or using the server as a
        # context manager) tears it down.  Concurrent queries (and the
        # two sides of one query) are co-admitted and interleave on it.
        self.execution_service = ExecutionService(workers=workers)
        if isinstance(engine, BatchedEngine):
            engine.bind_service(self.execution_service)
        self.engine = engine
        self._tables: dict[str, EncryptedTable] = {}
        # Inverted index over pre-filter tags: table -> column -> tag -> rows.
        self._tag_index: dict[str, dict[str, dict[bytes, list[int]]]] = {}
        # Deleted row indices per table (tombstones).
        self._tombstones: dict[str, set[int]] = {}
        # Query-series maintenance state: per-table epochs (bumped when
        # a table is re-stored wholesale — retained state is garbage)
        # and versions (bumped per insert/delete — retained state is
        # stale but delta-repairable), plus the cross-query cache
        # itself.  ``series_cache_bytes`` is the memory budget knob;
        # None or 0 disables series caching entirely.
        self._epochs: dict[str, int] = {}
        self._versions: dict[str, int] = {}
        self.series_cache: SeriesCache | None = (
            SeriesCache(series_cache_bytes)
            if series_cache_bytes
            else None
        )
        self.ledger = LeakageLedger()

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut down the server's worker pool.  Idempotent."""
        self.execution_service.close()

    def __enter__(self) -> "SecureJoinServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def backend(self) -> BilinearBackend:
        return self.scheme.backend

    # -- storage ------------------------------------------------------------
    def store(self, encrypted_table: EncryptedTable) -> None:
        self._tables[encrypted_table.name] = encrypted_table
        index: dict[str, dict[bytes, list[int]]] = {}
        if encrypted_table.prefilter_tags:
            for column, tags in encrypted_table.prefilter_tags.items():
                postings: dict[bytes, list[int]] = {}
                for row_index, tag in enumerate(tags):
                    postings.setdefault(tag, []).append(row_index)
                index[column] = postings
        self._tag_index[encrypted_table.name] = index
        # Re-storing replaces the table wholesale: a new epoch makes
        # every retained series entry for it unreachable, the mutation
        # counter restarts with the new contents, and the old table's
        # tombstones name none of its rows.
        name = encrypted_table.name
        self._epochs[name] = self._epochs.get(name, 0) + 1
        self._versions[name] = 0
        self._tombstones.pop(name, None)
        if self.series_cache is not None:
            self.series_cache.invalidate_table(name)

    def table_epoch(self, name: str) -> int:
        """The table's store generation (0 = never stored)."""
        return self._epochs.get(name, 0)

    def table_version(self, name: str) -> int:
        """The table's mutation counter within its current epoch."""
        return self._versions.get(name, 0)

    def table(self, name: str) -> EncryptedTable:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"server has no table {name!r}") from None

    def prepare_table(self, name: str) -> int:
        """Precompute pairing coefficients for every row of a table.

        After this, every query over the table replays stored line
        coefficients instead of running full Miller loops (the
        prepared-rows optimization — the precomputation depends only on
        the stored ciphertext, never on the query token).  Idempotent;
        returns the number of rows prepared by *this* call.
        """
        table = self.table(name)
        backend = self.scheme.backend
        if table.prepared_rows is None:
            table.prepared_rows = []
        prepared = 0
        for ciphertext in table.ciphertexts[len(table.prepared_rows):]:
            table.prepared_rows.append(
                backend.prepare_row(ciphertext.elements)
            )
            prepared += 1
        return prepared

    # -- dynamic updates --------------------------------------------------
    def insert_row(
        self,
        table_name: str,
        ciphertext,
        payload: bytes,
        prefilter_tags: dict[str, bytes] | None = None,
    ) -> int:
        """Append one client-encrypted row; returns its row index.

        The scheme is row-wise, so inserts are O(1): no existing
        ciphertext is touched and future queries cover the new row
        automatically.  A refused insert changes nothing.
        """
        table = self.table(table_name)
        if table.prefilter_tags is not None and (
            prefilter_tags is None
            or set(prefilter_tags) != set(table.prefilter_tags)
        ):
            raise QueryError(
                "insert into a pre-filtered table must carry tags for "
                f"exactly the columns {sorted(table.prefilter_tags)}"
            )
        index = len(table.ciphertexts)
        table.ciphertexts.append(ciphertext)
        table.payloads.append(payload)
        if table.prepared_rows is not None:
            # Keep a prepared table warm: the new row gets its
            # coefficients now, so future queries stay all-prepared.
            table.prepared_rows.append(
                self.scheme.backend.prepare_row(ciphertext.elements)
            )
        if table.prefilter_tags is not None:
            for column, tag in prefilter_tags.items():
                table.prefilter_tags[column].append(tag)
                self._tag_index[table_name][column].setdefault(
                    tag, []
                ).append(index)
        self._versions[table_name] = self._versions.get(table_name, 0) + 1
        return index

    def delete_rows(self, table_name: str, indices: list[int]) -> None:
        """Tombstone rows: they stop participating in every future query.
        A refused delete (any index out of range) tombstones none."""
        table = self.table(table_name)
        for index in indices:
            if not 0 <= index < len(table.ciphertexts):
                raise QueryError(
                    f"row index {index} out of range for {table_name!r}"
                )
        self._tombstones.setdefault(table_name, set()).update(indices)
        if indices:
            self._versions[table_name] = (
                self._versions.get(table_name, 0) + 1
            )

    def tombstoned_rows(self, table_name: str) -> frozenset[int]:
        """The table's deleted row indices (delta-maintenance input)."""
        return frozenset(self._tombstones.get(table_name, ()))

    def _live(self, table_name: str, indices: list[int]) -> list[int]:
        tombstones = self._tombstones.get(table_name)
        if not tombstones:
            return indices
        return [i for i in indices if i not in tombstones]

    # -- query execution ------------------------------------------------------
    def _candidates(
        self,
        table: EncryptedTable,
        prefilter: dict[str, frozenset[bytes]] | None,
    ) -> list[int]:
        """Row indices surviving the (optional) searchable pre-filter."""
        if not prefilter:
            return list(range(len(table)))
        if table.prefilter_tags is None:
            raise QueryError(
                f"query carries pre-filter tokens but table {table.name!r} "
                "was encrypted without pre-filter tags"
            )
        index = self._tag_index[table.name]
        survivors: set[int] | None = None
        for column, allowed in prefilter.items():
            postings = index.get(column)
            if postings is None:
                raise QueryError(
                    f"no pre-filter tags for column {column!r} in "
                    f"table {table.name!r}"
                )
            matching: set[int] = set()
            for tag in allowed:
                matching.update(postings.get(tag, ()))
            survivors = matching if survivors is None else survivors & matching
            if not survivors:
                return []
        return sorted(survivors)

    def _side_ciphertexts(
        self,
        table: EncryptedTable,
        token: SJToken,
        candidates: list[int],
    ) -> list:
        """The candidate rows' ciphertext vectors, validated for SJ.Dec."""
        dimension = self.scheme.params.dimension
        if len(token) != dimension:
            raise SchemeError(
                f"token dimension {len(token)} != scheme dimension {dimension}"
            )
        prepared = table.prepared_rows
        ciphertexts = []
        for index in candidates:
            ciphertext = table.ciphertexts[index]
            if len(ciphertext) != dimension:
                raise SchemeError(
                    f"ciphertext dimension {len(ciphertext)} != scheme "
                    f"dimension {dimension}"
                )
            if prepared is not None and index < len(prepared):
                ciphertexts.append(prepared[index])
            else:
                ciphertexts.append(ciphertext.elements)
        return ciphertexts

    def _distinct_estimate(
        self, table_name: str, candidate_count: int
    ) -> int | None:
        """Estimated distinct join values among a side's candidates.

        Derived from the pre-filter posting profile: the most selective
        indexed column's distinct-tag count, scaled to the candidate
        set under a uniformity assumption.  The tags live on attribute
        columns, not the join column, so this is a diversity proxy —
        good enough to separate a near-key side from a heavily repeated
        one, which is all the containment estimator needs.  ``None``
        when the table carries no tags (assume all-distinct).
        """
        index = self._tag_index.get(table_name)
        if not index:
            return None
        table_rows = len(self.table(table_name))
        if table_rows == 0 or candidate_count == 0:
            return None
        best = max(len(postings) for postings in index.values())
        return max(
            1,
            min(candidate_count, round(candidate_count * best / table_rows)),
        )

    def _payloads(self, query, entry) -> list[list[bytes]]:
        """Payloads by chain position: read from the stored tables."""
        return [self.table(name).payloads for name in query.tables]

    def _selected_rows(
        self,
        table: EncryptedTable,
        prefilter: dict[str, frozenset[bytes]] | None,
        exclude_rows=None,
    ) -> list[int]:
        """Live rows surviving the pre-filter, minus ``exclude_rows``."""
        rows = self._live(table.name, self._candidates(table, prefilter))
        if exclude_rows:
            rows = [i for i in rows if i not in exclude_rows]
        return rows

    def _decrypt_stream(
        self,
        table: EncryptedTable,
        token: SJToken,
        rows: list[int],
        qos: QueryQoS | None,
    ) -> HandleStream:
        return self.engine.decrypt_stream(
            self.scheme.backend,
            token.elements,
            self._side_ciphertexts(table, token, rows),
            qos=qos,
        )

    def open_side_stream(
        self,
        table_name: str,
        token: SJToken,
        prefilter: dict[str, frozenset[bytes]] | None = None,
        qos: QueryQoS | None = None,
        exclude_rows: set[int] | None = None,
    ) -> tuple[list[int], HandleStream]:
        """Open one side's decrypt stream: ``(candidates, stream)``.

        The scatter building block: pre-filter and tombstones applied,
        then SJ.Dec streamed through this server's engine (and pool).  A shard opens one such stream per side
        for its coordinator, which merges every shard's chunks into a
        single executor — the caller owns the stream and must close it.
        ``exclude_rows`` drops already-decrypted rows from the stream
        (the delta path: a coordinator with retained handles asks each
        shard for only what it has not seen).
        """
        table = self.table(table_name)
        rows = self._selected_rows(table, prefilter, exclude_rows)
        return rows, self._decrypt_stream(table, token, rows, qos)

    def _open_sources(self, query, sides, exclude_rows, qos):
        """One decrypt source per distinct side, over its selected rows
        minus those the entry already holds a handle for."""
        for side, held in zip(sides, exclude_rows):
            table = self.table(side.table)
            rows = self._selected_rows(table, side.prefilter, held)
            stream = self._decrypt_stream(table, side.token, rows, qos)
            yield HandleSource(side.positions, stream, rows)
