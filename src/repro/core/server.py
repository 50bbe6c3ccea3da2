"""The join drive, and the coordinator of stores that hosts it.

The server is the semi-honest adversary of the paper's model: it stores
encrypted tables, applies tokens to produce per-row handles (SJ.Dec) and
joins rows whose handles match (SJ.Match).

A query leaks the equality pattern of the handles of the rows it
selected, and over a *series* of queries the server may only ever learn
the transitive closure of those patterns — the host's
:class:`~repro.series.ledger.LeakageLedger` — so "decrypt the selected
rows not yet seen under this token, match, link what was seen" is one
operation, and :class:`ShardCoordinator` runs it for every public entry
point (``stream_join`` / ``execute_join`` / ``stream_chain`` /
``execute_chain``):

1. look the query up in the series cache and take its entry — or an
   *empty* one on a miss (a cold run is a refresh of an empty entry);
2. withdraw the tombstones the entry has not applied yet;
3. if the entry's table versions are current, open nothing: the
   answer is the one the retained executor finished last time, its
   payloads are gathered once for the batches and the result alike, and
   nothing new is linked (a replay — it sorts nothing and allocates
   nothing per held handle);
4. otherwise ask every store for decrypt sources over exactly the
   selected rows the entry holds no handle for — all of them when it is
   empty — one per distinct ``(table, token)`` side, and merge them
   round-robin into the entry's :class:`~repro.plan.executor.ChainExecutor`
   (:func:`~repro.core.pipeline.merge_sources`), re-checking the
   deadline between events and linking, even if abandoned, each fed row
   to the entry's rows with its handle;
5. fold the sources' reports into one :class:`ServerStats`, then admit
   the entry to the cache or re-account it.

A two-way join is the two-table chain run in the identity order; its
public shape (:class:`MatchBatch`, right-major
:class:`EncryptedJoinResult`) is produced at the API edge.

The host drives stores (:class:`~repro.core.storage.LocalShard`, or a
remote shard's proxy), every row they name a global row:
:class:`SecureJoinServer`, the paper's single server, is the host over
one store of whole tables, and a fleet the host over the pieces of a
partition.  The drive reads them through one seam, whatever their
number: per table the stores' summed epochs and versions and united
tombstones; ``_open_sources`` (every store's sources, tagged so a
failure names the shard); ``_payloads`` (lent by in-process stores;
only a remote shard's items carry payloads, retained on the entry);
and ``_account`` (shard loads, skew, one ``"scatter"`` record).

How SJ.Dec is issued is not a property of a query: a store has one
:class:`~repro.core.engine.BatchedEngine`, one pool ``workers`` wide and
one matcher, the paper's hash join — so every entry point takes the
query and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import or_

from repro.core.client import EncryptedTable, position_view
from repro.core.engine import EngineReport, ExecutionEngine
from repro.core.pipeline import merge_sources
from repro.core.scheme import SecureJoinParams
from repro.core.service import QueryQoS
from repro.core.storage import LocalShard, check_layout
from repro.crypto.backend import BilinearBackend
from repro.errors import (
    DeadlineError,
    NetworkError,
    QueryError,
    SchemeError,
    ShardUnavailableError,
)
from repro.plan import (
    MAX_CHAIN_TABLES,
    ChainExecutor,
    compile_plan,
    group_chain_sides,
)
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
    (re)created, so equal generations prove worker reuse; the restarts
    are the pool's replacements while this query's sides were admitted.

    Pipeline fields: ``time_to_first_match`` is the wall-clock from
    execution start to the first emitted pair (0.0 when the join is
    empty); ``decrypt_seconds`` / ``match_seconds`` split the pipeline
    wall-clock by stage (they overlap — that is the pipelining);
    ``concurrent_sides`` is the peak number of sides co-admitted on the
    worker pool while this query ran (>= 2 proves interleaving, 0 means
    the query never used the pool).

    Scatter-gather fields (set whenever the query opened a store — 1
    and 1.0 on a single store, which is a one-shard fleet; 0 for a
    replay, which asks no store): ``shards`` is how many shards served
    the query and ``shard_skew`` the decrypted-row imbalance across
    them (max over mean; 1.0 = perfectly uniform) — what discounts the
    ideal ``1/n`` speedup of the scatter.

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


def shard_skew(rows_per_shard: list[int]) -> float:
    """Load imbalance: max over mean rows per shard (1.0 = uniform).

    The planner prices cross-shard parallelism with it — scatter
    makespan is the *slowest* shard, so skew directly discounts the
    ideal ``1/n`` speedup.
    """
    if not rows_per_shard:
        return 1.0
    mean = sum(rows_per_shard) / len(rows_per_shard)
    if mean <= 0:
        return 1.0
    return max(rows_per_shard) / mean


class _GuardedSource:
    """Tags a shard's source so its failures name the shard.

    Pool death (``QueryError`` from a closed/unrescuable service) and
    transport loss (``NetworkError``) become
    :class:`ShardUnavailableError`; deadline expiry passes through
    untranslated — running out of time is a property of the query, not
    of shard health.
    """

    def __init__(self, ordinal: int, shard, source):
        self.ordinal = ordinal
        self.shard = shard
        self.source = source

    def __iter__(self) -> "_GuardedSource":
        return self

    def __next__(self):
        try:
            return next(self.source)
        except (StopIteration, DeadlineError, ShardUnavailableError):
            raise
        except (QueryError, NetworkError) as error:
            raise ShardUnavailableError(
                f"shard {self._describe()} failed mid-scatter: {error}"
            ) from error

    def _describe(self) -> str:
        name = getattr(self.shard, "name", None)
        return f"{self.ordinal} ({name})" if name else str(self.ordinal)

    def close(self) -> None:
        self.source.close()

    def __getattr__(self, name):
        # positions / rows / decrypted / reports are the source's own.
        return getattr(self.source, name)


class _FleetPayloads(dict):
    """One table's payloads by global row across several lenders — the
    in-process shards' views, and the rows a remote shard's items
    carried: each row is read through its lender once, then at dict
    speed (a row's payload never changes within an epoch)."""

    def __init__(self, lenders: list, epoch: int | None = None):
        super().__init__()
        self.lenders = lenders
        self.epoch = epoch

    def __missing__(self, row: int) -> bytes:
        for lender in self.lenders:
            payload = lender.get(row)
            if payload is not None:
                self[row] = payload
                return payload
        raise KeyError(row)


class ShardCoordinator:
    """The one join host: co-admits a query on every store it drives
    and merges their match streams (see the module docstring)."""

    def __init__(
        self,
        shards,
        series_cache_bytes: int | None = DEFAULT_SERIES_BUDGET,
    ):
        if not shards:
            raise SchemeError("a shard coordinator needs at least one shard")
        self.shards = list(shards)
        self.backend: BilinearBackend = self.shards[0].backend
        self._check_layouts()
        self._local = [
            shard for shard in self.shards if isinstance(shard, LocalShard)
        ]
        self.ledger = LeakageLedger()
        self._lent: dict[str, _FleetPayloads] = {}
        # Series state is kept only when every store is in-process: a
        # remote shard exposes no epochs, versions or tombstones, and a
        # replay must never be stale.
        self.series_cache: SeriesCache | None = (
            SeriesCache(series_cache_bytes)
            if series_cache_bytes and len(self._local) == len(self.shards)
            else None
        )

    def close(self) -> None:
        """Close every shard (their pools / connections).  Idempotent."""
        for shard in self.shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public entry points ----------------------------------------------
    def stream_join(self, query):
        """Run the join as a streaming pipeline; a generator.

        Yields :class:`MatchBatch` increments (pairs in discovery
        order, with payloads) as soon as decrypted chunks complete the
        pairings, and returns the final :class:`EncryptedJoinResult` —
        canonical right-major order, byte-identical to the materialized
        pass and, on a fleet, to the single-store join over the
        unpartitioned tables — as the generator's value
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

        The join order is chosen per query from the positions'
        candidate counts (:func:`~repro.plan.compile_plan`: fewest
        first, then toward the smaller neighbour; one incremental hash
        matcher per plan node), and each distinct ``(table, token)``
        side is decrypted once however many positions consume it
        (``stats.handle_pool_hits``).
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
                # Only a remote shard's items carry payloads: they are
                # retained per consuming position.
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
        chosen from the candidate counts the opened sources already
        know (a remote shard reports its counts only when it finishes,
        so its positions read 0)."""
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
            plan = compile_plan(None, counts)
            stats.record(plan.record())
            order = plan.order
        entry.executor = ChainExecutor(order)
        return entry.executor

    # -- the seam: what the drive reads of the stores ------------------------
    def _check_layouts(self) -> None:
        """Shard ``i`` must hold partition ``i`` of as many as there are
        shards, all under one seed — checked wherever the fleet reads its
        stores, since a shard may store its pieces after the fleet is
        built.  A remote shard's layout is its endpoint's to enforce."""
        layouts = [shard.layout for shard in self.shards]
        seed = next(
            (layout[2] for layout in layouts if layout is not None), None
        )
        for ordinal, layout in enumerate(layouts):
            if layout is not None:
                check_layout(
                    (ordinal, len(layouts), seed), layout, f"shard {ordinal}"
                )

    def table_epoch(self, name: str) -> int:
        """The stores' summed store generations of the table: any
        wholesale re-store anywhere moves it."""
        epoch = 0
        for shard in self.shards:
            epoch += shard.table_epoch(name)
        return epoch

    def table_version(self, name: str) -> int:
        """The stores' summed mutation counters of the table: any insert
        or delete anywhere within the current epochs moves it."""
        version = 0
        for shard in self.shards:
            version += shard.table_version(name)
        return version

    def tombstoned_rows(self, name: str) -> frozenset[int]:
        """Deleted rows across the stores, in global rows."""
        return reduce(or_, [s.tombstoned_rows(name) for s in self.shards])

    def _payloads(self, query, entry) -> list:
        """Payloads by chain position, lent by the in-process stores: one
        store's stored list itself; an in-process fleet's view per table,
        kept across queries; beside remote shards, a view that also
        reads what their items carried, retained on the entry."""
        columns = []
        for name, retained in zip(query.tables, entry.payloads):
            if len(self.shards) == len(self._local) == 1:
                columns.append(self._local[0].lend_payloads(name))
            elif len(self.shards) == len(self._local):
                epoch = self.table_epoch(name)
                view = self._lent.get(name)
                if view is None or view.epoch != epoch:
                    view = self._lent[name] = _FleetPayloads(
                        [shard.lend_payloads(name) for shard in self._local],
                        epoch,
                    )
                columns.append(view)
            else:
                columns.append(_FleetPayloads(
                    [shard.lend_payloads(name) for shard in self._local]
                    + [retained]
                ))
        return columns

    def _open_sources(self, query, sides, exclude_rows, qos):
        """Every shard's decrypt sources over the query's distinct sides
        (each on the shard's own engine, in global rows), tagged with the
        shard so a failure names it."""
        self._check_layouts()
        for ordinal, shard in enumerate(self.shards):
            for source in shard.open_sources(
                query, sides, exclude_rows, qos=qos
            ):
                yield _GuardedSource(ordinal, shard, source)

    def _account(self, stats: ServerStats, sources: list) -> None:
        """Per-shard decrypt loads and their skew, as one auditable
        ``stage: "scatter"`` record beside the per-side engine records."""
        shard_rows = [0] * len(self.shards)
        for guarded in sources:
            shard_rows[guarded.ordinal] += guarded.decrypted
        stats.shards = len(shard_rows)
        stats.shard_skew = shard_skew(shard_rows)
        stats.record({
            "stage": "scatter",
            "shards": len(shard_rows),
            "rows_per_shard": shard_rows,
            "skew": stats.shard_skew,
        })

    # -- dynamic updates --------------------------------------------------
    def _stores(self, table_name: str) -> list[LocalShard]:
        """The in-process stores holding the table (a write reaches no
        remote shard); refuses a table none holds."""
        self._check_layouts()
        stores = [shard for shard in self._local if shard.holds(table_name)]
        if not stores:
            raise QueryError(f"server has no table {table_name!r}")
        return stores

    def insert_row(
        self,
        table_name: str,
        ciphertext,
        payload: bytes,
        prefilter_tags: dict[str, bytes] | None = None,
    ) -> int:
        """Insert one client-encrypted row; returns its global row.

        The row takes the next global row of the table and lands on the
        store the partitioner's hash names (the key function of
        :func:`~repro.shard.partition.partition_rows`, so a later
        repartition reproduces the placement) — the one store, for whole
        tables.  A refused insert changes nothing.
        """
        stores = self._stores(table_name)
        descriptor = stores[0].table(table_name).shard
        target = stores[0]
        if descriptor is not None:
            index = descriptor.shard_of_row(
                ciphertext, prefilter_tags, self.backend
            )
            target = self.shards[index]
            if target not in stores:
                raise QueryError(
                    f"no in-process shard holds partition {index} of "
                    f"{table_name!r}"
                )
        row = max(store.row_end(table_name) for store in stores)
        return target.insert_row(
            table_name, ciphertext, payload, prefilter_tags, row
        )

    def delete_rows(self, table_name: str, indices) -> int:
        """Tombstone global rows wherever they live: they stop
        participating in every future query.  Returns how many distinct
        rows were deleted.  A refused delete (any row no store holds)
        tombstones none."""
        stores = self._stores(table_name)
        owned: list[list[int]] = [[] for _ in stores]
        for row in indices:
            for mine, store in zip(owned, stores):
                if store.local_row(table_name, row) is not None:
                    mine.append(row)
                    break
            else:
                raise QueryError(
                    f"row index {row} out of range for {table_name!r}"
                )
        return sum(
            store.delete_rows(table_name, mine)
            for store, mine in zip(stores, owned)
            if mine
        )


class SecureJoinServer(ShardCoordinator):
    """The paper's server: the join drive over one in-process store of
    whole tables, on the process pool ``workers`` wide (by default the
    CPUs the process may run on) that every open store of that backend
    and width shares; ``workers=1`` never forks."""

    def __init__(
        self,
        params: SecureJoinParams,
        backend: BilinearBackend | None = None,
        engine: ExecutionEngine | None = None,
        workers: int | None = None,
        series_cache_bytes: int | None = DEFAULT_SERIES_BUDGET,
    ):
        store = LocalShard(params, backend, engine, workers)
        super().__init__([store], series_cache_bytes)
        # The store's own parts and reads, under the server's name.
        self.scheme = store.scheme
        self.engine = store.engine
        self.execution_service = store.execution_service
        self.table = store.table
        self.prepare_table = store.prepare_table
        self.open_side_stream = store.open_side_stream

    def store(self, encrypted_table: EncryptedTable) -> None:
        """Store (or replace wholesale) a table; retained series entries
        over it are dropped now rather than at their next lookup."""
        self.shards[0].store(encrypted_table)
        if self.series_cache is not None:
            self.series_cache.invalidate_table(encrypted_table.name)
