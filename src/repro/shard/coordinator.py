"""Scatter-gather join coordination over a sharded encrypted store.

The division of labor follows from what partitioning *cannot* do (see
:mod:`repro.shard.partition`): ciphertexts are randomized and handles
exist only under a query token, so equal-join-value rows land on
arbitrary shards and shard-local matching would miss cross-shard pairs.
The coordinator therefore **scatters SJ.Dec and centralizes SJ.Match**
— which makes it just another host of the one join drive
(:class:`~repro.core.server._JoinHost`; the steps are walked in
:mod:`repro.core.server`).  A fleet differs from a single store only in
the host seam:

- ``_open_sources`` asks *every shard* for decrypt sources over the
  query's distinct sides, each on the shard's own engine (in-process
  shards share the process's pool; a remote one is another process
  with its own) with the query's priority/deadline QoS, and each
  translated to *global* row indices — so the central executor sorts
  into the same canonical order, and the result is **byte-identical to
  the unsharded join** no matter the shard count, the partition skew,
  or how chunks interleaved (the property the test suite pins);
- epochs / versions / tombstones are the per-shard values side by side;
- payloads ride the scattered items and are retained on the series
  entry, because the coordinator holds no tables to re-read them from;
- ``_account`` adds the shard count, the per-shard loads and their
  skew to the stats.

Everything else — the series cache (two-way joins and chains alike),
replay, delta refresh over only the rows the entry has never seen,
deadline checks between merged events, release of every shard's
admissions when the consumer abandons the stream — is the drive's.

Failure semantics: a worker crash is rescued by the pool, which
replaces its workers and re-runs the lost chunks (invisible here but
for ``worker_restarts``, result unchanged); a whole shard dying
mid-stream — its sides failing, its endpoint unreachable — raises
:class:`~repro.errors.ShardUnavailableError` naming the shard, after
the drive's cleanup has closed every other shard's streams and released
their admissions.  Deadline expiry stays a plain
:class:`~repro.errors.DeadlineError`.
"""

from __future__ import annotations

import dataclasses

from repro.core.client import EncryptedTable
from repro.core.engine import ExecutionEngine
from repro.core.pipeline import HandleSource
from repro.core.scheme import SecureJoinParams
from repro.core.server import SecureJoinServer, ServerStats, _JoinHost
from repro.core.service import QueryQoS
from repro.crypto.backend import BilinearBackend
from repro.errors import (
    DeadlineError,
    NetworkError,
    QueryError,
    SchemeError,
    ShardUnavailableError,
)
from repro.series.cache import DEFAULT_SERIES_BUDGET, SeriesCache
from repro.series.ledger import LeakageLedger
from repro.shard.partition import shard_of_bytes, shard_skew


class LocalShard:
    """One shard served in-process: its own tables, the process's pool.

    Wraps a dedicated :class:`~repro.core.server.SecureJoinServer`, on
    the process pool ``workers`` wide (by default the CPUs the process
    may run on) that every store of that backend and width shares; only
    tables split by :func:`~repro.shard.partition.partition_table` may
    be stored, and every stored table must agree on the shard layout —
    a descriptor from a different shard count or seed is rejected,
    which is what makes repartitioning explicit rather than silent.
    """

    def __init__(
        self,
        params: SecureJoinParams,
        backend: BilinearBackend | None = None,
        engine: ExecutionEngine | None = None,
        workers: int | None = None,
        name: str | None = None,
    ):
        self.name = name
        self.server = SecureJoinServer(
            params, backend=backend, engine=engine, workers=workers
        )
        self._descriptors: dict[str, object] = {}
        self._layout: tuple[int, int, bytes] | None = None

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self.server.close()

    def __enter__(self) -> "LocalShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def layout(self) -> tuple[int, int, bytes] | None:
        """``(shard_index, shard_count, seed)`` once a table is stored."""
        return self._layout

    @property
    def backend(self) -> BilinearBackend:
        return self.server.scheme.backend

    # -- series maintenance ----------------------------------------------
    def table_epoch(self, name: str) -> int:
        return self.server.table_epoch(name)

    def table_version(self, name: str) -> int:
        return self.server.table_version(name)

    def tombstoned_global_rows(self, name: str) -> set[int]:
        """Deleted rows of this shard's slice, in global indices."""
        descriptor = self._descriptors.get(name)
        if descriptor is None:
            return set()
        return {
            descriptor.global_indices[i]
            for i in self.server.tombstoned_rows(name)
        }

    def max_global_index(self, name: str) -> int:
        """The largest global row index this shard holds (-1 if none)."""
        descriptor = self._descriptors.get(name)
        if descriptor is None or not descriptor.global_indices:
            return -1
        return descriptor.global_indices[-1]

    # -- dynamic updates --------------------------------------------------
    def insert_row(
        self,
        table_name: str,
        ciphertext,
        payload: bytes,
        prefilter_tags: dict[str, bytes] | None,
        global_index: int,
    ) -> int:
        """Append one row to this shard's slice under ``global_index``.

        The descriptor is extended in place (indices must stay strictly
        increasing, so the coordinator assigns fresh global numbers past
        every shard's maximum); returns the shard-local row index.
        """
        descriptor = self._descriptors.get(table_name)
        if descriptor is None:
            raise SchemeError(
                f"shard holds no table {table_name!r} to insert into"
            )
        if (
            descriptor.global_indices
            and global_index <= descriptor.global_indices[-1]
        ):
            raise SchemeError(
                f"global index {global_index} not past this shard's "
                f"maximum {descriptor.global_indices[-1]}"
            )
        local = self.server.insert_row(
            table_name, ciphertext, payload, prefilter_tags
        )
        updated = dataclasses.replace(
            descriptor,
            global_indices=descriptor.global_indices + (global_index,),
        )
        self._descriptors[table_name] = updated
        self.server.table(table_name).shard = updated
        return local

    def delete_rows(self, table_name: str, global_indices) -> int:
        """Tombstone the listed global rows this shard owns; returns
        how many of them actually lived here."""
        descriptor = self._descriptors.get(table_name)
        if descriptor is None:
            return 0
        position = {
            g: i for i, g in enumerate(descriptor.global_indices)
        }
        local = [position[g] for g in global_indices if g in position]
        if local:
            self.server.delete_rows(table_name, local)
        return len(local)

    def row_key(
        self, ciphertext, prefilter_tags: dict[str, bytes] | None = None
    ) -> bytes:
        """The partitioner's stable key for one row (mirror of
        :func:`~repro.shard.partition.row_shard_keys`)."""
        if prefilter_tags:
            column = sorted(prefilter_tags)[0]
            return prefilter_tags[column]
        backend = self.server.scheme.backend
        return b"".join(
            backend.encode_g2(element) for element in ciphertext.elements
        )

    # -- storage ----------------------------------------------------------
    def store(self, table: EncryptedTable) -> None:
        descriptor = table.shard
        if descriptor is None:
            raise SchemeError(
                f"table {table.name!r} carries no shard descriptor; split "
                "it with partition_table before storing on a shard"
            )
        layout = (
            descriptor.shard_index,
            descriptor.shard_count,
            descriptor.seed,
        )
        if self._layout is None:
            self._layout = layout
        elif layout != self._layout:
            raise SchemeError(
                f"table {table.name!r} was partitioned as shard "
                f"{layout[0]}/{layout[1]} but this shard holds "
                f"{self._layout[0]}/{self._layout[1]}; repartition the "
                "store explicitly (partition_table) instead of mixing "
                "layouts"
            )
        self._descriptors[table.name] = descriptor
        self.server.store(table)

    # -- scatter ----------------------------------------------------------
    def open_sources(
        self,
        query,
        sides,
        exclude_rows=None,
        qos: QueryQoS | None = None,
    ):
        """Open this shard's slice of a scatter; yields the sources.

        One :class:`~repro.core.pipeline.HandleSource` per entry of
        ``sides`` (the query's distinct ``(table, token)`` sides — a
        side shared by several chain positions is decrypted once per
        shard), each on this shard's own engine and emitting
        ``(global_row, handle, payload)`` items: global indices via the
        shard descriptor, so the coordinator's executor operates in the
        single-store index space.  ``exclude_rows[i]`` holds the
        *global* rows the coordinator already has handles for on side
        ``i`` (the delta path): they are translated to shard-local
        indices and never decrypted again.  The query's QoS is stamped
        here (per shard) unless the caller passes one.  A generator, so
        a caller that collects what it yields can close every opened
        stream even when a later side fails to open.
        """
        if qos is None:
            qos = QueryQoS.stamp(query)
        for index, side in enumerate(sides):
            table = self.server.table(side.table)
            global_indices = self._descriptors[side.table].global_indices
            held = exclude_rows[index] if exclude_rows else None
            rows, stream = self.server.open_side_stream(
                side.table,
                side.token,
                side.prefilter,
                qos=qos,
                exclude_rows=held and {
                    i for i, g in enumerate(global_indices) if g in held
                },
            )
            yield HandleSource(
                side.positions,
                stream,
                [global_indices[i] for i in rows],
                [table.payloads[i] for i in rows],
            )


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


class ShardCoordinator(_JoinHost):
    """Co-admits a query on every shard and merges the match streams."""

    def __init__(
        self,
        shards,
        series_cache_bytes: int | None = DEFAULT_SERIES_BUDGET,
    ):
        if not shards:
            raise SchemeError("a shard coordinator needs at least one shard")
        self.shards = list(shards)
        self._validate_layouts()
        self.ledger = LeakageLedger()
        # The coordinator keeps its *own* series cache (handles plus
        # payloads — it holds no tables to re-read them from), but only
        # when every shard exposes the maintenance counters and a
        # keying backend; a remote shard without them silently bypasses
        # caching rather than risking stale replays.
        capable = all(
            hasattr(shard, "table_version")
            and hasattr(shard, "table_epoch")
            and hasattr(shard, "tombstoned_global_rows")
            for shard in self.shards
        ) and getattr(self.shards[0], "backend", None) is not None
        self.series_cache: SeriesCache | None = (
            SeriesCache(series_cache_bytes)
            if series_cache_bytes and capable
            else None
        )

    # -- the host seam: per-table maintenance state -----------------------
    def table_epoch(self, name: str) -> tuple[int, ...]:
        return tuple(shard.table_epoch(name) for shard in self.shards)

    def table_version(self, name: str) -> tuple[int, ...]:
        return tuple(shard.table_version(name) for shard in self.shards)

    def tombstoned_rows(self, name: str) -> set[int]:
        """Deleted rows across the fleet, in global indices."""
        doomed: set[int] = set()
        for shard in self.shards:
            doomed |= shard.tombstoned_global_rows(name)
        return doomed

    # -- dynamic updates --------------------------------------------------
    def insert_row(
        self,
        table_name: str,
        ciphertext,
        payload: bytes,
        prefilter_tags: dict[str, bytes] | None = None,
    ) -> int:
        """Insert one client-encrypted row into the sharded store.

        The row lands on the shard the partitioner's hash names (same
        key function as :func:`~repro.shard.partition.partition_rows`,
        so a later repartition reproduces the placement), under a fresh
        global index past every shard's maximum.  Returns that global
        index.
        """
        layouts = [
            shard.layout
            for shard in self.shards
            if getattr(shard, "layout", None) is not None
        ]
        if not layouts:
            raise SchemeError(
                "cannot insert before any partitioned table is stored"
            )
        _, shard_count, seed = layouts[0]
        key = self.shards[0].row_key(ciphertext, prefilter_tags)
        target_index = shard_of_bytes(key, shard_count, seed)
        by_index = {
            shard.layout[0]: shard
            for shard in self.shards
            if getattr(shard, "layout", None) is not None
        }
        target = by_index.get(target_index)
        if target is None:
            raise SchemeError(
                f"no shard holds partition index {target_index}"
            )
        global_index = 1 + max(
            shard.max_global_index(table_name) for shard in self.shards
        )
        target.insert_row(
            table_name, ciphertext, payload, prefilter_tags, global_index
        )
        return global_index

    def delete_rows(self, table_name: str, global_indices) -> int:
        """Tombstone global rows wherever they live; returns the count
        of rows that existed somewhere."""
        return sum(
            shard.delete_rows(table_name, list(global_indices))
            for shard in self.shards
        )

    def _validate_layouts(self) -> None:
        layouts = [
            shard.layout
            for shard in self.shards
            if getattr(shard, "layout", None) is not None
        ]
        counts = {(count, seed) for _, count, seed in layouts}
        if len(counts) > 1:
            raise SchemeError(
                "shards disagree on the partition layout (count/seed); "
                "repartition the store explicitly with partition_table"
            )
        if counts:
            ((count, _),) = counts
            if count != len(self.shards):
                raise SchemeError(
                    f"tables were partitioned for {count} shards but the "
                    f"coordinator drives {len(self.shards)}; repartition "
                    "explicitly with partition_table — shard-count changes "
                    "are never implicit"
                )
            indices = [index for index, _, _ in layouts]
            if len(set(indices)) != len(indices):
                raise SchemeError(
                    "two shards claim the same shard index; each shard "
                    "must hold a distinct partition"
                )

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Close every shard (their pools / connections).  Idempotent."""
        for shard in self.shards:
            shard.close()

    @property
    def backend(self) -> BilinearBackend:
        return self.shards[0].backend

    # -- the host seam: execution ------------------------------------------
    def _payloads(self, query, entry) -> list[dict[int, bytes]]:
        """Payloads by chain position: what the scatter retained."""
        return entry.payloads

    def _open_sources(self, query, sides, exclude_rows, qos):
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
