"""The one encrypted store: tables, their write path and SJ.Dec streams.

A :class:`LocalShard` holds encrypted tables, their pre-filter tag
index, tombstones and the per-table counters the series cache checks
(an *epoch* per wholesale store, a *version* per insert or delete), and
opens SJ.Dec streams on the process's pool.  It never matches: the join
host (:class:`~repro.core.server.ShardCoordinator`) merges its stores'
streams — one store for a single server, several for a fleet.

Every row a store names is a *global* row, its index in the whole
table.  A table stored without a shard descriptor *is* the whole table:
no map is built or consulted.  A piece cut by
:func:`~repro.shard.partition.partition_table` keeps its rows' global
numbers and the inverse map, built once at :meth:`LocalShard.store`, so
an insert, a delete or an exclusion costs O(1) per row named.  A store
holds one layout ``(shard index, shard count, seed)`` — whole tables
are ``(0, 1, None)`` — and :func:`check_layout` refuses any other.
"""

from __future__ import annotations

from repro.core.client import EncryptedTable
from repro.core.engine import BatchedEngine, ExecutionEngine
from repro.core.pipeline import HandleSource
from repro.core.scheme import SecureJoinParams, SecureJoinScheme, SJToken
from repro.core.service import QueryQoS, default_width, process_pool
from repro.crypto.backend import BilinearBackend
from repro.errors import QueryError, SchemeError

#: The layout of a store of whole tables: the one shard of one.
_WHOLE_TABLE_LAYOUT = (0, 1, None)


def check_layout(expected, layout, holder: str) -> None:
    """Refuse a ``(shard index, shard count, seed)`` layout other than
    ``expected``: a store holds one partition, and a fleet's shard
    ``i`` holds partition ``i`` of as many as the fleet has shards."""
    if layout != expected:
        raise SchemeError(
            f"{holder} is partition {layout[0]}/{layout[1]} (seed "
            f"{layout[2]!r}) where {expected[0]}/{expected[1]} (seed "
            f"{expected[2]!r}) belongs; repartition explicitly with "
            "partition_table instead of mixing layouts"
        )


class _PiecePayloads:
    """A piece's payloads by global row, read in place."""

    __slots__ = ("payloads", "local")

    def __init__(self, payloads: list[bytes], local: dict[int, int]):
        self.payloads = payloads
        self.local = local

    def __getitem__(self, row: int) -> bytes:
        return self.payloads[self.local[row]]

    def get(self, row: int) -> bytes | None:
        index = self.local.get(row)
        return None if index is None else self.payloads[index]


class LocalShard:
    """One in-process store on the process pool ``workers`` wide (by
    default the CPUs the process may run on) that every store of that
    backend and width shares; ``workers=1`` never forks."""

    def __init__(
        self,
        params: SecureJoinParams,
        backend: BilinearBackend | None = None,
        engine: ExecutionEngine | None = None,
        workers: int | None = None,
        name: str | None = None,
    ):
        # The engine every side runs on, fixed here and nowhere else —
        # the resources it spends are the store's, so neither a caller
        # nor a client picks per query.  An instance, never a name.
        if engine is None:
            engine = BatchedEngine()
        elif not isinstance(engine, ExecutionEngine):
            raise QueryError(
                "engine must be an ExecutionEngine instance, not "
                f"{type(engine).__name__} {engine!r}"
            )
        self.name = name
        # The store only needs public parameters — never the master key.
        self.scheme = SecureJoinScheme(params, backend)
        self.execution_service = process_pool(
            self.scheme.backend,
            default_width() if workers is None else workers,
        )
        self._holds_pool = True
        if isinstance(engine, BatchedEngine):
            engine.bind_service(self.execution_service)
        self.engine = engine
        self._tables: dict[str, EncryptedTable] = {}
        # Inverted index over pre-filter tags: table -> column -> tag -> rows.
        self._tag_index: dict[str, dict[str, dict[bytes, list[int]]]] = {}
        # Deleted rows per table, as this store numbers them (tombstones).
        self._tombstones: dict[str, set[int]] = {}
        # Per-table epochs (bumped when a table is re-stored wholesale:
        # retained series state is garbage) and versions (bumped per
        # insert/delete: retained state is stale but delta-repairable).
        self._epochs: dict[str, int] = {}
        self._versions: dict[str, int] = {}
        # Per stored piece: its rows' global numbers, and the inverse.
        self._global_rows: dict[str, list[int]] = {}
        self._local_rows: dict[str, dict[int, int]] = {}
        #: ``(shard_index, shard_count, seed)`` once a table is stored.
        self.layout: tuple | None = None

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Let go of the pool; the last holder stops it.  Idempotent."""
        if self._holds_pool:
            self._holds_pool = False
            self.execution_service.detach()

    def __enter__(self) -> "LocalShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def backend(self) -> BilinearBackend:
        return self.scheme.backend

    # -- storage ------------------------------------------------------------
    def store(self, encrypted_table: EncryptedTable) -> None:
        """Store (or replace wholesale) a whole table or one piece."""
        descriptor = encrypted_table.shard
        layout = _WHOLE_TABLE_LAYOUT if descriptor is None else (
            descriptor.shard_index, descriptor.shard_count, descriptor.seed
        )
        name = encrypted_table.name
        if self.layout is None:
            self.layout = layout
        else:
            check_layout(self.layout, layout, f"table {name!r}")
        self._tables[name] = encrypted_table
        index: dict[str, dict[bytes, list[int]]] = {}
        if encrypted_table.prefilter_tags:
            for column, tags in encrypted_table.prefilter_tags.items():
                postings: dict[bytes, list[int]] = {}
                for row_index, tag in enumerate(tags):
                    postings.setdefault(tag, []).append(row_index)
                index[column] = postings
        self._tag_index[name] = index
        if descriptor is None:
            self._global_rows.pop(name, None)
            self._local_rows.pop(name, None)
        else:
            rows = list(descriptor.global_indices)
            self._global_rows[name] = rows
            self._local_rows[name] = {row: i for i, row in enumerate(rows)}
        # Re-storing replaces the table wholesale: a new epoch makes
        # every retained series entry for it unreachable, the mutation
        # counter restarts with the new contents, and the old table's
        # tombstones name none of its rows.
        self._epochs[name] = self._epochs.get(name, 0) + 1
        self._versions[name] = 0
        self._tombstones.pop(name, None)

    def holds(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> EncryptedTable:
        """The stored table (a piece's descriptor does not name rows
        inserted since it was stored)."""
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"server has no table {name!r}") from None

    def table_epoch(self, name: str) -> int:
        """The table's store generation (0 = never stored)."""
        return self._epochs.get(name, 0)

    def table_version(self, name: str) -> int:
        """The table's mutation counter within its current epoch."""
        return self._versions.get(name, 0)

    def row_end(self, name: str) -> int:
        """One past the largest global row of the table held here."""
        rows = self._global_rows.get(name)
        if rows is None:
            return len(self.table(name).ciphertexts)
        return rows[-1] + 1 if rows else 0

    def local_row(self, name: str, row: int) -> int | None:
        """Where global ``row`` of the table sits here (``None``: not
        held)."""
        local = self._local_rows.get(name)
        if local is not None:
            return local.get(row)
        return row if 0 <= row < len(self.table(name).ciphertexts) else None

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
        prefilter_tags: dict[str, bytes] | None,
        global_index: int,
    ) -> int:
        """Append one client-encrypted row as global row
        ``global_index``; returns it.

        The scheme is row-wise, so inserts are O(1): no existing
        ciphertext is touched and future queries cover the new row
        automatically.  A piece takes any global row past its largest;
        a whole table's rows are its own, so it takes only the next.  A
        refused insert changes nothing.
        """
        table = self.table(table_name)
        end = self.row_end(table_name)
        global_rows = self._global_rows.get(table_name)
        if global_index < end or (
            global_rows is None and global_index != end
        ):
            raise SchemeError(
                f"global row {global_index} cannot follow row {end - 1} "
                f"of {table_name!r}"
            )
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
        if global_rows is not None:
            global_rows.append(global_index)
            self._local_rows[table_name][global_index] = index
        self._versions[table_name] = self._versions.get(table_name, 0) + 1
        return global_index

    def delete_rows(self, table_name: str, indices) -> int:
        """Tombstone global rows: they stop participating in every
        future query.  Returns how many distinct rows were named.  A
        refused delete (any row not held here) tombstones none."""
        local = []
        for index in indices:
            row = self.local_row(table_name, index)
            if row is None:
                raise QueryError(
                    f"row index {index} out of range for {table_name!r}"
                )
            local.append(row)
        self._tombstones.setdefault(table_name, set()).update(local)
        if local:
            self._versions[table_name] = (
                self._versions.get(table_name, 0) + 1
            )
        return len(set(local))

    def tombstoned_rows(self, table_name: str) -> frozenset[int]:
        """The table's deleted global rows (delta-maintenance input)."""
        doomed = self._tombstones.get(table_name, ())
        global_rows = self._global_rows.get(table_name)
        if global_rows is None:
            return frozenset(doomed)
        return frozenset(global_rows[row] for row in doomed)

    # -- what the join drive reads ----------------------------------------
    def lend_payloads(self, table_name: str):
        """The table's payloads by global row, read in place: the stored
        list for a whole table, a view through the inverse map for a
        piece."""
        table = self.table(table_name)
        local = self._local_rows.get(table_name)
        if local is None:
            return table.payloads
        return _PiecePayloads(table.payloads, local)

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

    def open_side_stream(
        self,
        table_name: str,
        token: SJToken,
        prefilter: dict[str, frozenset[bytes]] | None = None,
        qos: QueryQoS | None = None,
        exclude_rows=None,
    ):
        """Open one side's decrypt stream: ``(rows, stream)``.

        The scatter building block: pre-filter and tombstones applied,
        then SJ.Dec streamed through this store's engine (and pool);
        the caller owns the stream and must close it.  ``rows`` are the
        global rows the stream's chunks decrypt, in order.
        ``exclude_rows`` (global rows) drops already-decrypted rows
        from the stream — the delta path: a coordinator with retained
        handles asks for only what it has not seen.
        """
        table = self.table(table_name)
        rows = self._candidates(table, prefilter)
        tombstones = self._tombstones.get(table_name)
        if tombstones:
            rows = [i for i in rows if i not in tombstones]
        global_rows = self._global_rows.get(table_name)
        if exclude_rows:
            if global_rows is not None:
                local = self._local_rows[table_name]
                exclude_rows = {
                    local[row] for row in exclude_rows if row in local
                }
            rows = [i for i in rows if i not in exclude_rows]
        stream = self.engine.decrypt_stream(
            self.scheme.backend,
            token.elements,
            self._side_ciphertexts(table, token, rows),
            qos=qos,
        )
        if global_rows is not None:
            rows = [global_rows[i] for i in rows]
        return rows, stream

    def open_sources(
        self,
        query,
        sides,
        exclude_rows=None,
        qos: QueryQoS | None = None,
    ):
        """One :class:`~repro.core.pipeline.HandleSource` per distinct
        ``(table, token)`` side of the query, emitting ``(global_row,
        handle)`` items and skipping the global rows in
        ``exclude_rows[i]``.  The query's QoS is stamped here unless the
        caller passes one.  A generator, so a caller that collects what
        it yields can close every opened stream even when a later side
        fails to open."""
        if qos is None:
            qos = QueryQoS.stamp(query)
        for index, side in enumerate(sides):
            rows, stream = self.open_side_stream(
                side.table,
                side.token,
                side.prefilter,
                qos,
                exclude_rows[index] if exclude_rows else None,
            )
            yield HandleSource(side.positions, stream, rows)
