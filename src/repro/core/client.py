"""The client side of the outsourced-database protocol.

The client owns every secret: the IPE matrices (via the scheme master
key), the payload encryption keys and the pre-filter tag keys.  It
encrypts tables for upload, turns :class:`~repro.db.query.JoinQuery`
objects into tokens, and decrypts join results returned by the server.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field
from operator import add

from repro.core.encoding import VectorLayout
from repro.core.scheme import (
    SecureJoinParams,
    SecureJoinScheme,
    SJMasterKey,
    SJRowCiphertext,
    SJToken,
    encrypt_chunk,
)
from repro.crypto.backend import SJ_ENC, BilinearBackend, goes_to_pool
from repro.crypto.hashing import PrekeyedHmac, derive_key
from repro.crypto.symmetric import SymmetricCipher
from repro.db.join import chain_schema
from repro.db.query import ChainQuery, JoinQuery, TableSelection
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import QueryError, SchemeError


@dataclass
class EncryptedTable:
    """Everything the server stores for one uploaded table.

    The schema and column names are treated as public metadata (as in
    the paper's system model); cell contents live only inside the SJ
    ciphertexts (join/selection structure) and the symmetric payloads.
    """

    name: str
    schema: Schema
    join_column: str
    attribute_columns: tuple[str, ...]
    ciphertexts: list[SJRowCiphertext]
    payloads: list[bytes]
    prefilter_tags: dict[str, list[bytes]] | None = None
    #: Per-row pairing precomputation
    #: (:class:`~repro.crypto.backend.PreparedRow`), built server-side
    #: by ``prepare_table`` / at ``save_encrypted_table`` time.  Purely
    #: derived from the ciphertexts — never secret material.
    prepared_rows: list | None = None
    #: Set when this table is one shard of a hash-partitioned table: a
    #: :class:`~repro.shard.partition.ShardDescriptor` mapping local
    #: rows back to global indices and pinning the layout (shard count
    #: and partitioner seed) the split was made under.  ``None`` for an
    #: unsharded table.
    shard: "object | None" = None

    def __len__(self) -> int:
        return len(self.ciphertexts)


@dataclass(frozen=True)
class EncryptedChainQuery:
    """The query-phase message from client to server, by chain position.

    One token per position, all under a *single* query key — that is
    what makes every position's handles mutually comparable and lets
    the server's handle pool decrypt each distinct ``(table, token)``
    side exactly once, however many positions share it.  ``prefilters``
    are positional (``None`` = no pre-filter).

    ``priority`` and ``deadline`` are the query's scheduling QoS:
    higher-priority queries get dispatch preference when concurrent
    queries share the server's worker pool, and ``deadline`` is a
    *relative* time budget in seconds — the server stamps it against
    its own clock at admission and cancels the query (releasing its
    pool admissions) once the budget is exhausted.  Both are advisory
    scheduling inputs, not security boundaries.
    """

    query_id: int
    tables: tuple[str, ...]
    tokens: tuple[SJToken, ...]
    prefilters: "tuple[dict[str, frozenset[bytes]] | None, ...]"
    priority: int = 0
    deadline: float | None = None


def position_view(name: str, position: int) -> property:
    """A read-only view of one chain position of a positional field."""
    return property(lambda self: getattr(self, name)[position])


class EncryptedJoinQuery(EncryptedChainQuery):
    """A two-way join's query as :meth:`SecureJoinClient.create_query`
    returns it: the two-table chain query, with the pair names of its
    two positions.  No fields of its own, and no other answer: the
    server answers it like any chain query."""

    left_table = position_view("tables", 0)
    right_table = position_view("tables", 1)
    left_token = position_view("tokens", 0)
    right_token = position_view("tokens", 1)
    left_prefilter = position_view("prefilters", 0)
    right_prefilter = position_view("prefilters", 1)


@dataclass
class DecryptedChainResult:
    """The client-side plaintext view of a chain join result."""

    table: Table
    index_tuples: list[tuple[int, ...]] = field(default_factory=list)


#: Bound on the result memo, in retained payload (ciphertext) bytes,
#: summed over a client's tables; at the cap the memo is cleared whole.
_MEMO_PAYLOAD_BYTES = 8 << 20

#: The largest chunk of a pooled upload (:func:`chunk_spans`): each one
#: carries ``B'`` and hashes its own distinct values.
_ENC_CHUNK_ROWS = 512


@dataclass(frozen=True)
class _ColumnPlan:
    """Where a table's SJ.Enc inputs sit in its rows: the join column's
    index, the attribute columns in attribute order and their indices,
    and the ``(column, index)`` pairs that get pre-filter tags
    (``None``: the table carries none).  Made once per table by
    ``encrypt_table``; ``encrypt_row_for`` reads it."""

    join: int
    columns: tuple[str, ...]
    attributes: tuple[int, ...]
    tagged: tuple[tuple[str, int], ...] | None


def _payload_plaintext(row) -> bytes:
    """What a row's payload encrypts (:func:`_decode_row` reads it)."""
    return json.dumps(list(row)).encode("utf-8")


def _encrypt_payloads(payload_key: bytes, rows) -> list[bytes]:
    """Each row's payload under its table's payload subkey."""
    cipher = SymmetricCipher(payload_key)
    return [cipher.encrypt(_payload_plaintext(row)) for row in rows]


def _encrypt_chunk(
    backend: BilinearBackend,
    layout: VectorLayout,
    basis,
    payload_key: bytes,
    chunk: tuple,
) -> tuple[list[tuple], list[bytes]]:
    """A pooled upload's worker: for a chunk of ``(encoded cells, draws,
    rows)`` (:meth:`SecureJoinScheme.encrypt_inputs`), the rows'
    ciphertext elements (:func:`encrypt_chunk`, the kernel the inline
    path runs too) and their payloads.  ``B'`` and the subkey are
    arguments, never kept past the call.  Elements travel back as plain
    tuples: a pickled :class:`SJRowCiphertext` unpickles into a larger
    object, and a parent that had unpickled 16 500 of them kept ~30 MB
    more resident once they were freed."""
    cells, draws, rows = chunk
    elements = list(encrypt_chunk(backend, layout, basis, cells, draws))
    return elements, _encrypt_payloads(payload_key, rows)


class SecureJoinClient:
    """Client: table encryption, token generation, result decryption."""

    def __init__(
        self,
        num_attributes: int,
        in_clause_limit: int = 10,
        backend: BilinearBackend | None = None,
        master_secret: bytes | None = None,
        rng: random.Random | None = None,
        enable_prefilter: bool = False,
        prefilter_columns: tuple[str, ...] | None = None,
    ):
        self.params = SecureJoinParams(
            num_attributes=num_attributes,
            in_clause_limit=in_clause_limit,
            backend_name=backend.name if backend is not None else "fast",
        )
        self.scheme = SecureJoinScheme(self.params, backend, rng)
        self.msk: SJMasterKey = self.scheme.setup()
        self._master_secret = (
            master_secret if master_secret is not None else os.urandom(32)
        )
        self.enable_prefilter = enable_prefilter
        # None means "tag every attribute column"; otherwise only the
        # listed columns get searchable tags (smaller upload, less leakage).
        self.prefilter_columns = prefilter_columns
        self._query_counter = 0
        self._tables: dict[str, EncryptedTable] = {}
        self._plans: dict[str, _ColumnPlan] = {}
        # Ciphers and tag HMACs by key label, each keyed once.
        self._keyed: dict[str, SymmetricCipher | PrekeyedHmac] = {}
        # The result memo, per table: payload bytes -> decoded row, for
        # payloads whose MAC verified — one that recurs in an answer or
        # in a later query of the series is decrypted once.
        self._memos: dict[str, dict[bytes, tuple]] = {}
        self._memo_bytes = 0
        self._memo_lock = threading.Lock()

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def for_tables(
        tables: list[tuple[Table, str]],
        in_clause_limit: int = 10,
        backend: BilinearBackend | None = None,
        rng: random.Random | None = None,
        enable_prefilter: bool = False,
        prefilter_columns: tuple[str, ...] | None = None,
    ) -> "SecureJoinClient":
        """Build a client sized for a set of ``(table, join_column)`` pairs.

        The scheme's m must cover the widest table; narrower tables are
        padded transparently.
        """
        if not tables:
            raise SchemeError("need at least one table")
        num_attributes = max(len(t.schema) - 1 for t, _ in tables)
        return SecureJoinClient(
            num_attributes=num_attributes,
            in_clause_limit=in_clause_limit,
            backend=backend,
            rng=rng,
            enable_prefilter=enable_prefilter,
            prefilter_columns=prefilter_columns,
        )

    def _keyed_by(self, label: str, build):
        """``build(the subkey derived for label)``, built once per client."""
        keyed = self._keyed.get(label)
        if keyed is None:
            keyed = build(derive_key(self._master_secret, label))
            self._keyed[label] = keyed
        return keyed

    def _payload_key(self, table_name: str) -> bytes:
        return derive_key(self._master_secret, f"payload.{table_name}")

    def _payload_cipher(self, table_name: str) -> SymmetricCipher:
        return self._keyed_by(f"payload.{table_name}", SymmetricCipher)

    def _prefilter_mac(self, table_name: str, column: str) -> PrekeyedHmac:
        return self._keyed_by(f"prefilter.{table_name}.{column}", PrekeyedHmac)

    # -- upload phase -------------------------------------------------------
    def _column_plan(self, table: Table, join_column: str) -> _ColumnPlan:
        schema = table.schema
        join = schema.index_of(join_column)
        columns = tuple(c for c in schema.names() if c != join_column)
        if len(columns) > self.params.num_attributes:
            raise SchemeError(
                f"table {table.name!r} has {len(columns)} non-join "
                f"attributes but the scheme supports m="
                f"{self.params.num_attributes}"
            )
        tagged = None
        if self.enable_prefilter:
            tagged = tuple(
                (column, schema.index_of(column))
                for column in columns
                if self.prefilter_columns is None
                or column in self.prefilter_columns
            )
        return _ColumnPlan(
            join, columns, tuple(map(schema.index_of, columns)), tagged
        )

    def encrypt_table(self, table: Table, join_column: str) -> EncryptedTable:
        """Encrypt a plaintext table for upload (SJ.Enc on every row).

        Everything that can fail or draws runs here first, in row
        order: the column plan's m check, then each cell's encoding and
        each row's draws (:meth:`SecureJoinScheme.encrypt_inputs`).  The
        rest — hashing, ``w' B'`` and the group powers
        (:func:`~repro.core.scheme.encrypt_chunk`), then the payload
        cipher — runs over the whole table inline, or, where
        :func:`~repro.crypto.backend.goes_to_pool` sends SJ.Enc of its
        rows to the process's pool, as :func:`_encrypt_chunk` over
        :func:`~repro.core.service.chunk_spans` chunks there
        (:func:`~repro.core.service.process_pool`, held for this call
        only).  The ciphertexts are the same bytes either way, and
        the rng ends where ``len(table)`` calls of
        :meth:`SecureJoinScheme.encrypt_row` would leave it.
        """
        plan = self._column_plan(table, join_column)
        cells, draws = self.scheme.encrypt_inputs(
            (row[plan.join], [row[i] for i in plan.attributes])
            for row in table
        )
        layout, basis = self.params.layout, self.msk.reduced_basis
        payload_key = self._payload_key(table.name)
        from repro.core.service import default_width

        width = default_width()
        floors = self.scheme.backend.pool_floors
        if goes_to_pool(floors, SJ_ENC, len(table), width):
            ciphertexts, payloads = self._encrypt_pooled(
                (layout, basis, payload_key), cells, draws, list(table),
                width,
            )
        else:
            # Each ciphertext right after its elements, then the
            # payloads: the allocation order the query phase was tuned on.
            ciphertexts = [
                SJRowCiphertext(elements)
                for elements in encrypt_chunk(
                    self.scheme.backend, layout, basis, cells, draws
                )
            ]
            payloads = _encrypt_payloads(payload_key, table)
        prefilter = None
        if plan.tagged is not None:
            prefilter = {}
            for column, index in plan.tagged:
                tag = self._prefilter_mac(table.name, column).tag
                prefilter[column] = [tag(row[index]) for row in table]
        encrypted = EncryptedTable(
            name=table.name,
            schema=table.schema,
            join_column=join_column,
            attribute_columns=plan.columns,
            ciphertexts=ciphertexts,
            payloads=payloads,
            prefilter_tags=prefilter,
        )
        self._tables[table.name] = encrypted
        self._plans[table.name] = plan
        return encrypted

    def _encrypt_pooled(self, arguments, cells, draws, rows, width):
        """``(ciphertexts, payloads)`` of ``encrypt_table``'s rows from
        the process's pool ``width`` wide, one side cut by
        :func:`~repro.core.service.chunk_spans`.  The pool is held for
        this call: if nothing else holds it, its workers stop before
        this returns.  A chunk a dying worker held runs again on the
        same inputs, so it yields the same ciphertexts."""
        from repro.core.service import chunk_spans, process_pool

        backend = self.scheme.backend
        stride = self.params.num_attributes + 1
        spans = chunk_spans(len(rows), _ENC_CHUNK_ROWS, width)
        ciphertexts: list = [None] * len(rows)
        payloads: list = [None] * len(rows)
        pool = process_pool(backend, width)
        pool.attach()
        try:
            # Only the side holds a chunk's inputs, so each one is
            # freed once its result is in.
            side = pool.admit_kernel(
                backend, _encrypt_chunk, arguments, spans,
                [
                    (
                        cells[start * stride:stop * stride],
                        draws[2 * start:2 * stop],
                        rows[start:stop],
                    )
                    for start, stop in spans
                ],
            )
            try:
                for start, (elements, chunk_payloads) in (
                    pool.stream_chunks(side)
                ):
                    stop = start + len(elements)
                    ciphertexts[start:stop] = map(SJRowCiphertext, elements)
                    payloads[start:stop] = chunk_payloads
            finally:
                pool.release_side(side)
        finally:
            pool.detach()
        return ciphertexts, payloads

    def encrypt_row_for(
        self, table_name: str, row: tuple
    ) -> tuple[SJRowCiphertext, bytes, dict[str, bytes] | None]:
        """Encrypt one new row for a previously encrypted table.

        Returns ``(ciphertext, payload, prefilter_tags)`` ready for
        :meth:`~repro.core.server.SecureJoinServer.insert_row` — the
        dynamic-update path: the scheme is row-wise, so inserts need no
        re-encryption of existing data.  One row, inline, through the
        table's column plan.
        """
        encrypted = self._table(table_name)
        encrypted.schema.validate_row(tuple(row))
        plan = self._plans[table_name]
        [ciphertext] = self.scheme.encrypt_rows(
            self.msk,
            [(row[plan.join], [row[i] for i in plan.attributes])],
        )
        payload = self._payload_cipher(table_name).encrypt(
            _payload_plaintext(row)
        )
        tags = None
        if plan.tagged is not None:
            tags = {
                column: self._prefilter_mac(table_name, column).tag(
                    row[index]
                )
                for column, index in plan.tagged
            }
        return ciphertext, payload, tags

    # -- query phase -----------------------------------------------------
    def _table(self, name: str) -> EncryptedTable:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"table {name!r} was not encrypted by this client") from None

    def _selection_by_position(
        self, encrypted: EncryptedTable, selection: TableSelection
    ) -> dict[int, tuple]:
        positions = {c: i for i, c in enumerate(encrypted.attribute_columns)}
        result: dict[int, tuple] = {}
        for column, values in selection.in_clauses:
            if column == encrypted.join_column:
                raise QueryError(
                    f"selection on join column {column!r} is not supported"
                )
            if column not in positions:
                raise QueryError(
                    f"unknown selection column {column!r} in table "
                    f"{encrypted.name!r}"
                )
            result[positions[column]] = values
        return result

    def _prefilter_tokens(
        self, encrypted: EncryptedTable, selection: TableSelection
    ) -> dict[str, frozenset[bytes]] | None:
        if not self.enable_prefilter or selection.is_empty:
            return None
        tokens: dict[str, frozenset[bytes]] = {}
        for column, values in selection.in_clauses:
            if (
                self.prefilter_columns is not None
                and column not in self.prefilter_columns
            ):
                # The column carries no searchable tags; the polynomial
                # encoding in the SJ token still enforces the selection.
                continue
            tag = self._prefilter_mac(encrypted.name, column).tag
            tokens[column] = frozenset(tag(v) for v in values)
        return tokens or None

    @staticmethod
    def _validate_qos(priority: int, deadline: float | None) -> None:
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise QueryError("priority must be an integer")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise QueryError(
                "deadline must be a positive number of seconds (or None)"
            )

    def create_query(
        self,
        query: JoinQuery,
        priority: int = 0,
        deadline: float | None = None,
    ) -> EncryptedJoinQuery:
        """SJ.TokenGen for a two-way join: :meth:`create_chain_query`
        over its two positions, with their pair names."""
        chain = self.create_chain_query(
            ChainQuery(
                tables=(query.left_table, query.right_table),
                join_columns=(query.left_join_column, query.right_join_column),
                selections=(query.left_selection, query.right_selection),
            ),
            priority,
            deadline,
        )
        return EncryptedJoinQuery(**vars(chain))

    def create_chain_query(
        self,
        query: ChainQuery,
        priority: int = 0,
        deadline: float | None = None,
    ) -> EncryptedChainQuery:
        """SJ.TokenGen for every chain position under *one* query key.

        A single query key makes every position's handles mutually
        comparable — the property the server's multi-way planner and
        handle pool build on.  Within one chain, repeated
        ``(table, selection)`` positions reuse the *same* token object
        (token generation is randomized, so regenerating would defeat
        the server's byte-level side dedup without changing semantics)
        — except where every position is one ``(table, selection)``
        with a non-empty selection.  Under one token a row the
        selection rejects decrypts to a handle only that row has, at
        every position reading it: where no other side's handle can
        rule it out, it would join itself.  There each position gets a
        token of its own.

        ``priority`` (higher runs sooner under contention) and
        ``deadline`` (a relative time budget in seconds; the server
        cancels the query when it is exhausted) are the query's
        scheduling QoS — validated here so malformed values fail on the
        client side instead of as a server-side decode error.
        """
        self._validate_qos(priority, deadline)
        if query.max_in_size() > self.params.in_clause_limit:
            raise QueryError(
                f"IN clause of size {query.max_in_size()} exceeds the "
                f"scheme bound t={self.params.in_clause_limit}"
            )
        encrypted_tables = []
        for table_name, join_column in zip(query.tables, query.join_columns):
            encrypted = self._table(table_name)
            if join_column != encrypted.join_column:
                raise QueryError(
                    f"table {encrypted.name!r} was encrypted with join "
                    f"column {encrypted.join_column!r}, not {join_column!r}"
                )
            encrypted_tables.append(encrypted)
        keys = [
            (encrypted.name, selection.in_clauses)
            for encrypted, selection in zip(encrypted_tables, query.selections)
        ]
        shared = len(set(keys)) > 1 or not keys[0][1]
        query_key = self.scheme.new_query_key()
        token_cache: dict[tuple, SJToken] = {}
        tokens: list[SJToken] = []
        prefilters: list[dict[str, frozenset[bytes]] | None] = []
        for cache_key, encrypted, selection in zip(
            keys, encrypted_tables, query.selections
        ):
            token = token_cache.get(cache_key) if shared else None
            if token is None:
                token = self.scheme.token(
                    self.msk,
                    self._selection_by_position(encrypted, selection),
                    query_key,
                )
                token_cache[cache_key] = token
            tokens.append(token)
            prefilters.append(self._prefilter_tokens(encrypted, selection))
        self._query_counter += 1
        return EncryptedChainQuery(
            query_id=self._query_counter,
            tables=tuple(query.tables),
            tokens=tuple(tokens),
            prefilters=tuple(prefilters),
            priority=priority,
            deadline=float(deadline) if deadline is not None else None,
        )

    # -- result phase -----------------------------------------------------
    def decrypt_match_batch(
        self, left_table: str, right_table: str, batch
    ) -> list[tuple]:
        """Decrypt one streamed match batch of a two-way join:
        :meth:`decrypt_chain_batch` over the two tables."""
        return self.decrypt_chain_batch((left_table, right_table), batch)

    def decrypt_chain_batch(
        self, tables: "tuple[str, ...] | list[str]", batch
    ) -> list[tuple]:
        """Decrypt one streamed match batch into joined rows.

        The server's ``stream_join`` / ``stream_chain`` yield match
        batches while pairing is still running, and this turns each
        into plaintext joined rows immediately — the client sees first
        results before the join finishes.  ``batch.payloads`` carries
        one payload tuple per completed chain tuple, in chain-position
        order; repeated tables share their payload cipher (and memo) by
        name.
        """
        return self._decrypt_rows(tables, batch.payloads)

    def _decrypt_rows(self, tables, payload_tuples) -> list[tuple]:
        """The joined plaintext row of every payload tuple, through the
        result memo one chain position (column) at a time: a lookup per
        payload at C speed, and only a payload not seen before is
        decrypted.  A streamed answer names a row by one shared
        ``bytes`` object, whose hash is computed once and which hits
        the memo by identity."""
        joined = None
        for name, column in zip(tables, zip(*payload_tuples)):
            # _table: only tables this client encrypted
            cipher = self._payload_cipher(self._table(name).name)
            memo = self._memos.setdefault(name, {})
            rows = list(map(memo.get, column))
            if None in rows:
                for index, payload in enumerate(column):
                    if rows[index] is None:
                        # Admitted earlier in this very loop, perhaps.
                        row = memo.get(payload)
                        if row is None:
                            row = _decode_row(cipher.decrypt(payload))
                            self._remember(memo, payload, row)
                        rows[index] = row
            joined = rows if joined is None else map(add, joined, rows)
        return list(joined or ())

    def _remember(self, memo: dict[bytes, tuple], payload: bytes, row: tuple):
        """Admit a verified payload's row; clear every table's memo
        (in place: decrypt loops hold references) at the byte cap."""
        with self._memo_lock:
            self._memo_bytes += len(payload)
            if self._memo_bytes > _MEMO_PAYLOAD_BYTES:
                for table_memo in list(self._memos.values()):
                    table_memo.clear()
                self._memo_bytes = len(payload)
            memo[payload] = row

    def stream_decrypt_chain(self, tables, batches):
        """Decrypt an iterable of streamed match batches lazily.

        Yields ``(index_tuples, rows)`` per batch; wrap around
        ``server.stream_chain(...)`` for an end-to-end streaming join
        whose first rows arrive while the server is still decrypting.
        The wrapped generator's return value (the final encrypted
        result with its stats) is passed through as this generator's
        return value.
        """
        iterator = iter(batches)
        try:
            while True:
                try:
                    batch = next(iterator)
                except StopIteration as stop:
                    return stop.value
                yield list(batch.tuples), self.decrypt_chain_batch(
                    tables, batch
                )
        finally:
            # Abandoning this wrapper must deterministically close the
            # wrapped stream (server-side: releases pool admissions).
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def decrypt_chain_result(self, result) -> DecryptedChainResult:
        """Decrypt an encrypted chain result into a joined table.

        The schema follows the same prefix rule as the plaintext
        :func:`~repro.db.join.chain_join` reference, so both sides of a
        correctness check compare byte-for-byte.
        """
        encrypted = [self._table(name) for name in result.tables]
        schema = chain_schema(
            [t.name for t in encrypted], [t.schema for t in encrypted]
        )
        table = Table("join", schema)
        for row in self._decrypt_rows(result.tables, result.payloads):
            table.insert(row)
        return DecryptedChainResult(table, list(result.tuples))


def _decode_row(blob: bytes) -> tuple:
    return tuple(json.loads(blob.decode("utf-8")))
