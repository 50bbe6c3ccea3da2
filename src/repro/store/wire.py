"""Wire formats for the query-phase messages: one message family.

What crosses the client/server boundary at query time:

- the **query** (client -> server): a table name, an SJ token and an
  optional pre-filter tag set *per chain position*, plus the query's
  scheduling QoS (``priority`` and a relative ``deadline``).  A two-way
  join is the two-position case, answered like any chain;
- the **result stream frames** (server -> client): a stream-header
  frame naming the tables whose carried rows start over, repeated
  match-batch frames carrying index tuples in discovery order, and a
  final frame carrying the tuple count plus
  :class:`~repro.core.server.ServerStats` — so a remote client receives
  matched rows while SJ.Dec is still running.  The canonical order is
  lexicographic by definition, so the final frame does not repeat the
  tuples: the receiver sorts what the batches delivered.  Match batches
  are **row-referenced**: a tuple names its rows, and a row's payload
  travels once per connection and table epoch, in the first frame whose
  tuples name it — per chain position three runs (row indices in
  first-reference order, payload lengths, the payloads concatenated).
  The encoder is handed the sender's sets of delivered rows;
  :func:`decode_frame` stays stateless and :class:`StreamReassembler`
  resolves rows to payloads across frames (and, given the receiver's
  row state, across the queries of one connection).  Failures travel
  in-stream as an error frame;
- the **scatter frames** (shard -> coordinator): scatter-chunk frames
  carrying one side's decrypted handle events with the chain positions
  that consume them, and a scatter-final frame with the per-side
  candidate counts and engine reports.

Together with :mod:`repro.store.tables` this lets the two parties run in
separate processes (or machines) with nothing but byte strings between
them — the deployment model of the paper's system.  :mod:`repro.net`
carries these bytes over TCP.

There is exactly one wire version: every message is stamped with it,
and any other version byte is rejected by name.  Every decoder here
treats its input as hostile: counts, sizes and header fields are
validated against the payload actually present *before* any allocation
or body read, and every failure — truncation, corruption, type
confusion — raises :class:`~repro.errors.SchemeError`.  Nothing else may
escape: the network service feeds these decoders bytes from arbitrary
remote peers.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import accumulate, chain

from repro.core.client import EncryptedChainQuery
from repro.core.engine import EngineReport
from repro.core.scheme import SJToken
from repro.core.server import (
    ChainMatchBatch,
    EncryptedChainResult,
    ServerStats,
    gather_payloads,
)
from repro.plan import MAX_CHAIN_TABLES
from repro.crypto.backend import BilinearBackend
from repro.errors import SchemeError
from repro.store.codec import (
    Reader,
    Writer,
    read_element_vector,
    read_header,
    write_element_vector,
    write_header,
)

_QUERY_MAGIC = b"RPROJQRY"
_FRAME_MAGIC = b"RPROJFRM"
#: The one wire version, stamped on every message of every kind; a
#: peer speaking any other is rejected by :func:`read_header`.
_VERSION = 12
_TAG_SIZE = 32

#: Priority magnitude cap: wire-supplied priorities are clamped into a
#: sane range so a hostile header cannot smuggle unbounded integers
#: into the scheduler's comparisons.
MAX_PRIORITY_MAGNITUDE = 2**16

#: Frame kind tags (the ``kind`` header field of ``RPROJFRM`` payloads).
FRAME_STREAM_HEADER = "stream_header"
FRAME_MATCH_BATCH = "match_batch"
FRAME_FINAL = "final"
FRAME_ERROR = "error"
FRAME_SCATTER_CHUNK = "scatter_chunk"
FRAME_SCATTER_FINAL = "scatter_final"


# -- header field validation ----------------------------------------------


def _require(header: dict, key: str):
    try:
        return header[key]
    except KeyError:
        raise SchemeError(
            f"header is missing required field {key!r}"
        ) from None


def _as_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise SchemeError(
            f"header field {key!r} must be a string, got "
            f"{type(value).__name__}"
        )
    return value


def _as_int(value, key: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemeError(
            f"header field {key!r} must be an integer, got "
            f"{type(value).__name__}"
        )
    if minimum is not None and value < minimum:
        raise SchemeError(
            f"header field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _as_dict(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise SchemeError(
            f"header field {key!r} must be an object, got "
            f"{type(value).__name__}"
        )
    return value


def _as_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise SchemeError(
            f"header field {key!r} must be a list, got "
            f"{type(value).__name__}"
        )
    return value


def _as_str_list(value, key: str) -> list[str]:
    if not all(isinstance(item, str) for item in _as_list(value, key)):
        raise SchemeError(f"header field {key!r} must be a list of strings")
    return value


def _qos_fields(header: dict) -> tuple[int, float | None]:
    """Validate the ``priority`` / ``deadline`` header fields.

    ``deadline`` is *relative*: a per-query time budget in seconds,
    stamped against the receiving server's clock at admission — clients
    and servers need not agree on wall-clock time.
    """
    priority = _as_int(_require(header, "priority"), "priority")
    if abs(priority) > MAX_PRIORITY_MAGNITUDE:
        raise SchemeError(
            f"priority {priority} outside "
            f"[-{MAX_PRIORITY_MAGNITUDE}, {MAX_PRIORITY_MAGNITUDE}]"
        )
    deadline = _require(header, "deadline")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(
            deadline, (int, float)
        ):
            raise SchemeError(
                "header field 'deadline' must be null or a number of "
                f"seconds, got {type(deadline).__name__}"
            )
        deadline = float(deadline)
        if not math.isfinite(deadline) or deadline <= 0.0:
            raise SchemeError(
                f"deadline must be a positive finite number of seconds, "
                f"got {deadline}"
            )
    return priority, deadline


def _chain_tables(header: dict) -> tuple[str, ...]:
    """The ``tables`` header field: one name per chain position."""
    tables = _as_str_list(_require(header, "tables"), "tables")
    if not 2 <= len(tables) <= MAX_CHAIN_TABLES:
        raise SchemeError(
            f"a query names 2..{MAX_CHAIN_TABLES} tables, got {len(tables)}"
        )
    return tuple(tables)


# -- query -----------------------------------------------------------------


def _write_prefilter(
    writer: Writer, prefilter: dict[str, frozenset[bytes]] | None
) -> list[str] | None:
    if prefilter is None:
        return None
    columns = sorted(prefilter)
    for column in columns:
        write_element_vector(writer, sorted(prefilter[column]), _TAG_SIZE)
    return columns


def encode_join_query(
    query: EncryptedChainQuery, backend: BilinearBackend
) -> bytes:
    """Serialize the client's query message (one token per position).

    Token bytes are preserved exactly, so positions that shared a token
    object on the client still share byte-identical tokens after a
    round trip — the identity the server's handle pool groups by.
    """
    writer = Writer()
    body = Writer()
    for token in query.tokens:
        write_element_vector(
            body,
            [backend.encode_g1(e) for e in token.elements],
            backend.g1_element_size,
        )
    prefilter_columns = [
        _write_prefilter(body, prefilter) for prefilter in query.prefilters
    ]
    header = {
        "query_id": query.query_id,
        "tables": list(query.tables),
        "backend": backend.name,
        "g1_element_size": backend.g1_element_size,
        "prefilter_columns": prefilter_columns,
        "priority": query.priority,
        "deadline": query.deadline,
    }
    write_header(writer, _QUERY_MAGIC, _VERSION, header)
    writer.raw(body.getvalue())
    return writer.getvalue()


def decode_join_query(
    data: bytes, backend: BilinearBackend
) -> EncryptedChainQuery:
    """Inverse of :func:`encode_join_query` (validating)."""
    reader = Reader(data)
    header = read_header(reader, _QUERY_MAGIC, _VERSION)
    header_backend = _as_str(_require(header, "backend"), "backend")
    if header_backend != backend.name:
        raise SchemeError(
            f"query was built for backend {header_backend!r}, "
            f"cannot decode with {backend.name!r}"
        )
    # The encoder wrote the element size its backend produced; a
    # mismatch means the two ends run differently parameterized
    # backends, and reading the token vectors with the local size would
    # fail with a misleading truncated-blob/trailing-bytes error deep in
    # the body (or worse, mis-slice into garbage elements).
    declared_size = _as_int(
        _require(header, "g1_element_size"), "g1_element_size", minimum=1
    )
    if declared_size != backend.g1_element_size:
        raise SchemeError(
            f"query tokens carry {declared_size}-byte G1 elements, but "
            f"backend {backend.name!r} uses "
            f"{backend.g1_element_size}-byte elements (mismatched backend "
            "parameterization)"
        )
    tables = _chain_tables(header)
    priority, deadline = _qos_fields(header)
    prefilter_columns = _as_list(
        _require(header, "prefilter_columns"), "prefilter_columns"
    )
    if len(prefilter_columns) != len(tables):
        raise SchemeError(
            "header field 'prefilter_columns' must list one entry per "
            "query table"
        )
    tokens = []
    for _ in tables:
        raw = read_element_vector(reader, backend.g1_element_size)
        tokens.append(SJToken(tuple(backend.decode_g1(e) for e in raw)))
    prefilters = []
    for position, columns in enumerate(prefilter_columns):
        if columns is None:
            prefilters.append(None)
            continue
        prefilters.append({
            column: frozenset(read_element_vector(reader, _TAG_SIZE))
            for column in _as_str_list(
                columns, f"prefilter_columns[{position}]"
            )
        })
    reader.expect_end()
    return EncryptedChainQuery(
        query_id=_as_int(_require(header, "query_id"), "query_id"),
        tables=tables,
        tokens=tuple(tokens),
        prefilters=tuple(prefilters),
        priority=priority,
        deadline=deadline,
    )


# -- open records and index tuples -----------------------------------------


#: What a value of an open record's field may be, by the field's
#: declared type (a float may arrive whole; ``bool`` is never an int).
_FIELD_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "list | None": (list, type(None)),
    "dict | None": (dict, type(None)),
}


def _decode_record(record_type, value, key: str):
    """One of the wire's two open records — the stats block of a final
    frame, a side's engine report in a scatter final — as its
    dataclass.  Absent fields take the defaults and unknown ones are
    dropped; a present value of another type than its field declares is
    refused here, not where the host first adds to it."""
    record = _as_dict(value, key)
    fields = {}
    for field in dataclasses.fields(record_type):
        if field.name not in record:
            continue
        field_value = record[field.name]
        if isinstance(field_value, bool) or not isinstance(
            field_value, _FIELD_TYPES[field.type]
        ):
            raise SchemeError(
                f"{key} field {field.name!r} must be {field.type}, got "
                f"{type(field_value).__name__}"
            )
        fields[field.name] = field_value
    try:
        return record_type(**fields)
    except TypeError:
        raise SchemeError(f"{key} lacks a required field") from None


def _read_tuples(
    reader: Reader, header: dict, arity: int
) -> list[tuple[int, ...]]:
    """Read ``header["n_tuples"]`` index tuples of ``arity`` u32s each.

    The count is header-supplied and therefore untrusted: a negative
    value must not silently yield an empty range, and an absurdly large
    one must fail *before* any read.  Each tuple needs ``arity`` u32
    indices (4 bytes each), a floor that bounds any count a well-formed
    body could satisfy.
    """
    count = _as_int(_require(header, "n_tuples"), "n_tuples", minimum=0)
    if count * arity * 4 > reader.remaining:
        raise SchemeError(
            f"bad tuple count {count}: {count} index tuples need at "
            f"least {count * arity * 4} bytes, but only "
            f"{reader.remaining} remain"
        )
    # ``zip`` drawing ``arity`` times per tuple from one shared iterator.
    return list(zip(*[iter(reader.u32s(count * arity))] * arity))


# -- result stream frames --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StreamHeaderFrame:
    """Opens one result stream: identifies the query being answered,
    and names the tables whose carried rows start over — the receiver
    forgets every row of theirs it holds before the first batch."""

    query_id: int
    tables: tuple[str, ...]
    restart: tuple[str, ...] = ()


@dataclasses.dataclass
class MatchBatchFrame:
    """One streamed increment, as decoded: the index tuples (discovery
    order, at the arity of the query being answered) and, per chain
    position, ``{row: payload}`` for the rows this frame carries — the
    ones its sender had not carried before.  A tuple may name a row an
    earlier frame carried; :class:`StreamReassembler` resolves those."""

    tuples: list[tuple[int, ...]]
    rows: list[dict[int, bytes]]


@dataclasses.dataclass
class FinalFrame:
    """Closes a stream: the tuple count plus the server stats.

    Tuples and payloads already travelled in the match-batch frames;
    :class:`StreamReassembler` sorts them into the canonical
    (lexicographic) order and checks the count.
    """

    tables: tuple[str, ...]
    n_tuples: int
    stats: ServerStats


@dataclasses.dataclass(frozen=True)
class ErrorFrame:
    """A server-side failure, reported in-stream instead of a final frame."""

    error_type: str
    message: str


def encode_stream_header(
    query_id: int, *tables: str, restart: tuple[str, ...] = ()
) -> bytes:
    writer = Writer()
    write_header(writer, _FRAME_MAGIC, _VERSION, {
        "kind": FRAME_STREAM_HEADER,
        "query_id": query_id,
        "tables": list(tables),
        "restart": list(restart),
    })
    return writer.getvalue()


def encode_match_batch(
    batch: ChainMatchBatch, sent: list[set[int]] | None = None
) -> bytes:
    """One match-batch frame: the tuples as one flat u32 run, then per
    chain position the rows its sender has not carried yet — their
    indices in first-reference order, their payload lengths, their
    payloads concatenated.

    ``sent`` is the sender's state: per position, the rows earlier
    frames delivered; the rows this frame carries are added to it.
    Positions that name one table may share one set, and then a row
    travels once for all of them.  Without it the frame starts from a
    fresh state and is self-contained.
    """
    tuples = batch.tuples
    if len(batch.payloads) != len(tuples):
        raise SchemeError("match batch with mismatched payload counts")
    if sent is None:
        # An empty batch has no tuple to read the arity from; any valid
        # one describes its empty body.
        sent = [set() for _ in range(len(tuples[0]) if tuples else 2)]
    elif tuples and len(tuples[0]) != len(sent):
        raise SchemeError(
            f"match batch of arity {len(tuples[0])} on a stream of arity "
            f"{len(sent)}"
        )
    fresh: list[dict[int, bytes]] = []
    for delivered, rows, payloads in zip(
        sent, zip(*tuples), zip(*batch.payloads)
    ):
        # First-reference order, each row once; a row's payload is its
        # stored blob, the same bytes in every tuple that names it.
        new = {
            row: payload
            for row, payload in zip(rows, payloads)
            if row not in delivered
        }
        delivered.update(new)
        fresh.append(new)
    fresh += [{}] * (len(sent) - len(fresh))
    writer = Writer()
    write_header(writer, _FRAME_MAGIC, _VERSION, {
        "kind": FRAME_MATCH_BATCH,
        "arity": len(sent),
        "n_tuples": len(tuples),
        "n_rows": [len(new) for new in fresh],
    })
    writer.u32s(list(chain.from_iterable(tuples)))
    for new in fresh:
        writer.u32s(list(new))
        writer.u32s(list(map(len, new.values())))
        writer.raw(b"".join(new.values()))
    return writer.getvalue()


def encode_final_frame(result: EncryptedChainResult) -> bytes:
    """The stream's closing frame: the tuple count and the stats."""
    writer = Writer()
    write_header(writer, _FRAME_MAGIC, _VERSION, {
        "kind": FRAME_FINAL,
        "tables": list(result.tables),
        "n_tuples": len(result.tuples),
        "stats": dataclasses.asdict(result.stats),
    })
    return writer.getvalue()


def encode_error_frame(error_type: str, message: str) -> bytes:
    writer = Writer()
    write_header(writer, _FRAME_MAGIC, _VERSION, {
        "kind": FRAME_ERROR,
        "error_type": error_type,
        "message": message,
    })
    return writer.getvalue()


# -- scatter frames --------------------------------------------------------


@dataclasses.dataclass
class ScatterChunkFrame:
    """One shard's decrypt increment: global-index handle events.

    ``items`` holds ``(global_row_index, handle, payload)`` tuples for
    one distinct ``(table, token)`` side, and ``positions`` the chain
    positions that consume it — exactly the event stream the
    coordinator's merged executor consumes, so a remote shard is
    interchangeable with a local one.
    """

    positions: tuple[int, ...]
    items: list[tuple[int, bytes, bytes]]


@dataclasses.dataclass
class ScatterFinalFrame:
    """Closes one shard's scatter: per distinct side, in the order the
    shard opened them, the candidate count and the engine report."""

    candidates: list[int]
    reports: list[EngineReport | None]


def encode_scatter_chunk(positions, items: list) -> bytes:
    writer = Writer()
    write_header(writer, _FRAME_MAGIC, _VERSION, {
        "kind": FRAME_SCATTER_CHUNK,
        "positions": list(positions),
        "n_rows": len(items),
    })
    for row, handle, payload in items:
        writer.u32(row)
        writer.blob(handle)
        writer.blob(payload)
    return writer.getvalue()


def encode_scatter_final(final: ScatterFinalFrame) -> bytes:
    writer = Writer()
    write_header(writer, _FRAME_MAGIC, _VERSION, {
        "kind": FRAME_SCATTER_FINAL,
        "candidates": list(final.candidates),
        "reports": [
            None if report is None else dataclasses.asdict(report)
            for report in final.reports
        ],
    })
    return writer.getvalue()


def _decode_scatter_chunk(reader: Reader, header: dict) -> ScatterChunkFrame:
    positions = [
        _as_int(position, "positions", minimum=0)
        for position in _as_list(_require(header, "positions"), "positions")
    ]
    if (
        not positions
        or len(set(positions)) != len(positions)
        or max(positions) >= MAX_CHAIN_TABLES
    ):
        raise SchemeError(
            f"a scatter chunk feeds 1..{MAX_CHAIN_TABLES} distinct chain "
            f"positions below {MAX_CHAIN_TABLES}, got {positions}"
        )
    n_rows = _as_int(_require(header, "n_rows"), "n_rows", minimum=0)
    # Each row needs at least a u32 index plus two blob length prefixes
    # (12 bytes), so remaining//12 bounds any count a well-formed body
    # could satisfy — checked before any per-row allocation.
    if n_rows * 12 > reader.remaining:
        raise SchemeError(
            f"bad row count {n_rows}: {n_rows} scatter rows need at "
            f"least {n_rows * 12} bytes, but only {reader.remaining} remain"
        )
    items = [
        (reader.u32(), reader.blob(), reader.blob()) for _ in range(n_rows)
    ]
    reader.expect_end()
    return ScatterChunkFrame(positions=tuple(positions), items=items)


def _decode_scatter_final(header: dict) -> ScatterFinalFrame:
    candidates = _as_list(_require(header, "candidates"), "candidates")
    reports = _as_list(_require(header, "reports"), "reports")
    if not 1 <= len(candidates) <= MAX_CHAIN_TABLES or len(reports) != len(
        candidates
    ):
        raise SchemeError(
            f"a scatter final carries one candidate count and one report "
            f"for each of its 1..{MAX_CHAIN_TABLES} sides"
        )
    return ScatterFinalFrame(
        candidates=[
            _as_int(count, "candidates", minimum=0) for count in candidates
        ],
        reports=[
            None
            if report is None
            else _decode_record(EngineReport, report, f"reports[{side}]")
            for side, report in enumerate(reports)
        ],
    )


def _decode_match_batch(reader: Reader, header: dict) -> MatchBatchFrame:
    arity = _as_int(_require(header, "arity"), "arity", minimum=2)
    if arity > MAX_CHAIN_TABLES:
        raise SchemeError(
            f"batch arity {arity} exceeds the cap {MAX_CHAIN_TABLES}"
        )
    tuples = _read_tuples(reader, header, arity)
    n_rows = [
        _as_int(count, "n_rows", minimum=0)
        for count in _as_list(_require(header, "n_rows"), "n_rows")
    ]
    # A carried row needs at least its u32 index and its u32 length, so
    # remaining//8 bounds any counts a well-formed body could satisfy —
    # checked before any per-row allocation.
    if len(n_rows) != arity or sum(n_rows) * 8 > reader.remaining:
        raise SchemeError(
            f"bad row counts {n_rows}: a batch of arity {arity} carries "
            f"{arity} row runs of at least 8 bytes per row, and only "
            f"{reader.remaining} bytes remain"
        )
    rows: list[dict[int, bytes]] = []
    for count in n_rows:
        indices = reader.u32s(count)
        ends = list(accumulate(reader.u32s(count)))
        blob = reader.take(ends[-1] if ends else 0)
        carried = dict(zip(
            indices, map(blob.__getitem__, map(slice, [0] + ends, ends))
        ))
        if len(carried) != count:
            raise SchemeError("match batch carries a row more than once")
        rows.append(carried)
    reader.expect_end()
    return MatchBatchFrame(tuples, rows)


def decode_frame(
    data: bytes,
) -> (
    StreamHeaderFrame
    | MatchBatchFrame
    | FinalFrame
    | ErrorFrame
    | ScatterChunkFrame
    | ScatterFinalFrame
):
    """Decode one result-stream or scatter frame (validating)."""
    reader = Reader(data)
    header = read_header(reader, _FRAME_MAGIC, _VERSION)
    kind = _as_str(_require(header, "kind"), "kind")
    if kind == FRAME_STREAM_HEADER:
        reader.expect_end()
        tables = _chain_tables(header)
        restart = _as_str_list(_require(header, "restart"), "restart")
        if len(set(restart)) != len(restart) or not set(tables).issuperset(
            restart
        ):
            raise SchemeError(
                f"stream header restarts {restart}: each of the tables "
                f"{list(tables)} it names at most once"
            )
        return StreamHeaderFrame(
            query_id=_as_int(_require(header, "query_id"), "query_id"),
            tables=tables,
            restart=tuple(restart),
        )
    if kind == FRAME_MATCH_BATCH:
        return _decode_match_batch(reader, header)
    if kind == FRAME_FINAL:
        reader.expect_end()
        return FinalFrame(
            tables=_chain_tables(header),
            n_tuples=_as_int(
                _require(header, "n_tuples"), "n_tuples", minimum=0
            ),
            stats=_decode_record(
                ServerStats, _require(header, "stats"), "stats"
            ),
        )
    if kind == FRAME_ERROR:
        reader.expect_end()
        return ErrorFrame(
            error_type=_as_str(
                _require(header, "error_type"), "error_type"
            ),
            message=_as_str(_require(header, "message"), "message"),
        )
    if kind == FRAME_SCATTER_CHUNK:
        return _decode_scatter_chunk(reader, header)
    if kind == FRAME_SCATTER_FINAL:
        reader.expect_end()
        return _decode_scatter_final(header)
    raise SchemeError(f"unknown frame kind {kind!r}")


class StreamReassembler:
    """Rebuild the canonical answer to ``query`` from its frame stream.

    Built from the stream's header frame, it takes each decoded batch
    frame in :meth:`add_batch` and closes with :meth:`finish`.  Match-batch
    frames deliver tuples in discovery order and each row's payload once,
    in the first frame that names it; the canonical order is
    lexicographic, so :meth:`finish` sorts what the batches delivered,
    and the final frame says how many tuples that must be.  The result
    is byte-identical, up to run-dependent stats, to what the in-process
    ``execute_join`` / ``execute_chain`` would have returned.

    Rows resolve through ``rows``, the receiver's row state: per table
    name, ``{row: payload}`` for every row the sender carried, so the
    positions that name one table read one map.  A connection keeps one
    such state across its queries (:class:`~repro.net.RemoteJoinClient`
    does), and the sender carries a row only once per table epoch; the
    header's ``restart`` tables are forgotten first.  Built without one,
    the reassembler starts empty.  Every tuple naming a row — in this
    answer and in every later one read through the same state — gets the
    *same* ``bytes`` object for it.

    Every frame must answer *this* query: a header naming other tables
    or restarting one the query does not name, a frame or tuple of
    another arity, a row carried twice, a tuple naming a row no frame
    carried, a tuple delivered twice, a final frame naming other tables
    or another count, all raise :class:`~repro.errors.SchemeError`.
    """

    def __init__(
        self,
        query: EncryptedChainQuery,
        header: StreamHeaderFrame,
        rows: dict[str, dict[int, bytes]] | None = None,
    ):
        self._tables = tuple(query.tables)
        if header.tables != self._tables or not set(
            self._tables
        ).issuperset(header.restart):
            raise SchemeError(
                f"stream header over {header.tables} restarting "
                f"{header.restart} opens no answer to a query over "
                f"{self._tables}"
            )
        held = {} if rows is None else rows
        for name in header.restart:
            held.pop(name, None)
        #: Per chain position, its table's map in the row state.
        self._rows = [held.setdefault(name, {}) for name in self._tables]
        #: Every tuple delivered so far, with its resolved payloads.
        self._delivered: dict[tuple[int, ...], tuple[bytes, ...]] = {}

    def add_batch(self, frame: MatchBatchFrame) -> ChainMatchBatch:
        """Check and retain one decoded batch frame; returns its batch,
        payloads resolved."""
        arity = len(self._tables)
        tuples = frame.tuples
        if len(frame.rows) != arity or not set(map(len, tuples)) <= {arity}:
            raise SchemeError(
                f"match batch of another arity in the answer to a "
                f"{arity}-table query"
            )
        for carried, new in zip(self._rows, frame.rows):
            if not carried.keys().isdisjoint(new):
                raise SchemeError("stream carried a row more than once")
            carried.update(new)
        try:
            payloads = gather_payloads(tuples, self._rows)
        except KeyError as missing:
            raise SchemeError(
                f"match batch names row {missing.args[0]} that no frame "
                "carried"
            ) from None
        delivered = self._delivered
        expected = len(delivered) + len(tuples)
        delivered.update(zip(tuples, payloads))
        if len(delivered) != expected:
            raise SchemeError("stream delivered a tuple more than once")
        return ChainMatchBatch(tuples, payloads)

    def finish(self, final: FinalFrame) -> EncryptedChainResult:
        """The canonical result: the delivered tuples, sorted."""
        if tuple(final.tables) != self._tables:
            raise SchemeError(
                f"final frame answers a query over {tuple(final.tables)}, "
                f"expected {self._tables}"
            )
        delivered = self._delivered
        if final.n_tuples != len(delivered):
            raise SchemeError(
                f"stream delivered {len(delivered)} tuples but the "
                f"final frame claims {final.n_tuples}"
            )
        tuples = sorted(delivered)
        return EncryptedChainResult(
            tables=self._tables,
            tuples=tuples,
            payloads=list(map(delivered.__getitem__, tuples)),
            stats=final.stats,
        )
