"""Remote shards: the scatter half of a join served over TCP.

A :class:`ShardServiceServer` serves one :class:`~repro.shard.LocalShard`
behind a socket.  Every query it receives *is* a scatter request — a
shard endpoint has no other contract, so no wire flag is needed: the
response stream is a stream-header frame, one **scatter-chunk frame**
per decrypted handle chunk (the chain positions it feeds + global row
indices + handles + payloads, any side, in completion order), and one
**scatter-final frame** carrying the shard's per-side candidate counts
and engine reports.  Sides are positional, so a two-way join and a
longer chain scatter through the same frames.

:class:`RemoteShard` is the coordinator-side proxy: it satisfies the
same source protocol as a local shard, so
:class:`~repro.shard.ShardCoordinator` mixes in-process and remote
shards freely: a fleet is ``ShardCoordinator([RemoteShard(host, port,
backend), ...])``, shard ``i`` at position ``i``; no message describes
one.  One TCP connection per query, opened when the
coordinator scatters (that is the remote co-admission) and closed with
the stream — abandoning a merge mid-flight drops the socket, which the
shard's handler notices, releasing the shard's pool admissions.  The
proxy pulls its answer in the coordinator's thread with the join
client's reader (:func:`~repro.net.client.answer_frames`); it starts
no thread.

Exposure policy is inherited from :mod:`repro.net`: a shard socket can
reach exactly ``decode_join_query`` → ``open_sources``; store
mutation, pool controls and the leakage ledger are not on the wire.
"""

from __future__ import annotations

from repro.core.pipeline import round_robin
from repro.crypto.backend import BilinearBackend
from repro.errors import NetworkError, SchemeError, ShardUnavailableError
from repro.net.client import _error_from_frame, answer_frames, connect
from repro.net.protocol import send_message
from repro.net.server import JoinServiceServer
from repro.plan import group_chain_sides
from repro.series.cache import series_key
from repro.store.wire import (
    ErrorFrame,
    ScatterChunkFrame,
    ScatterFinalFrame,
    StreamHeaderFrame,
    encode_join_query,
    encode_scatter_chunk,
    encode_scatter_final,
    encode_stream_header,
)


class ShardServiceServer(JoinServiceServer):
    """A :class:`JoinServiceServer` whose queries scatter, not join.

    Reuses the whole connection/drain machinery of the join service;
    only the per-query handler differs: instead of running the match
    pipeline it streams the store's raw decrypt events, each item with
    its payload, so the coordinator can match centrally, on the store's
    own engine.  It serves a :class:`~repro.shard.LocalShard`; shutting
    the service down closes the store.
    """

    def _answer(self, query, held):
        """The encoded scatter frames for ``query``, lazily: every
        distinct side is opened (co-admitted on this shard's pool)
        before the stream header goes out, then their chunks are sent
        round-robin, then the per-side totals.  Every item carries its
        payload: a coordinator opens one connection per query, so the
        connection's row state ``held`` is never read."""
        store = self.join_server
        sides = group_chain_sides(query, series_key(query, store.backend))
        sources: list = []
        try:
            for source in store.open_sources(query, sides):
                sources.append(source)
            payloads = [store.lend_payloads(name) for name in query.tables]
            yield encode_stream_header(query.query_id, *query.tables)
            for positions, items in round_robin(sources):
                lent = payloads[positions[0]]
                yield encode_scatter_chunk(
                    positions,
                    [(row, handle, lent[row]) for row, handle in items],
                )
            yield encode_scatter_final(
                ScatterFinalFrame(
                    candidates=[source.decrypted for source in sources],
                    reports=[source.reports[0] for source in sources],
                )
            )
        finally:
            # Covers transport-failure exits: a dropped coordinator
            # socket releases this shard's pool admissions.
            for source in sources:
                source.close()


class RemoteShard:
    """Coordinator-side proxy for one :class:`ShardServiceServer`.

    Interchangeable with :class:`~repro.shard.LocalShard` inside a
    :class:`~repro.shard.ShardCoordinator`: ``open_sources`` yields one
    event source covering every side (the shard multiplexes them on one
    stream).  Candidate counts and engine reports arrive in the
    scatter-final frame, so they fold into the coordinator's stats
    exactly like a local shard's.  The partition layout of a remote
    shard is enforced server-side (its ``LocalShard.store`` did it);
    the coordinator's layout validation covers local shards only.
    """

    #: Remote shards have no locally known layout / per-side candidate
    #: counts up front; the coordinator treats ``None`` as "unknown".
    layout = None

    def __init__(
        self,
        host: str,
        port: int,
        backend: BilinearBackend,
        name: str | None = None,
    ):
        self.host = host
        self.port = port
        self.backend = backend
        self.name = name
        self._sources: set["_RemoteScatterSource"] = set()

    def describe(self) -> str:
        return self.name or f"{self.host}:{self.port}"

    def open_sources(self, query, sides, exclude_rows=None, qos=None):
        """Connect, send the query (the remote co-admission), and yield
        the single merged event source.  Only the query travels: the
        endpoint groups and opens the query's distinct sides itself
        (the grouping is a function of the query bytes, so it equals
        ``sides``), runs them on its own engine, and stamps the relative
        deadline the query carries against its own clock.
        (``exclude_rows`` is always empty here — a coordinator with a
        remote shard keeps no series cache.)"""
        source = _RemoteScatterSource(self, query)
        self._sources.add(source)
        yield source

    def close(self) -> None:
        """Drop every in-flight scatter connection.  Idempotent."""
        for source in list(self._sources):
            source.close()


class _RemoteScatterSource:
    """One scatter stream from one remote shard, as a merge source.

    Yields the ``(positions, items)`` events of the scatter-chunk
    frames and learns ``decrypted`` and ``reports`` when the
    scatter-final frame arrives.  Transport loss or an undecodable or
    out-of-protocol frame at any point raises
    :class:`~repro.errors.ShardUnavailableError`; server-reported
    failures re-raise as their local exception type (so a remote
    deadline is still a ``DeadlineError``).
    """

    #: No locally known candidate rows up front — see RemoteShard.
    rows = None

    def __init__(self, shard: RemoteShard, query):
        self.shard = shard
        self.query = query
        self.decrypted: int | None = None
        self.reports: list = []
        self._sock = None
        try:
            self._sock = connect(shard.host, shard.port)
            send_message(self._sock, encode_join_query(query, shard.backend))
        except (OSError, NetworkError) as error:
            self.close()
            raise ShardUnavailableError(
                f"shard {shard.describe()} unreachable: {error}"
            ) from error
        self._frames = answer_frames(self._sock, query.query_id)

    def __iter__(self) -> "_RemoteScatterSource":
        return self

    def __next__(self):
        if self._sock is None:  # closed, or the scatter-final arrived
            raise StopIteration
        while True:
            try:
                frame = next(self._frames)
            except SchemeError as error:
                self._fail(f"sent an undecodable frame: {error}", error)
            except NetworkError as error:
                self._fail(f"failed mid-scatter: {error}", error)
            if isinstance(frame, ErrorFrame):
                self.close()
                raise _error_from_frame(frame)
            if isinstance(frame, ScatterChunkFrame):
                if max(frame.positions) >= len(self.query.tables):
                    self._fail(
                        f"sent a chunk for chain positions "
                        f"{frame.positions} of a "
                        f"{len(self.query.tables)}-table query"
                    )
                return frame.positions, frame.items
            if isinstance(frame, ScatterFinalFrame):
                self.decrypted = sum(frame.candidates)
                self.reports = frame.reports
                self.close()
                raise StopIteration
            if not isinstance(frame, StreamHeaderFrame):
                self._fail(
                    f"sent an unexpected mid-scatter {type(frame).__name__}"
                )

    def _fail(self, message: str, cause: Exception | None = None):
        self.close()
        raise ShardUnavailableError(
            f"shard {self.shard.describe()} {message}"
        ) from cause

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self.shard._sources.discard(self)


__all__ = [
    "RemoteShard",
    "ShardServiceServer",
]
