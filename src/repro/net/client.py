"""The remote join client: frame-stream consumption with backpressure.

:class:`RemoteJoinClient` owns one TCP connection to a
:class:`~repro.net.server.JoinServiceServer`.  A query — two-way join
or longer chain, one message either way — is encoded with
:mod:`repro.store.wire`; the response is consumed as a *stream*:
:meth:`RemoteJoinClient.stream_chain` (``stream_join`` is the same
call) yields each match batch as its frame arrives — matched rows
reach the caller while the server's SJ.Dec is still running — and
returns the reassembled canonical result as the generator's value,
exactly like the in-process
:meth:`~repro.core.server.SecureJoinServer.stream_chain`.

The connection carries each row's payload once per table epoch, so
the client keeps the mirror of the server's row state: per table name,
``row → payload`` for every row the connection has carried.  A stream
header names the tables whose rows start over (their table was stored
again), and the client forgets those first.  The state holds at most
one payload per row of the epoch last seen on this connection for each
table — a table stored again keeps its old rows here until a query
naming it restarts it — and they are the same ``bytes`` objects every
answer on this connection hands out, so the client's result memo hits
them by identity.  The state goes when the connection closes, is
abandoned or drops.

Backpressure is the kernel's: frames are pulled off the socket in the
caller's thread, one per step of the stream, so a consumer that falls
behind stops reading, the TCP receive window fills and the server's
send blocks.  The client buffers no frame ahead of its consumer and
starts no thread.
"""

from __future__ import annotations

import socket
import threading

from repro.core.client import EncryptedChainQuery
from repro.core.server import EncryptedChainResult, _drain
from repro.crypto.backend import BilinearBackend
from repro.errors import NetworkError, QueryError, ReproError
from repro.net.protocol import MAX_MESSAGE_SIZE, recv_message, send_message
from repro.store.wire import (
    ErrorFrame,
    FinalFrame,
    MatchBatchFrame,
    StreamHeaderFrame,
    StreamReassembler,
    decode_frame,
    encode_join_query,
)

#: Seconds a client waits for a connection to open.
_CONNECT_TIMEOUT = 10.0


def connect(host: str, port: int) -> socket.socket:
    """Open a blocking TCP connection to a service endpoint."""
    sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT)
    sock.settimeout(None)
    # The query is one small message the server waits on; Nagle would
    # hold it hostage to the previous stream's ACKs.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def answer_frames(
    sock: socket.socket, query_id: int, max_size: int = MAX_MESSAGE_SIZE
):
    """The decoded frames answering query ``query_id``, pulled off
    ``sock`` one per step in the caller's thread.

    The first frame is the stream header for ``query_id`` or an error
    frame (a query that fails before its first batch gets the error
    frame alone); exactly one header is allowed.  Every frame after it,
    error frames included, is the caller's to dispatch, and the caller
    stops pulling at the terminal frame.  A connection closed before
    that, or a header missing, repeated or for another query, raises
    :class:`~repro.errors.NetworkError`; a frame that does not decode
    raises :class:`~repro.errors.SchemeError`.
    """
    opened = False
    while True:
        data = recv_message(sock, max_size)
        if data is None:
            raise NetworkError("server closed the connection mid-stream")
        frame = decode_frame(data)
        if isinstance(frame, StreamHeaderFrame):
            if opened:
                raise NetworkError("a second stream-header frame mid-stream")
            if frame.query_id != query_id:
                raise NetworkError(
                    f"stream answers query {frame.query_id}, "
                    f"expected {query_id}"
                )
            opened = True
        elif not opened and not isinstance(frame, ErrorFrame):
            raise NetworkError(
                "stream did not open with a stream-header frame "
                f"(got {type(frame).__name__})"
            )
        yield frame


def _error_from_frame(frame: ErrorFrame) -> ReproError:
    """Map a server error frame back to the closest local exception."""
    import repro.errors as errors_module

    exc_type = getattr(errors_module, frame.error_type, None)
    if not (
        isinstance(exc_type, type) and issubclass(exc_type, ReproError)
    ):
        exc_type = QueryError
    return exc_type(f"server: {frame.message}")


class RemoteJoinClient:
    """One connection to a join service; one streamed query at a time."""

    def __init__(
        self,
        host: str,
        port: int,
        backend: BilinearBackend,
        max_message_size: int = MAX_MESSAGE_SIZE,
    ):
        self.backend = backend
        self.max_message_size = max_message_size
        self._sock: socket.socket | None = connect(host, port)
        self._busy = False
        self._lock = threading.Lock()
        #: The connection's row state: per table name, every row the
        #: server has carried on it in the epoch last seen here.
        self._rows: dict[str, dict[int, bytes]] = {}

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Close the connection.  Idempotent."""
        with self._lock:
            sock, self._sock = self._sock, None
            self._rows = {}
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    @property
    def closed(self) -> bool:
        return self._sock is None

    def __enter__(self) -> "RemoteJoinClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries ----------------------------------------------------------
    def stream_chain(self, query: EncryptedChainQuery):
        """Run a join remotely; a generator of streamed match batches.

        Yields each :class:`~repro.core.server.ChainMatchBatch` as its
        frame arrives and returns the reassembled canonical
        :class:`~repro.core.server.EncryptedChainResult` as the
        generator's value (``StopIteration.value``).  Server-side
        failures re-raise locally as the matching
        :class:`~repro.errors.ReproError` subclass (e.g. a
        ``DeadlineError`` for a cancelled past-deadline query).

        Abandoning the generator mid-stream closes the connection (the
        socket carries undelivered frames that can no longer be
        resynchronized) — use one client per abandoned stream, or drain.
        """
        request = encode_join_query(query, self.backend)
        with self._lock:
            if self._sock is None:
                raise NetworkError("client is closed")
            if self._busy:
                raise NetworkError(
                    "a streamed query is already in flight on this "
                    "connection"
                )
            self._busy = True
            sock = self._sock
            rows = self._rows
        completed = False
        try:
            send_message(sock, request)
            reassembler = None
            for frame in answer_frames(
                sock, query.query_id, self.max_message_size
            ):
                if isinstance(frame, ErrorFrame):
                    # An error frame terminates the response cleanly;
                    # the connection stays usable for the next query.
                    completed = True
                    raise _error_from_frame(frame)
                if isinstance(frame, StreamHeaderFrame):
                    reassembler = StreamReassembler(query, frame, rows)
                elif isinstance(frame, MatchBatchFrame):
                    yield reassembler.add_batch(frame)
                elif isinstance(frame, FinalFrame):
                    completed = True
                    return reassembler.finish(frame)
                else:
                    raise NetworkError(
                        f"unexpected mid-stream frame {type(frame).__name__}"
                    )
        finally:
            if completed:
                # The terminal frame was read: the connection is at a
                # message boundary and reusable.
                with self._lock:
                    self._busy = False
            else:
                # Mid-stream abandonment or transport failure: undrained
                # frames make the connection unusable — drop it.  The
                # server's handler notices the close and releases the
                # query's pool admissions.
                self.close()

    def execute_chain(
        self, query: EncryptedChainQuery
    ) -> EncryptedChainResult:
        """Run a join remotely, fully materialized.

        Drains :meth:`stream_chain` and returns the canonical result —
        the remote mirror of the in-process
        :meth:`~repro.core.server.SecureJoinServer.execute_chain`.
        """
        return _drain(self.stream_chain(query))

    #: A two-way join is the two-table chain.
    stream_join = stream_chain
    execute_join = execute_chain


__all__ = [
    "RemoteJoinClient",
]
