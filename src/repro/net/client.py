"""The remote join client: frame-stream consumption with backpressure.

:class:`RemoteJoinClient` owns one TCP connection to a
:class:`~repro.net.server.JoinServiceServer`.  A query — two-way join
or longer chain, one message either way — is encoded with
:mod:`repro.store.wire`; the response is consumed as a *stream*:
:meth:`RemoteJoinClient.stream_join` / ``stream_chain`` yield each match
batch as its frame arrives — matched rows reach the caller while the
server's SJ.Dec is still running — and return the reassembled canonical
result as the generator's value, exactly like the in-process
:meth:`~repro.core.server.SecureJoinServer.stream_join` /
``stream_chain``.

Backpressure: a reader thread pulls frames off the socket into a
*bounded* buffer (``max_buffered_batches``).  When the consumer falls
behind, the buffer fills and the reader stops pulling; the kernel
receive window then fills and the server's send blocks — flow control
end to end, so a slow consumer never forces the client to buffer an
unbounded result.
"""

from __future__ import annotations

import queue
import socket
import threading

from repro.core.client import EncryptedChainQuery, EncryptedJoinQuery
from repro.core.server import (
    EncryptedChainResult,
    EncryptedJoinResult,
    MatchBatch,
)
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

#: How many decoded frames the reader thread may buffer ahead of the
#: consumer before it stops pulling from the socket.
DEFAULT_BUFFERED_BATCHES = 8


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
        max_buffered_batches: int = DEFAULT_BUFFERED_BATCHES,
        max_message_size: int = MAX_MESSAGE_SIZE,
        connect_timeout: float = 10.0,
    ):
        if max_buffered_batches < 1:
            raise NetworkError("max_buffered_batches must be at least 1")
        self.backend = backend
        self.max_buffered_batches = max_buffered_batches
        self.max_message_size = max_message_size
        self._sock: socket.socket | None = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(None)
        try:
            # The query is one small message the server waits on; Nagle
            # would hold it hostage to the previous stream's ACKs.
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass
        self._busy = False
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Close the connection.  Idempotent."""
        with self._lock:
            sock, self._sock = self._sock, None
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
    def stream_join(self, query: EncryptedJoinQuery):
        """Run a join remotely; a generator of streamed match batches.

        Yields each :class:`MatchBatch` as its frame arrives and returns
        the reassembled canonical :class:`EncryptedJoinResult` as the
        generator's value (``StopIteration.value``).  Server-side
        failures re-raise locally as the matching
        :class:`~repro.errors.ReproError` subclass (e.g. a
        ``DeadlineError`` for a cancelled past-deadline query).

        Abandoning the generator mid-stream closes the connection (the
        socket carries undelivered frames that can no longer be
        resynchronized) — use one client per abandoned stream, or drain.
        """
        return self._stream_query(query)

    def stream_chain(self, query: EncryptedChainQuery):
        """Run a multi-way chain join remotely; a generator.

        The same drive as :meth:`stream_join` — on the wire the query's
        type, not the method, picks the shape of the answer: each
        :class:`~repro.core.server.ChainMatchBatch` as its frame
        arrives, then the reassembled canonical
        :class:`~repro.core.server.EncryptedChainResult` as the
        generator's value.
        """
        return self._stream_query(query)

    def _stream_query(self, query):
        """The one frame-stream drive, at the query's arity."""
        request = encode_join_query(query, self.backend)
        reassembler = StreamReassembler(query)
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
        completed = False
        frames: queue.Queue = queue.Queue(maxsize=self.max_buffered_batches)
        abandoned = threading.Event()

        def put(item) -> None:
            # Bounded put that gives up once the consumer is gone, so an
            # abandoned stream can never wedge the reader thread.
            while not abandoned.is_set():
                try:
                    frames.put(item, timeout=0.1)
                    return
                except queue.Full:
                    continue

        def read_frames() -> None:
            try:
                while not abandoned.is_set():
                    data = recv_message(sock, self.max_message_size)
                    if data is None:
                        put((
                            "error",
                            NetworkError(
                                "server closed the connection mid-stream"
                            ),
                        ))
                        return
                    frame = decode_frame(data)
                    put(("frame", frame))
                    if isinstance(frame, (FinalFrame, ErrorFrame)):
                        return
            except ReproError as error:
                put(("error", error))

        reader = threading.Thread(
            target=read_frames, name="repro-net-reader", daemon=True
        )
        try:
            send_message(sock, request)
            reader.start()
            got_header = False
            while True:
                kind, payload = frames.get()
                if kind == "error":
                    raise payload
                frame = payload
                if isinstance(frame, ErrorFrame):
                    # An error frame terminates the response cleanly;
                    # the connection stays usable for the next query.
                    completed = True
                    raise _error_from_frame(frame)
                if not got_header:
                    if not isinstance(frame, StreamHeaderFrame):
                        raise NetworkError(
                            "stream did not open with a stream-header "
                            f"frame (got {type(frame).__name__})"
                        )
                    if frame.query_id != query.query_id:
                        raise NetworkError(
                            f"stream answers query {frame.query_id}, "
                            f"expected {query.query_id}"
                        )
                    got_header = True
                    continue
                if isinstance(frame, MatchBatchFrame):
                    yield reassembler.add_batch(frame)
                    continue
                if isinstance(frame, FinalFrame):
                    completed = True
                    return reassembler.finish(frame)
                raise NetworkError(
                    f"unexpected mid-stream frame {type(frame).__name__}"
                )
        finally:
            abandoned.set()
            if completed:
                # Reader exited after the terminal frame; the connection
                # is at a message boundary and reusable.
                reader.join(timeout=5.0)
                with self._lock:
                    self._busy = False
            else:
                # Mid-stream abandonment or transport failure: undrained
                # frames make the connection unusable — drop it.  The
                # server's handler notices the close and releases the
                # query's pool admissions.
                self.close()

    def execute_join(self, query: EncryptedJoinQuery) -> EncryptedJoinResult:
        """Run a join remotely, fully materialized.

        Drains :meth:`stream_join` and returns the canonical result —
        the remote mirror of the in-process
        :meth:`~repro.core.server.SecureJoinServer.execute_join`.
        """
        stream = self.stream_join(query)
        while True:
            try:
                next(stream)
            except StopIteration as stop:
                return stop.value

    def execute_chain(
        self, query: EncryptedChainQuery
    ) -> EncryptedChainResult:
        """Run a multi-way chain join remotely, fully materialized."""
        stream = self.stream_chain(query)
        while True:
            try:
                next(stream)
            except StopIteration as stop:
                return stop.value


__all__ = [
    "DEFAULT_BUFFERED_BATCHES",
    "MatchBatch",
    "RemoteJoinClient",
]
