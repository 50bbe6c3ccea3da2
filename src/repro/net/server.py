"""The streamed join service: a TCP endpoint over the wire format.

:class:`JoinServiceServer` puts a join host behind a listening socket:
a :class:`~repro.core.server.SecureJoinServer`, or a
:class:`~repro.core.server.ShardCoordinator` over in-process shards.  A
fleet with a :class:`~repro.net.shard.RemoteShard` cannot be served: the
shard wire carries no table epochs, and the connection's row state
needs them.  One thread per connection; each connection serves any
number of queries sequentially.  Per query — a two-way join or a longer chain, it is one
message and one handler — it emits:

1. one **stream-header frame** acknowledging the query and naming the
   tables whose carried rows start over, sent once the pipeline has its
   first batch (or its result),
2. a **match-batch frame** per batch the streaming pipeline yields —
   index tuples in discovery order and the payloads of the rows this
   connection has not carried yet, sent while SJ.Dec is still running,
3. one **final frame** with the tuple count and the
   :class:`~repro.core.server.ServerStats` — or an **error frame** if
   the query failed (bad payload, unknown table, deadline exceeded...);
   a query that fails before its first batch gets the error frame alone.

A connection carries each row's payload once per table epoch: it keeps,
per table name, the epoch it last read and the rows it has sent since,
so a re-submitted query ships its index tuples and no payload the client
already holds.  When a table is stored again its epoch moves, its set is
cleared, and the next stream header names it; a table stored again
while a query's pipeline starts restarts in that query's header and in
the next one's.  The state lives and dies with the connection.

Exposure policy: the socket can reach exactly ``decode_join_query`` →
``stream_chain`` (a two-way join is the two-table chain), on the
engine the operator built the server with.  Priority/deadline QoS from
the query header feed the admission scheduler; pool controls, the
choice of engine, the leakage ledger and store mutation are not
reachable from the wire.  The per-connection row sets record only what
the server itself sent on that connection.

Graceful drain (:meth:`JoinServiceServer.shutdown`): stop accepting new
connections, let in-flight query streams finish, close idle
connections, wait for every connection's handler to exit, then close
the underlying worker pool.  This is what the ``python -m repro.net``
process does on SIGTERM.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import weakref

from repro.core.server import ShardCoordinator
from repro.errors import NetworkError, ReproError
from repro.net.protocol import MAX_MESSAGE_SIZE, recv_message, send_message
from repro.store.wire import (
    decode_join_query,
    encode_error_frame,
    encode_final_frame,
    encode_match_batch,
    encode_stream_header,
)

_log = logging.getLogger(__name__)


class _Connection:
    """One accepted client connection and its serving state."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: True while a query stream is in flight on this connection —
        #: drain waits for busy connections and force-closes idle ones.
        self.busy = False
        #: What this connection has carried: per table name, the
        #: table's epoch and the rows whose payload it has been sent.
        self.rows: dict[str, tuple[int, set[int]]] = {}


class JoinServiceServer:
    """Thread-per-connection TCP server speaking the frame stream."""

    def __init__(
        self,
        join_server: ShardCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        max_message_size: int = MAX_MESSAGE_SIZE,
        drain_timeout: float = 30.0,
    ):
        self.join_server = join_server
        self.max_message_size = max_message_size
        self.drain_timeout = drain_timeout
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._connections: set[_Connection] = set()
        #: Every handler thread that may still run: one leaves the set
        #: only once nothing refers to its ``Thread`` any more, which
        #: is after it has exited.  ``shutdown`` joins them all.
        self._handlers: weakref.WeakSet[threading.Thread] = weakref.WeakSet()
        self._draining = threading.Event()
        #: Completed query streams: answers whose closing frame was sent,
        #: not error replies or streams the client abandoned.
        self.queries_served = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen, and start accepting.  Returns ``(host, port)``."""
        if self._listener is not None:
            raise NetworkError("server already started")
        self._listener = socket.create_server((self._host, self._port))
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — with ``port=0``, the real port."""
        if self._listener is None:
            raise NetworkError("server is not started")
        return self._listener.getsockname()[:2]

    def __enter__(self) -> "JoinServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def active_connections(self) -> int:
        with self._lock:
            return len(self._connections)

    # -- accept / serve ---------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                # Listener closed: shutdown in progress.
                return
            # Frames are small and latency-sensitive: without this,
            # Nagle + delayed ACK can stall each one ~40ms.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._draining.is_set():
                    sock.close()
                    continue
                connection = _Connection(sock)
                self._connections.add(connection)
                handler = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name=f"repro-net-conn-{peer}",
                    daemon=True,
                )
                # Under the lock: shutdown() joins every started handler.
                self._handlers.add(handler)
                handler.start()

    def _serve_connection(self, connection: _Connection) -> None:
        sock = connection.sock
        try:
            while not self._draining.is_set():
                try:
                    request = recv_message(sock, self.max_message_size)
                except NetworkError:
                    # Oversized or truncated request: the stream framing
                    # is no longer trustworthy — drop the connection.
                    return
                if request is None:
                    return
                with self._lock:
                    if self._draining.is_set():
                        return
                    connection.busy = True
                try:
                    self._serve_query(connection, request)
                except NetworkError:
                    # The client vanished mid-stream (or drain cut the
                    # socket); admissions were released by the finally
                    # inside _serve_query.
                    return
                finally:
                    with self._lock:
                        connection.busy = False
        finally:
            with self._lock:
                self._connections.discard(connection)
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _serve_query(self, connection: _Connection, request: bytes) -> None:
        """Decode one query and send its answer, frame by frame.

        Library failures (codec, scheme, deadline) — at decode time or
        mid-flight — terminate the response in-band with an error frame
        so the client sees *why*; any other failure of the host is a
        ``QueryError`` frame naming only the exception's class (its
        traceback goes to this module's log).  Transport failures
        propagate and drop the connection.
        """
        sock = connection.sock
        frames = None
        try:
            try:
                query = decode_join_query(request, self.join_server.backend)
                frames = self._answer(query, connection.rows)
                for frame in frames:
                    send_message(sock, frame)
            except Exception as error:
                if isinstance(error, ReproError):
                    kind, message = type(error).__name__, str(error)
                else:
                    _log.exception("query failed inside the host")
                    kind = "QueryError"
                    message = f"internal error ({type(error).__name__})"
                send_message(sock, encode_error_frame(kind, message))
                return
            with self._lock:
                self.queries_served += 1
        finally:
            # Covers the transport-failure exits too: abandoning the
            # answer releases the query's pool admissions.
            if frames is not None:
                frames.close()

    def _answer(self, query, held: dict[str, tuple[int, set[int]]]):
        """The encoded frames answering ``query``, lazily: stream
        header, one match batch per pipeline increment, final frame.

        ``held`` is the connection's row state: per table name, the
        epoch its rows were sent in and the set of them.  A row in the
        set is not carried again, so the payload lists the drive reads
        must be of that epoch.  The stream is therefore advanced to its
        first batch (or its result) — by then the drive has lent every
        list it reads — before the header goes out, and each table's
        epoch is read before and after that.  A table stored again in
        between restarts, and is recorded under the first epoch read,
        so the next query restarts it again."""
        server = self.join_server
        epochs = {name: server.table_epoch(name) for name in query.tables}
        stream = server.stream_chain(query)
        try:
            batch, result = _advance(stream)
            restart = []
            by_table = {}
            for name, epoch in epochs.items():
                entry = held.get(name)
                if (
                    entry is None
                    or entry[0] != epoch
                    or server.table_epoch(name) != epoch
                ):
                    entry = (epoch, set())
                    restart.append(name)
                    # Epoch 0 is a table never stored: the connection
                    # keeps nothing for the name.
                    if epoch:
                        held[name] = entry
                by_table[name] = entry[1]
            # Positions that name one table share its set: a row travels
            # once for all of them.
            sent = [by_table[name] for name in query.tables]
            yield encode_stream_header(
                query.query_id, *query.tables, restart=restart
            )
            while batch is not None:
                yield encode_match_batch(batch, sent)
                batch, result = _advance(stream)
            yield encode_final_frame(result)
        finally:
            stream.close()

    # -- graceful drain ---------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.  Idempotent.

        With ``drain`` (the default): stop accepting new connections,
        let in-flight query streams run to completion (bounded by
        ``timeout`` / ``drain_timeout``), close idle connections, then
        close the underlying execution pool.  Without ``drain``:
        everything is closed immediately.
        """
        self._draining.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept():
            # the in-flight syscall keeps the kernel socket alive — and
            # listening — until accept returns, so a client could still
            # connect after shutdown.  shutdown(SHUT_RDWR) aborts the
            # blocked accept immediately.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        budget = timeout if timeout is not None else self.drain_timeout
        deadline = time.monotonic() + max(0.0, budget)
        # Idle connections are blocked in recv waiting for a query that
        # must now never come; unblock them.  Busy connections keep
        # their sockets — their in-flight stream finishes first (drain)
        # or is cut (not drain).
        with self._lock:
            for connection in list(self._connections):
                if not drain or not connection.busy:
                    _force_close(connection.sock)
        if drain:
            while time.monotonic() < deadline:
                with self._lock:
                    if not any(c.busy for c in self._connections):
                        break
                time.sleep(0.02)
            # Past the budget (or done): cut whatever is left.
            with self._lock:
                for connection in list(self._connections):
                    _force_close(connection.sock)
        # Every handler, registered or already unregistered on its way
        # out: none outlives shutdown (within the budget).
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=max(0.1, deadline - time.monotonic()))
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        # Streams done (or cut): now the pool can go.
        self.join_server.close()


def _advance(stream):
    """``(batch, None)`` for the stream's next batch, ``(None, result)``
    once it returns."""
    try:
        return next(stream), None
    except StopIteration as stop:
        return None, stop.value


def _force_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - already closed
        pass
