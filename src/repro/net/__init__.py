"""The network service layer: the wire format over real sockets.

Everything below :mod:`repro.net` exists so the client and the
untrusted server can run in *separate processes* exchanging nothing but
byte strings — the paper's deployment model.  The module speaks the
wire format of :mod:`repro.store.wire` over TCP with length-prefixed
messages:

- :class:`~repro.net.server.JoinServiceServer` — a thread-per-connection
  endpoint that decodes queries (a two-way join is the two-table
  chain: one message, one answer order), runs
  :meth:`~repro.core.server.SecureJoinServer.stream_chain`, and emits
  the chunked result stream (stream-header / match-batch / final
  frames) so remote clients receive matches while SJ.Dec is still
  running; a connection carries each row's payload once per table
  epoch;
- :class:`~repro.net.client.RemoteJoinClient` — pulls the frame
  stream in the caller's thread (the TCP window is the backpressure),
  keeps the connection's rows, and reassembles the canonical result;
- ``python -m repro.net`` — a standalone server process with graceful
  SIGTERM drain;
- :class:`~repro.net.shard.ShardServiceServer` /
  :class:`~repro.net.shard.RemoteShard` — one shard of a partitioned
  store behind a socket and its coordinator-side proxy (scatter-chunk
  / scatter-final frames), so a
  :class:`~repro.shard.ShardCoordinator` mixes local and remote
  shards freely; the proxy reads its answer with the client's one
  answer reader.

Exposure policy (after the FateForger encrypted-deployment notes): only
the query/result API is externally consumable.  A remote peer can send
join queries (with per-query ``priority`` / ``deadline`` QoS, the only
clear header fields that steer execution) and receive result frames —
nothing else.  Pool controls (the operator's, at construction:
``--workers``), store mutation and service internals
are never reachable from the socket.
"""

from repro.net.client import RemoteJoinClient
from repro.net.protocol import (
    MAX_MESSAGE_SIZE,
    recv_message,
    send_message,
)
from repro.net.server import JoinServiceServer
from repro.net.shard import RemoteShard, ShardServiceServer

__all__ = [
    "JoinServiceServer",
    "MAX_MESSAGE_SIZE",
    "RemoteJoinClient",
    "RemoteShard",
    "ShardServiceServer",
    "recv_message",
    "send_message",
]
