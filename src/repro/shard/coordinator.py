"""Scatter-gather over a sharded encrypted store.

Partitioning cannot co-locate equal join values — ciphertexts are
randomized and handles exist only under a query token — so shard-local
matching would miss cross-shard pairs.  A fleet therefore **scatters
SJ.Dec and centralizes SJ.Match**, which is what the one join host does
for any number of stores: a fleet is a
:class:`~repro.core.server.ShardCoordinator` over the
:class:`~repro.core.storage.LocalShard` objects holding the pieces (or
:class:`~repro.net.shard.RemoteShard` proxies), as the single server is
one over a store of whole tables.  Both classes live in
:mod:`repro.core`, which imports nothing from this package; shard ``i``
of ``n`` must hold partition ``i`` of ``n``, and a shard dying
mid-stream raises :class:`~repro.errors.ShardUnavailableError` naming
it.
"""

from repro.core.server import ShardCoordinator
from repro.core.storage import LocalShard

__all__ = ["LocalShard", "ShardCoordinator"]
