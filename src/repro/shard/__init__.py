"""Sharded encrypted store: deterministic partitioning + scatter-gather.

``partition`` splits an encrypted table into per-shard tables with a
process-independent hash (seeded blake2b — never Python's ``hash()``).

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

from repro.core.server import ShardCoordinator, shard_skew
from repro.core.storage import LocalShard
from repro.shard.partition import (
    DEFAULT_SEED,
    MAX_SHARD_COUNT,
    ShardDescriptor,
    partition_rows,
    partition_table,
    row_shard_keys,
    shard_of_bytes,
    validate_shard_layout,
)

__all__ = [
    "DEFAULT_SEED",
    "MAX_SHARD_COUNT",
    "LocalShard",
    "ShardCoordinator",
    "ShardDescriptor",
    "partition_rows",
    "partition_table",
    "row_shard_keys",
    "shard_of_bytes",
    "shard_skew",
    "validate_shard_layout",
]
