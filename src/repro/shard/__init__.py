"""Sharded encrypted store: deterministic partitioning + scatter-gather.

``partition`` splits an encrypted table into per-shard tables with a
process-independent hash (seeded blake2b — never Python's ``hash()``);
``coordinator`` names the join host that scatters SJ.Dec across the
stores holding the pieces and gathers the handle streams into one
canonical matcher.  Remote shard endpoints live in
:mod:`repro.net.shard`.
"""

from repro.core.server import shard_skew
from repro.shard.coordinator import LocalShard, ShardCoordinator
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
