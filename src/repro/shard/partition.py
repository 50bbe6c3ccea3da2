"""Deterministic hash partitioning of encrypted tables across shards.

The shard of a row must be a pure function of bytes the server already
stores — never of plaintext (the server has none) and never of Python's
``hash()`` (whose value changes per process under ``PYTHONHASHSEED``
randomization, which would scatter the same table differently on every
restart).  The partitioner keys a seeded ``blake2b`` over the row's
stable bytes:

- the row's pre-filter tag (first tagged column in sorted order) when
  the table carries searchable tags — rows with equal selection values
  then co-locate, so a pre-filtered query touches few shards;
- otherwise the concatenated encoded G2 ciphertext elements, which are
  unique and stable per row.

Note what partitioning can *not* do: co-locate rows with equal join
values.  SJ ciphertexts are randomized, and handles exist only under a
query token — so equal-key rows land on arbitrary shards, shard-local
joins would silently miss cross-shard matches, and the coordinator
therefore gathers *handle* streams and matches centrally (see
:mod:`repro.shard`).

Repartitioning is explicit: every partitioned table carries a
:class:`ShardDescriptor` pinning the shard count and seed it was split
under, and stores and fleets refuse descriptors that disagree with
their own layout — changing the shard count means calling
:func:`partition_table` again, never silently rehashing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.client import EncryptedTable
from repro.crypto.backend import BilinearBackend
from repro.errors import SchemeError

#: Hard bound on the shard count: the store decoder and constructors reject
#: anything larger, so a hostile header cannot demand absurd fan-out.
MAX_SHARD_COUNT = 1024

#: Default partitioner seed.  Any bytes work; all parties (and all
#: restarts) must agree on it, so it travels in the shard descriptor.
DEFAULT_SEED = b"repro-shard-v1"

_MAX_SEED_SIZE = 64


@dataclass(frozen=True)
class ShardDescriptor:
    """Which slice of a partitioned table one shard holds.

    ``global_indices[i]`` is the row index in the *original* table of
    the shard-local row ``i`` — the coordinator translates every
    shard-local candidate back through it, so merged match pairs are in
    the single-store index space (that is what makes the scatter-gather
    result byte-identical to the unsharded join).
    """

    shard_index: int
    shard_count: int
    seed: bytes
    global_indices: tuple[int, ...]

    def __post_init__(self):
        validate_shard_layout(self.shard_index, self.shard_count, self.seed)
        previous = -1
        for index in self.global_indices:
            if not isinstance(index, int) or index <= previous:
                raise SchemeError(
                    "shard descriptor global indices must be strictly "
                    "increasing non-negative integers"
                )
            previous = index

    def shard_of_row(
        self,
        ciphertext,
        prefilter_tags: dict[str, bytes] | None,
        backend: BilinearBackend,
    ) -> int:
        """The shard an inserted row belongs to under this layout: the
        placement :func:`partition_rows` gives a stored row."""
        column = _key_column(prefilter_tags)
        key = row_shard_key(
            ciphertext,
            None if column is None else prefilter_tags[column],
            backend,
        )
        return shard_of_bytes(key, self.shard_count, self.seed)


def validate_shard_layout(
    shard_index: int, shard_count: int, seed: bytes
) -> None:
    """Reject malformed (or hostile) shard layout parameters."""
    if (
        isinstance(shard_count, bool)
        or not isinstance(shard_count, int)
        or not 1 <= shard_count <= MAX_SHARD_COUNT
    ):
        raise SchemeError(
            f"shard count must be an integer in [1, {MAX_SHARD_COUNT}], "
            f"got {shard_count!r}"
        )
    if (
        isinstance(shard_index, bool)
        or not isinstance(shard_index, int)
        or not 0 <= shard_index < shard_count
    ):
        raise SchemeError(
            f"shard index {shard_index!r} outside [0, {shard_count})"
        )
    if not isinstance(seed, bytes) or not 1 <= len(seed) <= _MAX_SEED_SIZE:
        raise SchemeError(
            f"shard seed must be 1..{_MAX_SEED_SIZE} bytes"
        )


def shard_of_bytes(key: bytes, shard_count: int, seed: bytes) -> int:
    """The shard a stable row key maps to: seeded blake2b, mod count.

    Deterministic across processes, interpreter runs and platforms —
    unlike ``hash()``, whose string/bytes output is salted per process.
    """
    validate_shard_layout(0, shard_count, seed)
    digest = hashlib.blake2b(key, digest_size=8, key=seed).digest()
    return int.from_bytes(digest, "big") % shard_count


def _key_column(prefilter_tags) -> str | None:
    """The tagged column whose tag keys a row: the first in sorted
    order, or none for an untagged table."""
    return min(prefilter_tags) if prefilter_tags else None


def row_shard_key(
    ciphertext, tag: bytes | None, backend: BilinearBackend
) -> bytes:
    """The stable bytes the partitioner hashes for one row.

    The row's tag in the key column when the table is tagged (equal
    selection values co-locate); otherwise the row's encoded ciphertext
    vector (unique, stable, already server-held).
    """
    if tag is not None:
        return tag
    return b"".join(backend.encode_g2(e) for e in ciphertext.elements)


def row_shard_keys(
    table: EncryptedTable, backend: BilinearBackend
) -> list[bytes]:
    """:func:`row_shard_key` of every row of ``table``."""
    column = _key_column(table.prefilter_tags)
    if column is None:
        tags = [None] * len(table.ciphertexts)
    else:
        tags = table.prefilter_tags[column]
    return [
        row_shard_key(ciphertext, tag, backend)
        for ciphertext, tag in zip(table.ciphertexts, tags)
    ]


def partition_rows(
    table: EncryptedTable,
    backend: BilinearBackend,
    shard_count: int,
    seed: bytes = DEFAULT_SEED,
) -> list[int]:
    """The shard assignment, one entry per row of ``table``."""
    keys = row_shard_keys(table, backend)
    return [shard_of_bytes(key, shard_count, seed) for key in keys]


def partition_table(
    table: EncryptedTable,
    backend: BilinearBackend,
    shard_count: int,
    seed: bytes = DEFAULT_SEED,
    assignment: list[int] | None = None,
) -> list[EncryptedTable]:
    """Split one encrypted table into ``shard_count`` shard tables.

    Returns one :class:`~repro.core.client.EncryptedTable` per shard
    (possibly empty), each carrying a :class:`ShardDescriptor` mapping
    its rows back to the original indices.  ``assignment`` overrides
    the hash placement with an explicit per-row shard list — the
    rebalancing hook (skew tests use it too); it must still name shards
    within ``[0, shard_count)``.

    Repartitioning is this function: to change the shard count, call it
    again on the original table and restore the new shard set.  There
    is no implicit rehash anywhere downstream — a descriptor that
    disagrees with the coordinator's layout is an error, not a trigger.
    """
    validate_shard_layout(0, shard_count, seed)
    if assignment is None:
        assignment = partition_rows(table, backend, shard_count, seed)
    if len(assignment) != len(table.ciphertexts):
        raise SchemeError(
            f"assignment names {len(assignment)} rows for a table of "
            f"{len(table.ciphertexts)}"
        )
    members: list[list[int]] = [[] for _ in range(shard_count)]
    for row_index, shard in enumerate(assignment):
        if isinstance(shard, bool) or not isinstance(shard, int) or not (
            0 <= shard < shard_count
        ):
            raise SchemeError(
                f"row {row_index} assigned to shard {shard!r}, outside "
                f"[0, {shard_count})"
            )
        members[shard].append(row_index)
    shards = []
    for shard_index, indices in enumerate(members):
        prefilter = None
        if table.prefilter_tags is not None:
            prefilter = {
                column: [tags[i] for i in indices]
                for column, tags in table.prefilter_tags.items()
            }
        prepared = None
        if table.prepared_rows is not None:
            prepared = [table.prepared_rows[i] for i in indices]
        shards.append(EncryptedTable(
            name=table.name,
            schema=table.schema,
            join_column=table.join_column,
            attribute_columns=table.attribute_columns,
            ciphertexts=[table.ciphertexts[i] for i in indices],
            payloads=[table.payloads[i] for i in indices],
            prefilter_tags=prefilter,
            prepared_rows=prepared,
            shard=ShardDescriptor(
                shard_index=shard_index,
                shard_count=shard_count,
                seed=seed,
                global_indices=tuple(indices),
            ),
        ))
    return shards
