"""Persist encrypted tables: what the DBMS server stores on disk.

The file keeps only what the server legitimately holds — SJ ciphertext
vectors, opaque payload blobs, (optionally) pre-filter tags, and
(optionally) per-row pairing precomputation.  No plaintext and no key
material ever reaches this format; the prepared coefficients are a
deterministic function of the ciphertexts, so they carry no information
the ciphertexts don't already.
"""

from __future__ import annotations

import os

from repro.core.client import EncryptedTable
from repro.core.scheme import SJRowCiphertext
from repro.crypto.backend import BilinearBackend, PreparedRow
from repro.db.schema import Column, Schema
from repro.errors import SchemeError
from repro.shard.partition import ShardDescriptor, validate_shard_layout
from repro.store.codec import (
    Reader,
    Writer,
    read_element_vector,
    read_header,
    write_element_vector,
    write_header,
)

_MAGIC = b"RPROETBL"
#: The one store version.  The pre-filter tags, the prepared-rows
#: section (precomputed Miller-loop line coefficients, stored with the
#: row so warm queries replay them) and the shard descriptor (layout
#: header key plus the shard's global row indices as a trailing u32
#: section) are optional *sections* of it, announced by header keys.
#: Version 6: a prepared element holds the signed-digit ate trajectory
#: (88 line coefficients; version 5 stored the binary loop's 102).
_VERSION = 6
_TAG_SIZE = 32
#: Longest accepted hex-encoded partitioner seed (raw seed <= 64 bytes,
#: mirroring :data:`repro.shard.partition._MAX_SEED_SIZE`).
_MAX_SEED_HEX = 128


def prepare_encrypted_table(
    table: EncryptedTable, backend: BilinearBackend
) -> int:
    """Attach per-row pairing precomputation to ``table`` in place.

    Idempotent (rows already prepared are kept); returns how many rows
    this call prepared.  The precomputation depends only on the stored
    ciphertexts — never on any query token — which is why it can live
    with the row on disk.
    """
    if table.prepared_rows is None:
        table.prepared_rows = []
    prepared = 0
    for ciphertext in table.ciphertexts[len(table.prepared_rows):]:
        table.prepared_rows.append(backend.prepare_row(ciphertext.elements))
        prepared += 1
    return prepared


def encode_encrypted_table(
    table: EncryptedTable, backend: BilinearBackend
) -> bytes:
    """Serialize an encrypted table to bytes."""
    prepared = table.prepared_rows
    if prepared is not None and len(prepared) != len(table.ciphertexts):
        raise SchemeError(
            f"table has {len(prepared)} prepared rows for "
            f"{len(table.ciphertexts)} ciphertexts; call "
            "prepare_encrypted_table first"
        )
    writer = Writer()
    header = {
        "name": table.name,
        "schema": [[c.name, c.type] for c in table.schema.columns],
        "join_column": table.join_column,
        "attribute_columns": list(table.attribute_columns),
        "n_rows": len(table),
        "dimension": (
            len(table.ciphertexts[0]) if table.ciphertexts else 0
        ),
        "backend": backend.name,
        "g2_element_size": backend.g2_element_size,
        "prefilter_columns": (
            sorted(table.prefilter_tags) if table.prefilter_tags else None
        ),
        "prepared": prepared is not None,
        "prepared_element_size": (
            backend.prepared_element_size if prepared is not None else 0
        ),
    }
    shard = table.shard
    if shard is not None:
        if len(shard.global_indices) != len(table):
            raise SchemeError(
                f"shard descriptor maps {len(shard.global_indices)} rows "
                f"but the table holds {len(table)}"
            )
        header["shard"] = {
            "index": shard.shard_index,
            "count": shard.shard_count,
            "seed": shard.seed.hex(),
        }
    write_header(writer, _MAGIC, _VERSION, header)
    for ciphertext in table.ciphertexts:
        write_element_vector(
            writer,
            [backend.encode_g2(e) for e in ciphertext.elements],
            backend.g2_element_size,
        )
    for payload in table.payloads:
        writer.blob(payload)
    if table.prefilter_tags:
        for column in sorted(table.prefilter_tags):
            write_element_vector(
                writer, table.prefilter_tags[column], _TAG_SIZE
            )
    if prepared is not None:
        for row in prepared:
            write_element_vector(
                writer,
                [backend.encode_prepared(e) for e in row],
                backend.prepared_element_size,
            )
    if shard is not None:
        for index in shard.global_indices:
            writer.u32(index)
    return writer.getvalue()


def decode_encrypted_table(
    data: bytes, backend: BilinearBackend
) -> EncryptedTable:
    """Inverse of :func:`encode_encrypted_table` (validating)."""
    reader = Reader(data)
    header = read_header(reader, _MAGIC, _VERSION)
    if header["backend"] != backend.name:
        raise SchemeError(
            f"table was encrypted under backend {header['backend']!r}, "
            f"cannot load with {backend.name!r}"
        )
    if header["g2_element_size"] != backend.g2_element_size:
        raise SchemeError("element size mismatch (different backend modulus?)")
    n_rows = header["n_rows"]
    dimension = header["dimension"]
    ciphertexts = []
    for _ in range(n_rows):
        raw = read_element_vector(reader, backend.g2_element_size)
        if len(raw) != dimension:
            raise SchemeError(
                f"row ciphertext has {len(raw)} elements; header says "
                f"{dimension}"
            )
        ciphertexts.append(
            SJRowCiphertext(tuple(backend.decode_g2(e) for e in raw))
        )
    payloads = [reader.blob() for _ in range(n_rows)]
    prefilter = None
    if header["prefilter_columns"] is not None:
        prefilter = {}
        for column in header["prefilter_columns"]:
            tags = read_element_vector(reader, _TAG_SIZE)
            if len(tags) != n_rows:
                raise SchemeError(
                    f"pre-filter column {column!r} has {len(tags)} tags for "
                    f"{n_rows} rows"
                )
            prefilter[column] = tags
    prepared_rows = None
    if header.get("prepared"):
        element_size = header.get("prepared_element_size")
        if element_size != backend.prepared_element_size:
            raise SchemeError(
                f"prepared-element size {element_size} != backend's "
                f"{backend.prepared_element_size} (different backend?)"
            )
        prepared_rows = []
        for row_index in range(n_rows):
            raw = read_element_vector(reader, element_size)
            if len(raw) != dimension:
                raise SchemeError(
                    f"prepared row {row_index} has {len(raw)} "
                    f"elements; header says {dimension}"
                )
            prepared_rows.append(
                PreparedRow(
                    ciphertexts[row_index].elements,
                    tuple(backend.decode_prepared(e) for e in raw),
                )
            )
    shard = None
    shard_header = header.get("shard")
    if shard_header is not None:
        if not isinstance(shard_header, dict):
            raise SchemeError("shard header must be an object")
        seed_hex = shard_header.get("seed")
        if (
            not isinstance(seed_hex, str)
            or not seed_hex
            or len(seed_hex) > _MAX_SEED_HEX
        ):
            raise SchemeError("shard seed must be a short hex string")
        try:
            seed = bytes.fromhex(seed_hex)
        except ValueError:
            raise SchemeError("shard seed is not valid hex") from None
        index = shard_header.get("index")
        count = shard_header.get("count")
        # validate_shard_layout rejects non-int/bool and out-of-range
        # values before we trust them; the indices section is exactly
        # n_rows u32s, and ShardDescriptor enforces strict monotonicity.
        validate_shard_layout(index, count, seed)
        indices = [reader.u32() for _ in range(n_rows)]
        shard = ShardDescriptor(
            shard_index=index,
            shard_count=count,
            seed=seed,
            global_indices=tuple(indices),
        )
    reader.expect_end()
    schema = Schema(tuple(Column(n, t) for n, t in header["schema"]))
    return EncryptedTable(
        name=header["name"],
        schema=schema,
        join_column=header["join_column"],
        attribute_columns=tuple(header["attribute_columns"]),
        ciphertexts=ciphertexts,
        payloads=payloads,
        prefilter_tags=prefilter,
        prepared_rows=prepared_rows,
        shard=shard,
    )


def save_encrypted_table(
    table: EncryptedTable,
    path: str | os.PathLike,
    backend: BilinearBackend,
    prepare: bool = False,
) -> None:
    """Write an encrypted table to ``path`` (atomic via rename).

    ``prepare=True`` attaches per-row pairing precomputation before
    writing (see :func:`prepare_encrypted_table`), so the table loads
    warm: every future query over it replays stored coefficients.
    """
    if prepare:
        prepare_encrypted_table(table, backend)
    data = encode_encrypted_table(table, backend)
    temp_path = f"{path}.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
    os.replace(temp_path, path)


def load_encrypted_table(
    path: str | os.PathLike, backend: BilinearBackend
) -> EncryptedTable:
    """Read an encrypted table from ``path``."""
    with open(path, "rb") as handle:
        return decode_encrypted_table(handle.read(), backend)
