"""Golden SJ.Dec handles and op counts on the fast backend.

``tests/data/sj_dec_fast.bin`` pins what
:meth:`FastBackend.pair_vectors_batch` returns and counts, chunk by
chunk: the handle bytes of every row, then the five
:class:`~repro.crypto.backend.PairingOpCounter` fields (cumulative)
after each chunk of the :func:`~repro.core.service.chunk_spans` ramp
(1, 2, 4, … 64 rows, 127 rows in seven chunks).  A change of kernel
must reproduce both: the handles are the hash-join keys, and the counts
are the same-counts contract with BN254 (README.md, "Two backends").

- ``select_inproc``'s layout (``m = 9, t = 1``, d = 21): TPC-H Orders
  rows through ``SecureJoinClient.encrypt_table``, a token selecting
  one ``selectivity`` value; raw rows as the store hands them over
  (tuples), then the same rows prepared;
- ``chain3_inproc``'s layout (``m = 1, t = 10``, d = 14): a key column
  with repeats and a token with no selection, raw and prepared;
- one hand-built edge chunk at d = 5, against a token without and a
  token with a 0 (the identity): rows holding a 0, an all-zero row,
  prepared rows with and without a 0, a row mixing raw and prepared
  elements, and a row given as a list.

Regenerate (only after a deliberate change of kernel or counting) with
``PYTHONPATH=src python tests/test_sj_dec_golden.py``, which names the
sections whose bytes moved.
"""

from __future__ import annotations

import random
import struct
from pathlib import Path

import pytest

from repro.core.client import SecureJoinClient
from repro.core.service import chunk_spans
from repro.crypto.backend import FastBackend, FastPrepared
from repro.db.schema import Schema
from repro.db.table import Table
from repro.tpch import TPCHGenerator

GOLDEN = Path(__file__).parent / "data" / "sj_dec_fast.bin"

#: Rows per layout: one full ramp of chunks up to the engine's 64.
_ROWS = 127
_SPANS = chunk_spans(_ROWS, 64)
_HANDLE = 32
_COUNTS = 5 * 8


def _ramp(backend, token, rows) -> bytes:
    """Every chunk's handles, then the op counters after every chunk."""
    backend.ops.reset()
    handles, counts = [], []
    for start, stop in _SPANS:
        handles += backend.pair_vectors_batch(token, rows[start:stop])
        counts.append(struct.pack(">5Q", *backend.ops.snapshot()))
    return b"".join(handles) + b"".join(counts)


def _layout(client, table, join_column, selections) -> tuple[list, list]:
    encrypted = client.encrypt_table(table, join_column)
    positions = {c: i for i, c in enumerate(encrypted.attribute_columns)}
    token = client.scheme.token(
        client.msk,
        {positions[column]: values for column, values in selections.items()},
        client.scheme.new_query_key(),
    )
    return list(token.elements), [c.elements for c in encrypted.ciphertexts]


def _edge_rows(backend) -> list:
    rng = random.Random("sj.dec.edge")

    def draw():
        return [rng.randrange(1, backend.order) for _ in range(5)]

    with_zero = draw()
    with_zero[2] = 0
    prepared_zero = draw()
    prepared_zero[0] = 0
    mixed = draw()
    mixed[1::2] = [FastPrepared(value) for value in mixed[1::2]]
    return [
        tuple(draw()),
        tuple(with_zero),
        (0,) * 5,
        backend.prepare_row(draw()),
        backend.prepare_row(prepared_zero),
        mixed,
        draw(),
        tuple(draw()),
    ]


def _sections() -> dict[str, bytes]:
    backend = FastBackend()
    sections = {}
    orders = TPCHGenerator(0.002, seed=1).orders()
    orders = Table(orders.name, orders.schema, list(orders)[:_ROWS])
    client = SecureJoinClient(
        num_attributes=9, in_clause_limit=1, backend=backend,
        rng=random.Random("sj.dec.orders"),
    )
    token, rows = _layout(
        client, orders, "custkey",
        {"selectivity": [orders.value(0, "selectivity")]},
    )
    sections["select_m9_t1"] = _ramp(backend, token, rows)
    prepared = [backend.prepare_row(row) for row in rows]
    sections["select_m9_t1_prepared"] = _ramp(backend, token, prepared)

    keys = Table(
        "T2", Schema.of(("k", "int"), ("v", "str")),
        [(row % 50, f"T2.{row}") for row in range(_ROWS)],
    )
    client = SecureJoinClient(
        num_attributes=1, in_clause_limit=10, backend=backend,
        rng=random.Random("sj.dec.chain"),
    )
    token, rows = _layout(client, keys, "k", {})
    sections["chain_m1_t10"] = _ramp(backend, token, rows)
    prepared = [backend.prepare_row(row) for row in rows]
    sections["chain_m1_t10_prepared"] = _ramp(backend, token, prepared)

    rng = random.Random("sj.dec.edge.token")
    token = [rng.randrange(1, backend.order) for _ in range(5)]
    rows = _edge_rows(backend)
    zero_token = token[:3] + [0] + token[4:]
    for name, vector in [("edge", token), ("edge_zero_token", zero_token)]:
        backend.ops.reset()
        handles = backend.pair_vectors_batch(vector, rows)
        sections[name] = b"".join(handles) + (
            struct.pack(">5Q", *backend.ops.snapshot())
        )
    return sections


_LAYOUT_SIZE = _ROWS * _HANDLE + len(_SPANS) * _COUNTS
_EDGE_SIZE = 8 * _HANDLE + _COUNTS

_SECTION_SIZES = {
    "select_m9_t1": _LAYOUT_SIZE,
    "select_m9_t1_prepared": _LAYOUT_SIZE,
    "chain_m1_t10": _LAYOUT_SIZE,
    "chain_m1_t10_prepared": _LAYOUT_SIZE,
    "edge": _EDGE_SIZE,
    "edge_zero_token": _EDGE_SIZE,
}


@pytest.fixture(scope="module")
def sections() -> dict[str, bytes]:
    return _sections()


def _stored() -> dict[str, bytes]:
    data = GOLDEN.read_bytes()
    assert len(data) == sum(_SECTION_SIZES.values())
    stored = {}
    offset = 0
    for name, size in _SECTION_SIZES.items():
        stored[name] = data[offset:offset + size]
        offset += size
    return stored


@pytest.mark.parametrize("name", list(_SECTION_SIZES))
def test_golden_bytes(sections, name):
    assert sections[name] == _stored()[name]


def _counts(section: bytes, chunks: int) -> list[tuple[int, ...]]:
    tail = section[len(section) - chunks * _COUNTS:]
    return [
        struct.unpack(">5Q", tail[i:i + _COUNTS])
        for i in range(0, len(tail), _COUNTS)
    ]


def test_golden_counts_are_the_bn254_model(sections):
    """The pinned counts are the ones BN254 would run: d Miller loops
    (raw or replayed) and one final exponentiation per row with no 0
    in it, nothing else."""
    for name, d in [("select_m9_t1", 21), ("chain_m1_t10", 14)]:
        for suffix, loops in [("", 0), ("_prepared", 2)]:
            final = _counts(sections[name + suffix], len(_SPANS))[-1]
            expected = [0] * 5
            expected[loops] = _ROWS * d
            expected[1] = _ROWS
            assert list(final) == expected


def test_golden_edge_counts(sections):
    """The edge chunk against a zero-free token: a 0 in a row drops its
    pair, the all-zero row counts no final exponentiation, and the
    mixed row counts each element on its own counter; against a token
    with a 0 every row loses that position's pair too."""
    [edge] = _counts(sections["edge"], 1)
    # raw 5 + 4 + 3 (mixed) + 5 + 5, prepared 5 + 4 + 2 (mixed)
    assert edge == (22, 7, 11, 0, 0)
    [zero] = _counts(sections["edge_zero_token"], 1)
    # raw 4 + 3 + 3 + 4 + 4, prepared 4 + 3 + 1
    assert zero == (18, 7, 8, 0, 0)


if __name__ == "__main__":
    before = _stored() if GOLDEN.exists() else {}
    fresh = _sections()
    changed = [
        name for name in _SECTION_SIZES if fresh[name] != before.get(name)
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    blob = b"".join(fresh[name] for name in _SECTION_SIZES)
    GOLDEN.write_bytes(blob)
    print(f"wrote {GOLDEN} ({len(blob)} bytes)")
    print("sections changed:", ", ".join(changed) or "none")
