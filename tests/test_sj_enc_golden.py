"""Golden SJ.Enc and SJ.TokenGen bytes, on BN254 and on the fast backend.

SJ.Enc is ``d`` fixed-base G2 powers per row and SJ.TokenGen ``d`` G1
powers per table; both run through :class:`BN254Backend`'s fixed-base
tables and the curve module's point-sum kernel.  The bytes in
``tests/data/sj_enc_bn254.bin`` were written by the 4-bit windowed
tables and Jacobian sums that came before the signed 8-bit tables and
the lock-step affine kernel; a change of table or kernel must reproduce
them exactly, since a power is one affine point however it is summed.
Two shapes: d = 5 (``m = 1, t = 1``, the ``bn254_small`` workload) and
the paper's d = 19 (Customers, ``m = 8, t = 1``).

``tests/data/sj_enc_fast.bin`` pins the fast backend's SJ.Enc bytes,
which are the exponents ``w B*`` themselves, so a change in how the
client builds them (the vector, the basis, the hashing) shows up here
whatever the group kernel does:

- 40 seeded TPC-H Orders rows at ``select_inproc``'s layout
  (``m = 9, t = 1``), through ``SecureJoinClient.encrypt_table``;
- the ``chain3_inproc`` layout (``m = 1, t = 10``): a table with
  repeated keys, then two inserts through ``encrypt_row_for``;
- rows narrower than m (padded attribute slots);
- attribute and join values 1, True, 1.0, "1", b"1" and None side by
  side, passed to :class:`SecureJoinScheme` directly (a typed column
  cannot mix them): equal in Python, distinct embeddings;
- 2 048 seeded TPC-H Orders rows through ``encrypt_table`` at both
  workload layouts (``select_inproc``'s m = 9, t = 1, and
  ``chain3_inproc``'s m = 1, t = 10 on Orders' ``custkey`` and
  ``comment``): tables large enough to be encrypted on the process's
  worker pool, pinned as the SHA-256 of their element bytes beside the
  client rng's next draw, so a table split into chunks must come out
  byte for byte as one encrypted in a single pass, and must draw no
  more and no less.

Regenerate (only after a deliberate change of scheme or encoding) with
``PYTHONPATH=src python tests/test_sj_enc_golden.py``, which names the
sections whose bytes moved in each file.

Beside the bytes, a property: ``g1_powers`` / ``g2_powers`` equal the
NAF ladder of ``scalar_mul``, an independent path, on any exponent.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import SecureJoinClient
from repro.core.scheme import SecureJoinParams, SecureJoinScheme
from repro.crypto.backend import BN254Backend, FastBackend
from repro.crypto.curve import G1Point, G2Point
from repro.crypto.params import CURVE_ORDER
from repro.db.schema import Schema
from repro.db.table import Table
from repro.tpch import TPCHGenerator

GOLDEN = Path(__file__).parent / "data" / "sj_enc_bn254.bin"
FAST_GOLDEN = Path(__file__).parent / "data" / "sj_enc_fast.bin"

#: (name, m, t, rows as (join value, attributes), token selections)
_SHAPES = [
    ("d5", 1, 1, [(17, ["a"]), (17, ["b"])], {0: ["a"]}),
    (
        "d19", 8, 1,
        [
            (4242, ["Alice", "BUILDING", 31, "AMERICA", 7, "x", None, 1.5]),
            (4243, ["Bob", "MACHINERY", 4, "ASIA", 9, "y", "z", 2.5]),
        ],
        {1: ["BUILDING"]},
    ),
]


def _sections() -> dict[str, bytes]:
    backend = BN254Backend()
    sections = {}
    for name, m, t, rows, selections in _SHAPES:
        params = SecureJoinParams(m, t, backend_name="bn254")
        scheme = SecureJoinScheme(params, backend, random.Random(f"sj.{name}"))
        msk = scheme.setup()
        sections[f"enc_{name}"] = b"".join(
            backend.encode_g2(element)
            for join_value, attributes in rows
            for element in scheme.encrypt_row(
                msk, join_value, attributes
            ).elements
        )
        token = scheme.token(msk, selections, scheme.new_query_key())
        sections[f"token_{name}"] = b"".join(
            backend.encode_g1(element) for element in token.elements
        )
    return sections


#: (name, m, t, rows as (join value, attributes)) for the scheme alone.
_FAST_SCHEME_SHAPES = [
    (
        "narrow", 3, 2,
        [(5, ["x"]), (5, []), (6, ["x", "y"]), (7, ["x", "y", "z"])],
    ),
    (
        "mixed", 6, 2,
        [
            (1, [1, True, 1.0, "1", b"1", None]),
            (True, [None, b"1", "1", 1.0, True, 1]),
            (1.0, [1, 1, 1.0, 1.0, True, True]),
            ("1", ["1", b"1", "1", b"1", None, None]),
            (b"1", [0, False, 0.0, "", b"", None]),
            (None, [2, 2.5, "2", b"2", False, 1]),
        ],
    ),
]


def _encoded(backend, ciphertexts) -> bytes:
    return b"".join(
        backend.encode_g2(element)
        for ciphertext in ciphertexts
        for element in ciphertext.elements
    )


def _fast_sections() -> dict[str, bytes]:
    backend = FastBackend()
    sections = {}
    orders = TPCHGenerator(0.002, seed=1).orders()
    orders = Table(orders.name, orders.schema, list(orders)[:40])
    client = SecureJoinClient(
        num_attributes=9, in_clause_limit=1, backend=backend,
        rng=random.Random("sj.fast.orders"),
    )
    sections["orders_m9_t1"] = _encoded(
        backend, client.encrypt_table(orders, "custkey").ciphertexts
    )
    keys = Table(
        "T2", Schema.of(("k", "int"), ("v", "str")),
        [(k, f"T2.{row}") for row, k in enumerate([3, 1, 3, 2, 1, 3])],
    )
    client = SecureJoinClient(
        num_attributes=1, in_clause_limit=10, backend=backend,
        rng=random.Random("sj.fast.chain"),
    )
    ciphertexts = client.encrypt_table(keys, "k").ciphertexts
    ciphertexts += [
        client.encrypt_row_for("T2", row)[0] for row in [(2, "x"), (3, "T2.0")]
    ]
    sections["chain_m1_t10"] = _encoded(backend, ciphertexts)
    sections.update(_pooled_sections(backend))
    for name, m, t, rows in _FAST_SCHEME_SHAPES:
        params = SecureJoinParams(m, t)
        scheme = SecureJoinScheme(
            params, backend, random.Random(f"sj.fast.{name}")
        )
        msk = scheme.setup()
        sections[name] = _encoded(
            backend,
            [scheme.encrypt_row(msk, join, values) for join, values in rows],
        )
    return sections


#: Rows of the pooled-size sections.
_POOLED_ROWS = 2048


def _pooled_sections(backend) -> dict[str, bytes]:
    """SHA-256 of a pooled-size table's element bytes, then the client
    rng's next draw (32 bytes each), at the two workload layouts."""
    orders = TPCHGenerator(0.002, seed=1).orders()
    rows = list(orders)[:_POOLED_ROWS]
    narrow = Schema.of(("custkey", "int"), ("comment", "str"))
    custkey = orders.schema.index_of("custkey")
    comment = orders.schema.index_of("comment")
    tables = {
        "pooled_m9_t1": (9, 1, Table(orders.name, orders.schema, rows)),
        "pooled_m1_t10": (1, 10, Table(
            orders.name, narrow,
            [(row[custkey], row[comment]) for row in rows],
        )),
    }
    sections = {}
    for name, (m, t, table) in tables.items():
        client = SecureJoinClient(
            num_attributes=m, in_clause_limit=t, backend=backend,
            rng=random.Random(f"sj.fast.{name}"),
        )
        encrypted = client.encrypt_table(table, "custkey")
        digest = hashlib.sha256(
            _encoded(backend, encrypted.ciphertexts)
        ).digest()
        draw = client.scheme.rng.randrange(backend.order)
        sections[name] = digest + draw.to_bytes(32, "big")
    return sections


@pytest.fixture(scope="module")
def sections() -> dict[str, bytes]:
    return _sections()


@pytest.fixture(scope="module")
def fast_sections() -> dict[str, bytes]:
    return _fast_sections()


_SECTION_SIZES = {
    "enc_d5": 2 * 5 * 128,
    "token_d5": 5 * 64,
    "enc_d19": 2 * 19 * 128,
    "token_d19": 19 * 64,
}

#: A fast element is 32 bytes; d = m(t + 1) + 3.
_FAST_SECTION_SIZES = {
    "orders_m9_t1": 40 * 21 * 32,
    "chain_m1_t10": 8 * 14 * 32,
    "narrow": 4 * 12 * 32,
    "mixed": 6 * 21 * 32,
    "pooled_m9_t1": 32 + 32,
    "pooled_m1_t10": 32 + 32,
}


def _split(data: bytes, sizes) -> dict[str, bytes]:
    stored = {}
    offset = 0
    for name, size in sizes.items():
        stored[name] = data[offset:offset + size]
        offset += size
    return stored


def _stored(path=GOLDEN, sizes=_SECTION_SIZES) -> dict[str, bytes]:
    data = path.read_bytes()
    assert len(data) == sum(sizes.values())
    return _split(data, sizes)


@pytest.mark.bn254
@pytest.mark.parametrize("name", list(_SECTION_SIZES))
def test_golden_bytes(sections, name):
    assert sections[name] == _stored()[name]


@pytest.mark.parametrize("name", list(_FAST_SECTION_SIZES))
def test_fast_golden_bytes(fast_sections, name):
    stored = _stored(FAST_GOLDEN, _FAST_SECTION_SIZES)
    assert fast_sections[name] == stored[name]


def test_fast_golden_rows_are_distinct(fast_sections):
    """No two stored rows coincide, not even rows of equal values: every
    row is blinded by its own gamma_1, gamma_2."""
    rows = [
        data[i:i + 32 * 21]
        for data in (fast_sections["orders_m9_t1"], fast_sections["mixed"])
        for i in range(0, len(data), 32 * 21)
    ]
    assert len(set(rows)) == len(rows)


@pytest.mark.bn254
def test_golden_elements_are_points(sections):
    """Every stored element decodes on its curve, none is infinity, and
    no two are equal."""
    for name, data in sections.items():
        group, size = (G2Point, 128) if name.startswith("enc") else (
            G1Point, 64
        )
        elements = [data[i:i + size] for i in range(0, len(data), size)]
        assert len(set(elements)) == len(elements)
        for element in elements:
            assert not group.from_bytes(element).is_infinity()


# -- powers against the NAF ladder ----------------------------------------

_WINDOW_DIGITS = [0, 1, 127, 128, 129, 255]

_exponents = st.one_of(
    st.integers(min_value=-(2**300), max_value=2**300),
    st.sampled_from(
        [0, 1, -1, -3, CURVE_ORDER - 1, CURVE_ORDER, CURVE_ORDER + 1,
         2 * CURVE_ORDER - 1, 2**254 - 1]
    ),
    # Every 8-bit window a 128 / 129 / 255 digit: the signed recoding's
    # borders, and carries running through many windows.
    st.lists(
        st.sampled_from(_WINDOW_DIGITS), min_size=1, max_size=33
    ).map(lambda digits: sum(d << (8 * i) for i, d in enumerate(digits))),
)

#: One call's exponents, the first one repeated.
_calls = st.lists(_exponents, min_size=1, max_size=3).map(
    lambda exponents: exponents + exponents[:1]
)


@pytest.mark.bn254
@settings(max_examples=25, deadline=None)
@given(exponents=_calls)
def test_g1_powers_equal_scalar_mul(bn254_backend, exponents):
    g = G1Point.generator()
    powers = bn254_backend.g1_powers(exponents)
    assert [p.to_bytes() for p in powers] == [
        g.scalar_mul(e).to_bytes() for e in exponents
    ]


@pytest.mark.bn254
@settings(max_examples=25, deadline=None)
@given(exponents=_calls)
def test_g2_powers_equal_scalar_mul(bn254_backend, exponents):
    g = G2Point.generator()
    powers = bn254_backend.g2_powers(exponents)
    assert [p.to_bytes() for p in powers] == [
        g.scalar_mul(e).to_bytes() for e in exponents
    ]


def _regenerate(path, sizes, fresh) -> None:
    # Split, not _stored: a file written before a section was added is
    # shorter, and its sections read as changed.
    before = _split(path.read_bytes(), sizes) if path.exists() else {}
    changed = [name for name in sizes if fresh[name] != before.get(name)]
    path.parent.mkdir(exist_ok=True)
    blob = b"".join(fresh[name] for name in sizes)
    path.write_bytes(blob)
    print(f"wrote {path} ({len(blob)} bytes)")
    print("sections changed:", ", ".join(changed) or "none")


if __name__ == "__main__":
    _regenerate(GOLDEN, _SECTION_SIZES, _sections())
    _regenerate(FAST_GOLDEN, _FAST_SECTION_SIZES, _fast_sections())
