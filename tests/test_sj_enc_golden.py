"""Golden BN254 SJ.Enc and SJ.TokenGen bytes.

SJ.Enc is ``d`` fixed-base G2 powers per row and SJ.TokenGen ``d`` G1
powers per table; both run through :class:`BN254Backend`'s fixed-base
tables and the curve module's point-sum kernel.  The bytes in
``tests/data/sj_enc_bn254.bin`` were written by the 4-bit windowed
tables and Jacobian sums that came before the signed 8-bit tables and
the lock-step affine kernel; a change of table or kernel must reproduce
them exactly, since a power is one affine point however it is summed.
Two shapes: d = 5 (``m = 1, t = 1``, the ``bn254_small`` workload) and
the paper's d = 19 (Customers, ``m = 8, t = 1``).  Regenerate (only
after a deliberate change of scheme or encoding) with
``PYTHONPATH=src python tests/test_sj_enc_golden.py``, which names the
sections whose bytes moved.

Beside the bytes, a property: ``g1_powers`` / ``g2_powers`` equal the
NAF ladder of ``scalar_mul``, an independent path, on any exponent.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import SecureJoinParams, SecureJoinScheme
from repro.crypto.backend import BN254Backend
from repro.crypto.curve import G1Point, G2Point
from repro.crypto.params import CURVE_ORDER

pytestmark = pytest.mark.bn254

GOLDEN = Path(__file__).parent / "data" / "sj_enc_bn254.bin"

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


@pytest.fixture(scope="module")
def sections() -> dict[str, bytes]:
    return _sections()


_SECTION_SIZES = {
    "enc_d5": 2 * 5 * 128,
    "token_d5": 5 * 64,
    "enc_d19": 2 * 19 * 128,
    "token_d19": 19 * 64,
}


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


@settings(max_examples=25, deadline=None)
@given(exponents=_calls)
def test_g1_powers_equal_scalar_mul(bn254_backend, exponents):
    g = G1Point.generator()
    powers = bn254_backend.g1_powers(exponents)
    assert [p.to_bytes() for p in powers] == [
        g.scalar_mul(e).to_bytes() for e in exponents
    ]


@settings(max_examples=25, deadline=None)
@given(exponents=_calls)
def test_g2_powers_equal_scalar_mul(bn254_backend, exponents):
    g = G2Point.generator()
    powers = bn254_backend.g2_powers(exponents)
    assert [p.to_bytes() for p in powers] == [
        g.scalar_mul(e).to_bytes() for e in exponents
    ]


if __name__ == "__main__":
    fresh = _sections()
    before = _stored() if GOLDEN.exists() else {}
    changed = [
        name for name in _SECTION_SIZES if fresh[name] != before.get(name)
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    blob = b"".join(fresh[name] for name in _SECTION_SIZES)
    GOLDEN.write_bytes(blob)
    print(f"wrote {GOLDEN} ({len(blob)} bytes)")
    print("sections changed:", ", ".join(changed) or "none")
