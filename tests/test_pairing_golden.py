"""Golden BN254 pairing bytes.

Every other pairing test compares :mod:`repro.crypto.pairing_fast` with
:mod:`repro.crypto.pairing`, and both sit on the same ``Fp12`` class, so
a field bug common to both would pass them all.  The bytes in
``tests/data/pairing_bn254.bin`` were written before the flat kernel
replaced the object tower; a kernel change must reproduce them exactly.
Regenerate (only after a *deliberate* change of representation) with
``PYTHONPATH=src python tests/test_pairing_golden.py``, which names the
sections whose bytes moved.  The signed-digit ate loop moved
``miller_value`` and ``prepared_sha256`` (a different trajectory to the
same point); the five pairing and handle sections are still the bytes
of the object tower.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.crypto.backend import BN254Backend
from repro.crypto.curve import G1Point, G2Point
from repro.crypto.pairing_fast import (
    G2Prepared,
    miller_loop_fast,
    multi_pairing_fast,
    multi_pairing_prepared,
    pairing_fast,
)

pytestmark = pytest.mark.bn254

GOLDEN = Path(__file__).parent / "data" / "pairing_bn254.bin"

_SCALARS = [
    (0x1234567, 0x7654321),
    (3, 2**200 + 77),
    (2**253 + 19, 5),
    (0xDEADBEEF, 0xC0FFEE),
    (41, 43),
]


def _sections() -> dict[str, bytes]:
    g1, g2 = G1Point.generator(), G2Point.generator()
    pairs = [(g1 * a, g2 * b) for a, b in _SCALARS]
    p, q = pairs[0]
    prepared = [(p_i, G2Prepared.from_point(q_i)) for p_i, q_i in pairs]
    # Raw and prepared elements interleaved, with one infinity on each
    # side: the shape BN254Backend.pair_vectors serves for a store that
    # is only partly prepared.
    mixed_g1 = [p_i for p_i, _ in pairs] + [G1Point.infinity(), g1]
    mixed_g2 = [
        prepared[i][1] if i % 2 else pairs[i][1] for i in range(len(pairs))
    ] + [g2, G2Point.infinity()]
    return {
        "generator_pairing": pairing_fast(g1, g2).to_bytes(),
        "scalar_pairing": pairing_fast(p, q).to_bytes(),
        "miller_value": miller_loop_fast(q, p).to_bytes(),
        "multi_pairing_fast": multi_pairing_fast(pairs).to_bytes(),
        "multi_pairing_prepared": multi_pairing_prepared(prepared).to_bytes(),
        "pair_vectors_mixed": BN254Backend().pair_vectors(
            mixed_g1, mixed_g2
        ).to_bytes(),
        "prepared_sha256": hashlib.sha256(
            prepared[0][1].to_bytes()
        ).digest(),
    }


@pytest.fixture(scope="module")
def sections() -> dict[str, bytes]:
    return _sections()


_SECTION_SIZES = {
    "generator_pairing": 384,
    "scalar_pairing": 384,
    "miller_value": 384,
    "multi_pairing_fast": 384,
    "multi_pairing_prepared": 384,
    "pair_vectors_mixed": 384,
    "prepared_sha256": 32,
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


def test_golden_sections_are_consistent(sections):
    """The three multi-pairing routes agree with each other, and none of
    the stored values is a trivial one."""
    assert (
        sections["multi_pairing_fast"] == sections["multi_pairing_prepared"]
    )
    assert sections["pair_vectors_mixed"] == sections["multi_pairing_fast"]
    assert len(set(sections.values())) == len(sections) - 2


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
