"""Tests for the bilinear-group backend abstraction.

The central contract: the fast backend and the BN254 backend must be
*observationally equivalent* — equal exponent structure produces equal
GT handles on both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    BN254Backend,
    FastBackend,
    FastGT,
    FastPrepared,
    PreparedRow,
    get_backend,
)
from repro.crypto.params import CURVE_ORDER
from repro.errors import CryptoError


class TestFastBackend:
    def test_order_is_curve_order(self, fast_backend):
        assert fast_backend.order == CURVE_ORDER

    def test_pairing_is_inner_product(self, fast_backend):
        g1 = fast_backend.g1_powers([2, 3])
        g2 = fast_backend.g2_powers([5, 7])
        assert fast_backend.pair_vectors(g1, g2) == fast_backend.gt_generator_power(31)

    def test_gt_pow(self, fast_backend):
        h = fast_backend.gt_generator_power(6)
        assert fast_backend.gt_pow(h, 7) == fast_backend.gt_generator_power(42)

    def test_length_mismatch(self, fast_backend):
        with pytest.raises(CryptoError):
            fast_backend.pair_vectors([1], [1, 2])

    def test_custom_modulus(self):
        backend = FastBackend(modulus=2**61 - 1)
        assert backend.order == 2**61 - 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(CryptoError):
            FastBackend(modulus=2**61)

    def test_gt_bytes_stable(self, fast_backend):
        a = fast_backend.gt_generator_power(5)
        b = fast_backend.gt_generator_power(5 + CURVE_ORDER)
        assert a.to_bytes() == b.to_bytes()
        assert hash(a) == hash(b)

    def test_handles_usable_as_dict_keys(self, fast_backend):
        buckets = {}
        for e in [1, 2, 1, 3, 2]:
            buckets.setdefault(fast_backend.gt_generator_power(e), []).append(e)
        assert len(buckets) == 3


class TestGetBackend:
    def test_returns_singletons(self):
        assert get_backend("fast") is get_backend("fast")
        assert get_backend("bn254") is get_backend("bn254")

    def test_unknown_name(self):
        with pytest.raises(CryptoError):
            get_backend("nope")

    def test_types(self):
        assert isinstance(get_backend("fast"), FastBackend)
        assert isinstance(get_backend("bn254"), BN254Backend)


#: A small field, so that a random element is 0 (the identity) often.
_SMALL_Q = 7


@st.composite
def _chunks(draw):
    """A token and a chunk of tuple, list, prepared and mixed rows, with
    elements in ``[0, 2q)``: 0 is common, and q is live (not 0)."""
    d = draw(st.integers(min_value=0, max_value=6))
    vector = st.lists(
        st.integers(min_value=0, max_value=2 * _SMALL_Q - 1),
        min_size=d, max_size=d,
    )
    token = draw(vector)
    rows = []
    kinds = ["tuple", "list", "prepared", "mixed"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        values = draw(vector)
        if kind == "tuple":
            rows.append(tuple(values))
        elif kind == "list":
            rows.append(values)
        elif kind == "prepared":
            rows.append(PreparedRow(values, tuple(map(FastPrepared, values))))
        else:
            wrapped = draw(st.lists(st.booleans(), min_size=d, max_size=d))
            rows.append([
                FastPrepared(value) if wrap else value
                for value, wrap in zip(values, wrapped)
            ])
    return token, rows


class TestFastKernel:
    """``FastBackend.pair_vectors_batch`` against ``_pair_row``, the
    pair-by-pair reference: same handle bytes, same five counters."""

    @settings(max_examples=300, deadline=None)
    @given(chunk=_chunks())
    def test_batch_equals_reference(self, chunk):
        token, rows = chunk
        backend = FastBackend(modulus=_SMALL_Q)
        expected_handles = []
        expected = [0] * 5
        for row in rows:
            total, raw, prepared = FastBackend._pair_row(token, row)
            expected_handles.append(FastGT(total, backend).to_bytes())
            expected[0] += raw
            expected[1] += bool(raw or prepared)
            expected[2] += prepared
        assert backend.pair_vectors_batch(token, rows) == expected_handles
        assert list(backend.ops.snapshot()) == expected

    @settings(max_examples=50, deadline=None)
    @given(chunk=_chunks(), data=st.data())
    def test_wrong_length_row_raises(self, chunk, data):
        token, rows = chunk
        at = data.draw(st.integers(min_value=0, max_value=len(rows)))
        extra = data.draw(st.sampled_from(["tuple", "list", "prepared"]))
        values = list(token) + [1]
        wrong = {
            "tuple": tuple(values),
            "list": values,
            "prepared": PreparedRow(values, tuple(map(FastPrepared, values))),
        }[extra]
        with pytest.raises(CryptoError):
            FastBackend(modulus=_SMALL_Q).pair_vectors_batch(
                token, rows[:at] + [wrong] + rows[at:]
            )


class TestFastGTRepr:
    def test_reduction(self):
        assert FastGT(CURVE_ORDER + 1, FastBackend()).value == 1


@pytest.mark.bn254
class TestBackendEquivalence:
    """The fast backend must mirror the real pairing's match structure."""

    def test_same_match_pattern(self, bn254_backend, fast_backend):
        vectors = [([1, 2], [3, 4]), ([5, 1], [1, 6]), ([2, 2], [2, 2])]
        real_handles = []
        fast_handles = []
        for v, w in vectors:
            real_handles.append(
                bn254_backend.pair_vectors(
                    bn254_backend.g1_powers(v), bn254_backend.g2_powers(w)
                )
            )
            fast_handles.append(
                fast_backend.pair_vectors(
                    fast_backend.g1_powers(v), fast_backend.g2_powers(w)
                )
            )
        # <1,2;3,4> = 11, <5,1;1,6> = 11, <2,2;2,2> = 8.
        assert real_handles[0] == real_handles[1]
        assert real_handles[0] != real_handles[2]
        assert fast_handles[0] == fast_handles[1]
        assert fast_handles[0] != fast_handles[2]

    def test_generator_power_consistency(self, bn254_backend):
        a = bn254_backend.gt_generator_power(3)
        b = bn254_backend.gt_pow(bn254_backend.gt_generator_power(1), 3)
        assert a == b

    def test_pair_singletons(self, bn254_backend):
        lhs = bn254_backend.pair(
            bn254_backend.g1_power(6), bn254_backend.g2_power(7)
        )
        assert lhs == bn254_backend.gt_generator_power(42)


class TestBackendPickling:
    """Backends are shipped once per pooled worker; keep that cheap."""

    def test_fast_backend_round_trips(self):
        import pickle

        backend = FastBackend()
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.order == backend.order
        assert clone.pair_vectors([3], [5]) == backend.pair_vectors([3], [5])

    @pytest.mark.bn254
    def test_bn254_pickle_drops_fixed_base_caches(self, bn254_backend):
        import pickle

        # Populate the caches, then pickle: the blob must stay small
        # (a table holds thousands of curve points; they are module
        # state, so no backend carries one) and the clone's powers must
        # be byte-identical.
        exponents = [7, 0, CURVE_ORDER - 1, 2**200 + 129]
        g1 = bn254_backend.g1_powers(exponents)
        g2 = bn254_backend.g2_powers(exponents)
        blob = pickle.dumps(bn254_backend)
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        assert not any("table" in name for name in vars(clone))
        assert [p.to_bytes() for p in clone.g1_powers(exponents)] == [
            p.to_bytes() for p in g1
        ]
        assert [p.to_bytes() for p in clone.g2_powers(exponents)] == [
            p.to_bytes() for p in g2
        ]
