"""Unit tests for hashing, value encoding and keyed tags."""

from __future__ import annotations

import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    PrekeyedHmac,
    derive_key,
    encode_value,
    hash_bytes_to_zq,
    hash_to_zq,
    keyed_tag,
)
from repro.crypto.params import CURVE_ORDER


class TestEncodeValue:
    def test_type_tags_prevent_cross_type_collisions(self):
        assert encode_value(1) != encode_value("1")
        assert encode_value(True) != encode_value(1)
        assert encode_value(None) != encode_value("")
        assert encode_value(b"x") != encode_value("x")

    def test_deterministic(self):
        assert encode_value("hello") == encode_value("hello")

    def test_floats(self):
        assert encode_value(1.5) == encode_value(1.5)
        assert encode_value(1.5) != encode_value(2.5)

    def test_signed_zeros_encode_alike(self):
        # -0.0 == 0.0 in Python and in the plaintext join.
        assert encode_value(-0.0) == encode_value(0.0)
        assert hash_to_zq(-0.0, CURVE_ORDER) == hash_to_zq(0.0, CURVE_ORDER)
        assert encode_value(-0.0) != encode_value(0)

    def test_nan_is_refused(self):
        # NaN is unequal to itself: no deterministic encoding agrees.
        for nan in (float("nan"), -float("nan"), float("inf") - float("inf")):
            with pytest.raises(ValueError, match="NaN"):
                encode_value(nan)

    _floats = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), -float("inf")]),
        st.floats(allow_nan=False),
    )

    @given(_floats, _floats)
    def test_floats_encode_equal_iff_equal(self, a, b):
        assert (encode_value(a) == encode_value(b)) == (a == b)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode_value([1, 2])

    @given(st.integers(), st.integers())
    def test_int_injective(self, a, b):
        if a != b:
            assert encode_value(a) != encode_value(b)


class TestHashToZq:
    def test_in_range(self):
        h = hash_to_zq("custkey-42", CURVE_ORDER)
        assert 0 <= h < CURVE_ORDER

    def test_deterministic(self):
        assert hash_to_zq(42, CURVE_ORDER) == hash_to_zq(42, CURVE_ORDER)

    def test_distinct_inputs(self):
        assert hash_to_zq(1, CURVE_ORDER) != hash_to_zq(2, CURVE_ORDER)

    def test_domain_separation(self):
        assert hash_to_zq(1, CURVE_ORDER, b"a") != hash_to_zq(1, CURVE_ORDER, b"b")

    def test_small_modulus(self):
        values = {hash_to_zq(i, 17) for i in range(100)}
        assert values <= set(range(17))
        assert len(values) > 8

    def test_bytes_variant(self):
        assert hash_bytes_to_zq(b"k", CURVE_ORDER) != hash_bytes_to_zq(b"j", CURVE_ORDER)


class TestKeyedTag:
    def test_same_key_same_value(self):
        assert keyed_tag(b"k", "x") == keyed_tag(b"k", "x")

    def test_different_keys_unlinkable(self):
        assert keyed_tag(b"k1", "x") != keyed_tag(b"k2", "x")

    def test_different_values(self):
        assert keyed_tag(b"k", "x") != keyed_tag(b"k", "y")

    def test_domain_separation(self):
        assert keyed_tag(b"k", "x", b"d1") != keyed_tag(b"k", "x", b"d2")

    def test_length(self):
        assert len(keyed_tag(b"k", "x")) == 32


class TestPrekeyedHmac:
    @given(st.binary(max_size=200), st.binary(max_size=300))
    def test_is_hmac_sha256_for_every_key_length(self, key, message):
        assert PrekeyedHmac(key).digest(message) == hmac.digest(
            key, message, "sha256"
        )

    @given(st.binary(max_size=80), st.binary(max_size=80))
    def test_primed_inner_state_splits_the_message(self, prefix, rest):
        mac = PrekeyedHmac(b"k" * 32)
        primed = mac.inner(prefix)
        for _ in range(2):  # the primed state is reusable
            inner = primed.copy()
            inner.update(rest)
            assert mac.finish(inner) == mac.digest(prefix + rest)

    def test_tag_is_keyed_tag(self):
        for value in (None, True, 7, 1.5, b"y", "s"):
            for domain in (b"repro.tag", b"d"):
                expected = hmac.digest(
                    b"k", domain + b"|" + encode_value(value), "sha256"
                )
                assert PrekeyedHmac(b"k").tag(value, domain) == expected
                assert keyed_tag(b"k", value, domain) == expected
            assert PrekeyedHmac(b"k").tag(value) == keyed_tag(b"k", value)


class TestDeriveKey:
    def test_distinct_labels(self):
        master = b"master-secret"
        assert derive_key(master, "join") != derive_key(master, "filter")

    def test_deterministic(self):
        assert derive_key(b"m", "a") == derive_key(b"m", "a")
