"""Tests for the payload stream cipher."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.symmetric import SymmetricCipher
from repro.errors import CryptoError


class TestSymmetricCipher:
    def test_round_trip(self):
        cipher = SymmetricCipher(b"k" * 32)
        blob = cipher.encrypt(b"hello world")
        assert cipher.decrypt(blob) == b"hello world"

    def test_empty_plaintext(self):
        cipher = SymmetricCipher(b"k" * 32)
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_probabilistic(self):
        cipher = SymmetricCipher(b"k" * 32)
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_fixed_nonce_deterministic(self):
        cipher = SymmetricCipher(b"k" * 32)
        nonce = b"n" * 16
        assert cipher.encrypt(b"x", nonce) == cipher.encrypt(b"x", nonce)

    def test_wrong_key_fails(self):
        blob = SymmetricCipher(b"a" * 32).encrypt(b"secret")
        with pytest.raises(CryptoError):
            SymmetricCipher(b"b" * 32).decrypt(blob)

    def test_tamper_detection(self):
        cipher = SymmetricCipher(b"k" * 32)
        blob = bytearray(cipher.encrypt(b"payload bytes"))
        blob[20] ^= 0x01
        with pytest.raises(CryptoError):
            cipher.decrypt(bytes(blob))

    def test_truncated_blob(self):
        cipher = SymmetricCipher(b"k" * 32)
        with pytest.raises(CryptoError):
            cipher.decrypt(b"short")

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            SymmetricCipher(b"tiny")

    def test_bad_nonce_length(self):
        cipher = SymmetricCipher(b"k" * 32)
        with pytest.raises(CryptoError):
            cipher.encrypt(b"x", b"short-nonce")

    def test_long_plaintext(self):
        cipher = SymmetricCipher(b"k" * 32)
        plaintext = bytes(range(256)) * 64
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    @given(st.binary(max_size=512))
    def test_round_trip_property(self, plaintext):
        cipher = SymmetricCipher(b"prop-key-32-bytes-prop-key-32-by")
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    @given(st.binary(min_size=1, max_size=64), st.integers(8193, 20000))
    def test_more_than_256_counter_blocks_round_trip(self, chunk, length):
        cipher = SymmetricCipher(b"prop-key-32-bytes-prop-key-32-by")
        plaintext = (chunk * (length // len(chunk) + 1))[:length]
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext


class TestByteIdentity:
    """``tests/data/payload_cipher.bin`` was written by the cipher as it
    stood before the pre-keyed kernel (per-call ``hmac.new``, per-byte
    XOR): key ``bytes(range(32))`` and, for each length ``n`` below,
    nonce ``bytes([n]) * 16`` and plaintext ``(7 * i + n) % 256``, the
    blobs concatenated in order.  Stored tables and pinned wire frames
    depend on these bytes never moving."""

    LENGTHS = (0, 1, 31, 32, 33, 64, 200)

    def test_known_answers_reproduce_and_decrypt(self):
        pinned = (
            Path(__file__).parent / "data" / "payload_cipher.bin"
        ).read_bytes()
        cipher = SymmetricCipher(bytes(range(32)))
        offset = 0
        for n in self.LENGTHS:
            plaintext = bytes((7 * i + n) % 256 for i in range(n))
            blob = pinned[offset:offset + n + 32]
            offset += len(blob)
            assert cipher.encrypt(plaintext, bytes([n]) * 16) == blob
            assert cipher.decrypt(blob) == plaintext
        assert offset == len(pinned)
