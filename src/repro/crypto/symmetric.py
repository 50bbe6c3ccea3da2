"""Probabilistic symmetric encryption for row payloads.

The Secure Join ciphertexts only carry the *join/selection structure*;
the actual cell contents travel under ordinary probabilistic symmetric
encryption that the server never opens.  No AES implementation is
available offline, so we build a standard HMAC-SHA256-based stream
cipher (counter-mode keystream, random nonce, encrypt-then-MAC).  Its
role in the reproduction is purely functional; any IND-CPA cipher slots
in here.
"""

from __future__ import annotations

import hmac
import os

from repro.crypto.hashing import PrekeyedHmac
from repro.errors import CryptoError

_NONCE_LEN = 16
_MAC_LEN = 16
_BLOCK_LEN = 32


class SymmetricCipher:
    """Encrypt-then-MAC stream cipher keyed by a 32-byte secret."""

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise CryptoError("symmetric key must be at least 16 bytes")
        root = PrekeyedHmac(key)
        self._enc = PrekeyedHmac(root.digest(b"enc"))
        self._mac = PrekeyedHmac(root.digest(b"mac"))

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the keystream ``HMAC(enc, nonce || counter)``,
        counter = 0, 1, ... as 8 big-endian bytes, one block each."""
        length = len(data)
        primed = self._enc.inner(nonce)
        finish = self._enc.finish
        blocks = []
        for counter in range((length + _BLOCK_LEN - 1) // _BLOCK_LEN):
            inner = primed.copy()
            inner.update(counter.to_bytes(8, "big"))
            blocks.append(finish(inner))
        stream = b"".join(blocks)
        # One big-integer XOR; the shift drops the last block's unused tail.
        unused_bits = 8 * (len(stream) - length)
        return (
            int.from_bytes(data, "big")
            ^ (int.from_bytes(stream, "big") >> unused_bits)
        ).to_bytes(length, "big")

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """Return ``nonce || ciphertext || mac`` (fresh random nonce)."""
        if nonce is None:
            nonce = os.urandom(_NONCE_LEN)
        if len(nonce) != _NONCE_LEN:
            raise CryptoError(f"nonce must be {_NONCE_LEN} bytes")
        sealed = nonce + self._xor_keystream(nonce, plaintext)
        return sealed + self._mac.digest(sealed)[:_MAC_LEN]

    def decrypt(self, blob: bytes) -> bytes:
        """Verify the MAC and return the plaintext."""
        if len(blob) < _NONCE_LEN + _MAC_LEN:
            raise CryptoError("ciphertext too short")
        expected = self._mac.digest(blob[:-_MAC_LEN])
        if not hmac.compare_digest(blob[-_MAC_LEN:], expected[:_MAC_LEN]):
            raise CryptoError("MAC verification failed")
        return self._xor_keystream(blob[:_NONCE_LEN], blob[_NONCE_LEN:-_MAC_LEN])
