"""Hashing, value embedding and keyed tags.

The paper assumes "an efficient and injective embedding from the attribute
values ... to Z_q which generates elements in Z_q uniformly at random"
realized with a cryptographic hash function.  :func:`hash_to_zq` is that
embedding (SHA-512 reduced modulo q; the 512-bit digest makes the modular
bias negligible for a 254-bit q).

:func:`keyed_tag` provides the HMAC-style deterministic tags used by the
searchable-encryption pre-filter and by the deterministic-encryption /
CryptDB / Hahn baselines.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

Value = str | int | float | bytes | bool | None

_HMAC_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def encode_value(value: Value) -> bytes:
    """Canonical, type-tagged byte encoding of a cell value.

    Type tags keep the embedding injective across types
    (``1`` the int never collides with ``"1"`` the string).  Floats
    encode as they compare: ``-0.0`` as ``0.0``, and NaN, which is
    unequal to itself, is refused, since no deterministic encoding
    could be unequal to itself too.
    """
    if value is None:
        return b"N:"
    if isinstance(value, bool):
        return b"B:" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"I:" + str(value).encode("ascii")
    if isinstance(value, float):
        if value != value:
            raise ValueError("NaN has no encoding: it equals no value")
        return b"F:" + struct.pack(">d", value + 0.0)
    if isinstance(value, bytes):
        return b"Y:" + value
    if isinstance(value, str):
        return b"S:" + value.encode("utf-8")
    raise TypeError(f"unsupported cell value type: {type(value).__name__}")


def hash_to_zq(value: Value, q: int, domain: bytes = b"repro.H") -> int:
    """The paper's ``H(.)``: embed a cell value into Z_q.

    Uses SHA-512 over a domain-separated canonical encoding, reduced mod q.
    """
    return hash_bytes_to_zq(encode_value(value), q, domain)


def hash_bytes_to_zq(data: bytes, q: int, domain: bytes = b"repro.Hb") -> int:
    """Embed raw bytes into Z_q (used for key derivation)."""
    digest = hashlib.sha512(domain + b"|" + data).digest()
    return int.from_bytes(digest, "big") % q


class PrekeyedHmac:
    """HMAC-SHA256 with the key schedule done once: the pad states are
    hashed at construction and copied per message.  Equals
    ``hmac.digest(key, msg, "sha256")`` for every key length."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > _HMAC_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_HMAC_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def inner(self, prefix: bytes):
        """An inner state primed with ``prefix``: ``copy()`` it per
        message sharing the prefix, ``update`` the rest, :meth:`finish`."""
        state = self._inner.copy()
        state.update(prefix)
        return state

    def finish(self, inner) -> bytes:
        """The MAC of the message fed to ``inner``."""
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def digest(self, message: bytes) -> bytes:
        return self.finish(self.inner(message))

    def tag(self, value: Value, domain: bytes = b"repro.tag") -> bytes:
        """:func:`keyed_tag` of ``value`` under this key."""
        return self.digest(domain + b"|" + encode_value(value))


def keyed_tag(key: bytes, value: Value, domain: bytes = b"repro.tag") -> bytes:
    """Deterministic keyed tag of a cell value (HMAC-SHA256).

    Two equal values under the same key produce equal tags; under
    different keys the tags are unlinkable.  This realizes both the
    searchable-encryption pre-filter and the deterministic-encryption
    baseline.
    """
    return PrekeyedHmac(key).tag(value, domain)


def derive_key(master: bytes, label: str) -> bytes:
    """Derive an independent subkey from a master secret (HKDF-like)."""
    return hmac.new(master, b"repro.derive|" + label.encode("utf-8"), hashlib.sha256).digest()
