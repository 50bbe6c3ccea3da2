"""Low-level binary encoding primitives shared by the store formats.

Every format is ``magic || version || u32 header length || JSON header
|| body``; the body is a concatenation of fixed-size element vectors and
length-prefixed blobs.  All integers are big-endian.
"""

from __future__ import annotations

import json
import struct

from repro.errors import SchemeError


class Reader:
    """A cursor over immutable bytes with checked reads."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SchemeError(
                f"truncated blob: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u32s(self, count: int) -> tuple[int, ...]:
        """A run of ``count`` u32s, unpacked in one call."""
        return struct.unpack(f">{count}I", self.take(4 * count))

    def blob(self) -> bytes:
        return self.take(self.u32())

    @property
    def remaining(self) -> int:
        """Bytes left to read — the budget size claims are checked against."""
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        if not self.at_end():
            raise SchemeError(
                f"{len(self._data) - self._pos} unexpected trailing bytes"
            )


class Writer:
    """An append-only byte builder mirroring :class:`Reader`."""

    def __init__(self):
        self._chunks: list[bytes] = []

    def raw(self, data: bytes) -> "Writer":
        self._chunks.append(data)
        return self

    def u8(self, value: int) -> "Writer":
        return self.raw(bytes([value]))

    def u32(self, value: int) -> "Writer":
        return self.raw(struct.pack(">I", value))

    def u32s(self, values) -> "Writer":
        """A run of u32s, packed in one call (mirror of ``Reader.u32s``)."""
        return self.raw(struct.pack(f">{len(values)}I", *values))

    def blob(self, data: bytes) -> "Writer":
        return self.u32(len(data)).raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


def write_header(writer: Writer, magic: bytes, version: int, header: dict) -> None:
    """Emit ``magic || version || length || JSON header``."""
    writer.raw(magic)
    writer.u8(version)
    writer.blob(json.dumps(header, sort_keys=True).encode("utf-8"))


def read_header(reader: Reader, magic: bytes, version: int) -> dict:
    """Parse and validate ``magic || version || length || JSON header``.

    Each format has exactly one current version: any other version byte
    is rejected, naming the one this build speaks.
    """
    seen = reader.take(len(magic))
    if seen != magic:
        raise SchemeError(
            f"bad magic {seen!r}; expected {magic!r} (wrong file type?)"
        )
    seen_version = reader.u8()
    if seen_version != version:
        raise SchemeError(
            f"unsupported format version {seen_version}; this build reads "
            f"and writes only version {version}"
        )
    try:
        header = json.loads(reader.blob().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SchemeError(f"corrupt header: {error}") from error
    if not isinstance(header, dict):
        raise SchemeError(
            f"corrupt header: expected a JSON object, got "
            f"{type(header).__name__}"
        )
    return header


def write_element_vector(writer: Writer, elements: list[bytes], size: int) -> None:
    """A fixed-element-size vector: count then raw concatenation."""
    writer.u32(len(elements))
    for element in elements:
        if len(element) != size:
            raise SchemeError(
                f"element of {len(element)} bytes in a vector of {size}-byte "
                "elements"
            )
        writer.raw(element)


def read_element_vector(reader: Reader, size: int) -> list[bytes]:
    """Inverse of :func:`write_element_vector` (validating).

    The count is wire-supplied (up to 2^32−1), so it is checked against
    the reader's remaining bytes *before* any element is read: a
    corrupted or hostile count must fail fast, not build a huge list
    element by element until the first truncated read aborts it.
    """
    if size < 1:
        raise SchemeError(f"element size must be positive, got {size}")
    count = reader.u32()
    if count * size > reader.remaining:
        raise SchemeError(
            f"bad element-vector count {count}: {count} elements of "
            f"{size} bytes need {count * size} bytes, but only "
            f"{reader.remaining} remain"
        )
    return [reader.take(size) for _ in range(count)]
