"""Shared CRC32 + length-prefix helpers for the binary protocols.

The corpus wire format (:mod:`repro.parallel.wire`) and the NCD1 coverage
deltas of the sync sidecar (:mod:`repro.coverage.delta`) checksum their
payloads the same way. One definition keeps the formats bit-compatible
with each other and gives the property tests a single seam to pin.

Everything here is pure bytes-in/bytes-out: no I/O, no protocol
knowledge beyond "a CRC32 and a little-endian u32 length prefix".
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable

#: The little-endian u32 length prefix used by every chunk list on the
#: wire (fetch-reply record blobs, push bodies) and by sealed payloads.
LENGTH_PREFIX = struct.Struct("<I")

#: Trailing CRC32 of a sealed payload (same width as the prefix).
_CRC_TRAILER = struct.Struct("<I")


def checksum(payload: bytes) -> int:
    """The protocol-wide payload checksum (CRC32, zlib polynomial)."""
    return zlib.crc32(payload)


def verify(payload: bytes, crc: int) -> bool:
    """Does *payload* hash to *crc*?"""
    return zlib.crc32(payload) == crc


def seal(payload: bytes) -> bytes:
    """*payload* plus its trailing CRC32 (self-verifying blob)."""
    return payload + _CRC_TRAILER.pack(zlib.crc32(payload))


def unseal(raw: bytes) -> bytes | None:
    """Invert :func:`seal`; ``None`` for a short or corrupt blob."""
    if len(raw) < _CRC_TRAILER.size:
        return None
    payload = raw[:-_CRC_TRAILER.size]
    (crc,) = _CRC_TRAILER.unpack_from(raw, len(payload))
    if zlib.crc32(payload) != crc:
        return None
    return payload


def pack_chunks(chunks: Iterable[bytes]) -> bytes:
    """Concatenate chunks with 4-byte length prefixes."""
    pack = LENGTH_PREFIX.pack
    return b"".join(pack(len(chunk)) + chunk for chunk in chunks)


def unpack_chunks(raw: bytes) -> list[bytes]:
    """Invert :func:`pack_chunks`.

    Raises :class:`ValueError` on a torn or lying length prefix; wire
    layers re-raise it as their own corruption error.
    """
    chunks = []
    pos = 0
    size = LENGTH_PREFIX.size
    while pos < len(raw):
        if pos + size > len(raw):
            raise ValueError("torn chunk length prefix")
        (length,) = LENGTH_PREFIX.unpack_from(raw, pos)
        pos += size
        if pos + length > len(raw):
            raise ValueError("chunk length prefix exceeds the payload")
        chunks.append(raw[pos:pos + length])
        pos += length
    return chunks
