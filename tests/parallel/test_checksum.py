"""Unit tests for the shared CRC32 + chunk helpers.

The checksum module is the single seam the two binary formats
(corpus v2 and the NCD1 sync sidecar) hash through; these tests pin the
seal/unseal and pack/unpack contracts — including the torn and lying
length prefixes the sync corruption paths depend on.
"""

from __future__ import annotations

import zlib

import pytest

from repro.parallel import checksum


def test_checksum_is_zlib_crc32():
    payload = b"necofuzz coverage plane"
    assert checksum.checksum(payload) == zlib.crc32(payload)
    assert checksum.verify(payload, zlib.crc32(payload))
    assert not checksum.verify(payload, zlib.crc32(payload) ^ 1)


def test_seal_unseal_round_trip():
    for payload in (b"", b"\x00", b"x" * 1000):
        assert checksum.unseal(checksum.seal(payload)) == payload


def test_unseal_rejects_corruption():
    sealed = bytearray(checksum.seal(b"payload bytes"))
    sealed[3] ^= 0x40
    assert checksum.unseal(bytes(sealed)) is None


def test_unseal_rejects_short_blob():
    assert checksum.unseal(b"ab") is None


def test_pack_unpack_chunks_round_trip():
    chunks = [b"", b"a", b"bb" * 500, b"\x00\xff"]
    assert checksum.unpack_chunks(checksum.pack_chunks(chunks)) == chunks
    assert checksum.unpack_chunks(b"") == []


def test_unpack_chunks_rejects_torn_prefix():
    raw = checksum.pack_chunks([b"abc"])
    with pytest.raises(ValueError, match="torn"):
        checksum.unpack_chunks(raw + b"\x01\x02")


def test_unpack_chunks_rejects_lying_prefix():
    raw = bytearray(checksum.pack_chunks([b"abc"]))
    raw[0] = 200  # claims 200 bytes; only 3 follow
    with pytest.raises(ValueError, match="exceeds"):
        checksum.unpack_chunks(bytes(raw))
