"""The corpus wire format: struct-packed queue records + append-only manifest.

Workers never write one file per queue entry (``FuzzEngine.save_corpus``
does that for ``--corpus-dir``): rewriting and re-listing a directory
every sync round is O(corpus) filesystem work per round. The wire
format keeps exactly two files per worker queue directory:

``queue.bin``
    Concatenated binary records, append-only. Each record is a fixed
    header (:data:`RECORD_HEADER`) followed by the input bytes, the
    entry's sparse classified coverage (``(cell, class-bit)`` pairs,
    sorted), and the entry's covered-line indices into the shared
    instrumented-universe table (:class:`LineCodec`).

``queue.idx``
    The manifest: one fixed 16-byte record ``(offset, length, crc32)``
    per ``queue.bin`` record, appended *after* the data record. Torn
    tails are therefore invisible: a partial manifest record (size not a
    multiple of 16) is ignored, and a manifest record whose data fails
    its CRC is skipped and retried after the owner heals the file.

Importers remember how many manifest records they have consumed per
partner and only read record payloads past that point — a seek into
``queue.bin`` instead of a directory re-listing. Exporters remember how
many records (and bytes) they have appended; on each export they verify
the tail still matches (size + last-record CRC, O(1)) and, when a crash
or injected corruption broke it, rewrite both files from the live queue.

The per-entry coverage and line payloads exist for the subsumption
filter: a partner whose virgin map already contains every shipped
``(cell, class-bit)`` pair skips *executing* the entry and just absorbs
the shipped line coverage. Crashing or anomalous entries never carry
that shortcut — they are always re-executed so crash accounting stays
identical to executing every import.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from repro.parallel import checksum

QUEUE_BIN = "queue.bin"
QUEUE_IDX = "queue.idx"

RECORD_MAGIC = b"NCQ2"

#: magic, entry index, found_at, new_bits, flags, cell count, line count,
#: data length, digest (sha256 of the packed coverage cells, truncated).
RECORD_HEADER = struct.Struct("<4sIQBBIII16s")
_CELL = struct.Struct("<HB")
_LINE = struct.Struct("<H")
MANIFEST_RECORD = struct.Struct("<QII")  # offset, length, crc32

FLAG_IMPORTED = 1
FLAG_SEED = 2
FLAG_CRASHED = 4
FLAG_ANOMALY = 8
FLAG_COVERAGE = 16  # record carries sparse classified coverage
FLAG_LINES = 32     # record carries covered-line indices


@dataclass(frozen=True)
class WireRecord:
    """One decoded corpus entry."""

    index: int
    data: bytes
    found_at: int
    new_bits: int
    imported: bool
    seed: bool
    crashed: bool
    anomaly: bool
    #: Sorted ``(cell, class-bit)`` pairs, or None when not shipped.
    coverage: tuple[tuple[int, int], ...] | None
    #: Covered source lines, or None when not shipped / not decodable.
    lines: frozenset | None


class LineCodec:
    """Two-byte indices into the sorted instrumented-line universe.

    Every worker of one campaign instruments the same modules, so the
    sorted universe — and therefore the index assignment — is identical
    across workers without any coordination. Lines outside the universe
    (settrace mode can observe harness frames) make a set unencodable;
    the record then ships without ``FLAG_LINES`` and is simply never
    skipped by the subsumption filter.
    """

    def __init__(self, universe: Iterable) -> None:
        self.universe = tuple(sorted(universe))
        self._index = {line: i for i, line in enumerate(self.universe)}

    def encode(self, lines: Iterable) -> bytes | None:
        if len(self.universe) > 0xFFFF:
            return None
        index = self._index
        out = []
        for line in lines:
            i = index.get(line)
            if i is None:
                return None
            out.append(i)
        out.sort()
        return b"".join(_LINE.pack(i) for i in out)

    def decode(self, payload: bytes) -> frozenset | None:
        universe = self.universe
        total = len(universe)
        lines = []
        for (i,) in _LINE.iter_unpack(payload):
            if i >= total:
                return None  # produced against a different universe
            lines.append(universe[i])
        return frozenset(lines)


def coverage_digest(coverage: Sequence[tuple[int, int]]) -> bytes:
    """Truncated sha256 over the packed coverage cells."""
    h = hashlib.sha256()
    for idx, cls in coverage:
        h.update(_CELL.pack(idx, cls))
    return h.digest()[:16]


def pack_record(index: int, entry, codec: LineCodec | None = None) -> bytes:
    """Serialize one :class:`repro.fuzzer.queue.QueueEntry`."""
    flags = 0
    if entry.imported:
        flags |= FLAG_IMPORTED
    if not entry.found_at and not entry.new_bits:
        flags |= FLAG_SEED
    if getattr(entry, "crashed", False):
        flags |= FLAG_CRASHED
    if getattr(entry, "anomaly", False):
        flags |= FLAG_ANOMALY
    coverage = getattr(entry, "coverage", None)
    cells = b""
    if coverage is not None:
        flags |= FLAG_COVERAGE
        cells = b"".join(_CELL.pack(i, c) for i, c in coverage)
    line_payload = b""
    lines = getattr(entry, "lines", None)
    if lines is not None and codec is not None:
        encoded = codec.encode(lines)
        if encoded is not None:
            flags |= FLAG_LINES
            line_payload = encoded
    header = RECORD_HEADER.pack(
        RECORD_MAGIC, index, entry.found_at, entry.new_bits, flags,
        len(cells) // _CELL.size, len(line_payload) // _LINE.size,
        len(entry.data), coverage_digest(coverage or ()))
    return header + entry.data + cells + line_payload


def parse_record(blob: bytes, codec: LineCodec | None = None
                 ) -> WireRecord | None:
    """Decode one record; ``None`` for anything malformed."""
    if len(blob) < RECORD_HEADER.size:
        return None
    (magic, index, found_at, new_bits, flags, cell_count, line_count,
     data_len, digest) = RECORD_HEADER.unpack_from(blob)
    expected = (RECORD_HEADER.size + data_len + cell_count * _CELL.size
                + line_count * _LINE.size)
    if magic != RECORD_MAGIC or data_len == 0 or len(blob) != expected:
        return None
    offset = RECORD_HEADER.size
    data = blob[offset:offset + data_len]
    offset += data_len
    coverage = None
    if flags & FLAG_COVERAGE:
        coverage = tuple(
            _CELL.unpack_from(blob, offset + k * _CELL.size)
            for k in range(cell_count))
        if coverage_digest(coverage) != digest:
            return None
    offset += cell_count * _CELL.size
    lines = None
    if flags & FLAG_LINES and codec is not None:
        # An undecodable payload degrades to "no lines": the entry is
        # then executed rather than skipped, which is always safe.
        lines = codec.decode(blob[offset:offset + line_count * _LINE.size])
    return WireRecord(
        index=index, data=data, found_at=found_at, new_bits=new_bits,
        imported=bool(flags & FLAG_IMPORTED), seed=bool(flags & FLAG_SEED),
        crashed=bool(flags & FLAG_CRASHED),
        anomaly=bool(flags & FLAG_ANOMALY),
        coverage=coverage, lines=lines)


@dataclass(frozen=True)
class RecordSummary:
    """A codec-free header view of one record (coverage plane).

    What the sync sidecar writer reads without decoding through the
    campaign's :class:`LineCodec`: flags, the verified sparse coverage,
    and the *raw* line indices (every worker of a campaign shares one
    sorted universe, so indices are meaningful without decoding).
    """

    flags: int
    #: Verified sorted ``(cell, class-bit)`` pairs, or None.
    coverage: tuple[tuple[int, int], ...] | None
    #: Raw u16 indices into the shared line universe, or None.
    line_indices: tuple[int, ...] | None

    @property
    def skippable(self) -> bool:
        """May a subsuming receiver absorb this record unexecuted?

        Mirrors :func:`repro.parallel.sync.record_subsumed`'s structural
        half: coverage and lines must both be shipped, and crashing or
        anomalous entries always travel in full (they re-execute).
        """
        return (self.coverage is not None
                and self.line_indices is not None
                and not self.flags & (FLAG_CRASHED | FLAG_ANOMALY))


def summarize_record(blob: bytes) -> RecordSummary | None:
    """Header + coverage view of one record, without a codec.

    ``None`` for anything malformed — the caller then leaves the record
    to the receiver's own parse, so no skip decision is ever made on
    bytes that could not be verified.
    """
    if len(blob) < RECORD_HEADER.size:
        return None
    (magic, _index, _found_at, _new_bits, flags, cell_count, line_count,
     data_len, digest) = RECORD_HEADER.unpack_from(blob)
    expected = (RECORD_HEADER.size + data_len + cell_count * _CELL.size
                + line_count * _LINE.size)
    if magic != RECORD_MAGIC or data_len == 0 or len(blob) != expected:
        return None
    offset = RECORD_HEADER.size + data_len
    coverage = None
    if flags & FLAG_COVERAGE:
        coverage = tuple(
            _CELL.unpack_from(blob, offset + k * _CELL.size)
            for k in range(cell_count))
        if coverage_digest(coverage) != digest:
            return None
    offset += cell_count * _CELL.size
    line_indices = None
    if flags & FLAG_LINES:
        line_indices = tuple(
            i for (i,) in _LINE.iter_unpack(
                blob[offset:offset + line_count * _LINE.size]))
    return RecordSummary(flags=flags, coverage=coverage,
                         line_indices=line_indices)


def pack_line_indices(indices: Iterable[int]) -> bytes:
    """Raw u16 line indices as one :meth:`LineCodec.decode`-able payload.

    The sync sidecar ships one such payload per skippable record; the
    receiver decodes it with its own codec and absorbs the lines in one
    call when its virgin map already subsumes the record.
    """
    return b"".join(_LINE.pack(i) for i in sorted(indices))


# --- file layer ---------------------------------------------------------


def read_manifest(queue_dir: Path) -> list[tuple[int, int, int]]:
    """All complete ``(offset, length, crc32)`` manifest records.

    A torn 16-byte tail (owner died mid-append) is silently ignored —
    its data record becomes visible on the owner's next export.
    """
    try:
        raw = (Path(queue_dir) / QUEUE_IDX).read_bytes()
    except OSError:
        return []
    usable = len(raw) - len(raw) % MANIFEST_RECORD.size
    return [MANIFEST_RECORD.unpack_from(raw, pos)
            for pos in range(0, usable, MANIFEST_RECORD.size)]


def read_record_blob(handle: BinaryIO, offset: int, length: int,
                     crc: int) -> bytes | None:
    """One raw record out of an open ``queue.bin``; CRC-checked."""
    try:
        handle.seek(offset)
        blob = handle.read(length)
    except OSError:
        return None
    if len(blob) != length or not checksum.verify(blob, crc):
        return None
    return blob


def append_records(queue_dir: Path, blobs: Sequence[bytes]) -> int:
    """Append records to ``queue.bin``, then their manifest entries.

    Returns the bytes added to ``queue.bin``. Ordering is the torn-write
    defence: data first, manifest second, so a manifest record never
    points past the data it describes.
    """
    queue_dir = Path(queue_dir)
    bin_path = queue_dir / QUEUE_BIN
    offset = bin_path.stat().st_size if bin_path.exists() else 0
    manifest = bytearray()
    added = 0
    with open(bin_path, "ab") as f:
        for blob in blobs:
            f.write(blob)
            manifest += MANIFEST_RECORD.pack(offset + added, len(blob),
                                             checksum.checksum(blob))
            added += len(blob)
        f.flush()
    with open(queue_dir / QUEUE_IDX, "ab") as f:
        f.write(bytes(manifest))
        f.flush()
    return added


def rewrite_records(queue_dir: Path, blobs: Sequence[bytes]) -> int:
    """Atomically replace both files (the heal path). Returns bin size."""
    from repro.fuzzer.crashes import atomic_write_bytes

    queue_dir = Path(queue_dir)
    manifest = bytearray()
    offset = 0
    for blob in blobs:
        manifest += MANIFEST_RECORD.pack(offset, len(blob),
                                         checksum.checksum(blob))
        offset += len(blob)
    atomic_write_bytes(queue_dir / QUEUE_BIN, b"".join(blobs))
    atomic_write_bytes(queue_dir / QUEUE_IDX, bytes(manifest))
    return offset


def tail_intact(queue_dir: Path, expected_records: int,
                expected_bytes: int) -> bool:
    """Does the on-disk tail still match what this exporter wrote?

    O(1): two ``stat`` calls plus one CRC over the last record. Catches
    every corruption shape the chaos suite injects — truncation changes
    the ``queue.bin`` size, garbage breaks the tail CRC, and a torn
    manifest changes the ``queue.idx`` size.
    """
    queue_dir = Path(queue_dir)
    bin_path = queue_dir / QUEUE_BIN
    idx_path = queue_dir / QUEUE_IDX
    bin_size = bin_path.stat().st_size if bin_path.exists() else 0
    idx_size = idx_path.stat().st_size if idx_path.exists() else 0
    if (bin_size != expected_bytes
            or idx_size != expected_records * MANIFEST_RECORD.size):
        return False
    if not expected_records:
        return True
    manifest = read_manifest(queue_dir)
    if len(manifest) != expected_records:
        return False
    offset, length, crc = manifest[-1]
    with open(bin_path, "rb") as f:
        return read_record_blob(f, offset, length, crc) is not None
