"""NCD1 coverage deltas: sparse, run-length encodings of the virgin map.

The local sync sidecar (``coverage.bin``, DESIGN.md §15) publishes a
worker's 64 KiB virgin map next to its corpus queue, so a partner can
reject a whole fresh batch from one map check instead of scanning every
record. An NCD1 delta carries the map as ``(start, bytes)`` runs over
its nonzero stretches, sealed with a CRC32
(:mod:`repro.parallel.checksum`).

The map grows **monotonically** (cells only ever OR in new class bits),
so a full snapshot (``base_generation == 0``) is applicable to any
baseline, and a receiver tests it against its own map with
:func:`runs_subsumed`. The run scan is one C-level regex pass
(:data:`_RUN_SCAN`) that coalesces gaps smaller than a run header, so
a cluster of nearby cells costs one run, not ten.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from repro.coverage.bitmap import MAP_SIZE
from repro.parallel import checksum

DELTA_MAGIC = b"NCD1"

#: magic, base generation (0 = full snapshot), generation, run count.
_HEADER = struct.Struct("<4sIII")
#: Per-run prefix: start offset, byte length.
_RUN = struct.Struct("<II")

#: Nonzero byte runs, tolerating gaps of up to 7 zero bytes inside one
#: run: a gap shorter than a run header (8 bytes) is cheaper shipped as
#: literal zeros than split into two runs.
_RUN_SCAN = re.compile(rb"[^\x00](?:\x00{0,7}[^\x00])*", re.DOTALL)


class DeltaError(ValueError):
    """A delta payload is corrupt or not applicable here."""


@dataclass(frozen=True)
class CoverageDelta:
    """One virgin-map diff between two generation watermarks."""

    #: Generation the diff was taken against; 0 means "against the
    #: zero map" — a full snapshot, applicable to any baseline.
    base_generation: int
    #: Generation of the map the diff produces.
    generation: int
    #: Sorted, non-overlapping ``(start, bytes)`` runs.
    runs: tuple[tuple[int, bytes], ...]

    @property
    def full(self) -> bool:
        """Is this a full snapshot (applicable to any baseline)?"""
        return self.base_generation == 0


def full_delta(bits: bytes, generation: int) -> CoverageDelta:
    """A full snapshot (``base_generation == 0``) of *bits*: one run per
    nonzero stretch of the map."""
    if len(bits) != MAP_SIZE:
        raise ValueError("virgin-map payloads must be MAP_SIZE bytes")
    return CoverageDelta(base_generation=0, generation=generation,
                         runs=tuple((match.start(), match.group())
                                    for match in _RUN_SCAN.finditer(bits)))


def runs_subsumed(bits, runs) -> bool:
    """Would applying *runs* to *bits* change nothing?

    The whole-batch analogue of :meth:`VirginMap.subsumes`: a partner
    whose entire map diff is already present locally cannot ship any
    record that would light up new bits.
    """
    for start, run in runs:
        end = start + len(run)
        if (int.from_bytes(run, "little")
                & ~int.from_bytes(bits[start:end], "little")):
            return False
    return True


def encode(delta: CoverageDelta) -> bytes:
    """Serialize one delta; the payload is CRC-sealed end to end."""
    parts = [_HEADER.pack(DELTA_MAGIC, delta.base_generation,
                          delta.generation, len(delta.runs))]
    for start, run in delta.runs:
        parts.append(_RUN.pack(start, len(run)))
        parts.append(run)
    return checksum.seal(b"".join(parts))


def decode(raw: bytes) -> CoverageDelta:
    """Invert :func:`encode`; :class:`DeltaError` on any corruption."""
    payload = checksum.unseal(raw)
    if payload is None:
        raise DeltaError("delta payload failed its CRC check")
    if len(payload) < _HEADER.size:
        raise DeltaError("delta payload shorter than its header")
    magic, base_generation, generation, count = _HEADER.unpack_from(payload)
    if magic != DELTA_MAGIC:
        raise DeltaError(f"bad delta magic {bytes(magic)!r}")
    runs = []
    pos = _HEADER.size
    last_end = 0
    for _ in range(count):
        if pos + _RUN.size > len(payload):
            raise DeltaError("truncated delta run header")
        start, length = _RUN.unpack_from(payload, pos)
        pos += _RUN.size
        if length == 0 or start < last_end or start + length > MAP_SIZE:
            raise DeltaError("delta run out of bounds or out of order")
        if pos + length > len(payload):
            raise DeltaError("truncated delta run payload")
        runs.append((start, payload[pos:pos + length]))
        pos += length
        last_end = start + length
    if pos != len(payload):
        raise DeltaError("trailing bytes after the last delta run")
    return CoverageDelta(base_generation=base_generation,
                         generation=generation, runs=tuple(runs))
