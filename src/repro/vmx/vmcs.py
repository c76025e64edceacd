"""The VM control structure (VMCS) object.

A VMCS is modelled as a typed mapping from field encodings to values,
with the architectural launch-state machine (clear / launched) attached.
Serialisation follows the canonical field layout from
:mod:`repro.vmx.fields` so that Hamming-distance comparisons (paper
Figure 5) are well defined over an 8,000-bit state.
"""

from __future__ import annotations

from typing import Iterator

from repro.arch.bits import bytes_hamming
from repro.vmx import fields as F
from repro.vmx.fields import ALL_FIELDS, FieldGroup, FieldSpec

#: Hot-path lookup tables: ``Vmcs.read``/``write`` execute hundreds of
#: times per test case (often under the coverage tracer, where every
#: helper frame also costs a trace callback), so width masks and byte
#: sizes are precomputed instead of going through FieldSpec properties.
_FIELD_MASK: dict[int, int] = {s.encoding: (1 << s.bits) - 1 for s in ALL_FIELDS}
_FIELD_NBYTES: tuple[tuple[int, int], ...] = tuple(
    (s.encoding, s.bits // 8) for s in ALL_FIELDS)
_ENCODINGS: tuple[int, ...] = tuple(s.encoding for s in ALL_FIELDS)

#: The field table of a fresh VMCS, copied by ``__init__``: every field
#: zero except the VMCS link pointer, which must be all-ones unless VMCS
#: shadowing is in use.
_ZERO_VALUES: dict[int, int] = dict.fromkeys(_ENCODINGS, 0)
_ZERO_VALUES[F.VMCS_LINK_POINTER] = (1 << 64) - 1


class VmcsState:
    """Architectural VMCS launch states (SDM 24.1)."""

    CLEAR = "clear"
    LAUNCHED = "launched"


#: Change-journal bounds: when a structure's journal exceeds ``_LOG_MAX``
#: entries it is truncated to the most recent ``_LOG_KEEP``; consumers
#: holding generations older than the truncation point fall back to a
#: full recompute (``changes_since`` returns ``None``).
_LOG_MAX = 4096
_LOG_KEEP = 1024

_EMPTY_SET: frozenset = frozenset()


class Vmcs:
    """One VM control structure.

    Values are stored truncated to their field width. Unknown encodings
    raise ``KeyError`` — the same condition that makes a real vmread /
    vmwrite fail with VMfailValid(12).

    Every value-changing write bumps a generation counter and appends
    the encoding to a change journal, so consumers (the incremental
    entry checker, the VMCS02 merge cache, the serialization cache) can
    ask "what changed since generation g" instead of re-reading all
    ~700 fields. Memoized derived results live in ``_memo`` as
    immutable entries keyed by the consumer; ``copy()`` shares them, so
    a snapshot inherits its parent's warm caches.
    """

    def __init__(self, revision_id: int = 0x12) -> None:
        self.revision_id = revision_id
        self.launch_state = VmcsState.CLEAR
        self._values: dict[int, int] = dict(_ZERO_VALUES)
        self._gen = 0
        self._log: list[int] = []
        self._log_base = 0
        self._memo: dict = {}
        self._ser: bytes | None = None
        self._ser_gen = -1
        self._read_trace: set[int] | None = None

    # --- field access -----------------------------------------------------

    def read(self, encoding: int) -> int:
        """Read a field by encoding (vmread semantics)."""
        if self._read_trace is not None:
            self._read_trace.add(encoding)
        try:
            return self._values[encoding]
        except KeyError:
            raise KeyError(f"unsupported VMCS component {encoding:#x}") from None

    def write(self, encoding: int, value: int) -> None:
        """Write a field by encoding, truncating to the field width."""
        fmask = _FIELD_MASK.get(encoding)
        if fmask is None:
            raise KeyError(f"unsupported VMCS component {encoding:#x}")
        value &= fmask
        values = self._values
        if values[encoding] != value:
            values[encoding] = value
            self._gen += 1
            log = self._log
            log.append(encoding)
            if len(log) >= _LOG_MAX:
                del log[:len(log) - _LOG_KEEP]
                self._log_base = self._gen - _LOG_KEEP

    # --- dirty tracking ----------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic counter of value-changing writes."""
        return self._gen

    def changes_since(self, gen: int) -> frozenset[int] | set[int] | None:
        """Encodings written (with a new value) since generation *gen*.

        Returns ``None`` when the journal no longer reaches back to
        *gen* (it was truncated), which callers must treat as
        "everything may have changed".
        """
        if gen == self._gen:
            return _EMPTY_SET
        if gen < self._log_base:
            return None
        return set(self._log[gen - self._log_base:])

    def memo_get(self, key):
        """Fetch a memoized derived result (opaque entry) by *key*."""
        return self._memo.get(key)

    def memo_put(self, key, entry) -> None:
        """Store a memoized derived result.

        Entries must be treated as immutable: ``copy()`` shares them
        between snapshots, so consumers replace entries rather than
        mutating them in place.
        """
        self._memo[key] = entry

    def __getitem__(self, encoding: int) -> int:
        return self.read(encoding)

    def __setitem__(self, encoding: int, value: int) -> None:
        self.write(encoding, value)

    def by_name(self, name: str) -> int:
        """Read a field by its symbolic name."""
        return self.read(F.SPEC_BY_NAME[name].encoding)

    def set_by_name(self, name: str, value: int) -> None:
        """Write a field by its symbolic name."""
        self.write(F.SPEC_BY_NAME[name].encoding, value)

    def fields(self) -> Iterator[tuple[FieldSpec, int]]:
        """Iterate (spec, value) pairs in canonical layout order."""
        return zip(ALL_FIELDS, map(self._values.__getitem__, _ENCODINGS))

    # --- launch state -----------------------------------------------------

    def clear(self) -> None:
        """vmclear semantics: flush and mark the VMCS clear."""
        self.launch_state = VmcsState.CLEAR

    def mark_launched(self) -> None:
        """Successful vmlaunch moves the VMCS to the launched state."""
        self.launch_state = VmcsState.LAUNCHED

    @property
    def launched(self) -> bool:
        """True when in the launched state."""
        return self.launch_state == VmcsState.LAUNCHED

    # --- whole-structure operations ----------------------------------------

    def copy(self) -> "Vmcs":
        """Deep copy, preserving launch state.

        Fast path: bypasses ``__init__`` (no field-table rebuild) and
        carries over the generation counter, change journal, memo
        entries, and the serialization cache, so a snapshot starts warm
        and diverges from its parent through its own journal.
        """
        dup = Vmcs.__new__(Vmcs)
        dup.revision_id = self.revision_id
        dup.launch_state = self.launch_state
        dup._values = dict(self._values)
        dup._gen = self._gen
        dup._log = list(self._log)
        dup._log_base = self._log_base
        dup._memo = dict(self._memo)
        dup._ser = self._ser
        dup._ser_gen = self._ser_gen
        dup._read_trace = None
        return dup

    def snapshot(self) -> "Vmcs":
        """Alias for :meth:`copy` in snapshot/restore pairs."""
        return self.copy()

    def restore(self, snap: "Vmcs") -> None:
        """Restore field values from *snap*, journalling the deltas.

        Restoring goes through :meth:`write` so that generation-holding
        consumers see the restored fields as changes instead of silently
        observing rolled-back values.
        """
        self.launch_state = snap.launch_state
        values = snap._values
        for encoding, value in self._values.items():
            other = values[encoding]
            if other != value:
                self.write(encoding, other)

    def load_dict(self, values: dict[int, int]) -> None:
        """Bulk-write fields from an encoding->value mapping."""
        for encoding, value in values.items():
            self.write(encoding, value)

    def diff(self, other: "Vmcs") -> list[tuple[FieldSpec, int, int]]:
        """Fields whose values differ, as (spec, self_value, other_value)."""
        return [
            (spec, self._values[spec.encoding], other._values[spec.encoding])
            for spec in ALL_FIELDS
            if self._values[spec.encoding] != other._values[spec.encoding]
        ]

    def serialize(self) -> bytes:
        """Pack every field into the canonical little-endian layout.

        The packed image is cached behind the generation counter, so
        repeated Hamming-distance comparisons (or hashes) of an
        unchanged structure reuse the same immutable bytes.
        """
        if self._ser_gen == self._gen and self._ser is not None:
            return self._ser
        values = self._values
        out = bytearray()
        for encoding, nbytes in _FIELD_NBYTES:
            out += values[encoding].to_bytes(nbytes, "little")
        packed = bytes(out)
        self._ser = packed
        self._ser_gen = self._gen
        return packed

    @classmethod
    def deserialize(cls, raw: bytes, revision_id: int = 0x12) -> "Vmcs":
        """Unpack a serialised layout (inverse of :meth:`serialize`).

        Extra trailing bytes are ignored; short input raises ValueError.
        This is also how the state generator interprets raw fuzzing input
        as "several kilobytes of binary data treated as raw VMCS content".
        """
        if len(raw) < F.LAYOUT_BYTES:
            raise ValueError(
                f"need {F.LAYOUT_BYTES} bytes for a VMCS image, got {len(raw)}"
            )
        vmcs = cls(revision_id)
        offset = 0
        for encoding, nbytes in _FIELD_NBYTES:
            vmcs._values[encoding] = int.from_bytes(
                raw[offset:offset + nbytes], "little"
            )
            offset += nbytes
        return vmcs

    def hamming(self, other: "Vmcs") -> int:
        """Bitwise Hamming distance over the serialised layout."""
        return bytes_hamming(self.serialize(), other.serialize())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vmcs):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self.serialize())

    def __repr__(self) -> str:
        nonzero = sum(1 for v in self._values.values() if v)
        return (f"<Vmcs rev={self.revision_id:#x} state={self.launch_state} "
                f"nonzero_fields={nonzero}/{len(self._values)}>")


def guest_state_fields() -> tuple[FieldSpec, ...]:
    """All guest-state field specs."""
    return tuple(s for s in ALL_FIELDS if s.group is FieldGroup.GUEST)


def host_state_fields() -> tuple[FieldSpec, ...]:
    """All host-state field specs."""
    return tuple(s for s in ALL_FIELDS if s.group is FieldGroup.HOST)


def control_fields() -> tuple[FieldSpec, ...]:
    """All control field specs."""
    return tuple(s for s in ALL_FIELDS if s.group is FieldGroup.CONTROL)
