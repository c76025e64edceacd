"""The VM control structure (VMCS) object.

A VMCS is modelled as a typed mapping from field encodings to values,
with the architectural launch-state machine (clear / launched) attached.
Serialisation follows the canonical field layout from
:mod:`repro.vmx.fields` so that Hamming-distance comparisons (paper
Figure 5) are well defined over an 8,000-bit state.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from repro.arch.bits import bytes_hamming
from repro.vmx import fields as F
from repro.vmx.fields import ALL_FIELDS, FieldSpec

#: Hot-path lookup tables: ``Vmcs.read``/``write`` execute hundreds of
#: times per test case (often under the coverage tracer, where every
#: helper frame also costs a trace callback), so width masks are
#: precomputed instead of going through FieldSpec properties.
_FIELD_MASK: dict[int, int] = {s.encoding: (1 << s.bits) - 1 for s in ALL_FIELDS}
_ENCODINGS: tuple[int, ...] = tuple(s.encoding for s in ALL_FIELDS)

#: The canonical image layout, one little-endian ``H``/``I``/``Q`` per
#: field in ``ALL_FIELDS`` order: ``serialize`` packs and ``deserialize``
#: unpacks through it in a single call.
_LAYOUT = struct.Struct(
    "<" + "".join({16: "H", 32: "I", 64: "Q"}[s.bits] for s in ALL_FIELDS))

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

    def write_many(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Write the ``(encoding, value)`` *pairs*, in order, as one bulk
        write.

        The result equals ``for k, v in pairs: self.write(k, v)``: the
        same values, one generation bump and journal entry per
        value-changing write (a repeated key counts each time), and the
        same journal truncation. An unknown key raises ``KeyError``
        before anything is written.
        """
        try:
            pairs = [(k, v & _FIELD_MASK[k]) for k, v in pairs]
        except KeyError as exc:
            raise KeyError(
                f"unsupported VMCS component {exc.args[0]:#x}") from None
        values = self._values
        changed = []
        for k, v in pairs:
            if values[k] != v:
                values[k] = v
                changed.append(k)
        self._journal(changed)

    def copy_fields(self, src: "Vmcs", keys: tuple[int, ...]) -> None:
        """Copy the fields *keys* from *src*, in order, as one bulk write.

        The result equals ``for k in keys: self.write(k, src.read(k))``:
        the same values, one generation bump and journal entry per
        changed field in key order, the same journal truncation, and
        *src*'s read trace updated. An unknown key raises ``KeyError``
        before anything is written.
        """
        values = self._values
        srcvals = src._values
        try:
            changed = list(dict.fromkeys(
                k for k in keys if values[k] != srcvals[k]))
        except KeyError as exc:
            raise KeyError(
                f"unsupported VMCS component {exc.args[0]:#x}") from None
        if src._read_trace is not None:
            src._read_trace.update(keys)
        values.update(zip(changed, map(srcvals.__getitem__, changed)))
        self._journal(changed)

    def adopt(self, values: dict[int, int], changed: list[int]) -> None:
        """Take *values* as the field table, journalling *changed*.

        For a caller that made its writes on a private copy of the
        values: *values* must equal this structure's values after the
        value-changing writes to *changed*, in order, each truncated to
        its field width. The result equals making those writes one at a
        time: the same values, generation, journal and truncation. The
        structure keeps *values* itself; the caller must not touch it
        afterwards.
        """
        self._values = values
        self._journal(changed)

    def _journal(self, changed: list[int]) -> None:
        """Record the value-changing writes *changed*, in order, as
        :meth:`write` would one at a time."""
        if not changed:
            return
        self._gen += len(changed)
        log = self._log
        log += changed
        if len(log) >= _LOG_MAX:
            # write() cuts back to _LOG_KEEP each time the journal
            # reaches _LOG_MAX; keep what that sequence of cuts keeps.
            keep = _LOG_KEEP + (len(log) - _LOG_MAX) % (_LOG_MAX - _LOG_KEEP)
            del log[:len(log) - keep]
            self._log_base = self._gen - keep

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

        Restoring goes through :meth:`write_many` so that generation-holding
        consumers see the restored fields as changes instead of silently
        observing rolled-back values.
        """
        self.launch_state = snap.launch_state
        self.write_many(snap._values.items())

    def load_dict(self, values: dict[int, int]) -> None:
        """Bulk-write fields from an encoding->value mapping."""
        self.write_many(values.items())

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
        packed = _LAYOUT.pack(*map(self._values.__getitem__, _ENCODINGS))
        self._ser = packed
        self._ser_gen = self._gen
        return packed

    @classmethod
    def deserialize(cls, raw: bytes, revision_id: int = 0x12) -> "Vmcs":
        """Unpack a serialised layout (inverse of :meth:`serialize`).

        Extra trailing bytes are ignored; short input raises ValueError.
        This is also how the state generator interprets raw fuzzing input
        as "several kilobytes of binary data treated as raw VMCS content".
        Like :meth:`copy`, it bypasses ``__init__``: the unpacked table
        is the only one built.
        """
        if len(raw) < F.LAYOUT_BYTES:
            raise ValueError(
                f"need {F.LAYOUT_BYTES} bytes for a VMCS image, got {len(raw)}"
            )
        vmcs = cls.__new__(cls)
        vmcs.revision_id = revision_id
        vmcs.launch_state = VmcsState.CLEAR
        vmcs._values = dict(zip(_ENCODINGS, _LAYOUT.unpack_from(raw)))
        vmcs._gen = 0
        vmcs._log = []
        vmcs._log_base = 0
        vmcs._memo = {}
        vmcs._ser = None
        vmcs._ser_gen = -1
        vmcs._read_trace = None
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
