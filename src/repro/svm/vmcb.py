"""The VM control block (VMCB) object — AMD-V's counterpart to the VMCS."""

from __future__ import annotations

from typing import Iterator

from repro.arch.bits import bytes_hamming
from repro.arch.registers import Cr0, Efer
from repro.svm import fields as F
from repro.svm.fields import ALL_FIELDS, LAYOUT_BYTES, VmcbField

#: Hot-path lookup tables (same rationale as repro.vmx.vmcs): width
#: masks and byte sizes precomputed so per-write truncation is a single
#: dict lookup plus an ``&`` instead of two helper frames.
_FIELD_MASK: dict[str, int] = {s.name: (1 << s.bits) - 1 for s in ALL_FIELDS}
_FIELD_NBYTES: tuple[tuple[str, int], ...] = tuple(
    (s.name, (s.bits + 7) // 8) for s in ALL_FIELDS)
_NAMES: tuple[str, ...] = tuple(s.name for s in ALL_FIELDS)

#: The all-zero field table of a fresh VMCB, copied by ``__init__``.
_ZERO_VALUES: dict[str, int] = dict.fromkeys(_NAMES, 0)

#: Change-journal bounds (see repro.vmx.vmcs for the rationale).
_LOG_MAX = 4096
_LOG_KEEP = 1024

_EMPTY_SET: frozenset = frozenset()


class Vmcb:
    """One VM control block.

    Unlike the VMCS, the VMCB is addressed by plain field names — AMD-V
    has no vmread/vmwrite indirection; software reads and writes the
    structure directly in memory.

    Dirty tracking mirrors :class:`repro.vmx.vmcs.Vmcs`: value-changing
    writes bump a generation counter and journal the field name, memo
    entries ride along on ``copy()``, and ``serialize()`` is cached
    behind the generation counter.
    """

    def __init__(self) -> None:
        self._values: dict[str, int] = dict(_ZERO_VALUES)
        self._gen = 0
        self._log: list[str] = []
        self._log_base = 0
        self._memo: dict = {}
        self._ser: bytes | None = None
        self._ser_gen = -1
        self._read_trace: set[str] | None = None

    def read(self, name: str) -> int:
        """Read a field by name."""
        if self._read_trace is not None:
            self._read_trace.add(name)
        try:
            return self._values[name]
        except KeyError:
            raise KeyError(f"unknown VMCB field {name!r}") from None

    def write(self, name: str, value: int) -> None:
        """Write a field by name, truncating to the field width."""
        fmask = _FIELD_MASK.get(name)
        if fmask is None:
            raise KeyError(f"unknown VMCB field {name!r}")
        value &= fmask
        values = self._values
        if values[name] != value:
            values[name] = value
            self._gen += 1
            log = self._log
            log.append(name)
            if len(log) >= _LOG_MAX:
                del log[:len(log) - _LOG_KEEP]
                self._log_base = self._gen - _LOG_KEEP

    def copy_fields(self, src: "Vmcb", keys: tuple[str, ...]) -> None:
        """Copy the fields *keys* from *src*, in order, as one bulk write.

        Same contract as ``Vmcs.copy_fields``: equal to ``for k in keys:
        self.write(k, src.read(k))``, journal and read trace included.
        An unknown key raises ``KeyError`` before anything is written.
        """
        values = self._values
        srcvals = src._values
        try:
            changed = list(dict.fromkeys(
                k for k in keys if values[k] != srcvals[k]))
        except KeyError as exc:
            raise KeyError(f"unknown VMCB field {exc.args[0]!r}") from None
        if src._read_trace is not None:
            src._read_trace.update(keys)
        if changed:
            values.update(zip(changed, map(srcvals.__getitem__, changed)))
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

    def changes_since(self, gen: int) -> frozenset[str] | set[str] | None:
        """Field names written (with a new value) since generation *gen*.

        ``None`` means the journal was truncated past *gen*: treat as
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
        """Store a memoized result (entries are shared by copies —
        replace, never mutate)."""
        self._memo[key] = entry

    def __getitem__(self, name: str) -> int:
        return self.read(name)

    def __setitem__(self, name: str, value: int) -> None:
        self.write(name, value)

    def fields(self) -> Iterator[tuple[VmcbField, int]]:
        """Iterate (spec, value) pairs in canonical layout order."""
        return zip(ALL_FIELDS, map(self._values.__getitem__, _NAMES))

    # --- convenience predicates used by emulation code ---------------------

    # All predicates go through ``read`` so dynamic read-set recording
    # sees the underlying field dependency.

    @property
    def nested_paging(self) -> bool:
        """True when the NP_ENABLE control bit is set."""
        return bool(self.read(F.NP_CONTROL) & F.NpControl.NP_ENABLE)

    @property
    def long_mode_active(self) -> bool:
        """True when EFER.LMA is set in the save area."""
        return bool(self.read(F.EFER) & Efer.LMA)

    @property
    def paging_enabled(self) -> bool:
        """True when CR0.PG is set in the save area."""
        return bool(self.read(F.CR0) & Cr0.PG)

    @property
    def vgif_enabled(self) -> bool:
        """True when the VGIF feature-enable bit is set."""
        return bool(self.read(F.VINTR_CONTROL) & F.VintrControl.V_GIF_ENABLE)

    @property
    def vgif_value(self) -> bool:
        """The virtual GIF value (meaningful only with VGIF)."""
        return bool(self.read(F.VINTR_CONTROL) & F.VintrControl.V_GIF)

    @property
    def avic_enabled(self) -> bool:
        """True when the AVIC-enable bit is set."""
        return bool(self.read(F.VINTR_CONTROL) & F.VintrControl.AVIC_ENABLE)

    # --- whole-structure operations ----------------------------------------

    def copy(self) -> "Vmcb":
        """Deep copy (fast path: no ``__init__`` field-table rebuild).

        The generation counter, change journal, memo entries, and the
        serialization cache are carried over, so a snapshot starts warm
        and diverges from its parent through its own journal.
        """
        dup = Vmcb.__new__(Vmcb)
        dup._values = dict(self._values)
        dup._gen = self._gen
        dup._log = list(self._log)
        dup._log_base = self._log_base
        dup._memo = dict(self._memo)
        dup._ser = self._ser
        dup._ser_gen = self._ser_gen
        dup._read_trace = None
        return dup

    def snapshot(self) -> "Vmcb":
        """Alias for :meth:`copy` in snapshot/restore pairs."""
        return self.copy()

    def restore(self, snap: "Vmcb") -> None:
        """Restore field values from *snap*, journalling the deltas."""
        values = snap._values
        for name, value in self._values.items():
            other = values[name]
            if other != value:
                self.write(name, other)

    def diff(self, other: "Vmcb") -> list[tuple[VmcbField, int, int]]:
        """Fields whose values differ, as (spec, self_value, other_value)."""
        return [
            (spec, self._values[spec.name], other._values[spec.name])
            for spec in ALL_FIELDS
            if self._values[spec.name] != other._values[spec.name]
        ]

    def serialize(self) -> bytes:
        """Pack every field into the canonical little-endian layout.

        Cached behind the generation counter (same contract as
        ``Vmcs.serialize``).
        """
        if self._ser_gen == self._gen and self._ser is not None:
            return self._ser
        values = self._values
        out = bytearray()
        for name, nbytes in _FIELD_NBYTES:
            out += values[name].to_bytes(nbytes, "little")
        packed = bytes(out)
        self._ser = packed
        self._ser_gen = self._gen
        return packed

    @classmethod
    def deserialize(cls, raw: bytes) -> "Vmcb":
        """Unpack a serialised layout; short input raises ValueError."""
        if len(raw) < LAYOUT_BYTES:
            raise ValueError(
                f"need {LAYOUT_BYTES} bytes for a VMCB image, got {len(raw)}"
            )
        vmcb = cls()
        offset = 0
        for name, nbytes in _FIELD_NBYTES:
            value = int.from_bytes(raw[offset:offset + nbytes], "little")
            vmcb._values[name] = value & _FIELD_MASK[name]
            offset += nbytes
        return vmcb

    def hamming(self, other: "Vmcb") -> int:
        """Bitwise Hamming distance over the serialised layout."""
        return bytes_hamming(self.serialize(), other.serialize())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vmcb):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self.serialize())

    def __repr__(self) -> str:
        nonzero = sum(1 for v in self._values.values() if v)
        return f"<Vmcb nonzero_fields={nonzero}/{len(self._values)}>"
