"""The VM control block (VMCB) object — AMD-V's counterpart to the VMCS."""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from repro.arch.bits import bytes_hamming
from repro.arch.registers import Cr0, Efer
from repro.svm import fields as F
from repro.svm.fields import ALL_FIELDS, LAYOUT_BYTES, VmcbField

#: Hot-path lookup tables (same rationale as repro.vmx.vmcs): width
#: masks precomputed so per-write truncation is a single dict lookup
#: plus an ``&`` instead of two helper frames.
_FIELD_MASK: dict[str, int] = {s.name: (1 << s.bits) - 1 for s in ALL_FIELDS}
_NAMES: tuple[str, ...] = tuple(s.name for s in ALL_FIELDS)

#: The canonical image layout, one little-endian ``B``/``H``/``I``/``Q``
#: per field in ``ALL_FIELDS`` order: ``serialize`` packs and
#: ``deserialize`` unpacks through it in a single call. Every field is
#: 8, 16, 32 or 64 bits wide, so an unpacked value already fits its
#: field and needs no mask.
_LAYOUT = struct.Struct(
    "<" + "".join({8: "B", 16: "H", 32: "I", 64: "Q"}[s.bits]
                  for s in ALL_FIELDS))

#: The all-zero field table of a fresh VMCB, copied by ``__init__``.
_ZERO_VALUES: dict[str, int] = dict.fromkeys(_NAMES, 0)

#: Change-journal bounds (see repro.vmx.vmcs for the rationale).
_LOG_MAX = 4096
_LOG_KEEP = 1024

_EMPTY_SET: frozenset = frozenset()


def _tuple_getter(keys: tuple[str, ...]) -> Callable[[dict], tuple]:
    """A callable mapping a field table to the tuple of its *keys*
    values, in order (``itemgetter`` returns a bare value for one key)."""
    if len(keys) == 1:
        key = keys[0]
        return lambda values: (values[key],)
    if not keys:
        return lambda values: ()
    return itemgetter(*keys)


#: ``copy_fields`` getters, keyed by the ``id`` of the key tuple each was
#: built for: hashing a 67-name tuple on every call would cost more than
#: an identity check. Each entry holds its tuple, so the id cannot be
#: reused while the entry lives. The entry's flag says whether the keys
#: are distinct.
_GETTERS: dict[int, tuple[tuple, Callable[[dict], tuple], bool]] = {}
#: How many key tuples ``_GETTERS`` remembers; later ones are served by
#: a getter built for the call.
_GETTERS_MAX = 64

#: Getter of every field, in layout order (``diff``).
_ALL_VALUES = _tuple_getter(_NAMES)


def _getter_for(keys: Iterable[str]) -> tuple[tuple, Callable[[dict], tuple], bool]:
    """The ``_GETTERS`` entry for *keys*, building (and, for a tuple,
    caching) it on a miss."""
    entry = _GETTERS.get(id(keys))
    if entry is not None and entry[0] is keys:
        return entry
    key_tuple = tuple(keys)
    entry = (key_tuple, _tuple_getter(key_tuple),
             len(set(key_tuple)) == len(key_tuple))
    # A list can change under the same id, so only a tuple (which
    # ``tuple()`` returns as is) is remembered.
    if type(keys) is tuple and len(_GETTERS) < _GETTERS_MAX:
        _GETTERS[id(keys)] = entry
    return entry


class Vmcb:
    """One VM control block.

    Unlike the VMCS, the VMCB is addressed by plain field names — AMD-V
    has no vmread/vmwrite indirection; software reads and writes the
    structure directly in memory.

    Dirty tracking mirrors :class:`repro.vmx.vmcs.Vmcs`: value-changing
    writes bump a generation counter and journal the field name (the
    kvm/amd merge cache reads the journal), and ``serialize()`` is
    cached behind the generation counter.
    """

    def __init__(self) -> None:
        self._values: dict[str, int] = dict(_ZERO_VALUES)
        self._gen = 0
        self._log: list[str] = []
        self._log_base = 0
        self._ser: bytes | None = None
        self._ser_gen = -1

    def read(self, name: str) -> int:
        """Read a field by name."""
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

    def copy_fields(self, src: "Vmcb", keys: Iterable[str]) -> None:
        """Copy the fields *keys* from *src*, in order, as one bulk write.

        Same contract as ``Vmcs.copy_fields``: equal to ``for k in keys:
        self.write(k, src.read(k))``, journal included; *keys* may be any
        sequence and may repeat a key. An unknown key raises ``KeyError``
        before anything is written. Both sides are read through one
        cached ``itemgetter`` per key tuple, so a copy that changes
        nothing costs two C-level gathers and a tuple compare.
        """
        keys, get, distinct = _getter_for(keys)
        values = self._values
        srcvals = src._values
        try:
            new = get(srcvals)
            old = get(values)
        except KeyError as exc:
            raise KeyError(f"unknown VMCB field {exc.args[0]!r}") from None
        if new == old:
            return
        changed = [k for k, a, b in zip(keys, old, new) if a != b]
        if not distinct:
            changed = list(dict.fromkeys(changed))
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

    def __getitem__(self, name: str) -> int:
        return self.read(name)

    def __setitem__(self, name: str, value: int) -> None:
        self.write(name, value)

    def fields(self) -> Iterator[tuple[VmcbField, int]]:
        """Iterate (spec, value) pairs in canonical layout order."""
        return zip(ALL_FIELDS, map(self._values.__getitem__, _NAMES))

    # --- convenience predicates used by emulation code ---------------------

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

        The generation counter, change journal, and the serialization
        cache are carried over, so a snapshot starts warm
        and diverges from its parent through its own journal.
        """
        dup = Vmcb.__new__(Vmcb)
        dup._values = dict(self._values)
        dup._gen = self._gen
        dup._log = list(self._log)
        dup._log_base = self._log_base
        dup._ser = self._ser
        dup._ser_gen = self._ser_gen
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
        """Fields whose values differ, as (spec, self_value, other_value),
        in layout order."""
        mine = _ALL_VALUES(self._values)
        theirs = _ALL_VALUES(other._values)
        if mine == theirs:
            return []
        return [(spec, a, b) for spec, a, b in zip(ALL_FIELDS, mine, theirs)
                if a != b]

    def serialize(self) -> bytes:
        """Pack every field into the canonical little-endian layout.

        Cached behind the generation counter (same contract as
        ``Vmcs.serialize``).
        """
        if self._ser_gen == self._gen and self._ser is not None:
            return self._ser
        packed = _LAYOUT.pack(*_ALL_VALUES(self._values))
        self._ser = packed
        self._ser_gen = self._gen
        return packed

    @classmethod
    def deserialize(cls, raw: bytes) -> "Vmcb":
        """Unpack a serialised layout (inverse of :meth:`serialize`).

        Extra trailing bytes are ignored; short input raises ValueError.
        Like :meth:`copy`, it bypasses ``__init__``: the unpacked table
        is the only one built.
        """
        if len(raw) < LAYOUT_BYTES:
            raise ValueError(
                f"need {LAYOUT_BYTES} bytes for a VMCB image, got {len(raw)}"
            )
        vmcb = cls.__new__(cls)
        vmcb._values = dict(zip(_NAMES, _LAYOUT.unpack_from(raw)))
        vmcb._gen = 0
        vmcb._log = []
        vmcb._log_base = 0
        vmcb._ser = None
        vmcb._ser_gen = -1
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
