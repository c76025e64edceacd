"""Shared types for the Bochs-derived VM state validator.

:class:`Rounder` is the one-pass rounder the Intel validator runs: the
three group routines (controls, host state, guest state) correct one
private copy of the VMCS values in turn, and one commit hands the copy
to the VMCS and journals the changed encodings in order. Runs of
zeroing and canonicalisation go through bulk helpers that keep one
record per changed field. A correction is kept raw, as an
``(encoding, before, after, rule)`` tuple, until a report's
``Correction`` records are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.vmx import fields as F
from repro.vmx.vmcs import Vmcs


@dataclass(frozen=True)
class Correction:
    """One rounding step applied by the validator.

    ``rule`` names the specification clause (or Bochs routine) that
    motivated the fix; the before/after pair makes the rounding auditable
    and feeds the Hamming-distance experiments.
    """

    field: str
    before: int
    after: int
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.before:#x} -> {self.after:#x} ({self.rule})"


#: Width masks and names by encoding, for the rounder's hot loop.
_MASK: dict[int, int] = {s.encoding: (1 << s.bits) - 1 for s in F.ALL_FIELDS}
_NAME: dict[int, str] = {s.encoding: s.name for s in F.ALL_FIELDS}

#: Canonical-form arithmetic: bits 47:0 of an address, its bit 47, and
#: the bits 63:48 a set bit 47 extends into.
_LOW48 = (1 << 48) - 1
_BIT47 = 1 << 47
_HIGH16 = ((1 << 64) - 1) ^ _LOW48

#: One rounding change, kept raw until a report's records are read:
#: ``(encoding, before, after, rule)``.
Change = tuple[int, int, int, str]

_ENCODING = itemgetter(0)


def corrections(changes: list[Change]) -> list[Correction]:
    """The ``Correction`` records of raw *changes*."""
    return [Correction(_NAME[k], before, after, rule)
            for k, before, after, rule in changes]


def canonicalize(address: int) -> int:
    """Round an address to canonical form by sign-extending bit 47."""
    low = address & _LOW48
    return low | _HIGH16 if low & _BIT47 else low


class Rounder:
    """Rounds a VMCS on one private copy of its values.

    The validator rounds all three field groups on one rounder, in
    order, so a later group reads what an earlier one rounded. The
    routines read fields from ``values`` as rounded so far; ``force``
    and the bulk helpers correct the copy and keep one raw change per
    value-changing correction; :meth:`commit` hands the copy to the
    VMCS and journals the changed encodings in order, which leaves the
    values, generation and journal that writing each change as it
    happened would have left.
    """

    __slots__ = ("vmcs", "values", "changes")

    def __init__(self, vmcs: Vmcs) -> None:
        self.vmcs = vmcs
        self.values = dict(vmcs._values)
        self.changes: list[Change] = []

    def force(self, encoding: int, value: int, rule: str) -> None:
        """Set a field to *value*, recording a change when it differs."""
        values = self.values
        before = values[encoding]
        after = value & _MASK[encoding]
        if before != after:
            values[encoding] = after
            self.changes.append((encoding, before, after, rule))

    def set_bits(self, encoding: int, bits: int, rule: str) -> None:
        """OR *bits* into a field."""
        self.force(encoding, self.values[encoding] | bits, rule)

    def clear_bits(self, encoding: int, bits: int, rule: str) -> None:
        """Clear *bits* in a field."""
        self.force(encoding, self.values[encoding] & ~bits, rule)

    def zero(self, fields) -> None:
        """Force each ``(encoding, rule)`` of *fields* to zero, in order."""
        values = self.values
        append = self.changes.append
        for encoding, rule in fields:
            before = values[encoding]
            if before:
                values[encoding] = 0
                append((encoding, before, 0, rule))

    def canonical(self, fields) -> None:
        """Canonicalize each 64-bit ``(encoding, rule)`` of *fields*, in
        order (bit 47 sign-extended into bits 63:48)."""
        values = self.values
        append = self.changes.append
        for encoding, rule in fields:
            before = values[encoding]
            after = before & _LOW48
            if after & _BIT47:
                after |= _HIGH16
            if before != after:
                values[encoding] = after
                append((encoding, before, after, rule))

    def commit(self) -> list[Change]:
        """Send the changes to the VMCS; return them."""
        changes = self.changes
        if changes:
            self.vmcs.adopt(self.values, list(map(_ENCODING, changes)))
        return changes
