"""Shared types for the Bochs-derived VM state validator."""

from __future__ import annotations

from dataclasses import dataclass

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

#: One rounding change, kept raw until a report's records are read:
#: ``(encoding, before, after, rule)``.
Change = tuple[int, int, int, str]


def corrections(changes: list[Change]) -> list[Correction]:
    """The ``Correction`` records of raw *changes*."""
    return [Correction(_NAME[k], before, after, rule)
            for k, before, after, rule in changes]


class Rounder:
    """Rounds one field group of a VMCS on a private copy of its values.

    ``read`` and ``force`` work on the copy; :meth:`commit` sends the
    group's changes to the VMCS in one ``Vmcs.write_many`` call, which
    leaves the values, generation and journal that writing each change
    as it happened would have left.
    """

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

    def read(self, encoding: int) -> int:
        """Read a field as rounded so far."""
        return self.values[encoding]

    def commit(self) -> list[Change]:
        """Write the changes to the VMCS; return them."""
        changes = self.changes
        if changes:
            self.vmcs.write_many([(k, after) for k, _, after, _ in changes])
        return changes
