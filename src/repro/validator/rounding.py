"""Sequential three-group rounding (paper §4.3).

The rounding procedure operates across the three VMCS field groups in
order — control fields, host-state fields, guest-state fields. Each group
is first rounded to specification-compliant values using the
Bochs-derived routines, intra-group constraints are corrected, and
inter-group constraints are checked against the previously processed
groups (the guest routines read the already-rounded entry controls).
Dependent fields form a unidirectional graph, so this completes in a
bounded number of steps: a second pass is a fixed point.

One pass rounds all three groups on one private copy of the field
values (:class:`repro.validator.base.Rounder`), so a later group reads
what an earlier one rounded, and commits once: the VMCS takes the
rounded values and journals the changed encodings in order, which
leaves the values, generation and journal that writing each correction
as it was made would have left. The report keeps the changes raw, split
by group, and builds ``Correction`` records only when they are read: a
campaign reads just the count, the oracle tests and the Figure 5
analysis read the records. The per-group routines this pass replaced,
each with its own copy and its own bulk write, are the pinned reference
in tests/reference/group_rounder.py.
"""

from __future__ import annotations

from typing import Sequence

from repro.validator.base import Change, Correction, Rounder, corrections
from repro.validator.guest_state import round_guest_state
from repro.validator.host_state import round_host_state
from repro.validator.vm_controls import round_vm_controls
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities
from repro.vmx.vmcs import Vmcs


class RoundingReport:
    """Everything one rounding pass did, by group."""

    __slots__ = ("_groups",)

    def __init__(self, controls: Sequence[Change] = (),
                 host: Sequence[Change] = (),
                 guest: Sequence[Change] = ()) -> None:
        self._groups = (controls, host, guest)

    @property
    def controls(self) -> list[Correction]:
        """Corrections to the control fields."""
        return corrections(self._groups[0])

    @property
    def host(self) -> list[Correction]:
        """Corrections to the host-state fields."""
        return corrections(self._groups[1])

    @property
    def guest(self) -> list[Correction]:
        """Corrections to the guest-state fields."""
        return corrections(self._groups[2])

    @property
    def all(self) -> list[Correction]:
        """Every correction, in group order."""
        return self.controls + self.host + self.guest

    @property
    def total(self) -> int:
        """Total number of corrections."""
        return sum(map(len, self._groups))


class VmStateValidator:
    """The Bochs-derived VM state validator for Intel VT-x.

    ``round_to_valid`` mutates a VMCS toward the valid region;
    ``is_fixed_point`` lets tests assert the bounded-steps property the
    paper claims for the sequential correction procedure.
    """

    def __init__(self, caps: VmxCapabilities | None = None) -> None:
        self.caps = caps or default_capabilities()

    def round_to_valid(self, vmcs: Vmcs) -> RoundingReport:
        """Round *vmcs* in the architectural group order."""
        caps = self.caps
        r = Rounder(vmcs)
        changes = r.changes
        round_vm_controls(r, caps)
        controls_end = len(changes)
        round_host_state(r, caps)
        host_end = len(changes)
        round_guest_state(r, caps)
        r.commit()
        return RoundingReport(changes[:controls_end],
                              changes[controls_end:host_end],
                              changes[host_end:])

    def is_fixed_point(self, vmcs: Vmcs) -> bool:
        """True when another rounding pass would change nothing."""
        probe = vmcs.copy()
        return self.round_to_valid(probe).total == 0

    def predicted_violations(self, vmcs: Vmcs) -> list[Correction]:
        """What the validator *believes* is invalid, without mutating."""
        probe = vmcs.copy()
        return self.round_to_valid(probe).all
