"""Sequential three-group rounding (paper §4.3).

The rounding procedure operates across the three VMCS field groups in
order — control fields, host-state fields, guest-state fields. Each group
is first rounded to specification-compliant values using the
Bochs-derived routines, intra-group constraints are corrected, and
inter-group constraints are checked against the previously processed
groups (the guest routines read the already-rounded entry controls).
Dependent fields form a unidirectional graph, so this completes in a
bounded number of steps: a second pass is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.validator.base import Correction
from repro.validator.guest_state import vmenter_load_check_guest_state
from repro.validator.host_state import vmenter_load_check_host_state
from repro.validator.vm_controls import vmenter_load_check_vm_controls
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities
from repro.vmx.vmcs import Vmcs


@dataclass
class RoundingReport:
    """Everything one rounding pass did, by group."""

    controls: list[Correction] = field(default_factory=list)
    host: list[Correction] = field(default_factory=list)
    guest: list[Correction] = field(default_factory=list)

    @property
    def all(self) -> list[Correction]:
        """Every correction, in group order."""
        return self.controls + self.host + self.guest

    @property
    def total(self) -> int:
        """Total number of corrections."""
        return len(self.all)


class VmStateValidator:
    """The Bochs-derived VM state validator for Intel VT-x.

    ``round_to_valid`` mutates a VMCS toward the valid region;
    ``is_fixed_point`` lets tests assert the bounded-steps property the
    paper claims for the sequential correction procedure.
    """

    def __init__(self, caps: VmxCapabilities | None = None) -> None:
        self.caps = caps or default_capabilities()

    def round_to_valid(self, vmcs: Vmcs) -> RoundingReport:
        """Round *vmcs* in the architectural group order.

        Each group pass is memoized at its fixed point: once a pass ran
        without correcting anything, it is skipped until one of the
        fields it read changes (every corrected field is read first by
        ``Rounder.force``, so the read trace covers the write targets).
        """
        report = RoundingReport()
        caps = self.caps
        report.controls = perf.memoized_fixpoint(
            vmcs, ("round_controls", caps),
            lambda: vmenter_load_check_vm_controls(vmcs, caps))
        report.host = perf.memoized_fixpoint(
            vmcs, ("round_host", caps),
            lambda: vmenter_load_check_host_state(vmcs, caps))
        report.guest = perf.memoized_fixpoint(
            vmcs, ("round_guest", caps),
            lambda: vmenter_load_check_guest_state(vmcs, caps))
        return report

    def is_fixed_point(self, vmcs: Vmcs) -> bool:
        """True when another rounding pass would change nothing."""
        probe = vmcs.copy()
        return self.round_to_valid(probe).total == 0

    def predicted_violations(self, vmcs: Vmcs) -> list[Correction]:
        """What the validator *believes* is invalid, without mutating."""
        probe = vmcs.copy()
        return self.round_to_valid(probe).all
