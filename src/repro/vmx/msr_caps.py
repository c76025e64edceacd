"""IA32_VMX_* capability MSR modelling.

Control-field capability MSRs encode *allowed-0* settings in the low 32
bits (bits that must be 1 in the control) and *allowed-1* settings in the
high 32 bits (bits that may be 1). A control value ``x`` is permitted iff
``(x | allowed0) == x`` and ``(x & ~allowed1) == 0``.

The vCPU configurator indirectly shapes these MSRs: disabling a feature
clears the corresponding allowed-1 bit, so the L1 hypervisor cannot turn
it on — and the L0 hypervisor must reject a VMCS12 that tries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.vmx.controls import (
    EntryControls,
    ExitControls,
    PinBased,
    ProcBased,
    Secondary,
)


@dataclass(frozen=True)
class ControlCaps:
    """Allowed-0 / allowed-1 settings for one control field."""

    allowed0: int  # bits that must be 1
    allowed1: int  # bits that may be 1

    def permits(self, value: int) -> bool:
        """True when *value* satisfies both allowed-settings masks."""
        if (value & self.allowed0) != self.allowed0:
            return False
        if value & ~self.allowed1 & 0xFFFFFFFF:
            return False
        return True

    def round(self, value: int) -> int:
        """Round *value* to the nearest permitted setting (fix reserved bits)."""
        return (value | self.allowed0) & self.allowed1

    @property
    def msr_value(self) -> int:
        """The raw 64-bit capability MSR image."""
        return self.allowed0 | (self.allowed1 << 32)


@dataclass(frozen=True)
class VmxCapabilities:
    """The full VMX capability surface exposed to a (v)CPU.

    Built by :func:`capabilities_for_features` from a vCPU feature map, so
    the configurator's choices propagate into every validity check.
    """

    pin_based: ControlCaps
    proc_based: ControlCaps
    secondary: ControlCaps
    entry: ControlCaps
    exit: ControlCaps
    cr0_fixed0: int
    cr0_fixed1: int
    cr4_fixed0: int
    cr4_fixed1: int
    ept_5level: bool = False
    vmcs_revision_id: int = 0x12

    def cr0_valid_for_vmx(self, cr0: int, *, unrestricted_guest: bool = False) -> bool:
        """Check CR0 against the FIXED0/FIXED1 MSR pair.

        With unrestricted guest, PE (bit 0) and PG (bit 31) are exempt
        from the fixed-1 requirement (SDM 26.3.1.1).
        """
        fixed0 = self.cr0_fixed0
        if unrestricted_guest:
            fixed0 &= ~0x80000001
        if (cr0 & fixed0) != fixed0:
            return False
        if cr0 & ~self.cr0_fixed1:
            return False
        return True

    def cr4_valid_for_vmx(self, cr4: int) -> bool:
        """Check CR4 against the FIXED0/FIXED1 MSR pair."""
        if (cr4 & self.cr4_fixed0) != self.cr4_fixed0:
            return False
        if cr4 & ~self.cr4_fixed1:
            return False
        return True


#: Architectural CR0/CR4 fixed values on VMX-capable parts.
CR0_FIXED0 = 0x80000021  # PG | NE | PE
CR0_FIXED1 = 0xFFFFFFFF
CR4_FIXED0 = 0x2000      # VMXE
CR4_FIXED1 = 0x177FFFB


#: The vCPU features the capability MSRs depend on, with the setting
#: assumed when a feature map leaves one out.
CAPABILITY_FEATURES: tuple[tuple[str, bool], ...] = (
    ("ept", True), ("unrestricted_guest", True), ("vpid", True),
    ("flexpriority", True), ("enable_shadow_vmcs", True), ("pml", True),
    ("apicv", True), ("vmfunc", False), ("ple", True), ("sgx", False),
    ("pt", False), ("preemption_timer", True),
)

_FEATURE_NAMES, _FEATURE_DEFAULTS = zip(*CAPABILITY_FEATURES)

#: Interned capability sets: by the settings of ``CAPABILITY_FEATURES``,
#: and by value, so equal capability sets are one shared object.
_CAPS_BY_FEATURES: dict[tuple, VmxCapabilities] = {}
_CAPS_BY_VALUE: dict[VmxCapabilities, VmxCapabilities] = {}


def capabilities_for_features(features: dict[str, bool]) -> VmxCapabilities:
    """Derive the VMX capability MSRs from a vCPU feature map.

    Mirrors what KVM's ``nested_vmx_setup_ctls_msrs()`` does: start from
    the host capability superset, then strip allowed-1 bits for disabled
    features. Capability sets are immutable, so every call returns the
    one interned object for its set: callers comparing by identity
    (the entry-check memo, the golden templates) hit.
    """
    key = tuple(map(features.get, _FEATURE_NAMES, _FEATURE_DEFAULTS))
    caps = _CAPS_BY_FEATURES.get(key)
    if caps is None:
        derived = _derive_capabilities(features)
        caps = _CAPS_BY_VALUE.setdefault(derived, derived)
        _CAPS_BY_FEATURES[key] = caps
    return caps


def _derive_capabilities(features: dict[str, bool]) -> VmxCapabilities:
    """Build a new capability set for *features* (no interning).

    Reads only the ``CAPABILITY_FEATURES`` settings of *features*.
    """
    secondary_allowed1 = Secondary.KNOWN
    if not features.get("ept", True):
        secondary_allowed1 &= ~(Secondary.ENABLE_EPT | Secondary.UNRESTRICTED_GUEST
                                | Secondary.ENABLE_PML | Secondary.EPT_VIOLATION_VE
                                | Secondary.MODE_BASED_EPT_EXEC)
    if not features.get("unrestricted_guest", True):
        secondary_allowed1 &= ~Secondary.UNRESTRICTED_GUEST
    if not features.get("vpid", True):
        secondary_allowed1 &= ~Secondary.ENABLE_VPID
    if not features.get("flexpriority", True):
        secondary_allowed1 &= ~(Secondary.VIRTUALIZE_APIC_ACCESSES
                                | Secondary.VIRTUALIZE_X2APIC)
    if not features.get("enable_shadow_vmcs", True):
        secondary_allowed1 &= ~Secondary.SHADOW_VMCS
    if not features.get("pml", True):
        secondary_allowed1 &= ~Secondary.ENABLE_PML
    if not features.get("apicv", True):
        secondary_allowed1 &= ~(Secondary.APIC_REGISTER_VIRT
                                | Secondary.VIRTUAL_INTR_DELIVERY)
    if not features.get("vmfunc", False):
        secondary_allowed1 &= ~Secondary.ENABLE_VMFUNC
    if not features.get("ple", True):
        secondary_allowed1 &= ~Secondary.PAUSE_LOOP_EXITING
    if not features.get("sgx", False):
        secondary_allowed1 &= ~(Secondary.ENCLS_EXITING | Secondary.ENABLE_ENCLV_EXITING)
    if not features.get("pt", False):
        secondary_allowed1 &= ~(Secondary.CONCEAL_VMX_FROM_PT | Secondary.PT_USE_GPA)

    pin_allowed1 = PinBased.KNOWN
    if not features.get("apicv", True):
        pin_allowed1 &= ~PinBased.POSTED_INTERRUPTS
    if not features.get("preemption_timer", True):
        pin_allowed1 &= ~PinBased.PREEMPTION_TIMER

    proc_allowed1 = ProcBased.KNOWN
    if not features.get("flexpriority", True):
        proc_allowed1 &= ~ProcBased.USE_TPR_SHADOW

    entry_allowed1 = EntryControls.KNOWN
    exit_allowed1 = ExitControls.KNOWN
    if not features.get("pt", False):
        entry_allowed1 &= ~(EntryControls.CONCEAL_VMX_FROM_PT | EntryControls.LOAD_RTIT_CTL)
        exit_allowed1 &= ~(ExitControls.CONCEAL_VMX_FROM_PT | ExitControls.CLEAR_RTIT_CTL)

    return VmxCapabilities(
        pin_based=ControlCaps(PinBased.DEFAULT1, pin_allowed1),
        proc_based=ControlCaps(ProcBased.DEFAULT1, proc_allowed1),
        secondary=ControlCaps(0, secondary_allowed1),
        entry=ControlCaps(EntryControls.DEFAULT1, entry_allowed1),
        exit=ControlCaps(ExitControls.DEFAULT1, exit_allowed1),
        cr0_fixed0=CR0_FIXED0,
        cr0_fixed1=CR0_FIXED1,
        cr4_fixed0=CR4_FIXED0,
        cr4_fixed1=CR4_FIXED1,
    )


@cache
def default_capabilities() -> VmxCapabilities:
    """Capabilities of a stock vCPU with all default features (interned)."""
    from repro.arch.cpuid import Vendor, default_feature_map

    return capabilities_for_features(default_feature_map(Vendor.INTEL))
