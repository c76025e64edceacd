"""Silent hardware behaviours not captured by the written specification.

The paper's validator relies on the physical CPU as ground truth because
"some constraints are also undocumented, and in certain cases, the CPU
silently rounds VMCS values to correct inconsistencies" (§3.4). This
module is the catalogue of such behaviours in our CPU model. They are
deliberately *not* implemented in the Bochs-derived validator, so the
oracle loop in :mod:`repro.validator.oracle` has genuine discrepancies to
detect and learn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.registers import Efer, Rflags
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls
from repro.vmx.vmcs import Vmcs


@dataclass(frozen=True)
class SilentFixup:
    """A record of one silent correction applied during VM entry."""

    field: str
    before: int
    after: int
    note: str


def apply_entry_fixups(vmcs: Vmcs) -> list[SilentFixup]:
    """Mutate *vmcs* the way hardware silently rounds state at VM entry.

    Returns the list of corrections so callers (and the validator's
    oracle) can observe exactly what changed.
    """
    fixups: list[SilentFixup] = []

    def fix(encoding: int, name: str, after: int, note: str) -> None:
        before = vmcs.read(encoding)
        if before != after:
            vmcs.write(encoding, after)
            fixups.append(SilentFixup(name, before, after, note))

    # Quirk 1 (CVE-2023-30456 root): with the IA-32e-mode-guest control
    # set, hardware behaves as if guest CR4.PAE were 1 even when software
    # left it 0 — it *assumes* the bit rather than checking it, and it
    # does NOT rewrite the stored field (the paper: "the CPU silently
    # assumes it is set and allows the VM entry to proceed"). The
    # tolerance lives in repro.cpu.entry_checks.check_guest_state; there
    # is deliberately no fixup here, which is exactly why a literal
    # software reimplementation (KVM's) can diverge from hardware.
    entry = vmcs.read(F.VM_ENTRY_CONTROLS)

    # Quirk 2: RFLAGS bit 1 always reads back as 1 and the reserved bits
    # as 0 after entry, regardless of what was written.
    rflags = vmcs.read(F.GUEST_RFLAGS)
    fix(F.GUEST_RFLAGS, "guest_rflags",
        (rflags | Rflags.FIXED_1) & ~Rflags.RESERVED,
        "RFLAGS fixed bits forced")

    # Quirk 3: with the load-EFER entry control, hardware recomputes
    # EFER.LMA from the IA-32e-mode-guest control rather than trusting
    # the stored bit.
    if entry & EntryControls.LOAD_EFER:
        efer = vmcs.read(F.GUEST_IA32_EFER)
        if entry & EntryControls.IA32E_MODE_GUEST:
            efer |= Efer.LMA
        else:
            efer &= ~Efer.LMA
        fix(F.GUEST_IA32_EFER, "guest_ia32_efer", efer,
            "EFER.LMA recomputed from IA-32e-mode-guest control")

    # Quirk 4: the CS access-rights "accessed" bit (type bit 0) is set by
    # hardware on entry for usable code segments.
    cs_ar = vmcs.read(F.GUEST_CS_AR_BYTES)
    if not cs_ar & (1 << 16) and cs_ar & 0x8:  # usable code segment
        fix(F.GUEST_CS_AR_BYTES, "guest_cs_ar_bytes", cs_ar | 1,
            "CS accessed bit set by hardware")

    # Quirk 5: writes to the guest activity state above the architectural
    # range wrap: hardware keeps only the low 2 bits. (Values 0-3 remain
    # legal-but-dangerous; Xen bug #4 depends on 3 being representable.)
    activity = vmcs.read(F.GUEST_ACTIVITY_STATE)
    fix(F.GUEST_ACTIVITY_STATE, "guest_activity_state", activity & 3,
        "activity state truncated to 2 bits")

    return fixups


#: Field names the validator is known *not* to model precisely; used by
#: tests to assert the oracle loop converges on exactly these.
UNDOCUMENTED_FIELDS = frozenset({
    "guest_rflags",
    "guest_ia32_efer",
    "guest_cs_ar_bytes",
    "guest_activity_state",
})
