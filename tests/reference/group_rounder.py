"""The VMX validator's three group routines as they were before one pass.

Each ``vmenter_load_check_*`` routine here rounds its field group on a
:class:`GroupRounder`, a private copy of the VMCS values of its own,
and commits its group's changes with one ``Vmcs.write_many`` call; the
next group reads the VMCS the previous one wrote.
Production (:meth:`repro.validator.rounding.VmStateValidator.round_to_valid`)
rounds all three groups on one copy and commits once; it must report the
same corrections, group by group, and leave the same values, generation
and journal (tests/validator/test_one_pass_rounder.py).
:func:`tests.reference.per_field_rounder` swaps :data:`Rounder` for a
rounder that writes each correction to the VMCS as it is made.
"""

from __future__ import annotations

from repro.arch.bits import sign_extend
from repro.arch.exceptions import ERROR_CODE_VECTORS, EventType, InterruptionInfo
from repro.arch.paging import MAX_PHYSADDR_WIDTH
from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.arch.segments import AccessRights
from repro.validator.base import Change
from repro.vmx import fields as F
from repro.vmx.controls import (
    ActivityState,
    EntryControls,
    ExitControls,
    Interruptibility,
    PinBased,
    ProcBased,
    Secondary,
)
from repro.vmx.msr_caps import VmxCapabilities
from repro.vmx.vmcs import Vmcs

#: Width masks by encoding.
_MASK: dict[int, int] = {s.encoding: (1 << s.bits) - 1 for s in F.ALL_FIELDS}

_PHYS_MASK = (1 << MAX_PHYSADDR_WIDTH) - 1
_GUEST_RAM_MASK = 0x0FFF_FFFF
_READ_ONLY_ENCODINGS: tuple[int, ...] = tuple(
    s.encoding for s in F.ALL_FIELDS if s.group is F.FieldGroup.READ_ONLY)
_VALID_PAT_TYPES = frozenset({0, 1, 4, 5, 6, 7})
DEBUGCTL_VALID_BITS = 0x1DDF
PERF_GLOBAL_CTRL_VALID_BITS = 0x7_0000_0003
BNDCFGS_RESERVED_BITS = 0xFFC


class GroupRounder:
    """Rounds one field group of a VMCS on a private copy of its values.

    ``read`` and ``force`` work on the copy; :meth:`commit` sends the
    group's changes to the VMCS in one ``Vmcs.write_many`` call.
    """

    def __init__(self, vmcs: Vmcs) -> None:
        self.vmcs = vmcs
        self.values = dict(vmcs._values)
        self.changes: list[Change] = []

    def force(self, encoding: int, value: int, rule: str) -> None:
        values = self.values
        before = values[encoding]
        after = value & _MASK[encoding]
        if before != after:
            values[encoding] = after
            self.changes.append((encoding, before, after, rule))

    def set_bits(self, encoding: int, bits: int, rule: str) -> None:
        self.force(encoding, self.values[encoding] | bits, rule)

    def clear_bits(self, encoding: int, bits: int, rule: str) -> None:
        self.force(encoding, self.values[encoding] & ~bits, rule)

    def read(self, encoding: int) -> int:
        return self.values[encoding]

    def commit(self) -> list[Change]:
        changes = self.changes
        if changes:
            self.vmcs.write_many([(k, after) for k, _, after, _ in changes])
        return changes


#: The rounder each routine makes; :func:`tests.reference.per_field_rounder`
#: patches it.
Rounder = GroupRounder


def round_pat(value: int) -> int:
    """Round each PAT byte to a valid memory type."""
    out = 0
    for i in range(8):
        byte = (value >> (8 * i)) & 0xFF
        if byte not in _VALID_PAT_TYPES:
            byte = 6
        out |= byte << (8 * i)
    return out


def canonicalize(address: int) -> int:
    """Round an address to canonical form by sign-extending bit 47."""
    return sign_extend(address, 48) & ((1 << 64) - 1)


def round_to_valid(vmcs: Vmcs, caps: VmxCapabilities) -> tuple[list[Change], ...]:
    """Round *vmcs* group by group; return each group's changes."""
    controls = vmenter_load_check_vm_controls(vmcs, caps)
    host = vmenter_load_check_host_state(vmcs, caps)
    return controls, host, vmenter_load_check_guest_state(vmcs, caps)


def _round_address(r: GroupRounder, encoding: int, alignment: int, rule: str) -> None:
    """Mask an address field to its alignment, inside harness RAM."""
    addr = r.read(encoding) & _GUEST_RAM_MASK & ~(alignment - 1)
    r.force(encoding, addr, rule)


def vmenter_load_check_vm_controls(vmcs: Vmcs, caps: VmxCapabilities) -> list[Change]:
    """Round all control fields toward validity; return the changes."""
    r = Rounder(vmcs)

    # Read-only (VM-exit information) fields are not part of a generated
    # state: the executor programs VMCS12 through vmwrite, which cannot
    # touch them, so the validator normalises them to zero up front.
    for encoding in _READ_ONLY_ENCODINGS:
        r.force(encoding, 0, "read-only field not writable by vmwrite")

    # Reserved bits against the capability MSRs (allowed-0/allowed-1).
    r.force(F.PIN_BASED_VM_EXEC_CONTROL,
            caps.pin_based.round(r.read(F.PIN_BASED_VM_EXEC_CONTROL)),
            "pin-based controls: allowed-settings rounding")
    r.force(F.CPU_BASED_VM_EXEC_CONTROL,
            caps.proc_based.round(r.read(F.CPU_BASED_VM_EXEC_CONTROL)),
            "proc-based controls: allowed-settings rounding")
    r.force(F.VM_ENTRY_CONTROLS,
            caps.entry.round(r.read(F.VM_ENTRY_CONTROLS)),
            "entry controls: allowed-settings rounding")
    r.force(F.VM_EXIT_CONTROLS,
            caps.exit.round(r.read(F.VM_EXIT_CONTROLS)),
            "exit controls: allowed-settings rounding")

    # A 64-bit host is the only host this platform supports.
    r.set_bits(F.VM_EXIT_CONTROLS, ExitControls.HOST_ADDR_SPACE_SIZE,
               "64-bit host requires host-address-space-size")
    # SMM-only entry controls are invalid outside SMM.
    r.clear_bits(F.VM_ENTRY_CONTROLS,
                 EntryControls.ENTRY_TO_SMM | EntryControls.DEACTIVATE_DUAL_MONITOR,
                 "SMM entry controls cleared outside SMM")

    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS:
        r.force(F.SECONDARY_VM_EXEC_CONTROL,
                caps.secondary.round(r.read(F.SECONDARY_VM_EXEC_CONTROL)),
                "secondary controls: allowed-settings rounding")
    else:
        r.force(F.SECONDARY_VM_EXEC_CONTROL, 0,
                "secondary controls cleared when not activated")
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)

    # Pin/proc NMI dependency chain.
    pin = r.read(F.PIN_BASED_VM_EXEC_CONTROL)
    if pin & PinBased.VIRTUAL_NMIS and not pin & PinBased.NMI_EXITING:
        r.set_bits(F.PIN_BASED_VM_EXEC_CONTROL, PinBased.NMI_EXITING,
                   "virtual NMIs require NMI exiting")
    pin = r.read(F.PIN_BASED_VM_EXEC_CONTROL)
    if proc & ProcBased.NMI_WINDOW_EXITING and not pin & PinBased.VIRTUAL_NMIS:
        r.clear_bits(F.CPU_BASED_VM_EXEC_CONTROL, ProcBased.NMI_WINDOW_EXITING,
                     "NMI-window exiting requires virtual NMIs")

    # TPR shadow / APIC virtualization dependencies.
    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    apic_bits = (Secondary.VIRTUALIZE_X2APIC | Secondary.APIC_REGISTER_VIRT
                 | Secondary.VIRTUAL_INTR_DELIVERY)
    if proc2 & apic_bits and not proc & ProcBased.USE_TPR_SHADOW:
        if caps.proc_based.allowed1 & ProcBased.USE_TPR_SHADOW:
            r.set_bits(F.CPU_BASED_VM_EXEC_CONTROL, ProcBased.USE_TPR_SHADOW,
                       "APIC virtualization requires use-TPR-shadow")
        else:
            r.clear_bits(F.SECONDARY_VM_EXEC_CONTROL, apic_bits,
                         "APIC virtualization unavailable without TPR shadow")
    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)
    if proc2 & Secondary.VIRTUALIZE_X2APIC and proc2 & Secondary.VIRTUALIZE_APIC_ACCESSES:
        r.clear_bits(F.SECONDARY_VM_EXEC_CONTROL, Secondary.VIRTUALIZE_APIC_ACCESSES,
                     "x2APIC mode conflicts with APIC-access virtualization")

    # Posted interrupts need virtual-interrupt delivery and an 8-bit,
    # 64-byte-aligned descriptor. (The ack-intr-on-exit requirement is
    # the documented modelling gap — see module docstring.)
    pin = r.read(F.PIN_BASED_VM_EXEC_CONTROL)
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)
    if pin & PinBased.POSTED_INTERRUPTS:
        if not proc2 & Secondary.VIRTUAL_INTR_DELIVERY:
            if (caps.secondary.allowed1 & Secondary.VIRTUAL_INTR_DELIVERY
                    and proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS
                    and proc & ProcBased.USE_TPR_SHADOW):
                r.set_bits(F.SECONDARY_VM_EXEC_CONTROL,
                           Secondary.VIRTUAL_INTR_DELIVERY,
                           "posted interrupts require virtual-interrupt delivery")
            else:
                r.clear_bits(F.PIN_BASED_VM_EXEC_CONTROL, PinBased.POSTED_INTERRUPTS,
                             "posted interrupts unavailable")
        if r.read(F.PIN_BASED_VM_EXEC_CONTROL) & PinBased.POSTED_INTERRUPTS:
            r.force(F.POSTED_INTR_NV, r.read(F.POSTED_INTR_NV) & 0xFF,
                    "posted-interrupt vector is 8 bits")
            _round_address(r, F.POSTED_INTR_DESC_ADDR, 64,
                           "posted-interrupt descriptor is 64-byte aligned")

    # EPT-dependent features.
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)
    ept_on = bool(proc2 & Secondary.ENABLE_EPT)
    for bits, rule in ((Secondary.UNRESTRICTED_GUEST, "unrestricted guest requires EPT"),
                       (Secondary.ENABLE_PML, "PML requires EPT"),
                       (Secondary.EPT_VIOLATION_VE, "#VE requires EPT"),
                       (Secondary.MODE_BASED_EPT_EXEC, "MBEC requires EPT")):
        if proc2 & bits and not ept_on:
            r.clear_bits(F.SECONDARY_VM_EXEC_CONTROL, bits, rule)
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)

    if ept_on:
        eptp = r.read(F.EPT_POINTER)
        eptp = (eptp & _PHYS_MASK & ~0xFFF) | 6 | (3 << 3)  # WB, 4-level walk
        r.force(F.EPT_POINTER, eptp, "EPTP rounded to WB/4-level/aligned")
    if proc2 & Secondary.ENABLE_VPID and not r.read(F.VIRTUAL_PROCESSOR_ID):
        r.force(F.VIRTUAL_PROCESSOR_ID, 1, "VPID must be nonzero")
    if proc2 & Secondary.ENABLE_PML:
        _round_address(r, F.PML_ADDRESS, 4096, "PML address alignment")
    if proc2 & Secondary.EPT_VIOLATION_VE:
        _round_address(r, F.VE_INFORMATION_ADDRESS, 4096, "#VE info alignment")
    if proc2 & Secondary.ENABLE_VMFUNC:
        func = r.read(F.VM_FUNCTION_CONTROL) & 1
        if func and not ept_on:
            func = 0
        r.force(F.VM_FUNCTION_CONTROL, func, "only EPTP switching supported")
        if func:
            _round_address(r, F.EPTP_LIST_ADDRESS, 4096, "EPTP list alignment")
    if proc2 & Secondary.SHADOW_VMCS:
        _round_address(r, F.VMREAD_BITMAP, 4096, "vmread bitmap alignment")
        _round_address(r, F.VMWRITE_BITMAP, 4096, "vmwrite bitmap alignment")

    # Exception bitmap and CR masks/shadows have no invalid encodings —
    # Bochs loads them unchecked; nothing to round.

    # I/O and MSR bitmap addresses.
    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    if proc & ProcBased.USE_IO_BITMAPS:
        _round_address(r, F.IO_BITMAP_A, 4096, "I/O bitmap A alignment")
        _round_address(r, F.IO_BITMAP_B, 4096, "I/O bitmap B alignment")
    if proc & ProcBased.USE_MSR_BITMAPS:
        _round_address(r, F.MSR_BITMAP, 4096, "MSR bitmap alignment")
    if proc & ProcBased.USE_TPR_SHADOW:
        _round_address(r, F.VIRTUAL_APIC_PAGE_ADDR, 4096, "virtual-APIC page alignment")
        if not r.read(F.SECONDARY_VM_EXEC_CONTROL) & Secondary.VIRTUAL_INTR_DELIVERY:
            r.force(F.TPR_THRESHOLD, r.read(F.TPR_THRESHOLD) & 0xF,
                    "TPR threshold bits 31:4 zero")
    if r.read(F.SECONDARY_VM_EXEC_CONTROL) & Secondary.VIRTUALIZE_APIC_ACCESSES:
        _round_address(r, F.APIC_ACCESS_ADDR, 4096, "APIC-access page alignment")

    pin = r.read(F.PIN_BASED_VM_EXEC_CONTROL)
    if (r.read(F.VM_EXIT_CONTROLS) & ExitControls.SAVE_PREEMPTION_TIMER
            and not pin & PinBased.PREEMPTION_TIMER):
        r.clear_bits(F.VM_EXIT_CONTROLS, ExitControls.SAVE_PREEMPTION_TIMER,
                     "save-preemption-timer requires the timer")

    r.force(F.CR3_TARGET_COUNT, min(r.read(F.CR3_TARGET_COUNT), 4),
            "CR3-target count <= 4")

    # MSR-load/store areas: align, bound the counts to keep areas in range.
    for count_field, addr_field in ((F.VM_EXIT_MSR_STORE_COUNT, F.VM_EXIT_MSR_STORE_ADDR),
                                    (F.VM_EXIT_MSR_LOAD_COUNT, F.VM_EXIT_MSR_LOAD_ADDR),
                                    (F.VM_ENTRY_MSR_LOAD_COUNT, F.VM_ENTRY_MSR_LOAD_ADDR)):
        count = r.read(count_field) & 0xF
        r.force(count_field, count, "MSR area count bounded")
        if count:
            _round_address(r, addr_field, 16, "MSR area 16-byte alignment")

    _round_event_injection(r)
    _normalize_gated_fields(r)
    return r.commit()


def _normalize_gated_fields(r: GroupRounder) -> None:
    """Zero control fields whose enabling feature ended up disabled.

    The CPU ignores these fields when the gate bit is clear, so their
    content carries no behaviour; normalising them keeps the validated
    population concentrated near the specification boundary instead of
    scattered across don't-care bits (this is what makes the Figure-5
    distances meaningful).
    """
    pin = r.read(F.PIN_BASED_VM_EXEC_CONTROL)
    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)

    def gate(condition: bool, encodings: tuple[int, ...], rule: str) -> None:
        if not condition:
            for encoding in encodings:
                r.force(encoding, 0, rule)

    gate(bool(proc & ProcBased.USE_IO_BITMAPS),
         (F.IO_BITMAP_A, F.IO_BITMAP_B), "I/O bitmaps unused")
    gate(bool(proc & ProcBased.USE_MSR_BITMAPS),
         (F.MSR_BITMAP,), "MSR bitmap unused")
    gate(bool(proc & ProcBased.USE_TPR_SHADOW),
         (F.VIRTUAL_APIC_PAGE_ADDR, F.TPR_THRESHOLD), "TPR shadow unused")
    gate(bool(pin & PinBased.POSTED_INTERRUPTS),
         (F.POSTED_INTR_NV, F.POSTED_INTR_DESC_ADDR), "posted interrupts unused")
    gate(bool(pin & PinBased.PREEMPTION_TIMER),
         (F.VMX_PREEMPTION_TIMER_VALUE,), "preemption timer unused")
    gate(bool(proc2 & Secondary.ENABLE_EPT),
         (F.EPT_POINTER, F.PML_ADDRESS, F.SUB_PAGE_PERMISSION_PTR),
         "EPT structures unused")
    gate(bool(proc2 & Secondary.ENABLE_PML), (F.PML_ADDRESS,), "PML unused")
    gate(bool(proc2 & Secondary.ENABLE_VPID),
         (F.VIRTUAL_PROCESSOR_ID,), "VPID unused")
    gate(bool(proc2 & Secondary.VIRTUALIZE_APIC_ACCESSES),
         (F.APIC_ACCESS_ADDR,), "APIC-access page unused")
    gate(bool(proc2 & Secondary.VIRTUAL_INTR_DELIVERY),
         (F.EOI_EXIT_BITMAP0, F.EOI_EXIT_BITMAP1, F.EOI_EXIT_BITMAP2,
          F.EOI_EXIT_BITMAP3), "EOI-exit bitmaps unused")
    gate(bool(proc2 & Secondary.ENABLE_VMFUNC),
         (F.VM_FUNCTION_CONTROL, F.EPTP_LIST_ADDRESS, F.EPTP_INDEX),
         "VM functions unused")
    gate(bool(proc2 & Secondary.SHADOW_VMCS),
         (F.VMREAD_BITMAP, F.VMWRITE_BITMAP), "shadow-VMCS bitmaps unused")
    gate(bool(proc2 & Secondary.EPT_VIOLATION_VE),
         (F.VE_INFORMATION_ADDRESS,), "#VE info unused")
    gate(bool(proc2 & Secondary.PAUSE_LOOP_EXITING),
         (F.PLE_GAP, F.PLE_WINDOW), "PLE unused")
    gate(bool(proc2 & Secondary.USE_TSC_SCALING),
         (F.TSC_MULTIPLIER,), "TSC scaling unused")
    gate(bool(proc2 & Secondary.ENABLE_XSAVES),
         (F.XSS_EXIT_BITMAP,), "XSAVES unused")
    gate(bool(proc2 & Secondary.ENCLS_EXITING),
         (F.ENCLS_EXITING_BITMAP,), "ENCLS exiting unused")
    gate(bool(proc2 & Secondary.ENABLE_ENCLV_EXITING),
         (F.ENCLV_EXITING_BITMAP,), "ENCLV exiting unused")
    # Features our capability surface never advertises.
    for encoding, rule in ((F.TERTIARY_VM_EXEC_CONTROL, "tertiary controls unsupported"),
                           (F.HLAT_POINTER, "HLAT unsupported"),
                           (F.EXECUTIVE_VMCS_POINTER, "dual-monitor SMM unsupported"),
                           (F.ENCLV_EXITING_BITMAP, "ENCLV unsupported")):
        if encoding == F.ENCLV_EXITING_BITMAP and proc2 & Secondary.ENABLE_ENCLV_EXITING:
            continue
        r.force(encoding, 0, rule)
    # CR3-target values beyond the target count are ignored.
    count = r.read(F.CR3_TARGET_COUNT)
    targets = (F.CR3_TARGET_VALUE0, F.CR3_TARGET_VALUE1,
               F.CR3_TARGET_VALUE2, F.CR3_TARGET_VALUE3)
    for idx in range(count, 4):
        r.force(targets[idx], 0, "CR3 target beyond count")
    # MSR areas beyond zero counts.
    for count_field, addr_field in ((F.VM_EXIT_MSR_STORE_COUNT, F.VM_EXIT_MSR_STORE_ADDR),
                                    (F.VM_EXIT_MSR_LOAD_COUNT, F.VM_EXIT_MSR_LOAD_ADDR),
                                    (F.VM_ENTRY_MSR_LOAD_COUNT, F.VM_ENTRY_MSR_LOAD_ADDR)):
        if not r.read(count_field):
            r.force(addr_field, 0, "MSR area unused")


def _round_event_injection(r: GroupRounder) -> None:
    """Make the VM-entry interruption-information field self-consistent."""
    raw = r.read(F.VM_ENTRY_INTR_INFO_FIELD)
    if (raw >> 8) & 7 == 1:  # type 1 is reserved; round to external interrupt
        raw &= ~(7 << 8)
    info = InterruptionInfo.decode(raw)
    if not info.valid:
        return
    vector = info.vector
    event_type = info.event_type
    deliver_ec = info.deliver_error_code
    if event_type == EventType.NMI:
        vector = 2
    if event_type == EventType.HARDWARE_EXCEPTION and vector > 31:
        vector &= 31
    if deliver_ec:
        if event_type != EventType.HARDWARE_EXCEPTION or vector not in ERROR_CODE_VECTORS:
            deliver_ec = False
    fixed = InterruptionInfo(vector, event_type, deliver_ec, True).encode()
    r.force(F.VM_ENTRY_INTR_INFO_FIELD, fixed,
            "event-injection consistency (SDM 26.2.1.3)")
    if deliver_ec:
        r.force(F.VM_ENTRY_EXCEPTION_ERROR_CODE,
                r.read(F.VM_ENTRY_EXCEPTION_ERROR_CODE) & 0x7FFF,
                "error code bits 31:15 zero")


def vmenter_load_check_host_state(vmcs: Vmcs, caps: VmxCapabilities) -> list[Change]:
    """Round host-state fields toward validity; return the changes."""
    r = Rounder(vmcs)

    r.force(F.HOST_CR0, (r.read(F.HOST_CR0) | caps.cr0_fixed0) & caps.cr0_fixed1,
            "host CR0 fixed bits")
    cr4 = (r.read(F.HOST_CR4) | caps.cr4_fixed0) & caps.cr4_fixed1
    cr4 |= Cr4.PAE  # 64-bit host requires PAE
    r.force(F.HOST_CR4, cr4, "host CR4 fixed bits + PAE for 64-bit host")
    r.force(F.HOST_CR3, r.read(F.HOST_CR3) & _PHYS_MASK, "host CR3 width")

    # Selectors: clear TI/RPL; give CS a usable default when null.
    for name, field in F.HOST_SELECTOR_FIELDS.items():
        r.force(field, r.read(field) & ~0x7, f"host {name} selector TI/RPL clear")
    if not r.read(F.HOST_CS_SELECTOR):
        r.force(F.HOST_CS_SELECTOR, 0x10, "host CS selector must not be null")
    # NOTE: the corresponding TR null check is the documented gap — no
    # rounding of HOST_TR_SELECTOR here.

    for field, rule in ((F.HOST_FS_BASE, "host FS base canonical"),
                        (F.HOST_GS_BASE, "host GS base canonical"),
                        (F.HOST_TR_BASE, "host TR base canonical"),
                        (F.HOST_GDTR_BASE, "host GDTR base canonical"),
                        (F.HOST_IDTR_BASE, "host IDTR base canonical"),
                        (F.HOST_IA32_SYSENTER_ESP, "host SYSENTER_ESP canonical"),
                        (F.HOST_IA32_SYSENTER_EIP, "host SYSENTER_EIP canonical"),
                        (F.HOST_RIP, "host RIP canonical")):
        r.force(field, canonicalize(r.read(field)), rule)

    exit_ = r.read(F.VM_EXIT_CONTROLS)
    if exit_ & ExitControls.LOAD_EFER:
        efer = r.read(F.HOST_IA32_EFER) & ~Efer.RESERVED
        efer |= Efer.LME | Efer.LMA  # 64-bit host
        r.force(F.HOST_IA32_EFER, efer, "host EFER LMA/LME for 64-bit host")
    else:
        r.force(F.HOST_IA32_EFER, 0, "host EFER ignored without load-EFER")
    if exit_ & ExitControls.LOAD_PAT:
        r.force(F.HOST_IA32_PAT, round_pat(r.read(F.HOST_IA32_PAT)),
                "host PAT memory types")
    else:
        r.force(F.HOST_IA32_PAT, 0, "host PAT ignored without load-PAT")
    if exit_ & ExitControls.LOAD_PERF_GLOBAL_CTRL:
        r.force(F.HOST_IA32_PERF_GLOBAL_CTRL,
                r.read(F.HOST_IA32_PERF_GLOBAL_CTRL) & 0x7_0000_0003,
                "host PERF_GLOBAL_CTRL reserved bits zero")
    else:
        r.force(F.HOST_IA32_PERF_GLOBAL_CTRL, 0,
                "host PERF_GLOBAL_CTRL ignored without its load control")
    if exit_ & ExitControls.LOAD_PKRS:
        r.force(F.HOST_IA32_PKRS, r.read(F.HOST_IA32_PKRS) & 0xFFFFFFFF,
                "host PKRS bits 63:32 zero")
    else:
        r.force(F.HOST_IA32_PKRS, 0, "host PKRS ignored without its load control")
    if exit_ & ExitControls.LOAD_CET_STATE:
        r.force(F.HOST_IA32_S_CET, canonicalize(r.read(F.HOST_IA32_S_CET) & ~0x3C),
                "host S_CET reserved bits zero")
    else:
        r.force(F.HOST_IA32_S_CET, 0, "host CET ignored without its load control")

    return r.commit()


def _round_guest_msr_images(r: GroupRounder, entry: int) -> None:
    """Round the guest MSR-image fields gated by VM-entry controls."""
    if entry & EntryControls.LOAD_PERF_GLOBAL_CTRL:
        r.force(F.GUEST_IA32_PERF_GLOBAL_CTRL,
                r.read(F.GUEST_IA32_PERF_GLOBAL_CTRL) & PERF_GLOBAL_CTRL_VALID_BITS,
                "PERF_GLOBAL_CTRL reserved bits zero")
    else:
        r.force(F.GUEST_IA32_PERF_GLOBAL_CTRL, 0,
                "PERF_GLOBAL_CTRL ignored without its load control")
    if entry & EntryControls.LOAD_BNDCFGS:
        bndcfgs = r.read(F.GUEST_IA32_BNDCFGS) & ~BNDCFGS_RESERVED_BITS
        r.force(F.GUEST_IA32_BNDCFGS, canonicalize(bndcfgs),
                "BNDCFGS reserved bits zero, base canonical")
    else:
        r.force(F.GUEST_IA32_BNDCFGS, 0, "BNDCFGS ignored without its load control")
    if entry & EntryControls.LOAD_RTIT_CTL:
        r.force(F.GUEST_IA32_RTIT_CTL, r.read(F.GUEST_IA32_RTIT_CTL) & 0x1,
                "RTIT_CTL restricted to TraceEn")
    else:
        r.force(F.GUEST_IA32_RTIT_CTL, 0, "RTIT_CTL ignored without its load control")
    if entry & EntryControls.LOAD_PKRS:
        r.force(F.GUEST_IA32_PKRS, r.read(F.GUEST_IA32_PKRS) & 0xFFFFFFFF,
                "PKRS bits 63:32 zero")
    else:
        r.force(F.GUEST_IA32_PKRS, 0, "PKRS ignored without its load control")
    if entry & EntryControls.LOAD_CET_STATE:
        r.force(F.GUEST_IA32_S_CET, canonicalize(r.read(F.GUEST_IA32_S_CET) & ~0x3C),
                "S_CET reserved bits zero")
    else:
        r.force(F.GUEST_IA32_S_CET, 0, "CET state ignored without its load control")
    # No VM-entry control governs LBR_CTL on the parts we model.
    r.force(F.GUEST_IA32_LBR_CTL, 0, "LBR_CTL unsupported")
    # SMBASE is meaningful only for entries to SMM, which are rounded away.
    r.force(F.GUEST_SMBASE, 0, "SMBASE ignored outside SMM")


def _round_limit_granularity(limit: int, ar: int) -> tuple[int, int]:
    """Fix the SDM limit/granularity consistency rule by adjusting AR.G."""
    if limit & 0xFFF00000:
        ar |= AccessRights.G
        if (limit & 0xFFF) != 0xFFF:
            limit |= 0xFFF
    elif (limit & 0xFFF) != 0xFFF:
        ar &= ~AccessRights.G
    return limit, ar


def vmenter_load_check_guest_state(vmcs: Vmcs, caps: VmxCapabilities) -> list[Change]:
    """Round guest-state fields toward validity; return the changes."""
    r = Rounder(vmcs)

    entry = r.read(F.VM_ENTRY_CONTROLS)
    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)
    effective_proc2 = proc2 if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS else 0
    unrestricted = bool(effective_proc2 & Secondary.UNRESTRICTED_GUEST)
    ia32e_guest = bool(entry & EntryControls.IA32E_MODE_GUEST)

    # --- control registers ---------------------------------------------------
    cr0 = r.read(F.GUEST_CR0)
    fixed0 = caps.cr0_fixed0
    if unrestricted:
        fixed0 &= ~0x80000001  # PE/PG exempt under unrestricted guest
    cr0 = (cr0 | fixed0) & caps.cr0_fixed1
    if cr0 & Cr0.PG:
        cr0 |= Cr0.PE
    if cr0 & Cr0.NW and not cr0 & Cr0.CD:
        cr0 &= ~Cr0.NW
    if ia32e_guest:
        cr0 |= Cr0.PG | Cr0.PE
    r.force(F.GUEST_CR0, cr0, "guest CR0 fixed bits and PG/PE rules")

    cr4 = (r.read(F.GUEST_CR4) | caps.cr4_fixed0) & caps.cr4_fixed1
    if ia32e_guest:
        # Paper §4.3 worked example: LME set while CR4.PAE unset — the
        # validator forces PAE to 1 to satisfy architectural constraints.
        cr4 |= Cr4.PAE
    else:
        cr4 &= ~Cr4.PCIDE
    r.force(F.GUEST_CR4, cr4, "guest CR4 fixed bits / PAE for IA-32e")

    r.force(F.GUEST_CR3, r.read(F.GUEST_CR3) & _PHYS_MASK, "guest CR3 width")
    if entry & EntryControls.LOAD_DEBUG_CONTROLS:
        r.force(F.GUEST_DR7, r.read(F.GUEST_DR7) & 0xFFFFFFFF, "DR7 bits 63:32 zero")
        r.force(F.GUEST_IA32_DEBUGCTL,
                r.read(F.GUEST_IA32_DEBUGCTL) & DEBUGCTL_VALID_BITS,
                "DEBUGCTL reserved bits zero")
    else:
        r.force(F.GUEST_DR7, 0x400, "DR7 ignored without load-debug-controls")
        r.force(F.GUEST_IA32_DEBUGCTL, 0,
                "DEBUGCTL ignored without load-debug-controls")

    if entry & EntryControls.LOAD_EFER:
        efer = r.read(F.GUEST_IA32_EFER) & ~Efer.RESERVED
        if ia32e_guest:
            efer |= Efer.LMA | Efer.LME
        else:
            efer &= ~Efer.LMA
            if r.read(F.GUEST_CR0) & Cr0.PG:
                efer &= ~Efer.LME
        r.force(F.GUEST_IA32_EFER, efer, "guest EFER LMA/LME consistency")

    else:
        r.force(F.GUEST_IA32_EFER, 0, "guest EFER ignored without load-EFER")

    if entry & EntryControls.LOAD_PAT:
        r.force(F.GUEST_IA32_PAT, round_pat(r.read(F.GUEST_IA32_PAT)),
                "guest PAT memory types")
    else:
        r.force(F.GUEST_IA32_PAT, 0, "guest PAT ignored without load-PAT")

    _round_guest_msr_images(r, entry)

    # --- RFLAGS ---------------------------------------------------------------
    rflags = (r.read(F.GUEST_RFLAGS) | Rflags.FIXED_1) & ~Rflags.RESERVED
    if ia32e_guest or not r.read(F.GUEST_CR0) & Cr0.PE:
        rflags &= ~Rflags.VM
    intr_info = r.read(F.VM_ENTRY_INTR_INFO_FIELD)
    if intr_info >> 31 and (intr_info >> 8) & 7 == 0:
        rflags |= Rflags.IF  # injecting an external interrupt requires IF
    r.force(F.GUEST_RFLAGS, rflags, "RFLAGS fixed bits / VM / IF rules")
    virtual_8086 = bool(rflags & Rflags.VM)

    # --- segment registers ------------------------------------------------------
    if virtual_8086:
        _round_v8086_segments(r)
    else:
        _round_protected_segments(r, ia32e_guest=ia32e_guest,
                                  unrestricted=unrestricted)

    # --- descriptor tables ---------------------------------------------------------
    for base_field, limit_field, rule in (
            (F.GUEST_GDTR_BASE, F.GUEST_GDTR_LIMIT, "GDTR"),
            (F.GUEST_IDTR_BASE, F.GUEST_IDTR_LIMIT, "IDTR")):
        r.force(base_field, canonicalize(r.read(base_field)), f"{rule} base canonical")
        r.force(limit_field, r.read(limit_field) & 0xFFFF, f"{rule} limit 16 bits")

    # --- RIP -------------------------------------------------------------------------
    cs_ar = r.read(F.GUEST_CS_AR_BYTES)
    rip = r.read(F.GUEST_RIP)
    if ia32e_guest and cs_ar & AccessRights.L:
        r.force(F.GUEST_RIP, canonicalize(rip), "RIP canonical in 64-bit mode")
    else:
        r.force(F.GUEST_RIP, rip & 0xFFFFFFFF, "RIP bits 63:32 zero")

    # --- activity / interruptibility ---------------------------------------------------
    activity = r.read(F.GUEST_ACTIVITY_STATE) & 3
    interruptibility = r.read(F.GUEST_INTERRUPTIBILITY_INFO) & ~Interruptibility.RESERVED
    if interruptibility & Interruptibility.STI_BLOCKING:
        if interruptibility & Interruptibility.MOV_SS_BLOCKING:
            interruptibility &= ~Interruptibility.STI_BLOCKING
        if not r.read(F.GUEST_RFLAGS) & Rflags.IF:
            interruptibility &= ~Interruptibility.STI_BLOCKING
    if activity == ActivityState.HLT and interruptibility & (
            Interruptibility.STI_BLOCKING | Interruptibility.MOV_SS_BLOCKING):
        interruptibility &= ~(Interruptibility.STI_BLOCKING
                              | Interruptibility.MOV_SS_BLOCKING)
    if activity in (ActivityState.SHUTDOWN, ActivityState.WAIT_FOR_SIPI):
        if intr_info >> 31:
            activity = ActivityState.ACTIVE
    r.force(F.GUEST_ACTIVITY_STATE, activity, "activity state rules")
    r.force(F.GUEST_INTERRUPTIBILITY_INFO, interruptibility,
            "interruptibility consistency")

    r.force(F.GUEST_PENDING_DBG_EXCEPTIONS,
            r.read(F.GUEST_PENDING_DBG_EXCEPTIONS) & 0x1600F,
            "pending debug exceptions reserved bits")

    # --- VMCS link pointer ------------------------------------------------------------
    link = r.read(F.VMCS_LINK_POINTER)
    if link != (1 << 64) - 1:
        if effective_proc2 & Secondary.SHADOW_VMCS:
            r.force(F.VMCS_LINK_POINTER, link & _PHYS_MASK & ~0xFFF,
                    "shadow link pointer alignment")
        else:
            r.force(F.VMCS_LINK_POINTER, (1 << 64) - 1,
                    "link pointer all-ones without shadow VMCS")

    # --- PDPTEs (legacy PAE) -------------------------------------------------------------
    cr0 = r.read(F.GUEST_CR0)
    cr4 = r.read(F.GUEST_CR4)
    if not ia32e_guest and cr0 & Cr0.PG and cr4 & Cr4.PAE:
        for field in (F.GUEST_PDPTE0, F.GUEST_PDPTE1, F.GUEST_PDPTE2, F.GUEST_PDPTE3):
            pdpte = r.read(field)
            if pdpte & 1:
                r.force(field, pdpte & ~0x1E6, "PDPTE reserved bits clear")
    else:
        for field in (F.GUEST_PDPTE0, F.GUEST_PDPTE1, F.GUEST_PDPTE2, F.GUEST_PDPTE3):
            r.force(field, 0, "PDPTEs unused outside legacy PAE paging")

    # Fields gated by execution controls on the guest side.
    if not effective_proc2 & Secondary.VIRTUAL_INTR_DELIVERY:
        r.force(F.GUEST_INTR_STATUS, 0, "interrupt status unused without VID")
    if not effective_proc2 & Secondary.ENABLE_PML:
        r.force(F.GUEST_PML_INDEX, 0, "PML index unused without PML")

    for field, rule in ((F.GUEST_SYSENTER_ESP, "SYSENTER_ESP canonical"),
                        (F.GUEST_SYSENTER_EIP, "SYSENTER_EIP canonical")):
        r.force(field, canonicalize(r.read(field)), rule)

    return r.commit()


def _round_v8086_segments(r: GroupRounder) -> None:
    """Force the virtual-8086 segment shape (base=sel<<4, limit, AR 0xF3)."""
    for name in ("es", "cs", "ss", "ds", "fs", "gs"):
        selector = r.read(F.SEGMENT_SELECTOR_FIELDS[name])
        r.force(F.SEGMENT_BASE_FIELDS[name], (selector << 4) & 0xFFFF0,
                "v8086 base = selector << 4")
        r.force(F.SEGMENT_LIMIT_FIELDS[name], 0xFFFF, "v8086 limit")
        r.force(F.SEGMENT_AR_FIELDS[name], 0xF3, "v8086 access rights")
    _round_tr_ldtr(r, ia32e_guest=False)


def _round_protected_segments(r: GroupRounder, *, ia32e_guest: bool,
                              unrestricted: bool) -> None:
    """Round CS/SS/DS/ES/FS/GS plus TR/LDTR for protected/long mode."""
    # CS first — other checks reference it.
    cs_ar = r.read(F.GUEST_CS_AR_BYTES) & ~AccessRights.RESERVED
    cs_ar &= ~AccessRights.UNUSABLE
    cs_ar |= AccessRights.P | AccessRights.S
    cs_type = cs_ar & 0xF
    if not cs_type & 0x8:  # not a code segment
        if not (unrestricted and cs_type == 0x3):
            cs_ar = (cs_ar & ~0xF) | 0xB
            cs_type = 0xB
    cs_ar |= 1  # accessed
    if cs_ar & AccessRights.L and cs_ar & AccessRights.DB:
        cs_ar &= ~AccessRights.DB
    cs_limit, cs_ar = _round_limit_granularity(r.read(F.GUEST_CS_LIMIT), cs_ar)
    if (cs_ar & 0xF) == 0x3:
        cs_ar &= ~(3 << 5)  # type-3 CS requires DPL 0
    r.force(F.GUEST_CS_LIMIT, cs_limit, "CS limit/granularity")
    r.force(F.GUEST_CS_AR_BYTES, cs_ar, "CS access rights")
    r.force(F.GUEST_CS_BASE, r.read(F.GUEST_CS_BASE) & 0xFFFFFFFF,
            "CS base bits 63:32 zero")
    cs_dpl = (cs_ar >> 5) & 3
    cs_rpl = r.read(F.GUEST_CS_SELECTOR) & 3

    # SS: writable data, matching privilege.
    ss_ar = r.read(F.GUEST_SS_AR_BYTES) & ~AccessRights.RESERVED
    if not ss_ar & AccessRights.UNUSABLE:
        ss_ar |= AccessRights.P | AccessRights.S
        if (ss_ar & 0xF) not in (0x3, 0x7):
            ss_ar = (ss_ar & ~0xF) | 0x3
        ss_limit, ss_ar = _round_limit_granularity(r.read(F.GUEST_SS_LIMIT), ss_ar)
        r.force(F.GUEST_SS_LIMIT, ss_limit, "SS limit/granularity")
        if not unrestricted:
            selector = (r.read(F.GUEST_SS_SELECTOR) & ~3) | cs_rpl
            r.force(F.GUEST_SS_SELECTOR, selector, "SS.RPL = CS.RPL")
            ss_ar = (ss_ar & ~(3 << 5)) | (cs_rpl << 5)  # SS.DPL = SS.RPL
        if (cs_ar & 0xF) in (0x9, 0xB):
            ss_ar = (ss_ar & ~(3 << 5)) | (cs_dpl << 5)
        elif (cs_ar & 0xF) in (0xD, 0xF):
            # Conforming CS: CS.DPL must not exceed SS.DPL.
            ss_dpl = (ss_ar >> 5) & 3
            if cs_dpl > ss_dpl:
                cs_ar = (cs_ar & ~(3 << 5)) | (ss_dpl << 5)
                r.force(F.GUEST_CS_AR_BYTES, cs_ar,
                        "conforming CS.DPL clamped to SS.DPL")
    r.force(F.GUEST_SS_AR_BYTES, ss_ar, "SS access rights")
    r.force(F.GUEST_SS_BASE, r.read(F.GUEST_SS_BASE) & 0xFFFFFFFF,
            "SS base bits 63:32 zero")

    for name in ("ds", "es", "fs", "gs"):
        ar = r.read(F.SEGMENT_AR_FIELDS[name]) & ~AccessRights.RESERVED
        if not ar & AccessRights.UNUSABLE:
            ar |= AccessRights.P | AccessRights.S | 1  # present, non-system, accessed
            if ar & 0x8 and not ar & 0x2:
                ar |= 0x2  # code must be readable
            limit, ar = _round_limit_granularity(r.read(F.SEGMENT_LIMIT_FIELDS[name]), ar)
            r.force(F.SEGMENT_LIMIT_FIELDS[name], limit, f"{name} limit/granularity")
        r.force(F.SEGMENT_AR_FIELDS[name], ar, f"{name} access rights")
        base = r.read(F.SEGMENT_BASE_FIELDS[name])
        if name in ("fs", "gs"):
            r.force(F.SEGMENT_BASE_FIELDS[name], canonicalize(base),
                    f"{name} base canonical")
        else:
            r.force(F.SEGMENT_BASE_FIELDS[name], base & 0xFFFFFFFF,
                    f"{name} base bits 63:32 zero")

    _round_tr_ldtr(r, ia32e_guest=ia32e_guest)


def _round_tr_ldtr(r: GroupRounder, *, ia32e_guest: bool) -> None:
    """Round TR (always usable busy TSS) and LDTR (usable LDT or unusable)."""
    tr_ar = r.read(F.GUEST_TR_AR_BYTES) & ~AccessRights.RESERVED
    tr_ar &= ~(AccessRights.UNUSABLE | AccessRights.S)
    tr_ar |= AccessRights.P
    tr_type = tr_ar & 0xF
    if ia32e_guest or tr_type not in (0x3, 0xB):
        tr_ar = (tr_ar & ~0xF) | 0xB
    tr_limit, tr_ar = _round_limit_granularity(r.read(F.GUEST_TR_LIMIT), tr_ar)
    r.force(F.GUEST_TR_LIMIT, tr_limit, "TR limit/granularity")
    r.force(F.GUEST_TR_AR_BYTES, tr_ar, "TR access rights")
    r.force(F.GUEST_TR_SELECTOR, r.read(F.GUEST_TR_SELECTOR) & ~0x4,
            "TR selector TI clear")
    r.force(F.GUEST_TR_BASE, canonicalize(r.read(F.GUEST_TR_BASE)),
            "TR base canonical")

    ldtr_ar = r.read(F.GUEST_LDTR_AR_BYTES) & ~AccessRights.RESERVED
    if not ldtr_ar & AccessRights.UNUSABLE:
        ldtr_ar &= ~AccessRights.S
        ldtr_ar |= AccessRights.P
        ldtr_ar = (ldtr_ar & ~0xF) | 0x2
        ldtr_limit, ldtr_ar = _round_limit_granularity(
            r.read(F.GUEST_LDTR_LIMIT), ldtr_ar)
        r.force(F.GUEST_LDTR_LIMIT, ldtr_limit, "LDTR limit/granularity")
        r.force(F.GUEST_LDTR_SELECTOR, r.read(F.GUEST_LDTR_SELECTOR) & ~0x4,
                "LDTR selector TI clear")
        r.force(F.GUEST_LDTR_BASE, canonicalize(r.read(F.GUEST_LDTR_BASE)),
                "LDTR base canonical")
    r.force(F.GUEST_LDTR_AR_BYTES, ldtr_ar, "LDTR access rights")
