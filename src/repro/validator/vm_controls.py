"""``VMenterLoadCheckVmControls()`` analogue.

Rounds the VM-execution, VM-entry, and VM-exit control fields of a raw
VMCS to specification-compliant values, following Bochs's check order:
pin-based, processor-based primary and secondary, the exception bitmap,
CR0/CR4 masks and shadows, and the associated physical addresses (I/O
bitmaps, MSR bitmap, MSR-load/store areas).

KNOWN MODELLING GAP (deliberate, paper §3.4): this routine does *not*
know that posted interrupts additionally require the VM-exit control
"acknowledge interrupt on exit". The physical CPU enforces that rule, so
validated states using posted interrupts initially fail on hardware
until the oracle (:mod:`repro.validator.oracle`) observes the rejection
and registers a runtime correction — exactly the detect-and-correct loop
the paper describes.
"""

from __future__ import annotations

from repro.arch.exceptions import ERROR_CODE_VECTORS, EventType, InterruptionInfo
from repro.arch.paging import MAX_PHYSADDR_WIDTH
from repro.validator.base import Change, Rounder
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls, ExitControls, PinBased, ProcBased, Secondary
from repro.vmx.msr_caps import VmxCapabilities
from repro.vmx.vmcs import Vmcs

_PHYS_MASK = (1 << MAX_PHYSADDR_WIDTH) - 1

#: The fuzz-harness VM's RAM window. The validator runs *inside* the
#: harness VM and owns every structure the VMCS points at, so it rounds
#: structure addresses into its own RAM (the EPTP is deliberately NOT
#: rounded this way — its reach is part of the attack surface).
_GUEST_RAM_MASK = 0x0FFF_FFFF

#: The read-only (VM-exit information) fields, in layout order.
_READ_ONLY_ENCODINGS: tuple[int, ...] = tuple(
    s.encoding for s in F.ALL_FIELDS if s.group is F.FieldGroup.READ_ONLY)


def _round_address(r: Rounder, encoding: int, alignment: int, rule: str) -> None:
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


def _normalize_gated_fields(r: Rounder) -> None:
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


def _round_event_injection(r: Rounder) -> None:
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
